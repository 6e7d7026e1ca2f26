//! Per-request span traces and VLRT root-cause attribution.
//!
//! The paper's "milliScope"-style instrumentation records, for every
//! request, the precise instants at which it crossed each component of
//! the n-tier system. This module is the storage and analysis side of
//! that instrumentation, independent of the simulator that feeds it:
//!
//! * [`SpanKind`]/[`SpanEvent`] — the typed vocabulary of lifecycle
//!   events (issue, drop, retransmit, routing decisions, backend hops);
//! * [`RequestTrace`] — one request's ordered event timeline, from which
//!   the six response-time segments of
//!   `mlb_ntier`'s `PhaseBreakdown` can be re-derived per request;
//! * [`TraceLog`] — an optional bounded ring of completed traces plus
//!   streaming VLRT attribution: for every response above the VLRT
//!   threshold, traced or not, which segment dominated and which
//!   millibottleneck ([`StallWindow`]) the request overlapped, with the
//!   first VLRTs' timelines kept as causal chains.
//!
//! The log is deliberately cheap: events are plain copyable enums pushed
//! into per-request vectors, retention is bounded, and everything is
//! deterministic — two identical simulations produce byte-identical
//! traces (see [`TraceLog::digest`]).

use std::collections::VecDeque;

use mlb_simkernel::time::{SimDuration, SimTime};

/// One typed lifecycle event in a request's trace.
///
/// Backend indices are zero-based Tomcat slots; `lb_value` is the
/// balancer's scoreboard value for the chosen backend *at decision time*;
/// `attempt` counts TCP transmissions of the request (first send = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Client issued the request (first transmission).
    Issued {
        /// Issuing client id.
        client: u64,
        /// Front-end Apache slot the client is wired to.
        apache: u16,
    },
    /// The request reached its Apache (transmission `attempt`).
    Arrived {
        /// Transmission number that reached the server.
        attempt: u32,
    },
    /// The accept queue was full; the packet was dropped.
    Dropped {
        /// Transmission number that was dropped.
        attempt: u32,
    },
    /// TCP scheduled a retransmission after `wait` (the 1 s / 2 s / 4 s
    /// exponential backoff clusters).
    RetransmitScheduled {
        /// Transmission number about to be re-sent.
        attempt: u32,
        /// RTO wait before the retransmission.
        wait: SimDuration,
    },
    /// An Apache worker thread claimed the request.
    Admitted,
    /// Apache parsing finished; balancer routing began.
    RoutingStarted,
    /// `get_endpoint` found the AJP pool to `backend` exhausted and will
    /// poll again after `sleep`.
    EndpointBusy {
        /// Polled backend.
        backend: u16,
        /// Poll sleep before the next attempt.
        sleep: SimDuration,
    },
    /// The mechanism stopped polling `backend` and re-entered selection.
    EndpointGaveUp {
        /// Abandoned backend.
        backend: u16,
    },
    /// Selection found no eligible backend; the worker sleeps and retries.
    NoCandidate {
        /// Selection retry sleep.
        sleep: SimDuration,
    },
    /// A CPing probe was sent to `backend` before forwarding.
    ProbeSent {
        /// Probed backend.
        backend: u16,
    },
    /// The CPing probe to `backend` timed out (backend frozen).
    ProbeTimedOut {
        /// Unresponsive backend.
        backend: u16,
    },
    /// An AJP endpoint to `backend` was acquired; the request is
    /// committed there. `lb_value` is the policy's scoreboard value for
    /// that backend at this decision.
    EndpointAcquired {
        /// Chosen backend.
        backend: u16,
        /// Policy lb_value of the chosen backend at decision time.
        lb_value: u64,
    },
    /// The request reached its Tomcat (`queued` if no thread was free).
    ArrivedBackend {
        /// Receiving backend.
        backend: u16,
        /// Whether it had to queue for a servlet thread.
        queued: bool,
    },
    /// A servlet thread started executing the request.
    BackendStarted,
    /// A MySQL query round-trip was dispatched (`remaining` still to go).
    DbDispatched {
        /// Queries left after this one.
        remaining: u32,
    },
    /// Servlet finished; the response is travelling back to Apache.
    Responding,
    /// The response reached the front-end Apache.
    RepliedFrontend,
    /// The client received the response (`rt` = end-to-end response
    /// time from first transmission).
    Completed {
        /// End-to-end response time.
        rt: SimDuration,
    },
    /// The request terminally failed (RTO schedule or routing budget
    /// exhausted) after `elapsed` since first transmission.
    Failed {
        /// Time from first transmission to the failure.
        elapsed: SimDuration,
    },
}

/// One timestamped span event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulation instant of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: SpanKind,
}

/// The six response-time segments, mirroring `PhaseBreakdown`'s order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// First transmission to last arrival at Apache (drops + RTO waits).
    RetransmitWait,
    /// Accept-queue wait for an Apache worker.
    ApacheAdmission,
    /// Apache run-queue wait plus parsing burst.
    ApacheCpu,
    /// Balancer selection, `get_endpoint` polling, probing.
    Routing,
    /// Endpoint acquisition to response back at Apache.
    Backend,
    /// Apache back to the client.
    Response,
}

impl Segment {
    /// All segments in breakdown order.
    pub const ALL: [Segment; 6] = [
        Segment::RetransmitWait,
        Segment::ApacheAdmission,
        Segment::ApacheCpu,
        Segment::Routing,
        Segment::Backend,
        Segment::Response,
    ];

    /// Human label (matches `PhaseBreakdown::labels`).
    pub fn label(self) -> &'static str {
        match self {
            Segment::RetransmitWait => "retransmit wait",
            Segment::ApacheAdmission => "apache admission",
            Segment::ApacheCpu => "apache cpu",
            Segment::Routing => "routing/get_endpoint",
            Segment::Backend => "backend (tomcat+db)",
            Segment::Response => "response",
        }
    }

    /// The segment with the most µs in `segs` (breakdown order); the
    /// first strict maximum wins ties, and all-zero reads as
    /// [`Segment::RetransmitWait`].
    pub fn dominant(segs: &[u64; 6]) -> Segment {
        let (mut best, mut best_us) = (Segment::RetransmitWait, 0u64);
        for s in Segment::ALL {
            if segs[s.index()] > best_us {
                best_us = segs[s.index()];
                best = s;
            }
        }
        best
    }

    /// Index into a `[u64; 6]` segment array.
    pub fn index(self) -> usize {
        match self {
            Segment::RetransmitWait => 0,
            Segment::ApacheAdmission => 1,
            Segment::ApacheCpu => 2,
            Segment::Routing => 3,
            Segment::Backend => 4,
            Segment::Response => 5,
        }
    }
}

/// One request's ordered event timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
// simlint::state(observer)
pub struct RequestTrace {
    /// The logical request id.
    pub id: u64,
    /// Events in simulation order.
    pub events: Vec<SpanEvent>,
}

impl RequestTrace {
    /// An empty trace for request `id`.
    pub fn new(id: u64) -> Self {
        RequestTrace {
            id,
            events: Vec::new(),
        }
    }

    /// An empty trace for request `id` reusing a retired trace's event
    /// buffer (cleared, allocation kept) — the span half of the
    /// allocation-free steady state.
    pub fn recycled(id: u64, mut events: Vec<SpanEvent>) -> Self {
        events.clear();
        RequestTrace { id, events }
    }

    /// Consumes the trace, returning its event buffer for reuse via
    /// [`RequestTrace::recycled`].
    pub fn into_events(self) -> Vec<SpanEvent> {
        self.events
    }

    /// Appends one event. Events must be pushed in simulation order.
    pub fn push(&mut self, at: SimTime, kind: SpanKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.at <= at),
            "span events must be pushed in simulation order"
        );
        self.events.push(SpanEvent { at, kind });
    }

    /// The instant of the first event, if any.
    pub fn issued_at(&self) -> Option<SimTime> {
        self.events.first().map(|e| e.at)
    }

    /// The instant of the last event, if any.
    pub fn last_at(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.at)
    }

    /// The end-to-end response time, if the request completed.
    pub fn response_time(&self) -> Option<SimDuration> {
        // simlint::allow(match-exhaustive): only Completed carries the rt; no other variant, present or future, can end a request
        self.events.iter().rev().find_map(|e| match e.kind {
            SpanKind::Completed { rt } => Some(rt),
            _ => None,
        })
    }

    /// Total TCP transmissions of the request (1 = never dropped).
    pub fn attempts(&self) -> u32 {
        // simlint::allow(match-exhaustive): attempt counters live only on Arrived/Dropped; every other event maps to the 1-transmission floor
        self.events
            .iter()
            .map(|e| match e.kind {
                SpanKind::Arrived { attempt } | SpanKind::Dropped { attempt } => attempt,
                _ => 1,
            })
            .max()
            .unwrap_or(1)
    }

    /// The backend that finally served the request, if one was acquired.
    pub fn served_by(&self) -> Option<u16> {
        // simlint::allow(match-exhaustive): EndpointAcquired is by construction the only variant naming the serving backend
        self.events.iter().rev().find_map(|e| match e.kind {
            SpanKind::EndpointAcquired { backend, .. } => Some(backend),
            _ => None,
        })
    }

    /// Re-derives the six per-request segments (µs, breakdown order) from
    /// the timeline. Returns `None` unless the trace contains the full
    /// completed lifecycle; when `Some`, the segments sum exactly to the
    /// recorded response time.
    pub fn segments_us(&self) -> Option<[u64; 6]> {
        let issued = self.issued_at()?;
        let mut arrived = None;
        let mut admitted = None;
        let mut routed = None;
        let mut acquired = None;
        let mut replied = None;
        let mut done = None;
        for e in &self.events {
            match e.kind {
                SpanKind::Arrived { .. } => arrived = Some(e.at),
                SpanKind::Admitted => admitted = admitted.or(Some(e.at)),
                SpanKind::RoutingStarted => routed = routed.or(Some(e.at)),
                // A probe timeout releases the endpoint; the *last*
                // acquisition is the one that served the request.
                SpanKind::EndpointAcquired { .. } => acquired = Some(e.at),
                SpanKind::RepliedFrontend => replied = Some(e.at),
                SpanKind::Completed { .. } => done = Some(e.at),
                // The remaining lifecycle events mark waiting or
                // backend-internal progress between the six segment
                // edges; spelled out so a new variant forces a decision
                // about which segment it bounds.
                SpanKind::Issued { .. }
                | SpanKind::Dropped { .. }
                | SpanKind::RetransmitScheduled { .. }
                | SpanKind::EndpointBusy { .. }
                | SpanKind::EndpointGaveUp { .. }
                | SpanKind::NoCandidate { .. }
                | SpanKind::ProbeSent { .. }
                | SpanKind::ProbeTimedOut { .. }
                | SpanKind::ArrivedBackend { .. }
                | SpanKind::BackendStarted
                | SpanKind::DbDispatched { .. }
                | SpanKind::Responding
                | SpanKind::Failed { .. } => {}
            }
        }
        let (arrived, admitted, routed, acquired, replied, done) =
            (arrived?, admitted?, routed?, acquired?, replied?, done?);
        Some([
            arrived.saturating_since(issued).as_micros(),
            admitted.saturating_since(arrived).as_micros(),
            routed.saturating_since(admitted).as_micros(),
            acquired.saturating_since(routed).as_micros(),
            replied.saturating_since(acquired).as_micros(),
            done.saturating_since(replied).as_micros(),
        ])
    }

    /// The segment holding the largest share of the response time.
    pub fn dominant_segment(&self) -> Option<Segment> {
        self.segments_us().map(|segs| Segment::dominant(&segs))
    }

    /// Renders the timeline as human-readable lines, with offsets in
    /// milliseconds relative to the first transmission.
    pub fn render(&self) -> String {
        let Some(issued) = self.issued_at() else {
            return "  (empty trace)\n".to_owned();
        };
        let mut out = String::new();
        for e in &self.events {
            let off = e.at.saturating_since(issued).as_millis_f64();
            let line = match e.kind {
                SpanKind::Issued { client, apache } => {
                    format!("issued by client {client} toward apache{}", apache + 1)
                }
                SpanKind::Arrived { attempt } => {
                    format!("arrived at apache (transmission {attempt})")
                }
                SpanKind::Dropped { attempt } => {
                    format!("accept queue full -> packet DROPPED (transmission {attempt})")
                }
                SpanKind::RetransmitScheduled { attempt, wait } => format!(
                    "TCP retransmit {attempt} scheduled after {:.0} ms RTO",
                    wait.as_millis_f64()
                ),
                SpanKind::Admitted => "worker thread claimed the request".to_owned(),
                SpanKind::RoutingStarted => "apache parse done; routing started".to_owned(),
                SpanKind::EndpointBusy { backend, sleep } => format!(
                    "get_endpoint: tomcat{} pool exhausted, polling again in {:.0} ms",
                    backend + 1,
                    sleep.as_millis_f64()
                ),
                SpanKind::EndpointGaveUp { backend } => {
                    format!("get_endpoint: gave up on tomcat{}", backend + 1)
                }
                SpanKind::NoCandidate { sleep } => format!(
                    "selection: no eligible backend, retrying in {:.0} ms",
                    sleep.as_millis_f64()
                ),
                SpanKind::ProbeSent { backend } => {
                    format!("CPing probe sent to tomcat{}", backend + 1)
                }
                SpanKind::ProbeTimedOut { backend } => {
                    format!("CPing probe to tomcat{} TIMED OUT", backend + 1)
                }
                SpanKind::EndpointAcquired { backend, lb_value } => format!(
                    "endpoint acquired on tomcat{} (lb_value {lb_value})",
                    backend + 1
                ),
                SpanKind::ArrivedBackend { backend, queued } => format!(
                    "arrived at tomcat{}{}",
                    backend + 1,
                    if queued { " (queued for a thread)" } else { "" }
                ),
                SpanKind::BackendStarted => "servlet thread started".to_owned(),
                SpanKind::DbDispatched { remaining } => {
                    format!("MySQL query dispatched ({remaining} more after this)")
                }
                SpanKind::Responding => "servlet done; response heading back".to_owned(),
                SpanKind::RepliedFrontend => "response reached apache".to_owned(),
                SpanKind::Completed { rt } => {
                    format!(
                        "client received response (rt = {:.1} ms)",
                        rt.as_millis_f64()
                    )
                }
                SpanKind::Failed { elapsed } => {
                    format!("request FAILED after {:.1} ms", elapsed.as_millis_f64())
                }
            };
            out.push_str(&format!("  {off:>10.3} ms  {line}\n"));
        }
        out
    }
}

/// The cause of one stall (millibottleneck) window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// pdflush dirty-page write-back froze the server.
    Flush,
    /// A stop-the-world garbage collection froze the server.
    Gc,
}

impl StallKind {
    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Flush => "dirty-page flush",
            StallKind::Gc => "GC pause",
        }
    }
}

/// One server freeze interval — a millibottleneck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallWindow {
    /// The frozen server's label (e.g. `"tomcat2"`).
    pub server: String,
    /// What froze it.
    pub kind: StallKind,
    /// Freeze start.
    pub start: SimTime,
    /// Freeze end.
    pub end: SimTime,
}

impl StallWindow {
    /// Overlap between this stall and `[from, to]`.
    pub fn overlap(&self, from: SimTime, to: SimTime) -> SimDuration {
        let lo = self.start.max(from);
        let hi = self.end.min(to);
        hi.saturating_since(lo)
    }
}

/// One attributed very-long-response-time request: its full trace, its
/// per-segment split, the dominant segment, and the millibottleneck it
/// overlapped (if any).
#[derive(Debug, Clone)]
pub struct VlrtCause {
    /// The request's full timeline.
    pub trace: RequestTrace,
    /// Per-segment µs, breakdown order.
    pub segments_us: [u64; 6],
    /// The segment holding the largest share.
    pub dominant: Segment,
    /// Index into [`TraceLog::stalls`] of the stall with the largest
    /// overlap with the request's lifetime, if any overlap exists.
    pub stall: Option<usize>,
    /// That stall's overlap with the request's lifetime.
    pub overlap: SimDuration,
}

impl VlrtCause {
    /// Renders the causal chain: header, segment split, overlapped
    /// millibottleneck, then the full timeline.
    pub fn render(&self, stalls: &[StallWindow]) -> String {
        let rt = self
            .trace
            .response_time()
            .unwrap_or(SimDuration::ZERO)
            .as_millis_f64();
        let total: u64 = self.segments_us.iter().sum();
        let share = if total > 0 {
            self.segments_us[self.dominant.index()] as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        let mut out = format!(
            "VLRT request {} (rt = {rt:.1} ms; dominant segment: {} at {share:.1}%)\n",
            self.trace.id,
            self.dominant.label()
        );
        for s in Segment::ALL {
            let us = self.segments_us[s.index()];
            if us > 0 {
                out.push_str(&format!(
                    "    {:<22} {:>10.3} ms\n",
                    s.label(),
                    us as f64 / 1_000.0
                ));
            }
        }
        match self.stall.and_then(|i| stalls.get(i)) {
            Some(w) => out.push_str(&format!(
                "  overlapped millibottleneck: {} on {} at {:.3}-{:.3} s ({:.0} ms overlap)\n",
                w.kind.label(),
                w.server,
                w.start.as_micros() as f64 / 1e6,
                w.end.as_micros() as f64 / 1e6,
                self.overlap.as_millis_f64()
            )),
            None => out.push_str("  no millibottleneck overlapped this request's lifetime\n"),
        }
        out.push_str(&self.trace.render());
        out
    }
}

/// Aggregate VLRT attribution over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionSummary {
    /// VLRTs whose dominant segment was each of the six segments.
    pub dominant_counts: [u64; 6],
    /// Total VLRT completions seen.
    pub vlrt_total: u64,
    /// VLRTs whose lifetime overlapped at least one stall window.
    pub overlapping_stall: u64,
}

impl AttributionSummary {
    /// Fraction of VLRTs dominated by retransmit wait or routing — the
    /// paper's claim is that this is where the 1 s / 2 s / 4 s clusters
    /// come from, not from backend service time.
    pub fn network_or_routing_share(&self) -> f64 {
        if self.vlrt_total == 0 {
            return 0.0;
        }
        let net = self.dominant_counts[Segment::RetransmitWait.index()]
            + self.dominant_counts[Segment::Routing.index()];
        net as f64 / self.vlrt_total as f64
    }

    /// Renders the per-segment attribution table.
    pub fn render(&self) -> String {
        if self.vlrt_total == 0 {
            return "no VLRT requests observed\n".to_owned();
        }
        let mut out = format!("VLRT attribution over {} request(s):\n", self.vlrt_total);
        for s in Segment::ALL {
            let n = self.dominant_counts[s.index()];
            out.push_str(&format!(
                "  dominated by {:<22} {:>8}  ({:>5.1}%)\n",
                s.label(),
                n,
                n as f64 / self.vlrt_total as f64 * 100.0
            ));
        }
        out.push_str(&format!(
            "  overlapping a millibottleneck {:>6}  ({:>5.1}%)\n",
            self.overlapping_stall,
            self.overlapping_stall as f64 / self.vlrt_total as f64 * 100.0
        ));
        out
    }
}

/// Bounded storage for completed traces plus streaming VLRT attribution.
#[derive(Debug)]
pub struct TraceLog {
    /// Ring of the most recent completed (or failed) traces.
    recent: VecDeque<RequestTrace>,
    capacity: usize,
    /// Retained VLRT causal chains (bounded by `vlrt_capacity`).
    vlrt: Vec<VlrtCause>,
    vlrt_capacity: usize,
    /// Every stall (millibottleneck) window observed, in order.
    pub stalls: Vec<StallWindow>,
    /// Streaming attribution over *all* VLRTs, retained or not.
    pub summary: AttributionSummary,
    /// Completed requests folded in.
    pub completed: u64,
    /// Failed requests folded in.
    pub failed: u64,
}

impl TraceLog {
    /// An empty log retaining at most `capacity` recent traces and
    /// `vlrt_capacity` VLRT causal chains.
    pub fn new(capacity: usize, vlrt_capacity: usize) -> Self {
        TraceLog {
            recent: VecDeque::with_capacity(capacity.min(1_024)),
            capacity,
            vlrt: Vec::new(),
            vlrt_capacity,
            stalls: Vec::new(),
            summary: AttributionSummary::default(),
            completed: 0,
            failed: 0,
        }
    }

    /// Records one stall window. Windows must arrive in start order (the
    /// simulator emits them when the stall begins, with a known end).
    pub fn record_stall(&mut self, server: String, kind: StallKind, start: SimTime, end: SimTime) {
        self.stalls.push(StallWindow {
            server,
            kind,
            start,
            end,
        });
    }

    /// Whether a timeline started now could still be kept: there is a
    /// ring (it takes every finished trace), or the VLRT chains have room.
    /// Monotone: once false it stays false, because chains only fill.
    pub fn may_retain(&self) -> bool {
        self.capacity > 0 || self.vlrt.len() < self.vlrt_capacity
    }

    /// Folds in one completed request, traced or not, that was first
    /// issued at `issued` and completed at `done`. `segments_us` are its
    /// six segments from the simulator's own milestones; a response time
    /// above `vlrt_threshold` is attributed from them and from the stalls
    /// overlapping `[issued, done]`, and becomes a causal chain if it
    /// carries its `trace` and the chains have room. Returns the trace
    /// this record retired — the ring's evicted oldest, or the input
    /// itself when the ring retains nothing — so callers can recycle its
    /// event buffer instead of letting the allocation die.
    pub fn record_completed(
        &mut self,
        issued: SimTime,
        done: SimTime,
        segments_us: Option<[u64; 6]>,
        trace: Option<RequestTrace>,
        vlrt_threshold: SimDuration,
    ) -> Option<RequestTrace> {
        self.completed += 1;
        if done.saturating_since(issued) > vlrt_threshold {
            self.summary.vlrt_total += 1;
            if let Some(segments_us) = segments_us {
                self.attribute_vlrt(issued, done, segments_us, trace.as_ref());
            }
        }
        self.retain(trace)
    }

    /// Folds in one failed request, with its trace if it was traced.
    /// Returns the retired trace, as [`TraceLog::record_completed`] does.
    pub fn record_failed(&mut self, trace: Option<RequestTrace>) -> Option<RequestTrace> {
        self.failed += 1;
        self.retain(trace)
    }

    /// Pushes `trace` into the ring, returning what leaves it.
    fn retain(&mut self, trace: Option<RequestTrace>) -> Option<RequestTrace> {
        let trace = trace?;
        if self.capacity == 0 {
            return Some(trace);
        }
        let evicted = if self.recent.len() == self.capacity {
            self.recent.pop_front()
        } else {
            None
        };
        self.recent.push_back(trace);
        evicted
    }

    fn attribute_vlrt(
        &mut self,
        from: SimTime,
        to: SimTime,
        segments_us: [u64; 6],
        trace: Option<&RequestTrace>,
    ) {
        let dominant = Segment::dominant(&segments_us);
        self.summary.dominant_counts[dominant.index()] += 1;
        // The stall that best explains this request: largest overlap with
        // its lifetime. Stalls are few (one per millibottleneck), so a
        // linear scan per VLRT is fine.
        let mut stall = None;
        let mut overlap = SimDuration::ZERO;
        for (i, w) in self.stalls.iter().enumerate() {
            let o = w.overlap(from, to);
            if o > overlap {
                overlap = o;
                stall = Some(i);
            }
        }
        if stall.is_some() {
            self.summary.overlapping_stall += 1;
        }
        if let Some(trace) = trace.filter(|_| self.vlrt.len() < self.vlrt_capacity) {
            self.vlrt.push(VlrtCause {
                trace: trace.clone(),
                segments_us,
                dominant,
                stall,
                overlap,
            });
        }
    }

    /// The retained recent traces, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &RequestTrace> {
        self.recent.iter()
    }

    /// The retained VLRT causal chains, in completion order.
    pub fn vlrt_causes(&self) -> &[VlrtCause] {
        &self.vlrt
    }

    /// Sum of a trace's segments for every retained recent trace that
    /// completed, paired with its recorded response time (for invariant
    /// checks: the two must be equal).
    pub fn segment_sum_pairs(&self) -> Vec<(u64, u64)> {
        self.recent
            .iter()
            .filter_map(|t| {
                let rt = t.response_time()?.as_micros();
                let sum: u64 = t.segments_us()?.iter().sum();
                Some((sum, rt))
            })
            .collect()
    }

    /// An order-sensitive FNV-1a digest of the log: every event of every
    /// trace the ring retains, then each retained VLRT chain's id,
    /// dominant segment and segment split, then the stall windows, then
    /// the VLRT/overlap counts and the completed/failed counts. Two
    /// identical simulations produce identical digests. The ring part
    /// covers only what the ring still holds, so a digest meant to pin a
    /// whole run needs a ring larger than its completion count (check
    /// `recent().count() == completed + failed`).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        let mut mix_event = |id: u64, e: &SpanEvent| {
            mix(id);
            mix(e.at.as_micros());
            // Tag + payload per variant keeps distinct kinds distinct.
            let (tag, a, b) = match e.kind {
                SpanKind::Issued { client, apache } => (1, client, u64::from(apache)),
                SpanKind::Arrived { attempt } => (2, u64::from(attempt), 0),
                SpanKind::Dropped { attempt } => (3, u64::from(attempt), 0),
                SpanKind::RetransmitScheduled { attempt, wait } => {
                    (4, u64::from(attempt), wait.as_micros())
                }
                SpanKind::Admitted => (5, 0, 0),
                SpanKind::RoutingStarted => (6, 0, 0),
                SpanKind::EndpointBusy { backend, sleep } => {
                    (7, u64::from(backend), sleep.as_micros())
                }
                SpanKind::EndpointGaveUp { backend } => (8, u64::from(backend), 0),
                SpanKind::NoCandidate { sleep } => (9, sleep.as_micros(), 0),
                SpanKind::ProbeSent { backend } => (10, u64::from(backend), 0),
                SpanKind::ProbeTimedOut { backend } => (11, u64::from(backend), 0),
                SpanKind::EndpointAcquired { backend, lb_value } => {
                    (12, u64::from(backend), lb_value)
                }
                SpanKind::ArrivedBackend { backend, queued } => {
                    (13, u64::from(backend), u64::from(queued))
                }
                SpanKind::BackendStarted => (14, 0, 0),
                SpanKind::DbDispatched { remaining } => (15, u64::from(remaining), 0),
                SpanKind::Responding => (16, 0, 0),
                SpanKind::RepliedFrontend => (17, 0, 0),
                SpanKind::Completed { rt } => (18, rt.as_micros(), 0),
                SpanKind::Failed { elapsed } => (19, elapsed.as_micros(), 0),
            };
            mix(tag);
            mix(a);
            mix(b);
        };
        for t in &self.recent {
            for e in &t.events {
                mix_event(t.id, e);
            }
        }
        for c in &self.vlrt {
            mix(c.trace.id);
            mix(c.dominant.index() as u64);
            for &s in &c.segments_us {
                mix(s);
            }
        }
        for w in &self.stalls {
            mix(w.start.as_micros());
            mix(w.end.as_micros());
            mix(w.server.len() as u64);
        }
        mix(self.summary.vlrt_total);
        mix(self.summary.overlapping_stall);
        mix(self.completed);
        mix(self.failed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Folds in a hand-built trace with a 1 s VLRT threshold, its
    /// segments and lifetime read off its own events.
    fn record(log: &mut TraceLog, trace: RequestTrace) {
        let threshold = SimDuration::from_millis(1_000);
        match trace.response_time() {
            Some(_) => {
                let (issued, done) = (trace.issued_at().unwrap(), trace.last_at().unwrap());
                let segments = trace.segments_us();
                log.record_completed(issued, done, segments, Some(trace), threshold);
            }
            None => {
                log.record_failed(Some(trace));
            }
        }
    }

    /// A full lifecycle with one drop + 1 s retransmission.
    fn dropped_then_served() -> RequestTrace {
        let mut tr = RequestTrace::new(7);
        tr.push(
            t(0),
            SpanKind::Issued {
                client: 3,
                apache: 0,
            },
        );
        tr.push(t(1), SpanKind::Dropped { attempt: 1 });
        tr.push(
            t(1),
            SpanKind::RetransmitScheduled {
                attempt: 2,
                wait: SimDuration::from_millis(1_000),
            },
        );
        tr.push(t(1_001), SpanKind::Arrived { attempt: 2 });
        tr.push(t(1_003), SpanKind::Admitted);
        tr.push(t(1_004), SpanKind::RoutingStarted);
        tr.push(
            t(1_005),
            SpanKind::EndpointAcquired {
                backend: 1,
                lb_value: 42,
            },
        );
        tr.push(
            t(1_006),
            SpanKind::ArrivedBackend {
                backend: 1,
                queued: false,
            },
        );
        tr.push(t(1_020), SpanKind::Responding);
        tr.push(t(1_021), SpanKind::RepliedFrontend);
        tr.push(
            t(1_022),
            SpanKind::Completed {
                rt: SimDuration::from_millis(1_022),
            },
        );
        tr
    }

    #[test]
    fn segments_partition_response_time() {
        let tr = dropped_then_served();
        let segs = tr.segments_us().unwrap();
        let sum: u64 = segs.iter().sum();
        assert_eq!(sum, tr.response_time().unwrap().as_micros());
        // The 1 s retransmission dominates.
        assert_eq!(tr.dominant_segment(), Some(Segment::RetransmitWait));
        assert_eq!(segs[Segment::RetransmitWait.index()], 1_001_000);
        assert_eq!(tr.attempts(), 2);
        assert_eq!(tr.served_by(), Some(1));
    }

    #[test]
    fn incomplete_trace_has_no_segments() {
        let mut tr = RequestTrace::new(1);
        tr.push(
            t(0),
            SpanKind::Issued {
                client: 0,
                apache: 0,
            },
        );
        tr.push(t(2), SpanKind::Arrived { attempt: 1 });
        assert!(tr.segments_us().is_none());
        assert!(tr.response_time().is_none());
    }

    #[test]
    fn probe_retry_uses_last_acquisition() {
        let mut tr = RequestTrace::new(2);
        tr.push(
            t(0),
            SpanKind::Issued {
                client: 0,
                apache: 0,
            },
        );
        tr.push(t(1), SpanKind::Arrived { attempt: 1 });
        tr.push(t(1), SpanKind::Admitted);
        tr.push(t(2), SpanKind::RoutingStarted);
        tr.push(
            t(3),
            SpanKind::EndpointAcquired {
                backend: 0,
                lb_value: 1,
            },
        );
        tr.push(t(3), SpanKind::ProbeSent { backend: 0 });
        tr.push(t(103), SpanKind::ProbeTimedOut { backend: 0 });
        tr.push(
            t(104),
            SpanKind::EndpointAcquired {
                backend: 1,
                lb_value: 2,
            },
        );
        tr.push(t(120), SpanKind::RepliedFrontend);
        tr.push(
            t(121),
            SpanKind::Completed {
                rt: SimDuration::from_millis(121),
            },
        );
        let segs = tr.segments_us().unwrap();
        // Routing covers both acquisitions and the probe timeout.
        assert_eq!(segs[Segment::Routing.index()], 102_000);
        assert_eq!(segs.iter().sum::<u64>(), 121_000);
        assert_eq!(tr.served_by(), Some(1));
    }

    #[test]
    fn dominant_takes_the_first_strict_maximum() {
        assert_eq!(Segment::dominant(&[0; 6]), Segment::RetransmitWait);
        assert_eq!(
            Segment::dominant(&[1, 5, 5, 0, 5, 0]),
            Segment::ApacheAdmission
        );
        assert_eq!(Segment::dominant(&[0, 0, 0, 0, 1, 1]), Segment::Backend);
        let tr = dropped_then_served();
        let segs = tr.segments_us().unwrap();
        assert_eq!(tr.dominant_segment(), Some(Segment::dominant(&segs)));
    }

    #[test]
    fn ring_capacity_is_respected() {
        let mut log = TraceLog::new(2, 8);
        for id in 0..5 {
            let mut tr = dropped_then_served();
            tr.id = id;
            record(&mut log, tr);
        }
        let kept: Vec<u64> = log.recent().map(|t| t.id).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(log.completed, 5);
        // Attribution is streaming: all 5 VLRTs counted even though only
        // 2 traces are retained.
        assert_eq!(log.summary.vlrt_total, 5);
    }

    #[test]
    fn untraced_completions_are_attributed_without_a_chain() {
        let mut log = TraceLog::new(0, 1);
        log.record_stall("tomcat2".into(), StallKind::Flush, t(0), t(200));
        assert!(log.may_retain());
        record(&mut log, dropped_then_served()); // fills the one chain
        assert!(!log.may_retain());
        // An untraced VLRT: same milestones, no timeline.
        let segments = dropped_then_served().segments_us();
        let threshold = SimDuration::from_millis(1_000);
        assert!(log
            .record_completed(t(100), t(1_200), segments, None, threshold)
            .is_none());
        assert_eq!(log.completed, 2);
        assert_eq!(log.summary.vlrt_total, 2);
        assert_eq!(
            log.summary.dominant_counts[Segment::RetransmitWait.index()],
            2
        );
        assert_eq!(log.summary.overlapping_stall, 2);
        assert_eq!(log.vlrt_causes().len(), 1);
        assert!(!log.may_retain());
    }

    #[test]
    fn vlrt_attribution_finds_overlapping_stall() {
        let mut log = TraceLog::new(16, 16);
        log.record_stall("tomcat2".into(), StallKind::Flush, t(0), t(200));
        log.record_stall("tomcat1".into(), StallKind::Gc, t(900), t(1_010));
        record(&mut log, dropped_then_served());
        assert_eq!(log.summary.vlrt_total, 1);
        assert_eq!(log.summary.overlapping_stall, 1);
        let cause = &log.vlrt_causes()[0];
        assert_eq!(cause.dominant, Segment::RetransmitWait);
        // The flush overlaps 200 ms, the GC only 110 ms.
        assert_eq!(cause.stall, Some(0));
        assert_eq!(cause.overlap, SimDuration::from_millis(200));
        let text = cause.render(&log.stalls);
        assert!(text.contains("dirty-page flush"));
        assert!(text.contains("DROPPED"));
        assert!(text.contains("retransmit wait"));
    }

    #[test]
    fn summary_shares_and_render() {
        let mut log = TraceLog::new(4, 4);
        record(&mut log, dropped_then_served());
        let s = log.summary;
        assert!((s.network_or_routing_share() - 1.0).abs() < 1e-12);
        assert!(s.render().contains("retransmit wait"));
        assert_eq!(
            AttributionSummary::default().network_or_routing_share(),
            0.0
        );
    }

    #[test]
    fn fast_requests_are_not_attributed() {
        let mut log = TraceLog::new(4, 4);
        let mut tr = RequestTrace::new(9);
        tr.push(
            t(0),
            SpanKind::Issued {
                client: 0,
                apache: 0,
            },
        );
        tr.push(t(1), SpanKind::Arrived { attempt: 1 });
        tr.push(t(1), SpanKind::Admitted);
        tr.push(t(2), SpanKind::RoutingStarted);
        tr.push(
            t(2),
            SpanKind::EndpointAcquired {
                backend: 0,
                lb_value: 0,
            },
        );
        tr.push(t(8), SpanKind::RepliedFrontend);
        tr.push(
            t(9),
            SpanKind::Completed {
                rt: SimDuration::from_millis(9),
            },
        );
        record(&mut log, tr);
        assert_eq!(log.summary.vlrt_total, 0);
        assert_eq!(log.completed, 1);
    }

    #[test]
    fn failed_requests_count_separately() {
        let mut log = TraceLog::new(4, 4);
        let mut tr = RequestTrace::new(3);
        tr.push(
            t(0),
            SpanKind::Issued {
                client: 0,
                apache: 0,
            },
        );
        tr.push(t(1), SpanKind::Dropped { attempt: 1 });
        tr.push(
            t(7_000),
            SpanKind::Failed {
                elapsed: SimDuration::from_millis(7_000),
            },
        );
        record(&mut log, tr);
        assert_eq!(log.failed, 1);
        assert_eq!(log.completed, 0);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = TraceLog::new(8, 8);
        let mut b = TraceLog::new(8, 8);
        record(&mut a, dropped_then_served());
        record(&mut b, dropped_then_served());
        assert_eq!(a.digest(), b.digest());
        let mut c = TraceLog::new(8, 8);
        let mut tr = dropped_then_served();
        tr.events[0].at = t(1); // shift one timestamp
        record(&mut c, tr);
        assert_ne!(a.digest(), c.digest());
    }
}
