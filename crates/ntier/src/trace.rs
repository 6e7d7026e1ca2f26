//! Per-request event tracing for the n-tier system.
//!
//! [`Tracer`] is the simulator-facing half of the milliScope-style
//! instrumentation: [`crate::system::NTierSystem`] calls one hook per
//! lifecycle transition, and the tracer assembles a
//! [`RequestTrace`](mlb_metrics::spans::RequestTrace) per in-flight
//! request, finalizing it into a [`TraceLog`] on completion or failure.
//! Millibottleneck windows (pdflush flushes, GC pauses) are recorded as
//! [`StallWindow`](mlb_metrics::spans::StallWindow)s so every
//! very-long-response-time request can be attributed to the freeze it
//! overlapped.
//!
//! Attribution does not depend on the timelines: every completion is
//! counted and, if it is a VLRT, attributed from the request's own
//! milestones ([`RequestState::segments`](crate::request::RequestState::segments)).
//! A timeline is written only while a reader could still keep it — the
//! ring retains traces, or the VLRT chains have room — so once the
//! chains fill, the span hooks return on one compare against the cutoff
//! id.
//!
//! Tracing is **off by default** ([`TraceConfig::disabled`]) and costs a
//! single compare per hook when disabled: no allocation, no hashing, no
//! event is recorded, and the simulation's event stream is untouched
//! either way (tracing is purely observational — it never schedules or
//! perturbs anything).

use mlb_metrics::spans::{RequestTrace, SpanEvent, SpanKind, StallKind, TraceLog};
use mlb_metrics::summary::VLRT_THRESHOLD;
use mlb_simkernel::time::{SimDuration, SimTime};

use crate::events::ServerRef;
use crate::request::RequestId;
use crate::slab::RequestArena;

/// Configuration of the per-request tracer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When off, every hook is a single compare.
    pub enabled: bool,
    /// Completed traces retained in the ring (oldest evicted first).
    /// VLRT attribution is streaming and unaffected by this bound. Any
    /// ring traces every (sampled) request; with none, timelines are
    /// written only while the VLRT chains have room.
    pub recent_capacity: usize,
    /// Fully-reconstructed VLRT causal chains retained for rendering.
    pub vlrt_capacity: usize,
    /// 1-in-N deterministic request sampling: only requests whose id is
    /// divisible by `sample_every` are traced (1 = trace everything).
    /// Ids are issued sequentially, so a sampled run's traces are a
    /// strict subset — event for event — of the full-trace run's, and
    /// the selection is identical across platforms and reruns. Stall
    /// windows are always recorded; they are per-server, not
    /// per-request. Must be ≥ 1.
    pub sample_every: u64,
}

impl TraceConfig {
    /// Tracing off (the default; zero cost beyond one branch per hook).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            recent_capacity: 0,
            vlrt_capacity: 0,
            sample_every: 1,
        }
    }

    /// Tracing on, bounded by what the in-repo readers use: the VLRT
    /// chains, the stall windows and the attribution summary. Every VLRT
    /// is counted and attributed from its request's own milestones; the
    /// first 4 096 keep their span timeline as a causal chain, enough for
    /// any figure. No ring of recent traces is kept, so a request gets a
    /// timeline only while the chains have room: once they are full, the
    /// tracer stops writing spans and its memory stops growing. Tests
    /// that hash or walk every trace set `recent_capacity` above the
    /// run's completion count, which traces every request.
    pub fn enabled_default() -> Self {
        TraceConfig {
            enabled: true,
            recent_capacity: 0,
            vlrt_capacity: 4_096,
            sample_every: 1,
        }
    }

    /// Tracing of every `every`-th request, with the
    /// [`enabled_default`](Self::enabled_default) bounds: no ring, and
    /// timelines only until the VLRT chains among the sampled requests
    /// are full.
    pub fn sampled(every: u64) -> Self {
        TraceConfig {
            sample_every: every,
            ..TraceConfig::enabled_default()
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Assembles per-request traces from the system's lifecycle hooks.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// 1-in-N id sampling (see [`TraceConfig::sample_every`]).
    sample_every: u64,
    /// First id whose timeline no reader could keep: set by
    /// [`Tracer::issued`] once [`TraceLog::may_retain`] turns false (ids
    /// are issued in order, so every later id is past it too), and 0
    /// when tracing is off. Every span hook returns on one compare
    /// against it.
    cutoff: u64,
    /// In-flight traces in a generational slab arena (O(1) keyed access,
    /// deterministic slot-index iteration). Keyed by `id / sample_every`:
    /// sampled ids are exact multiples, so arena keys stay dense and the
    /// sliding window tracks the live span even under heavy sampling.
    live: RequestArena<RequestTrace>,
    log: TraceLog,
    /// Event buffers recycled from retired traces (ring evictions, or
    /// every finished timeline when there is no ring), so steady-state
    /// tracing stops allocating span storage once the log ring is warm.
    /// Bounded by the in-flight population: each finalize banks at most
    /// one buffer and each new trace withdraws one.
    spare_events: Vec<Vec<SpanEvent>>,
}

impl Tracer {
    /// Builds a tracer from its configuration.
    pub fn new(cfg: &TraceConfig) -> Self {
        Tracer {
            enabled: cfg.enabled,
            sample_every: cfg.sample_every.max(1),
            cutoff: if cfg.enabled { u64::MAX } else { 0 },
            live: RequestArena::new(),
            log: TraceLog::new(cfg.recent_capacity, cfg.vlrt_capacity),
            spare_events: Vec::new(),
        }
    }

    /// Event buffers currently banked for reuse (observability for the
    /// steady-state allocation tests).
    pub fn spare_event_buffers(&self) -> usize {
        self.spare_events.len()
    }

    /// Span timelines started so far (one per traced request issued
    /// before the cutoff).
    pub fn timelines_started(&self) -> u64 {
        let stats = self.live.stats();
        stats.allocs + stats.reuses
    }

    /// Span timelines still in flight.
    pub fn live_timelines(&self) -> usize {
        self.live.len()
    }

    /// The first request issued after no reader could keep a new
    /// timeline, if tracing is on and that point was reached.
    pub fn cutoff(&self) -> Option<RequestId> {
        (self.enabled && self.cutoff != u64::MAX).then_some(RequestId(self.cutoff))
    }

    /// Whether request `id` is selected by the 1-in-N sampler.
    #[inline]
    fn sampled(&self, id: RequestId) -> bool {
        id.0.is_multiple_of(self.sample_every)
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The trace log, if tracing is on.
    pub fn log(&self) -> Option<&TraceLog> {
        self.enabled.then_some(&self.log)
    }

    /// Consumes the tracer, returning the log if tracing was on.
    pub fn into_log(self) -> Option<TraceLog> {
        self.enabled.then_some(self.log)
    }

    /// Arena key for a sampled id (exact multiples of `sample_every`
    /// compress to consecutive keys, keeping the arena window dense).
    #[inline]
    fn key(&self, id: RequestId) -> u64 {
        id.0 / self.sample_every
    }

    /// Appends one event to `id`'s timeline, if it has one.
    #[inline]
    fn push(&mut self, id: RequestId, at: SimTime, kind: SpanKind) {
        if id.0 >= self.cutoff || !self.sampled(id) {
            return;
        }
        if let Some(trace) = self.live.get_mut(self.key(id)) {
            trace.push(at, kind);
        }
    }

    /// Removes `id`'s timeline, if it has one, closing it with `kind`.
    fn take(&mut self, id: RequestId, at: SimTime, kind: SpanKind) -> Option<RequestTrace> {
        if id.0 >= self.cutoff {
            return None;
        }
        let mut trace = self.live.remove(self.key(id))?;
        trace.push(at, kind);
        Some(trace)
    }

    /// Banks the buffer of a trace the log retired for the next timeline.
    fn bank(&mut self, retired: Option<RequestTrace>) {
        if let Some(retired) = retired {
            self.spare_events.push(retired.into_events());
        }
    }

    /// A client issued the request (first transmission). Starts its
    /// timeline while some reader could still keep it; the first id
    /// refused becomes the cutoff.
    pub fn issued(&mut self, id: RequestId, at: SimTime, client: u64, apache: usize) {
        if id.0 >= self.cutoff || !self.sampled(id) {
            return;
        }
        if !self.log.may_retain() {
            self.cutoff = id.0;
            return;
        }
        let mut trace = match self.spare_events.pop() {
            Some(events) => RequestTrace::recycled(id.0, events),
            None => RequestTrace::new(id.0),
        };
        trace.push(
            at,
            SpanKind::Issued {
                client,
                apache: apache as u16,
            },
        );
        self.live.insert(self.key(id), trace);
    }

    /// The request reached its Apache on transmission `attempt`.
    pub fn arrived(&mut self, id: RequestId, at: SimTime, attempt: u32) {
        self.push(id, at, SpanKind::Arrived { attempt });
    }

    /// The accept queue dropped transmission `attempt`.
    pub fn dropped(&mut self, id: RequestId, at: SimTime, attempt: u32) {
        self.push(id, at, SpanKind::Dropped { attempt });
    }

    /// TCP scheduled retransmission `attempt` after `wait`.
    pub fn retransmit_scheduled(
        &mut self,
        id: RequestId,
        at: SimTime,
        attempt: u32,
        wait: SimDuration,
    ) {
        self.push(id, at, SpanKind::RetransmitScheduled { attempt, wait });
    }

    /// An Apache worker claimed the request.
    pub fn admitted(&mut self, id: RequestId, at: SimTime) {
        self.push(id, at, SpanKind::Admitted);
    }

    /// Apache parsing finished; routing began.
    pub fn routing_started(&mut self, id: RequestId, at: SimTime) {
        self.push(id, at, SpanKind::RoutingStarted);
    }

    /// `get_endpoint` found `backend`'s pool exhausted; polling again
    /// after `sleep`.
    pub fn endpoint_busy(
        &mut self,
        id: RequestId,
        at: SimTime,
        backend: usize,
        sleep: SimDuration,
    ) {
        self.push(
            id,
            at,
            SpanKind::EndpointBusy {
                backend: backend as u16,
                sleep,
            },
        );
    }

    /// The mechanism stopped polling `backend`.
    pub fn endpoint_gave_up(&mut self, id: RequestId, at: SimTime, backend: usize) {
        self.push(
            id,
            at,
            SpanKind::EndpointGaveUp {
                backend: backend as u16,
            },
        );
    }

    /// Selection found no eligible backend; retrying after `sleep`.
    pub fn no_candidate(&mut self, id: RequestId, at: SimTime, sleep: SimDuration) {
        self.push(id, at, SpanKind::NoCandidate { sleep });
    }

    /// A CPing probe was sent to `backend`.
    pub fn probe_sent(&mut self, id: RequestId, at: SimTime, backend: usize) {
        self.push(
            id,
            at,
            SpanKind::ProbeSent {
                backend: backend as u16,
            },
        );
    }

    /// The CPing probe to `backend` timed out.
    pub fn probe_timed_out(&mut self, id: RequestId, at: SimTime, backend: usize) {
        self.push(
            id,
            at,
            SpanKind::ProbeTimedOut {
                backend: backend as u16,
            },
        );
    }

    /// An endpoint on `backend` was acquired; `lb_value` is the policy's
    /// scoreboard value for it at this decision.
    pub fn acquired(&mut self, id: RequestId, at: SimTime, backend: usize, lb_value: u64) {
        self.push(
            id,
            at,
            SpanKind::EndpointAcquired {
                backend: backend as u16,
                lb_value,
            },
        );
    }

    /// The request reached Tomcat `backend` (`queued` if no thread free).
    pub fn arrived_backend(&mut self, id: RequestId, at: SimTime, backend: usize, queued: bool) {
        self.push(
            id,
            at,
            SpanKind::ArrivedBackend {
                backend: backend as u16,
                queued,
            },
        );
    }

    /// A servlet thread started executing the request.
    pub fn backend_started(&mut self, id: RequestId, at: SimTime) {
        self.push(id, at, SpanKind::BackendStarted);
    }

    /// A MySQL query was dispatched (`remaining` still to go after it).
    pub fn db_dispatched(&mut self, id: RequestId, at: SimTime, remaining: u32) {
        self.push(id, at, SpanKind::DbDispatched { remaining });
    }

    /// The servlet finished; response heading back to Apache.
    pub fn responding(&mut self, id: RequestId, at: SimTime) {
        self.push(id, at, SpanKind::Responding);
    }

    /// The response reached the front-end Apache.
    pub fn replied(&mut self, id: RequestId, at: SimTime) {
        self.push(id, at, SpanKind::RepliedFrontend);
    }

    /// The client received the response to a request first issued at
    /// `issued`. The log attributes it from `segments` (the request's
    /// milestones, see [`RequestState::segments`](crate::request::RequestState::segments))
    /// whether or not it has a timeline, and finalizes the timeline if
    /// it has one.
    pub fn completed(
        &mut self,
        id: RequestId,
        issued: SimTime,
        at: SimTime,
        segments: Option<[u64; 6]>,
    ) {
        if !self.enabled || !self.sampled(id) {
            return;
        }
        let rt = at.saturating_since(issued);
        let trace = self.take(id, at, SpanKind::Completed { rt });
        debug_assert!(
            trace.as_ref().is_none_or(|t| t.segments_us() == segments),
            "request {}: span segments diverge from its milestones",
            id.0
        );
        let retired = self
            .log
            .record_completed(issued, at, segments, trace, VLRT_THRESHOLD);
        self.bank(retired);
    }

    /// The request terminally failed `elapsed` after its first
    /// transmission; its timeline, if any, is finalized as failed.
    pub fn failed(&mut self, id: RequestId, at: SimTime, elapsed: SimDuration) {
        if !self.enabled || !self.sampled(id) {
            return;
        }
        let trace = self.take(id, at, SpanKind::Failed { elapsed });
        let retired = self.log.record_failed(trace);
        self.bank(retired);
    }

    /// A millibottleneck began on `server`, freezing it over
    /// `[start, end]`.
    pub fn stall(&mut self, server: ServerRef, kind: StallKind, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        self.log.record_stall(server.to_string(), kind, start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlb_metrics::spans::Segment;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Tracing with a ring of `recent` finished traces.
    fn with_ring(recent: usize) -> TraceConfig {
        TraceConfig {
            recent_capacity: recent,
            ..TraceConfig::enabled_default()
        }
    }

    /// Issues request `raw` at `raw` ms and serves it in `rt_ms`, all of
    /// it backend time.
    fn serve(tr: &mut Tracer, raw: u64, rt_ms: u64) {
        let id = RequestId(raw);
        let (start, end) = (t(raw), t(raw + rt_ms));
        tr.issued(id, start, 0, 0);
        tr.arrived(id, start, 1);
        tr.admitted(id, start);
        tr.routing_started(id, start);
        tr.acquired(id, start, 0, 0);
        tr.replied(id, end);
        tr.completed(id, start, end, Some([0, 0, 0, 0, rt_ms * 1_000, 0]));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(&TraceConfig::disabled());
        serve(&mut tr, 1, 1);
        assert!(!tr.enabled());
        assert_eq!(tr.timelines_started(), 0);
        assert_eq!(tr.cutoff(), None);
        assert!(tr.log().is_none());
        assert!(tr.into_log().is_none());
    }

    #[test]
    fn full_lifecycle_assembles_ordered_trace() {
        let mut tr = Tracer::new(&with_ring(8));
        let id = RequestId(4);
        tr.issued(id, t(0), 9, 1);
        tr.dropped(id, t(1), 1);
        tr.retransmit_scheduled(id, t(1), 2, SimDuration::from_millis(1_000));
        tr.arrived(id, t(1_001), 2);
        tr.admitted(id, t(1_002));
        tr.routing_started(id, t(1_003));
        tr.endpoint_busy(id, t(1_003), 0, SimDuration::from_millis(100));
        tr.endpoint_gave_up(id, t(1_103), 0);
        tr.acquired(id, t(1_104), 1, 17);
        tr.arrived_backend(id, t(1_105), 1, true);
        tr.backend_started(id, t(1_110));
        tr.db_dispatched(id, t(1_111), 1);
        tr.responding(id, t(1_120));
        tr.replied(id, t(1_121));
        // The milestones the system hands over: arrived 1 001, admitted
        // 1 002, routed 1 003, acquired 1 104, replied 1 121 (ms).
        let milestones = [1_001_000, 1_000, 1_000, 101_000, 17_000, 1_000];
        tr.completed(id, t(0), t(1_122), Some(milestones));
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 1);
        assert_eq!(log.summary.vlrt_total, 1);
        let cause = &log.vlrt_causes()[0];
        assert_eq!(cause.dominant, Segment::RetransmitWait);
        assert_eq!(cause.segments_us, milestones);
        // Ordered and monotone, and the events re-derive the milestones.
        let trace = log.recent().next().unwrap();
        assert!(trace.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(trace.segments_us(), Some(milestones));
        assert_eq!(
            trace.segments_us().unwrap().iter().sum::<u64>(),
            trace.response_time().unwrap().as_micros()
        );
    }

    #[test]
    fn stalls_are_labelled_by_server() {
        let mut tr = Tracer::new(&TraceConfig::enabled_default());
        tr.stall(ServerRef::Tomcat(1), StallKind::Flush, t(10), t(200));
        tr.stall(ServerRef::Apache(0), StallKind::Gc, t(300), t(350));
        let log = tr.log().unwrap();
        assert_eq!(log.stalls[0].server, "tomcat2");
        assert_eq!(log.stalls[1].server, "apache1");
    }

    #[test]
    fn sampling_selects_exactly_the_divisible_ids() {
        let mut tr = Tracer::new(&TraceConfig {
            sample_every: 3,
            ..with_ring(8)
        });
        for raw in 0..10u64 {
            serve(&mut tr, raw, 1);
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 4); // ids 0, 3, 6, 9
        let ids: Vec<u64> = log.recent().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 3, 6, 9]);
    }

    #[test]
    fn stalls_are_recorded_regardless_of_sampling() {
        let mut tr = Tracer::new(&TraceConfig::sampled(1_000));
        tr.stall(ServerRef::MySql, StallKind::Flush, t(0), t(100));
        assert_eq!(tr.log().unwrap().stalls.len(), 1);
    }

    #[test]
    fn retired_traces_donate_their_event_buffers() {
        let mut tr = Tracer::new(&with_ring(2));
        // Sequential requests: once the 2-deep ring is warm, every
        // finalize retires a trace whose buffer the next request reuses.
        for raw in 0..10u64 {
            serve(&mut tr, raw, 1);
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 10);
        assert_eq!(log.recent().count(), 2);
        // 8 evictions banked, 7 withdrawn by requests 3..10 (the first
        // withdrawal can only happen once an eviction has banked one).
        assert_eq!(tr.spare_event_buffers(), 1);
    }

    #[test]
    fn capacity_zero_log_recycles_every_buffer() {
        let mut tr = Tracer::new(&with_ring(0));
        for raw in 0..5u64 {
            serve(&mut tr, raw, 1);
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 5);
        assert_eq!(log.recent().count(), 0);
        assert_eq!(tr.spare_event_buffers(), 1);
    }

    #[test]
    fn timelines_stop_once_the_chains_are_full() {
        let mut tr = Tracer::new(&TraceConfig {
            vlrt_capacity: 2,
            ..with_ring(0)
        });
        serve(&mut tr, 0, 1);
        serve(&mut tr, 1, 1_500);
        serve(&mut tr, 2, 1_500);
        // The chains are full: request 3 starts no timeline and becomes
        // the cutoff, yet every later completion is still attributed.
        for raw in 3..6 {
            serve(&mut tr, raw, 1_500);
        }
        serve(&mut tr, 6, 1);
        assert_eq!(tr.cutoff(), Some(RequestId(3)));
        assert_eq!(tr.timelines_started(), 3);
        assert_eq!(tr.live_timelines(), 0);
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 7);
        assert_eq!(log.summary.vlrt_total, 5);
        assert_eq!(log.summary.dominant_counts[Segment::Backend.index()], 5);
        let chains: Vec<u64> = log.vlrt_causes().iter().map(|c| c.trace.id).collect();
        assert_eq!(chains, vec![1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "span segments diverge from its milestones")]
    fn timeline_and_milestones_must_agree() {
        let mut tr = Tracer::new(&with_ring(8));
        tr.issued(RequestId(0), t(0), 0, 0);
        // The timeline never reached Apache, yet milestones are passed.
        tr.completed(RequestId(0), t(0), t(1), Some([0, 0, 0, 0, 1_000, 0]));
    }

    #[test]
    fn failed_request_is_finalized_as_failed() {
        let mut tr = Tracer::new(&TraceConfig::enabled_default());
        let id = RequestId(2);
        tr.issued(id, t(0), 0, 0);
        tr.dropped(id, t(1), 1);
        tr.failed(id, t(7_001), SimDuration::from_millis(7_001));
        let log = tr.log().unwrap();
        assert_eq!(log.failed, 1);
        assert_eq!(log.completed, 0);
    }
}
