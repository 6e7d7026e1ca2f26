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
//! Tracing is **off by default** ([`TraceConfig::disabled`]) and costs a
//! single branch per hook when disabled: no allocation, no hashing, no
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
    /// Master switch. When off, every hook is a single branch.
    pub enabled: bool,
    /// Completed traces retained in the ring (oldest evicted first).
    /// VLRT attribution is streaming and unaffected by this bound.
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
    /// chains, the stall windows and the attribution summary, all kept
    /// in full (up to 4 096 chains, enough for any figure). The ring of
    /// recent traces holds the last 4 096, so tracer memory follows the
    /// in-flight population rather than the horizon, and once the ring
    /// is warm each new trace reuses an evicted trace's event buffer.
    /// Tests that hash or walk every trace set `recent_capacity` above
    /// the run's completion count.
    pub fn enabled_default() -> Self {
        TraceConfig {
            enabled: true,
            recent_capacity: 4_096,
            vlrt_capacity: 4_096,
            sample_every: 1,
        }
    }

    /// Tracing of every `every`-th request, with the
    /// [`enabled_default`](Self::enabled_default) bounds.
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
    /// In-flight traces in a generational slab arena (O(1) keyed access,
    /// deterministic slot-index iteration). Keyed by `id / sample_every`:
    /// sampled ids are exact multiples, so arena keys stay dense and the
    /// sliding window tracks the live span even under heavy sampling.
    live: RequestArena<RequestTrace>,
    log: TraceLog,
    /// Event buffers recycled from retired traces (ring evictions), so
    /// steady-state tracing stops allocating span storage once the log
    /// ring is warm. Bounded by the in-flight population: each finalize
    /// banks at most one buffer and each new trace withdraws one.
    spare_events: Vec<Vec<SpanEvent>>,
}

impl Tracer {
    /// Builds a tracer from its configuration.
    pub fn new(cfg: &TraceConfig) -> Self {
        Tracer {
            enabled: cfg.enabled,
            sample_every: cfg.sample_every.max(1),
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

    #[inline]
    fn push(&mut self, id: RequestId, at: SimTime, kind: SpanKind) {
        if !self.enabled || !self.sampled(id) {
            return;
        }
        let key = self.key(id);
        let spare = &mut self.spare_events;
        if let Some(trace) = self.live.get_or_insert_with(key, || match spare.pop() {
            Some(events) => RequestTrace::recycled(id.0, events),
            None => RequestTrace::new(id.0),
        }) {
            trace.push(at, kind);
        }
    }

    /// Finalizes `trace` into the log, banking whatever buffer the log
    /// retires for the next in-flight trace.
    fn finalize(&mut self, trace: RequestTrace) {
        if let Some(retired) = self.log.record(trace, VLRT_THRESHOLD) {
            self.spare_events.push(retired.into_events());
        }
    }

    /// A client issued the request (first transmission).
    pub fn issued(&mut self, id: RequestId, at: SimTime, client: u64, apache: usize) {
        self.push(
            id,
            at,
            SpanKind::Issued {
                client,
                apache: apache as u16,
            },
        );
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

    /// The client received the response; the trace is finalized into the
    /// log and attributed if `rt` exceeds the VLRT threshold.
    pub fn completed(&mut self, id: RequestId, at: SimTime, rt: SimDuration) {
        if !self.enabled || !self.sampled(id) {
            return;
        }
        if let Some(mut trace) = self.live.remove(self.key(id)) {
            trace.push(at, SpanKind::Completed { rt });
            self.finalize(trace);
        }
    }

    /// The request terminally failed `elapsed` after its first
    /// transmission; the trace is finalized as failed.
    pub fn failed(&mut self, id: RequestId, at: SimTime, elapsed: SimDuration) {
        if !self.enabled || !self.sampled(id) {
            return;
        }
        if let Some(mut trace) = self.live.remove(self.key(id)) {
            trace.push(at, SpanKind::Failed { elapsed });
            self.finalize(trace);
        }
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

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(&TraceConfig::disabled());
        tr.issued(RequestId(1), t(0), 0, 0);
        tr.completed(RequestId(1), t(5), SimDuration::from_millis(5));
        assert!(!tr.enabled());
        assert!(tr.log().is_none());
        assert!(tr.into_log().is_none());
    }

    #[test]
    fn full_lifecycle_assembles_ordered_trace() {
        let mut tr = Tracer::new(&TraceConfig::enabled_default());
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
        tr.completed(id, t(1_122), SimDuration::from_millis(1_122));
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 1);
        assert_eq!(log.summary.vlrt_total, 1);
        let cause = &log.vlrt_causes()[0];
        assert_eq!(cause.dominant, Segment::RetransmitWait);
        // Ordered and monotone.
        let trace = log.recent().next().unwrap();
        assert!(trace.events.windows(2).all(|w| w[0].at <= w[1].at));
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
        let mut tr = Tracer::new(&TraceConfig::sampled(3));
        for raw in 0..10u64 {
            let id = RequestId(raw);
            tr.issued(id, t(raw), 0, 0);
            tr.completed(id, t(raw + 1), SimDuration::from_millis(1));
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
        let mut cfg = TraceConfig::enabled_default();
        cfg.recent_capacity = 2;
        let mut tr = Tracer::new(&cfg);
        // Sequential requests: once the 2-deep ring is warm, every
        // finalize retires a trace whose buffer the next request reuses.
        for raw in 0..10u64 {
            let id = RequestId(raw);
            tr.issued(id, t(raw), 0, 0);
            tr.completed(id, t(raw + 1), SimDuration::from_millis(1));
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
        let mut cfg = TraceConfig::enabled_default();
        cfg.recent_capacity = 0;
        let mut tr = Tracer::new(&cfg);
        for raw in 0..5u64 {
            let id = RequestId(raw);
            tr.issued(id, t(raw), 0, 0);
            tr.completed(id, t(raw + 1), SimDuration::from_millis(1));
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 5);
        assert_eq!(log.recent().count(), 0);
        assert_eq!(tr.spare_event_buffers(), 1);
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
