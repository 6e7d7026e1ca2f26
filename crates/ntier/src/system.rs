//! The full n-tier system model.
//!
//! [`NTierSystem`] implements [`Model`] over [`Event`]: it owns every
//! server, every in-flight request and the telemetry sinks, and advances
//! them event by event. The request life cycle:
//!
//! ```text
//! client ──issue──▶ Apache accept queue ──worker──▶ Apache CPU burst
//!   ▲                   │ (full → drop → TCP retransmit 1s/2s/3s)
//!   │                   ▼
//!   │              mod_jk routing: select → get_endpoint (pool acquire)
//!   │                   │ (original mechanism may poll 300 ms)
//!   │                   ▼
//!   │              Tomcat thread → servlet CPU burst → MySQL queries
//!   │                   │                 (log write → dirty pages!)
//!   └──response◀── Apache reply ◀─────────┘
//! ```
//!
//! Millibottlenecks: each server's pdflush wakes periodically; when enough
//! log data is dirty it writes back, freezing that machine's CPU for the
//! write-back duration. The load balancer's reaction to that freeze is the
//! object of study.

use std::error::Error;
use std::fmt;

use mlb_core::types::BackendId;
use mlb_core::{Balancer, EndpointAdvice};
use mlb_metrics::detector::MillibottleneckDetector;
use mlb_metrics::spans::{StallKind, TraceLog};
use mlb_netmodel::accept_queue::Offer;
use mlb_netmodel::pool::Acquire;
use mlb_osmodel::cpu::{CompletionKey, CompletionOutcome, JobId, StartedBurst};
use mlb_osmodel::machine::Machine;
use mlb_simkernel::queue::EventQueue;
use mlb_simkernel::rng::{SeedSequence, Xoshiro256StarStar};
use mlb_simkernel::sim::{Model, Scheduler, Simulation};
use mlb_simkernel::time::{SimDuration, SimTime};
use mlb_workload::clients::ClientId;

use crate::affinity::SessionAffinity;
use crate::config::SystemConfig;
use crate::events::{Event, ServerRef};
use crate::metrics::{LiveMetrics, MetricsReport};
use crate::request::{Phase, RequestId, RequestState};
use crate::servers::{ApacheServer, MySqlServer, TomcatServer};
use crate::slab::RequestArena;
use crate::telemetry::{MonitorSnapshot, ServerSample, Telemetry};
use crate::trace::Tracer;

/// Error returned when a [`SystemConfig`] fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidSystemConfigError {
    message: String,
}

impl fmt::Display for InvalidSystemConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system config: {}", self.message)
    }
}

impl Error for InvalidSystemConfigError {}

/// The complete simulated testbed.
#[derive(Debug)]
pub struct NTierSystem {
    cfg: SystemConfig,
    apaches: Vec<ApacheServer>,
    tomcats: Vec<TomcatServer>,
    mysql: MySqlServer,
    /// In-flight requests by id: a generational slab arena with O(1)
    /// keyed access. Its iteration order (by slot index) is a pure
    /// function of the insertion/removal history, so determinism holds
    /// without the `BTreeMap` log-n tax; the `no-hash-order` simlint rule
    /// keeps hash-ordered structures from sneaking back in.
    requests: RequestArena<RequestState>,
    /// Requests blocked in get_endpoint per target Tomcat (the paper's
    /// queue measurements attribute these to the target server).
    endpoint_waiters: Vec<usize>,
    /// Per-client session pins with violation accounting (sticky
    /// sessions): the Tomcat that served the client's first request.
    session_affinity: SessionAffinity,
    /// Every telemetry hook lands here, including the streaming
    /// registry + online detector when `cfg.metrics` is on.
    telemetry: Telemetry,
    tracer: Tracer,
    next_request: u64,
    horizon: SimTime,
    mix_rng: Xoshiro256StarStar,
    think_rng: Xoshiro256StarStar,
    net_rng: Xoshiro256StarStar,
}

impl NTierSystem {
    /// Builds the system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSystemConfigError`] if the configuration is
    /// inconsistent.
    pub fn new(cfg: SystemConfig) -> Result<Self, InvalidSystemConfigError> {
        cfg.validate()
            .map_err(|message| InvalidSystemConfigError { message })?;
        let mut seeds = SeedSequence::new(cfg.seed);
        let apaches = (0..cfg.apaches)
            .map(|_| {
                let balancer = Balancer::new(cfg.balancer.clone(), cfg.tomcats)
                    // simlint::allow(panic-hygiene): cfg.validate() above already accepted the balancer config
                    .expect("balancer config validated with system config");
                ApacheServer::new(
                    Machine::new(cfg.apache_machine.clone()),
                    cfg.apache_workers,
                    cfg.apache_accept_queue,
                    balancer,
                    cfg.tomcats,
                    cfg.pool_size,
                )
            })
            .collect();
        let tomcats = (0..cfg.tomcats)
            .map(|i| {
                TomcatServer::new(
                    Machine::new(cfg.tomcat_machine_of(i).clone()),
                    cfg.tomcat_threads,
                    cfg.db_pool_per_tomcat,
                )
            })
            .collect();
        let mysql = MySqlServer::new(Machine::new(cfg.mysql_machine.clone()));
        let telemetry = Telemetry::new(cfg.apaches, cfg.tomcats, cfg.sample_interval)
            .with_metrics(&cfg.metrics);
        let tracer = Tracer::new(&cfg.trace);
        Ok(NTierSystem {
            horizon: SimTime::ZERO + cfg.duration,
            mix_rng: seeds.stream("mix"),
            think_rng: seeds.stream("think"),
            net_rng: seeds.stream("net"),
            apaches,
            tomcats,
            mysql,
            requests: RequestArena::with_capacity(cfg.population.clients().min(1 << 20)),
            endpoint_waiters: vec![0; cfg.tomcats],
            session_affinity: SessionAffinity::new(
                if cfg.balancer.sticky_sessions {
                    cfg.population.clients()
                } else {
                    0
                },
                cfg.balancer.sticky_violation_budget,
            ),
            telemetry,
            tracer,
            next_request: 0,
            cfg,
        })
    }

    /// Builds a ready-to-run simulation: the system plus its initial
    /// events (client starts, pdflush wakeups, telemetry ticks).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSystemConfigError`] if the configuration is
    /// inconsistent.
    pub fn build_simulation(
        cfg: SystemConfig,
    ) -> Result<Simulation<NTierSystem>, InvalidSystemConfigError> {
        let system = NTierSystem::new(cfg)?;
        let mut pdflush_rng = SeedSequence::new(system.cfg.seed).stream("pdflush");
        // Pre-size for the expected steady state: every client holds about
        // one pending event (a think timer or an in-flight hop), plus
        // daemon wakeups — so clients × 2 never reallocates in practice.
        // Capacity is invisible to the simulation (a regression test pins
        // digests against it), so the cap just bounds worst-case memory.
        let capacity = system
            .cfg
            .population
            .clients()
            .saturating_mul(2)
            .clamp(64, 1 << 22);
        let queue = EventQueue::with_capacity_and_kind(capacity, system.cfg.queue);
        let mut sim = Simulation::with_queue(system, queue);

        // Stagger each client's first request across one think time.
        let clients = sim.model().cfg.population.clients();
        for c in 0..clients {
            let offset = {
                let model = sim.model_mut();
                model
                    .cfg
                    .population
                    .sample_start_offset(&mut model.think_rng)
            };
            sim.schedule(
                SimTime::ZERO + offset,
                Event::ClientIssue {
                    client: ClientId(c),
                },
            );
        }

        // pdflush daemons, staggered so servers do not flush in lockstep.
        let pdflush_starts: Vec<_> = sim
            .model()
            .machines()
            .filter_map(|(server, m)| Some((server, m.flush_interval()?)))
            .collect();
        for (server, interval) in pdflush_starts {
            let offset =
                mlb_simkernel::rng::uniform_duration(&mut pdflush_rng, SimDuration::ZERO, interval);
            sim.schedule(SimTime::ZERO + offset, Event::PdflushWake { server });
        }

        // GC daemons, staggered like pdflush.
        let mut gc_rng = SeedSequence::new(sim.model().cfg.seed).stream("gc");
        let gc_starts: Vec<_> = sim
            .model()
            .machines()
            .filter_map(|(server, m)| Some((server, m.gc_config()?.period)))
            .collect();
        for (server, period) in gc_starts {
            let offset =
                mlb_simkernel::rng::uniform_duration(&mut gc_rng, SimDuration::ZERO, period);
            sim.schedule(SimTime::ZERO + offset, Event::GcStart { server });
        }

        // Telemetry ticks at the sampling interval.
        let tick = sim.model().cfg.sample_interval;
        sim.schedule(SimTime::ZERO + tick, Event::MonitorSample);

        // Kernel self-profiling, when asked for. Purely observational:
        // the golden-digest tests pin profiled == unprofiled.
        if sim.model().cfg.prof {
            sim.enable_profiling();
        }
        Ok(sim)
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The collected telemetry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Consumes the system, returning its telemetry.
    pub fn into_telemetry(self) -> Telemetry {
        self.into_parts().0
    }

    /// The per-request trace log, when tracing is enabled.
    pub fn trace_log(&self) -> Option<&TraceLog> {
        self.tracer.log()
    }

    /// The per-request tracer (its timeline counts and cutoff).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The live telemetry bundle, when `cfg.metrics` is enabled — for
    /// incremental draining of the registry mid-run.
    pub fn live_metrics_mut(&mut self) -> Option<&mut LiveMetrics> {
        self.telemetry.live_metrics_mut()
    }

    /// The online detector's state so far, when metrics are enabled.
    pub fn detector(&self) -> Option<&MillibottleneckDetector> {
        self.telemetry.detector()
    }

    /// Consumes the system, returning its telemetry, the per-request
    /// trace log (if tracing was enabled), and the telemetry registry's
    /// end-of-run report (if metrics were enabled).
    pub fn into_parts(self) -> (Telemetry, Option<TraceLog>, Option<MetricsReport>) {
        // Release the tracer's in-flight traces and spare buffers before
        // the registry report renders its JSONL, so the two never peak
        // together.
        let log = self.tracer.into_log();
        let (telemetry, report) = self.telemetry.into_parts();
        (telemetry, log, report)
    }

    /// The Apache servers (for post-run inspection).
    pub fn apaches(&self) -> &[ApacheServer] {
        &self.apaches
    }

    /// Sticky-session affinity violations recorded so far (0 when sticky
    /// sessions are off).
    pub fn sticky_violations(&self) -> u64 {
        self.session_affinity.violations()
    }

    /// The Tomcat servers (for post-run inspection).
    pub fn tomcats(&self) -> &[TomcatServer] {
        &self.tomcats
    }

    /// Occupancy/recycling counters of the request arena (for the
    /// `prof.arena.*` export).
    pub fn arena_stats(&self) -> crate::slab::ArenaStats {
        self.requests.stats()
    }

    /// The MySQL server (for post-run inspection).
    pub fn mysql(&self) -> &MySqlServer {
        &self.mysql
    }

    /// In-flight requests right now.
    pub fn inflight(&self) -> usize {
        self.requests.len()
    }

    /// Total logical requests ever issued by clients.
    pub fn requests_issued(&self) -> u64 {
        self.next_request
    }

    // ---- request-table access ------------------------------------------
    //
    // Associated functions rather than methods so callers keep disjoint
    // borrows of the other fields. A miss in any of them means an event
    // outlived its request without its handler checking first — a
    // corrupted state machine that must abort the run instead of limping
    // on with silently wrong accounting.

    fn live(requests: &RequestArena<RequestState>, id: RequestId) -> &RequestState {
        requests
            .get(id.0)
            // simlint::allow(panic-hygiene): an earlier transition inserted this id and nothing retired it; a miss is a state-machine bug
            .expect("live request vanished")
    }

    fn live_mut(requests: &mut RequestArena<RequestState>, id: RequestId) -> &mut RequestState {
        requests
            .get_mut(id.0)
            // simlint::allow(panic-hygiene): an earlier transition inserted this id and nothing retired it; a miss is a state-machine bug
            .expect("live request vanished")
    }

    fn remove_live(requests: &mut RequestArena<RequestState>, id: RequestId) -> RequestState {
        requests
            .remove(id.0)
            // simlint::allow(panic-hygiene): completion and failure each retire a request exactly once; a double retire is a state-machine bug
            .expect("live request retired twice")
    }

    // ---- helpers -------------------------------------------------------

    fn link_delay(&mut self) -> SimDuration {
        self.cfg.link.sample(&mut self.net_rng)
    }

    /// Every server's machine in slot order: Apaches, Tomcats, MySQL.
    fn machines(&self) -> impl Iterator<Item = (ServerRef, &Machine)> + '_ {
        let apaches = self.apaches.iter().enumerate();
        let tomcats = self.tomcats.iter().enumerate();
        apaches
            .map(|(i, a)| (ServerRef::Apache(i), &a.machine))
            .chain(tomcats.map(|(i, t)| (ServerRef::Tomcat(i), &t.machine)))
            .chain(std::iter::once((ServerRef::MySql, &self.mysql.machine)))
    }

    fn machine_of(&mut self, server: ServerRef) -> &mut Machine {
        match server {
            ServerRef::Apache(i) => &mut self.apaches[i].machine,
            ServerRef::Tomcat(i) => &mut self.tomcats[i].machine,
            ServerRef::MySql => &mut self.mysql.machine,
        }
    }

    fn schedule_cpu_done(sched: &mut Scheduler<'_, Event>, server: ServerRef, key: CompletionKey) {
        let ev = match server {
            ServerRef::Apache(i) => Event::ApacheCpuDone { apache: i, key },
            ServerRef::Tomcat(i) => Event::TomcatCpuDone { tomcat: i, key },
            ServerRef::MySql => Event::MysqlCpuDone { key },
        };
        sched.at(key.at, ev);
    }

    fn schedule_started(
        sched: &mut Scheduler<'_, Event>,
        server: ServerRef,
        started: Option<StartedBurst>,
    ) {
        if let Some(s) = started {
            Self::schedule_cpu_done(sched, server, s.key);
        }
    }

    fn maybe_start_flush(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        server: ServerRef,
        trigger: mlb_osmodel::pagecache::FlushTrigger,
    ) {
        let machine = self.machine_of(server);
        if machine.is_stalled() {
            return;
        }
        let flush = machine.begin_flush(now, trigger);
        self.telemetry.millibottlenecks += 1;
        self.tracer
            .stall(server, StallKind::Flush, now, now + flush.duration);
        sched.at(now + flush.duration, Event::FlushEnd { server });
    }

    /// A client finished (or abandoned) a request: think, then issue the
    /// next one if the experiment is still running.
    fn client_continue(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        client: ClientId,
    ) {
        let think = self
            .cfg
            .population
            .sample_think_at(now, &mut self.think_rng);
        let at = now + think;
        if at < self.horizon {
            sched.at(at, Event::ClientIssue { client });
        }
    }

    /// Terminally fails a request (retransmissions or routing budget
    /// exhausted). Releases the Apache worker if one is held.
    fn fail_request(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        id: RequestId,
        holds_worker: bool,
    ) {
        let r = Self::remove_live(&mut self.requests, id);
        self.tracer
            .failed(id, now, now.saturating_since(r.first_issued));
        self.telemetry.record_failure(now);
        if holds_worker {
            self.release_worker_and_admit(now, sched, r.apache);
        }
        self.client_continue(now, sched, r.client);
    }

    /// Frees one Apache worker and immediately admits the next queued
    /// request, if any.
    fn release_worker_and_admit(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        a: usize,
    ) {
        self.apaches[a].release_worker();
        if let Some(next) = self.apaches[a].accept_queue.pop() {
            self.start_apache_work(now, sched, a, next);
        }
    }

    /// Claims a worker and starts the Apache CPU burst for `id`.
    fn start_apache_work(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        a: usize,
        id: RequestId,
    ) {
        let cost = {
            let r = Self::live_mut(&mut self.requests, id);
            r.admitted_at = Some(now);
            self.cfg.mix.get(r.interaction).apache_cost
        };
        self.tracer.admitted(id, now);
        self.apaches[a].claim_worker();
        let started = self.apaches[a].machine.cpu.submit(now, JobId(id.0), cost);
        Self::schedule_started(sched, ServerRef::Apache(a), started);
    }

    /// Claims a Tomcat thread and starts the servlet burst for `id`.
    fn start_tomcat_work(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        t: usize,
        id: RequestId,
    ) {
        let cost = {
            let r = Self::live(&self.requests, id);
            self.cfg.mix.get(r.interaction).tomcat_cost
        };
        self.tracer.backend_started(id, now);
        self.tomcats[t].claim_thread();
        let started = self.tomcats[t].machine.cpu.submit(now, JobId(id.0), cost);
        Self::schedule_started(sched, ServerRef::Tomcat(t), started);
    }

    // ---- event handlers ------------------------------------------------

    fn on_client_issue(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        client: ClientId,
    ) {
        if now >= self.horizon {
            return;
        }
        let interaction = self.cfg.mix.sample(&mut self.mix_rng);
        let id = RequestId(self.next_request);
        self.next_request += 1;
        let apache = self.cfg.population.front_end_of(client);
        let r = RequestState::new(id, client, interaction, now, apache, self.cfg.tomcats);
        self.requests.insert(id.0, r);
        self.tracer.issued(id, now, client.0 as u64, apache);
        let d = self.link_delay();
        sched.at(now + d, Event::ArriveApache { request: id });
    }

    fn on_client_retransmit(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        id: RequestId,
    ) {
        let d = self.link_delay();
        sched.at(now + d, Event::ArriveApache { request: id });
    }

    fn on_arrive_apache(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let Some(r) = self.requests.get_mut(id.0) else {
            return; // request was failed/abandoned while a packet was in flight
        };
        r.arrived_at = Some(now);
        let a = r.apache;
        let attempt = r.retransmit.attempts() as u32;
        self.tracer.arrived(id, now, attempt);
        if self.apaches[a].has_free_worker() {
            self.start_apache_work(now, sched, a, id);
            return;
        }
        match self.apaches[a].accept_queue.offer(id) {
            Offer::Accepted => {}
            Offer::Dropped => {
                self.telemetry.record_drop(now);
                self.tracer.dropped(id, now, attempt);
                let rto = Self::live_mut(&mut self.requests, id)
                    .retransmit
                    .on_drop(&self.cfg.rto);
                match rto {
                    Some(delay) => {
                        self.telemetry.record_retransmit(now);
                        self.tracer
                            .retransmit_scheduled(id, now, attempt + 1, delay);
                        sched.at(now + delay, Event::ClientRetransmit { request: id });
                    }
                    None => self.fail_request(now, sched, id, false),
                }
            }
        }
    }

    fn on_apache_cpu_done(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        a: usize,
        key: CompletionKey,
    ) {
        match self.apaches[a].machine.cpu.on_completion(now, key) {
            CompletionOutcome::Stale => {}
            CompletionOutcome::Finished { finished, started } => {
                Self::schedule_started(sched, ServerRef::Apache(a), started);
                let id = RequestId(finished.0);
                if let Some(r) = self.requests.get_mut(id.0) {
                    r.phase = Phase::Routing;
                    r.routing_started = Some(now);
                    r.routed_at = Some(now);
                    self.tracer.routing_started(id, now);
                }
                sched.immediately(Event::RouteRequest { request: id });
            }
        }
    }

    fn on_route(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let Some(r) = self.requests.get(id.0) else {
            return;
        };
        let a = r.apache;
        // Routing budget: a request that cannot be placed anywhere for this
        // long fails (mod_jk would answer 503 much earlier; the budget only
        // bounds pathological configurations).
        let started = r.routing_started.unwrap_or(now);
        if now.saturating_since(started) > self.cfg.routing_budget {
            self.telemetry.routing_failures += 1;
            self.fail_request(now, sched, id, true);
            return;
        }
        // Sticky sessions: a pinned client bypasses selection and goes to
        // its session's node (unless that node is in Error, or this
        // routing pass already gave up on it).
        if self.cfg.balancer.sticky_sessions {
            let client = r.client.0;
            if let Some(pin) = self.session_affinity.pin_of(client) {
                let pinned_ok = !r.exclude[pin]
                    && self.apaches[a].balancer.state_of(now, BackendId(pin))
                        != mlb_core::WorkerState::Error;
                if pinned_ok {
                    self.try_endpoint(now, sched, id, pin);
                    return;
                }
                // Failover: an affinity violation. Drop the pin (burning
                // one unit of the client's violation budget) and fall
                // through to selection.
                self.session_affinity.record_violation(client);
            }
        }
        match self.apaches[a].balancer.select(now, &r.exclude) {
            Some(backend) => self.try_endpoint(now, sched, id, backend.index()),
            None => {
                // Everyone Busy/Error/excluded: wait one retry_sleep with a
                // fresh view, like a worker spinning in the selection loop.
                let sleep = self.cfg.balancer.retry_sleep;
                self.tracer.no_candidate(id, now, sleep);
                if let Some(r) = self.requests.get_mut(id.0) {
                    r.reset_routing();
                }
                sched.at(now + sleep, Event::RouteRequest { request: id });
            }
        }
    }

    /// One `get_endpoint` attempt against Tomcat `b` for request `id`.
    fn try_endpoint(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        id: RequestId,
        b: usize,
    ) {
        let a = Self::live(&self.requests, id).apache;
        let was_waiting = Self::live(&self.requests, id).phase == Phase::EndpointWait;
        match self.apaches[a].pools[b].acquire() {
            Acquire::Ok => {
                if was_waiting {
                    self.endpoint_waiters[b] -= 1;
                }
                // The scoreboard value the policy saw when it picked `b`,
                // captured before the acquisition updates it.
                let lb_value = self.apaches[a].balancer.lb_values()[b];
                self.tracer.acquired(id, now, b, lb_value);
                self.apaches[a]
                    .balancer
                    .endpoint_acquired(now, BackendId(b));
                self.telemetry.record_assignment(now, a, b);
                let probes = self.apaches[a].balancer.probes_before_send();
                let probe_timeout = self.apaches[a].balancer.probe_timeout();
                if self.cfg.balancer.sticky_sessions {
                    let client = Self::live(&self.requests, id).client.0;
                    self.session_affinity.record_service(client, b);
                }
                let r = Self::live_mut(&mut self.requests, id);
                r.backend = Some(b);
                r.pending_backend = None;
                r.wait_started = None;
                r.routing_started = None;
                r.acquired_at = Some(now);
                if probes {
                    // CPing first; the request is sent only on CPong.
                    r.phase = Phase::Probing;
                    self.tracer.probe_sent(id, now, b);
                    let d = self.link_delay();
                    sched.at(now + d, Event::ArriveProbe { request: id });
                    sched.at(now + probe_timeout, Event::ProbeTimeout { request: id });
                } else {
                    r.phase = Phase::AtTomcat;
                    let d = self.link_delay();
                    sched.at(now + d, Event::ArriveTomcat { request: id });
                }
            }
            Acquire::Exhausted => {
                let elapsed = {
                    let r = Self::live_mut(&mut self.requests, id);
                    let start = *r.wait_started.get_or_insert(now);
                    now.saturating_since(start)
                };
                match self.apaches[a]
                    .balancer
                    .endpoint_failed(now, BackendId(b), elapsed)
                {
                    EndpointAdvice::RetryAfter(sleep) => {
                        if !was_waiting {
                            self.endpoint_waiters[b] += 1;
                        }
                        self.tracer.endpoint_busy(id, now, b, sleep);
                        let r = Self::live_mut(&mut self.requests, id);
                        r.pending_backend = Some(b);
                        r.phase = Phase::EndpointWait;
                        sched.at(now + sleep, Event::EndpointRetry { request: id });
                    }
                    EndpointAdvice::GiveUp => {
                        if was_waiting {
                            self.endpoint_waiters[b] -= 1;
                        }
                        self.tracer.endpoint_gave_up(id, now, b);
                        let r = Self::live_mut(&mut self.requests, id);
                        r.exclude[b] = true;
                        r.pending_backend = None;
                        r.wait_started = None;
                        r.phase = Phase::Routing;
                        sched.immediately(Event::RouteRequest { request: id });
                    }
                }
            }
        }
    }

    fn on_endpoint_retry(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let Some(r) = self.requests.get(id.0) else {
            return;
        };
        let b = r
            .pending_backend
            // simlint::allow(panic-hygiene): Phase::EndpointWait stores the backend being retried before scheduling EndpointRetry
            .expect("endpoint retry without a pending backend");
        self.try_endpoint(now, sched, id, b);
    }

    /// A CPing reaches the Tomcat: a healthy acceptor answers right away,
    /// a stalled (flushing/collecting) one only after the stall ends.
    fn on_arrive_probe(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let Some(r) = self.requests.get(id.0) else {
            return;
        };
        if r.phase != Phase::Probing {
            return; // probe already timed out
        }
        let t = r
            .backend
            // simlint::allow(panic-hygiene): Phase::Probing implies an acquired backend
            .expect("probe without a backend");
        if self.tomcats[t].machine.is_stalled() {
            self.tomcats[t].probe_waiters.push(id);
        } else {
            let d = self.link_delay();
            sched.at(now + d, Event::ProbeReply { request: id });
        }
    }

    fn on_probe_reply(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let Some(r) = self.requests.get_mut(id.0) else {
            return;
        };
        if r.phase != Phase::Probing {
            return; // the timeout won the race
        }
        r.phase = Phase::AtTomcat;
        let d = self.link_delay();
        sched.at(now + d, Event::ArriveTomcat { request: id });
    }

    fn on_probe_timeout(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let Some(r) = self.requests.get_mut(id.0) else {
            return;
        };
        if r.phase != Phase::Probing {
            return; // the reply won the race
        }
        let a = r.apache;
        let b = r
            .backend
            .take()
            // simlint::allow(panic-hygiene): Phase::Probing implies an acquired backend
            .expect("probe without a backend");
        r.acquired_at = None;
        r.exclude[b] = true;
        r.phase = Phase::Routing;
        self.tracer.probe_timed_out(id, now, b);
        // Release the endpoint and mark the silent candidate Busy.
        self.apaches[a].pools[b].release();
        self.apaches[a].balancer.probe_failed(now, BackendId(b));
        sched.immediately(Event::RouteRequest { request: id });
    }

    fn on_arrive_tomcat(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let t = Self::live(&self.requests, id)
            .backend
            // simlint::allow(panic-hygiene): Phase::AtTomcat implies an acquired backend
            .expect("arrived without a backend");
        let free = self.tomcats[t].has_free_thread();
        self.tracer.arrived_backend(id, now, t, !free);
        if free {
            self.start_tomcat_work(now, sched, t, id);
        } else {
            self.tomcats[t].pending.push_back(id);
        }
        self.tomcats[t].note_queue_depth();
    }

    fn on_tomcat_cpu_done(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        t: usize,
        key: CompletionKey,
    ) {
        match self.tomcats[t].machine.cpu.on_completion(now, key) {
            CompletionOutcome::Stale => {}
            CompletionOutcome::Finished { finished, started } => {
                Self::schedule_started(sched, ServerRef::Tomcat(t), started);
                let id = RequestId(finished.0);
                {
                    let r = Self::live_mut(&mut self.requests, id);
                    r.db_remaining = self.cfg.mix.get(r.interaction).db_queries;
                }
                sched.immediately(Event::DbDispatch { request: id });
            }
        }
    }

    fn on_db_dispatch(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let (t, remaining) = {
            let r = Self::live(&self.requests, id);
            (
                r.backend
                    // simlint::allow(panic-hygiene): a request past routing always carries its backend
                    .expect("db dispatch without backend"),
                r.db_remaining,
            )
        };
        if remaining == 0 {
            self.finish_at_tomcat(now, sched, id, t);
            return;
        }
        match self.tomcats[t].db_pool.acquire() {
            Acquire::Ok => {
                Self::live_mut(&mut self.requests, id).phase = Phase::AtDatabase;
                self.tracer.db_dispatched(id, now, remaining - 1);
                let d = self.link_delay();
                sched.at(now + d, Event::ArriveMysql { request: id });
            }
            Acquire::Exhausted => {
                self.tomcats[t].db_waiters.push_back(id);
            }
        }
    }

    fn on_arrive_mysql(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let cost = {
            let r = Self::live(&self.requests, id);
            self.cfg.mix.get(r.interaction).db_cost_per_query
        };
        self.mysql.note_query();
        let started = self.mysql.machine.cpu.submit(now, JobId(id.0), cost);
        Self::schedule_started(sched, ServerRef::MySql, started);
    }

    fn on_mysql_cpu_done(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        key: CompletionKey,
    ) {
        match self.mysql.machine.cpu.on_completion(now, key) {
            CompletionOutcome::Stale => {}
            CompletionOutcome::Finished { finished, started } => {
                Self::schedule_started(sched, ServerRef::MySql, started);
                let id = RequestId(finished.0);
                let d = self.link_delay();
                sched.at(now + d, Event::DbReply { request: id });
            }
        }
    }

    fn on_db_reply(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let t = Self::live(&self.requests, id)
            .backend
            // simlint::allow(panic-hygiene): a request past routing always carries its backend
            .expect("db reply without backend");
        self.tomcats[t].db_pool.release();
        // Hand the freed connection to the next waiter, if any.
        if let Some(waiter) = self.tomcats[t].db_waiters.pop_front() {
            let got = self.tomcats[t].db_pool.acquire();
            debug_assert_eq!(got, Acquire::Ok);
            let w = Self::live_mut(&mut self.requests, waiter);
            w.phase = Phase::AtDatabase;
            let w_remaining = w.db_remaining;
            self.tracer.db_dispatched(waiter, now, w_remaining - 1);
            let d = self.link_delay();
            sched.at(now + d, Event::ArriveMysql { request: waiter });
        }
        Self::live_mut(&mut self.requests, id).db_remaining -= 1;
        sched.immediately(Event::DbDispatch { request: id });
    }

    /// The servlet finished: write logs (the millibottleneck feed), free
    /// the thread, and send the response back toward Apache.
    fn finish_at_tomcat(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        id: RequestId,
        t: usize,
    ) {
        let log_bytes = {
            let r = Self::live(&self.requests, id);
            self.cfg.mix.get(r.interaction).log_bytes
        };
        if let Some(trigger) = self.tomcats[t].machine.log_write(log_bytes) {
            self.maybe_start_flush(now, sched, ServerRef::Tomcat(t), trigger);
        }
        self.tomcats[t].release_thread();
        if let Some(next) = self.tomcats[t].pending.pop_front() {
            self.start_tomcat_work(now, sched, t, next);
        }
        Self::live_mut(&mut self.requests, id).phase = Phase::Responding;
        self.tracer.responding(id, now);
        let d = self.link_delay();
        sched.at(now + d, Event::ApacheReply { request: id });
    }

    fn on_apache_reply(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let (a, b, traffic, latency) = {
            let r = Self::live_mut(&mut self.requests, id);
            r.replied_at = Some(now);
            let inter = self.cfg.mix.get(r.interaction);
            (
                r.apache,
                r.backend
                    // simlint::allow(panic-hygiene): Phase::Responding implies an acquired backend
                    .expect("reply without backend"),
                inter.traffic_bytes(),
                now.saturating_since(r.acquired_at.unwrap_or(now)),
            )
        };
        self.tracer.replied(id, now);
        self.apaches[a].pools[b].release();
        self.apaches[a]
            .balancer
            .response_received(now, BackendId(b), traffic, latency);
        // Apache writes its access log (only dirties when it has a cache).
        let apache_log = self.cfg.apache_log_bytes;
        if let Some(trigger) = self.apaches[a].machine.log_write(apache_log) {
            self.maybe_start_flush(now, sched, ServerRef::Apache(a), trigger);
        }
        self.release_worker_and_admit(now, sched, a);
        let d = self.link_delay();
        sched.at(now + d, Event::ClientDone { request: id });
    }

    fn on_client_done(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, id: RequestId) {
        let r = Self::remove_live(&mut self.requests, id);
        let rt = now.saturating_since(r.first_issued);
        let segments = r.segments(now);
        self.tracer.completed(id, r.first_issued, now, segments);
        self.telemetry.record_completion(now, rt);
        if let Some(segments) = segments {
            self.telemetry.phase_breakdown.add(segments);
        }
        self.client_continue(now, sched, r.client);
    }

    fn on_pdflush_wake(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        server: ServerRef,
    ) {
        let (wants, interval) = {
            let machine = self.machine_of(server);
            (machine.pdflush_wake(), machine.flush_interval())
        };
        if let Some(trigger) = wants {
            self.maybe_start_flush(now, sched, server, trigger);
        }
        if let Some(interval) = interval {
            let next = now + interval;
            if next < self.horizon {
                sched.at(next, Event::PdflushWake { server });
            }
        }
    }

    fn on_flush_end(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, server: ServerRef) {
        let restarted = self.machine_of(server).end_flush(now);
        for burst in restarted {
            Self::schedule_cpu_done(sched, server, burst.key);
        }
        self.answer_pending_probes(now, sched, server);
    }

    /// A stalled server thaws: answer the CPing probes that piled up.
    fn answer_pending_probes(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        server: ServerRef,
    ) {
        if let ServerRef::Tomcat(t) = server {
            for id in std::mem::take(&mut self.tomcats[t].probe_waiters) {
                let d = self.link_delay();
                sched.at(now + d, Event::ProbeReply { request: id });
            }
        }
    }

    fn on_gc_start(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, server: ServerRef) {
        let machine = self.machine_of(server);
        let Some(gc) = machine.gc_config() else {
            return;
        };
        if machine.begin_gc(now) {
            self.telemetry.millibottlenecks += 1;
            self.tracer
                .stall(server, StallKind::Gc, now, now + gc.pause);
            sched.at(now + gc.pause, Event::GcEnd { server });
        }
        let next = now + gc.period;
        if next < self.horizon {
            sched.at(next, Event::GcStart { server });
        }
    }

    fn on_gc_end(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>, server: ServerRef) {
        let restarted = self.machine_of(server).end_gc(now);
        for burst in restarted {
            Self::schedule_cpu_done(sched, server, burst.key);
        }
        self.answer_pending_probes(now, sched, server);
    }

    fn on_monitor(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        // Read every server once, in slot order: Apaches, Tomcats, MySQL.
        let mut servers = Vec::with_capacity(self.apaches.len() + self.tomcats.len() + 1);
        for a in &self.apaches {
            servers.push(ServerSample::from_machine(
                &a.machine,
                now,
                a.queued_requests(),
            ));
        }
        for (t, &waiting) in self.tomcats.iter_mut().zip(&self.endpoint_waiters) {
            t.note_queue_depth();
            // Count both requests inside the Tomcat and requests committed
            // to it but blocked in get_endpoint — the paper's log-derived
            // per-server queues attribute those to the target server.
            let committed = t.queued_requests() + waiting;
            servers.push(ServerSample::from_machine(&t.machine, now, committed));
        }
        servers.push(ServerSample::from_machine(
            &self.mysql.machine,
            now,
            self.mysql.queued_requests(),
        ));
        self.telemetry.on_monitor(
            now,
            &MonitorSnapshot {
                servers: &servers,
                lb_values: self.apaches[0].balancer.lb_values(),
                pending: sched.pending(),
            },
        );
        // Detector feedback: convert the flags of the freshly closed
        // window into per-Tomcat stall signals and push them into every
        // Apache balancer. Each tick overwrites the previous signals, so
        // a Tomcat with no fresh flag is re-admitted deterministically
        // one window after its stall clears.
        if self.cfg.detector_feedback {
            if let Some(stalled) = self.telemetry.drain_stalled_tomcats() {
                for a in &mut self.apaches {
                    for (t, &s) in stalled.iter().enumerate() {
                        a.balancer.signal_stall(BackendId(t), s);
                    }
                }
            }
        }
        let next = now + self.cfg.sample_interval;
        if next <= self.horizon {
            sched.at(next, Event::MonitorSample);
        }
    }
}

impl Model for NTierSystem {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<'_, Event>) {
        self.telemetry.on_event(now);
        match event {
            Event::ClientIssue { client } => self.on_client_issue(now, sched, client),
            Event::ClientRetransmit { request } => self.on_client_retransmit(now, sched, request),
            Event::ArriveApache { request } => self.on_arrive_apache(now, sched, request),
            Event::ApacheCpuDone { apache, key } => {
                self.on_apache_cpu_done(now, sched, apache, key);
            }
            Event::RouteRequest { request } => self.on_route(now, sched, request),
            Event::EndpointRetry { request } => self.on_endpoint_retry(now, sched, request),
            Event::ArriveTomcat { request } => self.on_arrive_tomcat(now, sched, request),
            Event::ArriveProbe { request } => self.on_arrive_probe(now, sched, request),
            Event::ProbeReply { request } => self.on_probe_reply(now, sched, request),
            Event::ProbeTimeout { request } => self.on_probe_timeout(now, sched, request),
            Event::TomcatCpuDone { tomcat, key } => {
                self.on_tomcat_cpu_done(now, sched, tomcat, key);
            }
            Event::DbDispatch { request } => self.on_db_dispatch(now, sched, request),
            Event::ArriveMysql { request } => self.on_arrive_mysql(now, sched, request),
            Event::MysqlCpuDone { key } => self.on_mysql_cpu_done(now, sched, key),
            Event::DbReply { request } => self.on_db_reply(now, sched, request),
            Event::ApacheReply { request } => self.on_apache_reply(now, sched, request),
            Event::ClientDone { request } => self.on_client_done(now, sched, request),
            Event::PdflushWake { server } => self.on_pdflush_wake(now, sched, server),
            Event::FlushEnd { server } => self.on_flush_end(now, sched, server),
            Event::GcStart { server } => self.on_gc_start(now, sched, server),
            Event::GcEnd { server } => self.on_gc_end(now, sched, server),
            Event::MonitorSample => self.on_monitor(now, sched),
        }
    }

    fn event_kind_names() -> &'static [&'static str] {
        Event::KIND_NAMES
    }

    fn event_kind(event: &Event) -> usize {
        event.kind()
    }
}
