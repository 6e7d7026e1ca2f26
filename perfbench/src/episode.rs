//! One simulation run, timed from outside through the public API, and
//! the checks its simulated outcome must pass.

use std::time::Instant;

use mlb_ntier::{NTierSystem, SystemConfig};
use mlb_simkernel::prof::KernelProfile;
use mlb_simkernel::sim::Simulation;
use mlb_simkernel::time::{SimDuration, SimTime};

/// The slice `run_until` advances by: the paper's 50 ms monitoring
/// window.
pub const SLICE: SimDuration = SimDuration::from_millis(50);

/// The simulated outcome of a run: deterministic for a fixed config and
/// seed, whatever the host or the observers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Logical requests the clients issued.
    pub issued: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests that failed terminally.
    pub failed: u64,
    /// Requests still in flight at the horizon.
    pub inflight: u64,
    /// Completions slower than 1 sim-s (VLRT).
    pub vlrt: u64,
    /// Accept-queue drops.
    pub drops: u64,
    /// TCP retransmissions.
    pub retransmits: u64,
    /// Events the kernel handled.
    pub events: u64,
}

impl Outcome {
    /// FNV-1a over every field: two runs with equal digests simulated the
    /// same thing.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            self.issued,
            self.completed,
            self.failed,
            self.inflight,
            self.vlrt,
            self.drops,
            self.retransmits,
            self.events,
        ] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// One line a reviewer can diff between two commits.
    pub fn render(&self) -> String {
        format!(
            "digest={:#018x} issued={} completed={} failed={} inflight={} vlrt={} drops={} retransmits={} events={}",
            self.digest(),
            self.issued,
            self.completed,
            self.failed,
            self.inflight,
            self.vlrt,
            self.drops,
            self.retransmits,
            self.events
        )
    }
}

/// Everything one run leaves behind. Times are host (wall) time.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host seconds `build_simulation` took.
    pub setup_s: f64,
    /// Host seconds the `run_until` slices took, in total.
    pub run_wall_s: f64,
    /// Host milliseconds of each 50 sim-ms slice.
    pub slice_ms: Vec<f64>,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Largest pending-event count seen at a slice end.
    pub peak_pending: u64,
    /// The simulated outcome.
    pub outcome: Outcome,
    /// Mean response time of completed requests, in sim-ms.
    pub mean_rt_ms: f64,
    /// VLRT share of completed requests, in percent.
    pub vlrt_pct: f64,
    /// Accept-queue drops summed over the Apaches.
    pub accept_queue_drops: u64,
    /// `get_endpoint` give-ups summed over the balancers.
    pub giveups: u64,
    /// Connection-pool exhaustions summed over every pool.
    pub pool_exhaustions: u64,
    /// Millibottlenecks summed over every server.
    pub millibottlenecks: u64,
    /// Peak live entries of the request arena.
    pub arena_peak_live: u64,
    /// Traces the trace log holds at the end (ring plus VLRT chains).
    pub traces_retained: u64,
    /// The kernel profile, when `cfg.prof` was set.
    pub profile: Option<KernelProfile>,
}

/// Builds the simulation, returning it with the host seconds it took.
pub fn build(cfg: SystemConfig) -> (Simulation<NTierSystem>, f64) {
    let start = Instant::now();
    let sim = NTierSystem::build_simulation(cfg).expect("benchmark workloads are valid configs");
    (sim, start.elapsed().as_secs_f64())
}

/// Builds and runs `cfg` to its horizon in [`SLICE`]s.
pub fn run(cfg: SystemConfig) -> Episode {
    let horizon = cfg.duration.as_micros();
    let (mut sim, setup_s) = build(cfg);
    let mut slice_ms = Vec::with_capacity(horizon.div_ceil(SLICE.as_micros()) as usize);
    let mut peak_pending = 0;
    let mut t = 0;
    while t < horizon {
        t = (t + SLICE.as_micros()).min(horizon);
        let start = Instant::now();
        sim.run_until(SimTime::from_micros(t));
        slice_ms.push(start.elapsed().as_secs_f64() * 1e3);
        peak_pending = peak_pending.max(sim.pending() as u64);
    }
    let events = sim.events_processed();
    let profile = sim.profile_snapshot();
    let system = sim.into_model();

    let apaches = system.apaches();
    let accept_queue_drops = apaches.iter().map(|a| a.accept_queue.drops()).sum();
    let giveups = apaches.iter().map(|a| a.balancer.stats().giveups).sum();
    let pool_exhaustions = apaches
        .iter()
        .flat_map(|a| a.pools.iter().map(|p| p.exhaustions()))
        .sum();
    let millibottlenecks = apaches
        .iter()
        .map(|a| a.machine.millibottleneck_count())
        .chain(
            system
                .tomcats()
                .iter()
                .map(|t| t.machine.millibottleneck_count()),
        )
        .sum::<u64>()
        + system.mysql().machine.millibottleneck_count();
    let arena_peak_live = system.arena_stats().peak_live;
    let traces_retained = system.trace_log().map_or(0, |log| {
        (log.recent().count() + log.vlrt_causes().len()) as u64
    });
    let issued = system.requests_issued();
    let inflight = system.inflight() as u64;
    let tel = system.into_telemetry();
    let outcome = Outcome {
        issued,
        completed: tel.response.total(),
        failed: tel.failed_requests,
        inflight,
        vlrt: tel.response.vlrt_count(),
        drops: tel.drops,
        retransmits: tel.retransmits,
        events,
    };
    Episode {
        setup_s,
        run_wall_s: slice_ms.iter().sum::<f64>() / 1e3,
        slice_ms,
        sim_s: horizon as f64 / 1e6,
        peak_pending,
        outcome,
        mean_rt_ms: tel.response.avg_ms(),
        vlrt_pct: tel.response.pct_vlrt(),
        accept_queue_drops,
        giveups,
        pool_exhaustions,
        millibottlenecks,
        arena_peak_live,
        traces_retained,
        profile,
    }
}

/// The checks every run must pass; returns one line per violation.
///
/// * conservation: issued = completed + failed + in flight;
/// * with `storm_free`: no accept-queue drops, no failed requests, and
///   under 1 % of issued requests in flight at the horizon.
pub fn violations(e: &Episode, storm_free: bool) -> Vec<String> {
    let o = &e.outcome;
    let mut v = Vec::new();
    if o.issued != o.completed + o.failed + o.inflight {
        v.push(format!(
            "conservation: issued {} != completed {} + failed {} + in flight {}",
            o.issued, o.completed, o.failed, o.inflight
        ));
    }
    if storm_free {
        if e.accept_queue_drops != 0 {
            v.push(format!(
                "storm: {} accept-queue drops",
                e.accept_queue_drops
            ));
        }
        if o.failed != 0 {
            v.push(format!("storm: {} failed requests", o.failed));
        }
        if o.inflight * 100 >= o.issued {
            v.push(format!(
                "storm: {} of {} issued requests still in flight (>= 1 %)",
                o.inflight, o.issued
            ));
        }
    }
    v
}
