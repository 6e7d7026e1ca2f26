//! Population scale-sweep: kernel throughput as the testbed grows.
//!
//! The paper's testbed is fixed at 70 000 clients; the simulator is not.
//! This sweep runs the `paper_4x4` scenario at 1×/4×/16×/64× the paper's
//! client population — scaling the Apache and Tomcat counts with it so the
//! per-server load stays at the paper's operating point — and measures
//! the *kernel*: events per wall-clock second, wall-clock seconds per
//! simulated second, and the peak event-queue length.
//!
//! Every point is run under both event-queue backends
//! ([`QueueKind::Wheel`], the default, and [`QueueKind::Heap`], the
//! `BinaryHeap` reference), so the report carries the wheel-over-heap
//! speedup per scale. The two backends produce bit-identical simulations
//! (a property test and an end-to-end digest test prove it), which makes
//! the comparison a pure kernel benchmark: same events, same order, same
//! results — different data structure.
//!
//! The sweep is the first entry of the repo's BENCH trajectory: its JSON
//! report (`BENCH_kernel.json`) is a machine-readable record that CI
//! archives per commit.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::slab::ArenaStats;
use mlb_ntier::system::NTierSystem;
use mlb_simkernel::queue::{EventQueue, QueueKind, WheelStats};
use mlb_simkernel::sim::Simulation;
use mlb_simkernel::time::{SimDuration, SimTime};
use mlb_workload::clients::ClientPopulation;

use crate::history::{BenchMeta, HistoryPoint, HistoryRecord};

/// What to sweep and how long to run each point.
#[derive(Debug, Clone)]
pub struct ScaleSweepConfig {
    /// Population multipliers relative to the paper's 70 000 clients.
    pub scales: Vec<usize>,
    /// Simulated seconds per run.
    pub secs: u64,
    /// Seeds fanned per (scale, backend) point; throughput is aggregated
    /// over all of them.
    pub seeds: Vec<u64>,
    /// Event-queue depth samples taken per run (evenly spaced horizons).
    pub slices: u64,
}

impl ScaleSweepConfig {
    /// The full sweep the BENCH trajectory records: 1×/4×/16×/64×, each
    /// point fanned over the golden seed triple {7, 8, 42}.
    pub fn full() -> Self {
        ScaleSweepConfig {
            scales: vec![1, 4, 16, 64],
            secs: 2,
            seeds: vec![7, 8, 42],
            slices: 16,
        }
    }

    /// A CI-sized smoke sweep: 1×/4×, one seed, one simulated second.
    pub fn smoke() -> Self {
        ScaleSweepConfig {
            scales: vec![1, 4],
            secs: 1,
            seeds: vec![7],
            slices: 4,
        }
    }
}

/// One measured point: a (scale, backend) pair aggregated over seeds.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Population multiplier.
    pub scale: usize,
    /// Clients simulated at this scale.
    pub clients: usize,
    /// Event-queue backend measured.
    pub queue: QueueKind,
    /// Seeds this point aggregates over (recorded per point so a report
    /// re-read later is self-describing even if the sweep config drifts).
    pub seeds: Vec<u64>,
    /// Kernel events processed, summed over seeds.
    pub events_processed: u64,
    /// Events per wall-clock second (total events / total wall).
    pub events_per_sec: f64,
    /// Wall-clock seconds spent per simulated second (mean over seeds).
    pub wall_secs_per_sim_sec: f64,
    /// Deepest sampled event queue across all seeds.
    pub peak_queue_len: usize,
    /// Requests completed, summed over seeds (sanity: the two backends
    /// must agree on this at the same scale).
    pub requests_completed: u64,
    /// Wheel cascades run, summed over seeds (0 on the heap backend).
    pub cascades: u64,
    /// Entries moved by cascades, summed over seeds (0 on the heap).
    pub cascade_entries: u64,
    /// Fresh wheel bucket chunks grown, summed over seeds (0 on the
    /// heap).
    pub chunk_allocs: u64,
    /// Wheel bucket chunks recycled off the free list, summed (0 on the
    /// heap).
    pub chunk_reuses: u64,
    /// Sum over seeds of each run's
    /// [`WheelStats::chunk_allocs_ceiling`]: the most chunks a recycling
    /// free list can have grown (0 on the heap).
    pub chunk_allocs_ceiling: u64,
    /// Peak bucket-resident wheel events, max over seeds (0 on the heap).
    pub node_peak_live: u64,
    /// Fresh request-arena slot growths, summed over seeds.
    pub arena_allocs: u64,
    /// Request-arena slots recycled off the free list, summed over seeds.
    pub arena_reuses: u64,
    /// Peak live request-arena entries, max over seeds.
    pub arena_peak_live: u64,
    /// Fresh request-arena slot growths after each run's midpoint,
    /// summed over seeds. At overloaded scales this legitimately ramps
    /// with in-flight liveness, but it is backend-independent: the gate
    /// asserts wheel and heap agree exactly, and that the 1× point (the
    /// only scale that reaches steady state inside the window) stays
    /// under 1% of inserts.
    pub second_half_arena_allocs: u64,
    /// Fresh wheel chunks grown after each run's midpoint, summed over
    /// seeds (0 on the heap). Think-timer liveness peaks when the client
    /// population first goes to sleep, so this is ~0 at *every* scale —
    /// the wheel's allocation-free steady state, gated as such.
    pub second_half_chunk_allocs: u64,
}

/// How the *hold* churn draws re-insertion offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldDist {
    /// ~Uniform on [0, 14 s) — cache-friendly, spreads entries evenly
    /// over the wheel levels and never builds the far-future backlog
    /// that storms cascades. The flattering series.
    Uniform,
    /// Paper-shaped near/far mix: 15-in-16 sub-millisecond service-like
    /// hops, 1-in-16 think-time-like 7–9 s sleeps — the mix the n-tier
    /// model actually generates (~16 kernel events per request, one of
    /// them a think timer). This is the series that predicted nothing
    /// when it was missing: uniform hold read 14 M ops/s while the
    /// end-to-end 64× sweep collapsed to 19 k events/s.
    Bimodal,
}

impl HoldDist {
    /// Every distribution, in report order.
    pub const ALL: [HoldDist; 2] = [HoldDist::Uniform, HoldDist::Bimodal];

    /// Series name used in reports and ledger keys.
    pub fn name(self) -> &'static str {
        match self {
            HoldDist::Uniform => "uniform",
            HoldDist::Bimodal => "bimodal",
        }
    }
}

/// One *hold* microbenchmark point: queue ops/sec at a pending-set size.
#[derive(Debug, Clone)]
pub struct HoldPoint {
    /// Population multiplier whose steady-state pending set this mimics.
    pub scale: usize,
    /// Events kept pending throughout the churn.
    pub pending: usize,
    /// Event-queue backend measured.
    pub queue: QueueKind,
    /// Re-insertion offset distribution this series drew from.
    pub dist: HoldDist,
    /// Pop-one/push-one operations per wall-clock second.
    pub ops_per_sec: f64,
}

/// The finished sweep.
#[derive(Debug, Clone)]
pub struct ScaleSweepReport {
    /// Sweep parameters.
    pub config: ScaleSweepConfig,
    /// All full-system points, ordered by (scale, backend).
    pub points: Vec<ScalePoint>,
    /// Kernel-only *hold* points, ordered by (scale, backend).
    pub hold: Vec<HoldPoint>,
}

fn kind_name(kind: QueueKind) -> &'static str {
    match kind {
        QueueKind::Wheel => "wheel",
        QueueKind::Heap => "heap",
    }
}

fn point_config(scale: usize, kind: QueueKind, seed: u64, secs: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_4x4(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.apaches *= scale;
    cfg.tomcats *= scale;
    cfg.population = ClientPopulation::new(
        cfg.population.clients() * scale,
        cfg.population.think_time_mean(),
        cfg.apaches,
    );
    cfg.duration = SimDuration::from_secs(secs);
    cfg.seed = seed;
    cfg.queue = kind;
    cfg
}

struct RunStats {
    events: u64,
    wall_secs: f64,
    peak_queue: usize,
    completed: u64,
    /// Wheel counters at run end (`None` on the heap backend).
    wheel: Option<WheelStats>,
    /// Request-arena counters at run end.
    arena: ArenaStats,
    /// Fresh request-arena slots after the midpoint slice.
    second_half_arena_allocs: u64,
    /// Fresh wheel chunks after the midpoint slice (0 on the heap) — the
    /// per-run allocation-free steady-state gauge.
    second_half_chunk_allocs: u64,
}

/// One simulation being stepped slice-by-slice next to its rival.
struct Lane {
    kind: QueueKind,
    sim: Simulation<NTierSystem>,
    wall_secs: f64,
    peak_queue: usize,
    mid_arena_allocs: u64,
    mid_chunk_allocs: u64,
}

/// Runs one seed under *both* backends with their slices interleaved:
/// wheel slice `i` executes immediately before heap slice `i`, and each
/// backend's wall clock accrues only while its own slice runs.
///
/// The interleaving is the measurement's noise defense. Shared hosts
/// show multi-second slow windows (scheduling, thermal); running all of
/// one backend before any of the other lets a single bad window land
/// entirely on one side and fake an inversion at one scale while the
/// neighbouring scales read 2×+ the other way. Adjacent slices pin both
/// backends to near-identical host conditions, so the wheel/heap ratio
/// stays trustworthy even when absolute throughput is noisy.
fn run_pair(scale: usize, seed: u64, secs: u64, slices: u64) -> Vec<(QueueKind, RunStats)> {
    let mut lanes: Vec<Lane> = [QueueKind::Wheel, QueueKind::Heap]
        .into_iter()
        .map(|kind| Lane {
            kind,
            sim: NTierSystem::build_simulation(point_config(scale, kind, seed, secs))
                .expect("scaled preset is valid"),
            wall_secs: 0.0,
            peak_queue: 0,
            mid_arena_allocs: 0,
            mid_chunk_allocs: 0,
        })
        .collect();
    let total_us = secs * 1_000_000;
    let mid_slice = slices.div_ceil(2);
    for i in 1..=slices {
        for lane in &mut lanes {
            let start = std::time::Instant::now();
            lane.sim
                .run_until(SimTime::from_micros(total_us * i / slices));
            lane.wall_secs += start.elapsed().as_secs_f64();
            lane.peak_queue = lane.peak_queue.max(lane.sim.pending());
            if i == mid_slice {
                lane.mid_arena_allocs = lane.sim.model().arena_stats().allocs;
                lane.mid_chunk_allocs = lane.sim.wheel_stats().map_or(0, |w| w.chunk_allocs);
            }
        }
    }
    lanes
        .into_iter()
        .map(|lane| {
            let wheel = lane.sim.wheel_stats();
            let arena = lane.sim.model().arena_stats();
            let stats = RunStats {
                events: lane.sim.events_processed(),
                wall_secs: lane.wall_secs,
                peak_queue: lane.peak_queue,
                completed: lane.sim.model().telemetry().response.total(),
                second_half_arena_allocs: arena.allocs - lane.mid_arena_allocs,
                second_half_chunk_allocs: wheel.map_or(0, |w| w.chunk_allocs)
                    - lane.mid_chunk_allocs,
                wheel,
                arena,
            };
            (lane.kind, stats)
        })
        .collect()
}

/// The classic *hold* kernel microbenchmark: keep `pending` events in
/// the queue and churn pop-one/push-one `ops` times, re-inserting each
/// popped event an offset drawn from `dist` into the future. Returns
/// operations per wall-clock second.
///
/// This isolates the event-queue data structure from the n-tier model:
/// the pending-set size is exactly what a closed-loop population of
/// `pending` clients keeps in the queue at steady state, but no routing,
/// service, or telemetry work happens between queue touches. The
/// wheel-over-heap ratio of this number is the kernel speedup proper;
/// the full-system sweep shows how much of it survives model cost.
pub fn hold_ops_per_sec(
    kind: QueueKind,
    dist: HoldDist,
    pending: usize,
    ops: u64,
    seed: u64,
) -> f64 {
    // Deterministic xorshift64*, shaped per `dist`.
    let mut state = seed | 1;
    let mut next_us = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        match dist {
            HoldDist::Uniform => state % 14_000_000,
            // 1-in-16 far (7–9 s think-timer-like), else sub-ms service
            // hop — the n-tier model's per-request event mix.
            HoldDist::Bimodal => {
                if state.is_multiple_of(16) {
                    7_000_000 + (state >> 8) % 2_000_000
                } else {
                    (state >> 8) % 1_000
                }
            }
        }
    };
    let mut q: EventQueue<u32> = EventQueue::with_capacity_and_kind(pending, kind);
    for i in 0..pending {
        q.push(SimTime::from_micros(next_us()), i as u32);
    }
    let start = std::time::Instant::now();
    for _ in 0..ops {
        let (t, ev) = q.pop().expect("hold queue never drains");
        q.push(t + SimDuration::from_micros(next_us()), ev);
    }
    ops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the sweep: every scale × both backends × every seed.
///
/// Seeds run one after another, each stepping its wheel and heap
/// simulations interleaved slice-by-slice (see [`run_pair`]). Nothing is
/// fanned across threads on purpose: the wall clocks being measured ARE
/// the product, and parallel runs on a contended host inflate every
/// lane's wall by the co-runner count, wrecking `wall_secs_per_sim_sec`
/// without finishing the sweep any sooner on a small machine. Scales run
/// sequentially so the biggest population's memory footprint is never
/// multiplied by the number of scales.
pub fn run_scale_sweep(cfg: &ScaleSweepConfig) -> ScaleSweepReport {
    let mut points = Vec::new();
    for &scale in &cfg.scales {
        let mut per_kind: Vec<(QueueKind, Vec<RunStats>)> = vec![
            (QueueKind::Wheel, Vec::new()),
            (QueueKind::Heap, Vec::new()),
        ];
        for &seed in &cfg.seeds {
            for (kind, stats) in run_pair(scale, seed, cfg.secs, cfg.slices) {
                per_kind
                    .iter_mut()
                    .find(|(k, _)| *k == kind)
                    .expect("lane kind is in the report set")
                    .1
                    .push(stats);
            }
        }
        for (kind, stats) in per_kind {
            let events: u64 = stats.iter().map(|s| s.events).sum();
            let wall: f64 = stats.iter().map(|s| s.wall_secs).sum();
            let completed: u64 = stats.iter().map(|s| s.completed).sum();
            let peak_queue = stats.iter().map(|s| s.peak_queue).max().unwrap_or(0);
            let sim_secs = (cfg.secs * cfg.seeds.len() as u64) as f64;
            let wheel_sum = |f: fn(&WheelStats) -> u64| -> u64 {
                stats.iter().filter_map(|s| s.wheel.as_ref()).map(f).sum()
            };
            let point = ScalePoint {
                scale,
                clients: 70_000 * scale,
                queue: kind,
                seeds: cfg.seeds.clone(),
                events_processed: events,
                events_per_sec: events as f64 / wall.max(1e-9),
                wall_secs_per_sim_sec: wall / sim_secs.max(1e-9),
                peak_queue_len: peak_queue,
                requests_completed: completed,
                cascades: wheel_sum(|w| w.cascades),
                cascade_entries: wheel_sum(|w| w.cascade_entries),
                chunk_allocs: wheel_sum(|w| w.chunk_allocs),
                chunk_reuses: wheel_sum(|w| w.chunk_reuses),
                chunk_allocs_ceiling: wheel_sum(WheelStats::chunk_allocs_ceiling),
                node_peak_live: stats
                    .iter()
                    .filter_map(|s| s.wheel.as_ref())
                    .map(|w| w.node_peak_live)
                    .max()
                    .unwrap_or(0),
                arena_allocs: stats.iter().map(|s| s.arena.allocs).sum(),
                arena_reuses: stats.iter().map(|s| s.arena.reuses).sum(),
                arena_peak_live: stats.iter().map(|s| s.arena.peak_live).max().unwrap_or(0),
                second_half_arena_allocs: stats.iter().map(|s| s.second_half_arena_allocs).sum(),
                second_half_chunk_allocs: stats.iter().map(|s| s.second_half_chunk_allocs).sum(),
            };
            eprintln!(
                "  [scale {:>3}x {:<5}] {:>10.0} events/s, {:>6.3} wall-s/sim-s, peak queue {:>8}, 2nd-half allocs arena {} / chunks {}",
                scale,
                kind_name(kind),
                point.events_per_sec,
                point.wall_secs_per_sim_sec,
                point.peak_queue_len,
                point.second_half_arena_allocs,
                point.second_half_chunk_allocs,
            );
            points.push(point);
        }
    }
    // Kernel-only hold churn at each scale's steady-state pending size.
    // Cheap relative to the full-system runs, so a fixed op count is fine.
    const HOLD_OPS: u64 = 2_000_000;
    let mut hold = Vec::new();
    for &scale in &cfg.scales {
        let pending = 70_000 * scale;
        for dist in HoldDist::ALL {
            for kind in [QueueKind::Wheel, QueueKind::Heap] {
                let ops_per_sec = hold_ops_per_sec(kind, dist, pending, HOLD_OPS, 0x9E37_79B9);
                eprintln!(
                    "  [hold  {:>3}x {:<5} {:<7}] {:>10.0} queue ops/s at {:>8} pending",
                    scale,
                    kind_name(kind),
                    dist.name(),
                    ops_per_sec,
                    pending,
                );
                hold.push(HoldPoint {
                    scale,
                    pending,
                    queue: kind,
                    dist,
                    ops_per_sec,
                });
            }
        }
    }
    ScaleSweepReport {
        config: cfg.clone(),
        points,
        hold,
    }
}

impl ScaleSweepReport {
    /// The point for a given (scale, backend), if measured.
    pub fn point(&self, scale: usize, kind: QueueKind) -> Option<&ScalePoint> {
        self.points
            .iter()
            .find(|p| p.scale == scale && p.queue == kind)
    }

    /// Wheel-over-heap events/sec speedup at a scale, if both backends
    /// were measured there.
    pub fn speedup_at(&self, scale: usize) -> Option<f64> {
        let wheel = self.point(scale, QueueKind::Wheel)?;
        let heap = self.point(scale, QueueKind::Heap)?;
        Some(wheel.events_per_sec / heap.events_per_sec.max(1e-9))
    }

    /// Wheel-over-heap queue-ops/sec speedup of the kernel-only *hold*
    /// churn at a (scale, distribution), if both backends were measured.
    pub fn hold_speedup_at(&self, scale: usize, dist: HoldDist) -> Option<f64> {
        let find = |kind| {
            self.hold
                .iter()
                .find(|p| p.scale == scale && p.queue == kind && p.dist == dist)
        };
        let wheel = find(QueueKind::Wheel)?;
        let heap = find(QueueKind::Heap)?;
        Some(wheel.ops_per_sec / heap.ops_per_sec.max(1e-9))
    }

    /// Serializes the report as pretty-printed JSON (handwritten — the
    /// workspace carries no serde). `meta` supplies the shared
    /// schema/commit/host header every BENCH artifact carries.
    pub fn to_json(&self, meta: &BenchMeta) -> String {
        let mut out = String::from("{\n");
        out.push_str(&meta.json_header());
        out.push_str("  \"bench\": \"kernel_scaling\",\n  \"base\": \"paper_4x4\",\n");
        out.push_str(&format!("  \"sim_secs_per_run\": {},\n", self.config.secs));
        out.push_str(&format!(
            "  \"seeds\": [{}],\n",
            self.config
                .seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scale\": {}, \"clients\": {}, \"backend\": \"{}\", \
                 \"seeds\": [{}], \"events_processed\": {}, \"events_per_sec\": {:.1}, \
                 \"wall_secs_per_sim_sec\": {:.6}, \"peak_queue_len\": {}, \
                 \"requests_completed\": {}, \"cascades\": {}, \"cascade_entries\": {}, \
                 \"chunk_allocs\": {}, \"chunk_reuses\": {}, \"node_peak_live\": {}, \
                 \"arena_allocs\": {}, \"arena_reuses\": {}, \"arena_peak_live\": {}, \
                 \"second_half_arena_allocs\": {}, \"second_half_chunk_allocs\": {}}}{}\n",
                p.scale,
                p.clients,
                kind_name(p.queue),
                p.seeds
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
                p.events_processed,
                p.events_per_sec,
                p.wall_secs_per_sim_sec,
                p.peak_queue_len,
                p.requests_completed,
                p.cascades,
                p.cascade_entries,
                p.chunk_allocs,
                p.chunk_reuses,
                p.node_peak_live,
                p.arena_allocs,
                p.arena_reuses,
                p.arena_peak_live,
                p.second_half_arena_allocs,
                p.second_half_chunk_allocs,
                if i + 1 == self.points.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"hold\": [\n");
        for (i, p) in self.hold.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scale\": {}, \"pending\": {}, \"backend\": \"{}\", \
                 \"dist\": \"{}\", \"ops_per_sec\": {:.1}}}{}\n",
                p.scale,
                p.pending,
                kind_name(p.queue),
                p.dist.name(),
                p.ops_per_sec,
                if i + 1 == self.hold.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"speedup_wheel_over_heap\": {");
        let mut first = true;
        for &scale in &self.config.scales {
            if let Some(s) = self.speedup_at(scale) {
                if !first {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{scale}\": {s:.2}"));
                first = false;
            }
        }
        for dist in HoldDist::ALL {
            let key = match dist {
                HoldDist::Uniform => "hold_speedup_wheel_over_heap",
                HoldDist::Bimodal => "hold_bimodal_speedup_wheel_over_heap",
            };
            out.push_str(&format!("}},\n  \"{key}\": {{"));
            first = true;
            for &scale in &self.config.scales {
                if let Some(s) = self.hold_speedup_at(scale, dist) {
                    if !first {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{scale}\": {s:.2}"));
                    first = false;
                }
            }
        }
        out.push_str("}\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json(&self, path: &std::path::Path, meta: &BenchMeta) {
        std::fs::write(path, self.to_json(meta)).expect("write BENCH_kernel.json");
        eprintln!("  wrote {}", path.display());
    }

    /// The sweep's perf-trajectory ledger record: one point per
    /// `(scale, backend)` full-system measurement (key `"{scale}x/{backend}"`)
    /// plus one per kernel-only hold churn (key `"hold/{scale}x/{backend}"`).
    /// The `events_per_sec` metrics here are what the `repro -- trend`
    /// gate watches. `bench` names the ledger series — the smoke and
    /// full sweeps record under different names ("kernel_scaling_smoke"
    /// vs "kernel_scaling") so a CI-sized 1-sim-s run is never the
    /// trend-gate baseline for a full 2-sim-s run or vice versa.
    pub fn history_record(&self, meta: &BenchMeta, bench: &str) -> HistoryRecord {
        let mut record = HistoryRecord::new(meta, bench, self.config.seeds.clone());
        for p in &self.points {
            let mut metrics = vec![
                ("events_per_sec", p.events_per_sec),
                ("wall_secs_per_sim_sec", p.wall_secs_per_sim_sec),
                ("peak_queue_len", p.peak_queue_len as f64),
                ("requests_completed", p.requests_completed as f64),
                ("arena_allocs", p.arena_allocs as f64),
                ("arena_reuses", p.arena_reuses as f64),
                ("arena_peak_live", p.arena_peak_live as f64),
                (
                    "second_half_arena_allocs",
                    p.second_half_arena_allocs as f64,
                ),
            ];
            if p.queue == QueueKind::Wheel {
                metrics.extend([
                    ("cascades", p.cascades as f64),
                    ("cascade_entries", p.cascade_entries as f64),
                    ("chunk_allocs", p.chunk_allocs as f64),
                    ("chunk_reuses", p.chunk_reuses as f64),
                    ("node_peak_live", p.node_peak_live as f64),
                    (
                        "second_half_chunk_allocs",
                        p.second_half_chunk_allocs as f64,
                    ),
                ]);
            }
            record.points.push(HistoryPoint::new(
                format!("{}x/{}", p.scale, kind_name(p.queue)),
                metrics,
            ));
        }
        for h in &self.hold {
            let key = match h.dist {
                HoldDist::Uniform => format!("hold/{}x/{}", h.scale, kind_name(h.queue)),
                HoldDist::Bimodal => {
                    format!("hold_bimodal/{}x/{}", h.scale, kind_name(h.queue))
                }
            };
            record
                .points
                .push(HistoryPoint::new(key, vec![("ops_per_sec", h.ops_per_sec)]));
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_complete_the_same_requests() {
        // The scale-sweep's comparison is only meaningful because the two
        // backends run bit-identical simulations; check the invariant at a
        // tiny scale so the full bench can trust events/sec differences
        // are pure kernel cost.
        let pair = run_pair(1, 7, 1, 2);
        let (wk, wheel) = &pair[0];
        let (hk, heap) = &pair[1];
        assert_eq!(*wk, QueueKind::Wheel);
        assert_eq!(*hk, QueueKind::Heap);
        assert_eq!(wheel.events, heap.events);
        assert_eq!(wheel.completed, heap.completed);
        assert_eq!(wheel.peak_queue, heap.peak_queue);
        // Request-arena growth is model-driven, so the second-half gauge
        // must agree across backends too (the every-scale bench gate).
        assert_eq!(
            wheel.second_half_arena_allocs,
            heap.second_half_arena_allocs
        );
        assert_eq!(heap.second_half_chunk_allocs, 0);
    }

    fn tiny_report() -> ScaleSweepReport {
        ScaleSweepReport {
            config: ScaleSweepConfig {
                scales: vec![1],
                secs: 1,
                seeds: vec![7, 8, 42],
                slices: 2,
            },
            points: vec![ScalePoint {
                scale: 1,
                clients: 70_000,
                queue: QueueKind::Wheel,
                seeds: vec![7, 8, 42],
                events_processed: 10,
                events_per_sec: 5.0,
                wall_secs_per_sim_sec: 2.0,
                peak_queue_len: 3,
                requests_completed: 4,
                cascades: 2,
                cascade_entries: 6,
                chunk_allocs: 8,
                chunk_reuses: 9,
                chunk_allocs_ceiling: 1_161,
                node_peak_live: 3,
                arena_allocs: 5,
                arena_reuses: 11,
                arena_peak_live: 4,
                second_half_arena_allocs: 1,
                second_half_chunk_allocs: 0,
            }],
            hold: vec![
                HoldPoint {
                    scale: 1,
                    pending: 70_000,
                    queue: QueueKind::Wheel,
                    dist: HoldDist::Uniform,
                    ops_per_sec: 100.0,
                },
                HoldPoint {
                    scale: 1,
                    pending: 70_000,
                    queue: QueueKind::Wheel,
                    dist: HoldDist::Bimodal,
                    ops_per_sec: 60.0,
                },
            ],
        }
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = tiny_report();
        let json = report.to_json(&BenchMeta::fixed("cafe", "testhost"));
        assert!(json.contains("\"schema_version\": 1,"));
        assert!(json.contains("\"commit\": \"cafe\","));
        assert!(json.contains("\"bench\": \"kernel_scaling\""));
        assert!(json.contains("\"backend\": \"wheel\""));
        assert!(json.contains("\"seeds\": [7, 8, 42]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn full_sweep_fans_over_the_golden_seed_triple() {
        assert_eq!(ScaleSweepConfig::full().seeds, vec![7, 8, 42]);
    }

    #[test]
    fn history_record_carries_every_point() {
        let record =
            tiny_report().history_record(&BenchMeta::fixed("cafe", "testhost"), "kernel_scaling");
        assert_eq!(record.bench, "kernel_scaling");
        assert_eq!(record.seeds, vec![7, 8, 42]);
        let p = record.point("1x/wheel").expect("system point present");
        assert_eq!(p.metric("events_per_sec"), Some(5.0));
        assert_eq!(p.metric("peak_queue_len"), Some(3.0));
        assert_eq!(p.metric("cascade_entries"), Some(6.0));
        assert_eq!(p.metric("chunk_allocs"), Some(8.0));
        assert_eq!(p.metric("arena_reuses"), Some(11.0));
        assert_eq!(p.metric("second_half_arena_allocs"), Some(1.0));
        assert_eq!(p.metric("second_half_chunk_allocs"), Some(0.0));
        let h = record.point("hold/1x/wheel").expect("hold point present");
        assert_eq!(h.metric("ops_per_sec"), Some(100.0));
        let hb = record
            .point("hold_bimodal/1x/wheel")
            .expect("bimodal hold point present");
        assert_eq!(hb.metric("ops_per_sec"), Some(60.0));
        // And the record survives its own serialization.
        let line = record.to_json_line();
        assert_eq!(
            crate::history::HistoryRecord::from_json_line(&line).unwrap(),
            record
        );
    }

    #[test]
    fn hold_churn_runs_on_both_backends_and_distributions() {
        for kind in [QueueKind::Wheel, QueueKind::Heap] {
            for dist in HoldDist::ALL {
                let ops = hold_ops_per_sec(kind, dist, 1_000, 10_000, 42);
                assert!(ops > 0.0);
            }
        }
    }

    #[test]
    fn scaled_configs_stay_valid() {
        for scale in [1usize, 4, 16, 64] {
            let cfg = point_config(scale, QueueKind::Wheel, 7, 1);
            assert_eq!(cfg.population.clients(), 70_000 * scale);
            assert_eq!(cfg.population.front_ends(), cfg.apaches);
            cfg.validate().expect("scaled preset must validate");
        }
    }
}
