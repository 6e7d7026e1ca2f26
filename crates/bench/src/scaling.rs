//! Population scale-sweep: the event queue as the whole system grows.
//!
//! The paper's testbed is fixed at 70 000 clients; the simulator is not.
//! This sweep runs `paper_4x4` under `current_load` + `skip_to_busy` with
//! every tier multiplied ([`SystemConfig::scaled`]: Apaches, Tomcats,
//! MySQL cores and clients) at 1×/4×/16×/64×, so each point stays at the
//! paper's per-server operating point and no retransmit storm inflates
//! the event count. Its 16× point is perfbench's `scaled_16x` system.
//!
//! Every point is run under both event-queue backends
//! ([`QueueKind::Wheel`], the default, and [`QueueKind::Heap`], the
//! `BinaryHeap` reference), so the report carries the wheel-over-heap
//! speedup per scale. The two backends produce bit-identical simulations
//! (a property test and an end-to-end digest test prove it, and every
//! run here checks that their model counters agree), which makes the
//! comparison a pure kernel benchmark: same events, same order, same
//! results — different data structure.
//!
//! Wall-clock numbers here are ratios measured side by side; absolute
//! throughput across commits is perfbench's job. What the sweep gates
//! across commits is [`RunCounters`]: deterministic per-seed work
//! counters that the smoke sweep compares exactly against the committed
//! [`SMOKE_COUNTERS`] table ([`counter_mismatches`]).

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::system::NTierSystem;
use mlb_simkernel::queue::{EventQueue, QueueKind};
use mlb_simkernel::sim::Simulation;
use mlb_simkernel::time::{SimDuration, SimTime};

use crate::history::BenchMeta;

/// The committed per-seed counters of [`ScaleSweepConfig::smoke`], in
/// the format [`counter_table`] writes.
pub const SMOKE_COUNTERS: &str = include_str!("../fixtures/kernel_smoke_counters.txt");

/// What to sweep and how long to run each point.
#[derive(Debug, Clone)]
pub struct ScaleSweepConfig {
    /// Multipliers applied to every tier of the paper's testbed.
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
    /// The full sweep `BENCH_kernel.json` records: 1×/4×/16×/64×, each
    /// point fanned over the golden seed triple {7, 8, 42}.
    pub fn full() -> Self {
        ScaleSweepConfig {
            scales: vec![1, 4, 16, 64],
            secs: 2,
            seeds: vec![7, 8, 42],
            slices: 16,
        }
    }

    /// The CI-sized sweep whose counters [`SMOKE_COUNTERS`] pins: 1×/4×,
    /// the golden seed triple, one simulated second.
    pub fn smoke() -> Self {
        ScaleSweepConfig {
            scales: vec![1, 4],
            secs: 1,
            seeds: vec![7, 8, 42],
            slices: 4,
        }
    }
}

/// Deterministic work counters of one run: pure functions of the config
/// and seed, so any change to one is a behaviour change. The wheel-only
/// counters (`cascades` through `node_peak_live`) are 0 on the heap; the
/// rest are identical on both backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Kernel events processed.
    pub events: u64,
    /// Requests issued by clients.
    pub issued: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed terminally.
    pub failed: u64,
    /// Requests in flight at the horizon.
    pub inflight: u64,
    /// Accept-queue drops over every Apache.
    pub drops: u64,
    /// Wheel cascades run.
    pub cascades: u64,
    /// Entries moved by cascades.
    pub cascade_entries: u64,
    /// Fresh wheel bucket chunks grown.
    pub chunk_allocs: u64,
    /// Wheel bucket chunks recycled off the free list.
    pub chunk_reuses: u64,
    /// Peak bucket-resident wheel events.
    pub node_peak_live: u64,
    /// Fresh request-arena slots grown.
    pub arena_allocs: u64,
    /// Request-arena slots recycled off the free list.
    pub arena_reuses: u64,
    /// Peak live request-arena entries.
    pub arena_peak_live: u64,
    /// Deepest event queue sampled at the slice boundaries.
    pub peak_queue: u64,
}

impl RunCounters {
    /// Counter names in [`RunCounters::row`] order: the columns of the
    /// counter table after `scale` and `seed`.
    pub const NAMES: [&'static str; 15] = [
        "events",
        "issued",
        "completed",
        "failed",
        "inflight",
        "drops",
        "cascades",
        "cascade_entries",
        "chunk_allocs",
        "chunk_reuses",
        "node_peak_live",
        "arena_allocs",
        "arena_reuses",
        "arena_peak_live",
        "peak_queue",
    ];

    /// The counters in [`RunCounters::NAMES`] order.
    pub fn row(&self) -> [u64; 15] {
        [
            self.events,
            self.issued,
            self.completed,
            self.failed,
            self.inflight,
            self.drops,
            self.cascades,
            self.cascade_entries,
            self.chunk_allocs,
            self.chunk_reuses,
            self.node_peak_live,
            self.arena_allocs,
            self.arena_reuses,
            self.arena_peak_live,
            self.peak_queue,
        ]
    }

    fn of(sim: &Simulation<NTierSystem>, peak_queue: usize) -> Self {
        let model = sim.model();
        let wheel = sim.wheel_stats().unwrap_or_default();
        let arena = model.arena_stats();
        RunCounters {
            events: sim.events_processed(),
            issued: model.requests_issued(),
            completed: model.telemetry().response.total(),
            failed: model.telemetry().failed_requests,
            inflight: model.inflight() as u64,
            drops: model.apaches().iter().map(|a| a.accept_queue.drops()).sum(),
            cascades: wheel.cascades,
            cascade_entries: wheel.cascade_entries,
            chunk_allocs: wheel.chunk_allocs,
            chunk_reuses: wheel.chunk_reuses,
            node_peak_live: wheel.node_peak_live,
            arena_allocs: arena.allocs,
            arena_reuses: arena.reuses,
            arena_peak_live: arena.peak_live,
            peak_queue: peak_queue as u64,
        }
    }
}

/// One seed's wheel and heap runs at one scale.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// The seed.
    pub seed: u64,
    /// The wheel run's counters. The heap run reported the same model
    /// counters and request-arena growth (checked on every run), so only
    /// the wall clock differs between backends.
    pub counters: RunCounters,
    /// Wall-clock seconds of the wheel run, then the heap run.
    pub wall_secs: [f64; 2],
    /// `WheelStats::chunk_allocs_ceiling` at run end: the most chunks a
    /// recycling free list can have grown.
    pub chunk_allocs_ceiling: u64,
    /// Fresh request-arena slots grown after the midpoint slice.
    pub second_half_arena_allocs: u64,
    /// Fresh wheel chunks grown after the midpoint slice. Think-timer
    /// liveness peaks when the client population first goes to sleep, so
    /// this is ~0 at *every* scale — the wheel's allocation-free steady
    /// state, gated as such.
    pub second_half_chunk_allocs: u64,
}

/// One measured scale: every seed's runs.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Tier multiplier.
    pub scale: usize,
    /// Clients simulated at this scale.
    pub clients: usize,
    /// One entry per seed, in sweep seed order.
    pub runs: Vec<SeedRun>,
}

impl ScalePoint {
    /// `f` summed over the seeds' runs.
    pub fn sum(&self, f: impl Fn(&SeedRun) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }

    /// Events per wall-clock second over all seeds on one backend.
    pub fn events_per_sec(&self, kind: QueueKind) -> f64 {
        let lane = usize::from(kind == QueueKind::Heap);
        let wall: f64 = self.runs.iter().map(|r| r.wall_secs[lane]).sum();
        self.sum(|r| r.counters.events) as f64 / wall.max(1e-9)
    }
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

    /// Series name used in reports.
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
    /// All full-system points, ordered by scale.
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
    SystemConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        queue: kind,
        ..SystemConfig::paper_4x4(BalancerConfig::with(
            PolicyKind::CurrentLoad,
            MechanismKind::SkipToBusy,
        ))
        .scaled(scale)
    }
}

/// One simulation being stepped slice-by-slice next to its rival.
struct Lane {
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
///
/// # Panics
///
/// Panics if the run loses a request (issued ≠ completed + failed + in
/// flight) or the heap run's model counters or request-arena growth
/// differ from the wheel run's.
fn run_pair(scale: usize, seed: u64, secs: u64, slices: u64) -> SeedRun {
    let mut lanes = [QueueKind::Wheel, QueueKind::Heap].map(|kind| Lane {
        sim: NTierSystem::build_simulation(point_config(scale, kind, seed, secs))
            .expect("scaled preset is valid"),
        wall_secs: 0.0,
        peak_queue: 0,
        mid_arena_allocs: 0,
        mid_chunk_allocs: 0,
    });
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
    let [wheel, heap] = lanes;
    let counters = RunCounters::of(&wheel.sim, wheel.peak_queue);
    assert_eq!(
        counters.issued,
        counters.completed + counters.failed + counters.inflight,
        "{scale}x seed {seed}: requests not conserved ({counters:?})"
    );
    // The heap reports the wheel's model counters, wheel-only ones zero.
    let model_part = RunCounters {
        cascades: 0,
        cascade_entries: 0,
        chunk_allocs: 0,
        chunk_reuses: 0,
        node_peak_live: 0,
        ..counters
    };
    assert_eq!(
        (
            RunCounters::of(&heap.sim, heap.peak_queue),
            heap.mid_arena_allocs
        ),
        (model_part, wheel.mid_arena_allocs),
        "{scale}x seed {seed}: wheel and heap runs diverged"
    );
    SeedRun {
        seed,
        counters,
        wall_secs: [wheel.wall_secs, heap.wall_secs],
        chunk_allocs_ceiling: wheel
            .sim
            .wheel_stats()
            .map_or(0, |w| w.chunk_allocs_ceiling()),
        second_half_arena_allocs: counters.arena_allocs - wheel.mid_arena_allocs,
        second_half_chunk_allocs: counters.chunk_allocs - wheel.mid_chunk_allocs,
    }
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
/// lane's wall by the co-runner count, wrecking the wall-clock numbers
/// without finishing the sweep any sooner on a small machine. Scales run
/// sequentially so the biggest population's memory footprint is never
/// multiplied by the number of scales.
///
/// # Panics
///
/// Panics if any run breaks request conservation or the two backends
/// disagree on a model counter (see [`run_pair`]).
pub fn run_scale_sweep(cfg: &ScaleSweepConfig) -> ScaleSweepReport {
    let mut points = Vec::new();
    for &scale in &cfg.scales {
        let point = ScalePoint {
            scale,
            clients: point_config(scale, QueueKind::Wheel, 0, cfg.secs)
                .population
                .clients(),
            runs: cfg
                .seeds
                .iter()
                .map(|&seed| run_pair(scale, seed, cfg.secs, cfg.slices))
                .collect(),
        };
        eprintln!(
            "  [scale {:>3}x] {:>10.0} / {:>10.0} events/s wheel / heap, {:>8} completed, \
             2nd-half allocs arena {} / chunks {}",
            scale,
            point.events_per_sec(QueueKind::Wheel),
            point.events_per_sec(QueueKind::Heap),
            point.sum(|r| r.counters.completed),
            point.sum(|r| r.second_half_arena_allocs),
            point.sum(|r| r.second_half_chunk_allocs),
        );
        points.push(point);
    }
    // Kernel-only hold churn at each scale's steady-state pending size
    // (about one pending think timer per client). Cheap relative to the
    // full-system runs, so a fixed op count is fine.
    const HOLD_OPS: u64 = 2_000_000;
    let mut hold = Vec::new();
    for p in &points {
        let (scale, pending) = (p.scale, p.clients);
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
    /// The point for a given scale, if measured.
    pub fn point(&self, scale: usize) -> Option<&ScalePoint> {
        self.points.iter().find(|p| p.scale == scale)
    }

    /// Wheel-over-heap events/sec speedup at a scale, if measured.
    pub fn speedup_at(&self, scale: usize) -> Option<f64> {
        let p = self.point(scale)?;
        Some(p.events_per_sec(QueueKind::Wheel) / p.events_per_sec(QueueKind::Heap).max(1e-9))
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

    /// Every (scale, seed) row of the counter table.
    pub fn counter_rows(&self) -> Vec<(usize, u64, RunCounters)> {
        self.points
            .iter()
            .flat_map(|p| p.runs.iter().map(|r| (p.scale, r.seed, r.counters)))
            .collect()
    }

    /// Serializes the report as pretty-printed JSON (handwritten — the
    /// workspace carries no serde). `meta` supplies the shared
    /// schema/commit/host header every BENCH artifact carries.
    pub fn to_json(&self, meta: &BenchMeta) -> String {
        let mut out = String::from("{\n");
        out.push_str(&meta.json_header());
        out.push_str(
            "  \"bench\": \"kernel_scaling\",\n  \"base\": \"paper_4x4 current_load+skip_to_busy, every tier scaled\",\n",
        );
        out.push_str(&format!("  \"sim_secs_per_run\": {},\n", self.config.secs));
        out.push_str(&format!("  \"seeds\": {:?},\n", self.config.seeds));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let runs: Vec<String> = p
                .runs
                .iter()
                .map(|r| {
                    let counters: Vec<String> = RunCounters::NAMES
                        .iter()
                        .zip(r.counters.row())
                        .map(|(name, v)| format!("\"{name}\": {v}"))
                        .collect();
                    format!(
                        "{{\"seed\": {}, \"wheel_wall_secs\": {:.4}, \"heap_wall_secs\": {:.4}, \
                         {}, \"second_half_arena_allocs\": {}, \"second_half_chunk_allocs\": {}}}",
                        r.seed,
                        r.wall_secs[0],
                        r.wall_secs[1],
                        counters.join(", "),
                        r.second_half_arena_allocs,
                        r.second_half_chunk_allocs
                    )
                })
                .collect();
            out.push_str(&format!(
                "    {{\"scale\": {}, \"clients\": {}, \"wheel_events_per_sec\": {:.1}, \
                 \"heap_events_per_sec\": {:.1}, \"runs\": [\n      {}\n    ]}}{}\n",
                p.scale,
                p.clients,
                p.events_per_sec(QueueKind::Wheel),
                p.events_per_sec(QueueKind::Heap),
                runs.join(",\n      "),
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
        let by_scale = |speedup: &dyn Fn(usize) -> Option<f64>| {
            let entries: Vec<String> = self
                .config
                .scales
                .iter()
                .filter_map(|&scale| speedup(scale).map(|s| format!("\"{scale}\": {s:.2}")))
                .collect();
            entries.join(", ")
        };
        out.push_str(&format!(
            "  ],\n  \"speedup_wheel_over_heap\": {{{}}},\n  \
             \"hold_speedup_wheel_over_heap\": {{{}}},\n  \
             \"hold_bimodal_speedup_wheel_over_heap\": {{{}}}\n}}\n",
            by_scale(&|scale| self.speedup_at(scale)),
            by_scale(&|scale| self.hold_speedup_at(scale, HoldDist::Uniform)),
            by_scale(&|scale| self.hold_speedup_at(scale, HoldDist::Bimodal)),
        ));
        out
    }
}

/// Renders counter rows as the whitespace-separated table
/// [`SMOKE_COUNTERS`] holds: `#` comment lines, a header naming the
/// columns, then one right-aligned row per (scale, seed).
pub fn counter_table(rows: &[(usize, u64, RunCounters)]) -> String {
    let cells: Vec<Vec<String>> = std::iter::once(
        ["scale", "seed"]
            .into_iter()
            .chain(RunCounters::NAMES)
            .map(str::to_owned)
            .collect(),
    )
    .chain(rows.iter().map(|(scale, seed, c)| {
        [*scale as u64, *seed]
            .into_iter()
            .chain(c.row())
            .map(|v| v.to_string())
            .collect()
    }))
    .collect();
    let widths: Vec<usize> = (0..cells[0].len())
        .map(|col| cells.iter().map(|r| r[col].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::from(
        "# Per-seed deterministic counters of the smoke kernel sweep\n\
         # (`MLB_SCALE_SWEEP=smoke cargo bench -p mlb-bench --bench kernel_scaling`),\n\
         # wheel backend. Compared exactly; any change is a behaviour change.\n",
    );
    for row in &cells {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(cell, &w)| format!("{cell:>w$}"))
            .collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

/// One cell where a measured counter differs from the committed table.
/// A (scale, seed) row present on one side only mismatches in every
/// counter, with `None` on the side that lacks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterMismatch {
    /// Tier multiplier of the row.
    pub scale: usize,
    /// Seed of the row.
    pub seed: u64,
    /// Counter name ([`RunCounters::NAMES`]).
    pub counter: &'static str,
    /// Committed value.
    pub expected: Option<u64>,
    /// Measured value.
    pub measured: Option<u64>,
}

/// Compares measured counter rows against a committed table in
/// [`counter_table`]'s format, cell by cell.
///
/// # Errors
///
/// Returns a message if the table's header is not today's column set or
/// a row does not parse.
pub fn counter_mismatches(
    table: &str,
    measured: &[(usize, u64, RunCounters)],
) -> Result<Vec<CounterMismatch>, String> {
    let mut lines = table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header: Vec<&str> = lines.next().unwrap_or("").split_whitespace().collect();
    let columns: Vec<&str> = ["scale", "seed"]
        .into_iter()
        .chain(RunCounters::NAMES)
        .collect();
    if header != columns {
        return Err(format!(
            "counter table header is {header:?}, expected {columns:?}"
        ));
    }
    let mut expected = Vec::new();
    for line in lines {
        let values = line
            .split_whitespace()
            .map(str::parse::<u64>)
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("counter table row {line:?}: {e}"))?;
        if values.len() != columns.len() {
            return Err(format!(
                "counter table row {line:?} has {} columns, expected {}",
                values.len(),
                columns.len()
            ));
        }
        expected.push((values[0] as usize, values[1], values[2..].to_vec()));
    }
    let mut keys: Vec<(usize, u64)> = measured
        .iter()
        .map(|&(scale, seed, _)| (scale, seed))
        .chain(expected.iter().map(|(scale, seed, _)| (*scale, *seed)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut mismatches = Vec::new();
    for (scale, seed) in keys {
        let want = expected
            .iter()
            .find(|(s, sd, _)| (*s, *sd) == (scale, seed))
            .map(|(_, _, v)| v);
        let got = measured
            .iter()
            .find(|(s, sd, _)| (*s, *sd) == (scale, seed))
            .map(|(_, _, c)| c.row());
        for (i, counter) in RunCounters::NAMES.into_iter().enumerate() {
            let (expected, measured) = (want.map(|v| v[i]), got.map(|v| v[i]));
            if expected != measured {
                mismatches.push(CounterMismatch {
                    scale,
                    seed,
                    counter,
                    expected,
                    measured,
                });
            }
        }
    }
    Ok(mismatches)
}

/// Every-scale acceptance bar: the wheel may never fall below ~parity
/// with the heap (small slack absorbs host timing noise at the cheap
/// scales; an inversion like the 0.25× collapse is far outside it).
const SPEEDUP_FLOOR_EVERYWHERE: f64 = 0.8;
/// Steady-state bar: second-half fresh allocations as a fraction of all
/// inserts on the same arena. Arena growth tracks peak liveness, not
/// insert volume — a broken free list allocates per insert (~50% of it
/// in the second half), a healthy one shows only stochastic creep of
/// the liveness peak, orders of magnitude below this ceiling. Applied
/// to the wheel's bucket chunks and the request arena at every scale.
const SECOND_HALF_ALLOC_FRACTION_CEILING: f64 = 0.01;

/// The no-inversion and allocation-free gates, applied at every measured
/// scale in both smoke and full mode.
///
/// # Errors
///
/// Returns the first failed gate's message.
pub fn gate_every_scale(report: &ScaleSweepReport) -> Result<(), String> {
    for &scale in &report.config.scales {
        let (Some(s), Some(p)) = (report.speedup_at(scale), report.point(scale)) else {
            return Err(format!("{scale}x was not measured on both backends"));
        };
        if s < SPEEDUP_FLOOR_EVERYWHERE {
            return Err(format!(
                "wheel/heap inversion at {scale}x: {s:.2}x end-to-end — the 64x blind spot is back"
            ));
        }
        // Both arenas stop growing after warmup at EVERY scale. Think
        // timers for the whole client population go live in the first
        // instants of the run, so bucket liveness peaks early and the
        // chunk free list serves everything after; in-flight requests
        // plateau once the system reaches its operating point. (The heap
        // runs' request arenas match the wheel's: every run checks it.)
        for (what, fresh, inserts) in [
            (
                "wheel chunks",
                p.sum(|r| r.second_half_chunk_allocs),
                p.sum(|r| r.counters.chunk_allocs + r.counters.chunk_reuses),
            ),
            (
                "request arena",
                p.sum(|r| r.second_half_arena_allocs),
                p.sum(|r| r.counters.arena_allocs + r.counters.arena_reuses),
            ),
        ] {
            let frac = fresh as f64 / inserts.max(1) as f64;
            if frac > SECOND_HALF_ALLOC_FRACTION_CEILING {
                return Err(format!(
                    "{what} still growing at {scale}x: {fresh} fresh allocations in the \
                     second half of {inserts} inserts ({:.3}%)",
                    frac * 100.0
                ));
            }
        }
        // Structural recycling bounds: fresh request slots never exceed
        // peak liveness in any run, and fresh chunks never exceed what the
        // peak bucket population can need (a broken free list allocates
        // per insert, orders of magnitude past both).
        for r in &p.runs {
            let c = &r.counters;
            if c.arena_allocs > c.arena_peak_live.max(1) {
                return Err(format!(
                    "request arena grew past peak liveness at {scale}x seed {}: \
                     {} allocs vs a peak of {}",
                    r.seed, c.arena_allocs, c.arena_peak_live
                ));
            }
            if c.chunk_allocs > r.chunk_allocs_ceiling {
                return Err(format!(
                    "wheel chunks grew past what peak liveness needs at {scale}x seed {}: \
                     {} allocs vs a ceiling of {}",
                    r.seed, c.chunk_allocs, r.chunk_allocs_ceiling,
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_complete_the_same_requests() {
        // The scale-sweep's comparison is only meaningful because the two
        // backends run bit-identical simulations; `run_pair` asserts that
        // (and request conservation) on every run, so the full bench can
        // trust events/sec differences are pure kernel cost.
        let run = run_pair(1, 7, 1, 2);
        assert!(run.counters.completed > 0);
        assert!(run.counters.cascades > 0, "the first lane ran the wheel");
        assert_eq!(run.second_half_chunk_allocs, 0);
    }

    fn run(seed: u64, events: u64) -> SeedRun {
        SeedRun {
            seed,
            counters: RunCounters {
                events,
                issued: events + 1,
                completed: events,
                chunk_reuses: 3 * events,
                arena_allocs: 50,
                arena_reuses: 1_000 * events,
                arena_peak_live: 50,
                peak_queue: 74,
                ..RunCounters::default()
            },
            wall_secs: [2.0, 4.0],
            chunk_allocs_ceiling: 1_161,
            second_half_arena_allocs: 1,
            second_half_chunk_allocs: 0,
        }
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
                runs: vec![run(7, 10), run(8, 20), run(42, 30)],
            }],
            hold: vec![HoldPoint {
                scale: 1,
                pending: 70_000,
                queue: QueueKind::Wheel,
                dist: HoldDist::Bimodal,
                ops_per_sec: 60.0,
            }],
        }
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = tiny_report();
        let json = report.to_json(&BenchMeta::fixed("cafe", "testhost"));
        assert!(json.contains("\"schema_version\": 1,"));
        assert!(json.contains("\"commit\": \"cafe\","));
        assert!(json.contains("\"bench\": \"kernel_scaling\""));
        assert!(json.contains("\"heap_events_per_sec\": 5.0,"));
        assert!(json.contains("\"seeds\": [7, 8, 42]"));
        assert!(json.contains(
            "{\"seed\": 8, \"wheel_wall_secs\": 2.0000, \"heap_wall_secs\": 4.0000, \
             \"events\": 20, \"issued\": 21,"
        ));
        assert!(json.contains("\"peak_queue\": 74, \"second_half_arena_allocs\": 1,"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn full_sweep_fans_over_the_golden_seed_triple() {
        assert_eq!(ScaleSweepConfig::full().seeds, vec![7, 8, 42]);
        assert_eq!(ScaleSweepConfig::smoke().seeds, vec![7, 8, 42]);
    }

    #[test]
    fn counter_gate_names_exactly_the_changed_cell() {
        let rows = tiny_report().counter_rows();
        assert_eq!(rows.len(), 3);
        let table = counter_table(&rows);
        assert_eq!(counter_mismatches(&table, &rows), Ok(vec![]));

        // One counter of one seed off by one in the committed table.
        let mut bumped = rows.clone();
        bumped[1].2.chunk_reuses += 1;
        let mismatches = counter_mismatches(&counter_table(&bumped), &rows).unwrap();
        assert_eq!(
            mismatches,
            vec![CounterMismatch {
                scale: 1,
                seed: 8,
                counter: "chunk_reuses",
                expected: Some(rows[1].2.chunk_reuses + 1),
                measured: Some(rows[1].2.chunk_reuses),
            }]
        );

        // A row on one side only mismatches in every counter.
        let missing = counter_mismatches(&counter_table(&rows[..2]), &rows).unwrap();
        assert_eq!(missing.len(), RunCounters::NAMES.len());
        assert!(missing
            .iter()
            .all(|m| (m.scale, m.seed, m.expected) == (1, 42, None)));

        // A table with a different column set is rejected outright.
        let renamed = table.replace("peak_queue", "peak_pending");
        assert!(counter_mismatches(&renamed, &rows).is_err());
    }

    #[test]
    fn steady_state_gate_catches_a_free_list_that_never_recycles() {
        assert_eq!(gate_every_scale(&tiny_report()), Ok(()));
        // A free list that never recycles allocates per insert: about
        // half of all inserts land in the second half.
        let (mut chunks, mut arena, mut past_peak) = (tiny_report(), tiny_report(), tiny_report());
        for r in &mut chunks.points[0].runs {
            r.second_half_chunk_allocs = r.counters.chunk_reuses / 2;
        }
        for r in &mut arena.points[0].runs {
            r.second_half_arena_allocs = r.counters.arena_reuses / 2;
        }
        past_peak.points[0].runs[2].counters.arena_allocs = 51;
        for (report, failure) in [
            (chunks, "wheel chunks still growing at 1x"),
            (arena, "request arena still growing at 1x"),
            (past_peak, "request arena grew past peak liveness at 1x"),
        ] {
            let got = gate_every_scale(&report).unwrap_err();
            assert!(got.starts_with(failure), "{got}");
        }
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
}
