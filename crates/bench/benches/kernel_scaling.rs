//! Population scale-sweep bench: the first entry of the BENCH trajectory.
//!
//! Runs `paper_4x4` at growing client populations under both event-queue
//! backends and writes `BENCH_kernel.json` at the workspace root (CI
//! archives it per commit). Gates:
//!
//! * **kernel (hold churn)** — at 16× the paper's population (1.12 M
//!   pending events) the wheel must push/pop at least 3× as fast as the
//!   `BinaryHeap` baseline. This is the data structure measured alone.
//! * **full system** — the end-to-end events/sec win at 16× must stay
//!   above 1.5×. The model's own per-event work (routing over 64
//!   Tomcats, service sampling, telemetry) dilutes the kernel ratio, so
//!   this floor is deliberately lower; the JSON records both numbers.
//! * **no inversion anywhere** — the wheel must match or beat the heap
//!   at *every* measured scale. Gating only 16× is how a 0.25× collapse
//!   at 64× once landed silently.
//! * **allocation-free steady state** — the wheel's bucket chunks must
//!   stop growing after warmup at every scale (think-timer liveness
//!   peaks when the population first sleeps), and never exceed the
//!   chunk count the peak bucket population can need. The request
//!   arena legitimately ramps with in-flight liveness at overloaded
//!   scales, so it is gated structurally instead: growth never exceeds
//!   peak liveness, the second-half gauge agrees exactly across
//!   backends (it is model-driven, not backend-driven), and at 1× —
//!   the only scale that reaches steady state inside the window — the
//!   second half allocates under 1% of inserts.
//!
//! `MLB_SCALE_SWEEP=smoke` shrinks the sweep to 1×/4× with a short
//! horizon for CI; the speedup floors relax (CI-sized populations are
//! too small for the asymptotic win) but the no-inversion and
//! steady-state gates run at every scale in both modes.

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, Criterion};
use mlb_bench::history::{append_record, history_path};
use mlb_bench::{run_scale_sweep, BenchMeta, HoldDist, ScaleSweepConfig, ScaleSweepReport};
use mlb_simkernel::queue::QueueKind;

/// Kernel acceptance bar: wheel-over-heap queue ops/sec in the hold
/// churn at the 16× pending-set size.
const HOLD_SPEEDUP_FLOOR_AT_16X: f64 = 3.0;
/// Full-system acceptance bar: end-to-end events/sec at 16×.
const SYSTEM_SPEEDUP_FLOOR_AT_16X: f64 = 1.5;
/// Every-scale acceptance bar: the wheel may never fall below ~parity
/// with the heap (small slack absorbs host timing noise at the cheap
/// scales; an inversion like the 0.25× collapse is far outside it).
const SPEEDUP_FLOOR_EVERYWHERE: f64 = 0.8;
/// Steady-state bar: second-half fresh allocations as a fraction of all
/// inserts on the same arena. Arena growth tracks peak liveness, not
/// insert volume — a broken free list allocates per insert (~50% of it
/// in the second half), a healthy one shows only stochastic creep of
/// the liveness peak, orders of magnitude below this ceiling. Applied
/// to the wheel's bucket chunks at every scale, and to the request arena
/// only at 1×: at overloaded scales in-flight liveness is still ramping
/// at the midpoint, so request-arena growth there is warmup, not churn.
const SECOND_HALF_ALLOC_FRACTION_CEILING: f64 = 0.01;

fn workspace_root() -> PathBuf {
    // benches run with the package directory (crates/bench) as cwd.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// The no-inversion and allocation-free gates, applied at every measured
/// scale in both smoke and full mode.
fn gate_every_scale(report: &ScaleSweepReport) {
    let seeds = report.config.seeds.len() as u64;
    for &scale in &report.config.scales {
        let s = report.speedup_at(scale).expect("both backends measured");
        assert!(
            s >= SPEEDUP_FLOOR_EVERYWHERE,
            "wheel/heap inversion at {scale}x: {s:.2}x end-to-end — the 64x blind spot is back"
        );
        let wheel = report
            .point(scale, QueueKind::Wheel)
            .expect("wheel point measured");
        let heap = report
            .point(scale, QueueKind::Heap)
            .expect("heap point measured");
        // The wheel's bucket storage stops growing after warmup at EVERY
        // scale. Think timers for the whole client population go live in
        // the first instants of the run, so bucket liveness peaks early
        // and the chunk free list serves everything after.
        let chunk_inserts = (wheel.chunk_allocs + wheel.chunk_reuses).max(1);
        let chunk_frac = wheel.second_half_chunk_allocs as f64 / chunk_inserts as f64;
        assert!(
            chunk_frac <= SECOND_HALF_ALLOC_FRACTION_CEILING,
            "wheel chunks still growing at {scale}x: {} fresh chunks in the \
             second half of {} chunk inserts ({:.3}%)",
            wheel.second_half_chunk_allocs,
            chunk_inserts,
            chunk_frac * 100.0
        );
        // Request-arena growth is model-driven (in-flight request
        // liveness), so bit-identical backends must report it
        // bit-identically; divergence means one backend leaks slots.
        assert_eq!(
            wheel.second_half_arena_allocs, heap.second_half_arena_allocs,
            "backends disagree on request-arena growth at {scale}x"
        );
        // Structural recycling bound on both arenas: per seed, fresh
        // allocations never exceed peak liveness (a broken free list
        // allocates per insert, orders of magnitude past this).
        for p in [wheel, heap] {
            assert!(
                p.arena_allocs <= seeds * p.arena_peak_live.max(1),
                "request arena grew past peak liveness at {scale}x/{:?}: \
                 {} allocs vs {} seeds x {} peak",
                p.queue,
                p.arena_allocs,
                seeds,
                p.arena_peak_live
            );
        }
        assert!(
            wheel.chunk_allocs <= wheel.chunk_allocs_ceiling,
            "wheel chunks grew past what peak liveness needs at {scale}x: {} allocs vs \
             a ceiling of {} over {} seeds",
            wheel.chunk_allocs,
            wheel.chunk_allocs_ceiling,
            seeds
        );
        if scale == 1 {
            // Only the paper-scale point reaches steady state inside the
            // measured window; larger populations are overloaded and ramp
            // in-flight liveness (hence fresh request slots) throughout.
            for p in [wheel, heap] {
                let inserts = (p.arena_allocs + p.arena_reuses).max(1);
                let frac = p.second_half_arena_allocs as f64 / inserts as f64;
                assert!(
                    frac <= SECOND_HALF_ALLOC_FRACTION_CEILING,
                    "request arena still growing at steady state (1x/{:?}): {} fresh \
                     slots in the second half of {} inserts ({:.3}%)",
                    p.queue,
                    p.second_half_arena_allocs,
                    inserts,
                    frac * 100.0
                );
            }
        }
    }
}

fn scale_sweep_gate(_c: &mut Criterion) {
    let smoke = std::env::var("MLB_SCALE_SWEEP").as_deref() == Ok("smoke");
    let cfg = if smoke {
        ScaleSweepConfig::smoke()
    } else {
        ScaleSweepConfig::full()
    };
    eprintln!(
        "kernel scale-sweep ({}): scales {:?}, {} sim-s per run, seeds {:?}",
        if smoke { "smoke" } else { "full" },
        cfg.scales,
        cfg.secs,
        cfg.seeds
    );
    let report = run_scale_sweep(&cfg);
    let meta = BenchMeta::capture();
    report.write_json(&workspace_root().join("BENCH_kernel.json"), &meta);
    let bench_name = if smoke {
        "kernel_scaling_smoke"
    } else {
        "kernel_scaling"
    };
    append_record(&history_path(), &report.history_record(&meta, bench_name));

    for &scale in &cfg.scales {
        let system = report.speedup_at(scale).expect("both backends measured");
        let hold = report
            .hold_speedup_at(scale, HoldDist::Uniform)
            .expect("both backends held");
        let bimodal = report
            .hold_speedup_at(scale, HoldDist::Bimodal)
            .expect("both backends held bimodal");
        println!(
            "kernel scaling: wheel/heap speedup at {scale}x = {system:.2}x system, \
             {hold:.2}x hold, {bimodal:.2}x hold-bimodal"
        );
    }
    gate_every_scale(&report);
    if smoke {
        let h = report
            .hold_speedup_at(1, HoldDist::Uniform)
            .expect("1x held");
        assert!(
            h > 1.0,
            "wheel hold churn slower than heap at 1x ({h:.2}x) — kernel regression"
        );
    } else {
        let h = report
            .hold_speedup_at(16, HoldDist::Uniform)
            .expect("16x held");
        assert!(
            h >= HOLD_SPEEDUP_FLOOR_AT_16X,
            "kernel hold speedup at 16x is {h:.2}x, below the {HOLD_SPEEDUP_FLOOR_AT_16X:.1}x floor"
        );
        let s = report.speedup_at(16).expect("16x measured");
        assert!(
            s >= SYSTEM_SPEEDUP_FLOOR_AT_16X,
            "end-to-end wheel/heap speedup at 16x is {s:.2}x, below the {SYSTEM_SPEEDUP_FLOOR_AT_16X:.1}x floor"
        );
        // The gate the 0.25x collapse slipped past: at the deepest
        // measured scale the wheel must outright beat the heap.
        let s64 = report.speedup_at(64).expect("64x measured");
        assert!(
            s64 >= 1.0,
            "wheel/heap speedup at 64x is {s64:.2}x — the cascade-storm inversion is back"
        );
    }
}

criterion_group!(benches, scale_sweep_gate);
criterion_main!(benches);
