//! Population scale-sweep bench.
//!
//! Runs `paper_4x4` (`current_load` + `skip_to_busy`) with every tier
//! multiplied at 1×/4×/16×/64× under both event-queue backends and writes
//! `BENCH_kernel.json` at the workspace root (`target/BENCH_kernel.json`
//! for the smoke sweep, which CI archives per commit).
//! Gates:
//!
//! * **exact counters (smoke)** — every seed's deterministic work
//!   counters (`RunCounters`) must equal the committed
//!   `fixtures/kernel_smoke_counters.txt` cell for cell. Any difference
//!   is a behaviour or placement change: the gate names the cells and
//!   prints the measured table in the file's format, and a change that
//!   means it replaces the file and says why.
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
//! * **allocation-free steady state** — at every scale, the wheel's
//!   bucket chunks and the request arena must stop growing after warmup
//!   (under 1 % fresh allocations in the second half), chunk growth
//!   never exceeds what the peak bucket population can need, request
//!   growth never exceeds peak liveness.
//!
//! The last two are [`gate_every_scale`], unit-tested on synthetic
//! reports in `mlb_bench::scaling`.
//!
//! Every run also checks request conservation and that the two backends
//! agree on every model counter. Wall-clock numbers are side-by-side
//! ratios only; cross-commit wall-clock comparisons are perfbench's.
//!
//! `MLB_SCALE_SWEEP=smoke` shrinks the sweep to 1×/4× with a short
//! horizon for CI; the speedup floors relax (CI-sized populations are
//! too small for the asymptotic win) but the no-inversion and
//! steady-state gates run at every scale in both modes.
//!
//! A plain `harness = false` main: `cargo bench` passes `--bench`, which
//! it ignores; any failed gate panics with its message.

use mlb_bench::history::write_artifact;
use mlb_bench::scaling::{counter_mismatches, counter_table, gate_every_scale, SMOKE_COUNTERS};
use mlb_bench::{run_scale_sweep, BenchMeta, HoldDist, ScaleSweepConfig};

/// Kernel acceptance bar: wheel-over-heap queue ops/sec in the hold
/// churn at the 16× pending-set size.
const HOLD_SPEEDUP_FLOOR_AT_16X: f64 = 3.0;
/// Full-system acceptance bar: end-to-end events/sec at 16×.
const SYSTEM_SPEEDUP_FLOOR_AT_16X: f64 = 1.5;

fn main() {
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
    write_artifact(
        "BENCH_kernel.json",
        &report.to_json(&BenchMeta::capture()),
        smoke,
    );
    // The exact gate first: it is noise-free and names the cells that
    // moved, where a wall-clock gate could only say something slowed.
    if smoke {
        let measured = report.counter_rows();
        let mismatches =
            counter_mismatches(SMOKE_COUNTERS, &measured).expect("committed counter table parses");
        if !mismatches.is_empty() {
            for m in &mismatches {
                eprintln!(
                    "counter gate: {}x seed {} {}: committed {:?}, measured {:?}",
                    m.scale, m.seed, m.counter, m.expected, m.measured
                );
            }
            eprintln!("measured counter table:\n{}", counter_table(&measured));
            panic!(
                "{} counter(s) differ from crates/bench/fixtures/kernel_smoke_counters.txt",
                mismatches.len()
            );
        }
    }

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
    if let Err(failure) = gate_every_scale(&report) {
        panic!("{failure}");
    }
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
