//! Hot-path cost of the streaming telemetry registry.
//!
//! Runs the same short unstable smoke scenario with telemetry off and
//! on (registry + online detector) and prints the relative overhead. The
//! registry hooks sit on the event-loop hot path (`sim.events` is bumped
//! per handled event), so this is the honest worst case; the gate fails
//! above a 25 % ceiling. The cost of the tracer and registry together is
//! perfbench's `metrics.observer_overhead_pct` (`--trace 1`);
//! perfbench's `bench.trace_overhead_ratio` is the kernel profiler's
//! cost (profiled over unprofiled wall time), not the tracer's.
//!
//! A plain `harness = false` main: `cargo bench` passes `--bench`, which
//! it ignores.

use std::hint::black_box;
use std::time::Instant;

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::run_experiment;
use mlb_ntier::metrics::MetricsConfig;

const BENCH_SECS: u64 = 2;

fn run(metrics: bool) -> u64 {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.duration = mlb_simkernel::time::SimDuration::from_secs(BENCH_SECS);
    if metrics {
        cfg.metrics = MetricsConfig::enabled_default();
    }
    let r = run_experiment(cfg).expect("smoke preset is valid");
    r.telemetry.response.total()
}

/// Prints the overhead percentage the CI bench gate greps for, and
/// enforces a generous ceiling so a hot-path regression fails loudly.
fn main() {
    // One warm-up run of each, then 7 back-to-back off/on pairs. Host
    // load on a shared machine shifts run times by tens of percent from
    // one pair to the next, so the overhead is the median of the per-pair
    // ratios: a shift hits both runs of a pair alike and cancels.
    run(false);
    run(true);
    let time = |metrics: bool| {
        let t0 = Instant::now();
        black_box(run(metrics));
        t0.elapsed().as_nanos() as f64
    };
    let pairs: Vec<(f64, f64)> = (0..7).map(|_| (time(false), time(true))).collect();
    let median = |f: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = pairs.iter().map(f).collect();
        v.sort_unstable_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let overhead_pct = 100.0 * (median(|p| p.1 / p.0) - 1.0);
    let (off, on) = (median(|p| p.0), median(|p| p.1));
    println!(
        "registry overhead: telemetry off {:.1} ms, on {:.1} ms => {overhead_pct:+.2}%",
        off / 1e6,
        on / 1e6
    );
    assert!(
        overhead_pct < 25.0,
        "registry hot-path overhead regressed to {overhead_pct:.1}% (ceiling 25%)"
    );
}
