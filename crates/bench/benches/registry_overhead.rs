//! Hot-path cost of the streaming telemetry registry.
//!
//! Runs the same short unstable smoke scenario with telemetry off and
//! on (registry + online detector, and additionally with full tracing)
//! and prints the relative overhead. The registry hooks sit on the
//! event-loop hot path (`sim.events` is bumped per handled event), so
//! this is the honest worst case; the acceptance bar is that metrics
//! stay within a few percent of the telemetry-off baseline.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::run_experiment;
use mlb_ntier::metrics::MetricsConfig;
use mlb_ntier::trace::TraceConfig;

const BENCH_SECS: u64 = 2;

fn cfg(metrics: bool, trace: bool) -> SystemConfig {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.duration = mlb_simkernel::time::SimDuration::from_secs(BENCH_SECS);
    if metrics {
        cfg.metrics = MetricsConfig::enabled_default();
    }
    if trace {
        cfg.trace = TraceConfig::enabled_default();
    }
    cfg
}

fn run(metrics: bool, trace: bool) -> u64 {
    let r = run_experiment(cfg(metrics, trace)).expect("smoke preset is valid");
    r.telemetry.response.total()
}

fn bench_registry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_overhead_2s");
    group.sample_size(10);
    group.bench_function("telemetry_off", |b| b.iter(|| black_box(run(false, false))));
    group.bench_function("registry_on", |b| b.iter(|| black_box(run(true, false))));
    group.bench_function("registry_and_trace_on", |b| {
        b.iter(|| black_box(run(true, true)));
    });
    group.finish();
}

/// Prints the overhead percentage the CI bench gate greps for, and
/// enforces a generous ceiling so a hot-path regression fails loudly.
fn overhead_gate(_c: &mut Criterion) {
    let time = |metrics: bool, reps: u32| {
        // One warm-up run, then the median of `reps` timed runs.
        run(metrics, false);
        let mut samples: Vec<u128> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                black_box(run(metrics, false));
                t0.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let off = time(false, 7);
    let on = time(true, 7);
    let overhead_pct = 100.0 * (on as f64 - off as f64) / off as f64;
    println!(
        "registry overhead: telemetry off {:.1} ms, on {:.1} ms => {overhead_pct:+.2}%",
        off as f64 / 1e6,
        on as f64 / 1e6
    );
    assert!(
        overhead_pct < 25.0,
        "registry hot-path overhead regressed to {overhead_pct:.1}% (ceiling 25%)"
    );
}

criterion_group!(benches, bench_registry_overhead, overhead_gate);
criterion_main!(benches);
