//! The simprof hard guarantee: profiling is observation, not
//! perturbation.
//!
//! Profiled runs must be *byte-identical* to unprofiled runs — same
//! trace digests, same registry export, same event counts — on the same
//! golden seeds the reproducibility suite pins. And the profile itself
//! must be deterministic: everything except wall-clock nanoseconds is a
//! structural function of the event history, so two profiled runs of the
//! same seed agree on every count and on the wall-ns-excluded digest.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_ntier::metrics::MetricsConfig;
use mlb_ntier::trace::TraceConfig;
use mlb_simkernel::queue::QueueKind;

fn smoke(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.seed = seed;
    cfg
}

fn run(cfg: SystemConfig) -> ExperimentResult {
    run_experiment(cfg).expect("smoke config is valid")
}

#[test]
fn profiled_runs_match_the_unprofiled_golden_digests() {
    // The same golden values `reproducibility.rs` pins for *unprofiled*
    // runs. If enabling the profiler shifts a single event, these
    // digests — a hash of every span event in order — change.
    for (seed, digest, completed, vlrt) in [
        (7u64, 0x65f93bed2ae175cb_u64, 16_156u64, 873u64),
        (8, 0xbd91f4ce1dc729a4, 15_484, 847),
        (42, 0x0b12e81742847ad2, 15_692, 767),
    ] {
        let mut cfg = smoke(seed);
        cfg.trace = TraceConfig::enabled_default();
        cfg.prof = true;
        let r = run(cfg);
        let log = r.trace.expect("tracing was enabled");
        assert_eq!(
            log.digest(),
            digest,
            "seed {seed}: profiling perturbed the simulation (trace digest drifted)"
        );
        assert_eq!(log.completed, completed, "seed {seed}: completed count");
        assert_eq!(log.summary.vlrt_total, vlrt, "seed {seed}: VLRT count");
        let profile = r.profile.expect("cfg.prof was set");
        assert_eq!(
            profile.kernel.events_total(),
            r.events_processed,
            "seed {seed}: the profile must account for every kernel event"
        );
    }
}

#[test]
fn profiling_leaves_every_macroscopic_number_unchanged() {
    // Beyond the digest: compare the full result surface of an
    // unprofiled and a profiled run directly, registry export included.
    let plain = {
        let mut cfg = smoke(7);
        cfg.metrics = MetricsConfig::enabled_default();
        run(cfg)
    };
    let profiled = {
        let mut cfg = smoke(7);
        cfg.metrics = MetricsConfig::enabled_default();
        cfg.prof = true;
        run(cfg)
    };
    assert!(plain.profile.is_none());
    assert!(profiled.profile.is_some());
    assert_eq!(plain.events_processed, profiled.events_processed);
    assert_eq!(
        plain.telemetry.response.total(),
        profiled.telemetry.response.total()
    );
    assert_eq!(plain.telemetry.drops, profiled.telemetry.drops);
    assert_eq!(plain.telemetry.retransmits, profiled.telemetry.retransmits);
    assert_eq!(
        plain.telemetry.histogram.buckets(),
        profiled.telemetry.histogram.buckets()
    );
    assert_eq!(plain.apache_drops, profiled.apache_drops);
    assert_eq!(plain.tomcat_queue_peaks, profiled.tomcat_queue_peaks);
    let plain_metrics = plain.metrics.expect("metrics were enabled");
    let profiled_metrics = profiled.metrics.expect("metrics were enabled");
    assert_eq!(
        plain_metrics.digest(),
        profiled_metrics.digest(),
        "profiling must not move a byte of the registry export"
    );
}

#[test]
fn profile_is_deterministic_across_repeat_runs() {
    let profiled = || {
        let mut cfg = smoke(7);
        cfg.prof = true;
        run(cfg).profile.expect("cfg.prof was set")
    };
    let a = profiled();
    let b = profiled();
    // Structural counters agree exactly; only `.wall_ns` may differ.
    assert_eq!(a.kernel.kind_counts, b.kernel.kind_counts);
    assert_eq!(a.kernel.phase_counts, b.kernel.phase_counts);
    assert_eq!(a.kernel.wheel, b.kernel.wheel);
    assert_eq!(a.arena, b.arena);
    assert_eq!(
        a.deterministic_digest(),
        b.deterministic_digest(),
        "the wall-ns-excluded profile export must be bit-stable"
    );
    // The export does carry timing lines — they are excluded from the
    // digest, not from the export.
    assert!(a.to_jsonl().contains(".wall_ns"));
    // And the deterministic subset genuinely covers the counts: a kind
    // count appears in the digested lines.
    assert!(a.to_jsonl().contains("prof.kind.client_issue.count"));
}

#[test]
fn heap_backend_profiles_identically_minus_wheel_stats() {
    let profiled = |queue: QueueKind| {
        let mut cfg = smoke(7);
        cfg.queue = queue;
        cfg.prof = true;
        let r = run(cfg);
        (r.events_processed, r.profile.expect("cfg.prof was set"))
    };
    let (wheel_events, wheel) = profiled(QueueKind::Wheel);
    let (heap_events, heap) = profiled(QueueKind::Heap);
    assert_eq!(wheel_events, heap_events, "backends diverged under prof");
    assert_eq!(wheel.kernel.kind_counts, heap.kernel.kind_counts);
    assert_eq!(wheel.kernel.phase_counts, heap.kernel.phase_counts);
    assert_eq!(wheel.arena, heap.arena);
    assert!(wheel.kernel.wheel.is_some(), "wheel backend reports stats");
    assert!(heap.kernel.wheel.is_none(), "heap backend has no wheel");
}
