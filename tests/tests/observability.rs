//! The observability contract: the streaming registry exports are
//! byte-stable, the online millibottleneck detector agrees with post-hoc
//! trace attribution, sampling selects a strict subset of the full
//! traces, and none of it perturbs the simulation.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_metrics::spans::{StallKind, StallWindow};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_ntier::metrics::MetricsConfig;
use mlb_ntier::trace::TraceConfig;
use mlb_osmodel::machine::GcConfig;
use mlb_osmodel::pagecache::PageCacheConfig;
use mlb_simkernel::time::{SimDuration, SimTime};

/// Tracing that keeps every trace in the ring, so a digest hashes the
/// whole run and the subset check sees every id.
fn full_retention() -> TraceConfig {
    TraceConfig {
        recent_capacity: 1 << 20,
        ..TraceConfig::enabled_default()
    }
}

fn observed(policy: PolicyKind, mech: MechanismKind, seed: u64) -> ExperimentResult {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(policy, mech));
    cfg.seed = seed;
    cfg.metrics = MetricsConfig::enabled_default();
    cfg.trace = full_retention();
    run_experiment(cfg).expect("smoke config is valid")
}

/// The windows (of width `window`, up to ordinal `last`) a server's
/// stall windows strictly overlap — the common currency in which the
/// online detector and the post-hoc trace log are compared.
fn stall_windows(stalls: &[StallWindow], server: &str, window: SimDuration, last: u64) -> Vec<u64> {
    let width = window.as_micros();
    let mut ws: Vec<u64> = Vec::new();
    for s in stalls.iter().filter(|s| s.server == server) {
        for w in 0..=last {
            let from = SimTime::from_micros(w * width);
            let to = SimTime::from_micros((w + 1) * width);
            if !s.overlap(from, to).is_zero() {
                ws.push(w);
            }
        }
    }
    ws.sort_unstable();
    ws.dedup();
    ws
}

fn all_servers(online: &[StallWindow], posthoc: &[StallWindow]) -> Vec<String> {
    let mut servers: Vec<String> = online
        .iter()
        .chain(posthoc)
        .map(|s| s.server.clone())
        .collect();
    servers.sort_unstable();
    servers.dedup();
    servers
}

/// Asserts the detector's stall windows and the trace log's cover the
/// exact same window set per server, and returns how many windows were
/// compared (so callers can require the scenario was non-trivial).
fn assert_window_agreement(r: &ExperimentResult) -> usize {
    let report = r.metrics.as_ref().expect("metrics were enabled");
    let log = r.trace.as_ref().expect("tracing was enabled");
    let last = report
        .last_window
        .expect("the run is long enough to observe windows");
    let mut compared = 0;
    for server in all_servers(&report.stalls, &log.stalls) {
        let online = stall_windows(&report.stalls, &server, report.window, last);
        let posthoc = stall_windows(&log.stalls, &server, report.window, last);
        assert_eq!(
            online, posthoc,
            "{}: {server}: online detector and post-hoc attribution disagree",
            r.label
        );
        compared += online.len();
    }
    compared
}

#[test]
fn online_detector_agrees_with_posthoc_attribution() {
    // The paper's two unstable cumulative policies (Fig. 6/7 analogues):
    // the detector watching per-window iowait deltas in-stream must
    // recover exactly the stall windows the servers reported post hoc.
    for (policy, mech) in [
        (PolicyKind::TotalRequest, MechanismKind::Original),
        (PolicyKind::TotalTraffic, MechanismKind::Original),
    ] {
        let r = observed(policy, mech, 0x1CDC_2017);
        let compared = assert_window_agreement(&r);
        assert!(
            compared > 0,
            "{}: instability scenario produced no stall windows to compare",
            r.label
        );
        let report = r.metrics.as_ref().unwrap();
        assert!(
            report.stalls.iter().all(|s| s.kind == StallKind::Flush),
            "{}: smoke stalls are dirty-page flushes",
            r.label
        );
    }
}

#[test]
fn online_detector_classifies_gc_pauses() {
    // Disable flushing and inject periodic stop-the-world collections:
    // the detector sees iowait-saturated windows with no dirty-page drop
    // and must classify every run as a GC pause.
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.tomcat_machine.page_cache = Some(PageCacheConfig::effectively_disabled());
    cfg.tomcat_machine.gc = Some(GcConfig {
        period: SimDuration::from_secs(2),
        pause: SimDuration::from_millis(150),
    });
    cfg.metrics = MetricsConfig::enabled_default();
    cfg.trace = TraceConfig::enabled_default();
    let r = run_experiment(cfg).expect("smoke config is valid");
    let report = r.metrics.as_ref().unwrap();
    assert!(!report.stalls.is_empty(), "GC pauses must be detected");
    assert!(
        report.stalls.iter().all(|s| s.kind == StallKind::Gc),
        "without flushing every stall is a GC pause: {:?}",
        report.stalls
    );
    assert_window_agreement(&r);
}

#[test]
fn registry_jsonl_digests_match_golden_values() {
    // Golden FNV-1a digests of the full JSONL export. The export is
    // integer-only and serialized in registration order, so it is
    // byte-stable across platforms; any drift here means either a model
    // change (re-capture in the same commit and say why) or a
    // determinism regression (fix it).
    for (seed, digest, lines) in [
        (7u64, 0xcc72f116b0c15ec2_u64, 4_756u64),
        (8, 0xbc5a16c0934fbac5, 4_740),
        (42, 0xa847382a926fb3ed, 4_746),
    ] {
        let mut cfg = SystemConfig::smoke(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        cfg.seed = seed;
        cfg.metrics = MetricsConfig::enabled_default();
        let r = run_experiment(cfg).expect("smoke config is valid");
        let report = r.metrics.expect("metrics were enabled");
        assert_eq!(
            report.jsonl.lines().count() as u64,
            lines,
            "seed {seed}: JSONL record count drifted"
        );
        assert_eq!(
            report.digest(),
            digest,
            "seed {seed}: registry JSONL digest drifted from the golden value"
        );
    }
}

#[test]
fn observability_does_not_perturb_the_run() {
    // Tracing, sampling, and the registry are observational: a fully
    // instrumented run must replay the exact same simulation as a bare
    // one, seed for seed — same event count, same completions, same
    // drops. The trace digest must also match the golden values pinned
    // in reproducibility.rs, proving the registry hooks did not shift a
    // single span.
    let bare = {
        let mut cfg = SystemConfig::smoke(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        cfg.seed = 7;
        run_experiment(cfg).expect("smoke config is valid")
    };
    let full = observed(PolicyKind::TotalRequest, MechanismKind::Original, 7);
    let sampled = {
        let mut cfg = SystemConfig::smoke(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        cfg.seed = 7;
        cfg.metrics = MetricsConfig::enabled_default();
        cfg.trace = TraceConfig::sampled(10);
        run_experiment(cfg).expect("smoke config is valid")
    };
    for r in [&full, &sampled] {
        assert_eq!(r.events_processed, bare.events_processed);
        assert_eq!(
            r.telemetry.response.total(),
            bare.telemetry.response.total()
        );
        assert_eq!(r.telemetry.drops, bare.telemetry.drops);
        assert_eq!(r.telemetry.retransmits, bare.telemetry.retransmits);
        assert_eq!(r.apache_drops, bare.apache_drops);
    }
    // Same golden digest as reproducibility.rs pins for a bare traced
    // run: the registry observed without perturbing.
    let log = full.trace.as_ref().unwrap();
    assert_eq!(log.recent().count() as u64, log.completed + log.failed);
    assert_eq!(
        log.digest(),
        0x65f93bed2ae175cb,
        "metrics-on trace digest drifted from the untraced golden value"
    );
    // Both runs observed the same simulation, so the registry export is
    // identical whether or not tracing rode along.
    assert_eq!(
        full.metrics.as_ref().unwrap().digest(),
        sampled.metrics.as_ref().unwrap().digest()
    );
}

#[test]
fn metrics_leave_every_telemetry_series_unchanged() {
    // The registry and detector ride inside `Telemetry` and read its
    // monitor snapshots; turning them on must not move a single figure
    // series, histogram bucket or total. The Debug rendering covers
    // every field (f64s print round-trip exact).
    let run = |metrics: MetricsConfig| {
        let mut cfg = SystemConfig::smoke(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        cfg.seed = 7;
        cfg.duration = SimDuration::from_secs(4);
        cfg.metrics = metrics;
        run_experiment(cfg).expect("smoke config is valid")
    };
    let off = run(MetricsConfig::disabled());
    let on = run(MetricsConfig::enabled_default());
    assert!(off.metrics.is_none());
    assert!(on.metrics.is_some());
    assert!(off.telemetry.millibottlenecks > 0, "scenario too quiet");
    assert!(off.telemetry.drops > 0, "scenario too quiet");
    assert_eq!(
        format!("{:?}", on.telemetry),
        format!("{:?}", off.telemetry)
    );
}

mod sampling_subset {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn traced_run(sample_every: u64) -> ExperimentResult {
        let mut cfg = SystemConfig::smoke(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        cfg.seed = 7;
        cfg.trace = TraceConfig {
            sample_every,
            ..full_retention()
        };
        run_experiment(cfg).expect("smoke config is valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn sampled_traces_are_a_subset_of_full_traces(every in 2u64..=9) {
            // Both runs retain every finished trace (the ring is far
            // larger than the completion count), so the sampled run's
            // traces must be exactly the divisible ids — event for event.
            let full = traced_run(1);
            let sampled = traced_run(every);
            let full_log = full.trace.as_ref().unwrap();
            let sampled_log = sampled.trace.as_ref().unwrap();
            for log in [full_log, sampled_log] {
                prop_assert_eq!(log.recent().count() as u64, log.completed + log.failed);
            }
            let full_by_id: BTreeMap<u64, _> =
                full_log.recent().map(|t| (t.id, &t.events)).collect();
            let expected: Vec<u64> = full_by_id
                .keys()
                .copied()
                .filter(|id| id % every == 0)
                .collect();
            let got: Vec<u64> = {
                let mut ids: Vec<u64> = sampled_log.recent().map(|t| t.id).collect();
                ids.sort_unstable();
                ids
            };
            prop_assert_eq!(&got, &expected, "sampled id set is not the 1-in-{} subset", every);
            for t in sampled_log.recent() {
                prop_assert_eq!(
                    &t.events,
                    *full_by_id.get(&t.id).expect("id exists in the full run"),
                    "trace {} diverges between sampled and full runs", t.id
                );
            }
            // Stall windows are per-server and never sampled away.
            prop_assert_eq!(&sampled_log.stalls, &full_log.stalls);
        }
    }
}
