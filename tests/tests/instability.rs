//! End-to-end reproduction of the paper's core claims at smoke scale.
//!
//! These tests assert the *shape* of the paper's results: the cumulative
//! policies go unstable under millibottlenecks, either remedy fixes it,
//! and a millibottleneck-free system is healthy under every policy.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};

fn run(policy: PolicyKind, mech: MechanismKind) -> ExperimentResult {
    run_experiment(SystemConfig::smoke(BalancerConfig::with(policy, mech)))
        .expect("smoke config is valid")
}

fn run_no_mb(policy: PolicyKind, mech: MechanismKind) -> ExperimentResult {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(policy, mech));
    cfg.tomcat_machine.page_cache =
        Some(mlb_osmodel::pagecache::PageCacheConfig::effectively_disabled());
    run_experiment(cfg).expect("smoke config is valid")
}

#[test]
fn baseline_without_millibottlenecks_is_healthy() {
    let r = run_no_mb(PolicyKind::TotalRequest, MechanismKind::Original);
    assert_eq!(r.total_millibottlenecks(), 0);
    assert_eq!(r.telemetry.drops, 0, "no drops without millibottlenecks");
    assert_eq!(r.telemetry.response.vlrt_count(), 0);
    assert!(
        r.telemetry.response.avg_ms() < 10.0,
        "baseline avg RT {} ms should be ms-scale",
        r.telemetry.response.avg_ms()
    );
}

#[test]
fn total_request_goes_unstable_under_millibottlenecks() {
    let r = run(PolicyKind::TotalRequest, MechanismKind::Original);
    assert!(r.total_millibottlenecks() > 0);
    assert!(
        r.telemetry.drops > 0,
        "the instability must overflow the accept queue"
    );
    assert!(
        r.telemetry.response.vlrt_count() > 0,
        "drops must turn into VLRT requests via retransmission"
    );
    // Worker exhaustion: the pile-on must saturate the Apache worker pool.
    let peak = r.apache_worker_peaks.iter().max().copied().unwrap();
    assert_eq!(peak, 60, "apache workers should saturate (smoke pool = 60)");
}

#[test]
fn total_traffic_goes_unstable_too() {
    let r = run(PolicyKind::TotalTraffic, MechanismKind::Original);
    assert!(r.telemetry.drops > 0);
    assert!(r.telemetry.response.vlrt_count() > 0);
}

#[test]
fn policy_remedy_restores_baseline_performance() {
    let unstable = run(PolicyKind::TotalRequest, MechanismKind::Original);
    let remedied = run(PolicyKind::CurrentLoad, MechanismKind::Original);
    assert!(
        remedied.total_millibottlenecks() > 0,
        "millibottlenecks still happen"
    );
    assert!(
        remedied.telemetry.response.avg_ms() * 3.0 < unstable.telemetry.response.avg_ms(),
        "current_load ({:.2} ms) must beat total_request ({:.2} ms) by a wide margin",
        remedied.telemetry.response.avg_ms(),
        unstable.telemetry.response.avg_ms()
    );
    assert!(
        remedied.telemetry.response.pct_vlrt() < unstable.telemetry.response.pct_vlrt() / 2.0,
        "VLRT fraction must collapse under the policy remedy"
    );
}

#[test]
fn mechanism_remedy_restores_baseline_performance() {
    let unstable = run(PolicyKind::TotalRequest, MechanismKind::Original);
    let remedied = run(PolicyKind::TotalRequest, MechanismKind::SkipToBusy);
    // At smoke scale (2 Tomcats, small pools) the margin is smaller than
    // the paper-scale ~8x; the paper-scale check lives in the harness.
    assert!(
        remedied.telemetry.response.avg_ms() * 1.5 < unstable.telemetry.response.avg_ms(),
        "modified get_endpoint ({:.2} ms) must beat the original ({:.2} ms)",
        remedied.telemetry.response.avg_ms(),
        unstable.telemetry.response.avg_ms()
    );
}

#[test]
fn combining_remedies_gains_nothing_over_current_load() {
    let policy_only = run(PolicyKind::CurrentLoad, MechanismKind::Original);
    let both = run(PolicyKind::CurrentLoad, MechanismKind::SkipToBusy);
    let a = policy_only.telemetry.response.avg_ms();
    let b = both.telemetry.response.avg_ms();
    assert!(
        (a - b).abs() / a.max(b) < 0.25,
        "both remedies ({b:.2} ms) should be on par with current_load alone ({a:.2} ms)"
    );
}

#[test]
fn remedies_reduce_queue_peaks() {
    let unstable = run(PolicyKind::TotalRequest, MechanismKind::Original);
    let remedied = run(PolicyKind::CurrentLoad, MechanismKind::Original);
    let peak = |r: &ExperimentResult| {
        r.telemetry
            .tomcat_queues
            .iter()
            .flat_map(|q| q.global_max())
            .fold(0.0f64, f64::max)
    };
    assert!(
        peak(&remedied) * 1.5 < peak(&unstable),
        "tomcat queue peaks must shrink: {} vs {}",
        peak(&remedied),
        peak(&unstable)
    );
}

#[test]
fn every_policy_is_healthy_without_millibottlenecks() {
    for policy in PolicyKind::all() {
        let r = run_no_mb(policy, MechanismKind::Original);
        assert_eq!(
            r.telemetry.drops,
            0,
            "{} dropped packets without millibottlenecks",
            policy.name()
        );
        assert!(
            r.telemetry.response.avg_ms() < 10.0,
            "{} avg RT {} ms too high in a healthy system",
            policy.name(),
            r.telemetry.response.avg_ms()
        );
    }
}

#[test]
fn healthy_system_distributes_load_evenly() {
    let r = run_no_mb(PolicyKind::TotalRequest, MechanismKind::Original);
    // Assignments from Apache 1 across the two smoke Tomcats must be
    // within a few percent of each other.
    let totals: Vec<u64> = r.telemetry.distribution.iter().map(|c| c.total()).collect();
    let max = *totals.iter().max().unwrap() as f64;
    let min = *totals.iter().min().unwrap() as f64;
    assert!(min > 0.0, "every backend must receive work");
    assert!(
        (max - min) / max < 0.05,
        "uneven distribution in a healthy system: {totals:?}"
    );
}

#[test]
fn throughput_is_preserved_by_the_remedies() {
    // The remedies must not pay for tail latency with throughput.
    let unstable = run(PolicyKind::TotalRequest, MechanismKind::Original);
    let remedied = run(PolicyKind::CurrentLoad, MechanismKind::Original);
    assert!(
        remedied.telemetry.response.total() as f64
            >= unstable.telemetry.response.total() as f64 * 0.98,
        "remedy lost throughput: {} vs {}",
        remedied.telemetry.response.total(),
        unstable.telemetry.response.total()
    );
}
