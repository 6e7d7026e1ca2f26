//! End-to-end tests of the extension features: the probing mechanism, the
//! GC millibottleneck source, and the extended policy spectrum.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_osmodel::machine::{GcConfig, MachineConfig};
use mlb_osmodel::pagecache::PageCacheConfig;
use mlb_simkernel::time::SimDuration;

fn smoke(policy: PolicyKind, mech: MechanismKind) -> ExperimentResult {
    run_experiment(SystemConfig::smoke(BalancerConfig::with(policy, mech)))
        .expect("smoke config is valid")
}

/// Smoke config with GC pauses instead of dirty-page flushing.
fn smoke_gc(policy: PolicyKind, mech: MechanismKind) -> ExperimentResult {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(policy, mech));
    cfg.tomcat_machine = MachineConfig {
        cores: 2,
        disk_write_bandwidth: 10 * 1024 * 1024,
        page_cache: Some(PageCacheConfig::effectively_disabled()),
        gc: Some(GcConfig {
            period: SimDuration::from_secs(3),
            pause: SimDuration::from_millis(220),
        }),
    };
    run_experiment(cfg).expect("smoke gc config is valid")
}

#[test]
fn probe_mechanism_eliminates_the_instability() {
    let unstable = smoke(PolicyKind::TotalRequest, MechanismKind::Original);
    let probed = smoke(PolicyKind::TotalRequest, MechanismKind::ProbeFirst);
    assert!(probed.total_millibottlenecks() > 0);
    assert!(
        probed.telemetry.response.avg_ms() * 1.5 < unstable.telemetry.response.avg_ms(),
        "probing ({:.2} ms) must beat the original mechanism ({:.2} ms)",
        probed.telemetry.response.avg_ms(),
        unstable.telemetry.response.avg_ms()
    );
    assert!(
        probed.telemetry.drops * 2 < unstable.telemetry.drops.max(1),
        "probing must collapse the drop count ({} vs {})",
        probed.telemetry.drops,
        unstable.telemetry.drops
    );
}

#[test]
fn probe_mechanism_pays_a_small_latency_tax_when_healthy() {
    let mut plain = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::CurrentLoad,
        MechanismKind::Original,
    ));
    plain.tomcat_machine.page_cache = Some(PageCacheConfig::effectively_disabled());
    let mut probed = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::CurrentLoad,
        MechanismKind::ProbeFirst,
    ));
    probed.tomcat_machine.page_cache = Some(PageCacheConfig::effectively_disabled());
    let plain = run_experiment(plain).unwrap();
    let probed = run_experiment(probed).unwrap();
    let tax = probed.telemetry.response.avg_ms() - plain.telemetry.response.avg_ms();
    assert!(tax > 0.0, "a probe round trip cannot be free");
    assert!(
        tax < 1.5,
        "probe tax {tax:.2} ms is more than a couple of link RTTs"
    );
}

#[test]
fn probe_timeouts_do_not_blacklist_healthy_servers() {
    // The failure-burst regression test: simultaneous probe timeouts
    // during one millibottleneck must not escalate a server to Error
    // (which would take it out for 60 s and collapse capacity).
    let r = smoke(PolicyKind::TotalRequest, MechanismKind::ProbeFirst);
    // Every Tomcat must keep receiving work in the steady state: compare
    // per-backend completions from Apache 1's balancer view.
    let totals: Vec<u64> = r.telemetry.distribution.iter().map(|c| c.total()).collect();
    let min = *totals.iter().min().unwrap();
    let max = *totals.iter().max().unwrap();
    assert!(min > 0, "a backend went dark: {totals:?}");
    assert!(
        (max - min) as f64 / max as f64 * 100.0 < 25.0,
        "long-run distribution too skewed (a server was blacklisted): {totals:?}"
    );
}

#[test]
fn gc_pauses_cause_the_same_instability() {
    let r = smoke_gc(PolicyKind::TotalRequest, MechanismKind::Original);
    assert!(
        r.total_millibottlenecks() >= 4,
        "GC must fire (got {})",
        r.total_millibottlenecks()
    );
    assert!(r.telemetry.drops > 0, "GC freezes must overflow queues");
    assert!(r.telemetry.response.vlrt_count() > 0);
}

#[test]
fn gc_instability_is_fixed_by_the_same_remedies() {
    let unstable = smoke_gc(PolicyKind::TotalRequest, MechanismKind::Original);
    let policy_fix = smoke_gc(PolicyKind::CurrentLoad, MechanismKind::Original);
    let mech_fix = smoke_gc(PolicyKind::TotalRequest, MechanismKind::SkipToBusy);
    assert!(
        policy_fix.telemetry.response.avg_ms() * 2.0 < unstable.telemetry.response.avg_ms(),
        "current_load must fix GC millibottlenecks too ({:.2} vs {:.2} ms)",
        policy_fix.telemetry.response.avg_ms(),
        unstable.telemetry.response.avg_ms()
    );
    assert!(
        mech_fix.telemetry.response.avg_ms() * 1.5 < unstable.telemetry.response.avg_ms(),
        "modified get_endpoint must fix GC millibottlenecks too ({:.2} vs {:.2} ms)",
        mech_fix.telemetry.response.avg_ms(),
        unstable.telemetry.response.avg_ms()
    );
}

#[test]
fn policy_spectrum_orders_as_predicted() {
    // current-state policies ≺ random ≺ history-ranked policies.
    let tr = smoke(PolicyKind::TotalRequest, MechanismKind::Original);
    let rr = smoke(PolicyKind::RoundRobin, MechanismKind::Original);
    let rnd = smoke(PolicyKind::Random, MechanismKind::Original);
    let cl = smoke(PolicyKind::CurrentLoad, MechanismKind::Original);
    let c3 = smoke(PolicyKind::C3, MechanismKind::Original);

    let avg = |r: &ExperimentResult| r.telemetry.response.avg_ms();
    assert!(
        avg(&cl) < avg(&rnd) && avg(&c3) < avg(&rnd),
        "current-state policies must beat random ({:.2}/{:.2} vs {:.2})",
        avg(&cl),
        avg(&c3),
        avg(&rnd)
    );
    assert!(
        avg(&rnd) < avg(&tr),
        "random must beat the pile-on policy ({:.2} vs {:.2})",
        avg(&rnd),
        avg(&tr)
    );
    assert!(
        avg(&rr) < avg(&tr) * 1.5,
        "round_robin should be in the unstable league ({:.2} vs {:.2})",
        avg(&rr),
        avg(&tr)
    );
}

#[test]
fn weighted_balancing_respects_capacity_in_a_hetero_cluster() {
    // One of the two smoke Tomcats has half the cores; lbfactor 2:1 must
    // produce a ~2:1 assignment split under the counting policy.
    let mut bal = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original);
    bal.weights = Some(vec![2, 1]);
    let mut cfg = SystemConfig::smoke(bal);
    let full = cfg.tomcat_machine.clone();
    let weak = MachineConfig {
        cores: 1,
        ..cfg.tomcat_machine.clone()
    };
    cfg.tomcat_machines = Some(vec![full, weak]);
    // Disable flushing so only the static capacity difference matters.
    for m in cfg.tomcat_machines.as_mut().unwrap() {
        m.page_cache = Some(PageCacheConfig::effectively_disabled());
    }
    let r = run_experiment(cfg).unwrap();
    let a = r.telemetry.distribution[0].total() as f64;
    let b = r.telemetry.distribution[1].total() as f64;
    let ratio = a / b.max(1.0);
    assert!(
        (1.8..2.2).contains(&ratio),
        "expected ~2:1 weighted split, got {a}:{b} ({ratio:.2})"
    );
}

#[test]
fn current_load_adapts_to_heterogeneity_without_weights() {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::CurrentLoad,
        MechanismKind::Original,
    ));
    let full = cfg.tomcat_machine.clone();
    let weak = MachineConfig {
        cores: 1,
        ..cfg.tomcat_machine.clone()
    };
    cfg.tomcat_machines = Some(vec![full, weak]);
    for m in cfg.tomcat_machines.as_mut().unwrap() {
        m.page_cache = Some(PageCacheConfig::effectively_disabled());
    }
    // Outstanding counts only diverge once the weak node queues: push the
    // offered load until the 1-core Tomcat runs near saturation.
    cfg.population =
        mlb_workload::clients::ClientPopulation::new(3_000, SimDuration::from_millis(1_200), 2);
    let r = run_experiment(cfg).unwrap();
    // The weak backend must receive measurably less work, with no manual
    // weights, and the system must stay healthy.
    let strong = r.telemetry.distribution[0].total() as f64;
    let weak_n = r.telemetry.distribution[1].total() as f64;
    assert!(
        strong > weak_n * 1.05,
        "current_load should shift load off the weak node ({strong} vs {weak_n})"
    );
    assert!(r.telemetry.response.avg_ms() < 10.0);
    assert_eq!(r.telemetry.drops, 0);
}

#[test]
fn mismatched_weights_are_rejected() {
    let mut bal = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original);
    bal.weights = Some(vec![1, 2, 3]); // smoke has 2 tomcats
    let cfg = SystemConfig::smoke(bal);
    assert!(run_experiment(cfg).is_err());
}

#[test]
fn ewma_latency_inherits_the_instability() {
    let ewma = smoke(PolicyKind::LeastEwmaLatency, MechanismKind::Original);
    let cl = smoke(PolicyKind::CurrentLoad, MechanismKind::Original);
    assert!(
        ewma.telemetry.response.avg_ms() > cl.telemetry.response.avg_ms() * 1.5,
        "ewma_latency ({:.2} ms) should lag well behind current_load ({:.2} ms)",
        ewma.telemetry.response.avg_ms(),
        cl.telemetry.response.avg_ms()
    );
}

#[test]
fn c3_matches_current_load_under_millibottlenecks() {
    let c3 = smoke(PolicyKind::C3, MechanismKind::Original);
    let cl = smoke(PolicyKind::CurrentLoad, MechanismKind::Original);
    let a = c3.telemetry.response.avg_ms();
    let b = cl.telemetry.response.avg_ms();
    assert!(
        (a - b).abs() / b.max(a) < 0.3,
        "c3 ({a:.2} ms) and current_load ({b:.2} ms) should be peers"
    );
}

#[test]
fn extended_policies_balance_evenly_when_healthy() {
    for policy in [PolicyKind::RoundRobin, PolicyKind::Random, PolicyKind::C3] {
        let mut cfg = SystemConfig::smoke(BalancerConfig::with(policy, MechanismKind::Original));
        cfg.tomcat_machine.page_cache = Some(PageCacheConfig::effectively_disabled());
        let r = run_experiment(cfg).unwrap();
        assert_eq!(
            r.telemetry.drops,
            0,
            "{} dropped packets in a healthy system",
            policy.name()
        );
        let totals: Vec<u64> = r.telemetry.distribution.iter().map(|c| c.total()).collect();
        let min = *totals.iter().min().unwrap() as f64;
        let max = *totals.iter().max().unwrap() as f64;
        assert!(
            (max - min) / max < 0.10,
            "{} distributes unevenly when healthy: {totals:?}",
            policy.name()
        );
    }
}

#[test]
fn ewma_latency_herds_even_when_healthy() {
    // Min-EWMA selection is sticky: whichever backend's average dips
    // first receives the bulk of the traffic (the classic least-latency
    // herding problem). The system still works — homogeneous backends at
    // moderate load absorb the skew — but the distribution is visibly
    // uneven. This is a property of the policy, not of the simulator.
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::LeastEwmaLatency,
        MechanismKind::Original,
    ));
    cfg.tomcat_machine.page_cache = Some(PageCacheConfig::effectively_disabled());
    let r = run_experiment(cfg).unwrap();
    assert_eq!(r.telemetry.drops, 0);
    assert!(r.telemetry.response.avg_ms() < 10.0);
    let totals: Vec<u64> = r.telemetry.distribution.iter().map(|c| c.total()).collect();
    let min = *totals.iter().min().unwrap() as f64;
    let max = *totals.iter().max().unwrap() as f64;
    assert!(
        (max - min) / max > 0.10,
        "expected herding skew under min-EWMA selection, got {totals:?}"
    );
}

#[test]
fn sticky_sessions_pin_clients_and_bound_both_policies() {
    let run_sticky = |policy| {
        let mut bal = BalancerConfig::with(policy, MechanismKind::Original);
        bal.sticky_sessions = true;
        run_experiment(SystemConfig::smoke(bal)).unwrap()
    };
    let tr_sticky = run_sticky(PolicyKind::TotalRequest);
    let cl_sticky = run_sticky(PolicyKind::CurrentLoad);
    let tr_free = smoke(PolicyKind::TotalRequest, MechanismKind::Original);
    let cl_free = smoke(PolicyKind::CurrentLoad, MechanismKind::Original);

    // Affinity bypasses the policy, so both sticky variants converge:
    // total_request improves (no pile-on), current_load degrades (pinned
    // clients wait out freezes in place).
    assert!(
        tr_sticky.telemetry.response.avg_ms() < tr_free.telemetry.response.avg_ms(),
        "sticky should cap total_request's pile-on ({:.2} vs {:.2} ms)",
        tr_sticky.telemetry.response.avg_ms(),
        tr_free.telemetry.response.avg_ms()
    );
    assert!(
        cl_sticky.telemetry.response.avg_ms() > cl_free.telemetry.response.avg_ms(),
        "sticky should dilute current_load's remedy ({:.2} vs {:.2} ms)",
        cl_sticky.telemetry.response.avg_ms(),
        cl_free.telemetry.response.avg_ms()
    );
    // And the two sticky variants should be in the same league.
    let a = tr_sticky.telemetry.response.avg_ms();
    let b = cl_sticky.telemetry.response.avg_ms();
    assert!(
        a / b < 4.0 && b / a < 4.0,
        "sticky variants should converge (policy is bypassed): {a:.2} vs {b:.2} ms"
    );
}

#[test]
fn sticky_sessions_keep_request_conservation() {
    let mut bal = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original);
    bal.sticky_sessions = true;
    let r = run_experiment(SystemConfig::smoke(bal)).unwrap();
    let accounted =
        r.telemetry.response.total() + r.telemetry.failed_requests + r.inflight_at_end as u64;
    assert_eq!(r.requests_issued, accounted);
}
