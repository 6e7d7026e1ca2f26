//! Configuration-fuzzing property tests: arbitrary (small) topologies and
//! balancer settings must never panic, must conserve requests, and must
//! stay deterministic.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_netmodel::link::Link;
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_ntier::system::NTierSystem;
use mlb_osmodel::machine::{GcConfig, MachineConfig};
use mlb_osmodel::pagecache::PageCacheConfig;
use mlb_simkernel::time::SimDuration;
use mlb_workload::clients::ClientPopulation;
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    let all: Vec<PolicyKind> = PolicyKind::all_extended()
        .into_iter()
        .chain(PolicyKind::baselines())
        .collect();
    proptest::sample::select(all)
}

fn mechanism_strategy() -> impl Strategy<Value = MechanismKind> {
    prop_oneof![
        Just(MechanismKind::Original),
        Just(MechanismKind::SkipToBusy),
        Just(MechanismKind::ProbeFirst),
    ]
}

#[derive(Debug, Clone)]
struct FuzzConfig {
    apaches: usize,
    tomcats: usize,
    clients: usize,
    think_ms: u64,
    workers: usize,
    accept_q: usize,
    pool: usize,
    policy: PolicyKind,
    mechanism: MechanismKind,
    seed: u64,
    flush_interval_ms: u64,
    gc: bool,
    sticky: bool,
    feedback: bool,
}

fn fuzz_strategy() -> impl Strategy<Value = FuzzConfig> {
    (
        (1usize..3, 1usize..4, 50usize..600),
        (50u64..2_000, 2usize..40, 1usize..64),
        (1usize..30, policy_strategy(), mechanism_strategy()),
        (any::<u64>(), 300u64..3_000, any::<bool>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                (apaches, tomcats, clients),
                (think_ms, workers, accept_q),
                (pool, policy, mechanism),
                (seed, flush_interval_ms, gc),
                (sticky, feedback),
            )| FuzzConfig {
                apaches,
                tomcats,
                clients,
                think_ms,
                workers,
                accept_q,
                pool,
                policy,
                mechanism,
                seed,
                flush_interval_ms,
                gc,
                sticky,
                feedback,
            },
        )
}

fn build(f: &FuzzConfig) -> SystemConfig {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(f.policy, f.mechanism));
    cfg.apaches = f.apaches;
    cfg.tomcats = f.tomcats;
    cfg.apache_workers = f.workers;
    cfg.apache_accept_queue = f.accept_q;
    cfg.pool_size = f.pool;
    cfg.population =
        ClientPopulation::new(f.clients, SimDuration::from_millis(f.think_ms), f.apaches);
    cfg.seed = f.seed;
    cfg.link = Link::lan_1gbps();
    cfg.tomcat_machine = MachineConfig {
        cores: 2,
        disk_write_bandwidth: 8 * 1024 * 1024,
        page_cache: Some(PageCacheConfig {
            dirty_background_bytes: 512 * 1024,
            dirty_hard_limit_bytes: 64 * 1024 * 1024,
            flush_interval: SimDuration::from_millis(f.flush_interval_ms),
        }),
        gc: f.gc.then_some(GcConfig {
            period: SimDuration::from_millis(2_500),
            pause: SimDuration::from_millis(120),
        }),
    };
    if f.sticky {
        cfg.balancer.sticky_sessions = true;
        // A small budget exercises abandonment, not just the pin path.
        cfg.balancer.sticky_violation_budget = (f.seed % 4) as u32;
    }
    if f.feedback {
        cfg.metrics = mlb_ntier::metrics::MetricsConfig::enabled_default();
        cfg.detector_feedback = true;
    }
    cfg.duration = SimDuration::from_secs(3);
    cfg
}

/// One machine for the `validate` fuzz: zero cores, zero disk bandwidth,
/// page-cache thresholds in either order and GC pauses longer than their
/// period are all drawn on purpose.
fn machine_strategy() -> impl Strategy<Value = MachineConfig> {
    (
        (
            0usize..5,
            proptest::sample::select(vec![0u64, 1 << 20, 10 << 20, 100 << 20]),
        ),
        (any::<bool>(), 0u64..(1 << 20), 0u64..(4 << 20), 0u64..3_000),
        (any::<bool>(), 0u64..3_000, 0u64..600),
    )
        .prop_map(
            |(
                (cores, disk_write_bandwidth),
                (pc, background, hard, flush_ms),
                (gc, period_ms, pause_ms),
            )| {
                MachineConfig {
                    cores,
                    disk_write_bandwidth,
                    page_cache: pc.then_some(PageCacheConfig {
                        dirty_background_bytes: background,
                        dirty_hard_limit_bytes: hard,
                        flush_interval: SimDuration::from_millis(flush_ms),
                    }),
                    gc: gc.then_some(GcConfig {
                        period: SimDuration::from_millis(period_ms),
                        pause: SimDuration::from_millis(pause_ms),
                    }),
                }
            },
        )
}

/// A `smoke`-derived config with small, bounded, possibly invalid fields.
fn validate_fuzz_strategy() -> impl Strategy<Value = SystemConfig> {
    (
        (
            1usize..4,
            1usize..4,
            policy_strategy(),
            mechanism_strategy(),
            any::<u64>(),
        ),
        (0usize..9, 0usize..9, 0usize..9, 0usize..9, 0usize..9),
        (machine_strategy(), machine_strategy(), machine_strategy()),
    )
        .prop_map(
            |(
                (apaches, tomcats, policy, mechanism, seed),
                (workers, threads, accept_q, pool, db_pool),
                (apache_machine, tomcat_machine, mysql_machine),
            )| {
                let mut cfg = SystemConfig::smoke(BalancerConfig::with(policy, mechanism));
                cfg.apaches = apaches;
                cfg.tomcats = tomcats;
                cfg.apache_workers = workers;
                cfg.tomcat_threads = threads;
                cfg.apache_accept_queue = accept_q;
                cfg.pool_size = pool;
                cfg.db_pool_per_tomcat = db_pool;
                cfg.apache_machine = apache_machine;
                cfg.tomcat_machine = tomcat_machine;
                cfg.mysql_machine = mysql_machine;
                cfg.population = ClientPopulation::new(60, SimDuration::from_millis(400), apaches);
                cfg.seed = seed;
                cfg.duration = SimDuration::from_secs(1);
                cfg
            },
        )
}

/// issued = completed + failed + in flight.
fn conserves_requests(r: &ExperimentResult) -> bool {
    r.requests_issued
        == r.telemetry.response.total() + r.telemetry.failed_requests + r.inflight_at_end as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `SystemConfig::validate` is the only gate: a config it accepts
    /// runs to its horizon without a panic and conserves requests, and
    /// one it rejects makes `NTierSystem::new` return `Err`, not panic.
    #[test]
    fn validate_accepts_exactly_the_configs_that_run(cfg in validate_fuzz_strategy()) {
        match cfg.validate() {
            Ok(()) => {
                let r = run_experiment(cfg.clone()).expect("a validated config builds");
                prop_assert!(conserves_requests(&r), "{:?}", cfg);
            }
            Err(_) => prop_assert!(NTierSystem::new(cfg).is_err()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fuzzed configuration runs to the horizon without panicking and
    /// conserves requests exactly.
    #[test]
    fn fuzzed_configs_conserve_requests(f in fuzz_strategy()) {
        let r = run_experiment(build(&f)).expect("fuzzed config is valid");
        let accounted = r.telemetry.response.total()
            + r.telemetry.failed_requests
            + r.inflight_at_end as u64;
        prop_assert_eq!(
            r.requests_issued,
            accounted,
            "{:?}: issued != completed + failed + inflight",
            f
        );
        // Telemetry internal consistency.
        prop_assert_eq!(
            r.telemetry.response.vlrt_count(),
            r.telemetry.vlrt_per_window.total()
        );
        prop_assert!(r.telemetry.retransmits <= r.telemetry.drops);
    }

    /// Any fuzzed configuration is bit-for-bit reproducible.
    #[test]
    fn fuzzed_configs_are_deterministic(f in fuzz_strategy()) {
        let a = run_experiment(build(&f)).expect("valid");
        let b = run_experiment(build(&f)).expect("valid");
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.telemetry.response.total(), b.telemetry.response.total());
        prop_assert_eq!(a.telemetry.drops, b.telemetry.drops);
        prop_assert_eq!(
            a.telemetry.histogram.buckets(),
            b.telemetry.histogram.buckets()
        );
    }

    /// The sticky violation counter matches a ground truth recomputed
    /// from the same operation script by an independent reference model.
    #[test]
    fn sticky_violations_match_recomputed_ground_truth(
        clients in 1usize..6,
        budget in 0u32..5,
        // (client, backend, is_violation) operations.
        ops in proptest::collection::vec((0usize..6, 0usize..4, any::<bool>()), 0..80),
    ) {
        use mlb_ntier::SessionAffinity;

        let mut affinity = SessionAffinity::new(clients, budget);
        // Reference model: plain vectors, written independently of the
        // SessionAffinity implementation.
        let mut ref_pins: Vec<Option<usize>> = vec![None; clients];
        let mut ref_budget: Vec<u64> = vec![u64::from(budget); clients];
        let mut ref_violations: u64 = 0;

        for (client, backend, violate) in ops {
            let client = client % clients;
            if violate {
                // The routing path only fails over *pinned* clients; an
                // unpinned client cannot violate.
                if ref_pins[client].is_some() {
                    affinity.record_violation(client);
                    ref_pins[client] = None;
                    ref_violations += 1;
                    ref_budget[client] = ref_budget[client].saturating_sub(1);
                }
            } else {
                affinity.record_service(client, backend);
                if ref_budget[client] > 0 {
                    ref_pins[client] = Some(backend);
                }
            }
            for c in 0..clients {
                prop_assert_eq!(affinity.pin_of(c), ref_pins[c], "pin of client {}", c);
                prop_assert_eq!(
                    affinity.abandoned(c),
                    ref_budget[c] == 0,
                    "abandonment of client {}",
                    c
                );
            }
        }
        prop_assert_eq!(affinity.violations(), ref_violations);
    }

    /// Sticky routing with an unlimited budget completes the same requests
    /// as it did before violation accounting existed, and its reported
    /// violation count is deterministic.
    #[test]
    fn sticky_experiments_report_deterministic_violations(seed in any::<u64>()) {
        let mut cfg = SystemConfig::smoke(BalancerConfig::with(
            PolicyKind::CurrentLoad,
            MechanismKind::Original,
        ));
        cfg.balancer.sticky_sessions = true;
        cfg.seed = seed;
        cfg.duration = SimDuration::from_secs(3);
        let a = run_experiment(cfg.clone()).expect("valid");
        let b = run_experiment(cfg).expect("valid");
        prop_assert_eq!(a.sticky_violations, b.sticky_violations);
        prop_assert_eq!(a.events_processed, b.events_processed);
    }
}
