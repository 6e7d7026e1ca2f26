//! The allocation-free steady state, end to end: after warmup the
//! request arena and the wheel's node arena serve every insert off a
//! free list, so fresh growth stops. This is the invariant the packed
//! event-queue storage exists to protect — growth during the measured
//! window means realloc churn on the hot path, which is exactly the
//! pathology that collapsed the 64× sweep.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::system::NTierSystem;
use mlb_simkernel::queue::QueueKind;
use mlb_simkernel::sim::Simulation;
use mlb_simkernel::time::{SimDuration, SimTime};

fn paper_cfg(kind: QueueKind) -> SystemConfig {
    let mut cfg = SystemConfig::paper_4x4(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.duration = SimDuration::from_secs(2);
    cfg.seed = 7;
    cfg.queue = kind;
    cfg
}

/// (total inserts, second-half fresh allocations) across the request
/// arena and (on the wheel) the node arena.
fn halves(kind: QueueKind) -> (u64, u64) {
    let mut sim: Simulation<NTierSystem> =
        NTierSystem::build_simulation(paper_cfg(kind)).expect("paper preset is valid");
    sim.run_until(SimTime::from_micros(1_000_000));
    let mid = sim.model().arena_stats().allocs + sim.wheel_stats().map_or(0, |w| w.node_allocs);
    sim.run_until(SimTime::from_micros(2_000_000));
    let arena = sim.model().arena_stats();
    let wheel = sim.wheel_stats();
    let end = arena.allocs + wheel.map_or(0, |w| w.node_allocs);
    let inserts = arena.allocs + arena.reuses + wheel.map_or(0, |w| w.node_allocs + w.node_reuses);
    (inserts, end - mid)
}

#[test]
fn paper_4x4_second_half_allocates_nothing_fresh() {
    for kind in [QueueKind::Wheel, QueueKind::Heap] {
        let (inserts, second_half) = halves(kind);
        assert!(inserts > 0, "{kind:?}: the run must exercise the arenas");
        // Arena growth tracks *peak liveness*, not insert volume, so the
        // steady state recycles virtually every insert. The gauge is
        // fresh second-half slots as a fraction of all inserts: a broken
        // free list allocates per insert (~50% lands in the second
        // half); a healthy one shows only stochastic extreme-value creep
        // of the liveness peak (orders of magnitude below 1%).
        assert!(
            second_half as f64 <= inserts as f64 * 0.01,
            "{kind:?}: {second_half} fresh slots in the second half of {inserts} inserts"
        );
    }
}

#[test]
fn paper_4x4_steady_state_recycles_on_both_arenas() {
    let mut sim: Simulation<NTierSystem> =
        NTierSystem::build_simulation(paper_cfg(QueueKind::Wheel)).expect("paper preset is valid");
    sim.run_until(SimTime::from_micros(2_000_000));
    let arena = sim.model().arena_stats();
    assert!(arena.reuses > 0, "request arena never recycled a slot");
    assert!(
        arena.allocs <= arena.peak_live + 1,
        "request arena grew ({}) past peak liveness ({})",
        arena.allocs,
        arena.peak_live
    );
    let wheel = sim.wheel_stats().expect("wheel backend");
    assert!(wheel.node_reuses > 0, "wheel node arena never recycled");
    assert_eq!(
        wheel.node_allocs, wheel.node_peak_live,
        "wheel node arena grew past peak liveness"
    );
}
