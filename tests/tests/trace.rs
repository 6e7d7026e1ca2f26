//! The per-request trace subsystem, exercised end to end: segment sums
//! must tie out against [`PhaseBreakdown`], VLRTs must attribute to the
//! network/routing path the paper blames, and tracing must never perturb
//! the simulation it observes.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_metrics::spans::{Segment, SpanKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_ntier::trace::TraceConfig;
use mlb_ntier::NTierSystem;
use mlb_simkernel::time::{SimDuration, SimTime};

/// Tracing that keeps every trace in the ring, for the checks that walk
/// all of them.
fn full_retention() -> TraceConfig {
    TraceConfig {
        recent_capacity: 1 << 20,
        ..TraceConfig::enabled_default()
    }
}

fn run_traced(trace: TraceConfig, policy: PolicyKind, mech: MechanismKind) -> ExperimentResult {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(policy, mech));
    cfg.trace = trace;
    run_experiment(cfg).expect("smoke config is valid")
}

fn traced_smoke(policy: PolicyKind, mech: MechanismKind) -> ExperimentResult {
    run_traced(TraceConfig::enabled_default(), policy, mech)
}

#[test]
fn every_retained_trace_partitions_its_response_time() {
    let r = run_traced(
        full_retention(),
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    );
    let log = r.trace.expect("tracing was enabled");
    assert!(log.completed > 1_000, "too few completed traces to check");
    assert_eq!(log.recent().count() as u64, log.completed + log.failed);
    let pairs = log.segment_sum_pairs();
    assert!(!pairs.is_empty());
    for (sum_us, rt_us) in pairs {
        assert_eq!(
            sum_us, rt_us,
            "segment sum {sum_us}µs != response time {rt_us}µs"
        );
    }
}

#[test]
fn trace_segment_totals_tie_out_against_phase_breakdown() {
    // The tracer derives its six segments from the span events, the
    // telemetry derives the same six from the request's timestamp chain.
    // With a ring large enough to retain every completed trace, the two
    // accountings must agree to the microsecond.
    let r = run_traced(
        full_retention(),
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    );
    let log = r.trace.expect("tracing was enabled");
    assert_eq!(log.recent().count() as u64, log.completed + log.failed);
    let b = &r.telemetry.phase_breakdown;
    let mut totals = [0u64; 6];
    let mut counted = 0u64;
    for trace in log.recent() {
        if let Some(segments) = trace.segments_us() {
            counted += 1;
            for (t, s) in totals.iter_mut().zip(segments) {
                *t += s;
            }
        }
    }
    assert_eq!(counted, b.count, "trace/breakdown completed-request counts");
    let breakdown_totals = [
        b.retransmit_wait_us,
        b.apache_admission_us,
        b.apache_cpu_us,
        b.routing_us,
        b.backend_us,
        b.response_us,
    ];
    assert_eq!(
        totals, breakdown_totals,
        "per-segment µs totals diverge between traces and PhaseBreakdown"
    );
}

#[test]
fn vlrts_under_the_unstable_policy_attribute_to_retransmit_or_routing() {
    // The paper's diagnosis: VLRTs under the original total_request
    // policy come from the network path (drop → retransmit wait) or from
    // routing stuck polling an exhausted pool — not from backend work.
    let r = traced_smoke(PolicyKind::TotalRequest, MechanismKind::Original);
    let log = r.trace.expect("tracing was enabled");
    assert!(
        log.summary.vlrt_total >= 10,
        "only {} VLRTs; run too calm to attribute",
        log.summary.vlrt_total
    );
    let share = log.summary.network_or_routing_share();
    assert!(
        share >= 0.9,
        "only {:.1}% of {} VLRTs attributed to retransmit wait/routing",
        share * 100.0,
        log.summary.vlrt_total
    );
}

#[test]
fn vlrt_chains_reconstruct_the_drop_retransmit_path() {
    // At least one reconstructed VLRT chain must show the full causal
    // story: a dropped transmission, a scheduled retransmission, and an
    // overlapping millibottleneck window.
    let r = traced_smoke(PolicyKind::TotalRequest, MechanismKind::Original);
    let log = r.trace.expect("tracing was enabled");
    let full_chain = log.vlrt_causes().iter().find(|c| {
        c.dominant == Segment::RetransmitWait
            && c.stall.is_some()
            && c.trace
                .events
                .iter()
                .any(|e| matches!(e.kind, SpanKind::Dropped { .. }))
            && c.trace
                .events
                .iter()
                .any(|e| matches!(e.kind, SpanKind::RetransmitScheduled { .. }))
    });
    let cause = full_chain.expect("no VLRT chain shows drop -> retransmit -> stall overlap");
    // And the rendered chain must narrate every link for the report.
    let rendered = cause.render(&log.stalls);
    for needle in ["dropped", "retransmit", "vlrt"] {
        assert!(
            rendered.to_lowercase().contains(needle),
            "rendered chain is missing {needle:?}:\n{rendered}"
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Tracing is purely observational: the traced and untraced runs of
    // the same configuration must be event-for-event identical.
    let traced = traced_smoke(PolicyKind::TotalRequest, MechanismKind::Original);
    let plain = run_experiment(SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    )))
    .expect("smoke config is valid");
    assert!(plain.trace.is_none());
    assert_eq!(traced.events_processed, plain.events_processed);
    assert_eq!(
        traced.telemetry.response.total(),
        plain.telemetry.response.total()
    );
    assert_eq!(traced.telemetry.drops, plain.telemetry.drops);
    assert_eq!(traced.telemetry.retransmits, plain.telemetry.retransmits);
    assert_eq!(
        traced.telemetry.histogram.buckets(),
        plain.telemetry.histogram.buckets()
    );
    assert_eq!(traced.apache_drops, plain.apache_drops);
    assert_eq!(traced.tomcat_queue_peaks, plain.tomcat_queue_peaks);
}

#[test]
fn skip_to_busy_remedy_reduces_routing_dominated_vlrts() {
    // The modified get_endpoint stops requests from camping on an
    // exhausted pool, so routing-dominated VLRTs must not increase.
    let original = traced_smoke(PolicyKind::TotalRequest, MechanismKind::Original);
    let fixed = traced_smoke(PolicyKind::TotalRequest, MechanismKind::SkipToBusy);
    let o = original.trace.expect("tracing was enabled");
    let f = fixed.trace.expect("tracing was enabled");
    assert!(
        f.summary.vlrt_total <= o.summary.vlrt_total,
        "remedy produced more VLRTs ({} vs {})",
        f.summary.vlrt_total,
        o.summary.vlrt_total
    );
}

#[test]
fn default_retention_is_bounded_whatever_the_horizon() {
    // The default log keeps no ring: only the VLRT chains (capped), the
    // stall windows and the summary, however long the run. Attribution
    // still counts every VLRT, and the traced run replays the untraced
    // one exactly.
    let defaults = TraceConfig::enabled_default();
    assert_eq!(defaults.recent_capacity, 0);
    for secs in [10, 20] {
        let run = |trace: TraceConfig| {
            let mut cfg = SystemConfig::smoke(BalancerConfig::with(
                PolicyKind::TotalRequest,
                MechanismKind::Original,
            ));
            cfg.duration = SimDuration::from_secs(secs);
            cfg.trace = trace;
            run_experiment(cfg).expect("smoke config is valid")
        };
        let traced = run(defaults.clone());
        let plain = run(TraceConfig::disabled());
        let log = traced.trace.expect("tracing was enabled");
        assert!(log.completed > 4_096, "{secs} s: run too short");
        assert_eq!(log.recent().count(), 0, "{secs} s: ring size");
        assert!(log.vlrt_causes().len() <= defaults.vlrt_capacity);
        assert!(log.summary.vlrt_total > 0, "{secs} s: no VLRTs to count");
        assert_eq!(
            log.summary.vlrt_total,
            plain.telemetry.response.vlrt_count(),
            "{secs} s: attribution missed VLRTs"
        );
        assert_eq!(log.completed, plain.telemetry.response.total());
        assert_eq!(log.failed, plain.telemetry.failed_requests);
        assert_eq!(traced.events_processed, plain.events_processed);
    }
}

/// A small chain cap, so smoke runs pass the timeline cutoff early.
const FEW_CHAINS: usize = 64;

fn smoke_at(seed: u64, trace: TraceConfig) -> SystemConfig {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.seed = seed;
    cfg.trace = trace;
    cfg
}

#[test]
fn the_timeline_cutoff_loses_nothing() {
    // With no ring, timelines stop once the VLRT chains are full. A run
    // that traces every request (a ring larger than the run, same chain
    // cap) must read the same counts, summary, chains and stalls.
    for seed in [7u64, 8, 42] {
        for every in [1u64, 3] {
            let cut = TraceConfig {
                recent_capacity: 0,
                vlrt_capacity: FEW_CHAINS,
                sample_every: every,
                ..TraceConfig::enabled_default()
            };
            let full = TraceConfig {
                recent_capacity: 1 << 20,
                ..cut.clone()
            };
            let what = format!("seed {seed}, 1 in {every}");
            let a = run_experiment(smoke_at(seed, cut))
                .expect("smoke config is valid")
                .trace
                .expect("tracing was enabled");
            let b = run_experiment(smoke_at(seed, full))
                .expect("smoke config is valid")
                .trace
                .expect("tracing was enabled");
            assert_eq!(b.recent().count() as u64, b.completed + b.failed);
            assert_eq!(a.vlrt_causes().len(), FEW_CHAINS, "{what}: chains not full");
            assert!(
                a.summary.vlrt_total > FEW_CHAINS as u64,
                "{what}: the cutoff never fired"
            );
            assert_eq!(a.completed, b.completed, "{what}: completed");
            assert_eq!(a.failed, b.failed, "{what}: failed");
            assert_eq!(a.summary, b.summary, "{what}: summary");
            assert_eq!(a.stalls, b.stalls, "{what}: stall windows");
            assert_eq!(a.vlrt_causes().len(), b.vlrt_causes().len());
            for (x, y) in a.vlrt_causes().iter().zip(b.vlrt_causes()) {
                let id = x.trace.id;
                assert_eq!(x.trace, y.trace, "{what}: chain {id} id or events");
                assert_eq!(x.segments_us, y.segments_us, "{what}: chain {id}");
                assert_eq!(x.dominant, y.dominant, "{what}: chain {id}");
                assert_eq!(x.stall, y.stall, "{what}: chain {id}");
                assert_eq!(x.overlap, y.overlap, "{what}: chain {id}");
            }
        }
    }
}

#[test]
fn chain_segments_from_milestones_match_their_events() {
    // Each chain's segments come from the request's milestones; its
    // timeline must re-derive them exactly. (Every traced completion is
    // also checked against its milestones by a debug assertion in
    // `Tracer::completed`, which these full-retention runs exercise.)
    for seed in [7u64, 8, 42] {
        let log = run_experiment(smoke_at(seed, full_retention()))
            .expect("smoke config is valid")
            .trace
            .expect("tracing was enabled");
        assert_eq!(log.recent().count() as u64, log.completed + log.failed);
        assert!(!log.vlrt_causes().is_empty(), "seed {seed}: no chains");
        for c in log.vlrt_causes() {
            assert_eq!(
                c.trace.segments_us(),
                Some(c.segments_us),
                "seed {seed}: chain {}",
                c.trace.id
            );
        }
    }
}

#[test]
fn no_timeline_starts_at_or_past_the_cutoff() {
    for every in [1u64, 3] {
        let cfg = smoke_at(
            7,
            TraceConfig {
                recent_capacity: 0,
                vlrt_capacity: 16,
                sample_every: every,
                ..TraceConfig::enabled_default()
            },
        );
        let horizon = SimTime::ZERO + cfg.duration;
        let mut sim = NTierSystem::build_simulation(cfg).expect("smoke config is valid");
        sim.run_until(horizon);
        let tracer = sim.model().tracer();
        let cutoff = tracer.cutoff().expect("16 chains fill early").0;
        assert!(
            cutoff.is_multiple_of(every),
            "cutoff {cutoff} is not sampled"
        );
        // Exactly the sampled ids 0, every, 2·every, … below the cutoff.
        assert_eq!(tracer.timelines_started(), cutoff.div_ceil(every));
        assert_eq!(tracer.live_timelines(), 0, "timelines still in flight");
        let log = tracer.log().expect("tracing was enabled");
        assert_eq!(log.vlrt_causes().len(), 16);
        assert!(log.vlrt_causes().iter().all(|c| c.trace.id < cutoff));
    }
}
