//! The per-request trace subsystem, exercised end to end: segment sums
//! must tie out against [`PhaseBreakdown`], VLRTs must attribute to the
//! network/routing path the paper blames, and tracing must never perturb
//! the simulation it observes.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_metrics::spans::{Segment, SpanKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_ntier::trace::TraceConfig;
use mlb_simkernel::time::SimDuration;

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
    // The default ring keeps the last 4 096 finished traces, however
    // long the run; the VLRT chains stay capped, attribution still counts
    // every VLRT, and the traced run replays the untraced one exactly.
    let defaults = TraceConfig::enabled_default();
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
        let finished = log.completed + log.failed;
        assert!(
            finished > defaults.recent_capacity as u64,
            "{secs} s: {finished} finished requests do not fill the ring"
        );
        assert_eq!(
            log.recent().count() as u64,
            finished.min(defaults.recent_capacity as u64),
            "{secs} s: ring size"
        );
        assert!(log.vlrt_causes().len() <= defaults.vlrt_capacity);
        assert!(log.summary.vlrt_total > 0, "{secs} s: no VLRTs to count");
        assert_eq!(
            log.summary.vlrt_total,
            plain.telemetry.response.vlrt_count(),
            "{secs} s: attribution missed VLRTs"
        );
        assert_eq!(log.completed, plain.telemetry.response.total());
        assert_eq!(traced.events_processed, plain.events_processed);
    }
}
