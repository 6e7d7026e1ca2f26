//! Ablation studies beyond the paper's figures.
//!
//! The paper attributes the VLRT amplification to specific design
//! constants (the `get_endpoint` polling budget, the AJP pool size, the
//! kernel's retransmission schedule, the flush cadence) and to the
//! cumulative nature of the default policies. Each ablation sweeps one of
//! those knobs with everything else fixed, quantifying how much each
//! contributes to the instability.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_metrics::csv::CsvTable;
use mlb_netmodel::retransmit::RtoSchedule;
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::ExperimentResult;
use mlb_simkernel::time::SimDuration;

use crate::figures::Figure;
use crate::run_sweep;

/// All ablation ids.
pub fn all_ablations() -> [&'static str; 5] {
    [
        "ablation-timeout",
        "ablation-pool",
        "ablation-rto",
        "ablation-flush",
        "ablation-decay",
    ]
}

/// Builds one ablation (runs its sweep; `secs` simulated per point).
///
/// # Panics
///
/// Panics if `id` is unknown.
pub fn build_ablation(id: &str, secs: u64) -> Figure {
    match id {
        "ablation-timeout" => ablation_timeout(secs),
        "ablation-pool" => ablation_pool(secs),
        "ablation-rto" => ablation_rto(secs),
        "ablation-flush" => ablation_flush(secs),
        "ablation-decay" => ablation_decay(secs),
        other => panic!("unknown ablation id: {other}"),
    }
}

/// Runs a set of labelled configurations in parallel.
fn summary_table(rows: &[(String, ExperimentResult)], knob: &str) -> (String, CsvTable) {
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .max()
        .unwrap_or(8)
        .max(knob.len());
    let mut text = format!(
        "{:<label_w$} {:>12} {:>10} {:>10} {:>12} {:>12}\n",
        knob, "avg RT (ms)", "% VLRT", "p99.9 (ms)", "drops", "worker peak"
    );
    let mut csv = CsvTable::with_columns(&[
        "point",
        "avg_rt_ms",
        "pct_vlrt",
        "p999_ms",
        "drops",
        "worker_peak",
    ]);
    for (i, (label, r)) in rows.iter().enumerate() {
        let p999 = r
            .telemetry
            .histogram
            .quantile(0.999)
            .map(|d| d.as_millis_f64())
            .unwrap_or(0.0);
        let peak = r.apache_worker_peaks.iter().max().copied().unwrap_or(0);
        text.push_str(&format!(
            "{:<label_w$} {:>12.2} {:>9.2}% {:>10.0} {:>12} {:>12}\n",
            label,
            r.telemetry.response.avg_ms(),
            r.telemetry.response.pct_vlrt(),
            p999,
            r.telemetry.drops,
            peak
        ));
        csv.push_row(vec![
            i as f64,
            r.telemetry.response.avg_ms(),
            r.telemetry.response.pct_vlrt(),
            p999,
            r.telemetry.drops as f64,
            peak as f64,
        ]);
    }
    (text, csv)
}

fn ablation_timeout(secs: u64) -> Figure {
    let mut configs = Vec::new();
    configs.push((
        "skip-to-busy (remedy)".to_owned(),
        SystemConfig::paper_4x4(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::SkipToBusy,
        )),
    ));
    for ms in [100u64, 200, 300, 600, 1_200] {
        let mut bal = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original);
        bal.cache_acquire_timeout = SimDuration::from_millis(ms);
        configs.push((format!("timeout {ms} ms"), SystemConfig::paper_4x4(bal)));
    }
    let rows = run_sweep(configs, secs, "ablation", 28);
    let (mut text, csv) = summary_table(&rows, "cache_acquire_timeout");
    text.push_str(
        "\nReading: the get_endpoint polling budget is the mechanism-level\n\
         amplifier — damage grows with the budget and saturates once it\n\
         exceeds the millibottleneck duration (~300 ms). The remedy is the\n\
         zero-budget limit.\n",
    );
    Figure {
        id: "ablation-timeout",
        title: "Ablation: get_endpoint polling budget (mechanism amplifier)".into(),
        text,
        csvs: vec![("ablation_timeout".into(), csv)],
    }
}

fn ablation_pool(secs: u64) -> Figure {
    let mut configs = Vec::new();
    for pool in [10usize, 25, 50, 100, 200] {
        let mut cfg = SystemConfig::paper_4x4(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        cfg.pool_size = pool;
        configs.push((format!("pool {pool}"), cfg));
    }
    let rows = run_sweep(configs, secs, "ablation", 28);
    let (mut text, csv) = summary_table(&rows, "AJP pool size");
    text.push_str(
        "\nReading: the connection pool bounds how many requests can be\n\
         physically committed to the frozen candidate; the blocking wait\n\
         behind it hurts either way. Larger pools deepen the frozen\n\
         server's backlog, smaller pools shift the damage into\n\
         get_endpoint blocking — neither end fixes the policy.\n",
    );
    Figure {
        id: "ablation-pool",
        title: "Ablation: AJP connection-pool size".into(),
        text,
        csvs: vec![("ablation_pool".into(), csv)],
    }
}

fn ablation_rto(secs: u64) -> Figure {
    let schedules: Vec<(String, RtoSchedule)> = vec![
        ("1s,1s,1s (paper)".into(), RtoSchedule::paper_clusters()),
        (
            "1s,2s,4s (exponential)".into(),
            RtoSchedule::exponential(SimDuration::from_secs(1), 3),
        ),
        (
            "200ms x5 (fast RTO)".into(),
            RtoSchedule::exponential(SimDuration::from_millis(200), 5),
        ),
        (
            "3s,3s (SYN-style)".into(),
            RtoSchedule::new(vec![SimDuration::from_secs(3), SimDuration::from_secs(3)]),
        ),
    ];
    let mut configs = Vec::new();
    for (label, rto) in schedules {
        let mut cfg = SystemConfig::paper_4x4(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        cfg.rto = rto;
        configs.push((label, cfg));
    }
    let rows = run_sweep(configs, secs, "ablation", 28);
    let (mut text, csv) = summary_table(&rows, "RTO schedule");
    text.push_str(
        "\nReading: the VLRT cluster positions are a direct image of the\n\
         retransmission schedule — the paper's 1 s/2 s/3 s clusters are the\n\
         kernel's RTO, not a property of the bottleneck. Faster RTOs trade\n\
         tail height for retransmission volume.\n",
    );
    Figure {
        id: "ablation-rto",
        title: "Ablation: TCP retransmission schedule".into(),
        text,
        csvs: vec![("ablation_rto".into(), csv)],
    }
}

fn ablation_flush(secs: u64) -> Figure {
    let mut configs = Vec::new();
    for interval_s in [2u64, 4, 8, 16] {
        let mut cfg = SystemConfig::paper_4x4(BalancerConfig::with(
            PolicyKind::TotalRequest,
            MechanismKind::Original,
        ));
        if let Some(pc) = &mut cfg.tomcat_machine.page_cache {
            pc.flush_interval = SimDuration::from_secs(interval_s);
        }
        configs.push((format!("flush every {interval_s}s"), cfg));
    }
    let rows = run_sweep(configs, secs, "ablation", 28);
    let (mut text, csv) = summary_table(&rows, "flush interval");
    text.push_str(
        "\nReading: longer write-back intervals mean rarer but *longer*\n\
         millibottlenecks (more dirty bytes per flush). Severity, not\n\
         frequency, drives the damage: one 600 ms freeze overflows queues\n\
         that eight 75 ms freezes never touch — consistent with the paper's\n\
         remedy of enlarging the dirty buffer to eliminate flushes within\n\
         an experiment entirely.\n",
    );
    Figure {
        id: "ablation-flush",
        title: "Ablation: pdflush interval (millibottleneck severity)".into(),
        text,
        csvs: vec![("ablation_flush".into(), csv)],
    }
}

fn ablation_decay(secs: u64) -> Figure {
    let mut configs = Vec::new();
    for (label, decay) in [
        ("no aging (paper)", None),
        (
            "aging 60s (mod_jk maintain)",
            Some(SimDuration::from_secs(60)),
        ),
        ("aging 5s", Some(SimDuration::from_secs(5))),
        ("aging 1s", Some(SimDuration::from_secs(1))),
    ] {
        let mut bal = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original);
        bal.decay_interval = decay;
        configs.push((label.to_owned(), SystemConfig::paper_4x4(bal)));
    }
    let rows = run_sweep(configs, secs, "ablation", 28);
    let (mut text, csv) = summary_table(&rows, "lb_value aging");
    text.push_str(
        "\nReading: mod_jk's periodic lb_value halving does not repair the\n\
         instability — during the (sub-second) millibottleneck the frozen\n\
         candidate still holds the minimum cumulative counter between\n\
         aging ticks. Only ranking by *current* state does.\n",
    );
    Figure {
        id: "ablation-decay",
        title: "Ablation: lb_value aging (mod_jk maintain)".into(),
        text,
        csvs: vec![("ablation_decay".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_ids_are_unique() {
        let mut ids = all_ablations().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    #[should_panic(expected = "unknown ablation id")]
    fn unknown_ablation_panics() {
        let _ = build_ablation("ablation-nope", 1);
    }

    #[test]
    fn timeout_ablation_builds_at_tiny_scale() {
        let fig = build_ablation("ablation-timeout", 5);
        assert!(fig.text.contains("timeout 300 ms"));
        assert_eq!(fig.csvs.len(), 1);
        assert!(fig.csvs[0].1.row_count() >= 6);
    }
}
