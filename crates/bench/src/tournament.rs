//! Policy tournament: every load-balancing policy × the paper's
//! millibottleneck scenarios, scored Table-I style.
//!
//! The paper's Table I compares three policies under one millibottleneck
//! cause. The tournament widens both axes: ten policies (the paper's
//! three, the extension four, the related-work baselines `jsq_d` and
//! `sticky`, and the closed-loop `detector_driven`) run against three
//! scenarios —
//!
//! * `flush_storm` — the smoke preset's aggressive dirty-page flushing
//!   (the paper's primary millibottleneck cause);
//! * `gc_pause` — stop-the-world JVM collections with flushing
//!   eliminated (the alternative cause of Section I);
//! * `hetero` — a heterogeneous cluster (one Tomcat at half the cores)
//!   with matching `lbfactor` weights and flushing still on.
//!
//! Each cell aggregates the scorecard over the configured seeds: average
//! response time, VLRT fraction, p99.9, throughput, sticky-affinity
//! violations, `get_endpoint` give-ups, and detector stall vetoes. The
//! report renders as an ASCII table via `repro -- tournament` and as
//! machine-readable `BENCH_policies.json` — the second entry of the
//! repo's BENCH trajectory, archived per commit by CI.
//!
//! Determinism: every cell carries its own full `SystemConfig` (seed
//! included) and [`crate::par_runs`] returns results in input order, so
//! the JSON is bit-identical run to run.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_metrics::ascii::{Align, Table};
use mlb_metrics::histogram::ResponseTimeHistogram;
use mlb_metrics::summary::ResponseStats;
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_ntier::metrics::MetricsConfig;
use mlb_osmodel::machine::{GcConfig, MachineConfig};
use mlb_simkernel::time::SimDuration;

use crate::history::{write_artifact, BenchMeta};
use crate::par_runs;

/// Tournament extent: how long each cell runs and over which seeds.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Simulated seconds per run.
    pub secs: u64,
    /// Seeds fanned per (policy, scenario) cell; the scorecard is
    /// aggregated over all of them.
    pub seeds: Vec<u64>,
}

impl TournamentConfig {
    /// The full tournament the BENCH trajectory records.
    pub fn full() -> Self {
        TournamentConfig {
            secs: 20,
            seeds: vec![7, 8],
        }
    }

    /// A CI-sized smoke tournament: one seed, short runs.
    pub fn smoke() -> Self {
        TournamentConfig {
            secs: 8,
            seeds: vec![7],
        }
    }
}

/// The tournament's scenario axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Smoke-scale dirty-page flush storms (the paper's primary cause).
    FlushStorm,
    /// Stop-the-world GC pauses, flushing eliminated.
    GcPause,
    /// Heterogeneous Tomcats (one at half the cores) with lbfactor
    /// weights, flushing still on.
    Hetero,
}

impl Scenario {
    /// All scenarios, in report order.
    pub fn all() -> [Scenario; 3] {
        [Scenario::FlushStorm, Scenario::GcPause, Scenario::Hetero]
    }

    /// Stable scenario id used in the report and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::FlushStorm => "flush_storm",
            Scenario::GcPause => "gc_pause",
            Scenario::Hetero => "hetero",
        }
    }

    /// The smoke-scale system for this scenario under `balancer`.
    pub fn config(self, balancer: BalancerConfig, secs: u64, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::smoke(balancer);
        cfg.duration = SimDuration::from_secs(secs);
        cfg.seed = seed;
        match self {
            Scenario::FlushStorm => {}
            Scenario::GcPause => {
                // GC replaces flushing as the freeze source; a 2 s period
                // yields several pauses within even the smoke horizon.
                cfg.tomcat_machine = MachineConfig {
                    page_cache: None,
                    gc: Some(GcConfig {
                        period: SimDuration::from_secs(2),
                        pause: SimDuration::from_millis(250),
                    }),
                    ..cfg.tomcat_machine
                };
            }
            Scenario::Hetero => {
                let strong = cfg.tomcat_machine.clone();
                let weak = MachineConfig {
                    cores: strong.cores / 2,
                    ..strong
                };
                cfg.tomcat_machines = Some(vec![strong, weak]);
                // lbfactor mirrors capacity: the strong node gets twice
                // the share under the counting policies.
                cfg.balancer.weights = Some(vec![2, 1]);
            }
        }
        cfg
    }
}

/// One tournament entrant: a named balancer configuration plus whether
/// it needs the detector feedback loop switched on.
#[derive(Debug, Clone)]
pub struct Entrant {
    /// Stable row id (`PolicyKind::name`, or `"sticky"`).
    pub name: &'static str,
    /// The balancer this entrant runs.
    pub balancer: BalancerConfig,
    /// Whether the system must run metrics + detector feedback.
    pub detector_feedback: bool,
}

/// The tournament roster: the paper's three policies, the extension
/// four, and the three related-work baselines.
pub fn roster() -> Vec<Entrant> {
    let mut entrants: Vec<Entrant> = PolicyKind::all_extended()
        .into_iter()
        .chain([PolicyKind::Jsq(2)])
        .map(|p| Entrant {
            name: p.name(),
            balancer: BalancerConfig::with(p, MechanismKind::Original),
            detector_feedback: false,
        })
        .collect();
    // Sticky sessions over the remedy policy: first touch pins a client,
    // failovers count against (an unlimited) violation budget.
    let mut sticky = BalancerConfig::with(PolicyKind::CurrentLoad, MechanismKind::Original);
    sticky.sticky_sessions = true;
    entrants.push(Entrant {
        name: "sticky",
        balancer: sticky,
        detector_feedback: false,
    });
    // The closed loop: detector flags veto stalled backends.
    entrants.push(Entrant {
        name: "detector_driven",
        balancer: BalancerConfig::with(PolicyKind::DetectorDriven, MechanismKind::Original),
        detector_feedback: true,
    });
    entrants
}

/// One scorecard cell: a (policy, scenario) pair aggregated over seeds.
#[derive(Debug, Clone)]
pub struct TournamentRow {
    /// Entrant id (`PolicyKind::name` or `"sticky"`).
    pub policy: String,
    /// Scenario id.
    pub scenario: &'static str,
    /// Mean response time over all completions (ms).
    pub avg_rt_ms: f64,
    /// Fraction of completions above the 1 s VLRT threshold (percent).
    pub pct_vlrt: f64,
    /// 99.9th-percentile response time (ms).
    pub p999_ms: f64,
    /// Completions per simulated second.
    pub throughput_rps: f64,
    /// Completions, summed over seeds.
    pub completed: u64,
    /// Terminal failures, summed over seeds.
    pub failed: u64,
    /// Sticky-affinity violations, summed over seeds.
    pub sticky_violations: u64,
    /// `get_endpoint` give-ups across all balancers, summed over seeds.
    pub giveups: u64,
    /// Detector stall vetoes, summed over seeds.
    pub stall_vetoes: u64,
}

/// The finished tournament.
#[derive(Debug, Clone)]
pub struct TournamentReport {
    /// Tournament parameters.
    pub config: TournamentConfig,
    /// One row per (policy, scenario), scenario-major in
    /// [`Scenario::all`] × [`roster`] order.
    pub rows: Vec<TournamentRow>,
}

fn aggregate(
    policy: &str,
    scenario: Scenario,
    results: &[ExperimentResult],
    secs: u64,
) -> TournamentRow {
    let mut response = ResponseStats::new();
    let mut histogram = ResponseTimeHistogram::paper_buckets();
    let mut failed = 0;
    let mut sticky_violations = 0;
    let mut giveups = 0;
    let mut stall_vetoes = 0;
    for r in results {
        response.merge(&r.telemetry.response);
        histogram.merge(&r.telemetry.histogram);
        failed += r.telemetry.failed_requests;
        sticky_violations += r.sticky_violations;
        giveups += r.balancer_giveups;
        stall_vetoes += r.stall_vetoes;
    }
    let sim_secs = (secs * results.len() as u64) as f64;
    TournamentRow {
        policy: policy.to_owned(),
        scenario: scenario.name(),
        avg_rt_ms: response.avg_ms(),
        pct_vlrt: response.pct_vlrt(),
        p999_ms: histogram.quantile(0.999).map_or(0.0, |d| d.as_millis_f64()),
        throughput_rps: response.total() as f64 / sim_secs.max(1e-9),
        completed: response.total(),
        failed,
        sticky_violations,
        giveups,
        stall_vetoes,
    }
}

/// Runs one (entrant, scenario) cell over the configured seeds and
/// aggregates its scorecard row.
pub fn run_cell(entrant: &Entrant, scenario: Scenario, cfg: &TournamentConfig) -> TournamentRow {
    let results: Vec<ExperimentResult> = cfg
        .seeds
        .iter()
        .map(|&seed| {
            let mut sys = scenario.config(entrant.balancer.clone(), cfg.secs, seed);
            if entrant.detector_feedback {
                sys.metrics = MetricsConfig::enabled_default();
                sys.detector_feedback = true;
            }
            let r = run_experiment(sys).expect("tournament preset is valid");
            // Conservation: every issued request completed, failed
            // terminally, or is still in flight at the horizon.
            assert_eq!(
                r.requests_issued,
                r.telemetry.response.total()
                    + r.telemetry.failed_requests
                    + r.inflight_at_end as u64,
                "{} / {} seed {seed}: requests not conserved",
                entrant.name,
                scenario.name(),
            );
            r
        })
        .collect();
    aggregate(entrant.name, scenario, &results, cfg.secs)
}

/// Runs the whole tournament: every entrant × every scenario × every
/// seed, cells in parallel, rows in deterministic scenario-major order.
pub fn run_tournament(cfg: &TournamentConfig) -> TournamentReport {
    let mut cells = Vec::new();
    for scenario in Scenario::all() {
        for entrant in roster() {
            cells.push((entrant, scenario));
        }
    }
    let config = cfg.clone();
    let rows = par_runs(cells, |(entrant, scenario)| {
        let row = run_cell(&entrant, scenario, &config);
        eprintln!(
            "  [{:<11} {:<15}] avg {:>8.1} ms, VLRT {:>5.2}%, p99.9 {:>8.1} ms",
            row.scenario, row.policy, row.avg_rt_ms, row.pct_vlrt, row.p999_ms,
        );
        row
    });
    TournamentReport {
        config: cfg.clone(),
        rows,
    }
}

impl TournamentReport {
    /// The row for a given (policy, scenario), if present.
    pub fn row(&self, policy: &str, scenario: &str) -> Option<&TournamentRow> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.scenario == scenario)
    }

    /// Renders the scorecard as one ASCII table per scenario, through
    /// the workspace's shared [`Table`] writer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for scenario in Scenario::all() {
            out.push_str(&format!("scenario: {}\n", scenario.name()));
            let mut table = Table::new(
                "  ",
                " ",
                vec![
                    (Align::Left, 16),
                    (Align::Right, 10),
                    (Align::Right, 8),
                    (Align::Right, 10),
                    (Align::Right, 8),
                    (Align::Right, 8),
                    (Align::Right, 9),
                    (Align::Right, 8),
                    (Align::Right, 7),
                ],
            );
            table.row(&[
                "policy",
                "avg_rt_ms",
                "%VLRT",
                "p99.9_ms",
                "rps",
                "failed",
                "sticky_v",
                "giveups",
                "vetoes",
            ]);
            for r in self.rows.iter().filter(|r| r.scenario == scenario.name()) {
                table.row(&[
                    r.policy.clone(),
                    format!("{:.1}", r.avg_rt_ms),
                    format!("{:.2}", r.pct_vlrt),
                    format!("{:.1}", r.p999_ms),
                    format!("{:.1}", r.throughput_rps),
                    format!("{}", r.failed),
                    format!("{}", r.sticky_violations),
                    format!("{}", r.giveups),
                    format!("{}", r.stall_vetoes),
                ]);
            }
            out.push_str(table.as_str());
            out.push('\n');
        }
        out
    }

    /// Serializes the report as pretty-printed JSON (handwritten — the
    /// workspace carries no serde). `meta` supplies the shared
    /// schema/commit/host header every BENCH artifact carries.
    pub fn to_json(&self, meta: &BenchMeta) -> String {
        let mut out = String::from("{\n");
        out.push_str(&meta.json_header());
        out.push_str("  \"bench\": \"policy_tournament\",\n  \"base\": \"smoke\",\n");
        out.push_str(&format!("  \"sim_secs_per_run\": {},\n", self.config.secs));
        out.push_str(&format!(
            "  \"seeds\": [{}],\n",
            self.config
                .seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"policy\": \"{}\", \"scenario\": \"{}\", \
                 \"avg_rt_ms\": {:.3}, \"pct_vlrt\": {:.4}, \"p999_ms\": {:.3}, \
                 \"throughput_rps\": {:.2}, \"completed\": {}, \"failed\": {}, \
                 \"sticky_violations\": {}, \"giveups\": {}, \"stall_vetoes\": {}}}{}\n",
                r.policy,
                r.scenario,
                r.avg_rt_ms,
                r.pct_vlrt,
                r.p999_ms,
                r.throughput_rps,
                r.completed,
                r.failed,
                r.sticky_violations,
                r.giveups,
                r.stall_vetoes,
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Builds the `tournament` repro artifact: runs the tournament, writes
/// `BENCH_policies.json` (at the workspace root, or under `target/` for a
/// `smoke` run), and packages the ASCII scorecard as terminal text.
pub fn build_tournament(cfg: &TournamentConfig, smoke: bool) -> crate::Figure {
    let report = run_tournament(cfg);
    write_artifact(
        "BENCH_policies.json",
        &report.to_json(&BenchMeta::capture()),
        smoke,
    );
    crate::Figure {
        id: "tournament",
        title: format!(
            "Policy tournament: {} policies × {} scenarios, {} sim-s per run, seeds {:?}",
            roster().len(),
            Scenario::all().len(),
            cfg.secs,
            cfg.seeds,
        ),
        text: report.render(),
        csvs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_the_required_policies() {
        let names: Vec<&str> = roster().iter().map(|e| e.name).collect();
        assert!(names.len() >= 8, "tournament needs >= 8 policies");
        for required in [
            "total_request",
            "current_load",
            "jsq_d",
            "sticky",
            "detector_driven",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate roster entries");
    }

    #[test]
    fn scenario_configs_validate() {
        for scenario in Scenario::all() {
            for entrant in roster() {
                let mut cfg = scenario.config(entrant.balancer, 1, 7);
                if entrant.detector_feedback {
                    cfg.metrics = MetricsConfig::enabled_default();
                    cfg.detector_feedback = true;
                }
                cfg.validate()
                    .unwrap_or_else(|e| panic!("{} × {}: {e}", entrant.name, scenario.name()));
            }
        }
    }

    fn tiny_report() -> TournamentReport {
        TournamentReport {
            config: TournamentConfig::smoke(),
            rows: vec![
                TournamentRow {
                    policy: "current_load".to_owned(),
                    scenario: "flush_storm",
                    avg_rt_ms: 12.5,
                    pct_vlrt: 0.5,
                    p999_ms: 800.0,
                    throughput_rps: 300.0,
                    completed: 2_400,
                    failed: 1,
                    sticky_violations: 0,
                    giveups: 2,
                    stall_vetoes: 0,
                },
                TournamentRow {
                    policy: "a_policy_name_longer_than_the_column".to_owned(),
                    scenario: "gc_pause",
                    avg_rt_ms: 1234.567,
                    pct_vlrt: 99.999,
                    p999_ms: 0.0,
                    throughput_rps: 0.04,
                    completed: 1,
                    failed: 123_456_789,
                    sticky_violations: 7,
                    giveups: 0,
                    stall_vetoes: 42,
                },
            ],
        }
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = tiny_report();
        let json = report.to_json(&BenchMeta::fixed("cafe", "testhost"));
        assert!(json.contains("\"schema_version\": 1,"));
        assert!(json.contains("\"commit\": \"cafe\","));
        assert!(json.contains("\"bench\": \"policy_tournament\""));
        assert!(json.contains("\"policy\": \"current_load\""));
        assert!(json.contains("\"scenario\": \"flush_storm\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let txt = report.render();
        assert!(txt.contains("current_load"));
        assert!(txt.contains("flush_storm"));
    }

    #[test]
    fn render_is_byte_identical_to_the_format_string_renderer() {
        // The renderer-dedupe contract: the shared Table writer must
        // reproduce the retired per-bench format! renderer exactly,
        // including overlong cells that widen their row.
        let report = tiny_report();
        let mut oracle = String::new();
        for scenario in Scenario::all() {
            oracle.push_str(&format!("scenario: {}\n", scenario.name()));
            oracle.push_str(&format!(
                "  {:<16} {:>10} {:>8} {:>10} {:>8} {:>8} {:>9} {:>8} {:>7}\n",
                "policy",
                "avg_rt_ms",
                "%VLRT",
                "p99.9_ms",
                "rps",
                "failed",
                "sticky_v",
                "giveups",
                "vetoes",
            ));
            for r in report.rows.iter().filter(|r| r.scenario == scenario.name()) {
                oracle.push_str(&format!(
                    "  {:<16} {:>10.1} {:>8.2} {:>10.1} {:>8.1} {:>8} {:>9} {:>8} {:>7}\n",
                    r.policy,
                    r.avg_rt_ms,
                    r.pct_vlrt,
                    r.p999_ms,
                    r.throughput_rps,
                    r.failed,
                    r.sticky_violations,
                    r.giveups,
                    r.stall_vetoes,
                ));
            }
            oracle.push('\n');
        }
        assert_eq!(report.render(), oracle);
    }

    #[test]
    fn detector_driven_beats_the_cumulative_policies_on_vlrt() {
        // The acceptance bar for the closed loop: under flush storms,
        // vetoing flagged backends must cut the VLRT fraction below the
        // unstable cumulative policies'.
        let cfg = TournamentConfig::smoke();
        let dd = run_cell(
            &roster()
                .into_iter()
                .find(|e| e.name == "detector_driven")
                .unwrap(),
            Scenario::FlushStorm,
            &cfg,
        );
        for baseline in ["total_request", "total_traffic"] {
            let b = run_cell(
                &roster().into_iter().find(|e| e.name == baseline).unwrap(),
                Scenario::FlushStorm,
                &cfg,
            );
            assert!(
                dd.pct_vlrt < b.pct_vlrt,
                "detector_driven VLRT {:.3}% must beat {} VLRT {:.3}%",
                dd.pct_vlrt,
                baseline,
                b.pct_vlrt,
            );
        }
        assert!(dd.stall_vetoes > 0, "the veto path must actually fire");
    }
}
