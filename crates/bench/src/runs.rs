//! Experiment run management for the reproduction harness.
//!
//! Several figures share the same underlying experiment (e.g. Figs. 3, 4,
//! 5, 6 and 10 all come from the `Original total_request` run), so the
//! harness runs each distinct configuration once and shares the
//! [`ExperimentResult`] across figures. Runs execute in parallel on scoped
//! threads.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_simkernel::time::SimDuration;
use std::collections::HashMap;

/// The distinct experiment configurations the paper's artifacts need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RunKey {
    /// 4/4/1, millibottlenecks eliminated, total_request (Fig. 1).
    BaselineNoMb,
    /// 1/1/1, millibottlenecks on Apache and Tomcat (Fig. 2).
    OneByOne,
    /// 4/4/1 with millibottlenecks, original total_request.
    TotalRequest,
    /// 4/4/1 with millibottlenecks, original total_traffic.
    TotalTraffic,
    /// 4/4/1 with millibottlenecks, current_load.
    CurrentLoad,
    /// total_request + modified get_endpoint.
    TotalRequestFixed,
    /// total_traffic + modified get_endpoint.
    TotalTrafficFixed,
    /// current_load + modified get_endpoint.
    CurrentLoadFixed,
}

impl RunKey {
    /// All runs, in a stable order.
    pub fn all() -> [RunKey; 8] {
        [
            RunKey::BaselineNoMb,
            RunKey::OneByOne,
            RunKey::TotalRequest,
            RunKey::TotalTraffic,
            RunKey::CurrentLoad,
            RunKey::TotalRequestFixed,
            RunKey::TotalTrafficFixed,
            RunKey::CurrentLoadFixed,
        ]
    }

    /// The system configuration for this run at the given duration.
    pub fn config(self, secs: u64) -> SystemConfig {
        let mut cfg = match self {
            RunKey::BaselineNoMb => SystemConfig::paper_4x4_no_millibottleneck(
                BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original),
            ),
            RunKey::OneByOne => SystemConfig::paper_1x1(BalancerConfig::with(
                PolicyKind::TotalRequest,
                MechanismKind::Original,
            )),
            RunKey::TotalRequest => SystemConfig::paper_4x4(BalancerConfig::with(
                PolicyKind::TotalRequest,
                MechanismKind::Original,
            )),
            RunKey::TotalTraffic => SystemConfig::paper_4x4(BalancerConfig::with(
                PolicyKind::TotalTraffic,
                MechanismKind::Original,
            )),
            RunKey::CurrentLoad => SystemConfig::paper_4x4(BalancerConfig::with(
                PolicyKind::CurrentLoad,
                MechanismKind::Original,
            )),
            RunKey::TotalRequestFixed => SystemConfig::paper_4x4(BalancerConfig::with(
                PolicyKind::TotalRequest,
                MechanismKind::SkipToBusy,
            )),
            RunKey::TotalTrafficFixed => SystemConfig::paper_4x4(BalancerConfig::with(
                PolicyKind::TotalTraffic,
                MechanismKind::SkipToBusy,
            )),
            RunKey::CurrentLoadFixed => SystemConfig::paper_4x4(BalancerConfig::with(
                PolicyKind::CurrentLoad,
                MechanismKind::SkipToBusy,
            )),
        };
        cfg.duration = SimDuration::from_secs(secs);
        cfg
    }

    /// A short slug used in file names.
    pub fn slug(self) -> &'static str {
        match self {
            RunKey::BaselineNoMb => "baseline",
            RunKey::OneByOne => "one_by_one",
            RunKey::TotalRequest => "total_request",
            RunKey::TotalTraffic => "total_traffic",
            RunKey::CurrentLoad => "current_load",
            RunKey::TotalRequestFixed => "total_request_fixed",
            RunKey::TotalTrafficFixed => "total_traffic_fixed",
            RunKey::CurrentLoadFixed => "current_load_fixed",
        }
    }
}

/// Results of all executed runs, keyed by configuration.
#[derive(Debug, Default)]
pub struct RunCache {
    results: HashMap<RunKey, ExperimentResult>,
}

impl RunCache {
    /// Executes the given runs in parallel (scoped threads, one per run)
    /// at `secs` of simulated time each, with progress lines on stderr.
    /// With `prof`, every run also records its kernel self-profile
    /// ([`ExperimentResult::profile`]); profiling only observes, so the
    /// results are otherwise identical.
    ///
    /// # Panics
    ///
    /// Panics if any preset configuration fails validation (a bug).
    pub fn execute(keys: &[RunKey], secs: u64, prof: bool) -> Self {
        let mut unique: Vec<RunKey> = keys.to_vec();
        unique.sort();
        unique.dedup();
        let results: HashMap<RunKey, ExperimentResult> = crate::par_runs(unique, |key| {
            let start = std::time::Instant::now();
            let mut cfg = key.config(secs);
            cfg.prof = prof;
            let result = run_experiment(cfg).expect("preset config is valid");
            eprintln!(
                "  [{:<20}] {:>7} requests, {:>3} millibottlenecks, {:>6} drops ({:.1}s wall)",
                key.slug(),
                result.telemetry.response.total(),
                result.total_millibottlenecks(),
                result.telemetry.drops,
                start.elapsed().as_secs_f64()
            );
            (key, result)
        })
        .into_iter()
        .collect();
        RunCache { results }
    }

    /// The result of one run.
    ///
    /// # Panics
    ///
    /// Panics if the run was not executed.
    pub fn get(&self, key: RunKey) -> &ExperimentResult {
        self.results
            .get(&key)
            .unwrap_or_else(|| panic!("run {key:?} was not executed"))
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` if no runs are cached.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_keys_have_valid_configs() {
        for key in RunKey::all() {
            assert!(key.config(10).validate().is_ok(), "{key:?} invalid");
        }
    }

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<&str> = RunKey::all().iter().map(|k| k.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 8);
    }

    #[test]
    fn config_respects_duration() {
        let cfg = RunKey::TotalRequest.config(42);
        assert_eq!(cfg.duration, SimDuration::from_secs(42));
    }

    #[test]
    fn table1_keys_differ_in_policy_and_mechanism() {
        use mlb_core::MechanismKind;
        let orig = RunKey::TotalRequest.config(10);
        let fixed = RunKey::TotalRequestFixed.config(10);
        assert_eq!(orig.balancer.mechanism, MechanismKind::Original);
        assert_eq!(fixed.balancer.mechanism, MechanismKind::SkipToBusy);
    }
}
