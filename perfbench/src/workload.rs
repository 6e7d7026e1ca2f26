//! The benchmark's workloads: which simulated system runs, for how long,
//! and which checks its outcome must pass.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::{MetricsConfig, SystemConfig, TraceConfig};
use mlb_simkernel::time::SimDuration;
use mlb_workload::clients::ClientPopulation;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 4/4/1 testbed, `total_request` + `Original`, 70 k
    /// clients: millibottleneck storms drive drops, retransmits and
    /// `get_endpoint` re-polls.
    Paper4x4,
    /// Every tier ×16 under the paper's remedy (`current_load` +
    /// `skip_to_busy`): a 1.12 M-timer pending set and 64-way routes,
    /// with no drops.
    Scaled16x,
    /// `Paper4x4` with the trace log and the metrics registry on.
    Paper4x4Observed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Paper4x4,
        Workload::Scaled16x,
        Workload::Paper4x4Observed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper4x4 => "paper_4x4",
            Workload::Scaled16x => "scaled_16x",
            Workload::Paper4x4Observed => "paper_4x4_observed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated time one run covers: at least 200 slices of 50 sim-ms,
    /// so a run's slice p95 has ten samples beyond it.
    pub fn horizon(self) -> SimDuration {
        match self {
            Workload::Paper4x4 | Workload::Paper4x4Observed => SimDuration::from_secs(30),
            Workload::Scaled16x => SimDuration::from_secs(10),
        }
    }

    /// Distinct inputs (seeds) one untraced run covers, each run at least
    /// twice. Storm timing differs from seed to seed, and with it the
    /// peak number of requests in flight and so the memory high-water
    /// mark; the peak over several inputs varies less than one input's.
    /// The 16× system takes two, so that four runs fit in a measurement.
    pub fn inputs(self) -> usize {
        match self {
            Workload::Paper4x4 | Workload::Paper4x4Observed => 8,
            Workload::Scaled16x => 2,
        }
    }

    /// The seeds of [`Workload::inputs`] derived from `seed`, `seed`
    /// itself first.
    pub fn input_seeds(self, seed: u64) -> Vec<u64> {
        (0..self.inputs() as u64)
            .map(|i| seed.wrapping_add(i << 32))
            .collect()
    }

    /// Whether the trace log and metrics registry are on.
    pub fn observed(self) -> bool {
        self == Workload::Paper4x4Observed
    }

    /// Whether the run must be storm-free: no accept-queue drops, no
    /// failed requests, under 1 % of issued requests in flight at the
    /// horizon.
    pub fn storm_free(self) -> bool {
        self == Workload::Scaled16x
    }

    /// The workload whose simulated outcome this one must reproduce
    /// exactly for the same seed (observers never change results).
    pub fn same_outcome_as(self) -> Option<Workload> {
        match self {
            Workload::Paper4x4Observed => Some(Workload::Paper4x4),
            _ => None,
        }
    }

    /// The simulated system this workload runs under `seed`.
    pub fn config(self, seed: u64) -> SystemConfig {
        let cfg = match self {
            Workload::Paper4x4 | Workload::Paper4x4Observed => SystemConfig::paper_4x4(
                BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original),
            ),
            Workload::Scaled16x => scaled(
                SystemConfig::paper_4x4(BalancerConfig::with(
                    PolicyKind::CurrentLoad,
                    MechanismKind::SkipToBusy,
                )),
                16,
            ),
        };
        let cfg = SystemConfig {
            duration: self.horizon(),
            seed,
            ..cfg
        };
        with_observers(cfg, self.observed())
    }
}

/// `cfg` with every tier multiplied by `scale`: Apaches, Tomcats, MySQL
/// cores (the testbed has one database node) and clients. Pools are
/// sized per Apache–Tomcat pair and per Tomcat, so the AJP and database
/// connection counts scale with the tiers they join.
fn scaled(mut cfg: SystemConfig, scale: usize) -> SystemConfig {
    cfg.apaches *= scale;
    cfg.tomcats *= scale;
    cfg.mysql_machine.cores *= scale;
    cfg.population = ClientPopulation::new(
        cfg.population.clients() * scale,
        cfg.population.think_time_mean(),
        cfg.apaches,
    );
    cfg
}

/// `cfg` with the trace log and metrics registry both on or both off.
pub fn with_observers(cfg: SystemConfig, on: bool) -> SystemConfig {
    let (trace, metrics) = if on {
        (
            TraceConfig::enabled_default(),
            MetricsConfig::enabled_default(),
        )
    } else {
        (TraceConfig::disabled(), MetricsConfig::disabled())
    };
    SystemConfig {
        trace,
        metrics,
        ..cfg
    }
}
