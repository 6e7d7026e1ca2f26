//! # mlb-bench — the reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation from the
//! simulated testbed, and hosts the criterion micro-benchmarks.
//!
//! * [`runs`] — the eight distinct experiment configurations behind the
//!   paper's artifacts, executed in parallel and cached.
//! * [`figures`] — one builder per artifact (`fig1`–`fig13`, `table1`):
//!   ASCII charts + shape checks on the terminal, CSV series on disk.
//! * [`trace`] — the `--trace` artifact: per-request span traces and
//!   reconstructed VLRT causal chains from a traced run.
//!
//! The `repro` binary drives it:
//!
//! ```text
//! cargo run --release -p mlb-bench --bin repro -- all
//! cargo run --release -p mlb-bench --bin repro -- fig6 table1 --secs 60
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod extensions;
pub mod figures;
pub mod history;
pub mod robustness;
pub mod runs;
pub mod scaling;
pub mod tournament;
pub mod trace;

use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_simkernel::time::SimDuration;

/// Runs `f` over `items`, one scoped thread per item, and returns the
/// results **in input order** (join order is spawn order, regardless of
/// which thread finishes first).
///
/// This is the one fan-out primitive behind every parallel experiment
/// sweep in this crate. Determinism: each item carries its own full
/// configuration (seed included), every simulation inside a thread is
/// single-threaded and seed-deterministic, and the returned ordering is a
/// pure function of `items` — so a sweep's output is bit-identical run to
/// run no matter how the OS schedules the threads.
///
/// # Panics
///
/// Propagates a panic from any run.
pub fn par_runs<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel run panicked"))
            .collect()
    })
}

/// Runs each labelled config for `secs` simulated seconds through
/// [`par_runs`], logging one summary line per run to stderr with the
/// label padded to `pad` columns. `what` names the sweep ("ablation",
/// "extension") in the panic for a config that fails validation.
///
/// # Panics
///
/// Panics if a config is invalid, or propagates a panic from any run.
pub(crate) fn run_sweep(
    configs: Vec<(String, SystemConfig)>,
    secs: u64,
    what: &str,
    pad: usize,
) -> Vec<(String, ExperimentResult)> {
    par_runs(configs, |(label, mut cfg)| {
        cfg.duration = SimDuration::from_secs(secs);
        let r = run_experiment(cfg).unwrap_or_else(|e| panic!("{what} config is valid: {e:?}"));
        eprintln!(
            "  [{label:<pad$}] avg={:.2}ms vlrt={:.2}% drops={}",
            r.telemetry.response.avg_ms(),
            r.telemetry.response.pct_vlrt(),
            r.telemetry.drops
        );
        (label, r)
    })
}

pub use ablations::{all_ablations, build_ablation};
pub use extensions::{all_extensions, build_extension};
pub use figures::{all_artifacts, build, required_runs, Figure};
pub use history::BenchMeta;
pub use robustness::build_robustness;
pub use runs::{RunCache, RunKey};
pub use scaling::{run_scale_sweep, HoldDist, ScaleSweepConfig, ScaleSweepReport};
pub use tournament::{build_tournament, run_tournament, TournamentConfig, TournamentReport};
pub use trace::build_trace;
