//! `simprof` — deterministic kernel self-profiling.
//!
//! The paper's argument is that coarse monitoring hides millibottlenecks;
//! the simulator's own toolchain has the same blind spot one level down:
//! `BENCH_kernel.json` shows events/sec collapsing as the population
//! grows, but nothing says *where* kernel time goes. This module is the
//! kernel's answer: per-event-kind counts and wall-ns totals, per-phase
//! timing (drain vs. handler vs. schedule), and — via
//! [`crate::queue::WheelStats`] — the timer wheel's structural counters.
//!
//! # The byte-identity contract
//!
//! Profiling is **off by default** and enabling it must never change a
//! simulation's outcome. The contract is structural:
//!
//! * the profiler only ever *reads* the wall clock and *writes* its own
//!   counters — no value derived from a wall-clock read flows into
//!   [`crate::time::SimTime`], the event queue, or any model state;
//! * every hook is an `Option` check on the unprofiled path, so the
//!   event order, RNG draws, and telemetry of a profiled run are
//!   bit-identical to an unprofiled one (the seed-7/8/42 golden trace
//!   digests pin this end to end);
//! * counts and kind classifications are pure functions of the event
//!   stream, so the `.count` side of a profile is itself deterministic;
//!   only `.wall_ns` values vary run to run, and the export digest
//!   excludes them (`mlb-metrics::prof::deterministic_digest`).
//!
//! All wall-clock reads in the entire kernel live in this module — the
//! one `Instant::now()` below carries the only `no-wall-clock` simlint
//! carve-out in the workspace's simulation crates.

use std::time::Instant;

use crate::queue::WheelStats;

/// The kernel phases the profiler attributes wall time to.
///
/// `Handle` brackets the whole model callback, so time spent inside
/// [`crate::sim::Scheduler`] push calls (`Schedule`) is a *subset* of
/// `Handle`, not disjoint from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Locating and draining the next instant out of the event queue
    /// (`peek_time` + `drain_instant`, including wheel cascades).
    Drain,
    /// The model's event handler, end to end.
    Handle,
    /// `Scheduler::at`/`after`/`immediately` pushes issued by the
    /// handler (included in `Handle` as well).
    Schedule,
}

impl Phase {
    /// All phases, in export order.
    pub const ALL: [Phase; 3] = [Phase::Drain, Phase::Handle, Phase::Schedule];

    /// Stable lowercase label used in `prof.*` metric names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Drain => "drain",
            Phase::Handle => "handle",
            Phase::Schedule => "schedule",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Drain => 0,
            Phase::Handle => 1,
            Phase::Schedule => 2,
        }
    }
}

/// Live profiling state owned by a [`crate::sim::Simulation`].
///
/// Constructed by `Simulation::enable_profiling`; all accumulators are
/// plain `u64`s. Wall time is measured as nanoseconds since the
/// profiler's construction anchor, so individual reads are cheap
/// monotonic deltas.
#[derive(Debug)]
pub struct KernelProfiler {
    /// The single wall-clock anchor; every measurement is an elapsed
    /// delta against it. See the module docs for the carve-out argument.
    anchor: Instant,
    kind_names: &'static [&'static str],
    kind_counts: Vec<u64>,
    kind_wall_ns: Vec<u64>,
    phase_counts: [u64; 3],
    phase_wall_ns: [u64; 3],
}

impl KernelProfiler {
    /// Creates a profiler over the model's event-kind vocabulary.
    //
    // This is the one sanctioned wall-clock read in the sim crates: the
    // elapsed-ns deltas taken against this anchor feed only `prof.*`
    // counters and never reach SimTime, the queue, or model state (the
    // seed-7/8/42 golden digests pin profiled == unprofiled
    // byte-for-byte).
    // simlint::allow(no-wall-clock): single profiler anchor; deltas feed prof.* counters only
    pub fn new(kind_names: &'static [&'static str]) -> Self {
        KernelProfiler {
            anchor: Instant::now(),
            kind_names,
            kind_counts: vec![0; kind_names.len()],
            kind_wall_ns: vec![0; kind_names.len()],
            phase_counts: [0; 3],
            phase_wall_ns: [0; 3],
        }
    }

    /// Nanoseconds since the profiler was created — the raw material of
    /// every phase measurement. The value is wall time and must never be
    /// fed anywhere but [`KernelProfiler::phase_add`] /
    /// [`KernelProfiler::record_event`].
    pub fn clock_ns(&self) -> u64 {
        let ns = self.anchor.elapsed().as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX)
    }

    /// Attributes the wall time since `start_ns` (a prior
    /// [`KernelProfiler::clock_ns`] read) to `phase`.
    pub fn phase_add(&mut self, phase: Phase, start_ns: u64) {
        let i = phase.index();
        self.phase_counts[i] += 1;
        self.phase_wall_ns[i] += self.clock_ns().saturating_sub(start_ns);
    }

    /// Records one handled event of `kind` whose handler started at
    /// `start_ns`; bumps the kind accumulators and the `Handle` phase.
    pub fn record_event(&mut self, kind: usize, start_ns: u64) {
        let spent = self.clock_ns().saturating_sub(start_ns);
        let i = kind.min(self.kind_counts.len().saturating_sub(1));
        self.kind_counts[i] += 1;
        self.kind_wall_ns[i] += spent;
        self.phase_counts[Phase::Handle.index()] += 1;
        self.phase_wall_ns[Phase::Handle.index()] += spent;
    }

    /// Freezes the accumulators into a plain-data snapshot, attaching
    /// the queue's wheel statistics when the wheel backend ran.
    pub fn snapshot(&self, wheel: Option<WheelStats>) -> KernelProfile {
        KernelProfile {
            kind_names: self.kind_names,
            kind_counts: self.kind_counts.clone(),
            kind_wall_ns: self.kind_wall_ns.clone(),
            phase_counts: self.phase_counts,
            phase_wall_ns: self.phase_wall_ns,
            wheel,
        }
    }
}

/// A finished profile: plain integers, no clock handles.
///
/// The `*_counts` fields (and [`KernelProfile::wheel`]) are pure
/// functions of the event stream and therefore deterministic for a fixed
/// seed; the `*_wall_ns` fields are host timing and vary run to run.
/// Exporters must keep the two separable — `mlb-metrics` names them
/// `prof.….count` vs `prof.….wall_ns` and digests only the former.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Event-kind vocabulary, in the model's declaration order.
    pub kind_names: &'static [&'static str],
    /// Events handled per kind (deterministic).
    pub kind_counts: Vec<u64>,
    /// Wall nanoseconds spent in handlers per kind (nondeterministic).
    pub kind_wall_ns: Vec<u64>,
    /// Measurements per phase, [`Phase::ALL`] order (deterministic).
    pub phase_counts: [u64; 3],
    /// Wall nanoseconds per phase, [`Phase::ALL`] order
    /// (nondeterministic).
    pub phase_wall_ns: [u64; 3],
    /// Timer-wheel structural counters (deterministic), when the run
    /// used the wheel backend.
    pub wheel: Option<WheelStats>,
}

impl KernelProfile {
    /// Total events recorded across all kinds.
    pub fn events_total(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// Count for a phase.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_counts[phase.index()]
    }

    /// Wall nanoseconds for a phase.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_wall_ns[phase.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_have_stable_labels_and_order() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["drain", "handle", "schedule"]);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn record_event_bumps_kind_and_handle_phase() {
        let mut p = KernelProfiler::new(&["a", "b"]);
        let t0 = p.clock_ns();
        p.record_event(1, t0);
        p.record_event(1, t0);
        p.record_event(0, t0);
        let s = p.snapshot(None);
        assert_eq!(s.kind_counts, vec![1, 2]);
        assert_eq!(s.events_total(), 3);
        assert_eq!(s.phase_count(Phase::Handle), 3);
        assert_eq!(s.phase_count(Phase::Drain), 0);
    }

    #[test]
    fn out_of_range_kind_clamps_to_last_bucket() {
        let mut p = KernelProfiler::new(&["only"]);
        p.record_event(99, 0);
        assert_eq!(p.snapshot(None).kind_counts, vec![1]);
    }

    #[test]
    fn clock_is_monotonic_enough_for_deltas() {
        let p = KernelProfiler::new(&["e"]);
        let a = p.clock_ns();
        let b = p.clock_ns();
        assert!(b >= a, "elapsed-ns deltas must not go backwards");
    }

    #[test]
    fn phase_add_accumulates() {
        let mut p = KernelProfiler::new(&["e"]);
        p.phase_add(Phase::Drain, 0);
        p.phase_add(Phase::Drain, 0);
        p.phase_add(Phase::Schedule, 0);
        let s = p.snapshot(None);
        assert_eq!(s.phase_count(Phase::Drain), 2);
        assert_eq!(s.phase_count(Phase::Schedule), 1);
    }
}
