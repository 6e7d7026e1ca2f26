//! The simulation driver.
//!
//! A simulation is a [`Model`] (all mutable world state plus an event
//! handler) driven by a [`Simulation`] loop that pops events from an
//! [`EventQueue`] in timestamp order. The handler
//! receives a [`Scheduler`] through which it books future events.
//!
//! ```
//! use mlb_simkernel::sim::{Model, Scheduler, Simulation};
//! use mlb_simkernel::time::{SimDuration, SimTime};
//!
//! /// Counts ticks of a periodic timer.
//! struct Clock {
//!     ticks: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Model for Clock {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
//!         match event {
//!             Ev::Tick => {
//!                 self.ticks += 1;
//!                 if self.ticks < 5 {
//!                     sched.after(SimDuration::from_millis(10), Ev::Tick);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Clock { ticks: 0 });
//! sim.schedule(SimTime::ZERO, Ev::Tick);
//! let report = sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.model().ticks, 5);
//! assert_eq!(report.events_processed, 5);
//! ```

use crate::prof::{KernelProfile, KernelProfiler, Phase};
use crate::queue::{EventQueue, InstantBatch};
use crate::time::{SimDuration, SimTime};

/// The world state of a simulation together with its event handler.
///
/// Implementors own all mutable state; the kernel owns time. `handle` is
/// called once per event, in global timestamp order with FIFO tie-breaking.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Processes one event occurring at `now`, scheduling any follow-up
    /// events through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// Stable names for the model's event kinds, indexed by
    /// [`Model::event_kind`]. Only consulted when profiling is enabled
    /// ([`Simulation::enable_profiling`]); the default lumps everything
    /// into one bucket.
    fn event_kind_names() -> &'static [&'static str] {
        &["event"]
    }

    /// Classifies an event into an index of [`Model::event_kind_names`].
    /// Must be a pure function of the event (no state, no randomness) so
    /// that profiles stay deterministic. Out-of-range indices are clamped
    /// to the last name.
    fn event_kind(_event: &Self::Event) -> usize {
        0
    }
}

/// Handle through which a [`Model`] books future events while one is being
/// processed.
///
/// Scheduling into the past is a logic error and panics, because it would
/// silently violate causality.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    halt: &'a mut bool,
    /// Same-instant events already drained out of the queue but not yet
    /// handled; counted so [`Scheduler::pending`] reports exactly what a
    /// one-pop-at-a-time loop would.
    batch_pending: usize,
    /// Profiler hooks, present only when the owning simulation enabled
    /// profiling. Timing a push never influences where it lands.
    prof: Option<&'a mut KernelProfiler>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The timestamp of the event currently being processed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pushes into the queue, attributing the push's wall time to the
    /// `Schedule` phase when profiling is on. Both paths execute the
    /// exact same queue operation.
    fn push_profiled(&mut self, at: SimTime, event: E) {
        match self.prof.as_deref_mut() {
            Some(prof) => {
                let t0 = prof.clock_ns();
                self.queue.push(at, event);
                prof.phase_add(Phase::Schedule, t0);
            }
            None => self.queue.push(at, event),
        }
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Scheduler::now`].
    pub fn at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.push_profiled(at, event);
    }

    /// Schedules `event` to occur `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.push_profiled(self.now + delay, event);
    }

    /// Schedules `event` at the current instant (it runs after all events
    /// already queued for this instant, preserving FIFO order).
    pub fn immediately(&mut self, event: E) {
        self.push_profiled(self.now, event);
    }

    /// Requests that the driver stop after the current event completes,
    /// leaving any remaining events in the queue.
    pub fn halt(&mut self) {
        *self.halt = true;
    }

    /// Number of events currently pending (including any events of the
    /// current instant that are drained but not yet handled).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.batch_pending
    }
}

/// Why [`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The horizon was reached; events at or beyond it remain queued.
    HorizonReached,
    /// The event queue drained before the horizon.
    QueueEmpty,
    /// The model called [`Scheduler::halt`].
    Halted,
}

/// Summary of a driver run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events the model handled during this run.
    pub events_processed: u64,
    /// Simulation clock when the run stopped.
    pub end_time: SimTime,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// The event loop: owns the model, the clock and the pending-event set.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    events_processed: u64,
    /// `Some` only after [`Simulation::enable_profiling`]; the unprofiled
    /// path pays one branch per hook and nothing else.
    prof: Option<KernelProfiler>,
    /// The instant being handled by [`Simulation::run_until`]; empty
    /// between calls. Kept here so its allocation survives across calls:
    /// the wheel swaps its ready queue into the batch, so a batch dropped
    /// per call would take the ready queue's grown buffer with it.
    batch: InstantBatch<M::Event>,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation::with_queue(model, EventQueue::new())
    }

    /// Creates a simulation at time zero driving a caller-built queue
    /// (pre-sized, or on a specific [`crate::queue::QueueKind`]). The
    /// queue must be empty.
    pub fn with_queue(model: M, queue: EventQueue<M::Event>) -> Self {
        assert!(queue.is_empty(), "initial event queue must be empty");
        Simulation {
            model,
            queue,
            now: SimTime::ZERO,
            events_processed: 0,
            prof: None,
            batch: InstantBatch::new(),
        }
    }

    /// Turns on kernel self-profiling for all subsequent runs. Profiling
    /// observes — it never changes event order, timestamps, or model
    /// state, so a profiled run is byte-identical to an unprofiled one
    /// (see [`crate::prof`] for the contract).
    pub fn enable_profiling(&mut self) {
        if self.prof.is_none() {
            self.prof = Some(KernelProfiler::new(M::event_kind_names()));
        }
    }

    /// Whether [`Simulation::enable_profiling`] has been called.
    pub fn profiling_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// Snapshot of the kernel profile (with the queue's wheel statistics
    /// attached), or `None` when profiling was never enabled.
    pub fn profile_snapshot(&self) -> Option<KernelProfile> {
        self.prof
            .as_ref()
            .map(|p| p.snapshot(self.queue.wheel_stats()))
    }

    /// The queue's wheel statistics (`None` on the heap backend).
    /// Available without profiling — wheel counters cost nothing to
    /// maintain, so benches can read them on unprofiled runs.
    pub fn wheel_stats(&self) -> Option<crate::queue::WheelStats> {
        self.queue.wheel_stats()
    }

    /// The current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the model (for reading results).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (for pre-run configuration).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Total events handled so far across all runs.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event from outside the model (typically the initial
    /// stimulus).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: M::Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Processes a single event, if one is pending. Returns `true` if an
    /// event was handled.
    pub fn step(&mut self) -> bool {
        let d0 = self.prof.as_ref().map(KernelProfiler::clock_ns);
        match self.queue.pop() {
            Some((time, event)) => {
                if let (Some(prof), Some(d0)) = (self.prof.as_mut(), d0) {
                    prof.phase_add(Phase::Drain, d0);
                }
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                let kind = if self.prof.is_some() {
                    M::event_kind(&event)
                } else {
                    0
                };
                let h0 = self.prof.as_ref().map(KernelProfiler::clock_ns);
                let mut halt = false;
                let mut sched = Scheduler {
                    now: time,
                    queue: &mut self.queue,
                    halt: &mut halt,
                    batch_pending: 0,
                    prof: self.prof.as_mut(),
                };
                self.model.handle(time, event, &mut sched);
                if let (Some(prof), Some(h0)) = (self.prof.as_mut(), h0) {
                    prof.record_event(kind, h0);
                }
                self.events_processed += 1;
                true
            }
            None => false,
        }
    }

    /// Runs until the clock would pass `horizon`, the queue empties, or the
    /// model halts. Events stamped exactly at `horizon` are **not**
    /// processed; the clock is left at `horizon` when the horizon is hit.
    ///
    /// The loop drains the queue one *instant* at a time
    /// ([`EventQueue::drain_instant`]): all events of the earliest
    /// timestamp come out in one queue touch and are handled in FIFO
    /// order. Events the model schedules *at* the instant being processed
    /// land in the queue and are picked up by the next drain, which keeps
    /// the handling order identical to a one-pop-at-a-time loop (their
    /// sequence numbers are larger than every drained event's). On halt,
    /// the unhandled tail of the batch is restored to the queue, so
    /// [`Simulation::pending`] afterwards matches one-pop-at-a-time
    /// semantics exactly.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        let start_count = self.events_processed;
        loop {
            let d0 = self.prof.as_ref().map(KernelProfiler::clock_ns);
            match self.queue.peek_time() {
                None => {
                    return RunReport {
                        events_processed: self.events_processed - start_count,
                        end_time: self.now,
                        reason: StopReason::QueueEmpty,
                    };
                }
                Some(t) if t >= horizon => {
                    self.now = horizon;
                    return RunReport {
                        events_processed: self.events_processed - start_count,
                        end_time: self.now,
                        reason: StopReason::HorizonReached,
                    };
                }
                Some(_) => {
                    let time = self
                        .queue
                        .drain_instant(&mut self.batch)
                        // simlint::allow(panic-hygiene): peek_time() just returned Some and nothing else pops the queue
                        .expect("peeked event vanished");
                    if let (Some(prof), Some(d0)) = (self.prof.as_mut(), d0) {
                        prof.phase_add(Phase::Drain, d0);
                    }
                    self.now = time;
                    while let Some(event) = self.batch.next_event() {
                        let kind = if self.prof.is_some() {
                            M::event_kind(&event)
                        } else {
                            0
                        };
                        let h0 = self.prof.as_ref().map(KernelProfiler::clock_ns);
                        let mut halt = false;
                        let mut sched = Scheduler {
                            now: time,
                            queue: &mut self.queue,
                            halt: &mut halt,
                            batch_pending: self.batch.remaining(),
                            prof: self.prof.as_mut(),
                        };
                        self.model.handle(time, event, &mut sched);
                        if let (Some(prof), Some(h0)) = (self.prof.as_mut(), h0) {
                            prof.record_event(kind, h0);
                        }
                        self.events_processed += 1;
                        if halt {
                            self.queue.restore(&mut self.batch);
                            return RunReport {
                                events_processed: self.events_processed - start_count,
                                end_time: self.now,
                                reason: StopReason::Halted,
                            };
                        }
                    }
                }
            }
        }
    }

    /// Runs until the queue is empty or the model halts.
    pub fn run_to_completion(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        halt_on: Option<u32>,
        respawn: bool,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((now, ev));
            if self.halt_on == Some(ev) {
                sched.halt();
            }
            if self.respawn && ev < 3 {
                sched.after(SimDuration::from_millis(1), ev + 1);
            }
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            halt_on: None,
            respawn: false,
        }
    }

    #[test]
    fn processes_in_order_and_reports() {
        let mut sim = Simulation::new(recorder());
        sim.schedule(SimTime::from_millis(2), 2);
        sim.schedule(SimTime::from_millis(1), 1);
        let report = sim.run_until(SimTime::from_secs(1));
        assert_eq!(report.reason, StopReason::QueueEmpty);
        assert_eq!(report.events_processed, 2);
        assert_eq!(
            sim.model().seen,
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(2), 2)]
        );
    }

    #[test]
    fn horizon_excludes_events_at_horizon() {
        let mut sim = Simulation::new(recorder());
        sim.schedule(SimTime::from_millis(5), 5);
        sim.schedule(SimTime::from_millis(10), 10);
        let report = sim.run_until(SimTime::from_millis(10));
        assert_eq!(report.reason, StopReason::HorizonReached);
        assert_eq!(sim.model().seen.len(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn model_can_chain_events() {
        let mut sim = Simulation::new(Recorder {
            respawn: true,
            ..recorder()
        });
        sim.schedule(SimTime::ZERO, 0);
        sim.run_to_completion();
        let values: Vec<u32> = sim.model().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn halt_stops_immediately() {
        let mut sim = Simulation::new(Recorder {
            halt_on: Some(1),
            ..recorder()
        });
        sim.schedule(SimTime::from_millis(1), 1);
        sim.schedule(SimTime::from_millis(2), 2);
        let report = sim.run_to_completion();
        assert_eq!(report.reason, StopReason::Halted);
        assert_eq!(sim.model().seen.len(), 1);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn halt_mid_instant_restores_the_batch_tail() {
        let mut sim = Simulation::new(Recorder {
            halt_on: Some(1),
            ..recorder()
        });
        let t = SimTime::from_millis(1);
        for ev in 0..4 {
            sim.schedule(t, ev);
        }
        sim.schedule(SimTime::from_millis(2), 9);
        let report = sim.run_to_completion();
        assert_eq!(report.reason, StopReason::Halted);
        assert_eq!(sim.model().seen, vec![(t, 0), (t, 1)]);
        // Events 2 and 3 (same instant) plus event 9 stay pending.
        assert_eq!(sim.pending(), 3);
        // Resuming handles the restored tail first, in the original order.
        sim.model_mut().halt_on = None;
        sim.run_to_completion();
        let values: Vec<u32> = sim.model().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 9]);
    }

    #[test]
    fn scheduler_pending_counts_drained_batch_mates() {
        struct PendingProbe {
            observed: Vec<usize>,
        }
        impl Model for PendingProbe {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, _ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.observed.push(sched.pending());
            }
        }
        let mut sim = Simulation::new(PendingProbe {
            observed: Vec::new(),
        });
        let t = SimTime::from_millis(1);
        for ev in 0..3 {
            sim.schedule(t, ev);
        }
        sim.schedule(SimTime::from_millis(2), 9);
        sim.run_to_completion();
        // Exactly what a one-pop-at-a-time loop reports: the not-yet-handled
        // same-instant events count as pending.
        assert_eq!(sim.model().observed, vec![3, 2, 1, 0]);
    }

    #[test]
    fn step_handles_one_event() {
        let mut sim = Simulation::new(recorder());
        assert!(!sim.step());
        sim.schedule(SimTime::from_millis(1), 9);
        assert!(sim.step());
        assert_eq!(sim.events_processed(), 1);
        assert!(!sim.step());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(recorder());
        sim.schedule(SimTime::from_secs(1), 1);
        sim.run_to_completion();
        sim.schedule(SimTime::ZERO, 2);
    }

    #[test]
    fn scheduler_immediately_preserves_fifo() {
        struct Imm {
            seen: Vec<u32>,
        }
        impl Model for Imm {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.seen.push(ev);
                if ev == 0 {
                    sched.immediately(1);
                    sched.immediately(2);
                }
            }
        }
        let mut sim = Simulation::new(Imm { seen: Vec::new() });
        sim.schedule(SimTime::ZERO, 0);
        sim.run_to_completion();
        assert_eq!(sim.model().seen, vec![0, 1, 2]);
    }

    #[test]
    fn into_model_returns_state() {
        let mut sim = Simulation::new(recorder());
        sim.schedule(SimTime::ZERO, 4);
        sim.run_to_completion();
        let model = sim.into_model();
        assert_eq!(model.seen.len(), 1);
    }

    /// Recorder with a real event-kind vocabulary: evens vs odds.
    struct Kinded {
        seen: Vec<u32>,
    }

    impl Model for Kinded {
        type Event = u32;
        fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push(ev);
            if ev < 6 {
                sched.after(SimDuration::from_millis(1), ev + 1);
            }
        }
        fn event_kind_names() -> &'static [&'static str] {
            &["even", "odd"]
        }
        fn event_kind(event: &u32) -> usize {
            (*event % 2) as usize
        }
    }

    #[test]
    fn profiling_counts_kinds_without_changing_the_run() {
        let run = |profiled: bool| {
            let mut sim = Simulation::new(Kinded { seen: Vec::new() });
            if profiled {
                sim.enable_profiling();
            }
            sim.schedule(SimTime::ZERO, 0);
            let report = sim.run_to_completion();
            let profile = sim.profile_snapshot();
            (sim.into_model().seen, report, profile)
        };
        let (plain_seen, plain_report, plain_profile) = run(false);
        let (prof_seen, prof_report, profile) = run(true);
        assert!(plain_profile.is_none());
        assert_eq!(plain_seen, prof_seen, "profiling changed the event order");
        assert_eq!(plain_report, prof_report, "profiling changed the report");

        let Some(profile) = profile else {
            panic!("profiling was enabled")
        };
        // Events 0..=6: four evens, three odds — pure function of the run.
        assert_eq!(profile.kind_names, &["even", "odd"]);
        assert_eq!(profile.kind_counts, vec![4, 3]);
        assert_eq!(profile.events_total(), 7);
        assert_eq!(profile.phase_count(Phase::Handle), 7);
        // Each handled instant is one drain; six handler pushes.
        assert_eq!(profile.phase_count(Phase::Drain), 7);
        assert_eq!(profile.phase_count(Phase::Schedule), 6);
        assert!(profile.wheel.is_some(), "default queue is the wheel");
    }

    #[test]
    fn step_profiles_too() {
        let mut sim = Simulation::new(Kinded { seen: Vec::new() });
        sim.enable_profiling();
        assert!(sim.profiling_enabled());
        sim.schedule(SimTime::ZERO, 1);
        assert!(sim.step());
        let Some(profile) = sim.profile_snapshot() else {
            panic!("profiling was enabled")
        };
        assert_eq!(profile.kind_counts, vec![0, 1]);
        assert_eq!(profile.phase_count(Phase::Drain), 1);
    }
}
