//! Online millibottleneck detection over streaming window samples.
//!
//! The post-hoc path (`spans::TraceLog`) explains a run after it ends;
//! this module flags millibottlenecks **while they happen**, from the
//! same per-window integer deltas the telemetry registry carries. The
//! key identity it leans on: the CPU model accrues `iowait_core_micros`
//! at full-core rate during *any* freeze (page-flush or GC), so a
//! strictly positive per-window iowait delta holds **iff** a freeze
//! overlapped that window. That makes the online frozen-window set
//! provably equal to the window set the post-hoc stall log overlaps —
//! an equality the integration tests assert on the paper scenarios.
//!
//! Per window and server the detector raises three kinds of flag:
//!
//! * **iowait-saturated** — the window's iowait delta is positive (a
//!   freeze overlapped it);
//! * **queue-spike** — the sampled queue depth reached
//!   [`QUEUE_SPIKE_THRESHOLD`] (the queuing amplification the paper
//!   traces from a millibottleneck to upstream tiers);
//! * **frozen-backend** — iowait positive *and* no busy time *and* work
//!   queued: the server sat fully stalled with requests waiting.
//!
//! Consecutive frozen windows on one server merge into a window-aligned
//! [`StallWindow`]. The stall kind is classified online from the dirty
//! page gauge: the page cache only shrinks when a flush completes, so a
//! frozen run that saw the dirty level drop (during the run or at the
//! sample that closes it) is a [`StallKind::Flush`]; one whose dirty
//! level never dropped is a [`StallKind::Gc`].

use mlb_simkernel::time::SimDuration;

use crate::spans::{StallKind, StallWindow};

/// Queue depth at or above which a window is flagged
/// [`FlagKind::QueueSpike`]: roughly 1.5–2× the per-tier service
/// capacity in the paper configs, deep enough that steady-state queues
/// stay quiet.
pub const QUEUE_SPIKE_THRESHOLD: u64 = 100;

/// Which in-stream signal fired for a `(server, window)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// Positive iowait delta: a freeze overlapped the window.
    IowaitSaturated,
    /// Sampled queue depth reached [`QUEUE_SPIKE_THRESHOLD`].
    QueueSpike,
    /// Frozen with zero busy time and work queued — a fully stalled
    /// backend, the paper's worst case.
    FrozenBackend,
}

impl FlagKind {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            FlagKind::IowaitSaturated => "iowait-saturated",
            FlagKind::QueueSpike => "queue-spike",
            FlagKind::FrozenBackend => "frozen-backend",
        }
    }
}

/// One raised flag: server slot, window ordinal, and signal kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorFlag {
    /// Server slot (detector label order).
    pub server: usize,
    /// Window ordinal (window `w` covers `[w·W, (w+1)·W)`).
    pub window: u64,
    /// Which signal fired.
    pub kind: FlagKind,
}

/// Per-server run state while a freeze is being tracked.
#[derive(Debug, Clone)]
struct ServerState {
    /// First window of the open frozen run, if one is open.
    run_start: Option<u64>,
    /// Last window observed frozen in the open run.
    run_last: u64,
    /// Whether the dirty level dropped since the run opened.
    saw_dirty_drop: bool,
    /// Dirty level at the previous observation (any window).
    prev_dirty: Option<u64>,
}

impl ServerState {
    fn new() -> Self {
        ServerState {
            run_start: None,
            run_last: 0,
            saw_dirty_drop: false,
            prev_dirty: None,
        }
    }
}

/// Streaming millibottleneck detector fed one observation per server
/// per closed window.
#[derive(Debug)]
pub struct MillibottleneckDetector {
    window: SimDuration,
    labels: Vec<String>,
    state: Vec<ServerState>,
    stalls: Vec<StallWindow>,
    flags: Vec<DetectorFlag>,
    last_window: Option<u64>,
}

impl MillibottleneckDetector {
    /// Creates a detector for the given server labels ("apache1",
    /// "tomcat2", "mysql", …) observing windows of width `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration, labels: Vec<String>) -> Self {
        assert!(window.as_micros() > 0, "detector window must be positive");
        let state = labels.iter().map(|_| ServerState::new()).collect();
        MillibottleneckDetector {
            window,
            labels,
            state,
            stalls: Vec::new(),
            flags: Vec::new(),
            last_window: None,
        }
    }

    /// Highest window ordinal observed so far.
    pub fn last_window(&self) -> Option<u64> {
        self.last_window
    }

    /// Feeds the closed window `window` for server slot `server`.
    ///
    /// `iowait_delta_us` and `busy_delta_us` are the integer differences
    /// of the cumulative core-µs counters across the window;
    /// `queue_depth` and `dirty_bytes` are levels sampled at window
    /// close. Observations must arrive in nondecreasing window order.
    pub fn observe(
        &mut self,
        window: u64,
        server: usize,
        iowait_delta_us: u64,
        busy_delta_us: u64,
        queue_depth: u64,
        dirty_bytes: u64,
    ) {
        debug_assert!(
            self.last_window.is_none_or(|w| window >= w),
            "detector observations went backwards"
        );
        self.last_window = Some(self.last_window.map_or(window, |w| w.max(window)));

        let dropped = self.state[server]
            .prev_dirty
            .is_some_and(|prev| dirty_bytes < prev);
        self.state[server].prev_dirty = Some(dirty_bytes);

        if queue_depth >= QUEUE_SPIKE_THRESHOLD {
            self.flags.push(DetectorFlag {
                server,
                window,
                kind: FlagKind::QueueSpike,
            });
        }

        if iowait_delta_us > 0 {
            self.flags.push(DetectorFlag {
                server,
                window,
                kind: FlagKind::IowaitSaturated,
            });
            if busy_delta_us == 0 && queue_depth > 0 {
                self.flags.push(DetectorFlag {
                    server,
                    window,
                    kind: FlagKind::FrozenBackend,
                });
            }
            let st = &mut self.state[server];
            if st.run_start.is_none() {
                st.run_start = Some(window);
                st.saw_dirty_drop = false;
            }
            st.run_last = window;
            st.saw_dirty_drop |= dropped;
        } else if self.state[server].run_start.is_some() {
            // The freeze ended before this window: close the run. A
            // flush's dirty drop can surface at the sample that closes
            // the run (flush end on a window boundary), so fold in this
            // observation's drop before classifying.
            let saw_drop = self.state[server].saw_dirty_drop || dropped;
            self.close_run(server, saw_drop);
        }
    }

    fn close_run(&mut self, server: usize, saw_dirty_drop: bool) {
        let st = &mut self.state[server];
        let Some(first) = st.run_start.take() else {
            return;
        };
        let last = st.run_last;
        let kind = if saw_dirty_drop {
            StallKind::Flush
        } else {
            StallKind::Gc
        };
        let w = self.window.as_micros();
        self.stalls.push(StallWindow {
            server: self.labels[server].clone(),
            kind,
            start: mlb_simkernel::time::SimTime::from_micros(first * w),
            end: mlb_simkernel::time::SimTime::from_micros((last + 1) * w),
        });
    }

    /// Closes any frozen runs still open (end of stream).
    pub fn finish(&mut self) {
        for server in 0..self.state.len() {
            let saw = self.state[server].saw_dirty_drop;
            self.close_run(server, saw);
        }
    }

    /// Window-aligned stall windows detected so far, in close order.
    pub fn stalls(&self) -> &[StallWindow] {
        &self.stalls
    }

    /// All raised flags, in observation order.
    pub fn flags(&self) -> &[DetectorFlag] {
        &self.flags
    }

    /// The set of window ordinals a server was observed frozen in
    /// (sorted, deduplicated), reconstructed from the raised
    /// [`FlagKind::FrozenBackend`] flags.
    pub fn frozen_windows(&self, server: usize) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .flags
            .iter()
            .filter(|f| f.server == server && f.kind == FlagKind::FrozenBackend)
            .map(|f| f.window)
            .collect();
        // Flags from interleaved servers are not guaranteed adjacent in
        // the stream, so sort before deduplicating.
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The flags raised at or after index `from` in raise order — a
    /// drain cursor for consumers that react to new flags between calls
    /// (e.g. detector-driven routing).
    pub fn flags_since(&self, from: usize) -> &[DetectorFlag] {
        &self.flags[from.min(self.flags.len())..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> MillibottleneckDetector {
        MillibottleneckDetector::new(
            SimDuration::from_millis(50),
            vec!["tomcat1".to_owned(), "mysql".to_owned()],
        )
    }

    #[test]
    fn consecutive_frozen_windows_merge_into_one_stall() {
        let mut d = detector();
        d.observe(0, 0, 0, 40_000, 2, 1_000);
        d.observe(1, 0, 30_000, 10_000, 5, 2_000);
        d.observe(2, 0, 50_000, 0, 9, 2_000);
        d.observe(3, 0, 0, 40_000, 1, 500); // dirty dropped at close
        d.finish();
        assert_eq!(d.stalls().len(), 1);
        let s = &d.stalls()[0];
        assert_eq!(s.server, "tomcat1");
        assert_eq!(s.kind, StallKind::Flush);
        assert_eq!(s.start.as_micros(), 50_000);
        assert_eq!(s.end.as_micros(), 150_000);
        // Window 1 saw iowait but still burned busy time, so only
        // window 2 was fully frozen.
        assert_eq!(d.frozen_windows(0), vec![2]);
    }

    #[test]
    fn frozen_windows_reports_frozen_flags_not_iowait() {
        // Regression: the filter used to match `IowaitSaturated`, so an
        // iowait-only window (busy time still accruing) was wrongly
        // reported as frozen, and the windows of a server whose flags
        // interleave with another server's were returned unsorted
        // relative to dedup.
        let mut d = detector();
        d.observe(0, 0, 20_000, 15_000, 3, 100); // iowait, NOT frozen
        d.observe(1, 0, 50_000, 0, 4, 100); // frozen
        d.observe(1, 1, 50_000, 0, 7, 100); // other server, frozen
        d.observe(2, 0, 50_000, 0, 4, 100); // frozen
        d.observe(2, 1, 0, 40_000, 0, 100);
        d.observe(3, 0, 0, 40_000, 0, 100);
        d.finish();
        assert_eq!(d.frozen_windows(0), vec![1, 2]);
        assert_eq!(d.frozen_windows(1), vec![1]);
    }

    #[test]
    fn flags_since_is_a_drain_cursor() {
        let mut d = detector();
        d.observe(0, 0, 50_000, 0, 4, 100); // iowait + frozen
        let first = d.flags().len();
        assert_eq!(first, 2);
        d.observe(1, 1, 0, 40_000, 250, 100); // queue spike on mysql
        let new: Vec<FlagKind> = d.flags_since(first).iter().map(|f| f.kind).collect();
        assert_eq!(new, vec![FlagKind::QueueSpike]);
        assert!(d.flags_since(d.flags().len()).is_empty());
        assert!(d.flags_since(usize::MAX).is_empty());
    }

    #[test]
    fn run_with_no_dirty_drop_classifies_as_gc() {
        let mut d = detector();
        d.observe(0, 0, 0, 40_000, 0, 1_000);
        d.observe(1, 0, 50_000, 0, 3, 1_000);
        d.observe(2, 0, 0, 40_000, 0, 1_500); // dirty grew after thaw
        d.finish();
        assert_eq!(d.stalls().len(), 1);
        assert_eq!(d.stalls()[0].kind, StallKind::Gc);
    }

    #[test]
    fn open_run_is_closed_by_finish() {
        let mut d = detector();
        d.observe(0, 1, 10_000, 0, 0, 0);
        d.observe(1, 1, 10_000, 0, 0, 0);
        d.finish();
        assert_eq!(d.stalls().len(), 1);
        assert_eq!(d.stalls()[0].server, "mysql");
        assert_eq!(d.stalls()[0].end.as_micros(), 100_000);
    }

    #[test]
    fn flags_cover_the_three_signals() {
        let mut d = detector();
        // Frozen with queue: iowait + frozen-backend.
        d.observe(0, 0, 50_000, 0, 4, 100);
        // Quiet but deep queue: queue-spike only.
        d.observe(1, 0, 0, 40_000, 250, 100);
        d.finish();
        let kinds: Vec<FlagKind> = d.flags().iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlagKind::IowaitSaturated,
                FlagKind::FrozenBackend,
                FlagKind::QueueSpike
            ]
        );
    }

    #[test]
    fn interleaved_servers_keep_independent_runs() {
        let mut d = detector();
        d.observe(0, 0, 10_000, 0, 1, 10);
        d.observe(0, 1, 0, 50_000, 0, 0);
        d.observe(1, 0, 10_000, 0, 1, 5); // drop seen mid-run
        d.observe(1, 1, 20_000, 0, 2, 0);
        d.observe(2, 0, 0, 40_000, 0, 5);
        d.observe(2, 1, 0, 40_000, 0, 0);
        d.finish();
        assert_eq!(d.stalls().len(), 2);
        assert_eq!(d.stalls()[0].server, "tomcat1");
        assert_eq!(d.stalls()[0].kind, StallKind::Flush);
        assert_eq!(d.stalls()[1].server, "mysql");
        assert_eq!(d.stalls()[1].kind, StallKind::Gc);
    }
}
