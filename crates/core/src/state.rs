//! The 3-state backend model (paper Section IV-A).
//!
//! mod_jk assumes every backend is in one of three states:
//!
//! 1. **Available** — able to process requests;
//! 2. **Busy** — all connections in use; skipped by selection;
//! 3. **Error** — unreachable; skipped until a recovery timeout elapses.
//!
//! The paper's mechanism-level finding is that a backend in a
//! millibottleneck fits none of these: it *looks* Available (TCP accepts,
//! pool may have free endpoints) while processing nothing. The original
//! `get_endpoint` keeps it Available throughout its polling loop; the
//! remedy ([`crate::mechanism::MechanismKind::SkipToBusy`]) pushes it to
//! Busy on the first failed acquisition.
//!
//! Busy and Error are held with timestamps and expire lazily: state is
//! always queried *at* a time ([`BackendState::effective`]), never stored
//! stale.

use crate::config::BalancerConfig;
use mlb_simkernel::time::SimTime;

/// The observable state of a backend at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Selectable.
    Available,
    /// Skipped: recently failed to hand out an endpoint.
    Busy,
    /// Skipped: escalated after repeated failures; recovering.
    Error,
}

/// Per-backend state bookkeeping with lazy expiry.
///
/// Failures are counted per **episode**: all failures landing within one
/// `busy_hold` window of the episode's first failure count as a single
/// observation of unavailability. (Without this, a burst of simultaneous
/// probe timeouts — one per in-flight request — would escalate a healthy
/// server straight to Error.)
#[derive(Debug, Clone, Default)]
pub struct BackendState {
    busy_since: Option<SimTime>,
    error_since: Option<SimTime>,
    episode_start: Option<SimTime>,
    consecutive_failures: u32,
    // lifetime counters
    busy_marks: u64,
    error_marks: u64,
}

impl BackendState {
    /// A fresh, Available backend.
    pub fn new() -> Self {
        BackendState::default()
    }

    /// The state in effect at `now` under `cfg`'s hold/recovery windows.
    pub fn effective(&self, now: SimTime, cfg: &BalancerConfig) -> WorkerState {
        if let Some(since) = self.error_since {
            if now.saturating_since(since) < cfg.error_recover {
                return WorkerState::Error;
            }
        }
        if let Some(since) = self.busy_since {
            if now.saturating_since(since) < cfg.busy_hold {
                return WorkerState::Busy;
            }
        }
        WorkerState::Available
    }

    /// The first instant the backend is Available again under `cfg`, or
    /// [`SimTime::ZERO`] when it carries no mark. At every `now` from the
    /// last mark up to (not including) [`SimTime::MAX`],
    /// `now >= self.available_at(cfg)` is exactly
    /// `self.effective(now, cfg) == WorkerState::Available`. The adds
    /// saturate, so an endless hold reads as `SimTime::MAX`, never as a
    /// wrapped early instant.
    pub fn available_at(&self, cfg: &BalancerConfig) -> SimTime {
        let until = |since: Option<SimTime>, hold| {
            since.map_or(SimTime::ZERO, |s: SimTime| s.saturating_add(hold))
        };
        until(self.error_since, cfg.error_recover).max(until(self.busy_since, cfg.busy_hold))
    }

    /// Records a failed endpoint acquisition: Available → Busy, and after
    /// [`BalancerConfig::error_threshold`] consecutive failure *episodes*
    /// (bursts within one `busy_hold` window count once), Busy → Error.
    pub fn mark_failed(&mut self, now: SimTime, cfg: &BalancerConfig) {
        self.busy_since = Some(now);
        self.busy_marks += 1;
        let same_episode = matches!(
            self.episode_start,
            Some(start) if now.saturating_since(start) < cfg.busy_hold
        );
        if !same_episode {
            self.episode_start = Some(now);
            self.consecutive_failures += 1;
            if self.consecutive_failures >= cfg.error_threshold {
                self.error_since = Some(now);
                self.error_marks += 1;
            }
        }
    }

    /// Records proof of life (successful acquisition or a response):
    /// clears Busy/Error and the failure streak.
    pub fn mark_alive(&mut self) {
        self.consecutive_failures = 0;
        self.busy_since = None;
        self.error_since = None;
        self.episode_start = None;
    }

    /// Consecutive failed acquisitions since the last sign of life.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Lifetime count of Busy transitions.
    pub fn busy_marks(&self) -> u64 {
        self.busy_marks
    }

    /// Lifetime count of Error transitions.
    pub fn error_marks(&self) -> u64 {
        self.error_marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BalancerConfig;
    use mlb_simkernel::time::SimDuration;
    use proptest::prelude::*;

    fn cfg() -> BalancerConfig {
        BalancerConfig {
            busy_hold: SimDuration::from_millis(100),
            error_threshold: 3,
            error_recover: SimDuration::from_secs(60),
            ..BalancerConfig::default()
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn starts_available() {
        let s = BackendState::new();
        assert_eq!(s.effective(t(0), &cfg()), WorkerState::Available);
    }

    #[test]
    fn busy_expires_after_hold() {
        let c = cfg();
        let mut s = BackendState::new();
        s.mark_failed(t(10), &c);
        assert_eq!(s.effective(t(50), &c), WorkerState::Busy);
        assert_eq!(s.effective(t(109), &c), WorkerState::Busy);
        assert_eq!(s.effective(t(110), &c), WorkerState::Available);
    }

    #[test]
    fn repeated_failures_escalate_to_error() {
        let c = cfg();
        let mut s = BackendState::new();
        s.mark_failed(t(0), &c);
        s.mark_failed(t(100), &c);
        assert_eq!(s.effective(t(150), &c), WorkerState::Busy);
        s.mark_failed(t(200), &c); // third consecutive → Error
        assert_eq!(s.effective(t(250), &c), WorkerState::Error);
        assert_eq!(s.error_marks(), 1);
    }

    #[test]
    fn error_recovers_after_timeout() {
        let c = cfg();
        let mut s = BackendState::new();
        for i in 0..3 {
            s.mark_failed(t(i * 200), &c); // distinct episodes (hold = 100 ms)
        }
        assert_eq!(s.effective(t(30_000), &c), WorkerState::Error);
        // error_recover is 60 s from the escalating failure at t = 400 ms.
        assert_eq!(s.effective(t(60_401), &c), WorkerState::Available);
    }

    #[test]
    fn failure_bursts_count_as_one_episode() {
        // Ten simultaneous probe timeouts must NOT escalate to Error.
        let c = cfg(); // error_threshold = 3
        let mut s = BackendState::new();
        for _ in 0..10 {
            s.mark_failed(t(50), &c);
        }
        assert_eq!(s.consecutive_failures(), 1);
        assert_eq!(s.effective(t(60), &c), WorkerState::Busy);
        assert_eq!(s.effective(t(200), &c), WorkerState::Available);
        // A second burst in a later window is a second episode.
        for _ in 0..5 {
            s.mark_failed(t(300), &c);
        }
        assert_eq!(s.consecutive_failures(), 2);
    }

    #[test]
    fn alive_clears_everything() {
        let c = cfg();
        let mut s = BackendState::new();
        s.mark_failed(t(0), &c);
        s.mark_failed(t(1), &c);
        s.mark_alive();
        assert_eq!(s.consecutive_failures(), 0);
        assert_eq!(s.effective(t(2), &c), WorkerState::Available);
        // The streak restarts from scratch.
        s.mark_failed(t(3), &c);
        assert_eq!(s.effective(t(4), &c), WorkerState::Busy);
        assert_eq!(s.effective(t(200), &c), WorkerState::Available);
    }

    #[test]
    fn busy_marks_counted() {
        let c = cfg();
        let mut s = BackendState::new();
        s.mark_failed(t(0), &c);
        s.mark_alive();
        s.mark_failed(t(5), &c);
        assert_eq!(s.busy_marks(), 2);
    }

    /// `available_at` against `effective` at the instants that matter
    /// for one state: the last mark, one before and at each hold's end,
    /// a far instant, and `SimTime::MAX - 1`.
    fn check_available_at(s: &BackendState, c: &BalancerConfig, last_mark: SimTime) {
        let at = s.available_at(c);
        let ends = [
            s.busy_since.map(|t| t.saturating_add(c.busy_hold)),
            s.error_since.map(|t| t.saturating_add(c.error_recover)),
        ];
        let mut probes = vec![
            last_mark,
            last_mark.saturating_add(SimDuration::from_micros(1)),
        ];
        for end in ends.into_iter().flatten() {
            probes.push(end);
            probes.push(SimTime::from_micros(end.as_micros().saturating_sub(1)));
        }
        probes.push(last_mark.saturating_add(SimDuration::from_secs(3_600)));
        probes.push(SimTime::from_micros(u64::MAX - 1));
        for now in probes
            .into_iter()
            .filter(|&now| now >= last_mark && now < SimTime::MAX)
        {
            assert_eq!(
                now >= at,
                s.effective(now, c) == WorkerState::Available,
                "now={now:?} available_at={at:?} state={s:?}"
            );
        }
        // Saturation: an endless hold is endless, never a wrapped instant.
        if s.busy_since.is_some() && c.busy_hold == SimDuration::MAX
            || s.error_since.is_some() && c.error_recover == SimDuration::MAX
        {
            assert_eq!(at, SimTime::MAX);
        }
        if s.busy_since.is_none() && s.error_since.is_none() {
            assert_eq!(at, SimTime::ZERO);
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn available_at_agrees_with_effective(
            holds in (
                proptest::sample::select(vec![0u64, 1, 100, 2_500, u64::MAX]),
                proptest::sample::select(vec![0u64, 1, 100, 7_000, u64::MAX]),
                1u32..4,
            ),
            start in proptest::sample::select(vec![0u64, 1, 50_000, u64::MAX - 10_000]),
            // Each mark: the gap since the previous one (µs) and whether
            // it is a failure (`true`) or a proof of life (`false`).
            marks in proptest::collection::vec(
                (
                    proptest::sample::select(vec![0u64, 1, 99, 100, 101, 2_499, 2_500, 9_000]),
                    proptest::sample::select(vec![true, true, true, false]),
                ),
                1..24,
            ),
        ) {
            let (busy_hold, error_recover, error_threshold) = holds;
            let c = BalancerConfig {
                busy_hold: SimDuration::from_micros(busy_hold),
                error_recover: SimDuration::from_micros(error_recover),
                error_threshold,
                ..BalancerConfig::default()
            };
            let mut s = BackendState::new();
            let mut now = SimTime::from_micros(start);
            check_available_at(&s, &c, now);
            for &(gap, failed) in &marks {
                now = now.saturating_add(SimDuration::from_micros(gap));
                if failed {
                    s.mark_failed(now, &c);
                } else {
                    s.mark_alive();
                }
                check_available_at(&s, &c, now);
            }
        }
    }

    #[test]
    fn available_at_saturates_endless_holds() {
        let c = BalancerConfig {
            busy_hold: SimDuration::MAX,
            error_recover: SimDuration::MAX,
            error_threshold: 1,
            ..BalancerConfig::default()
        };
        let mut s = BackendState::new();
        s.mark_failed(t(5), &c);
        assert_eq!(s.effective(t(5), &c), WorkerState::Error);
        assert_eq!(s.available_at(&c), SimTime::MAX);
        let zero_hold = BalancerConfig {
            busy_hold: SimDuration::ZERO,
            ..cfg()
        };
        let mut s = BackendState::new();
        s.mark_failed(t(5), &zero_hold);
        assert_eq!(s.available_at(&zero_hold), t(5));
        assert_eq!(s.effective(t(5), &zero_hold), WorkerState::Available);
    }
}
