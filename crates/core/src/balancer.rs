//! The balancer facade: mod_jk's two-level scheduler.
//!
//! [`Balancer`] combines a policy ([`LbValues`]), the 3-state backend
//! model ([`BackendState`]) and a mechanism
//! ([`MechanismKind`](crate::mechanism::MechanismKind)) behind the small
//! set of callbacks an event-driven server model needs:
//!
//! 1. [`Balancer::select`] — pick the Available candidate with minimum
//!    lb_value (round-robin among ties);
//! 2. the driver attempts a pool acquisition for the chosen candidate;
//! 3. on failure, [`Balancer::endpoint_failed`] returns the mechanism's
//!    advice — keep polling (original) or mark Busy and reselect (remedy);
//! 4. on success, [`Balancer::endpoint_acquired`]; when the response
//!    arrives, [`Balancer::response_received`].
//!
//! The balancer is deliberately free of any simulator dependency: it is
//! pure decision logic, driven entirely through these callbacks, which is
//! what makes the paper's instability analyzable in isolation (see the
//! crate-level example).

use crate::config::BalancerConfig;
use crate::mechanism::{advice, EndpointAdvice};
use crate::policy::{LbValues, PolicyKind};
use crate::state::{BackendState, WorkerState};
use crate::types::BackendId;
use mlb_simkernel::time::{SimDuration, SimTime};
use std::error::Error;
use std::fmt;

/// Error returned when a [`BalancerConfig`] fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfigError {
    message: String,
}

impl fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid balancer config: {}", self.message)
    }
}

impl Error for InvalidConfigError {}

/// Lifetime counters of one balancer instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancerStats {
    /// Successful selections.
    pub selections: u64,
    /// Selections that found no eligible candidate.
    pub no_candidate: u64,
    /// Endpoint acquisitions per backend.
    pub assignments: Vec<u64>,
    /// Responses received per backend.
    pub completions: Vec<u64>,
    /// Failed acquisitions answered with "retry" (original mechanism).
    pub retries_advised: u64,
    /// Failed acquisitions answered with "give up" (→ Busy mark).
    pub giveups: u64,
    /// Requests aborted after assignment (e.g. retransmitted).
    pub aborts: u64,
    /// CPing probes that timed out (ProbeFirst mechanism).
    pub probe_failures: u64,
    /// Selections where a detector stall signal vetoed at least one
    /// otherwise-eligible backend (DetectorDriven policy only).
    pub stall_vetoes: u64,
}

impl BalancerStats {
    fn new(backends: usize) -> Self {
        BalancerStats {
            selections: 0,
            no_candidate: 0,
            assignments: vec![0; backends],
            completions: vec![0; backends],
            retries_advised: 0,
            giveups: 0,
            aborts: 0,
            probe_failures: 0,
            stall_vetoes: 0,
        }
    }
}

/// One Apache worker process's load balancer over a set of Tomcat
/// backends.
///
/// # Examples
///
/// The millibottleneck instability in eight lines — backend 0 freezes,
/// and under `total_request` every subsequent pick lands on it:
///
/// ```
/// use mlb_core::prelude::*;
/// use mlb_simkernel::time::{SimDuration, SimTime};
///
/// let cfg = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original);
/// let mut lb = Balancer::new(cfg, 4).unwrap();
/// let now = SimTime::ZERO;
///
/// // Healthy traffic: backends 1-3 complete requests, backend 0 is frozen
/// // by a millibottleneck and completes nothing.
/// for b in 1..4 {
///     lb.endpoint_acquired(now, BackendId(b));
///     lb.response_received(now, BackendId(b), 1_000, SimDuration::from_millis(3));
/// }
/// // Every new selection now lands on the frozen backend — the instability.
/// for _ in 0..5 {
///     assert_eq!(lb.select(now, &[false; 4]), Some(BackendId(0)));
///     lb.endpoint_acquired(now, BackendId(0));
///     // ...no response ever arrives while it is frozen...
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Balancer {
    config: BalancerConfig,
    lb: LbValues,
    states: Vec<BackendState>,
    /// `states[i].available_at(&config)`, kept dense so a selection
    /// reads one contiguous array instead of every `BackendState`.
    available_at: Vec<SimTime>,
    /// Per-backend stall signal from the online millibottleneck
    /// detector; consulted only by [`PolicyKind::DetectorDriven`].
    stall_signals: Vec<bool>,
    rr_cursor: usize,
    last_decay: SimTime,
    stats: BalancerStats,
}

impl Balancer {
    /// Creates a balancer over `backends` candidates.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] if the configuration fails
    /// [`BalancerConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics if `backends` is zero.
    pub fn new(config: BalancerConfig, backends: usize) -> Result<Self, InvalidConfigError> {
        config
            .validate()
            .map_err(|message| InvalidConfigError { message })?;
        assert!(backends > 0, "need at least one backend");
        if let Some(w) = &config.weights {
            if w.len() != backends {
                return Err(InvalidConfigError {
                    message: format!("{} weights configured for {} backends", w.len(), backends),
                });
            }
        }
        let mut lb = LbValues::with_seed(config.policy, backends, config.lb_mult, config.seed);
        if let Some(w) = &config.weights {
            lb.set_weights(w);
        }
        Ok(Balancer {
            lb,
            states: vec![BackendState::new(); backends],
            available_at: vec![SimTime::ZERO; backends],
            stall_signals: vec![false; backends],
            rr_cursor: 0,
            last_decay: SimTime::ZERO,
            stats: BalancerStats::new(backends),
            config,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &BalancerConfig {
        &self.config
    }

    /// Number of backends.
    pub fn backends(&self) -> usize {
        self.lb.len()
    }

    /// Current lb_value per backend (index = backend index).
    pub fn lb_values(&self) -> &[u64] {
        self.lb.values()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &BalancerStats {
        &self.stats
    }

    /// The 3-state view of one backend at `now`.
    pub fn state_of(&self, now: SimTime, b: BackendId) -> WorkerState {
        self.states[b.0].effective(now, &self.config)
    }

    /// Sets or clears the online detector's stall signal for backend
    /// `b`. A signalled backend is vetoed from selection under
    /// [`PolicyKind::DetectorDriven`] until the signal clears (the
    /// driver clears it on the first flag-free detector window — the
    /// deterministic re-admission rule). Other policies ignore signals.
    pub fn signal_stall(&mut self, b: BackendId, stalled: bool) {
        self.stall_signals[b.0] = stalled;
    }

    /// The stall signals currently in force (index = backend index).
    pub fn stall_signals(&self) -> &[bool] {
        &self.stall_signals
    }

    /// Picks the next candidate: the Available backend with minimum
    /// lb_value, round-robin among ties, skipping any backend marked
    /// `true` in `exclude` (candidates this request already gave up on).
    ///
    /// Returns `None` when every backend is Busy/Error/excluded.
    ///
    /// # Panics
    ///
    /// Panics if `exclude.len()` differs from the backend count.
    pub fn select(&mut self, now: SimTime, exclude: &[bool]) -> Option<BackendId> {
        assert_eq!(exclude.len(), self.lb.len(), "exclude mask size mismatch");
        self.maybe_decay(now);
        // DetectorDriven vetoes backends inside a flagged stall window.
        // If that would leave no candidate at all, the signals are
        // ignored: ranking by current load among uniformly-stalled
        // backends beats refusing to route.
        let veto = self.config.policy == PolicyKind::DetectorDriven;
        let (available_at, signals) = (&self.available_at, &self.stall_signals);
        let (pick, vetoed) = self.lb.pick(
            self.rr_cursor,
            |i| !exclude[i] && now >= available_at[i],
            |i| veto && signals[i],
        );
        if vetoed {
            self.stats.stall_vetoes += 1;
        }
        match pick {
            Some(b) => {
                self.rr_cursor = (b.0 + 1) % self.lb.len();
                self.stats.selections += 1;
                Some(b)
            }
            None => {
                self.stats.no_candidate += 1;
                None
            }
        }
    }

    /// Reports a failed endpoint acquisition for `b` after `elapsed` of
    /// waiting (zero on the first attempt) and returns the mechanism's
    /// advice. A [`EndpointAdvice::GiveUp`] answer marks the backend Busy
    /// (escalating to Error after repeated streaks).
    pub fn endpoint_failed(
        &mut self,
        now: SimTime,
        b: BackendId,
        elapsed: SimDuration,
    ) -> EndpointAdvice {
        let a = advice(
            self.config.mechanism,
            elapsed,
            self.config.cache_acquire_timeout,
            self.config.retry_sleep,
        );
        match a {
            EndpointAdvice::RetryAfter(_) => self.stats.retries_advised += 1,
            EndpointAdvice::GiveUp => {
                self.stats.giveups += 1;
                self.states[b.0].mark_failed(now, &self.config);
                self.refresh_available_at(b);
            }
        }
        a
    }

    /// Reports a successful endpoint acquisition: the request is being
    /// sent to `b`. Clears any Busy/Error mark (proof of life) and applies
    /// the policy's assignment hook.
    pub fn endpoint_acquired(&mut self, _now: SimTime, b: BackendId) {
        self.states[b.0].mark_alive();
        self.refresh_available_at(b);
        self.lb.on_assign(b, 0);
        self.stats.assignments[b.0] += 1;
    }

    /// Reports a completed response from `b` carrying `traffic_bytes`
    /// total message size (request + response), observed `latency` after
    /// its assignment (feeds the latency-aware extension policies).
    pub fn response_received(
        &mut self,
        _now: SimTime,
        b: BackendId,
        traffic_bytes: u64,
        latency: SimDuration,
    ) {
        self.states[b.0].mark_alive();
        self.refresh_available_at(b);
        self.lb.on_complete(b, traffic_bytes, latency);
        self.stats.completions[b.0] += 1;
    }

    /// Reports a CPing probe timeout on `b` (ProbeFirst mechanism): the
    /// backend is marked Busy exactly as a failed acquisition would, and
    /// the outstanding count from the aborted assignment is released.
    pub fn probe_failed(&mut self, now: SimTime, b: BackendId) {
        self.stats.probe_failures += 1;
        self.states[b.0].mark_failed(now, &self.config);
        self.refresh_available_at(b);
        self.lb.on_abort(b);
    }

    /// The CPing probe budget configured for this balancer.
    pub fn probe_timeout(&self) -> SimDuration {
        self.config.probe_timeout
    }

    /// `true` if the driver must probe the backend after acquiring an
    /// endpoint and before sending (ProbeFirst mechanism).
    pub fn probes_before_send(&self) -> bool {
        self.config.mechanism.probes_before_send()
    }

    /// Reports that a request assigned to `b` was aborted before any
    /// response (e.g. the client gave up and retransmitted). Releases the
    /// outstanding count under `current_load`.
    pub fn request_aborted(&mut self, b: BackendId) {
        self.lb.on_abort(b);
        self.stats.aborts += 1;
    }

    /// Re-derives the dense `available_at` entry after a state change.
    fn refresh_available_at(&mut self, b: BackendId) {
        self.available_at[b.0] = self.states[b.0].available_at(&self.config);
    }

    fn maybe_decay(&mut self, now: SimTime) {
        if let Some(interval) = self.config.decay_interval {
            while now.saturating_since(self.last_decay) >= interval {
                self.lb.decay();
                self.last_decay += interval;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // intentional: mutate one knob at a time
mod tests {
    use super::*;
    use crate::mechanism::MechanismKind;
    use crate::policy::PolicyKind;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn balancer(policy: PolicyKind, mech: MechanismKind, n: usize) -> Balancer {
        Balancer::new(BalancerConfig::with(policy, mech), n).unwrap()
    }

    const NOEX: [bool; 4] = [false; 4];

    /// Drive one complete request through the balancer.
    fn complete_one(lb: &mut Balancer, now: SimTime, b: BackendId, bytes: u64) {
        lb.endpoint_acquired(now, b);
        lb.response_received(now, b, bytes, SimDuration::from_millis(2));
    }

    #[test]
    fn invalid_config_is_an_error() {
        let mut cfg = BalancerConfig::default();
        cfg.lb_mult = 0;
        let err = Balancer::new(cfg, 4).unwrap_err();
        assert!(err.to_string().contains("lb_mult"));
    }

    #[test]
    fn total_request_balances_evenly_when_healthy() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::Original, 4);
        let mut counts = [0u64; 4];
        for i in 0..400 {
            let now = t(i);
            let b = lb.select(now, &NOEX).unwrap();
            counts[b.0] += 1;
            complete_one(&mut lb, now, b, 1_000);
        }
        assert_eq!(counts, [100, 100, 100, 100]);
        // The paper's observation: healthy lb_values differ by at most 1.
        let values = lb.lb_values();
        let min = values.iter().min().unwrap();
        let max = values.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn total_request_pile_on_during_millibottleneck() {
        // Backend 0 freezes: it still accepts assignments but never
        // completes. Every selection must land on it.
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::Original, 4);
        for i in 0..40 {
            let now = t(i);
            let b = lb.select(now, &NOEX).unwrap();
            if b.0 == 0 {
                lb.endpoint_acquired(now, b); // frozen: no response
            } else {
                complete_one(&mut lb, now, b, 1_000);
            }
        }
        // After warmup the frozen backend's lb_value is pinned at the
        // minimum, so the pile-on is total.
        let picked: Vec<usize> = (40..60)
            .map(|i| {
                let b = lb.select(t(i), &NOEX).unwrap();
                lb.endpoint_acquired(t(i), b);
                b.0
            })
            .collect();
        assert!(picked.iter().all(|&p| p == 0), "picks were {picked:?}");
    }

    #[test]
    fn current_load_avoids_frozen_backend() {
        let mut lb = balancer(PolicyKind::CurrentLoad, MechanismKind::Original, 4);
        // Freeze backend 0 after it absorbs a few requests.
        for i in 0..12 {
            let now = t(i);
            let b = lb.select(now, &NOEX).unwrap();
            lb.endpoint_acquired(now, b);
            if b.0 != 0 {
                lb.response_received(now, b, 1_000, SimDuration::from_millis(2));
            }
        }
        // Backend 0's outstanding count exceeds everyone else's; no new
        // request should pick it.
        for i in 12..40 {
            let b = lb.select(t(i), &NOEX).unwrap();
            assert_ne!(b.0, 0, "current_load picked the frozen backend");
            lb.endpoint_acquired(t(i), b);
            lb.response_received(t(i), b, 1_000, SimDuration::from_millis(2));
        }
    }

    #[test]
    fn total_traffic_follows_bytes() {
        let mut lb = balancer(PolicyKind::TotalTraffic, MechanismKind::Original, 2);
        // Backend 0 serves one huge response; backend 1 small ones.
        complete_one(&mut lb, t(0), BackendId(0), 1_000_000);
        complete_one(&mut lb, t(1), BackendId(1), 100);
        // Selection prefers the low-traffic backend until it catches up.
        for i in 2..10 {
            assert_eq!(lb.select(t(i), &[false, false]), Some(BackendId(1)));
            complete_one(&mut lb, t(i), BackendId(1), 100);
        }
    }

    #[test]
    fn giveup_marks_busy_and_select_skips_it() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::SkipToBusy, 4);
        let b = lb.select(t(0), &NOEX).unwrap();
        assert_eq!(
            lb.endpoint_failed(t(0), b, SimDuration::ZERO),
            EndpointAdvice::GiveUp
        );
        assert_eq!(lb.state_of(t(1), b), WorkerState::Busy);
        // Reselect excludes it naturally (it is Busy).
        let b2 = lb.select(t(1), &NOEX).unwrap();
        assert_ne!(b2, b);
    }

    #[test]
    fn original_mechanism_advises_retries_first() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::Original, 4);
        let b = BackendId(0);
        assert!(matches!(
            lb.endpoint_failed(t(0), b, SimDuration::ZERO),
            EndpointAdvice::RetryAfter(_)
        ));
        // Backend stays Available during the polling loop — the mechanism
        // limitation.
        assert_eq!(lb.state_of(t(50), b), WorkerState::Available);
        assert_eq!(
            lb.endpoint_failed(t(300), b, SimDuration::from_millis(300)),
            EndpointAdvice::GiveUp
        );
        assert_eq!(lb.state_of(t(301), b), WorkerState::Busy);
        assert_eq!(lb.stats().retries_advised, 1);
        assert_eq!(lb.stats().giveups, 1);
    }

    #[test]
    fn busy_expires_and_backend_returns() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::SkipToBusy, 2);
        lb.endpoint_failed(t(0), BackendId(0), SimDuration::ZERO);
        assert_eq!(lb.state_of(t(50), BackendId(0)), WorkerState::Busy);
        assert_eq!(lb.state_of(t(150), BackendId(0)), WorkerState::Available);
    }

    #[test]
    fn response_clears_busy() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::SkipToBusy, 2);
        lb.endpoint_failed(t(0), BackendId(0), SimDuration::ZERO);
        lb.response_received(t(10), BackendId(0), 100, SimDuration::from_millis(2));
        assert_eq!(lb.state_of(t(11), BackendId(0)), WorkerState::Available);
    }

    #[test]
    fn all_busy_yields_none() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::SkipToBusy, 2);
        lb.endpoint_failed(t(0), BackendId(0), SimDuration::ZERO);
        lb.endpoint_failed(t(0), BackendId(1), SimDuration::ZERO);
        assert_eq!(lb.select(t(1), &[false, false]), None);
        assert_eq!(lb.stats().no_candidate, 1);
    }

    #[test]
    fn exclusion_mask_is_respected() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::Original, 4);
        let picked = lb.select(t(0), &[true, true, true, false]).unwrap();
        assert_eq!(picked, BackendId(3));
    }

    #[test]
    fn repeated_streaks_escalate_to_error_and_recover() {
        let mut cfg = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::SkipToBusy);
        cfg.error_threshold = 2;
        cfg.error_recover = SimDuration::from_secs(1);
        let mut lb = Balancer::new(cfg, 2).unwrap();
        lb.endpoint_failed(t(0), BackendId(0), SimDuration::ZERO);
        lb.endpoint_failed(t(200), BackendId(0), SimDuration::ZERO);
        assert_eq!(lb.state_of(t(300), BackendId(0)), WorkerState::Error);
        assert_eq!(lb.state_of(t(1_300), BackendId(0)), WorkerState::Available);
    }

    #[test]
    fn abort_releases_current_load() {
        let mut lb = balancer(PolicyKind::CurrentLoad, MechanismKind::Original, 2);
        lb.endpoint_acquired(t(0), BackendId(0));
        assert_eq!(lb.lb_values(), &[1, 0]);
        lb.request_aborted(BackendId(0));
        assert_eq!(lb.lb_values(), &[0, 0]);
        assert_eq!(lb.stats().aborts, 1);
    }

    #[test]
    fn decay_halves_on_schedule() {
        let mut cfg = BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original);
        cfg.decay_interval = Some(SimDuration::from_secs(1));
        let mut lb = Balancer::new(cfg, 2).unwrap();
        for _ in 0..8 {
            complete_one(&mut lb, t(0), BackendId(0), 0);
        }
        assert_eq!(lb.lb_values()[0], 8);
        lb.select(SimTime::from_secs(1), &[false, false]);
        assert_eq!(lb.lb_values()[0], 4);
        lb.select(SimTime::from_secs(3), &[false, false]);
        assert_eq!(lb.lb_values()[0], 1);
    }

    #[test]
    fn detector_driven_vetoes_signalled_backends() {
        let mut lb = balancer(PolicyKind::DetectorDriven, MechanismKind::Original, 4);
        // Backend 0 is idle (minimum load) but flagged: never picked.
        lb.signal_stall(BackendId(0), true);
        for i in 0..20 {
            let b = lb.select(t(i), &NOEX).unwrap();
            assert_ne!(b.0, 0, "selected a backend inside a stall window");
            complete_one(&mut lb, t(i), b, 100);
        }
        assert!(lb.stats().stall_vetoes >= 20);
        // Flag clears: the idle backend is re-admitted and, as the
        // unique minimum-load candidate, immediately wins again.
        lb.signal_stall(BackendId(0), false);
        for i in 1..4 {
            lb.endpoint_acquired(t(21), BackendId(i));
        }
        assert_eq!(lb.select(t(22), &NOEX), Some(BackendId(0)));
    }

    #[test]
    fn detector_driven_falls_back_when_everything_is_flagged() {
        let mut lb = balancer(PolicyKind::DetectorDriven, MechanismKind::Original, 2);
        lb.signal_stall(BackendId(0), true);
        lb.signal_stall(BackendId(1), true);
        lb.endpoint_acquired(t(0), BackendId(0));
        // All flagged: signals are ignored, current_load ranks.
        assert_eq!(lb.select(t(1), &[false, false]), Some(BackendId(1)));
    }

    #[test]
    fn other_policies_ignore_stall_signals() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::Original, 4);
        lb.signal_stall(BackendId(0), true);
        assert_eq!(lb.select(t(0), &NOEX), Some(BackendId(0)));
        assert_eq!(lb.stats().stall_vetoes, 0);
    }

    #[test]
    fn stats_track_per_backend_counts() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::Original, 4);
        complete_one(&mut lb, t(0), BackendId(2), 10);
        complete_one(&mut lb, t(1), BackendId(2), 10);
        assert_eq!(lb.stats().assignments[2], 2);
        assert_eq!(lb.stats().completions[2], 2);
        assert_eq!(lb.stats().assignments[0], 0);
    }

    #[test]
    #[should_panic(expected = "exclude mask size mismatch")]
    fn wrong_exclude_size_panics() {
        let mut lb = balancer(PolicyKind::TotalRequest, MechanismKind::Original, 4);
        lb.select(t(0), &[false; 3]);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn zero_backends_panics() {
        let _ = Balancer::new(BalancerConfig::default(), 0);
    }
}

/// Differential test of [`Balancer::select`] against the selection it
/// replaced: a per-candidate `effective()` call into a freshly allocated
/// eligibility mask, a second masked copy for the stall veto, and
/// `select_min` with a `%` per candidate and a fresh candidate `Vec` for
/// `Random`/`Jsq`.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::mechanism::MechanismKind;
    use mlb_simkernel::rng::SplitMix64;
    use proptest::prelude::*;

    /// The balancer before the dense `available_at` scan. Score upkeep
    /// goes through the same [`LbValues`] hooks; selection and its RNG
    /// stream are the old code, copied verbatim.
    struct Oracle {
        config: BalancerConfig,
        lb: LbValues,
        rng: SplitMix64,
        states: Vec<BackendState>,
        stall_signals: Vec<bool>,
        rr_cursor: usize,
        last_decay: SimTime,
        stats: BalancerStats,
    }

    impl Oracle {
        fn new(config: BalancerConfig, backends: usize) -> Self {
            let mut lb = LbValues::with_seed(config.policy, backends, config.lb_mult, config.seed);
            if let Some(w) = &config.weights {
                lb.set_weights(w);
            }
            Oracle {
                lb,
                rng: SplitMix64::new(config.seed),
                states: vec![BackendState::new(); backends],
                stall_signals: vec![false; backends],
                rr_cursor: 0,
                last_decay: SimTime::ZERO,
                stats: BalancerStats::new(backends),
                config,
            }
        }

        fn select(&mut self, now: SimTime, exclude: &[bool]) -> Option<BackendId> {
            assert_eq!(exclude.len(), self.lb.len(), "exclude mask size mismatch");
            self.maybe_decay(now);
            let mut eligible: Vec<bool> = (0..self.lb.len())
                .map(|i| {
                    !exclude[i]
                        && self.states[i].effective(now, &self.config) == WorkerState::Available
                })
                .collect();
            if self.config.policy == PolicyKind::DetectorDriven {
                let masked: Vec<bool> = eligible
                    .iter()
                    .zip(&self.stall_signals)
                    .map(|(&e, &s)| e && !s)
                    .collect();
                if masked.iter().any(|&e| e) {
                    if masked != eligible {
                        self.stats.stall_vetoes += 1;
                    }
                    eligible = masked;
                }
            }
            match self.select_min(&eligible, self.rr_cursor) {
                Some(b) => {
                    self.rr_cursor = (b.0 + 1) % self.lb.len();
                    self.stats.selections += 1;
                    Some(b)
                }
                None => {
                    self.stats.no_candidate += 1;
                    None
                }
            }
        }

        fn select_min(&mut self, eligible: &[bool], cursor: usize) -> Option<BackendId> {
            let scores = self.lb.values();
            if self.lb.kind() == PolicyKind::Random {
                let candidates: Vec<usize> = (0..scores.len()).filter(|&i| eligible[i]).collect();
                if candidates.is_empty() {
                    return None;
                }
                let pick = self.rng.next_bounded(candidates.len() as u64) as usize;
                return Some(BackendId(candidates[pick]));
            }
            if let PolicyKind::Jsq(d) = self.lb.kind() {
                let mut candidates: Vec<usize> =
                    (0..scores.len()).filter(|&i| eligible[i]).collect();
                if candidates.is_empty() {
                    return None;
                }
                let d = usize::from(d.max(1)).min(candidates.len());
                for k in 0..d {
                    let j = k + self.rng.next_bounded((candidates.len() - k) as u64) as usize;
                    candidates.swap(k, j);
                }
                let mut best = candidates[0];
                for &i in &candidates[1..d] {
                    if scores[i] < scores[best] {
                        best = i;
                    }
                }
                return Some(BackendId(best));
            }
            let n = scores.len();
            let mut best: Option<(u64, usize)> = None;
            for offset in 0..n {
                let i = (cursor + offset) % n;
                if !eligible[i] {
                    continue;
                }
                let v = scores[i];
                match best {
                    Some((bv, _)) if v >= bv => {}
                    _ => best = Some((v, i)),
                }
            }
            best.map(|(_, i)| BackendId(i))
        }

        fn endpoint_failed(
            &mut self,
            now: SimTime,
            b: BackendId,
            elapsed: SimDuration,
        ) -> EndpointAdvice {
            let a = advice(
                self.config.mechanism,
                elapsed,
                self.config.cache_acquire_timeout,
                self.config.retry_sleep,
            );
            match a {
                EndpointAdvice::RetryAfter(_) => self.stats.retries_advised += 1,
                EndpointAdvice::GiveUp => {
                    self.stats.giveups += 1;
                    self.states[b.0].mark_failed(now, &self.config);
                }
            }
            a
        }

        fn endpoint_acquired(&mut self, b: BackendId) {
            self.states[b.0].mark_alive();
            self.lb.on_assign(b, 0);
            self.stats.assignments[b.0] += 1;
        }

        fn response_received(&mut self, b: BackendId, bytes: u64, latency: SimDuration) {
            self.states[b.0].mark_alive();
            self.lb.on_complete(b, bytes, latency);
            self.stats.completions[b.0] += 1;
        }

        fn probe_failed(&mut self, now: SimTime, b: BackendId) {
            self.stats.probe_failures += 1;
            self.states[b.0].mark_failed(now, &self.config);
            self.lb.on_abort(b);
        }

        fn request_aborted(&mut self, b: BackendId) {
            self.lb.on_abort(b);
            self.stats.aborts += 1;
        }

        fn maybe_decay(&mut self, now: SimTime) {
            if let Some(interval) = self.config.decay_interval {
                while now.saturating_since(self.last_decay) >= interval {
                    self.lb.decay();
                    self.last_decay += interval;
                }
            }
        }
    }

    /// One balancer callback. Backend fields are reduced modulo the
    /// backend count when applied.
    #[derive(Debug, Clone)]
    enum Op {
        /// Select with this exclude bit mask; acquire the pick if `acquire`.
        Select {
            exclude: u16,
            acquire: bool,
        },
        Acquire(usize),
        Respond {
            b: usize,
            bytes: u16,
            latency_us: u16,
        },
        /// A failed acquisition; `wait` picks the elapsed polling time.
        Fail {
            b: usize,
            wait: usize,
        },
        ProbeFail(usize),
        Abort(usize),
        Stall {
            b: usize,
            on: bool,
        },
        Advance(u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u16>(), any::<bool>())
                .prop_map(|(exclude, acquire)| Op::Select { exclude, acquire }),
            (any::<u16>(), any::<bool>())
                .prop_map(|(exclude, acquire)| Op::Select { exclude, acquire }),
            (0usize..16).prop_map(Op::Acquire),
            (0usize..16, any::<u16>(), any::<u16>()).prop_map(|(b, bytes, latency_us)| {
                Op::Respond {
                    b,
                    bytes,
                    latency_us,
                }
            }),
            (0usize..16, 0usize..4).prop_map(|(b, wait)| Op::Fail { b, wait }),
            (0usize..16).prop_map(Op::ProbeFail),
            (0usize..16).prop_map(Op::Abort),
            (0usize..16, any::<bool>()).prop_map(|(b, on)| Op::Stall { b, on }),
            (0u16..3_000).prop_map(Op::Advance),
        ]
    }

    /// Every policy kind, `Jsq` at a sample smaller than, equal to and
    /// above typical backend counts.
    fn all_policies() -> Vec<PolicyKind> {
        let mut all = PolicyKind::all_extended().to_vec();
        all.extend([
            PolicyKind::Jsq(1),
            PolicyKind::Jsq(2),
            PolicyKind::Jsq(5),
            PolicyKind::DetectorDriven,
        ]);
        all
    }

    fn us(micros: u64) -> SimDuration {
        SimDuration::from_micros(micros)
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        #[test]
        fn select_matches_the_old_selection(
            setup in (
                proptest::sample::select(all_policies()),
                proptest::sample::select(vec![
                    MechanismKind::Original,
                    MechanismKind::SkipToBusy,
                    MechanismKind::ProbeFirst,
                ]),
                1usize..10,
                any::<u64>(),
            ),
            holds in (
                proptest::sample::select(vec![0, 1, 1_000, 2_500, u64::MAX]),
                proptest::sample::select(vec![0, 1_000, 7_000, u64::MAX]),
                1u32..4,
                proptest::sample::select(vec![0u64, 700, 4_000]),
            ),
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let (policy, mechanism, backends, weight_seed) = setup;
            let (busy_hold, error_recover, error_threshold, decay) = holds;
            let mut cfg = BalancerConfig::with(policy, mechanism);
            cfg.busy_hold = us(busy_hold);
            cfg.error_recover = us(error_recover);
            cfg.error_threshold = error_threshold;
            cfg.decay_interval = (decay > 0).then(|| us(decay));
            cfg.seed = weight_seed.rotate_left(17);
            if weight_seed % 3 == 0 {
                let mut w = SplitMix64::new(weight_seed);
                cfg.weights = Some((0..backends).map(|_| 1 + w.next_bounded(4)).collect());
            }
            let mut lb = Balancer::new(cfg.clone(), backends).unwrap();
            let mut oracle = Oracle::new(cfg, backends);
            let waits = [0, 100_000, 300_000, 450_000];
            let mut now = SimTime::ZERO;
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Select { exclude, acquire } => {
                        let mask: Vec<bool> =
                            (0..backends).map(|i| exclude >> i & 1 == 1).collect();
                        let got = lb.select(now, &mask);
                        let want = oracle.select(now, &mask);
                        prop_assert_eq!(got, want, "pick at step {} ({:?})", step, op);
                        if let (Some(b), true) = (got, acquire) {
                            lb.endpoint_acquired(now, b);
                            oracle.endpoint_acquired(b);
                        }
                    }
                    Op::Acquire(b) => {
                        let b = BackendId(b % backends);
                        lb.endpoint_acquired(now, b);
                        oracle.endpoint_acquired(b);
                    }
                    Op::Respond { b, bytes, latency_us } => {
                        let b = BackendId(b % backends);
                        let latency = us(u64::from(latency_us));
                        lb.response_received(now, b, u64::from(bytes), latency);
                        oracle.response_received(b, u64::from(bytes), latency);
                    }
                    Op::Fail { b, wait } => {
                        let b = BackendId(b % backends);
                        let elapsed = us(waits[wait]);
                        prop_assert_eq!(
                            lb.endpoint_failed(now, b, elapsed),
                            oracle.endpoint_failed(now, b, elapsed)
                        );
                    }
                    Op::ProbeFail(b) => {
                        let b = BackendId(b % backends);
                        lb.probe_failed(now, b);
                        oracle.probe_failed(now, b);
                    }
                    Op::Abort(b) => {
                        let b = BackendId(b % backends);
                        lb.request_aborted(b);
                        oracle.request_aborted(b);
                    }
                    Op::Stall { b, on } => {
                        let b = BackendId(b % backends);
                        lb.signal_stall(b, on);
                        oracle.stall_signals[b.0] = on;
                    }
                    Op::Advance(dt) => now += us(u64::from(dt)),
                }
                prop_assert_eq!(lb.rr_cursor, oracle.rr_cursor, "cursor at step {}", step);
                prop_assert_eq!(&lb.stats, &oracle.stats, "stats at step {}", step);
                prop_assert_eq!(lb.lb_values(), oracle.lb.values(), "scores at step {}", step);
            }
        }
    }
}
