//! Load-balancing policies (paper Section II-A, V — plus extension
//! baselines).
//!
//! A policy is a rule for maintaining one ranking score per backend; the
//! lower-level scheduler always picks the Available backend with the
//! **minimum** score (except [`PolicyKind::Random`], which ignores
//! scores). The three policies studied in the paper:
//!
//! * [`PolicyKind::TotalRequest`] (mod_jk default, Algorithm 2) —
//!   score = requests the backend has **served**. Grows on completion.
//! * [`PolicyKind::TotalTraffic`] (Algorithm 3) — score = bytes exchanged
//!   with the backend. Grows on completion.
//! * [`PolicyKind::CurrentLoad`] (Algorithm 4, the paper's policy remedy)
//!   — score = requests **currently outstanding**. Grows on assignment,
//!   shrinks on completion.
//!
//! The first two make decisions on *cumulative* history: a backend frozen
//! by a millibottleneck serves nothing, so its score stalls at the
//! minimum and the balancer keeps feeding it (the instability of
//! Figs. 6/7/10/11). `CurrentLoad` uses *current* state: the frozen
//! backend's outstanding count rises immediately, so it stops being
//! picked.
//!
//! Four extension policies round out the comparison (the paper's related
//! work motivates them; none appears in its evaluation):
//!
//! * [`PolicyKind::RoundRobin`] — score = requests **assigned**; with
//!   min-selection this yields strict rotation.
//! * [`PolicyKind::Random`] — uniform choice among Available candidates.
//! * [`PolicyKind::LeastEwmaLatency`] — score = an exponentially weighted
//!   moving average of observed response latency. Latency-aware but
//!   *lagging*: a frozen backend keeps its last (good) EWMA because it
//!   completes nothing, so this policy inherits the instability. It also
//!   *herds* in healthy systems (whichever backend's average dips first
//!   receives the bulk of the traffic) — the classic least-latency
//!   problem that C3's concurrency term was designed to fix.
//! * [`PolicyKind::C3`] — Suresh et al.'s replica ranking (NSDI'15,
//!   cited as \[24\] in the paper): score = EWMA × (1 + outstanding)³. The
//!   concurrency term reacts within the millibottleneck, so C3 behaves
//!   like `current_load` with latency awareness on top.
//!
//! Two further baselines from the related-work survey, plus the closed
//! loop this repo builds on top of the paper:
//!
//! * [`PolicyKind::Jsq`] — join-the-shortest-of-d-queues
//!   (power-of-d-choices): sample `d` eligible backends uniformly from
//!   the policy RNG stream, pick the least outstanding. Near-optimal
//!   tail behavior in healthy clusters, but its sample can miss the
//!   frozen backend only probabilistically.
//! * [`PolicyKind::DetectorDriven`] — `current_load` ranking plus an
//!   eligibility veto from the online millibottleneck detector: a
//!   backend inside a flagged stall window is skipped entirely until
//!   the first clean window re-admits it (see `Balancer::signal_stall`).
//!
//! On the increment placement for the cumulative policies: the paper's
//! pseudo-code sketches the increment near the send, but its analysis is
//! explicit that healthy backends' values "keep increasing because they
//! can **process** requests" while the frozen backend's value stays lowest
//! for the whole millibottleneck — i.e. the counters track *served*
//! requests/traffic. We implement that semantic (increment on completion),
//! which is also what reproduces the lb_value inversion of Figs. 10b/11b.

use crate::types::BackendId;
use mlb_simkernel::rng::SplitMix64;
use mlb_simkernel::time::SimDuration;

/// Which ranking rule a balancer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Rank by accumulated requests served (mod_jk default).
    TotalRequest,
    /// Rank by accumulated request+response bytes served.
    TotalTraffic,
    /// Rank by currently outstanding requests (the policy remedy).
    CurrentLoad,
    /// Rank by accumulated requests assigned (strict rotation).
    RoundRobin,
    /// Uniform random choice among available candidates.
    Random,
    /// Rank by an EWMA of observed response latency (lagging).
    LeastEwmaLatency,
    /// Rank by EWMA latency × (1 + outstanding)³, after C3 (NSDI'15).
    C3,
    /// Power-of-d-choices: sample `d` eligible backends from the policy
    /// RNG stream and pick the least outstanding.
    Jsq(u8),
    /// `current_load` ranking with detector stall flags vetoing
    /// eligibility (the closed loop; see `Balancer::signal_stall`).
    DetectorDriven,
}

impl PolicyKind {
    /// The policy's name as used in tables and labels.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::TotalRequest => "total_request",
            PolicyKind::TotalTraffic => "total_traffic",
            PolicyKind::CurrentLoad => "current_load",
            PolicyKind::RoundRobin => "round_robin",
            PolicyKind::Random => "random",
            PolicyKind::LeastEwmaLatency => "ewma_latency",
            PolicyKind::C3 => "c3",
            PolicyKind::Jsq(_) => "jsq_d",
            PolicyKind::DetectorDriven => "detector_driven",
        }
    }

    /// `true` for policies whose ranking is a non-decreasing function of
    /// history (the ones with the millibottleneck instability in its
    /// purest form).
    pub fn is_cumulative(self) -> bool {
        matches!(
            self,
            PolicyKind::TotalRequest | PolicyKind::TotalTraffic | PolicyKind::RoundRobin
        )
    }

    /// `true` for policies whose ranking reacts to the backend's *current*
    /// state within a millibottleneck (the property the paper's remedy
    /// identifies).
    pub fn reacts_to_current_state(self) -> bool {
        matches!(
            self,
            PolicyKind::CurrentLoad
                | PolicyKind::C3
                | PolicyKind::Jsq(_)
                | PolicyKind::DetectorDriven
        )
    }

    /// The paper's three policies, in its presentation order.
    pub fn all() -> [PolicyKind; 3] {
        [
            PolicyKind::TotalRequest,
            PolicyKind::TotalTraffic,
            PolicyKind::CurrentLoad,
        ]
    }

    /// Every policy, paper ones first.
    pub fn all_extended() -> [PolicyKind; 7] {
        [
            PolicyKind::TotalRequest,
            PolicyKind::TotalTraffic,
            PolicyKind::CurrentLoad,
            PolicyKind::RoundRobin,
            PolicyKind::Random,
            PolicyKind::LeastEwmaLatency,
            PolicyKind::C3,
        ]
    }

    /// The related-work baselines added alongside the detector loop:
    /// power-of-two-choices and detector-driven routing. Kept out of
    /// [`PolicyKind::all_extended`] so the extension figure stays the
    /// paper-era comparison; the policy tournament covers all of these.
    pub fn baselines() -> [PolicyKind; 2] {
        [PolicyKind::Jsq(2), PolicyKind::DetectorDriven]
    }
}

/// EWMA smoothing factor as a rational (3/10 ≈ 0.3), in integer math so
/// runs stay bit-reproducible.
const EWMA_NUM: u64 = 3;
const EWMA_DEN: u64 = 10;

/// The per-backend ranking state and its update rules.
///
/// # Examples
///
/// ```
/// use mlb_core::policy::{LbValues, PolicyKind};
/// use mlb_core::types::BackendId;
/// use mlb_simkernel::time::SimDuration;
///
/// let mut lb = LbValues::new(PolicyKind::CurrentLoad, 2, 1);
/// lb.on_assign(BackendId(0), 500);
/// assert_eq!(lb.values(), &[1, 0]);
/// lb.on_complete(BackendId(0), 500, SimDuration::from_millis(3));
/// assert_eq!(lb.values(), &[0, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct LbValues {
    kind: PolicyKind,
    lb_mult: u64,
    /// Per-backend increment units: `lb_mult × lcm(weights) / weight[i]`.
    /// All equal to `lb_mult` when no weights are set.
    mults: Vec<u64>,
    /// Cumulative counters (requests served / bytes served / assignments),
    /// by kind.
    counters: Vec<u64>,
    /// Requests currently outstanding per backend (always maintained).
    outstanding: Vec<u64>,
    /// EWMA of response latency in microseconds per backend.
    ewma_micros: Vec<u64>,
    /// Carried tenths-of-a-microsecond remainder of the EWMA update, so
    /// integer division cannot pin a small EWMA above zero forever.
    ewma_rem: Vec<u64>,
    /// Cached ranking scores (recomputed on every mutation).
    scores: Vec<u64>,
    rng: SplitMix64,
    /// Eligible backends gathered by `Random`/`Jsq` picks; kept across
    /// picks so sampling never allocates.
    candidates: Vec<usize>,
}

impl LbValues {
    /// Creates the ranking state for `backends` backends, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `backends` or `lb_mult` is zero.
    pub fn new(kind: PolicyKind, backends: usize, lb_mult: u64) -> Self {
        LbValues::with_seed(kind, backends, lb_mult, 0x5EED_BA5E)
    }

    /// Creates the ranking state with an explicit seed for the `Random`
    /// policy's stream.
    ///
    /// # Panics
    ///
    /// Panics if `backends` or `lb_mult` is zero.
    pub fn with_seed(kind: PolicyKind, backends: usize, lb_mult: u64, seed: u64) -> Self {
        assert!(backends > 0, "need at least one backend");
        assert!(lb_mult > 0, "lb_mult must be positive");
        LbValues {
            kind,
            lb_mult,
            mults: vec![lb_mult; backends],
            counters: vec![0; backends],
            outstanding: vec![0; backends],
            ewma_micros: vec![0; backends],
            ewma_rem: vec![0; backends],
            scores: vec![0; backends],
            rng: SplitMix64::new(seed),
            candidates: Vec::with_capacity(backends),
        }
    }

    /// Applies mod_jk-style `lbfactor` capacity weights: a backend with
    /// weight `w` accumulates `lcm(weights)/w` per unit of work, so
    /// higher-weight backends stay "cheapest" longer and receive a
    /// proportionally larger share.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the backend count or any
    /// weight is zero.
    pub fn set_weights(&mut self, weights: &[u64]) {
        assert_eq!(weights.len(), self.mults.len(), "weights length mismatch");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let l = weights.iter().copied().fold(1u64, lcm);
        for (m, &w) in self.mults.iter_mut().zip(weights) {
            *m = self.lb_mult.saturating_mul(l / w);
        }
    }

    /// The per-backend increment units currently in force.
    pub fn mults(&self) -> &[u64] {
        &self.mults
    }

    /// The policy in force.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The ranking score vector (index = backend index). For the paper's
    /// policies this is the lb_value of Algorithms 2–4.
    pub fn values(&self) -> &[u64] {
        &self.scores
    }

    /// The ranking score of one backend.
    pub fn value(&self, b: BackendId) -> u64 {
        self.scores[b.0]
    }

    /// Requests currently outstanding on one backend.
    pub fn outstanding(&self, b: BackendId) -> u64 {
        self.outstanding[b.0]
    }

    /// The latency EWMA of one backend, in microseconds.
    pub fn ewma_micros(&self, b: BackendId) -> u64 {
        self.ewma_micros[b.0]
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` if there are no backends (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// A request was assigned to `b` (endpoint acquired, about to be
    /// sent). `traffic_bytes` is the request+response size estimate
    /// (unused by the counting policies at this hook).
    pub fn on_assign(&mut self, b: BackendId, traffic_bytes: u64) {
        let _ = traffic_bytes;
        self.outstanding[b.0] = self.outstanding[b.0].saturating_add(1);
        if self.kind == PolicyKind::RoundRobin {
            self.counters[b.0] = self.counters[b.0].saturating_add(self.mults[b.0]);
        }
        self.refresh(b);
    }

    /// A response was received from `b` for a request of `traffic_bytes`
    /// total message size, `latency` after its assignment.
    pub fn on_complete(&mut self, b: BackendId, traffic_bytes: u64, latency: SimDuration) {
        self.outstanding[b.0] = self.outstanding[b.0].saturating_sub(1);
        match self.kind {
            PolicyKind::TotalRequest => {
                self.counters[b.0] = self.counters[b.0].saturating_add(self.mults[b.0]);
            }
            PolicyKind::TotalTraffic => {
                self.counters[b.0] = self.counters[b.0]
                    .saturating_add(traffic_bytes.saturating_mul(self.mults[b.0]));
            }
            _ => {}
        }
        if matches!(self.kind, PolicyKind::LeastEwmaLatency | PolicyKind::C3) {
            let prev = self.ewma_micros[b.0];
            let sample = latency.as_micros();
            // One division with the remainder carried forward: flooring
            // the decay term alone (`prev·3/10 = 0` for prev < 4) would
            // freeze small EWMAs above zero forever.
            let total = u128::from(prev) * u128::from(EWMA_DEN - EWMA_NUM)
                + u128::from(sample) * u128::from(EWMA_NUM)
                + u128::from(self.ewma_rem[b.0]);
            self.ewma_micros[b.0] = u64::try_from(total / u128::from(EWMA_DEN)).unwrap_or(u64::MAX);
            self.ewma_rem[b.0] = (total % u128::from(EWMA_DEN)) as u64;
        }
        self.refresh(b);
    }

    /// A request assigned to `b` was aborted before any response (e.g.
    /// the whole routing attempt was retransmitted): the outstanding
    /// count drops, cumulative counters are untouched.
    pub fn on_abort(&mut self, b: BackendId) {
        self.outstanding[b.0] = self.outstanding[b.0].saturating_sub(1);
        self.refresh(b);
    }

    /// mod_jk's periodic "maintain" aging: halve every cumulative counter
    /// and EWMA. Off by default in experiments (the paper's pseudo-code
    /// has no aging); used by the aging ablation.
    pub fn decay(&mut self) {
        for v in &mut self.counters {
            *v /= 2;
        }
        for v in &mut self.ewma_micros {
            *v /= 2;
        }
        for v in &mut self.ewma_rem {
            *v = 0;
        }
        for i in 0..self.scores.len() {
            self.refresh(BackendId(i));
        }
    }

    fn refresh(&mut self, b: BackendId) {
        self.scores[b.0] = self.score(b.0);
    }

    fn score(&self, i: usize) -> u64 {
        match self.kind {
            PolicyKind::TotalRequest | PolicyKind::TotalTraffic | PolicyKind::RoundRobin => {
                self.counters[i]
            }
            PolicyKind::CurrentLoad | PolicyKind::Jsq(_) | PolicyKind::DetectorDriven => {
                self.outstanding[i].saturating_mul(self.mults[i])
            }
            PolicyKind::Random => 0,
            PolicyKind::LeastEwmaLatency => self.ewma_micros[i],
            PolicyKind::C3 => {
                // EWMA × (1 + outstanding)³, computed in u128 and
                // saturated: the C3 "cubic replica selection" rank.
                let q = u128::from(self.outstanding[i]) + 1;
                let rank = u128::from(self.ewma_micros[i]).saturating_mul(q * q * q);
                u64::try_from(rank).unwrap_or(u64::MAX)
            }
        }
    }

    /// Picks the next candidate among backends marked `true` in
    /// `eligible`: the minimum-score backend with deterministic
    /// round-robin tie-breaking starting at `cursor` — or a uniform
    /// random eligible backend under [`PolicyKind::Random`].
    ///
    /// Returns `None` if no backend is eligible.
    ///
    /// # Panics
    ///
    /// Panics if `eligible.len()` differs from the backend count.
    pub fn select_min(&mut self, eligible: &[bool], cursor: usize) -> Option<BackendId> {
        assert_eq!(
            eligible.len(),
            self.scores.len(),
            "eligibility mask size mismatch"
        );
        self.pick(cursor % self.scores.len(), |i| eligible[i], |_| false)
            .0
    }

    /// The one selection pass, shared by [`LbValues::select_min`] and
    /// `Balancer::select`. It walks `cursor..n` then `0..cursor` once
    /// and keeps the first minimum score in that order (strict `<`, so
    /// ties go round-robin). `stalled(i)` splits the eligible backends:
    /// an un-stalled minimum wins if there is one, and the returned flag
    /// says a stalled backend was passed over for it; if every eligible
    /// backend is stalled, the minimum among them wins and the flag is
    /// `false`.
    ///
    /// `Random` and `Jsq(d)` ignore `cursor` and `stalled`: they gather
    /// the eligible backends in index order into a buffer kept across
    /// calls and draw from it, so no policy allocates per pick.
    pub(crate) fn pick(
        &mut self,
        cursor: usize,
        eligible: impl Fn(usize) -> bool,
        stalled: impl Fn(usize) -> bool,
    ) -> (Option<BackendId>, bool) {
        let n = self.scores.len();
        if matches!(self.kind, PolicyKind::Random | PolicyKind::Jsq(_)) {
            self.candidates.clear();
            self.candidates.extend((0..n).filter(|&i| eligible(i)));
            return (self.sample(), false);
        }
        let scores = &self.scores[..n];
        let mut best: Option<(u64, usize)> = None;
        let mut best_stalled: Option<(u64, usize)> = None;
        for range in [cursor..n, 0..cursor] {
            for i in range {
                if !eligible(i) {
                    continue;
                }
                // Strict `<` keeps the first (round-robin-ordered) minimum.
                let v = scores[i];
                if stalled(i) {
                    if best_stalled.is_none_or(|(bv, _)| v < bv) {
                        best_stalled = Some((v, i));
                    }
                } else if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, i));
                }
            }
        }
        match best {
            Some((_, i)) => (Some(BackendId(i)), best_stalled.is_some()),
            None => (best_stalled.map(|(_, i)| BackendId(i)), false),
        }
    }

    /// Draws from the gathered candidates: uniformly under `Random`, the
    /// least-loaded of a `d`-sample under `Jsq(d)`.
    fn sample(&mut self) -> Option<BackendId> {
        let candidates = &mut self.candidates;
        if candidates.is_empty() {
            return None;
        }
        let len = candidates.len();
        if let PolicyKind::Jsq(d) = self.kind {
            // Partial Fisher–Yates: the first `d` slots become a uniform
            // sample without replacement, then the least-loaded sampled
            // backend wins (first in sample order on ties).
            let d = usize::from(d.max(1)).min(len);
            for k in 0..d {
                let j = k + self.rng.next_bounded((len - k) as u64) as usize;
                candidates.swap(k, j);
            }
            let mut best = candidates[0];
            for &i in &candidates[1..d] {
                if self.scores[i] < self.scores[best] {
                    best = i;
                }
            }
            return Some(BackendId(best));
        }
        // An unbiased bounded draw: `next_u64() as usize % len` has
        // modulo bias and truncates to 32 bits on 32-bit targets.
        let pick = self.rng.next_bounded(len as u64) as usize;
        Some(BackendId(candidates[pick]))
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    // Saturating: large coprime weights overflow u64 (debug builds used
    // to panic here, release builds produced wrapped garbage mults). A
    // saturated lcm still yields positive, correctly *ordered* mults
    // through `lb_mult × (l / w)` — higher weight, smaller increment.
    (a / gcd(a, b).max(1)).saturating_mul(b)
}

#[cfg(test)]
impl LbValues {
    /// Test-only helper to grow the outstanding count without assignments.
    fn outstanding_bump_for_test(&mut self) {
        self.outstanding[0] = self.outstanding[0].saturating_add(1);
        self.refresh(BackendId(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: usize) -> BackendId {
        BackendId(i)
    }

    const NO_LAT: SimDuration = SimDuration::ZERO;

    #[test]
    fn total_request_counts_completions_only() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 2, 1);
        lb.on_assign(b(0), 1_000);
        assert_eq!(lb.values(), &[0, 0], "assign must not move total_request");
        lb.on_complete(b(0), 1_000, NO_LAT);
        assert_eq!(lb.values(), &[1, 0]);
    }

    #[test]
    fn total_traffic_accumulates_bytes_on_completion() {
        let mut lb = LbValues::new(PolicyKind::TotalTraffic, 2, 1);
        lb.on_assign(b(1), 2_000);
        assert_eq!(lb.values(), &[0, 0]);
        lb.on_complete(b(1), 2_000, NO_LAT);
        lb.on_complete(b(1), 500, NO_LAT);
        assert_eq!(lb.values(), &[0, 2_500]);
    }

    #[test]
    fn total_traffic_respects_lb_mult() {
        let mut lb = LbValues::new(PolicyKind::TotalTraffic, 1, 3);
        lb.on_complete(b(0), 10, NO_LAT);
        assert_eq!(lb.value(b(0)), 30);
    }

    #[test]
    fn current_load_tracks_outstanding() {
        let mut lb = LbValues::new(PolicyKind::CurrentLoad, 2, 1);
        lb.on_assign(b(0), 0);
        lb.on_assign(b(0), 0);
        lb.on_assign(b(1), 0);
        assert_eq!(lb.values(), &[2, 1]);
        lb.on_complete(b(0), 0, NO_LAT);
        assert_eq!(lb.values(), &[1, 1]);
    }

    #[test]
    fn current_load_never_underflows() {
        let mut lb = LbValues::new(PolicyKind::CurrentLoad, 1, 5);
        lb.on_complete(b(0), 0, NO_LAT);
        assert_eq!(lb.value(b(0)), 0);
        lb.on_assign(b(0), 0);
        lb.on_complete(b(0), 0, NO_LAT);
        lb.on_complete(b(0), 0, NO_LAT);
        assert_eq!(lb.value(b(0)), 0);
    }

    #[test]
    fn abort_releases_outstanding_but_not_counters() {
        let mut cl = LbValues::new(PolicyKind::CurrentLoad, 1, 1);
        cl.on_assign(b(0), 0);
        cl.on_abort(b(0));
        assert_eq!(cl.value(b(0)), 0);

        let mut tr = LbValues::new(PolicyKind::TotalRequest, 1, 1);
        tr.on_complete(b(0), 0, NO_LAT);
        tr.on_abort(b(0));
        assert_eq!(tr.value(b(0)), 1, "abort must not touch total_request");
    }

    #[test]
    fn round_robin_counts_assignments() {
        let mut lb = LbValues::new(PolicyKind::RoundRobin, 3, 1);
        lb.on_assign(b(0), 0);
        lb.on_assign(b(0), 0);
        lb.on_assign(b(1), 0);
        // No completions at all, yet the counters move.
        assert_eq!(lb.values(), &[2, 1, 0]);
        assert_eq!(lb.select_min(&[true; 3], 0), Some(b(2)));
    }

    #[test]
    fn round_robin_rotates_strictly() {
        let mut lb = LbValues::new(PolicyKind::RoundRobin, 3, 1);
        let mut picks = Vec::new();
        for _ in 0..6 {
            let p = lb.select_min(&[true; 3], 0).unwrap();
            lb.on_assign(p, 0);
            picks.push(p.0);
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_picks_only_eligible_and_covers_all() {
        let mut lb = LbValues::new(PolicyKind::Random, 4, 1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let p = lb.select_min(&[true, false, true, true], 0).unwrap();
            assert_ne!(p.0, 1, "picked an ineligible backend");
            seen[p.0] = true;
        }
        assert!(seen[0] && seen[2] && seen[3]);
        assert_eq!(lb.select_min(&[false; 4], 0), None);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = LbValues::with_seed(PolicyKind::Random, 4, 1, 9);
        let mut c = LbValues::with_seed(PolicyKind::Random, 4, 1, 9);
        for _ in 0..50 {
            assert_eq!(a.select_min(&[true; 4], 0), c.select_min(&[true; 4], 0));
        }
    }

    #[test]
    fn random_draw_is_unbiased_over_the_candidate_set() {
        // Regression for the `next_u64() as usize % len` draw: beyond the
        // modulo bias, the `as usize` cast truncates to 32 bits on 32-bit
        // targets. The bounded draw must keep every candidate reachable
        // and roughly uniform.
        let mut lb = LbValues::with_seed(PolicyKind::Random, 3, 1, 77);
        let mut counts = [0u64; 3];
        for _ in 0..3_000 {
            let p = lb.select_min(&[true; 3], 0).unwrap();
            counts[p.0] += 1;
        }
        for &c in &counts {
            assert!(
                (800..1_200).contains(&c),
                "draws far from uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn jsq_picks_least_outstanding_and_is_deterministic() {
        // d ≥ backend count degenerates to exact least-outstanding.
        let mut lb = LbValues::with_seed(PolicyKind::Jsq(4), 3, 1, 5);
        lb.on_assign(b(0), 0);
        lb.on_assign(b(0), 0);
        lb.on_assign(b(1), 0);
        assert_eq!(lb.select_min(&[true; 3], 0), Some(b(2)));
        // Same seed, same draws.
        let mut x = LbValues::with_seed(PolicyKind::Jsq(2), 4, 1, 11);
        let mut y = LbValues::with_seed(PolicyKind::Jsq(2), 4, 1, 11);
        for _ in 0..50 {
            assert_eq!(x.select_min(&[true; 4], 0), y.select_min(&[true; 4], 0));
        }
    }

    #[test]
    fn jsq_never_picks_ineligible() {
        let mut lb = LbValues::with_seed(PolicyKind::Jsq(2), 4, 1, 13);
        for _ in 0..200 {
            let p = lb.select_min(&[true, false, true, false], 0).unwrap();
            assert!(p.0 == 0 || p.0 == 2, "sampled an ineligible backend");
        }
        assert_eq!(lb.select_min(&[false; 4], 0), None);
    }

    #[test]
    fn ewma_latency_tracks_response_times() {
        let mut lb = LbValues::new(PolicyKind::LeastEwmaLatency, 2, 1);
        lb.on_assign(b(0), 0);
        lb.on_complete(b(0), 0, SimDuration::from_millis(10));
        assert_eq!(lb.value(b(0)), 3_000); // 0.3 × 10ms
        lb.on_assign(b(0), 0);
        lb.on_complete(b(0), 0, SimDuration::from_millis(10));
        assert_eq!(lb.value(b(0)), 5_100); // 0.7 × 3000 + 0.3 × 10000
                                           // The slower backend is not picked.
        assert_eq!(lb.select_min(&[true, true], 0), Some(b(1)));
    }

    #[test]
    fn ewma_decays_to_zero_for_small_values() {
        // Regression: the floored update `prev - prev·3/10 + sample·3/10`
        // left any `prev < 4` fixed forever when samples dropped to zero,
        // so a stale rank could stick permanently.
        let mut lb = LbValues::new(PolicyKind::LeastEwmaLatency, 1, 1);
        lb.on_complete(b(0), 0, SimDuration::from_micros(10));
        assert_eq!(lb.value(b(0)), 3);
        for _ in 0..20 {
            lb.on_complete(b(0), 0, SimDuration::ZERO);
        }
        assert_eq!(lb.value(b(0)), 0, "small EWMA must decay to zero");
    }

    #[test]
    fn ewma_latency_lags_during_a_freeze() {
        // The extension's point: a frozen backend completes nothing, so
        // its (good) EWMA never moves and it keeps being selected.
        let mut lb = LbValues::new(PolicyKind::LeastEwmaLatency, 2, 1);
        // Backend 0 was historically fast; backend 1 slower.
        lb.on_complete(b(0), 0, SimDuration::from_millis(1));
        lb.on_complete(b(1), 0, SimDuration::from_millis(5));
        // Backend 0 freezes; assignments pile up with no completions.
        for _ in 0..10 {
            let p = lb.select_min(&[true, true], 0).unwrap();
            assert_eq!(
                p,
                b(0),
                "ewma_latency should (wrongly) keep picking the frozen one"
            );
            lb.on_assign(p, 0);
        }
    }

    #[test]
    fn c3_penalizes_outstanding_cubically() {
        let mut lb = LbValues::new(PolicyKind::C3, 2, 1);
        lb.on_complete(b(0), 0, SimDuration::from_millis(1));
        lb.on_complete(b(1), 0, SimDuration::from_millis(5));
        // Initially the fast backend wins.
        assert_eq!(lb.select_min(&[true, true], 0), Some(b(0)));
        // Freeze backend 0: after a few un-completed assignments its
        // cubic rank exceeds the slow-but-idle backend.
        lb.on_assign(b(0), 0);
        lb.on_assign(b(0), 0);
        // rank0 = 300us × (1+2)³ = 8100, rank1 = 1500us × 1 = 1500.
        assert_eq!(lb.select_min(&[true, true], 0), Some(b(1)));
    }

    #[test]
    fn c3_rank_saturates_instead_of_overflowing() {
        let mut lb = LbValues::new(PolicyKind::C3, 1, 1);
        lb.on_complete(b(0), 0, SimDuration::from_secs(3_600));
        for _ in 0..5_000_000 {
            lb.outstanding_bump_for_test();
        }
        assert_eq!(lb.value(b(0)), u64::MAX);
    }

    #[test]
    fn select_min_picks_lowest() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 3, 1);
        lb.on_complete(b(0), 0, NO_LAT);
        lb.on_complete(b(0), 0, NO_LAT);
        lb.on_complete(b(1), 0, NO_LAT);
        // values [2, 1, 0]
        assert_eq!(lb.select_min(&[true; 3], 0), Some(b(2)));
    }

    #[test]
    fn select_min_round_robin_ties() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 4, 1);
        // All zero: cursor decides.
        assert_eq!(lb.select_min(&[true; 4], 0), Some(b(0)));
        assert_eq!(lb.select_min(&[true; 4], 1), Some(b(1)));
        assert_eq!(lb.select_min(&[true; 4], 3), Some(b(3)));
        assert_eq!(lb.select_min(&[true; 4], 4), Some(b(0)));
    }

    #[test]
    fn select_min_skips_ineligible() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 3, 1);
        lb.on_complete(b(1), 0, NO_LAT); // values [0, 1, 0]
        assert_eq!(lb.select_min(&[false, true, true], 0), Some(b(2)));
        assert_eq!(lb.select_min(&[false, true, false], 0), Some(b(1)));
        assert_eq!(lb.select_min(&[false, false, false], 0), None);
    }

    #[test]
    fn decay_halves_counters_and_ewma() {
        let mut lb = LbValues::new(PolicyKind::TotalTraffic, 2, 1);
        lb.on_complete(b(0), 100, NO_LAT);
        lb.on_complete(b(1), 7, NO_LAT);
        lb.decay();
        assert_eq!(lb.values(), &[50, 3]);

        let mut lat = LbValues::new(PolicyKind::LeastEwmaLatency, 1, 1);
        lat.on_complete(b(0), 0, SimDuration::from_millis(10));
        lat.decay();
        assert_eq!(lat.value(b(0)), 1_500);
    }

    #[test]
    fn weighted_round_robin_follows_capacity() {
        let mut lb = LbValues::new(PolicyKind::RoundRobin, 2, 1);
        lb.set_weights(&[2, 1]); // backend 0 has twice the capacity
        let mut counts = [0u64; 2];
        for _ in 0..300 {
            let p = lb.select_min(&[true, true], 0).unwrap();
            counts[p.0] += 1;
            lb.on_assign(p, 0);
        }
        assert_eq!(counts, [200, 100], "2:1 weights must yield a 2:1 split");
    }

    #[test]
    fn weighted_total_request_follows_capacity() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 2, 1);
        lb.set_weights(&[3, 1]);
        let mut counts = [0u64; 2];
        for _ in 0..400 {
            let p = lb.select_min(&[true, true], 0).unwrap();
            counts[p.0] += 1;
            lb.on_assign(p, 0);
            lb.on_complete(p, 0, NO_LAT);
        }
        assert_eq!(counts, [300, 100], "3:1 weights must yield a 3:1 split");
    }

    #[test]
    fn weighted_current_load_tolerates_more_outstanding() {
        let mut lb = LbValues::new(PolicyKind::CurrentLoad, 2, 1);
        lb.set_weights(&[2, 1]);
        // Backend 0 (weight 2) with 1 outstanding scores 1×1=1; backend 1
        // (weight 1) with 1 outstanding scores 1×2=2 — so backend 0 is
        // preferred until it carries twice the load.
        lb.on_assign(b(0), 0);
        lb.on_assign(b(1), 0);
        assert_eq!(lb.select_min(&[true, true], 0), Some(b(0)));
    }

    #[test]
    fn weight_lcm_overflow_saturates_and_keeps_ordering() {
        // Regression: lcm(2⁴⁰, 2⁴⁰−1) ≈ 2⁸⁰ overflowed the unchecked
        // `a / gcd * b` (a debug-build panic, wrapped garbage in release).
        // The saturated lcm must still produce positive mults ordered
        // inversely to the weights.
        let big = 1u64 << 40;
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 2, 1);
        lb.set_weights(&[big, big - 1]); // coprime
        let mults = lb.mults().to_vec();
        assert!(mults.iter().all(|&m| m > 0), "mults must stay positive");
        assert!(
            mults[0] < mults[1],
            "higher weight must keep the smaller increment: {mults:?}"
        );
    }

    #[test]
    #[should_panic(expected = "weights length mismatch")]
    fn wrong_weight_count_panics() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 2, 1);
        lb.set_weights(&[1]);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_panics() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 2, 1);
        lb.set_weights(&[1, 0]);
    }

    #[test]
    fn names_match_the_paper_and_extensions() {
        assert_eq!(PolicyKind::TotalRequest.name(), "total_request");
        assert_eq!(PolicyKind::TotalTraffic.name(), "total_traffic");
        assert_eq!(PolicyKind::CurrentLoad.name(), "current_load");
        assert_eq!(PolicyKind::RoundRobin.name(), "round_robin");
        assert_eq!(PolicyKind::Random.name(), "random");
        assert_eq!(PolicyKind::LeastEwmaLatency.name(), "ewma_latency");
        assert_eq!(PolicyKind::C3.name(), "c3");
        assert_eq!(PolicyKind::Jsq(2).name(), "jsq_d");
        assert_eq!(PolicyKind::DetectorDriven.name(), "detector_driven");
    }

    #[test]
    fn classification_flags() {
        assert!(PolicyKind::TotalRequest.is_cumulative());
        assert!(PolicyKind::TotalTraffic.is_cumulative());
        assert!(PolicyKind::RoundRobin.is_cumulative());
        assert!(!PolicyKind::CurrentLoad.is_cumulative());
        assert!(PolicyKind::CurrentLoad.reacts_to_current_state());
        assert!(PolicyKind::C3.reacts_to_current_state());
        assert!(!PolicyKind::LeastEwmaLatency.reacts_to_current_state());
        assert!(PolicyKind::Jsq(2).reacts_to_current_state());
        assert!(PolicyKind::DetectorDriven.reacts_to_current_state());
        assert!(!PolicyKind::DetectorDriven.is_cumulative());
    }

    #[test]
    fn all_extended_is_a_superset() {
        let basic = PolicyKind::all();
        let ext = PolicyKind::all_extended();
        assert!(basic.iter().all(|p| ext.contains(p)));
        assert_eq!(ext.len(), 7);
        // The baselines are deliberately disjoint from the extension set.
        assert!(PolicyKind::baselines().iter().all(|p| !ext.contains(p)));
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn zero_backends_panics() {
        LbValues::new(PolicyKind::TotalRequest, 0, 1);
    }

    #[test]
    #[should_panic(expected = "lb_mult must be positive")]
    fn zero_mult_panics() {
        LbValues::new(PolicyKind::TotalRequest, 1, 0);
    }

    #[test]
    #[should_panic(expected = "mask size mismatch")]
    fn wrong_mask_size_panics() {
        let mut lb = LbValues::new(PolicyKind::TotalRequest, 2, 1);
        lb.select_min(&[true], 0);
    }
}
