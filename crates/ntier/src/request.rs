//! Per-request lifecycle state.

use mlb_netmodel::retransmit::RetransmitState;
use mlb_simkernel::time::SimTime;
use mlb_workload::clients::ClientId;
use mlb_workload::interactions::InteractionId;

/// Unique identifier of one logical request (stable across TCP
/// retransmissions of the same request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Where a request currently is in its life cycle (coarse; the event type
/// carries the fine distinctions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// In flight toward, queued at, or being parsed by Apache.
    AtApache,
    /// Being routed by the load balancer (selection / get_endpoint).
    Routing,
    /// Waiting in the original mechanism's get_endpoint poll loop.
    EndpointWait,
    /// Waiting for a CPing probe reply (ProbeFirst mechanism).
    Probing,
    /// Queued at or executing on a Tomcat.
    AtTomcat,
    /// Executing MySQL queries.
    AtDatabase,
    /// Response travelling back to the client.
    Responding,
}

/// Mutable state of one in-flight request.
#[derive(Debug, Clone)]
pub struct RequestState {
    /// The logical request id.
    pub id: RequestId,
    /// The client that issued it.
    pub client: ClientId,
    /// The sampled interaction.
    pub interaction: InteractionId,
    /// First transmission instant — response time is measured from here,
    /// across all retransmissions.
    pub first_issued: SimTime,
    /// The Apache this client is statically wired to.
    pub apache: usize,
    /// Coarse life-cycle phase.
    pub phase: Phase,
    /// TCP retransmission bookkeeping.
    pub retransmit: RetransmitState,
    /// Backends this routing attempt has given up on.
    pub exclude: Vec<bool>,
    /// Backend currently holding the request (set once an endpoint is
    /// acquired).
    pub backend: Option<usize>,
    /// Candidate the original mechanism is polling in get_endpoint.
    pub pending_backend: Option<usize>,
    /// When the current get_endpoint wait began.
    pub wait_started: Option<SimTime>,
    /// When routing (selection + get_endpoint) began, for the routing
    /// budget.
    pub routing_started: Option<SimTime>,
    /// When the current endpoint was acquired (latency is measured from
    /// here for the latency-aware policies).
    pub acquired_at: Option<SimTime>,
    /// MySQL queries still to issue.
    pub db_remaining: u32,
    /// When the request last arrived at its Apache (post-retransmission).
    pub arrived_at: Option<SimTime>,
    /// When a worker thread picked the request up.
    pub admitted_at: Option<SimTime>,
    /// When routing began (Apache CPU burst finished).
    pub routed_at: Option<SimTime>,
    /// When the backend's response reached the Apache.
    pub replied_at: Option<SimTime>,
}

impl RequestState {
    /// Creates a fresh request issued at `now`.
    pub fn new(
        id: RequestId,
        client: ClientId,
        interaction: InteractionId,
        now: SimTime,
        apache: usize,
        backends: usize,
    ) -> Self {
        RequestState {
            id,
            client,
            interaction,
            first_issued: now,
            apache,
            phase: Phase::AtApache,
            retransmit: RetransmitState::new(),
            exclude: vec![false; backends],
            backend: None,
            pending_backend: None,
            wait_started: None,
            routing_started: None,
            acquired_at: None,
            db_remaining: 0,
            arrived_at: None,
            admitted_at: None,
            routed_at: None,
            replied_at: None,
        }
    }

    /// The six response-time segments (µs, `PhaseBreakdown` order) of
    /// the request completing at `now`. The milestones chain
    /// `first_issued` → arrived → admitted → routed → acquired →
    /// replied → `now`, so the segments partition the response time.
    /// `None` if the request never reached one of the milestones.
    pub fn segments(&self, now: SimTime) -> Option<[u64; 6]> {
        let (arrived, admitted, routed, acquired, replied) = (
            self.arrived_at?,
            self.admitted_at?,
            self.routed_at?,
            self.acquired_at?,
            self.replied_at?,
        );
        Some([
            arrived.saturating_since(self.first_issued).as_micros(),
            admitted.saturating_since(arrived).as_micros(),
            routed.saturating_since(admitted).as_micros(),
            acquired.saturating_since(routed).as_micros(),
            replied.saturating_since(acquired).as_micros(),
            now.saturating_since(replied).as_micros(),
        ])
    }

    /// Resets routing state for a fresh pass through the balancer.
    pub fn reset_routing(&mut self) {
        self.exclude.iter_mut().for_each(|e| *e = false);
        self.pending_backend = None;
        self.wait_started = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_request_starts_clean() {
        let r = RequestState::new(
            RequestId(1),
            ClientId(7),
            InteractionId(3),
            SimTime::from_millis(5),
            2,
            4,
        );
        assert_eq!(r.phase, Phase::AtApache);
        assert_eq!(r.exclude, vec![false; 4]);
        assert!(r.backend.is_none());
        assert_eq!(r.retransmit.attempts(), 1);
    }

    #[test]
    fn segments_partition_the_response_time() {
        let ms = SimTime::from_millis;
        let mut r = RequestState::new(RequestId(1), ClientId(0), InteractionId(0), ms(10), 0, 2);
        r.arrived_at = Some(ms(1_011));
        r.admitted_at = Some(ms(1_013));
        r.routed_at = Some(ms(1_016));
        assert_eq!(r.segments(ms(1_100)), None, "not yet acquired or replied");
        r.acquired_at = Some(ms(1_020));
        r.replied_at = Some(ms(1_050));
        let segs = r.segments(ms(1_051)).unwrap();
        assert_eq!(
            segs,
            [1_001_000, 2_000, 3_000, 4_000, 30_000, 1_000],
            "µs per segment"
        );
        assert_eq!(segs.iter().sum::<u64>(), 1_041_000);
    }

    #[test]
    fn reset_routing_clears_exclusions_and_waits() {
        let mut r = RequestState::new(
            RequestId(1),
            ClientId(0),
            InteractionId(0),
            SimTime::ZERO,
            0,
            3,
        );
        r.exclude[1] = true;
        r.pending_backend = Some(1);
        r.wait_started = Some(SimTime::from_millis(2));
        r.reset_routing();
        assert_eq!(r.exclude, vec![false; 3]);
        assert!(r.pending_backend.is_none());
        assert!(r.wait_started.is_none());
    }
}
