//! Property tests for the simulation kernel's ordering and arithmetic
//! invariants.

use mlb_simkernel::queue::{EventQueue, InstantBatch, QueueKind};
use mlb_simkernel::rng::{exponential, uniform_duration, SeedSequence, Xoshiro256StarStar};
use mlb_simkernel::time::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

/// A push offset in µs, log-uniform below 2^38: octave `k > 0` draws
/// from `[2^(k-1), 2^k)`, so every wheel level and the overflow (≥ 2^36)
/// get direct pushes at equal odds. One draw in eight instead lands
/// within 1 µs of the 64 or 4 096 µs level boundary.
fn log_uniform_offset(octave: u32, mantissa: u64) -> u64 {
    if mantissa.is_multiple_of(8) {
        let edge = if mantissa & 8 == 0 { 64 } else { 4_096 };
        return edge - 1 + (mantissa >> 4) % 3;
    }
    match octave {
        0 => 0,
        k => (1 << (k - 1)) + (mantissa >> 3) % (1 << (k - 1)),
    }
}

proptest! {
    /// Popping always yields events in non-decreasing time order, with
    /// FIFO order among equal timestamps.
    #[test]
    fn event_queue_is_time_ordered_and_stable(
        times in proptest::collection::vec(0u64..1_000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), seq);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, seq)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(seq > lseq, "FIFO violated among ties");
                }
            }
            last = Some((t, seq));
        }
    }

    /// The queue returns exactly what was pushed.
    #[test]
    fn event_queue_conserves_events(
        times in proptest::collection::vec(0u64..10_000, 0..300)
    ) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_micros(t), t);
        }
        let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut expected = times;
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// The timer wheel and the `BinaryHeap` reference implementation pop
    /// identical (time, event) sequences under random push/pop
    /// interleavings — including same-instant bursts and pushes that
    /// land directly on every wheel level, on both sides of the 64 and
    /// 4 096 µs level boundaries, and in the overflow list. This is
    /// the differential proof that makes the wheel a drop-in default:
    /// any ordering divergence would change golden digests.
    #[test]
    fn wheel_and_heap_agree_on_random_interleavings(
        ops in proptest::collection::vec((0u8..5, 0u32..39, any::<u64>(), 1u8..5), 1..300)
    ) {
        let mut wheel = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut now = 0u64;
        let mut next_event = 0u64;
        for &(op, octave, mantissa, burst) in &ops {
            if op < 3 {
                // Push; op == 2 makes it a same-instant burst. Offsets up
                // to 2^38 µs overflow the wheel's 2^36 µs span, so the
                // overflow list is exercised too.
                let t = SimTime::from_micros(now + log_uniform_offset(octave, mantissa));
                let n = if op == 2 { burst as u64 } else { 1 };
                for _ in 0..n {
                    wheel.push(t, next_event);
                    heap.push(t, next_event);
                    next_event += 1;
                }
            } else {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(w, h, "pop diverged mid-interleaving");
                if let Some((t, _)) = w {
                    now = t.as_micros();
                }
            }
        }
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(w, h, "pop diverged during drain");
            if w.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// Batched popping (`drain_instant`, with an arbitrary halt-and-
    /// `restore` in the middle) yields exactly the heap reference's pop
    /// sequence: batching is a traversal optimisation, never a
    /// reordering.
    #[test]
    fn drain_instant_and_restore_match_the_heap_reference(
        times in proptest::collection::vec(0u64..2_000, 1..200),
        halt_after in 0usize..250
    ) {
        let mut wheel = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        for (seq, &t) in times.iter().enumerate() {
            // Coarse times force many same-instant batches.
            let t = SimTime::from_micros(t / 50);
            wheel.push(t, seq);
            heap.push(t, seq);
        }
        let mut batch = InstantBatch::new();
        let mut popped = 0usize;
        let mut halted = false;
        'outer: while let Some(time) = wheel.drain_instant(&mut batch) {
            while let Some(event) = batch.next_event() {
                let h = heap.pop();
                prop_assert_eq!(h, Some((time, event)), "batch diverged");
                popped += 1;
                if !halted && popped == halt_after {
                    // Simulate a mid-batch halt: the unconsumed tail goes
                    // back, then popping resumes from scratch.
                    halted = true;
                    wheel.restore(&mut batch);
                    continue 'outer;
                }
            }
        }
        prop_assert_eq!(heap.pop(), None);
        prop_assert!(wheel.is_empty());
    }

    /// `run_until` peeks at the next instant and stops at its horizon,
    /// which leaves the wheel's origin on that instant; the caller may
    /// then push events *before* it. The wheel's ready queue then holds
    /// two instants, so `drain_instant` must split it (instead of
    /// handing the whole queue over), and a mid-batch `restore` must
    /// put the tail back ahead of the later instant. Every batch must
    /// equal the heap's pops for that instant.
    #[test]
    fn drain_instant_matches_heap_after_peek_moves_the_origin(
        pending in proptest::collection::vec((0u32..39, any::<u64>()), 1..100),
        rounds in proptest::collection::vec((0u32..39, any::<u64>(), 0u8..4), 1..60),
        halt_round in 0usize..60
    ) {
        let mut wheel = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut next_event = 0u64;
        let mut push_both = |t: SimTime, wheel: &mut EventQueue<u64>, heap: &mut EventQueue<u64>| {
            wheel.push(t, next_event);
            heap.push(t, next_event);
            next_event += 1;
        };
        for &(octave, mantissa) in &pending {
            let t = SimTime::from_micros(log_uniform_offset(octave, mantissa));
            push_both(t, &mut wheel, &mut heap);
        }
        let mut now = 0u64;
        let mut batch = InstantBatch::new();
        let mut round = 0usize;
        loop {
            let peeked = wheel.peek_time();
            prop_assert_eq!(peeked, heap.peek_time(), "peek diverged");
            let Some(peeked) = peeked else { break };
            let spec = rounds.get(round).copied();
            if let Some((octave, mantissa, early)) = spec {
                // Horizon stop: pushes between `now` and the peeked
                // instant, i.e. below the wheel's origin.
                let gap = peeked.as_micros() - now;
                for i in 0..u64::from(early) {
                    let t = now + (log_uniform_offset(octave, mantissa) + i) % gap.max(1);
                    push_both(SimTime::from_micros(t), &mut wheel, &mut heap);
                }
            }
            let time = wheel.drain_instant(&mut batch);
            prop_assert!(time.is_some(), "peeked queue drained nothing");
            let time = time.unwrap_or(SimTime::ZERO);
            prop_assert!(time.as_micros() >= now);
            now = time.as_micros();
            let mut consumed = 0usize;
            while let Some(event) = batch.next_event() {
                prop_assert_eq!(heap.pop(), Some((time, event)), "batch diverged");
                consumed += 1;
                if round == halt_round && consumed == 1 && batch.remaining() > 0 {
                    // The model schedules at the current instant, then
                    // halts: the unconsumed tail goes back.
                    push_both(time, &mut wheel, &mut heap);
                    wheel.restore(&mut batch);
                    break;
                }
            }
            // The batch held the whole instant (unless it was restored).
            if round != halt_round {
                prop_assert!(heap.peek_time().is_none_or(|t| t > time), "instant split");
            }
            if let Some((octave, mantissa, _)) = spec {
                // Keep the wheel busy: one more event further out.
                let t = SimTime::from_micros(now + 1 + log_uniform_offset(octave, mantissa));
                push_both(t, &mut wheel, &mut heap);
            }
            round += 1;
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// Pre-sizing is invisible: a queue built with any `with_capacity`
    /// value pops exactly the same sequence as a default-built one, for
    /// both backends. (`build_simulation` pre-sizes from the configured
    /// population, so this is the kernel half of the digest-stability
    /// guarantee; the golden-digest tests pin the system half.)
    #[test]
    fn pre_sizing_never_changes_the_pop_sequence(
        times in proptest::collection::vec(0u64..100_000, 0..200),
        cap in 0usize..10_000
    ) {
        for kind in [QueueKind::Wheel, QueueKind::Heap] {
            let mut sized = EventQueue::with_capacity_and_kind(cap, kind);
            let mut plain = EventQueue::with_kind(kind);
            for (seq, &t) in times.iter().enumerate() {
                sized.push(SimTime::from_micros(t), seq);
                plain.push(SimTime::from_micros(t), seq);
            }
            loop {
                let s = sized.pop();
                prop_assert_eq!(s, plain.pop());
                if s.is_none() {
                    break;
                }
            }
        }
    }

    /// Paper-shaped bimodal churn — dense sub-millisecond hops mixed
    /// with 1-in-16 think-time-like multi-second sleeps — drives the
    /// exact cascade storms that once inverted the 64× sweep. The chunked
    /// wheel must still agree with the heap event-for-event, and its
    /// chunks must recycle: fresh growth stays within what the peak
    /// bucket population needs, never the churn volume.
    #[test]
    fn bimodal_storm_churn_matches_heap_and_recycles_nodes(
        seed in any::<u64>(),
        pending in 1usize..64,
        rounds in 1usize..500
    ) {
        let mut wheel = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut state = seed | 1;
        let mut next_us = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 16 == 0 {
                7_000_000 + (state >> 8) % 2_000_000
            } else {
                (state >> 8) % 1_000
            }
        };
        for seq in 0..pending {
            let t = SimTime::from_micros(next_us());
            wheel.push(t, seq);
            heap.push(t, seq);
        }
        for _ in 0..rounds {
            let w = wheel.pop();
            prop_assert_eq!(w, heap.pop(), "bimodal pop diverged");
            let Some((t, ev)) = w else { break };
            let t = t + SimDuration::from_micros(next_us());
            wheel.push(t, ev);
            heap.push(t, ev);
        }
        loop {
            let w = wheel.pop();
            prop_assert_eq!(w, heap.pop(), "bimodal drain diverged");
            if w.is_none() {
                break;
            }
        }
        let stats = wheel.wheel_stats().expect("wheel backend has stats");
        prop_assert!(
            stats.chunk_allocs <= stats.chunk_allocs_ceiling(),
            "chunks grew past what peak liveness needs — free list not recycling"
        );
    }

    /// SimTime/SimDuration arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrips(base in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(base);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur).saturating_since(t), dur);
    }

    /// saturating_since never panics and is zero when earlier >= later.
    #[test]
    fn saturating_since_is_total(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
        let d = ta.saturating_since(tb);
        if a <= b {
            prop_assert_eq!(d, SimDuration::ZERO);
        } else {
            prop_assert_eq!(d.as_micros(), a - b);
        }
    }

    /// Exponential samples are non-negative and finite for any seed/mean.
    #[test]
    fn exponential_is_well_formed(seed in any::<u64>(), mean_us in 1u64..10_000_000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..16 {
            let d = exponential(&mut rng, SimDuration::from_micros(mean_us));
            prop_assert!(d.as_micros() < u64::MAX / 2);
        }
    }

    /// Uniform duration samples respect their bounds for any range.
    #[test]
    fn uniform_duration_in_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, span in 0u64..1_000_000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let lo_d = SimDuration::from_micros(lo);
        let hi_d = SimDuration::from_micros(lo + span);
        let d = uniform_duration(&mut rng, lo_d, hi_d);
        prop_assert!(d >= lo_d && d <= hi_d);
    }

    /// Named streams are independent of creation order.
    #[test]
    fn seed_streams_are_order_independent(master in any::<u64>()) {
        let mut s1 = SeedSequence::new(master);
        let mut s2 = SeedSequence::new(master);
        let mut a1 = s1.stream("alpha");
        let _ = s1.stream("beta");
        let _ = s2.stream("beta");
        let mut a2 = s2.stream("alpha");
        prop_assert_eq!(a1.next_u64(), a2.next_u64());
    }

    /// Generator output is uniform-ish: each of the 4 top bit-pairs of a
    /// u64 appears for some draw within a modest window (smoke-level
    /// sanity, not a statistical test).
    #[test]
    fn xoshiro_hits_all_quadrants(seed in any::<u64>()) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[(rng.next_u64() >> 62) as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
