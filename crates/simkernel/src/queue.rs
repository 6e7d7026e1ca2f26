//! The pending-event set.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with
//! **deterministic FIFO tie-breaking**: events scheduled for the same
//! instant pop in the order they were pushed. That property is what makes
//! whole-simulation runs bit-for-bit reproducible.
//!
//! Two interchangeable backends implement the queue ([`QueueKind`]):
//!
//! * [`QueueKind::Wheel`] (the default) — a hierarchical timer wheel
//!   (calendar queue) with [`LEVELS`] levels of [`SLOTS`] slots each,
//!   `SLOT_BITS` bits of integer-µs time per level, plus an unsorted
//!   overflow list for events more than `2^(LEVELS·SLOT_BITS)` µs
//!   (≈ 19 hours) past the wheel origin. Push and pop are O(1) amortized,
//!   independent of the number of pending events.
//! * [`QueueKind::Heap`] — the original `BinaryHeap` implementation,
//!   O(log n) per operation. Kept as the reference model: the
//!   differential property tests drive both backends with identical
//!   schedules and assert identical pop sequences, and the scale-sweep
//!   bench uses it as the baseline the wheel is measured against.
//!
//! Both backends order events by `(time, seq)` where `seq` is a
//! per-queue monotone push counter, so their pop sequences are equal by
//! construction — the wheel just reaches the next event without paying a
//! comparison-sort.
//!
//! # Examples
//!
//! ```
//! use mlb_simkernel::queue::EventQueue;
//! use mlb_simkernel::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_millis(5), "late");
//! q.push(SimTime::from_millis(1), "early");
//! q.push(SimTime::from_millis(5), "late-second");
//!
//! assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
//! assert_eq!(q.pop(), Some((SimTime::from_millis(5), "late")));
//! assert_eq!(q.pop(), Some((SimTime::from_millis(5), "late-second")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Bits of time resolved per wheel level.
pub const SLOT_BITS: u32 = 6;
/// Slots per wheel level (`2^SLOT_BITS`).
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; together they cover `2^(LEVELS·SLOT_BITS)` µs
/// (≈ 19.1 hours) beyond the wheel origin before the overflow list kicks in.
pub const LEVELS: usize = 6;
/// Cap on the cursor capacity reserved by [`EventQueue::with_capacity`]:
/// the cursor only ever holds the events of a handful of instants, so
/// pre-sizing it to the whole expected in-flight population would waste
/// memory without saving a single reallocation.
const CURSOR_PRESIZE_CAP: usize = 4_096;

/// Which backend an [`EventQueue`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Hierarchical timer wheel; O(1) amortized push/pop. The default.
    #[default]
    Wheel,
    /// `BinaryHeap` reference implementation; O(log n) push/pop.
    Heap,
}

/// Structural counters of the timer-wheel backend, maintained on every
/// push/advance. All values are pure functions of the push/pop history
/// (never of wall time or addresses), so for a fixed seed they are
/// bit-identical run to run — the self-profiler exports them verbatim
/// under the deterministic half of the `prof.*` namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Cascade operations: buckets taken apart because `base` entered
    /// their window (the per-level drains of the wheel's `advance`).
    pub cascades: u64,
    /// Entries migrated to a lower level (or the cursor) by cascades.
    pub cascade_entries: u64,
    /// `cascade_entries` split by the level of the bucket that was taken
    /// apart. Index 0 stays zero: a level-0 bucket holds one instant and
    /// drains straight into the ready queue (a `level0_jumps` event).
    pub cascade_entries_by_level: [u64; LEVELS],
    /// Level-0 jumps: `base` advanced within its 64-µs window straight
    /// onto an occupied slot.
    pub level0_jumps: u64,
    /// Higher-level jumps: `base` rebased onto the nearest occupied slot
    /// of levels 1+.
    pub level_jumps: u64,
    /// Overflow rebases: everything pending sat beyond the wheel span
    /// and the origin was reset onto the overflow minimum.
    pub overflow_rebases: u64,
    /// Entries that went to the unsorted overflow list on push or
    /// re-place.
    pub overflow_pushes: u64,
    /// Ready-queue inserts that appended at the back (the hot
    /// schedule-at-now case).
    pub cursor_appends: u64,
    /// Ready-queue inserts that needed a sorted (binary-search) insert.
    pub cursor_sorted_inserts: u64,
    /// Longest single slot bucket drained by a cascade or level-0 jump —
    /// the wheel's analog of a slot-scan length.
    pub max_bucket_len: u64,
    /// Bucket chunks grown fresh (the event slab extended by one chunk).
    /// Chunks are only grown when the free list is empty, so this equals
    /// the peak number of chunks in use and goes flat after warmup — the
    /// allocation-free-steady-state invariant the benches gate on.
    pub chunk_allocs: u64,
    /// Bucket chunks recycled off the free list instead of grown.
    pub chunk_reuses: u64,
    /// Peak number of events resident in slot buckets and the overflow
    /// list (ready-queue entries excluded).
    pub node_peak_live: u64,
}

impl WheelStats {
    /// The most chunks a wheel can have needed at once, given that at
    /// most `node_peak_live` events were ever resident in its buckets
    /// (since construction: `clear` drops every chunk). Two bounds hold,
    /// and this is the smaller:
    ///
    /// * every chunk in use except the one a drain is consuming holds at
    ///   least one resident event, so at most `node_peak_live + 1`;
    /// * every chunk list is full except its tail chunk, and a drain
    ///   holds one detached list plus its partly consumed front chunk, so
    ///   at most `node_peak_live / CHUNK_CAP + LISTS + 2`.
    ///
    /// A free list that fails to recycle pushes `chunk_allocs` past this.
    pub fn chunk_allocs_ceiling(&self) -> u64 {
        let by_fill = self.node_peak_live / CHUNK_CAP as u64 + LISTS as u64 + 2;
        by_fill.min(self.node_peak_live + 1)
    }
}

/// A time-ordered queue of pending events.
#[derive(Debug)]
pub struct EventQueue<E> {
    imp: QueueImpl<E>,
    next_seq: u64,
    pushed_total: u64,
}

#[derive(Debug)]
enum QueueImpl<E> {
    // Boxed: the wheel's inline state is over ten times the heap's. The
    // queue is built once per simulation, so the box pointer is one
    // extra load that stays cached.
    Wheel(Box<Wheel<E>>),
    Heap(BinaryHeap<Entry<E>>),
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One pending event inside the wheel backend (and the unit an
/// [`InstantBatch`] carries). `time` is raw integer µs — slot placement
/// is bit arithmetic on it. Buckets, the ready queue and batches all
/// hold these inline, so an event's payload moves with its sort key.
#[derive(Debug)]
struct WheelEntry<E> {
    // simlint::unit(us)
    time: u64,
    seq: u64,
    event: E,
}

/// All events of one instant, drained out of the queue in one touch by
/// [`EventQueue::drain_instant`].
///
/// The driver consumes events with [`next_event`](InstantBatch::next_event)
/// and, if the model halts mid-batch, hands the unconsumed tail back with
/// [`EventQueue::restore`] so halt semantics match the one-pop-at-a-time
/// loop exactly. The batch keeps its allocation across drains.
#[derive(Debug)]
pub struct InstantBatch<E> {
    time: SimTime,
    entries: VecDeque<WheelEntry<E>>,
}

impl<E> InstantBatch<E> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        InstantBatch {
            time: SimTime::ZERO,
            entries: VecDeque::new(),
        }
    }

    /// The instant the current batch was drained at.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Takes the next event of the batch, in FIFO (push) order.
    pub fn next_event(&mut self) -> Option<E> {
        self.entries.pop_front().map(|e| e.event)
    }

    /// Number of events not yet consumed. Together with
    /// [`EventQueue::len`] this reconstructs the exact pending count the
    /// one-pop-at-a-time loop would report mid-instant.
    pub fn remaining(&self) -> usize {
        self.entries.len()
    }
}

impl<E> Default for InstantBatch<E> {
    fn default() -> Self {
        InstantBatch::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (wheel) backend.
    pub fn new() -> Self {
        EventQueue::with_capacity_and_kind(0, QueueKind::Wheel)
    }

    /// Creates an empty queue with room for `capacity` events before
    /// reallocating (for the wheel backend this pre-sizes the event
    /// slab; the cursor reservation is capped).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_capacity_and_kind(capacity, QueueKind::Wheel)
    }

    /// Creates an empty queue on the given backend.
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue::with_capacity_and_kind(0, kind)
    }

    /// Creates an empty queue on the given backend, pre-sized for
    /// `capacity` pending events.
    pub fn with_capacity_and_kind(capacity: usize, kind: QueueKind) -> Self {
        let imp = match kind {
            QueueKind::Wheel => QueueImpl::Wheel(Box::new(Wheel::new(capacity))),
            QueueKind::Heap => QueueImpl::Heap(BinaryHeap::with_capacity(capacity)),
        };
        EventQueue {
            imp,
            next_seq: 0,
            pushed_total: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.imp {
            QueueImpl::Wheel(_) => QueueKind::Wheel,
            QueueImpl::Heap(_) => QueueKind::Heap,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed_total += 1;
        match &mut self.imp {
            QueueImpl::Wheel(w) => w.push(WheelEntry {
                time: time.as_micros(),
                seq,
                event,
            }),
            QueueImpl::Heap(h) => h.push(Entry { time, seq, event }),
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.imp {
            QueueImpl::Wheel(w) => w.pop().map(|e| (SimTime::from_micros(e.time), e.event)),
            QueueImpl::Heap(h) => h.pop().map(|e| (e.time, e.event)),
        }
    }

    /// Drains **all** events of the earliest pending instant into `batch`
    /// (replacing its previous contents) and returns that instant, or
    /// `None` if the queue is empty. Events come out in FIFO (push) order.
    ///
    /// This is the driver's fast path: one queue touch per instant instead
    /// of one per event. Events pushed *at* the drained instant while the
    /// batch is being processed stay in the queue and come out in a
    /// subsequent drain — exactly the order a pop-at-a-time loop yields,
    /// because their `seq` is larger than every batched event's.
    pub fn drain_instant(&mut self, batch: &mut InstantBatch<E>) -> Option<SimTime> {
        batch.entries.clear();
        let time = match &mut self.imp {
            QueueImpl::Wheel(w) => SimTime::from_micros(w.drain_instant(&mut batch.entries)?),
            QueueImpl::Heap(h) => {
                let time = h.peek()?.time;
                while h.peek().is_some_and(|e| e.time == time) {
                    if let Some(e) = h.pop() {
                        batch.entries.push_back(WheelEntry {
                            time: time.as_micros(),
                            seq: e.seq,
                            event: e.event,
                        });
                    }
                }
                time
            }
        };
        batch.time = time;
        Some(time)
    }

    /// Puts the unconsumed tail of `batch` back into the queue, preserving
    /// the original sequence numbers (so a later drain yields the exact
    /// order a pop-at-a-time loop would have). Used when the model halts
    /// mid-instant.
    pub fn restore(&mut self, batch: &mut InstantBatch<E>) {
        let time = batch.time;
        match &mut self.imp {
            QueueImpl::Wheel(w) => w.restore(time.as_micros(), &mut batch.entries),
            QueueImpl::Heap(h) => {
                for e in batch.entries.drain(..) {
                    h.push(Entry {
                        time,
                        seq: e.seq,
                        event: e.event,
                    });
                }
            }
        }
    }

    /// The timestamp of the earliest pending event, if any. (`&mut`
    /// because the wheel backend advances its origin lazily: locating the
    /// next event may cascade slot buckets.)
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.imp {
            QueueImpl::Wheel(w) => w.peek_time().map(SimTime::from_micros),
            QueueImpl::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Wheel(w) => w.len,
            QueueImpl::Heap(h) => h.len(),
        }
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (a cheap progress metric).
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// The wheel backend's structural counters, or `None` on the heap.
    pub fn wheel_stats(&self) -> Option<WheelStats> {
        match &self.imp {
            QueueImpl::Wheel(w) => Some(w.stats),
            QueueImpl::Heap(_) => None,
        }
    }

    /// Current occupied-slot count per wheel level (popcount of the
    /// occupancy bitmaps), or `None` on the heap backend.
    pub fn wheel_occupancy(&self) -> Option<[u32; LEVELS]> {
        match &self.imp {
            QueueImpl::Wheel(w) => {
                let mut occ = [0u32; LEVELS];
                for (level, bits) in w.occ.iter().enumerate() {
                    occ[level] = bits.count_ones();
                }
                Some(occ)
            }
            QueueImpl::Heap(_) => None,
        }
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        match &mut self.imp {
            QueueImpl::Wheel(w) => w.clear(),
            QueueImpl::Heap(h) => h.clear(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Sentinel index terminating chunk lists and the chunk free list.
const NIL: u32 = u32::MAX;

/// Events per chunk. Appends fill a bucket's tail chunk sequentially and
/// cascades stream chunks front to back, so a chunk only needs to be big
/// enough to amortise its list link. The value is carried over from the
/// earlier layout whose chunks held 24-byte keys only (85 of them filled
/// 2 KiB); it has not been re-tuned for inline entries.
const CHUNK_CAP: usize = 85;

/// Index of the overflow list in `heads`/`tails`, after the slot buckets.
const OVERFLOW: usize = LEVELS * SLOTS;

/// Chunk lists: one per slot bucket, plus the overflow list.
const LISTS: usize = OVERFLOW + 1;

/// The list link and fill count of one chunk: a block of
/// [`CHUNK_CAP`] consecutive slab slots holding a bucket's events
/// inline. Buckets are singly-linked chunk lists with a tail pointer:
/// appends fill the tail chunk sequentially, cascades scan chunks front
/// to back — so the hot path streams over packed arrays instead of
/// chasing one pointer per event, and recycling whole chunks (not nodes)
/// keeps bucket memory contiguous no matter how scrambled the churn
/// order gets.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Next chunk of the same list, or the free-list link.
    next: u32,
    /// Occupied prefix of the chunk's slab range.
    len: u32,
}

/// The hierarchical timer wheel backend, with chunked bucket storage.
///
/// Layout and invariants (`base` is the wheel origin, in µs):
///
/// * **base** — the wheel origin: starts at 0 and advances **lazily**,
///   only when the consumer needs the next event (`pop`, `peek_time`,
///   `drain_instant`) and the ready queue is empty. It never moves past a
///   pending event, so it tracks the simulation's "now". Keeping pushes
///   independent of `base` movement is what makes bulk out-of-order
///   fills (e.g. staggering millions of initial client timers) O(1) per
///   push: every push later than `base` files into a slot; an eager
///   origin pinned to the first push would instead stream every earlier
///   event through the sorted ready queue — O(n) each.
/// * **slab / chunks** — the event store: one slab of whole
///   [`WheelEntry`]s, payload inline, cut into fixed-capacity chunks. A
///   push writes its event once into a tail chunk, a cascade moves it to
///   a lower bucket's tail chunk, and the drain that reaches it reads it
///   once, sequentially. Spent chunks recycle through a free list, so
///   after the bucket population peaks the slab never grows again — the
///   allocation-free steady state. One slab (rather than an allocation
///   per chunk) keeps the chunks out of the general heap, where they
///   would fragment it for everything else the process allocates.
/// * **cursor** — the ready queue: events at the earliest pending
///   instant, sorted by `(time, seq)`, refilled on demand by
///   [`advance`](Wheel::advance). After a refill every cursor entry is at
///   one instant (== `base`); pushes *at or before* `base` (the
///   `Scheduler::immediately` path) insert into it directly, keeping it
///   sorted, and a restored batch tail goes back at its front. While it
///   holds one instant, [`drain_instant`](Wheel::drain_instant) hands
///   the whole deque to the batch by swap.
/// * **heads / tails** — `LEVELS × SLOTS` buckets plus the overflow
///   list, each a singly-linked chunk list with a tail pointer for O(1)
///   seq-order append. An event at time `t > base` lives at level
///   `ℓ = floor(log₂(t XOR base) / SLOT_BITS)`, slot index
///   `(t >> ℓ·SLOT_BITS) & (SLOTS-1)`. XOR placement means an event's
///   level-ℓ index always differs from (and, because `t > base`, exceeds)
///   `base`'s own index at that level, and all events of one instant
///   always share a bucket. Buckets accumulate strictly in `seq` order —
///   events cascade down the moment `base` enters their window, before
///   any later push can target the same bucket — so no bucket ever needs
///   sorting.
/// * **occ** — one occupancy bitmap per level; finding the next pending
///   slot is a shift + `trailing_zeros`, no slot scan.
/// * **overflow** — the list for events ≥ 2^(LEVELS·SLOT_BITS) µs past
///   `base`; rescanned (O(n), amortized across the whole span) only when
///   everything nearer has drained.
///
/// When the next event is demanded and the cursor is empty,
/// [`advance`](Wheel::advance) moves `base` forward: cascade the buckets
/// keyed at `base`'s own indices, else jump `base` to the nearest
/// occupied slot of the lowest occupied level (never overshooting a
/// pending event), else rebase onto the overflow minimum. Every cascade
/// re-places events at strictly lower levels, so the loop terminates.
#[derive(Debug)]
struct Wheel<E> {
    base: u64,
    cursor: VecDeque<WheelEntry<E>>,
    occ: [u64; LEVELS],
    heads: Vec<u32>,
    tails: Vec<u32>,
    chunks: Vec<Chunk>,
    /// Chunk `c` owns `slab[c * CHUNK_CAP..][..CHUNK_CAP]`.
    slab: Vec<Option<WheelEntry<E>>>,
    chunk_free: u32,
    /// Events in buckets and the overflow list (not the cursor).
    live: u64,
    len: usize,
    stats: WheelStats,
}

impl<E> Wheel<E> {
    fn new(capacity: usize) -> Self {
        Wheel {
            base: 0,
            cursor: VecDeque::with_capacity(capacity.min(CURSOR_PRESIZE_CAP)),
            occ: [0; LEVELS],
            heads: vec![NIL; LISTS],
            tails: vec![NIL; LISTS],
            chunks: Vec::with_capacity(capacity.div_ceil(CHUNK_CAP)),
            slab: Vec::with_capacity(capacity.next_multiple_of(CHUNK_CAP)),
            chunk_free: NIL,
            live: 0,
            len: 0,
            stats: WheelStats::default(),
        }
    }

    /// `base`'s own slot index at `level`.
    fn level_index(&self, level: usize) -> usize {
        ((self.base >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// A fresh (empty, detached) chunk — recycled or grown.
    fn alloc_chunk(&mut self) -> u32 {
        if self.chunk_free != NIL {
            let c = self.chunk_free;
            self.chunk_free = self.chunks[c as usize].next;
            self.chunks[c as usize] = Chunk { next: NIL, len: 0 };
            self.stats.chunk_reuses += 1;
            c
        } else {
            let c = self.chunks.len() as u32;
            self.chunks.push(Chunk { next: NIL, len: 0 });
            self.slab.resize_with(self.slab.len() + CHUNK_CAP, || None);
            self.stats.chunk_allocs += 1;
            c
        }
    }

    /// Returns the emptied chunk `c` to the free list. Callers walking a
    /// chunk list must read `.next` *before* this — it becomes the
    /// free-list link.
    fn free_chunk(&mut self, c: u32) {
        self.chunks[c as usize].next = self.chunk_free;
        self.chunk_free = c;
    }

    /// Detaches list `list` and returns its head chunk.
    fn take_list(&mut self, list: usize) -> u32 {
        self.tails[list] = NIL;
        std::mem::replace(&mut self.heads[list], NIL)
    }

    /// Appends one event to list `list` (tail append preserves seq
    /// order).
    fn list_push(&mut self, list: usize, e: WheelEntry<E>) {
        let mut tail = self.tails[list];
        if tail == NIL || self.chunks[tail as usize].len as usize == CHUNK_CAP {
            let c = self.alloc_chunk();
            if tail == NIL {
                self.heads[list] = c;
            } else {
                self.chunks[tail as usize].next = c;
            }
            self.tails[list] = c;
            tail = c;
        }
        let chunk = &mut self.chunks[tail as usize];
        self.slab[tail as usize * CHUNK_CAP + chunk.len as usize] = Some(e);
        chunk.len += 1;
    }

    fn push(&mut self, e: WheelEntry<E>) {
        self.len += 1;
        if e.time <= self.base {
            self.cursor_insert(e);
        } else {
            self.live += 1;
            self.stats.node_peak_live = self.stats.node_peak_live.max(self.live);
            self.place_entry(e);
        }
    }

    /// Refills the ready queue from the slots if it has gone empty. Every
    /// consuming operation calls this first; pushes never touch `base`.
    fn ensure_cursor(&mut self) {
        if self.cursor.is_empty() && self.len > 0 {
            self.advance();
        }
    }

    /// Sorted insert into the ready queue. The hot case — scheduling at
    /// the instant currently being processed — appends at the back.
    fn cursor_insert(&mut self, e: WheelEntry<E>) {
        let key = (e.time, e.seq);
        match self.cursor.back() {
            Some(b) if (b.time, b.seq) <= key => {
                self.stats.cursor_appends += 1;
                self.cursor.push_back(e);
            }
            _ => {
                self.stats.cursor_sorted_inserts += 1;
                let at = self.cursor.partition_point(|x| (x.time, x.seq) < key);
                self.cursor.insert(at, e);
            }
        }
    }

    /// Files an event (whose time is > `base`) into its slot bucket or
    /// the overflow list.
    fn place_entry(&mut self, e: WheelEntry<E>) {
        debug_assert!(e.time > self.base);
        let level = ((63 - (e.time ^ self.base).leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.stats.overflow_pushes += 1;
            self.list_push(OVERFLOW, e);
        } else {
            let idx = ((e.time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            self.occ[level] |= 1 << idx;
            self.list_push(level * SLOTS + idx, e);
        }
    }

    fn peek_time(&mut self) -> Option<u64> {
        self.ensure_cursor();
        self.cursor.front().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<WheelEntry<E>> {
        self.ensure_cursor();
        let e = self.cursor.pop_front()?;
        self.len -= 1;
        Some(e)
    }

    /// Moves the earliest instant's events into the empty `out`. When
    /// the cursor holds that instant alone (the `run_until` case: a refill
    /// loads one instant) the two deques swap, so `out`'s old
    /// allocation becomes the next cursor and no event is touched.
    fn drain_instant(&mut self, out: &mut VecDeque<WheelEntry<E>>) -> Option<u64> {
        debug_assert!(out.is_empty());
        self.ensure_cursor();
        let time = self.cursor.front()?.time;
        if self.cursor.back().is_some_and(|e| e.time == time) {
            std::mem::swap(&mut self.cursor, out);
            self.len -= out.len();
        } else {
            while self.cursor.front().is_some_and(|e| e.time == time) {
                if let Some(e) = self.cursor.pop_front() {
                    self.len -= 1;
                    out.push_back(e);
                }
            }
        }
        Some(time)
    }

    /// Re-inserts a drained-but-unprocessed batch tail. The tail's seqs
    /// all predate anything pushed since the drain, so the whole block
    /// belongs at the very front of the ready queue: the cursor is
    /// appended to the tail and the two deques swap, leaving `tail`
    /// empty.
    // simlint::unit(us)
    fn restore(&mut self, time: u64, tail: &mut VecDeque<WheelEntry<E>>) {
        debug_assert!(tail.iter().all(|e| e.time == time));
        debug_assert!(tail
            .back()
            .zip(self.cursor.front())
            .is_none_or(|(b, f)| (b.time, b.seq) < (f.time, f.seq)));
        let restored = tail.len();
        tail.append(&mut self.cursor);
        std::mem::swap(&mut self.cursor, tail);
        self.len += restored;
        if self.len == restored {
            self.base = time;
        }
    }

    fn clear(&mut self) {
        self.base = 0;
        self.cursor.clear();
        self.occ = [0; LEVELS];
        self.heads.fill(NIL);
        self.tails.fill(NIL);
        self.chunks.clear();
        self.slab.clear();
        self.chunk_free = NIL;
        self.live = 0;
        self.len = 0;
    }

    /// Drains the detached chunk list starting at `cur`: events at or
    /// before `base` move to the cursor, later ones re-file into lower
    /// buckets. Consumed chunks return to the free list. Returns the
    /// number of events moved.
    fn drain_chunk_list(&mut self, mut cur: u32) -> u64 {
        let mut moved = 0u64;
        while cur != NIL {
            // Read the link first: free_chunk repurposes `next`, and
            // place_entry may recycle chunks freed earlier in this walk.
            let Chunk { next, len } = self.chunks[cur as usize];
            let start = cur as usize * CHUNK_CAP;
            for i in start..start + len as usize {
                // INVARIANT: a chunk's occupied prefix holds events, each
                // taken exactly once before the chunk is freed.
                let e = self.slab[i].take().expect("wheel chunk entry taken twice");
                if e.time <= self.base {
                    self.live -= 1;
                    self.cursor.push_back(e);
                } else {
                    self.place_entry(e);
                }
            }
            moved += u64::from(len);
            self.free_chunk(cur);
            cur = next;
        }
        moved
    }

    /// Moves `base` forward to the next pending instant and loads its
    /// events into the (empty) cursor. Called only with `len > 0`.
    ///
    /// Cost is proportional to the events actually moved: a cascade
    /// streams a bucket's chunks front to back (sequential reads),
    /// appends survivors to the ≤ [`SLOTS`] destination tail chunks
    /// (near-sequential writes), and the jump logic skips empty spans
    /// through the occupancy bitmaps without touching any event at all.
    fn advance(&mut self) {
        debug_assert!(self.cursor.is_empty() && self.len > 0);
        loop {
            // Cascade the buckets keyed at base's own index, highest level
            // first so entries settle through lower levels in one pass.
            // Entries landing exactly at base become the ready queue.
            for level in (1..LEVELS).rev() {
                let idx = self.level_index(level);
                if self.occ[level] & (1 << idx) != 0 {
                    self.occ[level] &= !(1 << idx);
                    let head = self.take_list(level * SLOTS + idx);
                    self.stats.cascades += 1;
                    let moved = self.drain_chunk_list(head);
                    self.stats.cascade_entries += moved;
                    self.stats.cascade_entries_by_level[level] += moved;
                    self.stats.max_bucket_len = self.stats.max_bucket_len.max(moved);
                }
            }
            if !self.cursor.is_empty() {
                return;
            }
            // Level 0 beats every higher level: its entries are inside
            // base's current 64-µs window, higher levels' are beyond it.
            let idx0 = self.level_index(0);
            let ahead = self.occ[0] >> idx0;
            debug_assert!(ahead & 1 == 0, "level-0 slot at base was not drained");
            if ahead != 0 {
                self.base += u64::from(ahead.trailing_zeros());
                let idx = self.level_index(0);
                self.occ[0] &= !(1 << idx);
                self.stats.level0_jumps += 1;
                let head = self.take_list(idx);
                let moved = self.drain_chunk_list(head);
                self.stats.max_bucket_len = self.stats.max_bucket_len.max(moved);
                return;
            }
            // Jump to the nearest occupied slot of the lowest occupied
            // level. That slot contains the global minimum (nearer slots
            // of higher levels cannot exist by XOR placement), and the
            // jump leaves base's lower bits zero, so no pending event is
            // overshot. The next iteration cascades it downward.
            if let Some(level) = (1..LEVELS).find(|&l| self.occ[l] != 0) {
                let idx = self.level_index(level);
                let ahead = self.occ[level] >> idx;
                debug_assert!(ahead != 0, "occupied slot behind base at level {level}");
                let shift = SLOT_BITS * level as u32;
                self.base = ((self.base >> shift) + u64::from(ahead.trailing_zeros())) << shift;
                self.stats.level_jumps += 1;
                continue;
            }
            // Everything pending is in the overflow: rebase onto its
            // minimum and re-place. Entries still ≥ 2^36 µs out simply
            // return to the (freshly emptied) overflow list, in order.
            debug_assert!(self.heads[OVERFLOW] != NIL, "len > 0 but nothing pending");
            self.stats.overflow_rebases += 1;
            let mut min = u64::MAX;
            let mut cur = self.heads[OVERFLOW];
            while cur != NIL {
                let Chunk { next, len } = self.chunks[cur as usize];
                let start = cur as usize * CHUNK_CAP;
                for e in self.slab[start..start + len as usize].iter().flatten() {
                    min = min.min(e.time);
                }
                cur = next;
            }
            self.base = min;
            let head = self.take_list(OVERFLOW);
            self.drain_chunk_list(head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::rc::Rc;

    /// Runs a queue test against both backends.
    fn on_both(f: impl Fn(QueueKind)) {
        f(QueueKind::Wheel);
        f(QueueKind::Heap);
    }

    #[test]
    fn default_backend_is_the_wheel() {
        let q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.kind(), QueueKind::Wheel);
        let q: EventQueue<u8> = EventQueue::with_kind(QueueKind::Heap);
        assert_eq!(q.kind(), QueueKind::Heap);
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_micros(30), 3);
            q.push(SimTime::from_micros(10), 1);
            q.push(SimTime::from_micros(20), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn fifo_among_equal_times() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_millis(1);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn interleaved_pushes_stay_fifo_per_instant() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let a = SimTime::from_millis(1);
            let b = SimTime::from_millis(2);
            q.push(b, "b0");
            q.push(a, "a0");
            q.push(b, "b1");
            q.push(a, "a1");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!["a0", "a1", "b0", "b1"]);
        });
    }

    #[test]
    fn peek_time_matches_next_pop() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_secs(2), ());
            q.push(SimTime::from_secs(1), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_secs(1));
        });
    }

    #[test]
    fn len_and_counters() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            assert!(q.is_empty());
            q.push(SimTime::ZERO, ());
            q.push(SimTime::ZERO + SimDuration::from_micros(1), ());
            assert_eq!(q.len(), 2);
            assert_eq!(q.pushed_total(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
            assert_eq!(q.pushed_total(), 2);
            q.clear();
            assert!(q.is_empty());
        });
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        q.push(SimTime::ZERO, 7u8);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 7u8)));
    }

    #[test]
    fn far_future_events_cross_the_overflow() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            // ~27.8 h and ~55.6 h: both far beyond the 19.1 h wheel span.
            q.push(SimTime::from_secs(200_000), "far2");
            q.push(SimTime::from_secs(100_000), "far1");
            q.push(SimTime::from_micros(3), "near");
            assert_eq!(q.pop(), Some((SimTime::from_micros(3), "near")));
            assert_eq!(q.pop(), Some((SimTime::from_secs(100_000), "far1")));
            assert_eq!(q.pop(), Some((SimTime::from_secs(200_000), "far2")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn pushing_at_the_current_instant_stays_fifo_after_pop() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_millis(7);
            q.push(t, 0);
            q.push(t + SimDuration::from_millis(1), 9);
            assert_eq!(q.pop(), Some((t, 0)));
            // Model schedules "immediately" while handling the popped event.
            q.push(t, 1);
            q.push(t, 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 9]);
        });
    }

    #[test]
    fn drain_instant_batches_one_instant_in_fifo_order() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let a = SimTime::from_millis(1);
            let b = SimTime::from_millis(2);
            q.push(b, 20);
            q.push(a, 10);
            q.push(a, 11);
            let mut batch = InstantBatch::new();
            assert_eq!(q.drain_instant(&mut batch), Some(a));
            assert_eq!(batch.time(), a);
            assert_eq!(batch.remaining(), 2);
            assert_eq!(batch.next_event(), Some(10));
            assert_eq!(batch.next_event(), Some(11));
            assert_eq!(batch.next_event(), None);
            assert_eq!(q.len(), 1);
            assert_eq!(q.drain_instant(&mut batch), Some(b));
            assert_eq!(batch.next_event(), Some(20));
            assert_eq!(q.drain_instant(&mut batch), None);
        });
    }

    #[test]
    fn restore_puts_the_unconsumed_tail_back_in_order() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_millis(3);
            for i in 0..4 {
                q.push(t, i);
            }
            q.push(t + SimDuration::from_millis(1), 99);
            let mut batch = InstantBatch::new();
            assert_eq!(q.drain_instant(&mut batch), Some(t));
            assert_eq!(batch.next_event(), Some(0));
            // Halt after handling event 0; events pushed meanwhile must
            // still pop after the restored tail.
            q.push(t, 4);
            q.restore(&mut batch);
            assert_eq!(q.len(), 5);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3, 4, 99]);
        });
    }

    #[test]
    fn drain_after_same_instant_push_yields_the_newcomers() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_millis(5);
            q.push(t, 0);
            q.push(SimTime::from_millis(6), 9);
            let mut batch = InstantBatch::new();
            assert_eq!(q.drain_instant(&mut batch), Some(t));
            assert_eq!(batch.next_event(), Some(0));
            // The model schedules at the instant being processed: a second
            // drain must yield it before the later instant.
            q.push(t, 1);
            assert_eq!(q.drain_instant(&mut batch), Some(t));
            assert_eq!(batch.next_event(), Some(1));
            assert_eq!(q.drain_instant(&mut batch), Some(SimTime::from_millis(6)));
            assert_eq!(batch.next_event(), Some(9));
        });
    }

    /// A randomized mirror check against a sorted reference, exercising
    /// slot cascades and wheel jumps across several levels. (The heavier
    /// differential suite lives in `tests/proptests.rs`.)
    #[test]
    fn wheel_matches_sorted_reference_on_a_mixed_schedule() {
        let mut q = EventQueue::with_kind(QueueKind::Wheel);
        let mut expected: Vec<(u64, u64)> = Vec::new();
        // Deterministic pseudo-random times spanning all wheel levels.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for seq in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = match seq % 7 {
                0 => x % 64,             // level 0
                1 => x % 4_096,          // level 1
                2 => x % 100_000,        // levels 2-3
                3 => x % 80_000_000_000, // overflow territory
                _ => x % 10_000_000,     // level 4
            };
            q.push(SimTime::from_micros(t), seq);
            expected.push((t, seq));
        }
        expected.sort();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn wheel_stats_are_deterministic_and_structural() {
        let run = || {
            let mut q = EventQueue::with_kind(QueueKind::Wheel);
            // Spread across levels plus the overflow, then drain fully.
            for i in 0..500u64 {
                let t = (i * 7919) % 20_000_000;
                q.push(SimTime::from_micros(t), i);
            }
            q.push(SimTime::from_secs(100_000), 999); // beyond the wheel span
            while q.pop().is_some() {}
            q.wheel_stats().expect("wheel backend carries stats")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical push histories must yield identical stats");
        assert!(a.cascades > 0, "multi-level schedule must cascade");
        assert!(a.level0_jumps + a.level_jumps > 0);
        assert_eq!(a.overflow_pushes, 1);
        assert_eq!(a.overflow_rebases, 1);
        assert!(a.max_bucket_len >= 1);
        assert_eq!(a.cascade_entries_by_level[0], 0, "level 0 never cascades");
        assert_eq!(
            a.cascade_entries_by_level.iter().sum::<u64>(),
            a.cascade_entries
        );
        // Everything but the t = 0 event (which goes straight to the
        // ready queue) was bucket-resident before the first pop.
        assert_eq!(a.node_peak_live, 500);
        assert!(a.chunk_allocs > 0, "slot-resident pushes use chunks");
        assert!(a.chunk_allocs <= a.chunk_allocs_ceiling());
    }

    /// The allocation-free steady state at queue level: once the chunk
    /// population peaks, every later bucket append that needs a chunk
    /// recycles a spent one and `chunk_allocs` stops moving.
    #[test]
    fn wheel_arena_recycles_nodes_in_steady_state() {
        let mut q = EventQueue::with_kind(QueueKind::Wheel);
        // 64 pending timers spread far enough apart to live in slots
        // (not the cursor).
        for i in 0..64u64 {
            q.push(SimTime::from_micros(1_000 + i * 1_000), i);
        }
        // Pop one, reschedule one: first to warm up, then measured.
        let churn = |q: &mut EventQueue<u64>, rounds: u64| {
            for i in 0..rounds {
                let (t, _) = q.pop().unwrap();
                q.push(t + SimDuration::from_millis(64), i);
            }
        };
        churn(&mut q, 2_000);
        let warm = q.wheel_stats().unwrap();
        churn(&mut q, 10_000);
        let s = q.wheel_stats().unwrap();
        assert_eq!(
            s.chunk_allocs, warm.chunk_allocs,
            "steady-state churn must be served entirely off the free list"
        );
        assert!(s.chunk_reuses >= warm.chunk_reuses + 10_000);
        assert!(s.chunk_allocs <= s.chunk_allocs_ceiling());
        assert_eq!(s.node_peak_live, 64);
    }

    /// Every payload is a clone of one `Rc`, so its strong count tracks
    /// exactly how many payloads are alive wherever the queue moved
    /// them: a leak keeps the count up, a lost or early drop brings it
    /// down.
    #[test]
    fn payloads_are_dropped_exactly_once_on_every_path() {
        on_both(|kind| {
            let token = Rc::new(());
            let tracked = || Rc::clone(&token);
            let live = || Rc::strong_count(&token) - 1;
            let mut q = EventQueue::with_kind(kind);
            // Delays on every level, one past the wheel span, and a
            // same-instant run long enough to fill several chunks.
            let far = SimTime::from_secs(100_000);
            for shift in 0..36 {
                q.push(SimTime::from_micros(3 + (1 << shift)), tracked());
            }
            q.push(far, tracked());
            let t = SimTime::from_micros(5_000_000);
            for _ in 0..300 {
                q.push(t, tracked());
            }
            assert_eq!(live(), 337);
            // Pops, cascades and level jumps move payloads without
            // cloning or leaking them.
            for _ in 0..20 {
                drop(q.pop().unwrap());
            }
            assert_eq!(live(), 317);
            // Drain the 300-event instant and halt mid-batch.
            let mut batch = InstantBatch::new();
            while q.drain_instant(&mut batch) != Some(t) {
                while let Some(e) = batch.next_event() {
                    drop(e);
                }
            }
            assert_eq!(batch.remaining(), 300);
            for _ in 0..100 {
                drop(batch.next_event().unwrap());
            }
            q.push(t, tracked());
            q.restore(&mut batch);
            assert_eq!(batch.remaining(), 0);
            assert_eq!(live(), q.len());
            assert_eq!(q.drain_instant(&mut batch), Some(t));
            assert_eq!(batch.remaining(), 201);
            for _ in 0..50 {
                drop(batch.next_event().unwrap());
            }
            // clear() drops everything pending; the batch still owns its
            // unconsumed tail until it is dropped.
            q.clear();
            assert_eq!(live(), batch.remaining());
            drop(batch);
            assert_eq!(live(), 0);
            // Dropping the queue drops whatever is still pending,
            // including bucket- and overflow-resident payloads.
            for shift in 0..40 {
                q.push(SimTime::from_micros(1 << shift), tracked());
            }
            q.push(SimTime::ZERO, tracked());
            drop(q.pop());
            assert_eq!(live(), 40);
            drop(q);
            assert_eq!(live(), 0);
        });
    }

    /// After `peek_time` has moved the wheel's origin past the instant
    /// a caller still considers "now", a push below the origin joins the
    /// ready queue ahead of the peeked instant, which then holds two
    /// instants: `drain_instant` must hand over only the earlier one.
    #[test]
    fn drain_instant_splits_a_two_instant_ready_queue() {
        on_both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let late = SimTime::from_millis(9);
            q.push(late, 1);
            q.push(late, 2);
            assert_eq!(q.peek_time(), Some(late));
            let early = SimTime::from_millis(4);
            q.push(early, 0);
            let mut batch = InstantBatch::new();
            assert_eq!(q.drain_instant(&mut batch), Some(early));
            assert_eq!(batch.remaining(), 1);
            assert_eq!(batch.next_event(), Some(0));
            assert_eq!(q.len(), 2);
            assert_eq!(q.drain_instant(&mut batch), Some(late));
            assert_eq!(batch.next_event(), Some(1));
            assert_eq!(batch.next_event(), Some(2));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn heap_backend_has_no_wheel_stats() {
        let mut q = EventQueue::with_kind(QueueKind::Heap);
        q.push(SimTime::ZERO, ());
        assert_eq!(q.wheel_stats(), None);
        assert_eq!(q.wheel_occupancy(), None);
    }

    #[test]
    fn wheel_occupancy_counts_occupied_slots() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.wheel_occupancy(), Some([0; LEVELS]));
        // Three distinct level-0 slots ahead of base.
        q.push(SimTime::from_micros(1), 0);
        q.push(SimTime::from_micros(2), 1);
        q.push(SimTime::from_micros(3), 2);
        let occ = q.wheel_occupancy().expect("wheel backend");
        assert_eq!(occ[0], 3);
        assert_eq!(occ[1..].iter().sum::<u32>(), 0);
    }
}
