//! Generational slab arena for in-flight request state.
//!
//! The hot path touches the request table on almost every event, and the
//! table key — the logical [`RequestId`](crate::request::RequestId)
//! counter — is strictly increasing while the *live* id span at any
//! instant is narrow (bounded by the in-flight population). A `BTreeMap`
//! pays O(log n) per touch for ordering nobody iterates; this arena pays
//! O(1) by combining:
//!
//! * a **generational slab** — `RequestSlot { generation, state }`
//!   entries recycled through a free list. The generation bumps on every
//!   free, so a stale handle ([`SlotRef`]) to a recycled slot can never
//!   alias the new occupant; and
//! * a **sliding id window** — a `VecDeque` mapping `key - base` to the
//!   packed `(generation, slot)` pair. `base` advances as the oldest keys
//!   retire, so memory tracks the live span, not the run length.
//!
//! Determinism: lookup by key has no order at all, and
//! [`RequestArena::iter`] walks slots by slot index — both independent of
//! hash state or allocation addresses. The golden trace/registry digests
//! (seeds 7/8/42) pin the migration from `BTreeMap` byte-for-byte.

use std::collections::VecDeque;

/// Sentinel for a window position with no live entry. A real packed pair
/// can't collide with it: that would need both a `u32::MAX` generation
/// and 2³²−1 slots alive at once.
const EMPTY: u64 = u64::MAX;

/// One recyclable slot of the arena.
#[derive(Debug)]
struct RequestSlot<T> {
    /// Bumped each time the slot is freed; stale [`SlotRef`]s from an
    /// earlier occupancy fail the generation check instead of aliasing.
    generation: u32,
    /// The key currently occupying this slot (meaningful while `state`
    /// is `Some`); lets [`RequestArena::iter`] yield keyed entries.
    key: u64,
    state: Option<T>,
}

/// Occupancy and recycling counters for a [`RequestArena`].
///
/// Pure functions of the insert/remove history — deterministic for a
/// fixed seed — exported under the `prof.arena.*` namespace when kernel
/// profiling is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Inserts served by recycling a freed slot.
    pub reuses: u64,
    /// Inserts that had to grow the slot vector. Flat after warmup when
    /// the free list recycles everything — the allocation-free
    /// steady-state invariant the bench and CI gate on.
    pub allocs: u64,
    /// Maximum simultaneously live entries.
    pub peak_live: u64,
    /// Maximum width of the sliding id window (live span incl. gaps).
    pub peak_window: u64,
}

/// A generation-checked handle to one arena entry.
///
/// Resolving a `SlotRef` after its entry was removed — even if the slot
/// was recycled for a newer request — yields `None`, never the new
/// occupant's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRef {
    slot: u32,
    generation: u32,
}

/// O(1) keyed storage for request-lifetime state. Keys must be inserted
/// in non-decreasing order (the request counter guarantees it); lookups
/// and removals are unrestricted.
#[derive(Debug)]
pub struct RequestArena<T> {
    slots: Vec<RequestSlot<T>>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
    /// `index[i]` maps key `base + i` to its packed `(generation, slot)`.
    index: VecDeque<u64>,
    /// Key of `index`'s front position.
    base: u64,
    live: usize,
    stats: ArenaStats,
}

impl<T> RequestArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        RequestArena::with_capacity(0)
    }

    /// Creates an empty arena pre-sized for `capacity` simultaneously
    /// live entries.
    pub fn with_capacity(capacity: usize) -> Self {
        RequestArena {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            index: VecDeque::with_capacity(capacity),
            base: 0,
            live: 0,
            stats: ArenaStats::default(),
        }
    }

    /// Lifetime occupancy/recycling counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Window offset of `key`, if the key can currently be live.
    fn offset(&self, key: u64) -> Option<usize> {
        if key < self.base {
            return None;
        }
        let off = (key - self.base) as usize;
        (off < self.index.len()).then_some(off)
    }

    /// Unpacks a window cell into `(generation, slot)`.
    fn unpack(cell: u64) -> (u32, usize) {
        ((cell >> 32) as u32, (cell & u32::MAX as u64) as usize)
    }

    /// Inserts `value` under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already live or precedes a key that was already
    /// retired (the window only slides forward).
    pub fn insert(&mut self, key: u64, value: T) {
        if self.index.is_empty() {
            self.base = key;
        }
        assert!(
            key >= self.base,
            "arena keys only slide forward: key {key} precedes base {}",
            self.base
        );
        let off = (key - self.base) as usize;
        while self.index.len() <= off {
            self.index.push_back(EMPTY);
        }
        assert_eq!(self.index[off], EMPTY, "key {key} inserted twice");
        let slot = match self.free.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                entry.key = key;
                entry.state = Some(value);
                self.stats.reuses += 1;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).unwrap_or_else(|_| {
                    unreachable!("more than 2^32 simultaneously live requests")
                });
                self.slots.push(RequestSlot {
                    generation: 0,
                    key,
                    state: Some(value),
                });
                self.stats.allocs += 1;
                s
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.index[off] = (u64::from(generation) << 32) | u64::from(slot);
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live as u64);
        self.stats.peak_window = self.stats.peak_window.max(self.index.len() as u64);
    }

    /// Shared access to the entry under `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        let off = self.offset(key)?;
        let cell = self.index[off];
        if cell == EMPTY {
            return None;
        }
        let (_, slot) = Self::unpack(cell);
        self.slots[slot].state.as_ref()
    }

    /// Exclusive access to the entry under `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let off = self.offset(key)?;
        let cell = self.index[off];
        if cell == EMPTY {
            return None;
        }
        let (_, slot) = Self::unpack(cell);
        self.slots[slot].state.as_mut()
    }

    /// Removes and returns the entry under `key`, recycling its slot.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let off = self.offset(key)?;
        let cell = self.index[off];
        if cell == EMPTY {
            return None;
        }
        let (_, slot) = Self::unpack(cell);
        let entry = &mut self.slots[slot];
        let state = entry.state.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.index[off] = EMPTY;
        self.free.push(slot as u32);
        self.live -= 1;
        // Slide the window past retired keys so it tracks the live span.
        while self.index.front() == Some(&EMPTY) {
            self.index.pop_front();
            self.base += 1;
        }
        Some(state)
    }

    /// A generation-checked handle to `key`'s current entry.
    pub fn slot_ref(&self, key: u64) -> Option<SlotRef> {
        let off = self.offset(key)?;
        let cell = self.index[off];
        if cell == EMPTY {
            return None;
        }
        let (generation, slot) = Self::unpack(cell);
        Some(SlotRef {
            slot: slot as u32,
            generation,
        })
    }

    /// Resolves a handle, returning `None` if the entry was removed since
    /// (even if the slot has been recycled for a newer key).
    pub fn resolve(&self, r: SlotRef) -> Option<&T> {
        let entry = self.slots.get(r.slot as usize)?;
        if entry.generation != r.generation {
            return None;
        }
        entry.state.as_ref()
    }

    /// Iterates live entries **by slot index** — a deterministic order
    /// that depends only on the insertion/removal history, never on
    /// addresses or hashes.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .filter_map(|s| s.state.as_ref().map(|v| (s.key, v)))
    }
}

impl<T> Default for RequestArena<T> {
    fn default() -> Self {
        RequestArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = RequestArena::new();
        assert!(a.is_empty());
        a.insert(0, "r0");
        a.insert(1, "r1");
        a.insert(2, "r2");
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(1), Some(&"r1"));
        *a.get_mut(1).unwrap() = "r1'";
        assert_eq!(a.remove(1), Some("r1'"));
        assert_eq!(a.get(1), None);
        assert_eq!(a.remove(1), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn window_slides_past_retired_keys() {
        let mut a = RequestArena::new();
        for k in 0..100u64 {
            a.insert(k, k);
        }
        for k in 0..90u64 {
            assert_eq!(a.remove(k), Some(k));
        }
        // The window now starts at 90; retired keys read as gone.
        assert_eq!(a.get(5), None);
        assert_eq!(a.get(95), Some(&95));
        assert_eq!(a.index.len(), 10);
        a.insert(100, 100);
        assert_eq!(a.len(), 11);
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut a = RequestArena::new();
        a.insert(0, 'a');
        a.insert(1, 'b');
        a.remove(0);
        a.insert(2, 'c'); // reuses slot 0
        assert_eq!(a.slots.len(), 2);
        assert_eq!(a.get(2), Some(&'c'));
        assert_eq!(a.get(1), Some(&'b'));
    }

    #[test]
    fn stale_slot_ref_cannot_alias_a_recycled_slot() {
        let mut a = RequestArena::new();
        a.insert(7, "old");
        let stale = a.slot_ref(7).unwrap();
        assert_eq!(a.resolve(stale), Some(&"old"));
        a.remove(7);
        assert_eq!(a.resolve(stale), None);
        // Key 8 recycles the freed slot...
        a.insert(8, "new");
        assert_eq!(a.slot_ref(8).unwrap().slot, stale.slot);
        // ...but the stale handle still refuses to resolve.
        assert_eq!(a.resolve(stale), None);
        assert_eq!(a.resolve(a.slot_ref(8).unwrap()), Some(&"new"));
    }

    #[test]
    fn sparse_keys_leave_window_gaps_not_entries() {
        let mut a = RequestArena::new();
        a.insert(10, 1);
        a.insert(13, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(11), None);
        assert_eq!(a.get(12), None);
        a.insert(11, 3);
        assert_eq!(a.get(11), Some(&3));
    }

    #[test]
    fn iteration_is_by_slot_index() {
        let mut a = RequestArena::new();
        a.insert(0, "k0");
        a.insert(1, "k1");
        a.insert(2, "k2");
        a.remove(1);
        a.insert(3, "k3"); // recycles slot 1
        let seen: Vec<(u64, &str)> = a.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(seen, vec![(0, "k0"), (3, "k3"), (2, "k2")]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut a = RequestArena::new();
        a.insert(4, 1);
        a.insert(4, 2);
    }

    #[test]
    fn stats_count_reuse_and_peaks() {
        let mut a = RequestArena::new();
        a.insert(0, 'a');
        a.insert(1, 'b');
        a.remove(0);
        a.insert(2, 'c'); // free-list hit
        a.insert(3, 'd');
        let s = a.stats();
        assert_eq!(s.allocs, 3);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.peak_live, 3);
        assert!(s.peak_window >= 3);
    }
}
