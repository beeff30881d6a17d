//! The future event list.
//!
//! This is the hottest data structure in the workspace — every simulated
//! session schedules, cancels and pops its events through it, the fig11/fig12
//! sweeps pop millions of timer events per campaign, and the population-scale
//! node simulation keeps *millions of timers pending at once* — so it is
//! built for the hot path:
//!
//! * **Slab arena of event slots.**  Payloads live in a flat `Vec` of slots
//!   reused through a free list, so steady-state timer churn allocates
//!   nothing and payloads never move once stored.
//! * **Generation-tagged ids.**  An [`EventId`] is `{slot, generation}`; a
//!   slot's generation is bumped every time it is vacated (delivered or
//!   cancelled), so a stale id can never reach a reused slot.  `cancel` is a
//!   single bounds-check + generation compare — O(1), no hashing, and no
//!   tombstone sets to collect.
//! * **Pluggable ordering core.**  Ordering lives apart from the payloads,
//!   in one of two stores of small `(time, seq, slot, generation)` keys
//!   selected by [`QueueKind`]: an implicit 4-ary min-heap (O(log₄ n), the
//!   default) or a calendar queue (O(1) average at large backlogs; see
//!   `calendar.rs`).  Both yield the identical total `(time, seq)` order,
//!   so every simulation is bit-for-bit reproducible under either core.
//!   Cancelled slots leave a stale key behind that is discarded for free
//!   when it surfaces as the minimum.

use crate::calendar::CalendarCore;
use crate::time::SimTime;

/// Identifier of a scheduled event, used for cancellation.
///
/// Ids are generation-tagged slot references: the queue reuses payload slots
/// through a free list, and every reuse bumps the slot's generation, so an id
/// held after its event fired (or was cancelled) compares unequal to every
/// later id and all operations on it are no-ops.  The generation wraps at
/// `u32::MAX`, i.e. a stale id could collide only after its slot has been
/// vacated 2³² times while the id is still being held.
///
/// Ids are opaque: they can be compared for equality and hashed, but —
/// unlike the pre-slab monotonic ids — they carry no ordering (slot reuse
/// makes any derived order meaningless), so `Ord` is deliberately not
/// implemented and [`EventId::raw`] is not monotonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

impl EventId {
    /// The raw identifier value (for logging / tracing): the generation in
    /// the high 32 bits, the slot index in the low 32.
    pub fn raw(self) -> u64 {
        (self.generation as u64) << 32 | self.slot as u64
    }
}

/// Which ordering core an [`EventQueue`] runs on.
///
/// Both kinds expose the identical public API and deliver the identical
/// event sequence (total `(time, seq)` order, FIFO for simultaneous
/// events); they differ only in how the pending-key set is organized and
/// therefore in how cost scales with the backlog:
///
/// * [`QueueKind::Heap`] — implicit 4-ary min-heap: O(log₄ n) insert/pop,
///   no tuning, the best constant factor at small and medium backlogs.
///   The default.
/// * [`QueueKind::Calendar`] — calendar queue: O(1) *average* insert/pop
///   once the bucket width is calibrated, which wins when very many timers
///   are pending at once (the population-scale node simulation).  See
///   `docs/perf.md` for the measured crossover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Implicit 4-ary min-heap of keys (the default).
    #[default]
    Heap,
    /// Calendar queue (bucketed timer wheel with adaptive width).
    Calendar,
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QueueKind::Heap => "heap",
            QueueKind::Calendar => "calendar",
        })
    }
}

/// An event popped from the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The identifier the event was scheduled under.
    pub id: EventId,
    /// The event payload.
    pub event: E,
}

/// One payload slot of the arena.  `event` is `Some` exactly while the slot
/// holds a scheduled, not-yet-delivered, not-cancelled event with the
/// current `generation`.
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    event: Option<E>,
}

/// One ordering key.  `(time, seq)` orders the store (`seq` is unique, so
/// the order is total and FIFO for simultaneous events); `(slot,
/// generation)` locates the payload and detects staleness.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapKey {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl HeapKey {
    /// The key's place in the total `(time, seq)` order as one integer: the
    /// time's bit pattern (which sorts in value order, see [`SimTime`]) above
    /// the sequence number.  Computed on the fly, so keys stay 24 bytes.
    #[inline]
    pub(crate) fn rank(&self) -> u128 {
        (self.time.to_bits() as u128) << 64 | self.seq as u128
    }

    #[inline]
    pub(crate) fn precedes(&self, other: &HeapKey) -> bool {
        self.rank() < other.rank()
    }
}

/// Arity of the implicit heap.
const D: usize = 4;

/// Heap indices below which `sift_down` picks the minimum child without
/// branching: the first 2¹⁴ keys (384 KiB: the top seven levels and most
/// of the eighth), which every pop walks, so they stay cached.  Deeper
/// down, a select would make each level's loads wait for the previous
/// level's comparison, one cache miss after another, while a predicted
/// branch lets the CPU start the next level's loads early.  Branch-free
/// selection at every level made a 10⁶-key pop-heavy hold slower than the
/// branchy loop; with this cut-off it is no slower, and every level of a
/// heap of up to 2¹⁴ keys is branch-free.
const BRANCH_FREE_PREFIX: usize = 1 << 14;

/// The 4-ary-heap ordering core: a flat `Vec` of keys in implicit heap
/// order.  A 4-ary layout halves the tree depth of a binary heap and keeps
/// sift traffic inside fewer cache lines.
#[derive(Debug)]
struct HeapCore {
    heap: Vec<HeapKey>,
}

impl HeapCore {
    fn new() -> Self {
        Self { heap: Vec::new() }
    }

    fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: Vec::with_capacity(capacity),
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    fn memory_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<HeapKey>()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }

    fn push(&mut self, key: HeapKey) {
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
    }

    fn peek_min(&self) -> Option<HeapKey> {
        self.heap.first().copied()
    }

    fn remove_min(&mut self) -> Option<HeapKey> {
        let min = *self.heap.first()?;
        let last = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down();
        }
        Some(min)
    }

    /// Moves `heap[index]` toward the root until its parent precedes it.
    fn sift_up(&mut self, mut index: usize) {
        let key = self.heap[index];
        let rank = key.rank();
        while index > 0 {
            let parent = (index - 1) / D;
            if rank < self.heap[parent].rank() {
                self.heap[index] = self.heap[parent];
                index = parent;
            } else {
                break;
            }
        }
        self.heap[index] = key;
    }

    /// Moves `heap[0]` away from the root until it precedes all children.
    ///
    /// Which child is smallest is a coin flip on timer data, so a branch per
    /// comparison mispredicts most of the time.  A full group of `D`
    /// children inside the first [`BRANCH_FREE_PREFIX`] keys is instead
    /// reduced with conditional selects.  Groups beyond it (only in large
    /// heaps, where they are cache-cold) and the partial group at the
    /// bottom take the loop.
    fn sift_down(&mut self) {
        let len = self.heap.len();
        let key = self.heap[0];
        let rank = key.rank();
        let mut index = 0;
        loop {
            let first_child = index * D + 1;
            if first_child >= len {
                break;
            }
            let group = if first_child < BRANCH_FREE_PREFIX {
                self.heap[first_child..].first_chunk::<D>()
            } else {
                None
            };
            let best = match group {
                Some(group) => min_child(group, first_child),
                None => {
                    let mut best = first_child;
                    for child in first_child + 1..(first_child + D).min(len) {
                        if self.heap[child].precedes(&self.heap[best]) {
                            best = child;
                        }
                    }
                    best
                }
            };
            if self.heap[best].rank() < rank {
                self.heap[index] = self.heap[best];
                index = best;
            } else {
                break;
            }
        }
        self.heap[index] = key;
    }
}

/// The heap index (`first` + offset) of the smallest of a full group of `D`
/// children, found with selects rather than branches: a two-round
/// tournament whose comparisons feed `cmov`s, not jumps.  The final round
/// selects only the index (selecting the 128-bit rank too compiles to a
/// branch); the caller re-reads the winner's rank from L1.
#[inline(always)]
fn min_child(group: &[HeapKey; D], first: usize) -> usize {
    const { assert!(D == 4, "the tournament below has four entrants") };
    let pick = |a: (usize, u128), b: (usize, u128)| if b.1 < a.1 { b } else { a };
    let entry = |i: usize| (first + i, group[i].rank());
    let (left, left_rank) = pick(entry(0), entry(1));
    let (right, right_rank) = pick(entry(2), entry(3));
    if right_rank < left_rank {
        right
    } else {
        left
    }
}

/// The ordering core behind an [`EventQueue`], dispatched by [`QueueKind`].
/// Both variants store the same keys and return the same `(time, seq)`
/// minima; `peek_min` takes `&mut self` because the calendar core advances
/// its day cursor while searching.
#[derive(Debug)]
enum KeyStore {
    Heap(HeapCore),
    Calendar(CalendarCore),
}

impl KeyStore {
    fn len(&self) -> usize {
        match self {
            KeyStore::Heap(h) => h.len(),
            KeyStore::Calendar(c) => c.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            KeyStore::Heap(h) => h.capacity(),
            KeyStore::Calendar(c) => c.capacity(),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            KeyStore::Heap(h) => h.memory_bytes(),
            KeyStore::Calendar(c) => c.memory_bytes(),
        }
    }

    fn clear(&mut self) {
        match self {
            KeyStore::Heap(h) => h.clear(),
            KeyStore::Calendar(c) => c.clear(),
        }
    }

    #[inline]
    fn push(&mut self, key: HeapKey) {
        match self {
            KeyStore::Heap(h) => h.push(key),
            KeyStore::Calendar(c) => c.push(key),
        }
    }

    #[inline]
    fn peek_min(&mut self) -> Option<HeapKey> {
        match self {
            KeyStore::Heap(h) => h.peek_min(),
            KeyStore::Calendar(c) => c.peek_min(),
        }
    }

    #[inline]
    fn remove_min(&mut self) -> Option<HeapKey> {
        match self {
            KeyStore::Heap(h) => h.remove_min(),
            KeyStore::Calendar(c) => c.remove_min(),
        }
    }
}

/// A future event list: events are scheduled at absolute virtual times and
/// popped in non-decreasing time order.  Simultaneous events preserve their
/// scheduling order (FIFO), which keeps simulations deterministic.
///
/// Cancellation ([`EventQueue::cancel`]) is O(1): the event's slot is
/// vacated and recycled immediately; the slot's stale 24-byte ordering key
/// is discarded when it surfaces as the minimum during a later
/// `pop`/`peek_time` — i.e. once the clock reaches the cancelled event's
/// time.  Stale keys are therefore bounded by the cancellations still ahead
/// of the clock (not by the session's total event count), and payload
/// memory stays proportional to the number of *live* events even over
/// sessions that pop tens of millions of events.
///
/// The ordering core is chosen at construction ([`QueueKind`]): the default
/// 4-ary heap, or a calendar queue for very large pending backlogs.  The
/// delivered event sequence is identical under both.
///
/// The `seq` tie-breaker and [`EventQueue::popped_count`] are `u64`, so
/// multi-day runs popping 10¹⁰⁺ events cannot wrap them; pre-size with
/// [`EventQueue::with_capacity`] (audited via [`EventQueue::key_capacity`] /
/// [`EventQueue::slot_capacity`]) to keep steady-state churn reallocation
/// free.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ordering keys, heap- or calendar-organized.
    keys: KeyStore,
    /// Slab arena of payload slots, indexed by `HeapKey::slot`.
    slots: Vec<Slot<E>>,
    /// Vacated slot indices available for reuse.
    free: Vec<u32>,
    /// Number of live (scheduled, not cancelled, not delivered) events.
    live: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty heap-ordered queue at time zero.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Heap)
    }

    /// Creates an empty queue at time zero with the given ordering core.
    pub fn with_kind(kind: QueueKind) -> Self {
        Self::with_capacity_and_kind(0, kind)
    }

    /// Creates an empty heap-ordered queue with room for `capacity` pending
    /// events before any reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_kind(capacity, QueueKind::Heap)
    }

    /// Creates an empty queue with the given ordering core and room for
    /// `capacity` pending payloads before any slab reallocation.  (The
    /// calendar core sizes its buckets adaptively, so `capacity` pre-sizes
    /// the key store only under [`QueueKind::Heap`].)
    pub fn with_capacity_and_kind(capacity: usize, kind: QueueKind) -> Self {
        let keys = match kind {
            QueueKind::Heap if capacity > 0 => KeyStore::Heap(HeapCore::with_capacity(capacity)),
            QueueKind::Heap => KeyStore::Heap(HeapCore::new()),
            QueueKind::Calendar => KeyStore::Calendar(CalendarCore::new()),
        };
        Self {
            keys,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Which ordering core this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.keys {
            KeyStore::Heap(_) => QueueKind::Heap,
            KeyStore::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Current virtual time (time of the last popped event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live events currently scheduled (cancelled events are
    /// excluded, so `len() == 0` exactly when [`EventQueue::is_empty`]).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events popped so far (`u64`: a 10⁷-event run uses
    /// less than a millionth of the range).
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Number of stale keys left behind by cancellations and not yet
    /// discarded (diagnostics; each is 24 bytes, holds no payload, and is
    /// freed when it surfaces as the minimum in `pop`/`peek_time`).
    pub fn cancelled_backlog(&self) -> usize {
        self.keys.len() - self.live
    }

    /// Pending-key capacity of the ordering core: how many keys (live +
    /// stale) it can hold before reallocating.  Together with
    /// [`EventQueue::slot_capacity`] this audits that a pre-sized queue's
    /// steady-state churn stays reallocation free.
    pub fn key_capacity(&self) -> usize {
        self.keys.capacity()
    }

    /// Payload-slot capacity of the slab arena.
    pub fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Bytes currently retained by the queue (ordering keys, payload slab,
    /// free list) — the denominator material for a bytes-per-session budget.
    pub fn memory_bytes(&self) -> usize {
        self.keys.memory_bytes()
            + self.slots.capacity() * std::mem::size_of::<Slot<E>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Whether `id` refers to a live (scheduled, not cancelled, not yet
    /// delivered) event.  O(1).
    pub fn is_pending(&self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(slot) => slot.generation == id.generation,
            None => false,
        }
    }

    /// Schedules `event` at the absolute time `time`.
    ///
    /// Scheduling in the past is clamped to "now" (this can only arise from
    /// floating-point rounding of zero-length delays).
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        let time = if time < self.now { self.now } else { time };
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].event = Some(event);
                slot
            }
            None => {
                // Hard assert: past u32::MAX slots the `as u32` cast below
                // would alias two live events onto one slot.  The check is on
                // the cold slab-growth path, so it costs nothing.
                assert!(self.slots.len() < u32::MAX as usize, "event slab full");
                self.slots.push(Slot {
                    generation: 0,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.keys.push(HeapKey {
            time,
            seq,
            slot,
            generation,
        });
        self.live += 1;
        EventId { slot, generation }
    }

    /// Schedules `event` after a delay of `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) -> EventId {
        self.schedule_at(self.now.after(delay), event)
    }

    /// Cancels a previously scheduled event.  Returns `true` if the event was
    /// still pending (not yet popped and not already cancelled).
    ///
    /// O(1): the payload slot is vacated and recycled immediately; only the
    /// 24-byte ordering key lingers until it surfaces as the minimum.
    /// Cancelling an id that already fired (or was already cancelled) is a
    /// no-op, so repeatedly cancelling stale timer ids cannot grow the
    /// queue's memory.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.generation == id.generation => {
                debug_assert!(slot.event.is_some(), "current generation implies live");
                slot.event = None;
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(id.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pops the next non-cancelled event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        loop {
            let key = self.keys.remove_min()?;
            let slot = &mut self.slots[key.slot as usize];
            if slot.generation != key.generation {
                // Stale key of a cancelled event: discard and keep looking.
                continue;
            }
            // sigtidy: allow(no-unwrap) — generation equality guarantees a live, un-taken event
            let event = slot.event.take().expect("current generation implies live");
            slot.generation = slot.generation.wrapping_add(1);
            self.free.push(key.slot);
            self.live -= 1;
            self.now = key.time;
            self.popped += 1;
            return Some(ScheduledEvent {
                time: key.time,
                id: EventId {
                    slot: key.slot,
                    generation: key.generation,
                },
                event,
            });
        }
    }

    /// Peeks at the time of the next non-cancelled event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop stale keys from the front so the peek is accurate.
        while let Some(key) = self.keys.peek_min() {
            if self.slots[key.slot as usize].generation == key.generation {
                return Some(key.time);
            }
            self.keys.remove_min();
        }
        None
    }

    /// Discards all pending events (the clock is left unchanged).
    ///
    /// Occupied slots are vacated with a generation bump, so ids issued
    /// before the `clear` remain inert against slots reused after it.
    pub fn clear(&mut self) {
        self.keys.clear();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.event.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(index as u32);
            }
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both ordering cores, for tests that must hold under either.
    const KINDS: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Calendar];

    #[test]
    fn events_pop_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule_at(SimTime::from_secs(3.0), "c");
            q.schedule_at(SimTime::from_secs(1.0), "a");
            q.schedule_at(SimTime::from_secs(2.0), "b");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind}");
            assert_eq!(q.now().as_secs(), 3.0);
            assert_eq!(q.popped_count(), 3);
        }
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..10 {
                q.schedule_at(SimTime::from_secs(5.0), i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "{kind}");
        }
    }

    #[test]
    fn cancel_prevents_delivery() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let a = q.schedule_in(1.0, "a");
            q.schedule_in(2.0, "b");
            assert!(q.cancel(a));
            assert!(!q.cancel(a), "double cancel reports false");
            let got = q.pop().unwrap();
            assert_eq!(got.event, "b", "{kind}");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn cancel_foreign_or_fired_id_is_false() {
        let mut q: EventQueue<i32> = EventQueue::new();
        // An id from a different queue (here: an id whose slot this queue
        // never allocated) must not cancel anything.
        let mut other = EventQueue::new();
        for i in 0..5 {
            other.schedule_in(1.0, i);
        }
        let foreign = other.schedule_in(1.0, 99);
        assert!(!q.cancel(foreign));
        // An id that fired is equally inert.
        let id = q.schedule_in(1.0, 0);
        q.pop().unwrap();
        assert!(!q.cancel(id));
        assert_eq!(q.cancelled_backlog(), 0);
    }

    #[test]
    fn cancelling_fired_events_leaves_no_tombstones() {
        // Regression test for unbounded cancelled-set growth: protocols
        // routinely call `cancel` on timer ids that have already fired.
        // Cancelling a fired id must be a `false` no-op that records
        // nothing — with generation-tagged slots this holds by construction,
        // even though fired slots are immediately reused.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut stale = Vec::new();
            for round in 0..1000 {
                let id = q.schedule_in(1.0, round);
                let fired = q.pop().unwrap();
                assert_eq!(fired.id, id);
                stale.push(id);
                // A timer restart cancels its previous (already fired) id.
                for &old in &stale {
                    assert!(!q.cancel(old), "fired id must not be cancellable");
                }
                assert_eq!(q.cancelled_backlog(), 0, "stale key leaked at {round}");
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn slot_reuse_does_not_resurrect_stale_ids() {
        // The ABA hazard of a slab: after `a` fires, its slot is reused by
        // `b`.  A held id for `a` must not cancel (or match) `b`.
        let mut q = EventQueue::new();
        let a = q.schedule_in(1.0, "a");
        assert_eq!(q.pop().unwrap().event, "a");
        let b = q.schedule_in(1.0, "b");
        assert_eq!(a.raw() & 0xFFFF_FFFF, b.raw() & 0xFFFF_FFFF, "slot reused");
        assert_ne!(a, b, "generation differs");
        assert!(!q.cancel(a), "stale id is inert");
        assert!(q.is_pending(b));
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn stale_keys_are_collected_when_they_surface() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let ids: Vec<_> = (0..100).map(|i| q.schedule_in(1.0 + i as f64, i)).collect();
            for id in &ids[..50] {
                assert!(q.cancel(*id));
            }
            assert_eq!(q.cancelled_backlog(), 50);
            assert_eq!(q.len(), 50);
            // Draining the queue discards the stale keys along the way.
            let mut delivered = 0;
            while q.pop().is_some() {
                delivered += 1;
            }
            assert_eq!(delivered, 50, "{kind}");
            assert_eq!(q.cancelled_backlog(), 0);
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    #[allow(clippy::len_zero)]
    fn len_counts_live_events_only() {
        // Regression test: `len()` used to report the heap length including
        // not-yet-collected cancelled entries, disagreeing with `is_empty()`.
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule_in(1.0 + i as f64, i)).collect();
        assert_eq!(q.len(), 10);
        for id in &ids {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 0, "cancelled events must not count");
        assert!(q.is_empty());
        assert_eq!(q.len() == 0, q.is_empty(), "len/is_empty agree");
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_in_uses_current_time() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule_in(5.0, "x");
            let e = q.pop().unwrap();
            assert_eq!(e.time.as_secs(), 5.0);
            q.schedule_in(2.0, "y");
            let e = q.pop().unwrap();
            assert_eq!(e.time.as_secs(), 7.0, "{kind}");
        }
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule_in(10.0, "later");
            q.pop();
            q.schedule_at(SimTime::from_secs(1.0), "past");
            let e = q.pop().unwrap();
            assert_eq!(e.time.as_secs(), 10.0, "{kind}");
        }
    }

    #[test]
    fn peek_time_skips_cancelled() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let a = q.schedule_in(1.0, "a");
            q.schedule_in(2.0, "b");
            q.cancel(a);
            assert_eq!(q.peek_time().unwrap().as_secs(), 2.0, "{kind}");
        }
    }

    #[test]
    fn is_empty_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule_in(1.0, "a");
        assert!(!q.is_empty());
        q.cancel(a);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_discards_everything_and_inerts_old_ids() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let a = q.schedule_in(1.0, 1);
            q.schedule_in(2.0, 2);
            q.clear();
            assert!(q.pop().is_none());
            assert_eq!(q.len(), 0);
            // Slots are reused after the clear; pre-clear ids must stay inert.
            let b = q.schedule_in(3.0, 3);
            assert!(!q.cancel(a));
            assert!(q.is_pending(b));
            assert_eq!(q.pop().unwrap().event, 3, "{kind}");
        }
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        for kind in KINDS {
            let mut q = EventQueue::with_capacity_and_kind(64, kind);
            assert!(q.is_empty());
            assert_eq!(q.kind(), kind);
            q.schedule_in(1.0, "x");
            assert_eq!(q.pop().unwrap().event, "x");
        }
        assert_eq!(EventQueue::<u32>::with_capacity(64).kind(), QueueKind::Heap);
        assert_eq!(EventQueue::<u32>::default().kind(), QueueKind::Heap);
    }

    #[test]
    fn calendar_cursor_rewinds_for_newly_scheduled_earlier_events() {
        // Peeking a far-future minimum runs the calendar's day cursor ahead;
        // a subsequent near-term schedule must rewind it or the near event
        // would be skipped.
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        q.schedule_at(SimTime::from_secs(1e6), "far");
        assert_eq!(q.peek_time().unwrap().as_secs(), 1e6);
        q.schedule_at(SimTime::from_secs(2.0), "near");
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.pop().unwrap().event, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_orders_across_bucket_and_year_boundaries() {
        // Times sit exactly on multiples of the initial bucket width (1.0)
        // and span several "years" of the initial 16-bucket calendar, so
        // same-bucket-different-year collisions and exact boundary times are
        // all exercised; FIFO must hold for the duplicated times.
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        let times = [
            16.0, 0.0, 1.0, 15.0, 16.0, 32.0, 31.0, 17.0, 1.0, 48.0, 0.5, 2.0,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_secs(t), i);
        }
        let mut sorted: Vec<(f64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let popped: Vec<(f64, usize)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_secs(), e.event))).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn large_count_counters_and_capacity_are_stable() {
        // Satellite audit for 10⁷-event runs: the seq / popped counters are
        // u64 (no 32-bit wrap at large counts) and a pre-sized queue's
        // steady-state churn triggers no reallocation of the key store or
        // the payload slab.
        let rounds: u64 = if cfg!(debug_assertions) {
            1_000_000
        } else {
            10_000_000
        };
        let pending = 64usize;
        let mut q = EventQueue::with_capacity(pending + 1);
        let _: u64 = q.popped_count(); // counters are u64 by type
        for i in 0..pending {
            q.schedule_in(1.0 + i as f64, 0u8);
        }
        let key_cap = q.key_capacity();
        let slot_cap = q.slot_capacity();
        assert!(key_cap > pending && slot_cap > pending);
        // Hold model: pop one, schedule one — the backlog stays at `pending`.
        for _ in 0..rounds {
            let e = q.pop().expect("backlog never drains");
            q.schedule_in(64.0, e.event);
        }
        assert_eq!(q.popped_count(), rounds);
        assert_eq!(q.len(), pending);
        assert_eq!(q.key_capacity(), key_cap, "key store silently reallocated");
        assert_eq!(q.slot_capacity(), slot_cap, "slab silently reallocated");
        assert!(q.memory_bytes() > 0);
    }

    /// The `(time, seq)` order compared as a tuple of an `f64` and an
    /// integer: the order keys had before they were ranked by bits, kept
    /// here as the oracle for `HeapKey::rank`.
    fn tuple_order(a: (f64, u64), b: (f64, u64)) -> std::cmp::Ordering {
        // sigtidy: allow(no-unwrap) — test oracle over non-NaN times
        a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
    }

    #[test]
    fn rank_order_equals_tuple_order_at_the_edges() {
        let times = [
            SimTime::from_secs(-0.0),
            SimTime::from_secs(0.0),
            SimTime::from_secs(f64::from_bits(1)), // smallest subnormal
            SimTime::from_secs(1e-300),
            SimTime::from_secs(1.0),
            SimTime::from_secs(f64::MAX),
            SimTime::INFINITY,
        ];
        let seqs = [0, 1, u64::MAX - 1, u64::MAX];
        let keys: Vec<HeapKey> = times
            .iter()
            .flat_map(|&time| {
                seqs.iter().map(move |&seq| HeapKey {
                    time,
                    seq,
                    slot: 0,
                    generation: 0,
                })
            })
            .collect();
        for a in &keys {
            for b in &keys {
                let want = tuple_order((a.time.as_secs(), a.seq), (b.time.as_secs(), b.seq));
                assert_eq!(a.rank().cmp(&b.rank()), want, "{a:?} vs {b:?}");
                assert_eq!(a.precedes(b), want.is_lt(), "{a:?} vs {b:?}");
                let time_order = tuple_order((a.time.as_secs(), 0), (b.time.as_secs(), 0));
                assert_eq!(a.time.cmp(&b.time), time_order, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn heaps_past_the_branch_free_prefix_pop_in_order() {
        // Three times the prefix, so sift-downs cross from the branch-free
        // tournament into the branchy loop for full groups of children.
        for kind in KINDS {
            let mut run = SortedOracle::new(kind, 11);
            for i in 0..3 * BRANCH_FREE_PREFIX {
                run.schedule();
                if i % 7 == 0 {
                    let (got, want) = run.cancel();
                    assert_eq!(got, want);
                }
            }
            loop {
                let (got, want) = run.pop();
                assert_eq!(got, want, "{kind}");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn keys_stay_24_bytes() {
        assert_eq!(std::mem::size_of::<HeapKey>(), 24);
    }

    /// A straightforward reference model: a `Vec` of `(time, seq, payload)`
    /// scanned for the minimum on every pop.
    struct ReferenceModel {
        events: Vec<(SimTime, u64, u32)>,
        now: SimTime,
        next_seq: u64,
        popped: u64,
    }

    impl ReferenceModel {
        fn new() -> Self {
            Self {
                events: Vec::new(),
                now: SimTime::ZERO,
                next_seq: 0,
                popped: 0,
            }
        }

        fn schedule_at(&mut self, time: SimTime, payload: u32) -> u64 {
            let time = if time < self.now { self.now } else { time };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.events.push((time, seq, payload));
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            match self.events.iter().position(|&(_, s, _)| s == seq) {
                Some(i) => {
                    self.events.remove(i);
                    true
                }
                None => false,
            }
        }

        fn min_index(&self) -> Option<usize> {
            (0..self.events.len()).min_by_key(|&i| (self.events[i].0, self.events[i].1))
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let i = self.min_index()?;
            let (time, _, payload) = self.events.remove(i);
            self.now = time;
            self.popped += 1;
            Some((time, payload))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.min_index().map(|i| self.events[i].0)
        }
    }

    /// A `(time, seq)` pair ordered by [`tuple_order`], so a `BTreeMap` of
    /// them is the event list sorted by the oracle.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct TupleKey(f64, u64);

    impl Eq for TupleKey {}

    impl PartialOrd for TupleKey {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for TupleKey {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            tuple_order((self.0, self.1), (other.0, other.1))
        }
    }

    /// A delivered event as `(seconds, payload)`, or `None` when empty.
    type Delivery = Option<(f64, u64)>;

    /// One queue driven in step with a `BTreeMap` holding the same live
    /// events sorted by [`tuple_order`].  Each event's payload is its `seq`.
    struct SortedOracle {
        queue: EventQueue<u64>,
        sorted: std::collections::BTreeMap<TupleKey, u64>,
        issued: Vec<(EventId, TupleKey)>,
        rng: crate::rng::SimRng,
    }

    impl SortedOracle {
        fn new(kind: QueueKind, seed: u64) -> Self {
            Self {
                queue: EventQueue::with_kind(kind),
                sorted: std::collections::BTreeMap::new(),
                issued: Vec::new(),
                rng: crate::rng::SimRng::new(seed),
            }
        }

        /// Schedules one event up to 64 s ahead; half the times snap up to a
        /// 0.5-s grid, so many keys share a time and only `seq` orders them.
        fn schedule(&mut self) {
            let raw = self.queue.now().as_secs() + 64.0 * self.rng.uniform();
            let secs = if self.rng.bernoulli(0.5) {
                (raw * 2.0).ceil() / 2.0
            } else {
                raw
            };
            let seq = self.issued.len() as u64;
            let id = self.queue.schedule_at(SimTime::from_secs(secs), seq);
            let key = TupleKey(secs, seq);
            self.sorted.insert(key, seq);
            self.issued.push((id, key));
        }

        /// Cancels a random issued event (live, fired or already cancelled)
        /// in both; returns what the queue and the oracle report.
        fn cancel(&mut self) -> (bool, bool) {
            let (id, key) = self.issued[self.rng.index(self.issued.len())];
            (self.queue.cancel(id), self.sorted.remove(&key).is_some())
        }

        /// Pops from both.
        fn pop(&mut self) -> (Delivery, Delivery) {
            let got = self.queue.pop().map(|e| (e.time.as_secs(), e.event));
            let want = self.sorted.pop_first().map(|(k, seq)| (k.0, seq));
            (got, want)
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_nondecreasing(delays in proptest::collection::vec(0.0f64..1000.0, 1..100)) {
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                for (i, d) in delays.iter().enumerate() {
                    q.schedule_at(SimTime::from_secs(*d), i);
                }
                let mut last = 0.0f64;
                while let Some(e) = q.pop() {
                    prop_assert!(e.time.as_secs() >= last);
                    last = e.time.as_secs();
                }
            }
        }

        #[test]
        fn prop_all_noncancelled_events_delivered(
            delays in proptest::collection::vec(0.0f64..100.0, 1..60),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..60),
        ) {
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                let ids: Vec<EventId> = delays.iter().enumerate()
                    .map(|(i, d)| q.schedule_at(SimTime::from_secs(*d), i)).collect();
                let mut expected = delays.len();
                for (id, &c) in ids.iter().zip(cancel_mask.iter()) {
                    if c {
                        q.cancel(*id);
                        expected -= 1;
                    }
                }
                let mut got = 0;
                while q.pop().is_some() {
                    got += 1;
                }
                prop_assert_eq!(got, expected);
            }
        }

        #[test]
        #[allow(clippy::len_zero)]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((0u8..8, 0.0f64..50.0, 0u32..64), 1..300),
        ) {
            // Random interleavings of the full API must behave exactly like
            // the sorted-Vec reference model — under BOTH ordering cores:
            // same delivery set and order, same clock, same live count, same
            // peeked times.  (Both cores passing against the one model also
            // pins heap ≡ calendar.)
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                let mut model = ReferenceModel::new();
                // Parallel id maps: the payload of event k is k itself, so
                // delivery comparisons identify events exactly.
                let mut ids: Vec<EventId> = Vec::new();
                let mut seqs: Vec<u64> = Vec::new();
                let mut next_payload = 0u32;
                for &(op, value, pick) in &ops {
                    match op {
                        // schedule_at (twice as likely as each other op)
                        0 | 1 => {
                            let t = SimTime::from_secs(value);
                            ids.push(q.schedule_at(t, next_payload));
                            seqs.push(model.schedule_at(t, next_payload));
                            next_payload += 1;
                        }
                        // schedule_in
                        2 | 3 => {
                            ids.push(q.schedule_in(value, next_payload));
                            seqs.push(model.schedule_at(model.now.after(value), next_payload));
                            next_payload += 1;
                        }
                        // cancel a previously issued id (possibly already fired
                        // or already cancelled)
                        4 | 5 => {
                            if !ids.is_empty() {
                                let k = pick as usize % ids.len();
                                prop_assert_eq!(q.cancel(ids[k]), model.cancel(seqs[k]));
                            }
                        }
                        // pop
                        6 => {
                            let got = q.pop();
                            let want = model.pop();
                            match (got, want) {
                                (None, None) => {}
                                (Some(e), Some((time, payload))) => {
                                    prop_assert_eq!(e.time, time);
                                    prop_assert_eq!(e.event, payload);
                                }
                                (got, want) => prop_assert!(
                                    false,
                                    "pop diverged under {}: queue {:?}, model {:?}",
                                    kind,
                                    got.map(|e| e.event),
                                    want
                                ),
                            }
                        }
                        // peek_time
                        _ => {
                            prop_assert_eq!(q.peek_time(), model.peek_time());
                        }
                    }
                    prop_assert_eq!(q.len(), model.events.len());
                    prop_assert_eq!(q.is_empty(), model.events.is_empty());
                    prop_assert_eq!(q.now(), model.now);
                    prop_assert_eq!(q.popped_count(), model.popped);
                    prop_assert_eq!(q.len() == 0, q.is_empty());
                }
                // Drain both and compare the full remaining delivery order.
                loop {
                    let got = q.pop();
                    let want = model.pop();
                    match (got, want) {
                        (None, None) => break,
                        (Some(e), Some((time, payload))) => {
                            prop_assert_eq!(e.time, time);
                            prop_assert_eq!(e.event, payload);
                        }
                        (got, want) => prop_assert!(
                            false,
                            "drain diverged under {}: queue {:?}, model {:?}",
                            kind,
                            got.map(|e| e.event),
                            want
                        ),
                    }
                }
            }
        }

        #[test]
        fn prop_calendar_matches_heap_on_boundary_times(
            ops in proptest::collection::vec((0u8..8, 0u32..400, 0u32..64), 1..300),
        ) {
            // Head-to-head: the same interleaving against both cores, with
            // times quantized to multiples of a quarter bucket width so
            // schedules land *exactly on* bucket and year rotation
            // boundaries of the initial 16-bucket, width-1.0 calendar (and,
            // after resizes, of the recalibrated widths).
            let mut h = EventQueue::with_kind(QueueKind::Heap);
            let mut c = EventQueue::with_kind(QueueKind::Calendar);
            let mut ids_h: Vec<EventId> = Vec::new();
            let mut ids_c: Vec<EventId> = Vec::new();
            let mut next_payload = 0u32;
            for &(op, value, pick) in &ops {
                let t = value as f64 * 0.25;
                match op {
                    0 | 1 => {
                        let at = SimTime::from_secs(t);
                        ids_h.push(h.schedule_at(at, next_payload));
                        ids_c.push(c.schedule_at(at, next_payload));
                        next_payload += 1;
                    }
                    2 | 3 => {
                        ids_h.push(h.schedule_in(t, next_payload));
                        ids_c.push(c.schedule_in(t, next_payload));
                        next_payload += 1;
                    }
                    4 | 5 => {
                        if !ids_h.is_empty() {
                            let k = pick as usize % ids_h.len();
                            prop_assert_eq!(h.cancel(ids_h[k]), c.cancel(ids_c[k]));
                        }
                    }
                    6 => {
                        let a = h.pop();
                        let b = c.pop();
                        prop_assert_eq!(a.as_ref().map(|e| (e.time, e.event)),
                                        b.as_ref().map(|e| (e.time, e.event)));
                    }
                    _ => {
                        prop_assert_eq!(h.peek_time(), c.peek_time());
                    }
                }
                prop_assert_eq!(h.len(), c.len());
                prop_assert_eq!(h.now(), c.now());
                prop_assert_eq!(h.popped_count(), c.popped_count());
            }
            loop {
                let a = h.pop();
                let b = c.pop();
                prop_assert_eq!(a.as_ref().map(|e| (e.time, e.event)),
                                b.as_ref().map(|e| (e.time, e.event)));
                if a.is_none() {
                    break;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_deep_backlogs_match_sorted_order(seed in any::<u64>(), backlog in 1_000usize..5_001) {
            // Backlogs of 10³–5·10³ keys fill several heap levels with full
            // groups of four children, which the short interleavings above
            // rarely reach.  Both cores must deliver exactly the oracle's
            // sorted order through a build-up, a churning steady state and
            // a drain.
            for kind in KINDS {
                let mut run = SortedOracle::new(kind, seed);
                for _ in 0..backlog {
                    run.schedule();
                    if run.rng.bernoulli(0.1) {
                        let (got, want) = run.cancel();
                        prop_assert_eq!(got, want);
                    }
                }
                for _ in 0..2 * backlog {
                    match run.rng.index(10) {
                        0..=3 => {
                            let (got, want) = run.pop();
                            prop_assert_eq!(got, want, "pop under {}", kind);
                        }
                        4..=7 => run.schedule(),
                        8 => {
                            let (got, want) = run.cancel();
                            prop_assert_eq!(got, want);
                        }
                        _ => {
                            let want = run.sorted.first_key_value().map(|(k, _)| k.0);
                            prop_assert_eq!(run.queue.peek_time().map(SimTime::as_secs), want);
                        }
                    }
                    prop_assert_eq!(run.queue.len(), run.sorted.len());
                }
                loop {
                    let (got, want) = run.pop();
                    prop_assert_eq!(got, want, "drain under {}", kind);
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
