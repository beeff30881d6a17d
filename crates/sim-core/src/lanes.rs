//! FIFO lanes in front of a [`PackedQueue`](crate::PackedQueue)'s ordering core.
//!
//! A timer armed at `now + d` for a constant `d` expires in the order it was
//! armed, because `now` never decreases: such keys arrive already sorted, so
//! a FIFO orders them with no sifting at all (the observation behind
//! Varghese & Lauck's timing wheels, SOSP '87).  A lane is that FIFO: an
//! append and a pop from its head are O(1), against the heap's O(log n)
//! sifts through cache-cold levels.
//!
//! A key joins a lane only when its rank is above the rank of the lane's
//! last key; anything else is refused and the queue stores it in its
//! ordering core instead.  A lane's keys therefore always sit in rank order
//! and its head is its minimum, whatever the caller schedules.
//!
//! Lanes hold their keys in fixed-size blocks drawn from one pool shared by
//! every lane of the queue.  A lane frees its head block to the pool as soon
//! as the block is consumed and takes its tail blocks from the pool, so a
//! lane of steady length `L` occupies `⌈L/B⌉ + 1` blocks and the pool never
//! grows past the lanes' peak combined length.  (One growable ring buffer
//! per lane would double its capacity on growth and keep it.)

use crate::queue::HeapKey;
use crate::time::SimTime;

/// Keys per pool block (6 KiB of keys).
pub(crate) const BLOCK: usize = 256;

/// "No block": the block index of an empty lane and the end of a chain.
const NONE: u32 = u32::MAX;

/// The filler of a fresh block; never read before it is overwritten.
const EMPTY: HeapKey = HeapKey {
    time: SimTime::ZERO,
    seq: 0,
    slot: 0,
    generation: 0,
};

/// One lane: a chain of pool blocks read from `head` at `head_pos` and
/// written into `tail` at `tail_pos`.
#[derive(Debug, Clone, Copy)]
struct LaneState {
    head: u32,
    head_pos: u32,
    tail: u32,
    tail_pos: u32,
    /// Keys held (live and stale).
    len: usize,
    /// Rank of the most recently appended key.
    tail_rank: u128,
}

impl LaneState {
    const EMPTY: LaneState = LaneState {
        head: NONE,
        head_pos: 0,
        tail: NONE,
        tail_pos: 0,
        len: 0,
        tail_rank: 0,
    };
}

/// Every lane of one queue and the block pool they share.
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    lanes: Vec<LaneState>,
    /// The pool: every block ever allocated, in use or free.
    blocks: Vec<Box<[HeapKey; BLOCK]>>,
    /// `next[b]`: the block after `b` in its lane's chain.
    next: Vec<u32>,
    /// Pool blocks not in any lane.
    free: Vec<u32>,
    /// Keys held across all lanes (live and stale).
    keys: usize,
}

impl Lanes {
    /// Adds an empty lane and returns its index.
    pub(crate) fn add(&mut self) -> u32 {
        assert!(self.lanes.len() < NONE as usize, "too many lanes");
        self.lanes.push(LaneState::EMPTY);
        (self.lanes.len() - 1) as u32
    }

    /// Keys held across all lanes (live and stale).
    pub(crate) fn len(&self) -> usize {
        self.keys
    }

    /// Bytes retained by the pool and the lane table.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<[HeapKey; BLOCK]>()
            + self.blocks.capacity() * std::mem::size_of::<Box<[HeapKey; BLOCK]>>()
            + (self.next.capacity() + self.free.capacity()) * std::mem::size_of::<u32>()
            + self.lanes.capacity() * std::mem::size_of::<LaneState>()
    }

    /// Whether `lane` names a lane of this queue that holds no key.
    pub(crate) fn is_empty_lane(&self, lane: u32) -> bool {
        self.lanes
            .get(lane as usize)
            .is_some_and(|state| state.len == 0)
    }

    /// Appends `key` to lane `lane` if its rank is above the lane's last
    /// rank.  Returns `false`, holding nothing, when the key would break the
    /// lane's order or `lane` names no lane of this queue.
    #[inline]
    pub(crate) fn push(&mut self, lane: u32, key: HeapKey) -> bool {
        let Some(mut state) = self.lanes.get(lane as usize).copied() else {
            return false;
        };
        let rank = key.rank();
        if state.len > 0 && rank <= state.tail_rank {
            return false;
        }
        if state.tail == NONE || state.tail_pos as usize == BLOCK {
            let block = self.take_block();
            if state.tail == NONE {
                state.head = block;
                state.head_pos = 0;
            } else {
                self.next[state.tail as usize] = block;
            }
            state.tail = block;
            state.tail_pos = 0;
        }
        self.blocks[state.tail as usize][state.tail_pos as usize] = key;
        state.tail_pos += 1;
        state.len += 1;
        state.tail_rank = rank;
        self.lanes[lane as usize] = state;
        self.keys += 1;
        true
    }

    /// The smallest head key over all lanes and the lane holding it.
    #[inline]
    pub(crate) fn min_head(&self) -> Option<(HeapKey, usize)> {
        let mut best: Option<(HeapKey, usize)> = None;
        for (index, lane) in self.lanes.iter().enumerate() {
            if lane.len == 0 {
                continue;
            }
            let key = self.blocks[lane.head as usize][lane.head_pos as usize];
            if best.is_none_or(|(b, _)| key.precedes(&b)) {
                best = Some((key, index));
            }
        }
        best
    }

    /// Removes the head key of lane `lane`, which must hold one.
    #[inline]
    pub(crate) fn pop_front(&mut self, lane: usize) {
        let state = &mut self.lanes[lane];
        debug_assert!(state.len > 0, "pop from an empty lane");
        state.head_pos += 1;
        state.len -= 1;
        self.keys -= 1;
        if state.len == 0 {
            // The head block is the tail block: hand it back and start the
            // next append on a fresh one.
            let block = state.head;
            *state = LaneState::EMPTY;
            self.free.push(block);
        } else if state.head_pos as usize == BLOCK {
            let block = state.head;
            state.head = self.next[block as usize];
            state.head_pos = 0;
            self.free.push(block);
        }
    }

    /// A block from the free list, or a newly allocated one.
    fn take_block(&mut self) -> u32 {
        if let Some(block) = self.free.pop() {
            return block;
        }
        assert!(self.blocks.len() < NONE as usize, "lane pool full");
        self.blocks.push(Box::new([EMPTY; BLOCK]));
        self.next.push(NONE);
        (self.blocks.len() - 1) as u32
    }
}

#[cfg(test)]
impl Lanes {
    /// Keys the pool can hold before allocating another block.
    pub(crate) fn capacity(&self) -> usize {
        self.blocks.len() * BLOCK
    }
}
