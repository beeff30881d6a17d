//! Calendar-queue ordering core for the future event list.
//!
//! A calendar queue (Brown 1988) hashes events into time buckets the way a
//! desk calendar files appointments into days: bucket `⌊t/w⌋ mod nb` for a
//! bucket width `w` and a power-of-two bucket count `nb`.  When the width
//! tracks the mean gap between pending events, each bucket holds O(1) keys
//! and both insert and pop-min run in O(1) *average* — independent of the
//! backlog — where a d-ary heap pays O(log n) sifts through cache-cold
//! levels.  That is what makes it the right ordering core for the
//! population-scale node simulation's 10⁶-pending timer workload.
//!
//! The core orders the same `(time, seq, slot, generation)` keys as the heap
//! core and exposes the same three operations (`push`, `peek_min`,
//! `remove_min`), so [`EventQueue`](crate::queue::EventQueue) delivers a
//! **bit-identical event sequence** under either core: the `(time, seq)`
//! order is total, simultaneous events stay FIFO, and cancellation keeps its
//! O(1) generation-tag semantics (stale keys linger in their bucket and are
//! discarded by the queue when they surface as the minimum).
//!
//! Layout and policy (documented in `docs/perf.md`):
//!
//! * **Buckets** are flat `Vec<HeapKey>`s kept sorted by `(time, seq)`
//!   *descending*, so the bucket minimum is `last()` and removal is a O(1)
//!   `pop`.  Inserts binary-search their position; with calibrated widths
//!   buckets hold a handful of keys, so the memmove is a few cache lines.
//! * **The cursor** is the absolute day number `⌊t/w⌋` currently being
//!   scanned, kept as a `u64` so "does this key belong to the current day"
//!   is an exact integer comparison (no accumulated floating-point
//!   `bucket_top` drift).  Pop scans forward day by day; a key in the
//!   scanned bucket whose day number is larger belongs to a later *year*
//!   (`nb` days) and is left alone.  Scheduling before the cursor (possible
//!   after the cursor ran ahead to peek a far-future minimum) rewinds it.
//! * **Resize policy**: the bucket count doubles when mean occupancy reaches
//!   [`GROW_OCCUPANCY`] keys per bucket and halves below
//!   [`SHRINK_OCCUPANCY`], within [`MIN_BUCKETS`, `MAX_BUCKETS`] — short
//!   sorted runs per bucket keep operations O(1) while amortizing the
//!   per-bucket `Vec` overhead over several keys.  Every resize
//!   re-calibrates the width to [`GAPS_PER_DAY`] mean inter-event gaps over
//!   the backlog's earliest quartile (the pop-rate density — see
//!   [`calibrate_width`]), then rehashes — O(n), amortized O(1) per
//!   operation.
//! * **Sparse fallback**: when a whole year of buckets holds nothing due,
//!   one O(nb) sweep finds the global minimum directly and jumps the cursor
//!   to it, so correctness never depends on the width guess — only the
//!   constant factor does.

use crate::queue::HeapKey;

/// Smallest bucket count (must be a power of two).
const MIN_BUCKETS: usize = 16;

/// Mean keys per bucket that triggers a doubling.  Buckets are short sorted
/// runs, so a handful of keys per bucket costs nothing on the push/pop path
/// but amortizes the fixed 24-byte `Vec` header (plus its minimum
/// allocation) over several keys — at 10⁶ pending events the difference
/// between ~1 and ~8 keys per bucket is >100 bytes of overhead per key.
const GROW_OCCUPANCY: usize = 8;

/// Mean keys per bucket below which the table halves (hysteresis: half of
/// the post-doubling occupancy of `GROW_OCCUPANCY / 2`).
const SHRINK_OCCUPANCY: usize = 2;

/// Largest bucket count: caps the bucket-header memory (a `Vec` header is
/// 24 bytes) at roughly the key memory of the backlogs that reach it.
const MAX_BUCKETS: usize = 1 << 22;

/// Fraction of the backlog (the earliest keys) the width calibration
/// averages over: wide enough to smooth past microsecond delivery clusters,
/// narrow enough that the sparse far-future tail (exponential lifetimes)
/// cannot stretch the estimate.
const CALIBRATION_FRACTION: usize = 4; // the earliest quartile

/// Target mean number of *due* keys per scanned day: the width is this many
/// mean inter-event gaps, so the pop cursor advances well under one day per
/// pop on average instead of walking empty days.
const GAPS_PER_DAY: f64 = 2.0;

/// Lower bound on the bucket width, guarding against a zero mean gap (a
/// burst of simultaneous events) producing an unusable zero width.
const MIN_WIDTH: f64 = 1e-9;

/// Calendar-queue ordering core: a drop-in alternative to the 4-ary heap
/// core that stores the same keys and yields the same `(time, seq)` minimum
/// order.
#[derive(Debug)]
pub(crate) struct CalendarCore {
    /// `buckets[day % nb]`, each sorted by `(time, seq)` descending so the
    /// minimum is at the back.
    buckets: Vec<Vec<HeapKey>>,
    /// Total keys stored (live + stale), across all buckets.
    items: usize,
    /// Bucket width in seconds.
    width: f64,
    /// Absolute day number (`⌊time / width⌋`) the pop scan is at.
    cursor_day: u64,
}

impl CalendarCore {
    pub(crate) fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            items: 0,
            width: 1.0,
            cursor_day: 0,
        }
    }

    /// The absolute day number of a key time under the current width.
    #[inline]
    fn day_of(&self, secs: f64) -> u64 {
        // Times are finite and non-negative (SimTime invariant); the cast
        // saturates on overflow, which would need t/w > 2^64.
        (secs / self.width) as u64
    }

    #[inline]
    fn bucket_of(&self, day: u64) -> usize {
        // `buckets.len()` is a power of two.
        (day & (self.buckets.len() as u64 - 1)) as usize
    }

    pub(crate) fn len(&self) -> usize {
        self.items
    }

    /// Pending-key capacity across all buckets (diagnostics).
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.capacity()).sum()
    }

    /// Bytes retained by the bucket table and the key storage.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Vec<HeapKey>>()
            + self.capacity() * std::mem::size_of::<HeapKey>()
    }

    pub(crate) fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.items = 0;
        self.cursor_day = 0;
    }

    pub(crate) fn push(&mut self, key: HeapKey) {
        if self.items >= GROW_OCCUPANCY * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
        let day = self.day_of(key.time.as_secs());
        // A key can land before the cursor when the cursor ran ahead to a
        // far-future minimum and the clock has not caught up; rewind so the
        // scan cannot walk past the new minimum.
        if day < self.cursor_day {
            self.cursor_day = day;
        }
        let bucket = self.bucket_of(day);
        let b = &mut self.buckets[bucket];
        // Descending (time, seq): find the first entry the key precedes...
        let pos = b.partition_point(|k| key.precedes(k));
        // ...and insert it there, keeping the minimum at the back.
        b.insert(pos, key);
        self.items += 1;
    }

    /// The minimum key, positioning the cursor on its day.  Returns `None`
    /// when empty.
    pub(crate) fn peek_min(&mut self) -> Option<HeapKey> {
        if self.items == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        // Scan at most one year of days from the cursor: the first scanned
        // bucket whose minimum belongs to its scanned day holds the global
        // minimum (later days in the same year can only hold later times).
        for _ in 0..nb {
            let bucket = self.bucket_of(self.cursor_day);
            if let Some(key) = self.buckets[bucket].last() {
                if self.day_of(key.time.as_secs()) == self.cursor_day {
                    return Some(*key);
                }
            }
            self.cursor_day += 1;
        }
        // A whole year held nothing due: the backlog is sparse relative to
        // the calendar span.  Find the minimum directly and jump to it.
        let mut min: Option<HeapKey> = None;
        for bucket in &self.buckets {
            if let Some(key) = bucket.last() {
                if min.is_none_or(|m| key.precedes(&m)) {
                    min = Some(*key);
                }
            }
        }
        let key = min?;
        self.cursor_day = self.day_of(key.time.as_secs());
        Some(key)
    }

    /// Removes and returns the minimum key.
    pub(crate) fn remove_min(&mut self) -> Option<HeapKey> {
        // Positions the cursor on the minimum's day, making the removal a
        // O(1) pop from that bucket's back.
        self.peek_min()?;
        let bucket = self.bucket_of(self.cursor_day);
        let key = self.buckets[bucket].pop()?;
        self.items -= 1;
        if self.items < SHRINK_OCCUPANCY * self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some(key)
    }

    /// Rebuilds the calendar with `new_len` buckets, re-calibrating the
    /// width from the earliest pending keys and rehashing everything.
    fn resize(&mut self, new_len: usize) {
        let mut keys: Vec<HeapKey> = Vec::with_capacity(self.items);
        for bucket in &mut self.buckets {
            keys.append(bucket);
        }
        self.width = calibrate_width(&mut keys).unwrap_or(self.width);
        self.buckets = vec![Vec::new(); new_len];
        for bucket in &mut self.buckets {
            // Pre-size for the mean occupancy so the rehash inserts and the
            // steady state after it stay realloc-light.
            bucket.reserve(keys.len() / new_len + 1);
        }
        for key in keys {
            let bucket = self.bucket_of(self.day_of(key.time.as_secs()));
            self.buckets[bucket].push(key);
        }
        for bucket in &mut self.buckets {
            bucket.sort_unstable_by_key(|k| std::cmp::Reverse(k.rank()));
        }
        // The old cursor day is meaningless under the new width; restart at
        // the earliest pending key's day (or zero when empty).  The rewind
        // is at most one year of forward scanning, amortized by the O(n)
        // rehash that triggered it.
        self.cursor_day = 0;
        if let Some(min_day) = self
            .buckets
            .iter()
            .filter_map(|b| b.last())
            .map(|k| self.day_of(k.time.as_secs()))
            .min()
        {
            self.cursor_day = min_day;
        }
    }
}

/// Quartile-gap width rule: a day is [`GAPS_PER_DAY`] times the mean
/// inter-event gap over the backlog's **earliest quartile**
/// (`1/`[`CALIBRATION_FRACTION`]), i.e. the width tracks the event density
/// *near the minimum* — which is the rate the pop cursor consumes days at.
/// Each scanned day then holds O(1) due keys, while far-future keys wrap
/// around the ring (`day mod nb`) and spread uniformly across buckets.
///
/// Both classic alternatives fail on this workload, whose pending-time
/// distribution is multi-scale (in-flight deliveries microseconds apart,
/// refresh/timeout timers over seconds, exponential session lifetimes over
/// minutes):
///
/// * Brown's rule — mean gap of the earliest ~32 keys — sees only the
///   microsecond delivery cluster; the resulting microsecond day makes the
///   cursor walk dozens of empty days per pop at 10⁶ pending events.
/// * A high-quantile bulk span (e.g. min→p90 over one year) is stretched by
///   the sparse lifetime tail; the dense timer band then crowds into a few
///   days whose buckets grow 10× past the mean occupancy, and as the band
///   sweeps the ring every bucket ends up with that peak capacity.
///
/// The earliest quartile spans well past any simultaneous cluster yet stays
/// inside the dense band, so it estimates the pop-rate density robustly.
///
/// Returns `None` when fewer than two keys or a degenerate (all
/// simultaneous) quartile leaves nothing to calibrate on, keeping the
/// current width.
fn calibrate_width(keys: &mut [HeapKey]) -> Option<f64> {
    if keys.len() < 2 {
        return None;
    }
    let k = ((keys.len() - 1) / CALIBRATION_FRACTION).max(1);
    let (earlier, kth, _) = keys.select_nth_unstable_by_key(k, HeapKey::rank);
    let kth_time = kth.time.as_secs();
    let min_time = earlier
        .iter()
        .map(|k| k.time.as_secs())
        .fold(kth_time, f64::min);
    let width = GAPS_PER_DAY * (kth_time - min_time) / k as f64;
    (width > MIN_WIDTH).then_some(width)
}
