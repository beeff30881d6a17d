//! Streaming population-level aggregates.
//!
//! The population-scale node simulation tracks, for N up to 10⁶ concurrent
//! sessions, *how many* sessions are currently in some condition — alive,
//! holding receiver state, stale (receiver holds state the sender dropped),
//! missing (sender installed state the receiver lost).  Per-session
//! [`TimeWeighted`](crate::TimeWeighted) signals would cost O(N) memory;
//! [`LevelMeter`] instead integrates the *population count* itself: an
//! integer level changed by `+1`/`-1` steps, with the time integral
//! `∫ level dt` accumulated online in O(1) per step and O(1) memory.
//!
//! Dividing two level integrals gives population-time-weighted fractions
//! (e.g. stale-session-time over held-session-time = the paper's
//! inconsistency ratio aggregated over the whole population), and dividing
//! an event count by a level integral gives per-session-time rates (e.g.
//! false removals per session-second).

/// Streaming time integral of an integer population level.
///
/// Feed it `(time, ±delta)` steps in non-decreasing time order; it keeps the
/// current level exactly (integer arithmetic) and accumulates
/// `∫ level(t) dt` online.  All arithmetic is deterministic: the same step
/// sequence produces bit-identical integrals on every run, which the
/// node-scale determinism goldens rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelMeter {
    start: f64,
    last_time: f64,
    level: i64,
    integral: f64,
}

impl LevelMeter {
    /// Starts integrating at `start_time` with level zero.
    pub fn new(start_time: f64) -> Self {
        Self {
            start: start_time,
            last_time: start_time,
            level: 0,
            integral: 0.0,
        }
    }

    /// Applies a level change of `delta` at time `t`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `t` is earlier than the previous step or
    /// if the level would go negative — both indicate accounting bugs in the
    /// caller, not valid states of a population count.
    pub fn step(&mut self, t: f64, delta: i64) {
        debug_assert!(
            t + 1e-12 >= self.last_time,
            "time went backwards: {} < {}",
            t,
            self.last_time
        );
        let dt = (t - self.last_time).max(0.0);
        self.integral += self.level as f64 * dt;
        self.last_time = t;
        self.level += delta;
        debug_assert!(self.level >= 0, "population level went negative");
    }

    /// One session entering the condition.
    pub fn inc(&mut self, t: f64) {
        self.step(t, 1);
    }

    /// One session leaving the condition.
    pub fn dec(&mut self, t: f64) {
        self.step(t, -1);
    }

    /// The current level.
    pub fn level(&self) -> i64 {
        self.level
    }

    /// `∫ level(t) dt` from the start time until `t` (units:
    /// session-seconds).
    pub fn integral_until(&self, t: f64) -> f64 {
        let dt = (t - self.last_time).max(0.0);
        self.integral + self.level as f64 * dt
    }

    /// Time-average level over `[start, t]`; `0.0` for an empty interval.
    pub fn average_until(&self, t: f64) -> f64 {
        let span = t - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        self.integral_until(t) / span
    }
}

/// Streaming *binned* time integral of an integer population level.
///
/// Where [`LevelMeter`] collapses `∫ level dt` into one scalar,
/// `BinnedMeter` keeps the integral **per fixed-width time bin**, so the
/// caller can recover the time-average level second by second — the
/// recovery-curve primitive behind the fault-injection experiments (stale
/// fraction per second across an outage, not just over the whole run).
/// Memory is O(horizon / bin) and independent of the population size, and
/// the arithmetic is a pure function of the step sequence, so the node
/// determinism contract extends to the curves.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMeter {
    start: f64,
    bin_width: f64,
    last_time: f64,
    // Index of the bin containing `last_time`.  Kept explicitly instead of
    // being re-derived as floor((last_time - start) / bin_width): for
    // non-representable widths that division can disagree with the
    // multiplication producing the bin-end boundary by one ulp, and a
    // boundary at-or-below `last_time` would stall the advance loop.
    cursor: usize,
    level: i64,
    bins: Vec<f64>,
}

impl BinnedMeter {
    /// Starts integrating at `start_time` with level zero, accumulating into
    /// bins of `bin_width` seconds.
    ///
    /// # Panics
    /// Panics if `bin_width` is not strictly positive and finite.
    pub fn new(start_time: f64, bin_width: f64) -> Self {
        assert!(
            bin_width > 0.0 && bin_width.is_finite(),
            "bin width must be positive and finite, got {bin_width}"
        );
        Self {
            start: start_time,
            bin_width,
            last_time: start_time,
            cursor: 0,
            level: 0,
            bins: Vec::new(),
        }
    }

    /// The current level.
    pub fn level(&self) -> i64 {
        self.level
    }

    /// Spreads the current level's integral over the bins covered by
    /// `[self.last_time, t)`, growing the bin vector as needed.
    fn advance_to(&mut self, t: f64) {
        while self.last_time < t {
            if self.bins.len() <= self.cursor {
                self.bins.resize(self.cursor + 1, 0.0);
            }
            let bin_end = self.start + (self.cursor as f64 + 1.0) * self.bin_width;
            if bin_end < t {
                self.bins[self.cursor] += self.level as f64 * (bin_end - self.last_time).max(0.0);
                self.last_time = bin_end.max(self.last_time);
                self.cursor += 1;
            } else {
                self.bins[self.cursor] += self.level as f64 * (t - self.last_time);
                self.last_time = t;
            }
        }
    }

    /// Applies a level change of `delta` at time `t`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `t` is earlier than the previous step or
    /// if the level would go negative, mirroring [`LevelMeter::step`].
    pub fn step(&mut self, t: f64, delta: i64) {
        debug_assert!(
            t + 1e-12 >= self.last_time,
            "time went backwards: {} < {}",
            t,
            self.last_time
        );
        self.advance_to(t);
        self.level += delta;
        debug_assert!(self.level >= 0, "population level went negative");
    }

    /// One session entering the condition.
    pub fn inc(&mut self, t: f64) {
        self.step(t, 1);
    }

    /// One session leaving the condition.
    pub fn dec(&mut self, t: f64) {
        self.step(t, -1);
    }

    /// Per-bin integrals `∫ level dt` (session-seconds per bin) extended to
    /// time `t`, without mutating the meter.  The last bin may be partial if
    /// `t` is not on a bin boundary.
    fn integrals_until(&self, t: f64) -> Vec<f64> {
        let mut copy = self.clone();
        copy.advance_to(t);
        copy.bins
    }

    /// Per-bin *time-average levels* extended to time `t`: each full bin's
    /// integral divided by the bin width (the partial last bin is divided by
    /// its actual spanned width).
    pub fn averages_until(&self, t: f64) -> Vec<f64> {
        let bins = self.integrals_until(t);
        let n = bins.len();
        bins.into_iter()
            .enumerate()
            .map(|(i, v)| {
                let bin_start = self.start + i as f64 * self.bin_width;
                let span = if i + 1 == n {
                    (t - bin_start).min(self.bin_width)
                } else {
                    self.bin_width
                };
                if span > 0.0 {
                    v / span
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Streaming per-bin event counter with a fixed horizon.
///
/// Where [`BinnedMeter`] integrates a *level*, `RateMeter` counts *events*:
/// feed it `record(t)` for every message sent (or queue overflow suffered)
/// and it accumulates one `u32` count per fixed-width bin of virtual time.
/// The node simulation's bandwidth envelope and false-removal avalanche
/// series are both instances: `peak()` over the message meter is the storm
/// peak the `node-storm` and `node-restart-storm` experiments report, and
/// the bin vector itself is the recovery time series.
///
/// Bins are pre-sized from the horizon at construction (events past the
/// horizon clamp into the last bin, mirroring how simulators treat
/// post-horizon stragglers), so recording is a branch-free increment and
/// the memory cost is `O(horizon / bin_width)` regardless of event volume.
/// All arithmetic is integer, so identical event sequences produce
/// identical counts on every run — the meters inherit the simulators'
/// bit-determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RateMeter {
    bin_width: f64,
    bins: Vec<u32>,
}

impl RateMeter {
    /// A meter covering `[0, horizon]` with bins of `bin_width` seconds
    /// (one extra bin absorbs events exactly at — or clamped past — the
    /// horizon).
    ///
    /// # Panics
    /// Panics if `bin_width` or `horizon` is not strictly positive and
    /// finite.
    pub fn new(horizon: f64, bin_width: f64) -> Self {
        assert!(
            bin_width > 0.0 && bin_width.is_finite(),
            "bin width must be positive and finite, got {bin_width}"
        );
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive and finite, got {horizon}"
        );
        Self {
            bin_width,
            bins: vec![0; (horizon / bin_width).ceil() as usize + 1],
        }
    }

    /// Counts one event at virtual time `t` (clamped into the last bin
    /// when `t` falls at or beyond the horizon).
    pub fn record(&mut self, t: f64) {
        let bin = ((t / self.bin_width) as usize).min(self.bins.len() - 1);
        self.bins[bin] += 1;
    }

    /// The busiest bin's event count.
    pub fn peak(&self) -> u32 {
        self.bins.iter().copied().max().unwrap_or(0)
    }

    /// The busiest bin's event *rate* (events per second).
    pub fn peak_rate(&self) -> f64 {
        self.peak() as f64 / self.bin_width
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().map(|&c| c as u64).sum()
    }

    /// The per-bin counts, in time order.
    pub fn counts(&self) -> &[u32] {
        &self.bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn empty_meter_is_zero() {
        let m = LevelMeter::new(0.0);
        assert_eq!(m.level(), 0);
        assert_eq!(m.integral_until(10.0), 0.0);
        assert_eq!(m.average_until(10.0), 0.0);
    }

    #[test]
    fn rectangle_integral() {
        // Level 3 over [1, 4): integral 9 session-seconds.
        let mut m = LevelMeter::new(0.0);
        m.step(1.0, 3);
        m.step(4.0, -3);
        assert!(approx_eq(m.integral_until(10.0), 9.0, 1e-12));
        assert!(approx_eq(m.average_until(10.0), 0.9, 1e-12));
        assert_eq!(m.level(), 0);
    }

    #[test]
    fn staircase_integral() {
        let mut m = LevelMeter::new(0.0);
        m.inc(0.0); // level 1 on [0,2)
        m.inc(2.0); // level 2 on [2,3)
        m.dec(3.0); // level 1 on [3,5)
        assert!(approx_eq(m.integral_until(5.0), 2.0 + 2.0 + 2.0, 1e-12));
    }

    #[test]
    fn integral_extends_current_level_to_query_time() {
        let mut m = LevelMeter::new(0.0);
        m.inc(1.0);
        assert!(approx_eq(m.integral_until(11.0), 10.0, 1e-12));
        // Querying does not mutate: same answer twice.
        assert!(approx_eq(m.integral_until(11.0), 10.0, 1e-12));
    }

    #[test]
    fn nonzero_start_time() {
        let mut m = LevelMeter::new(100.0);
        m.inc(110.0);
        assert!(approx_eq(m.integral_until(120.0), 10.0, 1e-12));
        assert!(approx_eq(m.average_until(120.0), 0.5, 1e-12));
        assert_eq!(m.average_until(100.0), 0.0);
    }

    #[test]
    fn binned_meter_rectangles() {
        // Level 2 over [0.5, 2.5) with 1 s bins: integrals 1.0, 2.0, 1.0.
        let mut m = BinnedMeter::new(0.0, 1.0);
        m.step(0.5, 2);
        m.step(2.5, -2);
        let bins = m.integrals_until(4.0);
        assert_eq!(bins.len(), 4);
        assert!(approx_eq(bins[0], 1.0, 1e-12));
        assert!(approx_eq(bins[1], 2.0, 1e-12));
        assert!(approx_eq(bins[2], 1.0, 1e-12));
        assert!(approx_eq(bins[3], 0.0, 1e-12));
        let avgs = m.averages_until(4.0);
        assert!(approx_eq(avgs[1], 2.0, 1e-12));
        assert_eq!(m.level(), 0);
    }

    #[test]
    fn binned_meter_partial_last_bin_average() {
        let mut m = BinnedMeter::new(0.0, 1.0);
        m.inc(0.0);
        // Queried half-way through bin 1: average over the spanned 0.5 s.
        let avgs = m.averages_until(1.5);
        assert_eq!(avgs.len(), 2);
        assert!(approx_eq(avgs[0], 1.0, 1e-12));
        assert!(approx_eq(avgs[1], 1.0, 1e-12));
    }

    #[test]
    fn binned_meter_query_does_not_mutate() {
        let mut m = BinnedMeter::new(0.0, 1.0);
        m.inc(0.25);
        let first = m.integrals_until(3.0);
        let second = m.integrals_until(3.0);
        assert_eq!(first, second);
        m.dec(3.5);
        assert!(approx_eq(m.integrals_until(4.0)[3], 0.5, 1e-12));
    }

    #[test]
    fn rate_meter_counts_and_clamps() {
        let mut m = RateMeter::new(4.0, 1.0);
        assert_eq!(m.counts().len(), 5);
        m.record(0.2);
        m.record(0.8);
        m.record(2.5);
        // At and beyond the horizon: clamped into the last bin.
        m.record(4.0);
        m.record(99.0);
        assert_eq!(m.counts(), &[2, 0, 1, 0, 2]);
        assert_eq!(m.peak(), 2);
        assert_eq!(m.total(), 5);
        assert!(approx_eq(m.peak_rate(), 2.0, 1e-12));
    }

    #[test]
    fn empty_rate_meter_has_zero_peak() {
        let m = RateMeter::new(10.0, 0.5);
        assert_eq!(m.peak(), 0);
        assert_eq!(m.total(), 0);
        assert_eq!(m.peak_rate(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_rate_meter_total_is_event_count(
            raw in proptest::collection::vec(0.0f64..200.0, 0..80),
        ) {
            // Every event lands in exactly one bin (clamping included), so
            // the bin sum always equals the event count and the peak never
            // exceeds it.
            let mut m = RateMeter::new(50.0, 1.0);
            for &t in &raw {
                m.record(t);
            }
            prop_assert_eq!(m.total(), raw.len() as u64);
            prop_assert!(m.peak() as u64 <= m.total());
        }

        #[test]
        fn prop_binned_integrals_sum_to_level_meter(
            raw in proptest::collection::vec(0.0f64..40.0, 1..50),
            width in 0.5f64..5.0,
        ) {
            // The binned integrals must always total the scalar integral.
            let mut times = raw.clone();
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut level = LevelMeter::new(0.0);
            let mut binned = BinnedMeter::new(0.0, width);
            for (i, &t) in times.iter().enumerate() {
                let delta = if i % 3 == 2 && binned.level() > 0 { -1 } else { 1 };
                level.step(t, delta);
                binned.step(t, delta);
            }
            let horizon = 50.0;
            let total: f64 = binned.integrals_until(horizon).iter().sum();
            prop_assert!(approx_eq(total, level.integral_until(horizon), 1e-9));
        }

        #[test]
        fn prop_integral_matches_naive_sum(
            raw in proptest::collection::vec((0.0f64..100.0, 0u8..3), 1..60),
        ) {
            // Random inc/dec walks (clamped to stay non-negative) must
            // integrate to the same value as an explicit piecewise sum.
            let mut steps: Vec<(f64, i64)> = Vec::new();
            let mut level = 0i64;
            let mut times: Vec<f64> = raw.iter().map(|&(t, _)| t).collect();
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (t, &(_, kind)) in times.iter().zip(raw.iter()) {
                let delta = if kind == 0 && level > 0 { -1 } else { 1 };
                level += delta;
                steps.push((*t, delta));
            }
            let mut m = LevelMeter::new(0.0);
            let mut naive = 0.0f64;
            let mut last = 0.0f64;
            let mut lvl = 0i64;
            for &(t, d) in &steps {
                naive += lvl as f64 * (t - last);
                last = t;
                lvl += d;
                m.step(t, d);
            }
            let horizon = 150.0;
            naive += lvl as f64 * (horizon - last);
            prop_assert!(approx_eq(m.integral_until(horizon), naive, 1e-9));
            prop_assert_eq!(m.level(), lvl);
        }

        #[test]
        fn prop_average_bounded_by_max_level(
            raw in proptest::collection::vec(0.0f64..50.0, 1..40),
        ) {
            let mut times = raw.clone();
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut m = LevelMeter::new(0.0);
            for t in times {
                m.inc(t);
            }
            // Only increments: the final level is the largest one.
            let avg = m.average_until(60.0);
            prop_assert!(avg >= 0.0);
            prop_assert!(avg <= m.level() as f64 + 1e-9);
        }
    }
}
