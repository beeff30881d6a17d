//! Time-weighted averaging of piecewise-constant signals.
//!
//! The paper's central metric is the *inconsistency ratio*: the fraction of
//! time during which the signaling sender and receiver hold different state
//! values.  In the simulator this is a piecewise-constant indicator signal
//! (`1.0` while inconsistent, `0.0` while consistent) that changes whenever a
//! message is delivered, a timer fires, or the sender updates its state.
//! [`TimeWeighted`] integrates such a signal over simulated time.

/// Integrates a piecewise-constant real-valued signal over time.
///
/// The accumulator is fed `(time, new_value)` change points; between change
/// points the signal is assumed to hold its previous value.  Querying the
/// time-average at time `t` integrates up to `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: f64,
    last_time: f64,
    current: f64,
    integral: f64,
    /// Total time during which the signal was strictly positive.
    positive_time: f64,
}

impl TimeWeighted {
    /// Starts integrating at `start_time` with initial signal value `initial`.
    pub fn new(start_time: f64, initial: f64) -> Self {
        Self {
            start: start_time,
            last_time: start_time,
            current: initial,
            integral: 0.0,
            positive_time: 0.0,
        }
    }

    /// Records that at time `t` the signal changed to `value`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `t` is earlier than the previous change
    /// point; the simulator never goes back in time.
    pub fn set(&mut self, t: f64, value: f64) {
        debug_assert!(
            t + 1e-12 >= self.last_time,
            "time went backwards: {} < {}",
            t,
            self.last_time
        );
        let dt = (t - self.last_time).max(0.0);
        self.integral += self.current * dt;
        if self.current > 0.0 {
            self.positive_time += dt;
        }
        self.last_time = t;
        self.current = value;
    }

    /// Convenience wrapper for boolean indicator signals.
    pub fn set_bool(&mut self, t: f64, value: bool) {
        self.set(t, if value { 1.0 } else { 0.0 });
    }

    /// Integral of the signal from the start time until `t`.
    pub fn integral_until(&self, t: f64) -> f64 {
        let dt = (t - self.last_time).max(0.0);
        self.integral + self.current * dt
    }

    /// Total time (up to `t`) during which the signal was strictly positive.
    pub fn positive_time_until(&self, t: f64) -> f64 {
        let dt = (t - self.last_time).max(0.0);
        if self.current > 0.0 {
            self.positive_time + dt
        } else {
            self.positive_time
        }
    }

    /// Time-average of the signal over `[start, t]`; `0.0` for an empty
    /// interval.
    pub fn average_until(&self, t: f64) -> f64 {
        let span = t - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        self.integral_until(t) / span
    }

    /// Fraction of `[start, t]` during which the signal was strictly positive.
    ///
    /// For an indicator signal this equals [`Self::average_until`]; it is kept
    /// separate so that non-binary signals (e.g. number of inconsistent hops)
    /// can still report "any inconsistency" fractions.
    pub fn positive_fraction_until(&self, t: f64) -> f64 {
        let span = t - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        self.positive_time_until(t) / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn constant_signal_average_is_value() {
        let tw = TimeWeighted::new(0.0, 0.7);
        assert!(approx_eq(tw.average_until(10.0), 0.7, 1e-12));
        assert!(approx_eq(tw.integral_until(10.0), 7.0, 1e-12));
    }

    #[test]
    fn indicator_signal_fraction() {
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.set_bool(2.0, false); // inconsistent for [0,2)
        tw.set_bool(5.0, true); // consistent for [2,5)
        tw.set_bool(6.0, false); // inconsistent for [5,6)
                                 // until t=10: positive on [0,2) and [5,6) => 3 out of 10
        assert!(approx_eq(tw.average_until(10.0), 0.3, 1e-12));
        assert!(approx_eq(tw.positive_fraction_until(10.0), 0.3, 1e-12));
    }

    #[test]
    fn empty_interval_average_is_zero() {
        let tw = TimeWeighted::new(5.0, 1.0);
        assert_eq!(tw.average_until(5.0), 0.0);
        assert_eq!(tw.average_until(4.0), 0.0);
    }

    #[test]
    fn nonbinary_signal_integral() {
        let mut tw = TimeWeighted::new(0.0, 2.0);
        tw.set(1.0, 4.0);
        tw.set(3.0, 0.0);
        // integral: 2*1 + 4*2 + 0*(t-3)
        assert!(approx_eq(tw.integral_until(5.0), 10.0, 1e-12));
        assert!(approx_eq(tw.average_until(5.0), 2.0, 1e-12));
        // positive time is [0,3)
        assert!(approx_eq(tw.positive_fraction_until(5.0), 0.6, 1e-12));
    }

    proptest! {
        #[test]
        fn prop_indicator_average_between_zero_and_one(
            flips in proptest::collection::vec(0.0f64..100.0, 0..50),
            horizon in 100.0f64..200.0,
        ) {
            let mut times = flips.clone();
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut tw = TimeWeighted::new(0.0, 1.0);
            let mut v = true;
            for t in times {
                v = !v;
                tw.set_bool(t, v);
            }
            let avg = tw.average_until(horizon);
            prop_assert!((0.0..=1.0).contains(&avg), "avg = {}", avg);
        }

        #[test]
        fn prop_integral_monotone_for_nonnegative_signal(
            points in proptest::collection::vec((0.0f64..50.0, 0.0f64..10.0), 1..40),
        ) {
            let mut pts = points.clone();
            pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut tw = TimeWeighted::new(0.0, 0.0);
            for (t, v) in pts {
                tw.set(t, v);
            }
            let i1 = tw.integral_until(60.0);
            let i2 = tw.integral_until(80.0);
            prop_assert!(i2 + 1e-9 >= i1);
        }
    }
}
