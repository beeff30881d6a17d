//! Virtual simulation time.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in seconds since the start of the
/// simulation.
///
/// `SimTime` wraps an `f64` but provides a *total* order (the engine never
/// produces NaN times; constructing one panics in debug builds), so it can be
/// used as a binary-heap key.  Every constructed time is non-negative,
/// non-NaN and never −0.0, and for such values the IEEE-754 bit pattern read
/// as an unsigned integer sorts in value order: [`Ord`] compares those bits,
/// and the event queue orders its keys by them with one integer comparison.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds.
    ///
    /// # Panics
    /// Panics if `seconds` is NaN or negative (debug builds assert; release
    /// builds clamp negative values to zero and map NaN to zero).  −0.0 is
    /// stored as +0.0, so equal times always have equal bits.
    pub fn from_secs(seconds: f64) -> Self {
        debug_assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid SimTime: {seconds}"
        );
        if seconds.is_nan() {
            return SimTime(0.0);
        }
        // `max` may return −0.0 (for −0.0 or a negative input); adding +0.0
        // rounds it to +0.0, whose bits sort before every positive time.
        SimTime(seconds.max(0.0) + 0.0)
    }

    /// The time as seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The IEEE-754 bit pattern of the time: for the non-negative, non-NaN,
    /// canonical-zero values `SimTime` holds, it sorts in time order.
    #[inline]
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// Adds a (non-negative) duration in seconds.
    pub fn after(self, seconds: f64) -> Self {
        SimTime::from_secs(self.0 + seconds.max(0.0))
    }

    /// Duration in seconds from `earlier` to `self`; zero if `earlier` is
    /// later than `self`.
    pub fn since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }
}

#[cfg(test)]
impl SimTime {
    /// A time after every finite one.  Release builds reach it through
    /// `from_secs(f64::INFINITY)`; debug builds reject that, so tests of the
    /// order's far end use this constant.
    pub(crate) const INFINITY: SimTime = SimTime(f64::INFINITY);
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, negative values and −0.0, so the bit
        // order is the value order.
        self.to_bits().cmp(&other.to_bits())
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        self.after(rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = self.after(rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_zero() {
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn ordering_follows_seconds() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn after_and_since() {
        let a = SimTime::from_secs(5.0);
        let b = a.after(2.5);
        assert_eq!(b.as_secs(), 7.5);
        assert_eq!(b.since(a), 2.5);
        assert_eq!(a.since(b), 0.0);
        assert_eq!(b - a, 2.5);
    }

    #[test]
    fn add_operators() {
        let mut t = SimTime::ZERO;
        t += 3.0;
        assert_eq!(t.as_secs(), 3.0);
        let u = t + 1.0;
        assert_eq!(u.as_secs(), 4.0);
    }

    #[test]
    fn negative_durations_are_clamped() {
        let t = SimTime::from_secs(10.0);
        assert_eq!(t.after(-5.0).as_secs(), 10.0);
    }

    #[test]
    fn negative_zero_is_canonical() {
        let t = SimTime::from_secs(-0.0);
        assert_eq!(t.to_bits(), 0, "stored as +0.0");
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(t.cmp(&SimTime::ZERO), Ordering::Equal);
        assert!(t < SimTime::from_secs(f64::from_bits(1)));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500000s");
    }

    proptest! {
        #[test]
        fn prop_order_is_transitive(a in 0.0f64..1e9, b in 0.0f64..1e9, c in 0.0f64..1e9) {
            let (ta, tb, tc) = (SimTime::from_secs(a), SimTime::from_secs(b), SimTime::from_secs(c));
            if ta <= tb && tb <= tc {
                prop_assert!(ta <= tc);
            }
        }

        #[test]
        fn prop_after_is_monotone(a in 0.0f64..1e9, d in 0.0f64..1e6) {
            let t = SimTime::from_secs(a);
            prop_assert!(t.after(d) >= t);
        }
    }
}
