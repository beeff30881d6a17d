//! Online (streaming) accumulation of sample moments.
//!
//! [`OnlineStats`] implements Welford's algorithm, which is numerically stable
//! even when the mean is large compared to the variance — the situation we hit
//! when accumulating per-session message counts over thousands of simulated
//! signaling sessions.

/// Streaming accumulator of count, mean, variance, min and max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "OnlineStats::push received non-finite {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n - 1` denominator); `0.0` with fewer than
    /// two samples.
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample seen; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample seen; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for OnlineStats {
    /// Builds an accumulator from an iterator of samples.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = if xs.len() < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        (mean, var)
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(4.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 4.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(4.5));
        assert_eq!(s.max(), Some(4.5));
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.5, -3.0];
        let s = OnlineStats::from_iter(xs.iter().copied());
        let (m, v) = naive_mean_var(&xs);
        assert!(crate::approx_eq(s.mean(), m, 1e-12));
        assert!(crate::approx_eq(s.variance(), v, 1e-12));
        assert_eq!(s.min(), Some(-3.0));
        assert_eq!(s.max(), Some(32.5));
    }

    #[test]
    fn merge_matches_single_pass() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0];
        let mut sa = OnlineStats::from_iter(a.iter().copied());
        let sb = OnlineStats::from_iter(b.iter().copied());
        sa.merge(&sb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let s_all = OnlineStats::from_iter(all.iter().copied());
        assert!(crate::approx_eq(sa.mean(), s_all.mean(), 1e-12));
        assert!(crate::approx_eq(sa.variance(), s_all.variance(), 1e-12));
        assert_eq!(sa.count(), s_all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [5.0, 7.0, 9.0];
        let mut s = OnlineStats::from_iter(xs.iter().copied());
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn sum_is_mean_times_count() {
        let xs = [2.0, 3.0, 5.0];
        let s = OnlineStats::from_iter(xs.iter().copied());
        assert!(crate::approx_eq(s.sum(), 10.0, 1e-12));
    }

    proptest! {
        #[test]
        fn prop_mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = OnlineStats::from_iter(xs.iter().copied());
            let min = s.min().unwrap();
            let max = s.max().unwrap();
            prop_assert!(s.mean() >= min - 1e-9);
            prop_assert!(s.mean() <= max + 1e-9);
        }

        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let s = OnlineStats::from_iter(xs.iter().copied());
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn prop_merge_equals_sequential(
            a in proptest::collection::vec(-1e5f64..1e5, 0..100),
            b in proptest::collection::vec(-1e5f64..1e5, 0..100),
        ) {
            let mut sa = OnlineStats::from_iter(a.iter().copied());
            let sb = OnlineStats::from_iter(b.iter().copied());
            sa.merge(&sb);
            let s_all = OnlineStats::from_iter(a.iter().chain(b.iter()).copied());
            prop_assert!(crate::approx_eq(sa.mean(), s_all.mean(), 1e-9));
            prop_assert!(crate::approx_eq(sa.variance(), s_all.variance(), 1e-6));
            prop_assert_eq!(sa.count(), s_all.count());
        }
    }
}
