//! Regenerative (renewal–reward) ratio estimation.
//!
//! The paper's inconsistency ratio is the *long-run fraction of time* the
//! sender and receiver disagree.  A simulated signaling session is one
//! regeneration cycle: it contributes a reward `Y` (seconds spent
//! inconsistent) and a length `X` (receiver-side lifetime).  The long-run
//! ratio is `E[Y]/E[X]`, which is **not** the mean of the per-cycle ratios
//! `Y/X` — short sessions would otherwise be over-weighted.
//!
//! [`RatioEstimator`] implements the classical regenerative estimator
//! `r̂ = Ȳ/X̄` with a delta-method variance
//! `Var(r̂) ≈ (S_YY − 2 r̂ S_YX + r̂² S_XX) / (n X̄²)`,
//! which is what simulation texts recommend for renewal-reward confidence
//! intervals.

use crate::ci::Confidence;

/// Accumulates `(length, reward)` pairs from regeneration cycles and
/// estimates the long-run ratio `E[reward] / E[length]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RatioEstimator {
    n: u64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_yy: f64,
    sum_xy: f64,
    min_cycle_ratio: f64,
    max_cycle_ratio: f64,
}

impl RatioEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self {
            min_cycle_ratio: f64::INFINITY,
            max_cycle_ratio: f64::NEG_INFINITY,
            ..Self::default()
        }
    }

    /// Adds one cycle with total length `length` and accumulated reward
    /// `reward`.
    pub fn push(&mut self, length: f64, reward: f64) {
        debug_assert!(length.is_finite() && reward.is_finite());
        self.n += 1;
        self.sum_x += length;
        self.sum_y += reward;
        self.sum_xx += length * length;
        self.sum_yy += reward * reward;
        self.sum_xy += length * reward;
        if length > 0.0 {
            let r = reward / length;
            self.min_cycle_ratio = self.min_cycle_ratio.min(r);
            self.max_cycle_ratio = self.max_cycle_ratio.max(r);
        }
    }

    /// Number of cycles pushed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The ratio estimate `ΣY / ΣX` (0 when no length has accumulated).
    pub fn ratio(&self) -> f64 {
        if self.sum_x <= 0.0 {
            0.0
        } else {
            self.sum_y / self.sum_x
        }
    }

    /// Delta-method standard error of the ratio estimate.
    pub fn std_error(&self) -> f64 {
        if self.n < 2 || self.sum_x <= 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        let mean_x = self.sum_x / n;
        let r = self.ratio();
        // Sample (co)variances of the per-cycle (X, Y).
        let s_xx = (self.sum_xx - n * mean_x * mean_x) / (n - 1.0);
        let mean_y = self.sum_y / n;
        let s_yy = (self.sum_yy - n * mean_y * mean_y) / (n - 1.0);
        let s_xy = (self.sum_xy - n * mean_x * mean_y) / (n - 1.0);
        let var = (s_yy - 2.0 * r * s_xy + r * r * s_xx).max(0.0) / (n * mean_x * mean_x);
        var.sqrt()
    }

    /// Half-width of the confidence interval at the given level.
    fn ci_half_width(&self, level: Confidence) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        level.critical_value(self.n - 1) * self.std_error()
    }

    /// Smallest per-cycle ratio observed (`None` when empty).
    fn min_cycle_ratio(&self) -> Option<f64> {
        if self.n == 0 || !self.min_cycle_ratio.is_finite() {
            None
        } else {
            Some(self.min_cycle_ratio)
        }
    }

    /// Largest per-cycle ratio observed (`None` when empty).
    fn max_cycle_ratio(&self) -> Option<f64> {
        if self.n == 0 || !self.max_cycle_ratio.is_finite() {
            None
        } else {
            Some(self.max_cycle_ratio)
        }
    }

    /// Renders the estimator as a [`crate::summary::Summary`]-compatible set
    /// of values: the mean is the ratio estimate and the spread fields come
    /// from the delta-method standard error.
    pub fn to_summary(&self) -> crate::summary::Summary {
        crate::summary::Summary {
            count: self.n,
            mean: self.ratio(),
            std_dev: self.std_error() * (self.n.max(1) as f64).sqrt(),
            min: self.min_cycle_ratio().unwrap_or(f64::NAN),
            max: self.max_cycle_ratio().unwrap_or(f64::NAN),
            ci95_half_width: self.ci_half_width(Confidence::P95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn ratio_of_sums_not_mean_of_ratios() {
        let mut est = RatioEstimator::new();
        // One long mostly-consistent cycle and one short fully-inconsistent
        // cycle: the long-run fraction is dominated by the long cycle.
        est.push(99.0, 9.0);
        est.push(1.0, 1.0);
        // The mean of the per-cycle ratios, (9/99 + 1/1) / 2, would be 0.55.
        assert!(approx_eq(est.ratio(), 0.1, 1e-12));
        assert_eq!(est.count(), 2);
    }

    #[test]
    fn empty_estimator_is_zero() {
        let est = RatioEstimator::new();
        assert_eq!(est.ratio(), 0.0);
        assert_eq!(est.std_error(), 0.0);
        assert_eq!(est.min_cycle_ratio(), None);
        assert_eq!(est.max_cycle_ratio(), None);
    }

    #[test]
    fn identical_cycles_have_zero_error() {
        let mut est = RatioEstimator::new();
        for _ in 0..50 {
            est.push(10.0, 2.5);
        }
        assert!(approx_eq(est.ratio(), 0.25, 1e-12));
        assert!(est.std_error() < 1e-12);
        assert_eq!(est.min_cycle_ratio(), Some(0.25));
        assert_eq!(est.max_cycle_ratio(), Some(0.25));
    }

    #[test]
    fn summary_roundtrip() {
        let mut est = RatioEstimator::new();
        est.push(10.0, 1.0);
        est.push(20.0, 1.0);
        est.push(30.0, 6.0);
        let s = est.to_summary();
        assert_eq!(s.count, 3);
        assert!(approx_eq(s.mean, 8.0 / 60.0, 1e-12));
        assert!(s.ci95_half_width > 0.0);
        assert!(s.min <= s.max);
    }

    #[test]
    fn estimator_converges_to_true_ratio() {
        // Cycles with X ~ {5, 15} equally likely and Y = 0.2·X + noise-free:
        // ratio must converge to 0.2 and the CI must cover it.
        let mut est = RatioEstimator::new();
        for i in 0..500 {
            let x = if i % 2 == 0 { 5.0 } else { 15.0 };
            est.push(x, 0.2 * x);
        }
        assert!(approx_eq(est.ratio(), 0.2, 1e-12));
        assert!(est.ci_half_width(Confidence::P95) < 1e-9);
    }

    #[test]
    fn ci_shrinks_with_more_cycles() {
        let cycles: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                let x = 5.0 + (i % 7) as f64;
                let y = if i % 3 == 0 { 0.5 * x } else { 0.1 * x };
                (x, y)
            })
            .collect();
        let mut small = RatioEstimator::new();
        for &(x, y) in cycles.iter().take(40) {
            small.push(x, y);
        }
        let mut large = RatioEstimator::new();
        for &(x, y) in &cycles {
            large.push(x, y);
        }
        assert!(large.ci_half_width(Confidence::P95) < small.ci_half_width(Confidence::P95));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn delta_method_ci_contains_the_plain_ratio(
                cycles in proptest::collection::vec((0.1f64..1e4, 0.0f64..1.0), 2..200),
            ) {
                // Random positive cycles with rewards a random fraction of
                // each length.  The delta-method interval must be centred on
                // the plain aggregate ratio ΣY/ΣX (computed independently
                // here), have a finite nonnegative half-width, and the
                // estimate must sit inside the per-cycle min/max envelope.
                let mut est = RatioEstimator::new();
                let mut sum_x = 0.0;
                let mut sum_y = 0.0;
                for &(x, frac) in &cycles {
                    let y = frac * x;
                    est.push(x, y);
                    sum_x += x;
                    sum_y += y;
                }
                let plain = sum_y / sum_x;
                let hw = est.ci_half_width(Confidence::P95);
                prop_assert!(hw.is_finite() && hw >= 0.0);
                prop_assert!(est.ratio() - hw <= plain + 1e-12);
                prop_assert!(plain - 1e-12 <= est.ratio() + hw);
                prop_assert!((est.ratio() - plain).abs() <= 1e-9 * plain.max(1.0));
                let lo = est.min_cycle_ratio().unwrap();
                let hi = est.max_cycle_ratio().unwrap();
                prop_assert!(lo - 1e-12 <= est.ratio() && est.ratio() <= hi + 1e-12);
            }

            #[test]
            fn std_error_is_scale_invariant_in_time_units(
                cycles in proptest::collection::vec((0.1f64..1e3, 0.0f64..1.0), 2..100),
                scale in 0.1f64..100.0,
            ) {
                // Measuring the same sessions in different time units must
                // not change the (dimensionless) ratio or its CI.
                let mut a = RatioEstimator::new();
                let mut b = RatioEstimator::new();
                for &(x, frac) in &cycles {
                    a.push(x, frac * x);
                    b.push(scale * x, scale * frac * x);
                }
                prop_assert!((a.ratio() - b.ratio()).abs() <= 1e-9);
                let (ha, hb) = (a.ci_half_width(Confidence::P95), b.ci_half_width(Confidence::P95));
                prop_assert!((ha - hb).abs() <= 1e-9 * ha.max(1.0));
            }
        }
    }
}
