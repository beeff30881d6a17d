//! Student-t confidence intervals.
//!
//! Simulation results in the paper (Figures 11 and 12) are reported with 95%
//! confidence intervals over independent replications.  We reproduce that
//! here with a small two-sided Student-t quantile table; for large sample
//! counts the quantile converges to the normal value 1.96.

use crate::online::OnlineStats;

/// Two-sided 95% Student-t critical values indexed by degrees of freedom
/// (1-based; index 0 unused).  Values beyond the table fall back to
/// interpolation / the asymptotic normal quantile.
const T95: [f64; 31] = [
    f64::NAN,
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

/// Two-sided 99% Student-t critical values indexed by degrees of freedom.
const T99: [f64; 31] = [
    f64::NAN,
    63.657,
    9.925,
    5.841,
    4.604,
    4.032,
    3.707,
    3.499,
    3.355,
    3.250,
    3.169,
    3.106,
    3.055,
    3.012,
    2.977,
    2.947,
    2.921,
    2.898,
    2.878,
    2.861,
    2.845,
    2.831,
    2.819,
    2.807,
    2.797,
    2.787,
    2.779,
    2.771,
    2.763,
    2.756,
    2.750,
];

/// Confidence level supported by [`ConfidenceInterval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// 95% two-sided interval (paper default).
    P95,
    /// 99% two-sided interval.
    P99,
}

impl Confidence {
    /// Two-sided critical value for `df` degrees of freedom.
    pub fn critical_value(self, df: u64) -> f64 {
        let (table, asymptote) = match self {
            Confidence::P95 => (&T95, 1.960),
            Confidence::P99 => (&T99, 2.576),
        };
        if df == 0 {
            return f64::INFINITY;
        }
        let df = df as usize;
        if df < table.len() {
            table[df]
        } else if df <= 60 {
            // Linear interpolation between df = 30 and df = 60 endpoints.
            let t30 = table[30];
            let t60 = match self {
                Confidence::P95 => 2.000,
                Confidence::P99 => 2.660,
            };
            let frac = (df - 30) as f64 / 30.0;
            t30 + (t60 - t30) * frac
        } else if df <= 120 {
            let t60 = match self {
                Confidence::P95 => 2.000,
                Confidence::P99 => 2.660,
            };
            let t120 = match self {
                Confidence::P95 => 1.980,
                Confidence::P99 => 2.617,
            };
            let frac = (df - 60) as f64 / 60.0;
            t60 + (t120 - t60) * frac
        } else {
            asymptote
        }
    }
}

/// A symmetric confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval (`mean ± half_width`).
    pub half_width: f64,
    /// Number of samples the interval was computed from.
    pub samples: u64,
    /// Confidence level.
    pub level: Confidence,
}

impl ConfidenceInterval {
    /// Computes the interval from an [`OnlineStats`] accumulator.
    ///
    /// With fewer than two samples the half-width is reported as `0.0`
    /// (there is no variance information) — callers should check
    /// [`Self::samples`] before trusting the interval.
    pub fn from_stats(stats: &OnlineStats, level: Confidence) -> Self {
        let n = stats.count();
        let half_width = if n < 2 {
            0.0
        } else {
            level.critical_value(n - 1) * stats.std_error()
        };
        Self {
            mean: stats.mean(),
            half_width,
            samples: n,
            level,
        }
    }

    /// Lower bound of the interval.
    fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    fn upper(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower() && value <= self.upper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// The 95% interval of raw samples.
    fn p95_from_samples(samples: &[f64]) -> ConfidenceInterval {
        ConfidenceInterval::from_stats(
            &OnlineStats::from_iter(samples.iter().copied()),
            Confidence::P95,
        )
    }

    #[test]
    fn critical_values_match_table() {
        assert!(approx_eq(Confidence::P95.critical_value(1), 12.706, 1e-9));
        assert!(approx_eq(Confidence::P95.critical_value(10), 2.228, 1e-9));
        assert!(approx_eq(Confidence::P99.critical_value(5), 4.032, 1e-9));
    }

    #[test]
    fn critical_value_decreases_with_df() {
        let mut prev = Confidence::P95.critical_value(1);
        for df in 2..200 {
            let cur = Confidence::P95.critical_value(df);
            assert!(cur <= prev + 1e-9, "df={df}: {cur} > {prev}");
            prev = cur;
        }
        assert!(approx_eq(
            Confidence::P95.critical_value(10_000),
            1.96,
            1e-9
        ));
    }

    #[test]
    fn interval_from_known_samples() {
        // samples 1..=5: mean 3, sd sqrt(2.5), se sqrt(0.5), t(4)=2.776
        let ci = p95_from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(approx_eq(ci.mean, 3.0, 1e-12));
        let expected_hw = 2.776 * (2.5f64 / 5.0).sqrt();
        assert!(approx_eq(ci.half_width, expected_hw, 1e-9));
        assert!(ci.contains(3.0));
        assert!(ci.contains(ci.lower()));
        assert!(!ci.contains(ci.upper() + 1e-6));
    }

    #[test]
    fn single_sample_has_zero_half_width() {
        let ci = p95_from_samples(&[42.0]);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.samples, 1);
        assert_eq!(ci.mean, 42.0);
    }

    #[test]
    fn identical_samples_have_zero_width() {
        let ci = p95_from_samples(&[7.0; 30]);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.contains(7.0));
        assert!(!ci.contains(7.1));
    }
}
