//! Compact summaries of sample collections.

use crate::ci::{Confidence, ConfidenceInterval};
use crate::online::OnlineStats;

/// A compact description of a set of samples: count, moments, extrema and a
/// 95% confidence interval on the mean.
///
/// Used by simulation campaigns to report per-metric results (inconsistency
/// ratio, message rate, receiver-side lifetime, ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Half-width of the 95% confidence interval on the mean.
    pub ci95_half_width: f64,
}

impl Summary {
    /// Builds a summary from an accumulator.
    pub fn from_stats(stats: &OnlineStats) -> Self {
        let ci = ConfidenceInterval::from_stats(stats, Confidence::P95);
        Self {
            count: stats.count(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: stats.min().unwrap_or(f64::NAN),
            max: stats.max().unwrap_or(f64::NAN),
            ci95_half_width: ci.half_width,
        }
    }

    /// Single-line human readable rendering, e.g.
    /// `mean=0.01234 ±0.00021 (n=200, min=0.010, max=0.015)`.
    pub fn display_line(&self) -> String {
        format!(
            "mean={:.6} ±{:.6} (n={}, min={:.6}, max={:.6})",
            self.mean, self.ci95_half_width, self.count, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn summary_of(samples: &[f64]) -> Summary {
        Summary::from_stats(&OnlineStats::from_iter(samples.iter().copied()))
    }

    #[test]
    fn summary_from_samples() {
        let s = summary_of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!(approx_eq(s.mean, 3.0, 1e-12));
        assert!(approx_eq(s.std_dev, 2.5f64.sqrt(), 1e-12));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!(s.ci95_half_width > 0.0);
    }

    #[test]
    fn summary_of_empty_is_nan_extrema() {
        let s = summary_of(&[]);
        assert_eq!(s.count, 0);
        assert!(s.min.is_nan());
        assert!(s.max.is_nan());
        assert_eq!(s.ci95_half_width, 0.0);
    }

    #[test]
    fn display_line_contains_fields() {
        let s = summary_of(&[2.0, 2.0, 2.0]);
        let line = s.display_line();
        assert!(line.contains("mean=2.000000"));
        assert!(line.contains("n=3"));
    }
}
