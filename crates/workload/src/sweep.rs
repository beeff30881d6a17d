//! Parameter sweeps.
//!
//! Every figure in the paper's evaluation sweeps one parameter (session
//! length, loss rate, delay, a timer, the hop count) over a linear or
//! logarithmic range while the remaining parameters stay at their defaults.
//! [`Sweep`] captures that pattern once, so the experiment code and the
//! benches sweep exactly the same grids.

/// `n` logarithmically spaced values between `lo` and `hi` (inclusive).
///
/// # Panics
/// Panics if `lo` or `hi` are non-positive or `n < 2`.
fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > 0.0, "log_space needs positive bounds");
    assert!(n >= 2, "log_space needs at least two points");
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// `n` linearly spaced values between `lo` and `hi` (inclusive).
///
/// # Panics
/// Panics if `n < 2`.
fn linear_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linear_space needs at least two points");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// A named sweep over one independent variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Name of the swept parameter, used as the x-axis label.
    pub parameter: String,
    /// The values to evaluate, in plotting order.
    pub values: Vec<f64>,
}

impl Sweep {
    /// A logarithmic sweep.
    pub fn logarithmic(parameter: impl Into<String>, lo: f64, hi: f64, n: usize) -> Self {
        Self {
            parameter: parameter.into(),
            values: log_space(lo, hi, n),
        }
    }

    /// A linear sweep.
    fn linear(parameter: impl Into<String>, lo: f64, hi: f64, n: usize) -> Self {
        Self {
            parameter: parameter.into(),
            values: linear_space(lo, hi, n),
        }
    }

    /// An explicit list of values.
    pub fn explicit(parameter: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            parameter: parameter.into(),
            values,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    // ------------------------------------------------------------------
    // The grids used by the paper's figures.
    // ------------------------------------------------------------------

    /// Figure 4 / 11: mean state lifetime `1/λ_r` from 10 s to 10 000 s.
    pub fn session_length() -> Self {
        Self::logarithmic("mean state lifetime 1/lambda_r (s)", 10.0, 10_000.0, 16)
    }

    /// Figure 5(a): channel loss rate 0 – 0.3.
    pub fn loss_rate() -> Self {
        Self::linear("channel loss rate p_l", 0.0, 0.3, 13)
    }

    /// Figure 5(b): one-way channel delay 0.01 – 1 s.
    pub fn channel_delay() -> Self {
        Self::linear("channel delay (s)", 0.01, 1.0, 12)
    }

    /// Figures 6, 7, 9, 12, 19: soft-state refresh timer 0.1 – 100 s.
    pub fn refresh_timer() -> Self {
        Self::logarithmic("refresh timer T (s)", 0.1, 100.0, 16)
    }

    /// Figure 8(a): state-timeout timer 0.1 – 1000 s.
    pub fn timeout_timer() -> Self {
        Self::logarithmic("state timeout timer tau (s)", 0.1, 1000.0, 17)
    }

    /// Figure 8(b): retransmission timer 0.06 – 10 s.
    pub fn retrans_timer() -> Self {
        Self::logarithmic("retransmission timer R (s)", 0.06, 10.0, 12)
    }

    /// Figure 10(a): mean update interval `1/λ_u` 5 – 1000 s.
    pub fn update_interval() -> Self {
        Self::logarithmic("mean update interval 1/lambda_u (s)", 5.0, 1000.0, 12)
    }

    /// Figures 17–18: number of hops 1 – 20.
    pub fn hop_count() -> Self {
        Self::explicit("number of hops K", (1..=20).map(|k| k as f64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log_space_endpoints_and_monotonicity() {
        let v = log_space(0.1, 100.0, 7);
        assert_eq!(v.len(), 7);
        assert!((v[0] - 0.1).abs() < 1e-12);
        assert!((v[6] - 100.0).abs() < 1e-9);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
        // Log spacing: constant ratio between consecutive points.
        let r0 = v[1] / v[0];
        let r5 = v[6] / v[5];
        assert!((r0 - r5).abs() < 1e-9);
    }

    #[test]
    fn linear_space_endpoints_and_step() {
        let v = linear_space(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    #[should_panic(expected = "positive bounds")]
    fn log_space_rejects_zero() {
        log_space(0.0, 1.0, 3);
    }

    #[test]
    fn paper_grids_are_sane() {
        for sweep in [
            Sweep::session_length(),
            Sweep::loss_rate(),
            Sweep::channel_delay(),
            Sweep::refresh_timer(),
            Sweep::timeout_timer(),
            Sweep::retrans_timer(),
            Sweep::update_interval(),
            Sweep::hop_count(),
        ] {
            assert!(!sweep.is_empty());
            assert!(sweep.len() >= 10, "{}", sweep.parameter);
            assert!(
                sweep.values.windows(2).all(|w| w[1] > w[0]),
                "{} not increasing",
                sweep.parameter
            );
            assert!(!sweep.parameter.is_empty());
        }
        assert_eq!(Sweep::hop_count().len(), 20);
        assert_eq!(Sweep::hop_count().values[0], 1.0);
    }

    #[test]
    fn explicit_sweep_keeps_values() {
        let s = Sweep::explicit("x", vec![3.0, 1.0]);
        assert_eq!(s.values, vec![3.0, 1.0]);
        assert_eq!(s.len(), 2);
    }

    proptest! {
        #[test]
        fn prop_log_space_within_bounds(lo in 0.001f64..1.0, factor in 1.5f64..1e4, n in 2usize..50) {
            let hi = lo * factor;
            let v = log_space(lo, hi, n);
            prop_assert_eq!(v.len(), n);
            for x in v {
                prop_assert!(x >= lo * 0.999 && x <= hi * 1.001);
            }
        }

        #[test]
        fn prop_linear_space_within_bounds(lo in -1e3f64..1e3, span in 0.0f64..1e3, n in 2usize..50) {
            let hi = lo + span;
            let v = linear_space(lo, hi, n);
            prop_assert_eq!(v.len(), n);
            for x in v {
                prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9);
            }
        }
    }
}
