//! Delay processes.
//!
//! The analytic model approximates the one-way channel delay as exponential
//! with mean `Δ`; deployed networks are closer to a fixed propagation delay.
//! Both are available here.  The channel additionally enforces
//! FIFO delivery (no reordering), matching the paper's channel assumptions.

use simcore::{Dist, SimRng, TimerMode};

/// A per-hop one-way delay process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// Base delay distribution.
    pub base: Dist,
}

impl DelayModel {
    /// Fixed (deterministic) delay.
    pub fn fixed(seconds: f64) -> Self {
        Self {
            base: Dist::Deterministic(seconds),
        }
    }

    /// Exponentially distributed delay with the given mean (the analytic
    /// model's assumption).
    pub fn exponential(mean: f64) -> Self {
        Self {
            base: Dist::Exponential { mean },
        }
    }

    /// Delay built from a [`TimerMode`], used when a whole simulation is
    /// switched between "model assumptions" and "deployed protocol" modes.
    pub fn from_mode(mode: TimerMode, mean: f64) -> Self {
        Self {
            base: mode.dist(mean),
        }
    }

    /// Mean one-way delay.
    pub fn mean(&self) -> f64 {
        self.base.mean()
    }

    /// Draws one delay sample (always non-negative).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.base.sample(rng).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delay_is_constant() {
        let d = DelayModel::fixed(0.03);
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 0.03);
        }
        assert_eq!(d.mean(), 0.03);
    }

    #[test]
    fn exponential_delay_mean() {
        let d = DelayModel::exponential(0.1);
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let s: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        assert!((s / n as f64 - 0.1).abs() < 0.005);
    }

    #[test]
    fn from_mode_matches_mode() {
        let det = DelayModel::from_mode(TimerMode::Deterministic, 0.3);
        let exp = DelayModel::from_mode(TimerMode::Exponential, 0.3);
        assert_eq!(det.base, Dist::Deterministic(0.3));
        assert_eq!(exp.base, Dist::Exponential { mean: 0.3 });
    }
}
