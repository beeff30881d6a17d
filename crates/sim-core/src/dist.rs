//! Duration distributions and timer modes.
//!
//! The paper's analytic model approximates every timer (refresh, state
//! timeout, retransmission) and the channel delay as exponentially
//! distributed; real protocols use deterministic timers.  Figures 11 and 12
//! compare the two.  [`Dist`] captures that choice in one place, and
//! [`TimerMode`] selects which flavour a whole simulation uses.

use crate::rng::SimRng;

/// How timers are drawn in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerMode {
    /// Deterministic timers — what deployed protocols (RSVP, IGMP, ...) use.
    Deterministic,
    /// Exponentially distributed timers — the analytic model's assumption.
    Exponential,
}

impl TimerMode {
    /// Builds a duration distribution with the given mean under this mode.
    pub fn dist(self, mean: f64) -> Dist {
        match self {
            TimerMode::Deterministic => Dist::Deterministic(mean),
            TimerMode::Exponential => Dist::Exponential { mean },
        }
    }
}

/// A non-negative duration distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always exactly this many seconds.
    Deterministic(f64),
    /// Exponential with the given mean (seconds).
    Exponential {
        /// Mean duration in seconds.
        mean: f64,
    },
}

impl Dist {
    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Deterministic(v) => *v,
            Dist::Exponential { mean } => *mean,
        }
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Deterministic(v) => (*v).max(0.0),
            Dist::Exponential { mean } => rng.exponential_mean(*mean),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_always_returns_mean() {
        let mut rng = SimRng::new(1);
        let d = Dist::Deterministic(3.5);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn exponential_sample_mean_close() {
        let mut rng = SimRng::new(2);
        let d = Dist::Exponential { mean: 2.0 };
        let n = 100_000;
        let s: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        assert!((s / n as f64 - 2.0).abs() < 0.05);
        assert_eq!(d.mean(), 2.0);
    }

    #[test]
    fn timer_mode_builds_matching_dist() {
        assert_eq!(TimerMode::Deterministic.dist(5.0), Dist::Deterministic(5.0));
        assert_eq!(
            TimerMode::Exponential.dist(5.0),
            Dist::Exponential { mean: 5.0 }
        );
    }

    #[test]
    fn negative_deterministic_clamps_to_zero_on_sample() {
        let mut rng = SimRng::new(3);
        assert_eq!(Dist::Deterministic(-1.0).sample(&mut rng), 0.0);
    }
}
