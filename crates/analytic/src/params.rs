//! Protocols and model parameters.

use crate::spec::ProtocolSpec;
use std::fmt;

/// A typed description of why a parameter set (or a simulation configuration
/// built from one) is invalid.
///
/// Every `validate` method in the workspace returns this enum instead of a
/// formatted string, so callers can match on the failure instead of parsing
/// prose.  The [`fmt::Display`] rendering keeps the exact wording the old
/// stringly-typed errors used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The loss probability `p_l` is outside `[0, 1]`.
    LossOutOfRange(f64),
    /// The (per-hop) channel delay is not positive.
    NonPositiveDelay {
        /// Whether the delay is the multi-hop model's per-hop delay.
        per_hop: bool,
    },
    /// The single-hop update rate is negative (zero is allowed: a session
    /// with no updates).
    NegativeUpdateRate,
    /// The multi-hop update rate is not positive (the stationary update
    /// process needs updates).
    NonPositiveUpdateRate,
    /// The removal rate is not positive (sessions must be finite).
    NonPositiveRemovalRate,
    /// One of the refresh / state-timeout / retransmission timers is not
    /// positive.
    NonPositiveTimers,
    /// The external false-signal rate is negative.
    NegativeFalseSignalRate,
    /// The multi-hop model was given zero hops.
    ZeroHops,
    /// A loss-model override has a mean loss outside `[0, 1]`.
    LossModelMeanOutOfRange(f64),
    /// A simulation horizon is not positive.
    NonPositiveHorizon,
    /// A scenario's inconsistency weight is not positive.
    NonPositiveWeight(f64),
    /// A node's mean vacancy between sessions is not positive and finite.
    NonPositiveVacancy,
    /// A node has no session slots (a struct literal bypassing
    /// `NodeConfig::new`'s floor of one).
    NoSessions,
    /// A node has more session slots than its `u32` session indices can
    /// name.
    TooManySessions(usize),
    /// A fault schedule attached to a simulation configuration failed its
    /// own validation (the schedule's `validate` reports the typed detail —
    /// the analytic layer has no dependency on the fault types).
    InvalidFaultSchedule,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LossOutOfRange(p) => {
                write!(f, "loss probability {p} outside [0, 1]")
            }
            ConfigError::NonPositiveDelay { per_hop: false } => {
                write!(f, "channel delay must be positive")
            }
            ConfigError::NonPositiveDelay { per_hop: true } => {
                write!(f, "per-hop delay must be positive")
            }
            ConfigError::NegativeUpdateRate => write!(f, "update rate must be non-negative"),
            ConfigError::NonPositiveUpdateRate => {
                write!(
                    f,
                    "update rate must be positive (stationary update process)"
                )
            }
            ConfigError::NonPositiveRemovalRate => {
                write!(f, "removal rate must be positive (finite sessions)")
            }
            ConfigError::NonPositiveTimers => write!(f, "timers must be positive"),
            ConfigError::NegativeFalseSignalRate => {
                write!(f, "false signal rate must be non-negative")
            }
            ConfigError::ZeroHops => write!(f, "multi-hop model needs at least one hop"),
            ConfigError::LossModelMeanOutOfRange(p) => {
                write!(f, "loss model mean {p} outside [0, 1]")
            }
            ConfigError::NonPositiveHorizon => write!(f, "simulation horizon must be positive"),
            ConfigError::NonPositiveWeight(w) => {
                write!(f, "inconsistency weight {w} must be positive")
            }
            ConfigError::NonPositiveVacancy => {
                write!(f, "mean vacancy must be positive and finite")
            }
            ConfigError::NoSessions => write!(f, "a node needs at least one session"),
            ConfigError::TooManySessions(n) => {
                write!(f, "{n} sessions exceed the limit of {}", u32::MAX)
            }
            ConfigError::InvalidFaultSchedule => {
                write!(
                    f,
                    "fault schedule invalid (FaultSchedule::validate has the detail)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Names for the paper's five protocols, left only for the benchmark package.
///
/// The workspace names the paper's protocols by the [`ProtocolSpec`] presets
/// ([`ProtocolSpec::SS`] … [`ProtocolSpec::HS`], [`ProtocolSpec::PAPER`]).
/// This enum's only remaining callers are `sigperf/src/analytic.rs` and
/// `sigperf/src/node.rs`, which the benchmark's own change moves to the
/// presets; that change deletes the enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// [`ProtocolSpec::SS`].
    Ss,
    /// [`ProtocolSpec::SS_ER`].
    SsEr,
    /// [`ProtocolSpec::SS_RT`].
    SsRt,
    /// [`ProtocolSpec::SS_RTR`].
    SsRtr,
    /// [`ProtocolSpec::HS`].
    Hs,
}

impl Protocol {
    /// The [`ProtocolSpec`] preset this name stands for.
    pub const fn spec(self) -> ProtocolSpec {
        match self {
            Protocol::Ss => ProtocolSpec::SS,
            Protocol::SsEr => ProtocolSpec::SS_ER,
            Protocol::SsRt => ProtocolSpec::SS_RT,
            Protocol::SsRtr => ProtocolSpec::SS_RTR,
            Protocol::Hs => ProtocolSpec::HS,
        }
    }
}

impl From<Protocol> for ProtocolSpec {
    fn from(p: Protocol) -> Self {
        p.spec()
    }
}

/// Parameters of the single-hop model (Section III-A).
///
/// Defaults correspond to the paper's Kazaa peer ↔ supernode scenario.  The
/// source text available to us is OCR-garbled around the numeric values; the
/// decoded defaults (documented in `DESIGN.md`) are: `p_l = 0.02`,
/// `Δ = 30 ms`, `1/λ_u = 30 s`, `1/λ_r = 1800 s`, `T = 5 s`, `τ = 3 T`,
/// `R = 2 Δ`, `λ_e = 1e-4 /s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleHopParams {
    /// Signaling channel loss probability `p_l`.
    pub loss: f64,
    /// Mean one-way signaling channel delay `Δ` in seconds.
    pub delay: f64,
    /// Signaling state update rate `λ_u` (updates per second at the sender).
    pub update_rate: f64,
    /// Signaling state removal rate `λ_r`; `1/λ_r` is the mean lifetime of
    /// the state at the sender (the "session length").
    pub removal_rate: f64,
    /// Soft-state refresh timer `T` in seconds.
    pub refresh_timer: f64,
    /// Soft-state state-timeout timer `τ` in seconds.
    pub timeout_timer: f64,
    /// Retransmission timer `R` in seconds (reliable transmissions).
    pub retrans_timer: f64,
    /// Rate `λ_e` at which the hard-state protocol's external failure
    /// detector falsely signals a sender crash.
    pub false_signal_rate: f64,
}

impl Default for SingleHopParams {
    fn default() -> Self {
        Self::kazaa_defaults()
    }
}

impl SingleHopParams {
    /// The paper's default (Kazaa) parameter set.
    pub fn kazaa_defaults() -> Self {
        let delay = 0.03;
        Self {
            loss: 0.02,
            delay,
            update_rate: 1.0 / 30.0,
            removal_rate: 1.0 / 1800.0,
            refresh_timer: 5.0,
            timeout_timer: 15.0,
            retrans_timer: 2.0 * delay,
            false_signal_rate: 1e-4,
        }
    }

    /// Mean session length `1/λ_r` in seconds.
    pub fn mean_lifetime(&self) -> f64 {
        if self.removal_rate <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.removal_rate
        }
    }

    /// Sets the mean session length (`1/λ_r`).
    pub fn with_mean_lifetime(mut self, seconds: f64) -> Self {
        self.removal_rate = 1.0 / seconds;
        self
    }

    /// Sets the mean update interval (`1/λ_u`).
    pub fn with_mean_update_interval(mut self, seconds: f64) -> Self {
        self.update_rate = 1.0 / seconds;
        self
    }

    /// Sets the refresh timer and keeps the paper's convention of
    /// `τ = 3 · T` (used when sweeping `T`, Figures 6, 7, 9, 12, 19).
    pub fn with_refresh_timer_scaled_timeout(mut self, refresh: f64) -> Self {
        self.refresh_timer = refresh;
        self.timeout_timer = 3.0 * refresh;
        self
    }

    /// Sets the channel delay and keeps the paper's convention of
    /// `R = 2 · Δ` (the retransmission timer tracks the round-trip time).
    pub fn with_delay_scaled_retrans(mut self, delay: f64) -> Self {
        self.delay = delay;
        self.retrans_timer = 2.0 * delay;
        self
    }

    /// The soft-state false-removal rate
    /// `λ_f = p_l^(τ/T) / τ` — the approximate rate at which *all* refreshes
    /// within a timeout interval are lost, causing the receiver to time the
    /// state out even though the sender still has it.
    pub fn false_removal_rate(&self) -> f64 {
        self.false_removal_rate_with_interval(self.refresh_timer)
    }

    /// [`SingleHopParams::false_removal_rate`] with an explicit
    /// delivery-attempt interval: `p_l^(τ/interval) / τ`.  Best-effort
    /// refreshes attempt once per refresh interval `T`; reliable refreshes
    /// also retry every `R`, so their attempt interval is `min(T, R)`.
    pub fn false_removal_rate_with_interval(&self, attempt_interval: f64) -> f64 {
        if self.timeout_timer <= 0.0 || attempt_interval <= 0.0 {
            return 0.0;
        }
        let exponent = self.timeout_timer / attempt_interval;
        self.loss.max(0.0).powf(exponent) / self.timeout_timer
    }

    /// Validates the parameter set, returning the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(ConfigError::LossOutOfRange(self.loss));
        }
        if self.delay <= 0.0 {
            return Err(ConfigError::NonPositiveDelay { per_hop: false });
        }
        if self.update_rate < 0.0 {
            return Err(ConfigError::NegativeUpdateRate);
        }
        if self.removal_rate <= 0.0 {
            return Err(ConfigError::NonPositiveRemovalRate);
        }
        if self.refresh_timer <= 0.0 || self.timeout_timer <= 0.0 || self.retrans_timer <= 0.0 {
            return Err(ConfigError::NonPositiveTimers);
        }
        if self.false_signal_rate < 0.0 {
            return Err(ConfigError::NegativeFalseSignalRate);
        }
        Ok(())
    }
}

/// Parameters of the multi-hop model (Section III-B).
///
/// The sender lifetime is infinite in this model (the paper studies the
/// stationary update-propagation process), so there is no removal rate.
/// Defaults correspond to the paper's bandwidth-reservation scenario:
/// `K = 20` hops, `p_l = 0.02` and `Δ = 30 ms` per hop, `1/λ_u = 60 s`,
/// `T = 5 s`, `τ = 3 T`, `R = 2 Δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiHopParams {
    /// Number of hops `K` between the signaling sender and the final
    /// receiver.
    pub hops: usize,
    /// Per-hop loss probability `p_l`.
    pub loss: f64,
    /// Per-hop mean one-way delay `Δ` in seconds.
    pub delay: f64,
    /// State update rate `λ_u` at the sender.
    pub update_rate: f64,
    /// Soft-state refresh timer `T` in seconds.
    pub refresh_timer: f64,
    /// Soft-state state-timeout timer `τ` in seconds.
    pub timeout_timer: f64,
    /// Retransmission timer `R` in seconds.
    pub retrans_timer: f64,
    /// Per-receiver false external-signal rate for HS.
    pub false_signal_rate: f64,
}

impl Default for MultiHopParams {
    fn default() -> Self {
        Self::reservation_defaults()
    }
}

impl MultiHopParams {
    /// The paper's default multi-hop (bandwidth reservation) parameter set.
    pub fn reservation_defaults() -> Self {
        let delay = 0.03;
        let loss: f64 = 0.02;
        Self {
            hops: 20,
            loss,
            delay,
            update_rate: 1.0 / 60.0,
            refresh_timer: 5.0,
            timeout_timer: 15.0,
            retrans_timer: 2.0 * delay,
            false_signal_rate: loss.powi(3) / 15.0,
        }
    }

    /// Sets the hop count.
    pub fn with_hops(mut self, hops: usize) -> Self {
        self.hops = hops;
        self
    }

    /// Sets the refresh timer, keeping `τ = 3 · T`.
    pub fn with_refresh_timer_scaled_timeout(mut self, refresh: f64) -> Self {
        self.refresh_timer = refresh;
        self.timeout_timer = 3.0 * refresh;
        self
    }

    /// Probability that a message survives `n` consecutive hops.
    pub fn survival(&self, n: usize) -> f64 {
        (1.0 - self.loss).powi(n as i32)
    }

    /// Validates the parameter set.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.hops == 0 {
            return Err(ConfigError::ZeroHops);
        }
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(ConfigError::LossOutOfRange(self.loss));
        }
        if self.delay <= 0.0 {
            return Err(ConfigError::NonPositiveDelay { per_hop: true });
        }
        if self.update_rate <= 0.0 {
            return Err(ConfigError::NonPositiveUpdateRate);
        }
        if self.refresh_timer <= 0.0 || self.timeout_timer <= 0.0 || self.retrans_timer <= 0.0 {
            return Err(ConfigError::NonPositiveTimers);
        }
        if self.false_signal_rate < 0.0 {
            return Err(ConfigError::NegativeFalseSignalRate);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kazaa_defaults_are_valid_and_consistent() {
        let p = SingleHopParams::default();
        p.validate().unwrap();
        assert_eq!(p.mean_lifetime(), 1800.0);
        assert_eq!(p.timeout_timer, 3.0 * p.refresh_timer);
        assert_eq!(p.retrans_timer, 2.0 * p.delay);
    }

    #[test]
    fn false_removal_rate_formula() {
        let p = SingleHopParams::default();
        let expected = p.loss.powf(p.timeout_timer / p.refresh_timer) / p.timeout_timer;
        assert!((p.false_removal_rate() - expected).abs() < 1e-18);
        // Higher loss => higher false removal rate.
        let mut lossy = p;
        lossy.loss = 0.3;
        assert!(lossy.false_removal_rate() > p.false_removal_rate());
        // Longer timeout (more refresh opportunities) => lower rate.
        let mut long_timeout = p;
        long_timeout.timeout_timer = 50.0;
        assert!(long_timeout.false_removal_rate() < p.false_removal_rate());
    }

    #[test]
    fn builder_helpers() {
        let p = SingleHopParams::default()
            .with_mean_lifetime(100.0)
            .with_mean_update_interval(10.0)
            .with_refresh_timer_scaled_timeout(2.0)
            .with_delay_scaled_retrans(0.1);
        assert_eq!(p.mean_lifetime(), 100.0);
        assert_eq!(p.update_rate, 0.1);
        assert_eq!(p.refresh_timer, 2.0);
        assert_eq!(p.timeout_timer, 6.0);
        assert_eq!(p.delay, 0.1);
        assert_eq!(p.retrans_timer, 0.2);
        p.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let p = SingleHopParams {
            loss: 1.5,
            ..Default::default()
        };
        assert_eq!(p.validate(), Err(ConfigError::LossOutOfRange(1.5)));
        let p = SingleHopParams {
            delay: 0.0,
            ..Default::default()
        };
        assert_eq!(
            p.validate(),
            Err(ConfigError::NonPositiveDelay { per_hop: false })
        );
        let p = SingleHopParams {
            removal_rate: 0.0,
            ..Default::default()
        };
        assert_eq!(p.validate(), Err(ConfigError::NonPositiveRemovalRate));
        let p = SingleHopParams {
            refresh_timer: -1.0,
            ..Default::default()
        };
        assert_eq!(p.validate(), Err(ConfigError::NonPositiveTimers));
    }

    #[test]
    fn config_errors_render_and_implement_error() {
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::LossOutOfRange(1.5));
        assert_eq!(e.to_string(), "loss probability 1.5 outside [0, 1]");
        assert_eq!(
            ConfigError::NonPositiveDelay { per_hop: true }.to_string(),
            "per-hop delay must be positive"
        );
        assert_eq!(
            ConfigError::NonPositiveDelay { per_hop: false }.to_string(),
            "channel delay must be positive"
        );
        assert_eq!(
            ConfigError::ZeroHops.to_string(),
            "multi-hop model needs at least one hop"
        );
        assert_eq!(
            ConfigError::NonPositiveHorizon.to_string(),
            "simulation horizon must be positive"
        );
    }

    #[test]
    fn multi_hop_defaults_are_valid() {
        let p = MultiHopParams::default();
        p.validate().unwrap();
        assert_eq!(p.hops, 20);
        assert!((p.survival(1) - 0.98).abs() < 1e-12);
        assert!((p.survival(2) - 0.98 * 0.98).abs() < 1e-12);
    }

    #[test]
    fn multi_hop_validation() {
        let p = MultiHopParams::default().with_hops(0);
        assert!(p.validate().is_err());
        let p = MultiHopParams {
            update_rate: 0.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn multi_hop_refresh_scaling() {
        let p = MultiHopParams::default().with_refresh_timer_scaled_timeout(10.0);
        assert_eq!(p.refresh_timer, 10.0);
        assert_eq!(p.timeout_timer, 30.0);
    }
}
