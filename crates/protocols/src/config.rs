//! Simulation configuration.

use crate::retry::RetryPolicy;
use siganalytic::{ConfigError, MultiHopParams, ProtocolSpec, SingleHopParams};
use signet::{CapacityModel, FaultSchedule, LossModel};
use sigworkload::Scenario;
use simcore::TimerMode;

/// Configuration of a single-hop signaling session simulation.
///
/// The protocol is a mechanism-composition [`ProtocolSpec`]: a paper preset
/// or a custom spec, so novel design points run through the same simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// The signaling protocol (mechanism composition) to simulate.
    pub protocol: ProtocolSpec,
    /// Model parameters (same structure the analytic model uses, so the two
    /// can be compared point for point).
    pub params: SingleHopParams,
    /// Whether protocol timers (refresh, state-timeout, retransmission) are
    /// deterministic — as in deployed protocols — or exponential — as the
    /// analytic model assumes.  Figures 11–12 compare the two.
    pub timer_mode: TimerMode,
    /// Whether the channel delay is deterministic or exponential.  The paper
    /// treats the delay like the timers; keeping it separate lets the
    /// agreement tests isolate the two approximations.
    pub delay_mode: TimerMode,
    /// Optional override of the channel loss process.  `None` (the default)
    /// uses the paper's independent Bernoulli loss with probability
    /// `params.loss`; setting a [`LossModel::GilbertElliott`] here lets the
    /// ablation benches and tests probe how *bursty* loss — which defeats the
    /// "some refresh will get through" assumption — changes the comparison.
    pub loss_model: Option<LossModel>,
    /// Scheduled faults: outages and degraded episodes apply to both channel
    /// directions; crash–restart events wipe (or preserve) the receiver's
    /// held state.  Empty by default — bit-identical to a fault-free run.
    pub faults: FaultSchedule,
    /// How retransmission intervals evolve within one unacknowledged cycle
    /// (reliable trigger, reliable refresh, reliable removal).  The default
    /// [`RetryPolicy::Fixed`] is the paper's behavior, bit-identical to the
    /// pre-policy simulator.
    pub retry: RetryPolicy,
    /// Receiver processing capacity, applied to both channel directions.
    /// [`CapacityModel::unlimited`] (the default) is byte-identical to a
    /// build without the capacity layer.
    pub capacity: CapacityModel,
}

impl SessionConfig {
    /// Deterministic-timer configuration (what a deployed protocol would do).
    pub fn deterministic(protocol: ProtocolSpec, params: SingleHopParams) -> Self {
        Self {
            protocol,
            params,
            timer_mode: TimerMode::Deterministic,
            delay_mode: TimerMode::Deterministic,
            loss_model: None,
            faults: FaultSchedule::none(),
            retry: RetryPolicy::Fixed,
            capacity: CapacityModel::unlimited(),
        }
    }

    /// Fully exponential configuration (matches the analytic model's
    /// assumptions; used to validate the model itself).
    pub fn exponential(protocol: ProtocolSpec, params: SingleHopParams) -> Self {
        Self {
            timer_mode: TimerMode::Exponential,
            delay_mode: TimerMode::Exponential,
            ..Self::deterministic(protocol, params)
        }
    }

    /// Configuration derived from a named workload [`Scenario`]: the
    /// scenario's parameters and (if it carries one) its loss-model override,
    /// with the given timer discipline for both timers and delays.
    ///
    /// This is the composition point the open experiment registry uses: a
    /// user-defined scenario plugs into the simulator without touching any
    /// protocol code.
    pub fn for_scenario(
        protocol: ProtocolSpec,
        scenario: &Scenario,
        timer_mode: TimerMode,
    ) -> Self {
        Self {
            timer_mode,
            delay_mode: timer_mode,
            loss_model: scenario.loss_model,
            ..Self::deterministic(protocol, scenario.params)
        }
    }

    /// Overrides the channel loss process (see [`SessionConfig::loss_model`]).
    pub fn with_loss_model(mut self, model: LossModel) -> Self {
        self.loss_model = Some(model);
        self
    }

    /// Attaches a fault schedule (see [`SessionConfig::faults`]).
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.faults = schedule;
        self
    }

    /// Selects the retransmission retry policy (see [`SessionConfig::retry`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a receiver capacity model (see [`SessionConfig::capacity`]).
    pub fn with_capacity(mut self, capacity: CapacityModel) -> Self {
        self.capacity = capacity;
        self
    }

    /// The loss process the simulator will use.
    pub fn effective_loss_model(&self) -> LossModel {
        self.loss_model.unwrap_or(LossModel::Bernoulli {
            p: self.params.loss,
        })
    }

    /// Validates the embedded parameters.  The protocol's mechanism
    /// coherence is checked separately with
    /// [`ProtocolSpec::validate`](siganalytic::ProtocolSpec::validate)
    /// (the analytic models do so on construction).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params.validate()?;
        if let Some(model) = self.loss_model {
            let p = model.mean_loss();
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::LossModelMeanOutOfRange(p));
            }
        }
        self.faults
            .validate()
            .map_err(|_| ConfigError::InvalidFaultSchedule)
    }
}

/// Configuration of a multi-hop simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiHopSimConfig {
    /// The signaling protocol (SS, SS+RT and HS are the paper's choices for
    /// Section III-B; any coherent [`ProtocolSpec`] runs).
    pub protocol: ProtocolSpec,
    /// Multi-hop model parameters.
    pub params: MultiHopParams,
    /// Deterministic or exponential protocol timers.
    pub timer_mode: TimerMode,
    /// Deterministic or exponential per-hop delay.
    pub delay_mode: TimerMode,
    /// Simulated horizon in seconds over which metrics are measured.
    pub horizon: f64,
    /// Scheduled link faults, applied to every hop of both the forward and
    /// the reverse path (a node-side blackout severs the whole path).
    /// Crash–restart events are ignored by the multi-hop simulator — its
    /// nodes model relay state, not a restartable process.
    pub faults: FaultSchedule,
}

impl MultiHopSimConfig {
    /// Deterministic-timer configuration with a default two-hour horizon.
    pub fn deterministic(protocol: ProtocolSpec, params: MultiHopParams) -> Self {
        Self {
            protocol,
            params,
            timer_mode: TimerMode::Deterministic,
            delay_mode: TimerMode::Deterministic,
            horizon: 7200.0,
            faults: FaultSchedule::none(),
        }
    }

    /// Exponential-timer configuration with a default two-hour horizon.
    pub fn exponential(protocol: ProtocolSpec, params: MultiHopParams) -> Self {
        Self {
            timer_mode: TimerMode::Exponential,
            delay_mode: TimerMode::Exponential,
            ..Self::deterministic(protocol, params)
        }
    }

    /// Overrides the measurement horizon.
    pub fn with_horizon(mut self, seconds: f64) -> Self {
        self.horizon = seconds;
        self
    }

    /// Attaches a fault schedule (see [`MultiHopSimConfig::faults`]).
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.faults = schedule;
        self
    }

    /// Validates the embedded parameters and the horizon.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params.validate()?;
        if self.horizon <= 0.0 {
            return Err(ConfigError::NonPositiveHorizon);
        }
        self.faults
            .validate()
            .map_err(|_| ConfigError::InvalidFaultSchedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_modes() {
        let det = SessionConfig::deterministic(ProtocolSpec::SS, SingleHopParams::default());
        assert_eq!(det.timer_mode, TimerMode::Deterministic);
        assert_eq!(det.delay_mode, TimerMode::Deterministic);
        let exp = SessionConfig::exponential(ProtocolSpec::HS, SingleHopParams::default());
        assert_eq!(exp.timer_mode, TimerMode::Exponential);
        assert_eq!(exp.delay_mode, TimerMode::Exponential);
        det.validate().unwrap();
        exp.validate().unwrap();
    }

    #[test]
    fn multi_hop_config_defaults_and_overrides() {
        let c = MultiHopSimConfig::deterministic(ProtocolSpec::SS_RT, MultiHopParams::default());
        assert_eq!(c.horizon, 7200.0);
        let c = c.with_horizon(100.0);
        assert_eq!(c.horizon, 100.0);
        c.validate().unwrap();
        assert!(c.with_horizon(0.0).validate().is_err());
    }

    #[test]
    fn invalid_params_fail_validation_with_typed_errors() {
        let p = SingleHopParams {
            loss: 7.0,
            ..Default::default()
        };
        let c = SessionConfig::deterministic(ProtocolSpec::SS, p);
        assert_eq!(c.validate(), Err(ConfigError::LossOutOfRange(7.0)));
        let m = MultiHopSimConfig::deterministic(ProtocolSpec::SS, MultiHopParams::default());
        assert_eq!(
            m.with_horizon(-1.0).validate(),
            Err(ConfigError::NonPositiveHorizon)
        );
    }

    #[test]
    fn scenario_derived_config_carries_params_and_loss_model() {
        let scenario = Scenario::kazaa_peer();
        let cfg =
            SessionConfig::for_scenario(ProtocolSpec::SS_ER, &scenario, TimerMode::Deterministic);
        assert_eq!(cfg.params, scenario.params);
        assert_eq!(cfg.timer_mode, TimerMode::Deterministic);
        assert_eq!(cfg.loss_model, None);
        cfg.validate().unwrap();

        let bursty = Scenario::kazaa_peer().with_loss_model(LossModel::GilbertElliott {
            p_good: 0.0,
            p_bad: 0.5,
            p_g2b: 0.02,
            p_b2g: 0.48,
        });
        let cfg = SessionConfig::for_scenario(ProtocolSpec::SS, &bursty, TimerMode::Exponential);
        assert!(matches!(
            cfg.effective_loss_model(),
            LossModel::GilbertElliott { .. }
        ));
        cfg.validate().unwrap();
    }

    #[test]
    fn loss_model_override() {
        let base = SessionConfig::deterministic(ProtocolSpec::SS, SingleHopParams::default());
        assert_eq!(
            base.effective_loss_model(),
            LossModel::Bernoulli {
                p: base.params.loss
            }
        );
        let bursty = base.with_loss_model(LossModel::GilbertElliott {
            p_good: 0.0,
            p_bad: 0.5,
            p_g2b: 0.02,
            p_b2g: 0.48,
        });
        assert!(matches!(
            bursty.effective_loss_model(),
            LossModel::GilbertElliott { .. }
        ));
        bursty.validate().unwrap();
    }
}
