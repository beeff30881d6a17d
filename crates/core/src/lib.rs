//! `signaling` — the public facade of the hard-state / soft-state signaling
//! reproduction.
//!
//! The crate re-exports the pieces a user needs to compare signaling
//! protocols:
//!
//! * the mechanism-composition protocol layer ([`ProtocolSpec`] and its
//!   five paper presets, [`ProtocolSpec::PAPER`]) and the model parameters
//!   ([`SingleHopParams`], [`MultiHopParams`]) — from `siganalytic`;
//! * the analytic models ([`SingleHopModel`], [`MultiHopModel`]) and their
//!   solutions;
//! * the discrete-event simulator ([`SessionConfig`], [`Campaign`],
//!   [`MultiHopSimConfig`], [`MultiHopCampaign`]) — from `sigproto`;
//! * the application scenarios and parameter sweeps — from `sigworkload`;
//! * and, on top of those, this crate's own contribution:
//!   - [`registry`] — the open experiment registry: the [`Experiment`] trait,
//!     a [`Registry`] pre-loaded with every table and figure of the paper's
//!     evaluation section, and the declarative [`ExperimentSpec`] builder for
//!     composing new experiments out of scenarios and sweeps,
//!   - [`experiment`] — the paper catalog (static rows that the registry
//!     runs, resolved by name through the [`ExperimentId`] handle) and the
//!     experiment sizing options,
//!   - [`node_experiment`] — the population-scale node experiments
//!     (`node-scale`, `node-storm`, `node-outage`, `node-restart-storm`),
//!     static rows over one shared campaign path,
//!   - [`compare`] — side-by-side analytic-vs-simulation comparisons
//!     (the paper's Figures 11–12 methodology),
//!   - [`report`] — plain-text / CSV / JSON rendering of experiment results.
//!
//! # Quick start
//!
//! ```
//! use signaling::{ProtocolSpec, SingleHopModel, SingleHopParams};
//!
//! // How inconsistent is pure soft state for a Kazaa-like workload?
//! let params = SingleHopParams::kazaa_defaults();
//! let solution = SingleHopModel::new(ProtocolSpec::SS, params).unwrap().solve().unwrap();
//! assert!(solution.inconsistency > 0.0 && solution.inconsistency < 1.0);
//!
//! // And how much does adding explicit removal help?
//! let with_removal = SingleHopModel::new(ProtocolSpec::SS_ER, params).unwrap().solve().unwrap();
//! assert!(with_removal.inconsistency < solution.inconsistency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod experiment;
pub mod node_experiment;
pub mod registry;
pub mod report;

pub use compare::{compare_all, compare_session, compare_single_hop, ComparisonRow};
pub use experiment::{
    ExperimentId, ExperimentOptions, ExperimentOutput, LossKind, Metric, RetryKind,
};
pub use node_experiment::restart_storm::NodeRestartStormExperiment;
pub use node_experiment::NODE_EXPERIMENTS;
pub use registry::{
    check_protocol_set, coherent_spectrum, Experiment, ExperimentSpec, ProtocolEntry,
    ProtocolRegistry, ProtocolSetError, Registry, RegistryError, SpecError, SpecKind, SweepTarget,
};
pub use report::{render_csv, render_json};

/// `node-restart-storm`'s fault schedule, capacity model and constants.
pub mod node_restart_storm {
    pub use crate::node_experiment::restart_storm::*;

    #[cfg(test)]
    mod tests {
        use crate::node_experiment::restart_storm::NodeRestartStormExperiment;
        use crate::node_experiment::tests::*;
        use crate::{ProtocolSpec, RetryKind};

        #[test]
        fn respects_protocol_override() {
            assert_respects_protocol_override("node-restart-storm");
        }

        #[test]
        fn table_is_bit_identical_across_policies_and_queue_kinds() {
            assert_identical_across_policies("node-restart-storm", &[ProtocolSpec::SS_RTR]);
            assert_queue_kinds_agree(NodeRestartStormExperiment::config(
                ProtocolSpec::SS_RTR,
                RetryKind::Jittered,
                &tiny_options(),
            ));
        }
    }
}

// Each remaining node experiment's own checks, under its row's name; the
// shared assertions live in `node_experiment::tests`.
#[cfg(test)]
mod node_scale {
    mod tests {
        use crate::node_experiment::tests::*;
        use crate::ProtocolSpec;

        #[test]
        fn respects_protocol_override() {
            assert_respects_protocol_override("node-scale");
        }

        #[test]
        fn table_is_deterministic_across_execution_policies() {
            assert_identical_across_policies("node-scale", &ProtocolSpec::PAPER);
        }
    }
}

#[cfg(test)]
mod node_storm {
    mod tests {
        use crate::node_experiment::tests::*;
        use crate::ProtocolSpec;

        #[test]
        fn respects_protocol_override() {
            assert_respects_protocol_override("node-storm");
        }

        #[test]
        fn table_is_deterministic_across_execution_policies() {
            assert_identical_across_policies("node-storm", &[ProtocolSpec::SS]);
        }
    }
}

#[cfg(test)]
mod node_outage {
    mod tests {
        use crate::node_experiment::outage;
        use crate::node_experiment::tests::*;
        use crate::ProtocolSpec;

        #[test]
        fn respects_protocol_override() {
            assert_respects_protocol_override("node-outage");
        }

        #[test]
        fn table_is_bit_identical_across_policies_and_queue_kinds() {
            assert_identical_across_policies("node-outage", &[ProtocolSpec::SS]);
            assert_queue_kinds_agree(outage::config(ProtocolSpec::SS, &tiny_options()));
        }
    }
}

// Re-exports of the building blocks.
pub use siganalytic::spec::SpecError as ProtocolSpecError;
pub use siganalytic::{
    integrated_cost, ConfigError, CostWeights, Delivery, MessageRates, ModelError, MultiHopModel,
    MultiHopParams, MultiHopSolution, MultiHopSweepSession, Protocol, ProtocolSpec, RefreshMode,
    Removal, SingleHopModel, SingleHopParams, SingleHopSolution, SingleHopSweepSession,
};
pub use sigproto::{
    Campaign, CampaignResult, CrashStatePolicy, FaultError, FaultEvent, FaultSchedule, LinkEffect,
    LossModel, MultiHopCampaign, MultiHopCampaignResult, MultiHopSession, MultiHopSimConfig,
    NodeCampaign, NodeCampaignResult, NodeConfig, NodeMetrics, NodeSim, PhaseTimings,
    RecoveryMetrics, RecoveryTrace, RefreshPhase, SessionConfig, SessionMetrics, SingleHopSession,
};
pub use sigstats::{ConfidenceInterval, OnlineStats, Point, Series, SeriesSet, Summary};
pub use sigworkload::{MultiHopScenario, Scenario, Sweep};
pub use simcore::{ExecutionPolicy, QueueKind, Replicate, ReplicationEngine, SimRng, TimerMode};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_work_together() {
        let scenario = Scenario::kazaa_peer();
        let analytic = SingleHopModel::new(ProtocolSpec::SS_ER, scenario.params)
            .unwrap()
            .solve()
            .unwrap();
        let cfg =
            SessionConfig::for_scenario(ProtocolSpec::SS_ER, &scenario, TimerMode::Exponential);
        let mut rng = SimRng::new(1);
        let sim = SingleHopSession::run(&cfg, &mut rng);
        assert!(analytic.inconsistency >= 0.0);
        assert!(sim.inconsistency >= 0.0);
    }

    #[test]
    fn doc_example_holds() {
        let params = SingleHopParams::kazaa_defaults();
        let ss = SingleHopModel::new(ProtocolSpec::SS, params)
            .unwrap()
            .solve()
            .unwrap();
        let er = SingleHopModel::new(ProtocolSpec::SS_ER, params)
            .unwrap()
            .solve()
            .unwrap();
        assert!(er.inconsistency < ss.inconsistency);
    }
}
