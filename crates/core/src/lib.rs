//! `signaling` — the public facade of the hard-state / soft-state signaling
//! reproduction.
//!
//! The crate re-exports the pieces a user needs to compare signaling
//! protocols:
//!
//! * the mechanism-composition protocol layer ([`ProtocolSpec`] and its
//!   five paper presets named by [`Protocol`]) and the model parameters
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
//!   - [`compare`] — side-by-side analytic-vs-simulation comparisons
//!     (the paper's Figures 11–12 methodology),
//!   - [`report`] — plain-text / CSV / JSON rendering of experiment results.
//!
//! # Quick start
//!
//! ```
//! use signaling::{Protocol, SingleHopModel, SingleHopParams};
//!
//! // How inconsistent is pure soft state for a Kazaa-like workload?
//! let params = SingleHopParams::kazaa_defaults();
//! let solution = SingleHopModel::new(Protocol::Ss, params).unwrap().solve().unwrap();
//! assert!(solution.inconsistency > 0.0 && solution.inconsistency < 1.0);
//!
//! // And how much does adding explicit removal help?
//! let with_removal = SingleHopModel::new(Protocol::SsEr, params).unwrap().solve().unwrap();
//! assert!(with_removal.inconsistency < solution.inconsistency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod experiment;
pub mod node_outage;
pub mod node_restart_storm;
pub mod node_scale;
pub mod node_storm;
pub mod registry;
pub mod report;

pub use compare::{
    compare_all, compare_session, compare_single_hop, compare_single_hop_with, ComparisonRow,
};
pub use experiment::{
    ExperimentId, ExperimentOptions, ExperimentOutput, LossKind, Metric, RetryKind,
};
pub use node_outage::NodeOutageExperiment;
pub use node_restart_storm::NodeRestartStormExperiment;
pub use node_scale::NodeScaleExperiment;
pub use node_storm::NodeStormExperiment;
pub use registry::{
    check_protocol_set, Experiment, ExperimentSpec, ProtocolEntry, ProtocolRegistry,
    ProtocolSetError, Registry, RegistryError, SpecError, SpecKind, SweepTarget,
};
pub use report::{render_csv, render_json, render_table};

// Re-exports of the building blocks.
pub use siganalytic::spec::SpecError as ProtocolSpecError;
pub use siganalytic::{
    integrated_cost, solve_all, solve_all_multi_hop, ConfigError, CostWeights, Delivery,
    MessageRates, ModelError, MultiHopModel, MultiHopParams, MultiHopSolution,
    MultiHopSweepSession, Protocol, ProtocolSpec, RefreshMode, Removal, SingleHopModel,
    SingleHopParams, SingleHopSolution, SingleHopSweepSession,
};
pub use sigproto::{
    Campaign, CampaignResult, CrashStatePolicy, FaultError, FaultEvent, FaultSchedule, LinkEffect,
    LossModel, MultiHopCampaign, MultiHopCampaignResult, MultiHopSession, MultiHopSimConfig,
    NodeCampaign, NodeCampaignResult, NodeConfig, NodeMetrics, NodeSim, PhaseTimings,
    RecoveryMetrics, RecoveryTrace, RefreshPhase, SessionConfig, SessionMetrics, SingleHopSession,
};
pub use sigstats::{ConfidenceInterval, OnlineStats, Point, Series, SeriesSet, Summary};
pub use sigworkload::{MultiHopScenario, Scenario, Sweep};
pub use simcore::{
    Assignment, ExecutionPolicy, QueueKind, Replicate, ReplicationEngine, SimRng, TimerMode,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_work_together() {
        let scenario = Scenario::kazaa_peer();
        let analytic = SingleHopModel::new(Protocol::SsEr, scenario.params)
            .unwrap()
            .solve()
            .unwrap();
        let cfg = SessionConfig::for_scenario(Protocol::SsEr, &scenario, TimerMode::Exponential);
        let mut rng = SimRng::new(1);
        let sim = SingleHopSession::run(&cfg, &mut rng);
        assert!(analytic.inconsistency >= 0.0);
        assert!(sim.inconsistency >= 0.0);
    }

    #[test]
    fn doc_example_holds() {
        let params = SingleHopParams::kazaa_defaults();
        let ss = SingleHopModel::new(Protocol::Ss, params)
            .unwrap()
            .solve()
            .unwrap();
        let er = SingleHopModel::new(Protocol::SsEr, params)
            .unwrap()
            .solve()
            .unwrap();
        assert!(er.inconsistency < ss.inconsistency);
    }
}
