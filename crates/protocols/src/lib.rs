//! `sigproto` — executable discrete-event implementations of the five
//! signaling protocols.
//!
//! The analytic models in `siganalytic` rest on exponential approximations of
//! every timer and of the channel delay.  Real signaling protocols (RSVP,
//! IGMP, ST-II, ...) use deterministic timers.  The paper validates the
//! approximation by simulation (Figures 11 and 12); this crate is that
//! simulator, built on the `simcore` event engine and the `signet` channel
//! substrate:
//!
//! * [`config`] — simulation configuration: protocol, parameters, timer mode
//!   (deterministic vs. exponential), replication seeds;
//! * [`metrics`] — per-session and per-run metric records;
//! * [`single_hop`] — a complete sender/receiver session (Section II's
//!   message and timer behaviour for all five protocols), from state setup
//!   to removal at both ends;
//! * [`multi_hop`] — the stationary multi-hop update-propagation process of
//!   Section III-B with hop-by-hop forwarding, per-node state-timeout timers
//!   and (for SS+RT/HS) hop-by-hop reliability;
//! * [`campaign`] — many independent replications run (optionally in
//!   parallel) and summarized with 95% confidence intervals;
//! * [`node`] — the population-scale view: one node multiplexing up to 10⁶
//!   concurrent sessions through a single event loop, with slab-packed
//!   per-session state, churn, and streamed aggregate metrics — the
//!   events/sec and bytes/session workload behind the headline benchmarks;
//! * [`recovery`] — fault-recovery instrumentation: one-second-binned time
//!   series of a node run ([`RecoveryTrace`]) and the derived
//!   timeout-avalanche numbers ([`RecoveryMetrics`]) behind the
//!   `node-outage` experiment;
//! * [`retry`] — retransmission retry policies (fixed interval, capped
//!   exponential backoff, decorrelated jitter) shared by the single-hop
//!   session and the population-scale node simulator.
//!
//! The protocol logic lives here and nowhere else; the analytic crate knows
//! nothing about message exchanges and the simulator knows nothing about
//! Markov chains, which is what makes the cross-validation in the workspace
//! integration tests meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod config;
pub mod metrics;
pub mod multi_hop;
pub mod node;
pub mod recovery;
pub mod retry;
pub mod single_hop;

pub use campaign::{Campaign, CampaignResult, MultiHopCampaign, MultiHopCampaignResult};
pub use config::{MultiHopSimConfig, SessionConfig};
pub use metrics::{MessageCounts, MultiHopRunMetrics, SessionMetrics};
pub use multi_hop::MultiHopSession;
pub use node::{
    NodeCampaign, NodeCampaignResult, NodeConfig, NodeMetrics, NodeSim, PhaseTimings, RefreshPhase,
    ScheduleCounts,
};
pub use recovery::{RecoveryMetrics, RecoveryTrace};
pub use retry::{RetryPolicy, RetryState};
pub use signet::{
    CapacityError, CapacityModel, CrashStatePolicy, FaultError, FaultEvent, FaultSchedule,
    LinkEffect, LossModel,
};
pub use single_hop::SingleHopSession;
