//! `siganalytic` — the paper's analytic models.
//!
//! This crate contains the reproduction's core contribution: the unified
//! parameterized continuous-time Markov chain models of Section III of
//! *"A Comparison of Hard-state and Soft-state Signaling Protocols"*
//! (Ji, Ge, Kurose, Towsley — SIGCOMM 2003), for the five signaling
//! protocols:
//!
//! * **SS** — pure soft state,
//! * **SS+ER** — soft state with best-effort explicit removal,
//! * **SS+RT** — soft state with reliable triggers and removal notification,
//! * **SS+RTR** — soft state with reliable triggers *and* reliable removal,
//! * **HS** — pure hard state.
//!
//! Two models are provided:
//!
//! * [`single_hop`] — the eight-state chain of Figure 3 / Table I, producing
//!   the inconsistency ratio, the expected receiver-side state lifetime, the
//!   per-type signaling message rates (Equations 3–7), the normalized message
//!   rate `M`, and the integrated cost `C = w·I + M` (Equation 8);
//! * [`multi_hop`] — the `(consistent hops, fast/slow path)` chain of
//!   Figures 15–16 for SS, SS+RT and HS, producing the end-to-end
//!   inconsistency ratio, per-hop inconsistency (Figure 17) and the
//!   multi-hop signaling message rate (Equations 13–17).
//!
//! The models sit on top of the [`ctmc`] crate and are deliberately free of
//! any simulation machinery, so they can be cross-validated against the
//! discrete-event simulator in `sigproto` (the workspace integration tests do
//! exactly that, mirroring the paper's Figures 11–12).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod fsm;
pub mod multi_hop;
pub mod params;
pub mod single_hop;
pub mod spec;
pub mod sweep;

pub use cost::{integrated_cost, CostWeights};
pub use fsm::{FsmDispatch, MultiHopTransitionTable, TransitionTable};
pub use multi_hop::{MultiHopModel, MultiHopSolution};
pub use params::{ConfigError, MultiHopParams, Protocol, SingleHopParams};
pub use single_hop::{MessageRates, ModelError, SingleHopModel, SingleHopSolution};
pub use spec::{Delivery, ProtocolSpec, RefreshMode, Removal, SpecError};
pub use sweep::{MultiHopSweepSession, SingleHopSweepSession};
