//! The multi-hop analytic model (Section III-B, Figures 13–16).
//!
//! A signaling sender installs and updates state at every node along a chain
//! of `K` hops.  The sender's state lives forever (`λ_r → 0`); the model
//! studies the stationary process of updates propagating down the chain,
//! refreshes keeping state alive, trigger losses, state timeouts cascading
//! from the first hop that misses its refreshes, and (for HS) false external
//! failure signals followed by a recovery phase.
//!
//! The paper evaluates three protocols in this setting: end-to-end soft state
//! (SS), soft state with hop-by-hop reliable triggers (SS+RT), and hard state
//! (HS).

pub mod model;
pub mod states;
pub mod transitions;

pub use model::{MultiHopModel, MultiHopSolution};
pub use states::{MultiHopState, PathMode};
pub use transitions::{multi_hop_transitions, multi_hop_transitions_into};
