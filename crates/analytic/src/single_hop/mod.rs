//! The single-hop analytic model (Section III-A, Figure 3, Table I).
//!
//! A signaling sender installs, updates and eventually removes one piece of
//! state at a single remote receiver.  The life cycle is captured by an
//! eight-state continuous-time Markov chain; protocol differences show up
//! only as different transition rates (or disabled transitions).
//!
//! The module is split into:
//!
//! * [`states`] — the Markov states of Figure 3;
//! * [`transitions`] — the protocol-specific transition rates of Table I and
//!   the common transitions described in the surrounding text;
//! * [`model`] — assembling and solving the chain: the inconsistency ratio
//!   (Equation 1), the expected receiver-side lifetime, the message rates
//!   (Equations 3–7) and the normalized message rate (Equation 2);
//! * [`metrics`] — the per-message-type rate breakdown shared with reports.

pub mod metrics;
pub mod model;
pub mod states;
pub mod transitions;

pub use metrics::MessageRates;
pub use model::{ModelError, SingleHopModel, SingleHopSolution};
pub use states::SingleHopState;
pub use transitions::{protocol_transitions, protocol_transitions_into, RateTable};
