//! `simcore` — a small, deterministic discrete-event simulation engine.
//!
//! The engine is the substrate under the signaling-protocol simulator used to
//! validate the paper's analytic models (Figures 11, 12 and the agreement
//! tests).  It is intentionally minimal and synchronous:
//!
//! * [`time::SimTime`] — virtual time as seconds in an `f64` newtype with a
//!   total order;
//! * [`queue::EventQueue`] — the future event list: a slab arena of event
//!   slots ordered by `(time, sequence)` keys in one of two interchangeable
//!   cores ([`queue::QueueKind`]: implicit 4-ary min-heap, or a calendar
//!   queue for very large pending backlogs), with stable FIFO ordering for
//!   simultaneous events, O(1) generation-tagged cancellation, and FIFO
//!   [`queue::Lane`]s that order fixed-interval timers in O(1);
//! * [`rng::SimRng`] — a seedable deterministic random number generator with
//!   the handful of samplers the protocols need (exponential, Bernoulli,
//!   uniform);
//! * [`dist::Dist`] — deterministic vs. exponential duration distributions,
//!   matching the paper's "deterministic timers in practice, exponential
//!   timers in the model" comparison;
//! * [`timer::Timer`] — a restartable one-shot timer built on top of event
//!   cancellation (refresh timers, state-timeout timers, retransmission
//!   timers);
//! * [`trace::Trace`] — an optional event trace for debugging and for the
//!   example binaries.
//!
//! The engine is single-threaded; campaigns of independent replications are
//! parallelized one level up through [`runner::ReplicationEngine`] — the
//! single implementation of replication fan-out shared by the campaign and
//! sweep layers (each replication owns its own `EventQueue`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod calendar;
pub mod dist;
mod lanes;
pub mod queue;
pub mod rng;
pub mod runner;
pub mod time;
pub mod timer;
pub mod trace;

pub use dist::{Dist, TimerMode};
pub use queue::{
    EventId, EventQueue, Lane, PackedEvent, PackedQueue, QueueKind, ScheduledEvent, SequencedEvent,
};
pub use rng::SimRng;
pub use runner::{ExecutionPolicy, Replicate, ReplicationEngine};
pub use time::SimTime;
pub use timer::Timer;
pub use trace::{Trace, TraceEntry};
