//! `sigworkload` — workload scenarios and parameter sweeps.
//!
//! The paper motivates its parameter choices with concrete applications: a
//! Kazaa peer registering shared files at its supernode (single hop), an IGMP
//! host joining a multicast group at its first-hop router (single hop), and a
//! bandwidth reservation along a path of routers (multi hop).  This crate
//! packages those scenarios as named, *open* presets — [`Scenario`] and
//! [`MultiHopScenario`] are plain structs, so user-defined applications are
//! struct literals, not new enum variants — and provides the parameter
//! sweeps every figure of the evaluation is built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;
pub mod sweep;

pub use scenario::{MultiHopScenario, Scenario};
pub use sweep::Sweep;
