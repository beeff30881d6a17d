//! Named application scenarios.
//!
//! A scenario bundles everything the analytic models, the simulator and the
//! experiment layer need to know about one application of signaling: a name,
//! a parameter set, the application-specific cost of inconsistency, and (for
//! simulations) an optional override of the loss process.
//!
//! Unlike the original closed enums, [`Scenario`] and [`MultiHopScenario`]
//! are plain structs: the paper's scenarios are constructors, and a new
//! application is a literal — no simulator sources need editing to add one.

use siganalytic::{ConfigError, MultiHopParams, SingleHopParams};
use signet::LossModel;

/// A named single-hop application scenario.
///
/// The three scenarios the paper discusses (Kazaa peer registration, IGMP
/// group membership, SIP registration) and two further ones (DNS cache
/// lease, BGP session keepalive) are listed by [`Scenario::builtins`].
/// A user-defined scenario is just a struct literal or
/// [`Scenario::new`] + builder calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name.
    pub name: String,
    /// The scenario's single-hop parameter set.
    pub params: SingleHopParams,
    /// The application-specific inconsistency weight `w` used in the
    /// integrated cost `C = w·I + M`: how many messages per second of wasted
    /// work one unit of inconsistency causes (fruitless peer contacts,
    /// unwanted multicast traffic, misdirected calls, blackholed routes).
    pub inconsistency_weight: f64,
    /// Optional override of the simulated loss process.  `None` uses the
    /// paper's independent Bernoulli loss with probability `params.loss`.
    pub loss_model: Option<LossModel>,
}

impl Scenario {
    /// A scenario with the given name and parameters, unit inconsistency
    /// weight and the default (Bernoulli) loss process.
    pub fn new(name: impl Into<String>, params: SingleHopParams) -> Self {
        Self {
            name: name.into(),
            params,
            inconsistency_weight: 1.0,
            loss_model: None,
        }
    }

    /// Sets the inconsistency weight `w`.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.inconsistency_weight = weight;
        self
    }

    /// Overrides the simulated loss process.
    pub fn with_loss_model(mut self, model: LossModel) -> Self {
        self.loss_model = Some(model);
        self
    }

    /// Validates the parameter set, the weight, and any loss-model override.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params.validate()?;
        if self.inconsistency_weight <= 0.0 {
            return Err(ConfigError::NonPositiveWeight(self.inconsistency_weight));
        }
        if let Some(model) = self.loss_model {
            let p = model.mean_loss();
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::LossModelMeanOutOfRange(p));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Built-in scenarios.
    // ------------------------------------------------------------------

    /// A Kazaa peer registers its shared-file list at a supernode; the state
    /// value is the file list, updates are new downloads, removal is the peer
    /// quitting.  The paper's default evaluation scenario.
    pub fn kazaa_peer() -> Self {
        Self::new(
            "Kazaa peer/supernode registration",
            SingleHopParams::kazaa_defaults(),
        )
        .with_weight(10.0)
    }

    /// An IGMP host joins a multicast group at its first-hop router: state is
    /// group membership, it is rarely updated, the LAN has low loss and
    /// sub-millisecond delay, and membership reports every ~60 s play the
    /// refresh role (τ ≈ 2.5 × T as in IGMPv2's defaults).
    fn igmp_membership() -> Self {
        let mut p = SingleHopParams::kazaa_defaults();
        p.loss = 0.001;
        p = p.with_delay_scaled_retrans(0.001);
        p = p
            .with_mean_lifetime(1200.0)
            .with_mean_update_interval(1.0e6); // membership rarely changes
        p.refresh_timer = 60.0;
        p.timeout_timer = 150.0;
        Self::new("IGMP group membership", p).with_weight(50.0)
    }

    /// A SIP user agent keeps a registration alive at its registrar over a
    /// wide-area path: long expiry interval, occasional contact updates.
    fn sip_registration() -> Self {
        let mut p = SingleHopParams::kazaa_defaults();
        p.loss = 0.01;
        p = p.with_delay_scaled_retrans(0.08);
        p = p
            .with_mean_lifetime(3600.0)
            .with_mean_update_interval(600.0);
        p.refresh_timer = 120.0;
        p.timeout_timer = 360.0;
        Self::new("SIP registration", p).with_weight(5.0)
    }

    /// A caching DNS resolver holds a record on lease from its authoritative
    /// server: the TTL plays the state-timeout role and re-resolution plays
    /// the refresh role.  Records change rarely but a stale entry misdirects
    /// every lookup it serves.
    pub fn dns_cache_lease() -> Self {
        let mut p = SingleHopParams::kazaa_defaults();
        p.loss = 0.01;
        p = p.with_delay_scaled_retrans(0.02);
        p = p
            .with_mean_lifetime(6.0 * 3600.0)
            .with_mean_update_interval(3600.0);
        p.refresh_timer = 300.0; // periodic re-resolution
        p.timeout_timer = 900.0; // TTL = 3 × refresh, the paper's convention
        Self::new("DNS cache lease", p).with_weight(20.0)
    }

    /// A BGP session kept alive by periodic KEEPALIVEs: the peer's routes are
    /// the state, route changes are the updates, and the hold timer (3 × the
    /// keepalive interval, BGP's default ratio) is the state timeout.  Losing
    /// the session blackholes traffic, so inconsistency is very expensive.
    pub fn bgp_session_keepalive() -> Self {
        let mut p = SingleHopParams::kazaa_defaults();
        p.loss = 0.005;
        p = p.with_delay_scaled_retrans(0.05);
        p = p
            .with_mean_lifetime(86_400.0)
            .with_mean_update_interval(300.0);
        p.refresh_timer = 60.0; // KEEPALIVE interval
        p.timeout_timer = 180.0; // hold timer = 3 × keepalive
        Self::new("BGP session keepalive", p).with_weight(100.0)
    }

    /// All built-in single-hop scenarios, paper scenarios first.
    pub fn builtins() -> Vec<Scenario> {
        vec![
            Scenario::kazaa_peer(),
            Scenario::igmp_membership(),
            Scenario::sip_registration(),
            Scenario::dns_cache_lease(),
            Scenario::bgp_session_keepalive(),
        ]
    }
}

/// A named multi-hop application scenario.
///
/// Like [`Scenario`], this is an open struct: the built-ins are constructors
/// and a user-defined path scenario is a literal.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopScenario {
    /// Human-readable name.
    pub name: String,
    /// The scenario's multi-hop parameter set.
    pub params: MultiHopParams,
}

impl MultiHopScenario {
    /// A scenario with the given name and parameters.
    pub fn new(name: impl Into<String>, params: MultiHopParams) -> Self {
        Self {
            name: name.into(),
            params,
        }
    }

    /// Validates the parameter set.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params.validate()
    }

    /// RSVP-style bandwidth reservation along a 20-hop path — the paper's
    /// multi-hop evaluation setting.
    pub fn bandwidth_reservation() -> Self {
        Self::new(
            "bandwidth reservation (paper default)",
            MultiHopParams::reservation_defaults(),
        )
    }

    /// A short enterprise path (5 hops) with very low loss.
    pub fn enterprise_path() -> Self {
        let mut p = MultiHopParams::reservation_defaults().with_hops(5);
        p.loss = 0.001;
        p.delay = 0.002;
        p.retrans_timer = 2.0 * p.delay;
        Self::new("enterprise path", p)
    }

    /// A long, lossy overlay path (30 hops, 5% per-hop loss) — a stress
    /// scenario beyond the paper's defaults.
    fn lossy_overlay() -> Self {
        let mut p = MultiHopParams::reservation_defaults().with_hops(30);
        p.loss = 0.05;
        p.delay = 0.05;
        p.retrans_timer = 2.0 * p.delay;
        Self::new("lossy overlay path", p)
    }

    /// All built-in multi-hop scenarios, the paper's first.
    pub fn builtins() -> Vec<MultiHopScenario> {
        vec![
            MultiHopScenario::bandwidth_reservation(),
            MultiHopScenario::enterprise_path(),
            MultiHopScenario::lossy_overlay(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_single_hop_scenarios_are_valid() {
        let builtins = Scenario::builtins();
        assert_eq!(builtins.len(), 5);
        for s in &builtins {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(s.inconsistency_weight > 0.0);
            assert!(!s.name.is_empty());
        }
    }

    #[test]
    fn all_multi_hop_scenarios_are_valid() {
        for s in MultiHopScenario::builtins() {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.name.is_empty());
        }
    }

    #[test]
    fn kazaa_scenario_matches_paper_defaults() {
        let s = Scenario::kazaa_peer();
        assert_eq!(s.params, SingleHopParams::kazaa_defaults());
        assert_eq!(s.inconsistency_weight, 10.0);
        assert_eq!(s.loss_model, None);
    }

    #[test]
    fn igmp_scenario_is_lan_like() {
        let p = Scenario::igmp_membership().params;
        assert!(p.delay < 0.01);
        assert!(p.loss < 0.01);
        assert!(p.refresh_timer >= 30.0);
        assert!(p.timeout_timer > p.refresh_timer);
    }

    #[test]
    fn new_scenarios_follow_their_protocols_conventions() {
        let dns = Scenario::dns_cache_lease();
        assert_eq!(dns.params.timeout_timer, 3.0 * dns.params.refresh_timer);
        let bgp = Scenario::bgp_session_keepalive();
        assert_eq!(bgp.params.refresh_timer, 60.0);
        assert_eq!(bgp.params.timeout_timer, 180.0);
        assert!(bgp.inconsistency_weight > dns.inconsistency_weight);
    }

    #[test]
    fn user_defined_scenario_composes() {
        let s = Scenario::new(
            "custom cache",
            SingleHopParams::kazaa_defaults().with_mean_lifetime(42.0),
        )
        .with_weight(3.0)
        .with_loss_model(LossModel::bernoulli(0.1));
        s.validate().unwrap();
        assert_eq!(s.params.mean_lifetime(), 42.0);
        assert_eq!(s.inconsistency_weight, 3.0);
        assert_eq!(s.loss_model, Some(LossModel::Bernoulli { p: 0.1 }));
        // Invalid weight and loss models are caught.
        assert_eq!(
            s.clone().with_weight(0.0).validate(),
            Err(ConfigError::NonPositiveWeight(0.0))
        );
    }

    #[test]
    fn reservation_scenario_matches_paper_defaults() {
        assert_eq!(
            MultiHopScenario::bandwidth_reservation().params,
            MultiHopParams::reservation_defaults()
        );
        assert_eq!(MultiHopScenario::lossy_overlay().params.hops, 30);
    }
}
