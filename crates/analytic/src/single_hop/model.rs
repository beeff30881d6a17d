//! Solving the single-hop chain and extracting the paper's metrics.

use super::metrics::MessageRates;
use super::states::SingleHopState;
use super::transitions::{protocol_transitions, RateTable};
use crate::params::{ConfigError, SingleHopParams};
use crate::spec::{ProtocolSpec, SpecError};
use ctmc::{CtmcBuilder, CtmcError};
use std::collections::HashMap;
use std::fmt;

/// Errors produced while building or solving an analytic model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The parameter set failed validation.
    InvalidParams(ConfigError),
    /// The protocol's mechanism composition is incoherent.
    InvalidSpec(SpecError),
    /// The underlying Markov-chain machinery failed (singular system, ...).
    Chain(CtmcError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            ModelError::InvalidSpec(e) => write!(f, "invalid protocol spec: {e}"),
            ModelError::Chain(e) => write!(f, "chain error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<CtmcError> for ModelError {
    fn from(e: CtmcError) -> Self {
        ModelError::Chain(e)
    }
}

/// The solved single-hop model of one protocol under one parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleHopSolution {
    /// The protocol.
    pub protocol: ProtocolSpec,
    /// The parameters the model was solved under.
    pub params: SingleHopParams,
    /// Inconsistency ratio `I` (Equation 1): fraction of time the sender and
    /// receiver state values differ, over the receiver-side state lifetime.
    pub inconsistency: f64,
    /// Expected receiver-side state lifetime `L` (mean time from session
    /// start until state is removed from both ends).
    pub expected_lifetime: f64,
    /// Per-message-type mean rates (Equations 3–7).
    pub message_rates: MessageRates,
    /// Overall mean message rate `m = Σ` components (messages/second).
    pub message_rate: f64,
    /// Normalized average signaling message rate `M = Λ·λ_r = L·m·λ_r`
    /// (Equation 2) — messages per second of *sender* lifetime, the
    /// normalization that makes protocols with different receiver-side
    /// lifetimes comparable.
    pub normalized_message_rate: f64,
    /// Stationary probabilities of the merged recurrent chain, keyed by
    /// state.
    pub stationary: HashMap<SingleHopState, f64>,
}

impl SingleHopSolution {
    /// Stationary probability of one state (0 for states the protocol's chain
    /// does not contain).
    pub fn stationary_probability(&self, state: SingleHopState) -> f64 {
        self.stationary.get(&state).copied().unwrap_or(0.0)
    }

    /// Integrated cost `C = w·I + M` (Equation 8).
    pub fn integrated_cost(&self, inconsistency_weight: f64) -> f64 {
        inconsistency_weight * self.inconsistency + self.normalized_message_rate
    }
}

/// The single-hop analytic model: one protocol spec + one parameter set.
#[derive(Debug, Clone)]
pub struct SingleHopModel {
    protocol: ProtocolSpec,
    params: SingleHopParams,
    table: RateTable,
}

impl SingleHopModel {
    /// Builds the model, validating the parameters and the protocol's
    /// mechanism composition.
    pub fn new(protocol: ProtocolSpec, params: SingleHopParams) -> Result<Self, ModelError> {
        protocol.validate().map_err(ModelError::InvalidSpec)?;
        params.validate().map_err(ModelError::InvalidParams)?;
        let table = protocol_transitions(protocol, &params);
        Ok(Self {
            protocol,
            params,
            table,
        })
    }

    /// The protocol being modelled.
    pub fn protocol(&self) -> ProtocolSpec {
        self.protocol
    }

    /// The parameters the model was built with.
    pub fn params(&self) -> &SingleHopParams {
        &self.params
    }

    /// The protocol-specific transition table (Table I instantiation).
    pub fn rate_table(&self) -> &RateTable {
        &self.table
    }

    /// Solves the chain and computes every metric.
    pub fn solve(&self) -> Result<SingleHopSolution, ModelError> {
        let pi = self.stationary_merged()?;
        let lifetime = self.expected_lifetime()?;
        Ok(assemble_solution(
            self.protocol,
            self.params,
            &self.table,
            pi,
            lifetime,
        ))
    }

    /// Stationary distribution of the *merged* recurrent chain, in which the
    /// absorbing `(0,0)` state is identified with the initial `(1,0)₁` state
    /// (the paper's construction for Equation 1: when one session ends, the
    /// next begins).
    fn stationary_merged(&self) -> Result<HashMap<SingleHopState, f64>, ModelError> {
        let mut builder: CtmcBuilder<SingleHopState> = CtmcBuilder::new();
        // Keep a deterministic state order: insert in canonical order first,
        // restricted to states the protocol actually uses.
        for s in SingleHopState::ALL {
            if s == SingleHopState::Absorbed {
                continue;
            }
            if self.state_is_used(s) {
                builder.state(s);
            }
        }
        for e in &self.table.entries {
            let to = if e.to == SingleHopState::Absorbed {
                SingleHopState::Setup1
            } else {
                e.to
            };
            builder.transition(e.from, to, e.rate)?;
        }
        let chain = builder.build()?;
        let pi = chain.stationary_distribution()?;
        let mut map = HashMap::new();
        for (idx, label) in builder.labels().iter().enumerate() {
            map.insert(*label, pi[idx]);
        }
        Ok(map)
    }

    /// Expected receiver-side state lifetime `L`: the mean time to absorption
    /// from `(1,0)₁` in the transient (non-merged) chain.
    pub fn expected_lifetime(&self) -> Result<f64, ModelError> {
        let mut builder: CtmcBuilder<SingleHopState> = CtmcBuilder::new();
        for s in SingleHopState::ALL {
            if self.state_is_used(s) || s == SingleHopState::Absorbed {
                builder.state(s);
            }
        }
        for e in &self.table.entries {
            builder.transition(e.from, e.to, e.rate)?;
        }
        let chain = builder.build()?;
        let absorbed_idx = builder
            .index_of(&SingleHopState::Absorbed)
            // sigtidy: allow(no-unwrap) — every state was registered on this builder above
            .expect("absorbed state present");
        let start_idx = builder
            .index_of(&SingleHopState::Setup1)
            // sigtidy: allow(no-unwrap) — every state was registered on this builder above
            .expect("setup state present");
        let times = chain.mean_time_to_absorption(&[absorbed_idx])?;
        Ok(times[start_idx])
    }

    fn state_is_used(&self, s: SingleHopState) -> bool {
        if s == SingleHopState::Setup1 {
            return true;
        }
        self.table.entries.iter().any(|e| e.from == s || e.to == s)
    }
}

/// Assembles every solution metric from a solved merged-chain distribution
/// and the expected lifetime.  Shared verbatim by [`SingleHopModel::solve`]
/// and the sweep fast path ([`crate::sweep::SingleHopSweepSession`]), which
/// is what makes the two paths produce identical `SingleHopSolution`s.
pub(crate) fn assemble_solution(
    protocol: ProtocolSpec,
    params: SingleHopParams,
    table: &RateTable,
    stationary: HashMap<SingleHopState, f64>,
    lifetime: f64,
) -> SingleHopSolution {
    // One dense probability array up front (missing states are 0, exactly
    // like the historical per-lookup `unwrap_or(0.0)`), so the metric
    // formulas below do no hashing.
    let mut probs = [0.0f64; 8];
    for (slot, s) in SingleHopState::ALL.iter().enumerate() {
        probs[slot] = stationary.get(s).copied().unwrap_or(0.0);
    }
    let inconsistency = inconsistency_from(&probs);
    let message_rates = message_rates_from(protocol, &params, table, &probs);
    let message_rate = message_rates.total();
    let normalized = lifetime * message_rate * params.removal_rate;
    SingleHopSolution {
        protocol,
        params,
        inconsistency,
        expected_lifetime: lifetime,
        message_rates,
        message_rate,
        normalized_message_rate: normalized,
        stationary,
    }
}

/// Inconsistency ratio `I` (Equation 1) from the merged chain's stationary
/// distribution (as a dense by-[`canonical_index`] array).
///
/// [`canonical_index`]: SingleHopState::canonical_index
pub(crate) fn inconsistency_from(pi: &[f64; 8]) -> f64 {
    1.0 - pi[SingleHopState::Consistent.canonical_index()]
}

/// Message-rate components (Equations 3–7), evaluated on the merged
/// chain's stationary distribution.
///
/// Interpretation of the OCR-damaged terms (documented in DESIGN.md):
///
/// * the acknowledgment part of `m_RT` counts one ACK per successfully
///   delivered trigger — fast-path deliveries at rate `(1−p_l)/Δ` from
///   `(1,0)₁`/`IC₁` and retransmission deliveries at rate `(1−p_l)/R`
///   from `(1,0)₂`/`IC₂`;
/// * the notification part of `m_RT` is `λ_f·(π_C + π_IC₂)` — the
///   receiver tells the sender whenever it (falsely) removes state;
/// * `m_RR` counts removal retransmissions at rate `1/R` from `(0,1)₂`
///   plus one ACK per completed removal.
pub(crate) fn message_rates_from(
    protocol: ProtocolSpec,
    p: &SingleHopParams,
    table: &RateTable,
    pi: &[f64; 8],
) -> MessageRates {
    use SingleHopState::*;
    let get = |s: SingleHopState| pi[s.canonical_index()];
    let success = 1.0 - p.loss;

    // Eq. (3): every sojourn in a fast-path state emits one trigger.
    let trigger = (get(Setup1) + get(Diff1)) / p.delay;

    // Eq. (5): refreshes are emitted while the sender holds state and no
    // trigger is in flight.
    let refresh = if protocol.uses_refresh() {
        (get(Setup2) + get(Consistent) + get(Diff2)) / p.refresh_timer
    } else {
        0.0
    };

    // Eq. (4): explicit removal messages.
    let explicit_removal = if protocol.uses_explicit_removal() {
        get(Removing1) * (table.rate(Removing1, Absorbed) + table.rate(Removing1, Removing2))
    } else {
        0.0
    };

    // Eq. (6): reliable-trigger extra traffic.  This component also
    // carries the false-removal notification stream (Eq. 6's last
    // term), which any notifying spec emits — with or without reliable
    // triggers (every notifying paper preset happens to have both).
    let reliable_trigger_extra = if protocol.reliable_triggers() {
        let retransmissions = (get(Setup2) + get(Diff2)) / p.retrans_timer;
        let acks = success / p.delay * (get(Setup1) + get(Diff1))
            + success / p.retrans_timer * (get(Setup2) + get(Diff2));
        let false_removal_rate = super::transitions::false_removal_rate(protocol, p);
        let notifications = if protocol.notifies_on_removal() {
            false_removal_rate * (get(Consistent) + get(Diff2))
        } else {
            0.0
        };
        retransmissions + acks + notifications
    } else if protocol.notifies_on_removal() {
        let false_removal_rate = super::transitions::false_removal_rate(protocol, p);
        false_removal_rate * (get(Consistent) + get(Diff2))
    } else {
        0.0
    };

    // Eq. (7): reliable-removal extra traffic.
    let reliable_removal_extra = if protocol.reliable_removal() {
        get(Removing2) / p.retrans_timer
            + get(Removing1) * table.rate(Removing1, Absorbed)
            + get(Removing2) * table.rate(Removing2, Absorbed)
    } else {
        0.0
    };

    // Reliable-refresh extra traffic (no paper preset uses this — it is
    // the mechanism-composition extension): one ACK per delivered
    // refresh, and — when triggers have no ACK machinery of their own,
    // so the refresh loop carries them — one ACK per delivered trigger
    // plus retransmissions while the receiver lags.  (With reliable
    // triggers those last two streams are already billed by Eq. 6.)
    let reliable_refresh_extra = if protocol.reliable_refresh() {
        let refresh_acks = success / p.refresh_timer * (get(Setup2) + get(Consistent) + get(Diff2));
        if protocol.reliable_triggers() {
            refresh_acks
        } else {
            let trigger_acks = success / p.delay * (get(Setup1) + get(Diff1));
            let retransmissions = (get(Setup2) + get(Diff2)) / p.retrans_timer;
            // Delivered retransmissions are acknowledged too (the same
            // `success/R` ACK stream Eq. 6 bills for reliable triggers).
            let retrans_acks = success / p.retrans_timer * (get(Setup2) + get(Diff2));
            refresh_acks + trigger_acks + retransmissions + retrans_acks
        }
    } else {
        0.0
    };

    MessageRates {
        trigger,
        refresh,
        explicit_removal,
        reliable_trigger_extra,
        reliable_removal_extra,
        reliable_refresh_extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(protocol: ProtocolSpec) -> SingleHopSolution {
        SingleHopModel::new(protocol, SingleHopParams::kazaa_defaults())
            .unwrap()
            .solve()
            .unwrap()
    }

    fn solve_with(protocol: ProtocolSpec, params: SingleHopParams) -> SingleHopSolution {
        SingleHopModel::new(protocol, params)
            .unwrap()
            .solve()
            .unwrap()
    }

    #[test]
    fn stationary_probabilities_sum_to_one() {
        for proto in ProtocolSpec::PAPER {
            let s = solve(proto);
            let sum: f64 = s.stationary.values().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{proto}: sum = {sum}");
            assert!(s.stationary.values().all(|p| *p >= -1e-12));
        }
    }

    #[test]
    fn inconsistency_is_a_probability() {
        for proto in ProtocolSpec::PAPER {
            let s = solve(proto);
            assert!(
                (0.0..=1.0).contains(&s.inconsistency),
                "{proto}: I = {}",
                s.inconsistency
            );
        }
    }

    #[test]
    fn default_ordering_matches_paper_figure_four() {
        // At the Kazaa defaults (session ≈ 1800 s) the paper finds
        // SS worst, SS+ER a large improvement, SS+RTR ≈ HS best.
        let ss = solve(ProtocolSpec::SS).inconsistency;
        let ss_er = solve(ProtocolSpec::SS_ER).inconsistency;
        let ss_rt = solve(ProtocolSpec::SS_RT).inconsistency;
        let ss_rtr = solve(ProtocolSpec::SS_RTR).inconsistency;
        let hs = solve(ProtocolSpec::HS).inconsistency;
        assert!(ss_er < ss, "SS+ER ({ss_er}) should beat SS ({ss})");
        assert!(ss_rt < ss, "SS+RT ({ss_rt}) should beat SS ({ss})");
        assert!(
            ss_rtr < ss_er,
            "SS+RTR ({ss_rtr}) should beat SS+ER ({ss_er})"
        );
        assert!(hs < ss_er, "HS ({hs}) should beat SS+ER ({ss_er})");
        // SS+RTR and HS are within a small factor of each other.
        assert!(
            ss_rtr < hs * 3.0 && hs < ss_rtr * 3.0,
            "SS+RTR {ss_rtr} vs HS {hs}"
        );
    }

    #[test]
    fn explicit_removal_adds_negligible_overhead_for_long_sessions() {
        // The paper's headline: SS+ER greatly improves consistency over SS at
        // almost no extra signaling cost for sessions of ~1000s of seconds.
        let ss = solve(ProtocolSpec::SS);
        let ss_er = solve(ProtocolSpec::SS_ER);
        assert!(ss_er.inconsistency < 0.5 * ss.inconsistency);
        let overhead = (ss_er.normalized_message_rate - ss.normalized_message_rate)
            / ss.normalized_message_rate;
        assert!(overhead < 0.02, "relative extra overhead = {overhead}");
    }

    #[test]
    fn hard_state_has_lowest_message_rate() {
        let rates: Vec<(ProtocolSpec, f64)> = ProtocolSpec::PAPER
            .iter()
            .map(|p| (*p, solve(*p).normalized_message_rate))
            .collect();
        let hs = rates
            .iter()
            .find(|(p, _)| *p == ProtocolSpec::HS)
            .unwrap()
            .1;
        for (p, r) in &rates {
            if *p != ProtocolSpec::HS {
                assert!(hs < *r, "HS ({hs}) should be below {p} ({r})");
            }
        }
    }

    #[test]
    fn refresh_dominates_soft_state_message_rate() {
        let s = solve(ProtocolSpec::SS);
        assert!(s.message_rates.refresh_fraction() > 0.8);
        let hs = solve(ProtocolSpec::HS);
        assert_eq!(hs.message_rates.refresh, 0.0);
    }

    #[test]
    fn expected_lifetime_exceeds_sender_lifetime_for_soft_state() {
        // Receiver keeps orphaned state for about one timeout after the
        // sender departs under SS, and only ~Δ longer under the explicit
        // removal protocols.
        let params = SingleHopParams::kazaa_defaults();
        let ss = solve(ProtocolSpec::SS);
        let ss_er = solve(ProtocolSpec::SS_ER);
        let sender = params.mean_lifetime();
        assert!(ss.expected_lifetime > sender + 0.5 * params.timeout_timer);
        assert!(ss_er.expected_lifetime < sender + params.timeout_timer);
        assert!(ss_er.expected_lifetime > sender);
    }

    #[test]
    fn shorter_sessions_mean_more_inconsistency_and_overhead() {
        // Figure 4: both metrics decrease as the session length grows.
        for proto in ProtocolSpec::PAPER {
            let short = solve_with(
                proto,
                SingleHopParams::kazaa_defaults().with_mean_lifetime(30.0),
            );
            let long = solve_with(
                proto,
                SingleHopParams::kazaa_defaults().with_mean_lifetime(10_000.0),
            );
            assert!(
                short.inconsistency > long.inconsistency,
                "{proto}: {} !> {}",
                short.inconsistency,
                long.inconsistency
            );
            assert!(
                short.normalized_message_rate > long.normalized_message_rate,
                "{proto}"
            );
        }
    }

    #[test]
    fn short_sessions_group_by_removal_mechanism() {
        // Figure 4(a), left side: for short sessions the protocols group by
        // how state removal is performed, with SS and SS+RT (timeout removal)
        // far worse than the explicit-removal protocols.
        let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(30.0);
        let ss = solve_with(ProtocolSpec::SS, params).inconsistency;
        let ss_rt = solve_with(ProtocolSpec::SS_RT, params).inconsistency;
        let ss_er = solve_with(ProtocolSpec::SS_ER, params).inconsistency;
        let hs = solve_with(ProtocolSpec::HS, params).inconsistency;
        assert!(ss > 5.0 * ss_er);
        assert!(ss_rt > 5.0 * ss_er);
        assert!(
            (ss - ss_rt).abs() < 0.2 * ss,
            "SS ≈ SS+RT for short sessions"
        );
        assert!(ss_er > hs);
    }

    #[test]
    fn higher_loss_means_more_inconsistency() {
        for proto in ProtocolSpec::PAPER {
            let mut lossier = SingleHopParams::kazaa_defaults();
            lossier.loss = 0.25;
            let low = solve(proto).inconsistency;
            let high = solve_with(proto, lossier).inconsistency;
            assert!(high > low, "{proto}: {high} !> {low}");
        }
    }

    #[test]
    fn reliable_triggers_matter_more_under_loss() {
        // Figure 5(a): under heavy loss, SS+RT clearly beats SS.
        let mut lossy = SingleHopParams::kazaa_defaults();
        lossy.loss = 0.2;
        let ss = solve_with(ProtocolSpec::SS, lossy).inconsistency;
        let ss_rt = solve_with(ProtocolSpec::SS_RT, lossy).inconsistency;
        assert!(ss_rt < ss);
    }

    #[test]
    fn longer_delay_means_more_inconsistency() {
        for proto in ProtocolSpec::PAPER {
            let near = solve_with(
                proto,
                SingleHopParams::kazaa_defaults().with_delay_scaled_retrans(0.01),
            );
            let far = solve_with(
                proto,
                SingleHopParams::kazaa_defaults().with_delay_scaled_retrans(0.8),
            );
            assert!(far.inconsistency > near.inconsistency, "{proto}");
        }
    }

    #[test]
    fn timeout_shorter_than_refresh_collapses_soft_state() {
        // Figure 8(a): τ < T means refreshes arrive too late and state
        // flaps; soft-state protocols perform poorly.
        let mut bad = SingleHopParams::kazaa_defaults();
        bad.timeout_timer = 1.0; // refresh stays at 5 s
        let good = SingleHopParams::kazaa_defaults();
        for proto in [
            ProtocolSpec::SS,
            ProtocolSpec::SS_ER,
            ProtocolSpec::SS_RT,
            ProtocolSpec::SS_RTR,
        ] {
            let collapsed = solve_with(proto, bad).inconsistency;
            let healthy = solve_with(proto, good).inconsistency;
            // SS+RT both repairs false removals quickly (small penalty) and
            // loses the long orphan-timeout wait (a benefit), so its
            // degradation factor is smaller than for the other variants.
            let factor = if proto == ProtocolSpec::SS_RT {
                2.0
            } else {
                5.0
            };
            assert!(
                collapsed > factor * healthy,
                "{proto}: {collapsed} vs {healthy}"
            );
        }
        // HS has no timeout and is unaffected.
        let hs_bad = solve_with(ProtocolSpec::HS, bad).inconsistency;
        let hs_good = solve_with(ProtocolSpec::HS, good).inconsistency;
        assert!((hs_bad - hs_good).abs() < 1e-9);
    }

    #[test]
    fn smaller_refresh_timer_costs_more_messages() {
        // Figure 6(b): the soft-state message rate scales like 1/T.
        let fast = solve_with(
            ProtocolSpec::SS,
            SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(1.0),
        );
        let slow = solve_with(
            ProtocolSpec::SS,
            SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(20.0),
        );
        assert!(fast.normalized_message_rate > 5.0 * slow.normalized_message_rate);
        // HS ignores the refresh timer entirely.
        let hs_fast = solve_with(
            ProtocolSpec::HS,
            SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(1.0),
        );
        let hs_slow = solve_with(
            ProtocolSpec::HS,
            SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(20.0),
        );
        assert!((hs_fast.normalized_message_rate - hs_slow.normalized_message_rate).abs() < 1e-9);
        assert!((hs_fast.inconsistency - hs_slow.inconsistency).abs() < 1e-9);
    }

    #[test]
    fn message_rate_components_match_protocol_mechanisms() {
        let ss = solve(ProtocolSpec::SS).message_rates;
        assert_eq!(ss.explicit_removal, 0.0);
        assert_eq!(ss.reliable_trigger_extra, 0.0);
        assert_eq!(ss.reliable_removal_extra, 0.0);
        assert!(ss.refresh > 0.0 && ss.trigger > 0.0);

        let er = solve(ProtocolSpec::SS_ER).message_rates;
        assert!(er.explicit_removal > 0.0);
        assert_eq!(er.reliable_trigger_extra, 0.0);

        let rt = solve(ProtocolSpec::SS_RT).message_rates;
        assert!(rt.reliable_trigger_extra > 0.0);
        assert_eq!(rt.explicit_removal, 0.0);
        assert_eq!(rt.reliable_removal_extra, 0.0);

        let rtr = solve(ProtocolSpec::SS_RTR).message_rates;
        assert!(rtr.explicit_removal > 0.0);
        assert!(rtr.reliable_trigger_extra > 0.0);
        assert!(rtr.reliable_removal_extra > 0.0);

        let hs = solve(ProtocolSpec::HS).message_rates;
        assert_eq!(hs.refresh, 0.0);
        assert!(hs.trigger > 0.0);
        assert!(hs.reliable_trigger_extra > 0.0);
        assert!(hs.reliable_removal_extra > 0.0);
    }

    #[test]
    fn normalized_rate_is_lifetime_times_rate_times_removal_rate() {
        let s = solve(ProtocolSpec::SS_ER);
        let expected = s.expected_lifetime * s.message_rate * s.params.removal_rate;
        assert!((s.normalized_message_rate - expected).abs() < 1e-12);
    }

    #[test]
    fn integrated_cost_combines_both_metrics() {
        let s = solve(ProtocolSpec::SS);
        let c = s.integrated_cost(10.0);
        assert!((c - (10.0 * s.inconsistency + s.normalized_message_rate)).abs() < 1e-12);
        assert!(s.integrated_cost(0.0) < c);
    }

    #[test]
    fn solve_all_returns_five_solutions() {
        let all: Vec<SingleHopSolution> = ProtocolSpec::PAPER
            .iter()
            .map(|p| SingleHopModel::new(*p, SingleHopParams::kazaa_defaults()).unwrap())
            .map(|m| m.solve().unwrap())
            .collect();
        let labels: Vec<&str> = all.iter().map(|s| s.protocol.label()).collect();
        assert_eq!(labels, vec!["SS", "SS+ER", "SS+RT", "SS+RTR", "HS"]);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut bad = SingleHopParams::kazaa_defaults();
        bad.loss = 2.0;
        assert!(matches!(
            SingleHopModel::new(ProtocolSpec::SS, bad),
            Err(ModelError::InvalidParams(_))
        ));
    }

    #[test]
    fn zero_loss_drives_inconsistency_to_propagation_only() {
        // With a loss-free channel the only inconsistency left is the Δ it
        // takes setup/update/removal messages to propagate.
        let mut p = SingleHopParams::kazaa_defaults();
        p.loss = 0.0;
        for proto in ProtocolSpec::PAPER {
            let s = solve_with(proto, p);
            assert!(
                s.inconsistency < 0.01,
                "{proto}: I = {} should be tiny at zero loss",
                s.inconsistency
            );
        }
    }

    #[test]
    fn stationary_probability_of_missing_state_is_zero() {
        let s = solve(ProtocolSpec::SS);
        assert_eq!(s.stationary_probability(SingleHopState::Removing2), 0.0);
        assert!(s.stationary_probability(SingleHopState::Consistent) > 0.9);
    }
}
