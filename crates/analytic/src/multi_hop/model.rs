//! Solving the multi-hop chain and extracting the paper's metrics
//! (Equations 12–17).

use super::states::MultiHopState;
use super::transitions::multi_hop_transitions;
use crate::params::MultiHopParams;
use crate::single_hop::model::ModelError;
use crate::spec::ProtocolSpec;
use ctmc::CtmcBuilder;
use std::collections::HashMap;

/// Per-message-class rates of the multi-hop model, measured in *hop
/// transmissions* per second (a refresh that travels 10 hops counts as 10
/// transmissions), matching the paper's message-overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MultiHopMessageRates {
    /// Trigger (update) hop transmissions.
    pub trigger: f64,
    /// Refresh hop transmissions (Equation 14's expected per-refresh hop
    /// count times the refresh frequency).
    pub refresh: f64,
    /// Hop-by-hop retransmissions of lost triggers.
    pub retransmission: f64,
    /// Hop-by-hop acknowledgments.
    pub ack: f64,
    /// Recovery traffic after a false external signal (HS only).
    pub recovery: f64,
}

impl MultiHopMessageRates {
    /// Total hop-transmission rate.
    pub fn total(&self) -> f64 {
        self.trigger + self.refresh + self.retransmission + self.ack + self.recovery
    }
}

/// The solved multi-hop model for one protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopSolution {
    /// The protocol.
    pub protocol: ProtocolSpec,
    /// Parameters the model was solved under.
    pub params: MultiHopParams,
    /// End-to-end inconsistency ratio `I = 1 − π_(K,Fast)` (Equation 12):
    /// the fraction of time at least one hop disagrees with the sender.
    pub inconsistency: f64,
    /// Fraction of time hop `h` (1-indexed; index 0 of the vector is hop 1)
    /// is inconsistent — Figure 17.
    pub per_hop_inconsistency: Vec<f64>,
    /// Message-rate breakdown (hop transmissions per second).
    pub message_rates: MultiHopMessageRates,
    /// Total signaling message rate (Equations 13, 16, 17).
    pub message_rate: f64,
    /// Stationary distribution over the chain's states.
    pub stationary: HashMap<MultiHopState, f64>,
}

impl MultiHopSolution {
    /// Stationary probability of a state (0 when the state does not exist for
    /// this protocol).
    pub fn stationary_probability(&self, state: MultiHopState) -> f64 {
        self.stationary.get(&state).copied().unwrap_or(0.0)
    }

    /// Fraction of time the given hop (1-indexed) is inconsistent.
    pub fn hop_inconsistency(&self, hop: usize) -> f64 {
        if hop == 0 || hop > self.per_hop_inconsistency.len() {
            return 0.0;
        }
        self.per_hop_inconsistency[hop - 1]
    }
}

/// The multi-hop analytic model: one protocol spec + one parameter set.
#[derive(Debug, Clone)]
pub struct MultiHopModel {
    protocol: ProtocolSpec,
    params: MultiHopParams,
}

impl MultiHopModel {
    /// Builds the model, validating the parameters and the protocol's
    /// mechanism composition.  The paper evaluates SS, SS+RT and HS in the
    /// multi-hop setting; the removal-oriented variants (SS+ER, SS+RTR) are
    /// accepted and behave like their base protocol because the multi-hop
    /// model contains no sender-side removal.  Any coherent [`ProtocolSpec`]
    /// is accepted.
    pub fn new(protocol: ProtocolSpec, params: MultiHopParams) -> Result<Self, ModelError> {
        protocol.validate().map_err(ModelError::InvalidSpec)?;
        params.validate().map_err(ModelError::InvalidParams)?;
        Ok(Self { protocol, params })
    }

    /// The protocol being modelled.
    pub fn protocol(&self) -> ProtocolSpec {
        self.protocol
    }

    /// The parameter set.
    pub fn params(&self) -> &MultiHopParams {
        &self.params
    }

    /// Solves the chain and computes every metric.
    pub fn solve(&self) -> Result<MultiHopSolution, ModelError> {
        let k = self.params.hops;
        let with_recovery = self.protocol.has_external_detector();

        let mut builder: CtmcBuilder<MultiHopState> = CtmcBuilder::new();
        for s in MultiHopState::enumerate(k, with_recovery) {
            builder.state(s);
        }
        for e in multi_hop_transitions(self.protocol, &self.params) {
            builder.transition(e.from, e.to, e.rate)?;
        }
        let chain = builder.build()?;
        let pi = chain.stationary_distribution()?;
        Ok(solution_from_stationary(
            self.protocol,
            self.params,
            builder.labels(),
            &pi,
        ))
    }
}

/// Expected number of hop transmissions of one end-to-end message
/// (Equation 14/15 interpretation): a message is transmitted on hop `j`
/// if it survived hops `1 .. j-1`, so the expectation is
/// `Σ_{j=1..K} (1−p_l)^(j−1) = (1 − (1−p_l)^K) / p_l` (or `K` when the
/// channel is loss free).  Shared with the sweep fast path.
pub(crate) fn expected_hops_per_message(params: &MultiHopParams) -> f64 {
    let k = params.hops as f64;
    let p = params.loss;
    if p <= 0.0 {
        k
    } else {
        (1.0 - (1.0 - p).powf(k)) / p
    }
}

/// Assembles every solution metric from the chain's stationary distribution
/// (`labels[i]` ↔ `pi[i]`).  Shared verbatim by [`MultiHopModel::solve`] and
/// the sweep fast path ([`crate::sweep::MultiHopSweepSession`]), so both
/// paths produce identical `MultiHopSolution`s.
pub(crate) fn solution_from_stationary(
    protocol: ProtocolSpec,
    params: MultiHopParams,
    labels: &[MultiHopState],
    pi: &[f64],
) -> MultiHopSolution {
    let k = params.hops;
    let mut stationary = HashMap::new();
    for (idx, label) in labels.iter().enumerate() {
        stationary.insert(*label, pi[idx]);
    }

    let fully = MultiHopState::fast(k);
    let inconsistency = 1.0 - stationary.get(&fully).copied().unwrap_or(0.0);

    // Summed in state-index order (not HashMap order), so repeated
    // solves produce bit-identical floating-point results.
    let per_hop_inconsistency = (1..=k)
        .map(|hop| {
            let consistent_mass: f64 = labels
                .iter()
                .zip(pi.iter())
                .filter(|(s, _)| s.hop_is_consistent(hop))
                .map(|(_, p)| *p)
                .sum();
            (1.0 - consistent_mass).clamp(0.0, 1.0)
        })
        .collect();

    let message_rates = message_rates_from(protocol, &params, labels, pi);
    MultiHopSolution {
        protocol,
        params,
        inconsistency: inconsistency.clamp(0.0, 1.0),
        per_hop_inconsistency,
        message_rate: message_rates.total(),
        message_rates,
        stationary,
    }
}

/// Message rates from the stationary distribution (Equations 13, 16, 17;
/// the OCR-damaged sub-terms are documented term by term here).
///
/// Takes the labelled probability vector (`labels[i]` ↔ `pi[i]`) rather
/// than the solution's `HashMap`, so the per-point hot path performs no
/// hashing; the state masses accumulate in label order, which — states being
/// enumerated fast `0..=K`, slow `0..K`, recovery — is exactly the `i` order
/// the historical `HashMap` lookups summed in, keeping every sum
/// bit-identical.
pub(crate) fn message_rates_from(
    protocol: ProtocolSpec,
    p: &MultiHopParams,
    labels: &[MultiHopState],
    pi: &[f64],
) -> MultiHopMessageRates {
    let k = p.hops;
    let success = 1.0 - p.loss;

    let mut fast_mass = 0.0f64;
    let mut slow_mass = 0.0f64;
    let mut recovery_mass = 0.0f64;
    for (s, &prob) in labels.iter().zip(pi.iter()) {
        match s {
            // The fully consistent state (K, Fast) is not "in flight".
            MultiHopState::Progress {
                consistent,
                mode: super::states::PathMode::Fast,
            } if *consistent < k => fast_mass += prob,
            MultiHopState::Progress {
                consistent,
                mode: super::states::PathMode::Slow,
            } if *consistent < k => slow_mass += prob,
            MultiHopState::Recovery => recovery_mass += prob,
            _ => {}
        }
    }

    // A trigger is being transmitted on some hop whenever the chain is in
    // a fast-path state; each such sojourn lasts Δ on average.
    let trigger = fast_mass / p.delay;

    // The sender emits a refresh every T seconds as long as it holds
    // state (always, in this model); each refresh costs
    // `expected_hops_per_message()` hop transmissions.
    let refresh = if protocol.uses_refresh() {
        expected_hops_per_message(p) / p.refresh_timer
    } else {
        0.0
    };

    // Hop-by-hop retransmissions while stuck on the slow path (reliable
    // triggers, or reliable refreshes doing the same repair job).
    let retransmission = if protocol.retransmits_repairs() {
        slow_mass / p.retrans_timer
    } else {
        0.0
    };

    // One hop-by-hop ACK per successfully delivered message of the
    // acknowledged stream: triggers and retransmissions whenever any
    // retransmission machinery exists (trigger ACKs under reliable
    // triggers; the refresh loop acknowledges triggers too when they
    // have no ACKs of their own), plus one ACK per delivered refresh
    // hop under reliable refresh.
    let ack = {
        let mut acked_rate = 0.0;
        if protocol.retransmits_repairs() {
            acked_rate += fast_mass / p.delay + slow_mass / p.retrans_timer;
        }
        if protocol.reliable_refresh() {
            acked_rate += expected_hops_per_message(p) / p.refresh_timer;
        }
        success * acked_rate
    };

    // Recovery traffic: the receiver that saw the false signal notifies
    // the other K−1 receivers and the sender (≈ K messages per recovery).
    let recovery = if protocol.has_external_detector() {
        recovery_mass * (2.0 / (k as f64 * p.delay)) * k as f64
    } else {
        0.0
    };

    MultiHopMessageRates {
        trigger,
        refresh,
        retransmission,
        ack,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(protocol: ProtocolSpec) -> MultiHopSolution {
        MultiHopModel::new(protocol, MultiHopParams::reservation_defaults())
            .unwrap()
            .solve()
            .unwrap()
    }

    fn solve_with(protocol: ProtocolSpec, params: MultiHopParams) -> MultiHopSolution {
        MultiHopModel::new(protocol, params)
            .unwrap()
            .solve()
            .unwrap()
    }

    #[test]
    fn stationary_distribution_is_a_distribution() {
        for proto in ProtocolSpec::PAPER_MULTI_HOP {
            let s = solve(proto);
            let sum: f64 = s.stationary.values().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{proto}");
            assert!(s.stationary.values().all(|p| *p >= -1e-12));
        }
    }

    #[test]
    fn per_hop_inconsistency_grows_with_hop_index() {
        // Figure 17: nodes farther from the sender are inconsistent a larger
        // fraction of the time, roughly linearly.
        for proto in ProtocolSpec::PAPER_MULTI_HOP {
            let s = solve(proto);
            assert_eq!(s.per_hop_inconsistency.len(), 20);
            for w in s.per_hop_inconsistency.windows(2) {
                assert!(
                    w[1] + 1e-12 >= w[0],
                    "{proto}: per-hop inconsistency must be non-decreasing ({w:?})"
                );
            }
            // Hop 20 is noticeably worse than hop 1.
            assert!(s.per_hop_inconsistency[19] > 2.0 * s.per_hop_inconsistency[0]);
        }
    }

    #[test]
    fn last_hop_inconsistency_equals_end_to_end() {
        // Hop K is consistent only in the fully consistent state, so its
        // inconsistency equals 1 − π_(K,0)... except for slow states with
        // K consistent hops, which do not exist.  The identity is exact.
        for proto in ProtocolSpec::PAPER_MULTI_HOP {
            let s = solve(proto);
            let last = *s.per_hop_inconsistency.last().unwrap();
            assert!((last - s.inconsistency).abs() < 1e-9, "{proto}");
            assert_eq!(s.hop_inconsistency(20), last);
            assert_eq!(s.hop_inconsistency(0), 0.0);
            assert_eq!(s.hop_inconsistency(21), 0.0);
        }
    }

    #[test]
    fn protocol_ordering_matches_figure_17() {
        // SS is the most inconsistent; SS+RT is close to HS; HS is best.
        let ss = solve(ProtocolSpec::SS);
        let ss_rt = solve(ProtocolSpec::SS_RT);
        let hs = solve(ProtocolSpec::HS);
        assert!(ss.inconsistency > ss_rt.inconsistency);
        assert!(ss_rt.inconsistency >= hs.inconsistency);
        // SS+RT is within a small factor of HS (the paper calls them
        // comparable).
        assert!(ss_rt.inconsistency < 2.0 * hs.inconsistency);
        // And per hop the same ordering holds at the far end.
        assert!(ss.per_hop_inconsistency[19] > ss_rt.per_hop_inconsistency[19]);
        assert!(ss_rt.per_hop_inconsistency[19] >= hs.per_hop_inconsistency[19]);
    }

    #[test]
    fn inconsistency_and_overhead_grow_with_hop_count() {
        // Figure 18: both metrics increase monotonically with K; SS is the
        // most sensitive to the number of hops.
        for proto in ProtocolSpec::PAPER_MULTI_HOP {
            let small = solve_with(proto, MultiHopParams::reservation_defaults().with_hops(2));
            let large = solve_with(proto, MultiHopParams::reservation_defaults().with_hops(20));
            assert!(large.inconsistency > small.inconsistency, "{proto}");
            assert!(large.message_rate > small.message_rate, "{proto}");
        }
        let ss_growth = solve_with(
            ProtocolSpec::SS,
            MultiHopParams::reservation_defaults().with_hops(20),
        )
        .inconsistency
            / solve_with(
                ProtocolSpec::SS,
                MultiHopParams::reservation_defaults().with_hops(2),
            )
            .inconsistency;
        let hs_growth = solve_with(
            ProtocolSpec::HS,
            MultiHopParams::reservation_defaults().with_hops(20),
        )
        .inconsistency
            / solve_with(
                ProtocolSpec::HS,
                MultiHopParams::reservation_defaults().with_hops(2),
            )
            .inconsistency;
        assert!(
            ss_growth > hs_growth,
            "SS ({ss_growth}x) should degrade faster with hops than HS ({hs_growth}x)"
        );
    }

    #[test]
    fn reliable_triggers_add_little_overhead_in_multi_hop() {
        // Figure 18(b): SS+RT ≈ SS in message rate (refreshes dominate),
        // while HS is far cheaper because it has no refreshes.
        let ss = solve(ProtocolSpec::SS);
        let ss_rt = solve(ProtocolSpec::SS_RT);
        let hs = solve(ProtocolSpec::HS);
        assert!(ss_rt.message_rate < 1.5 * ss.message_rate);
        assert!(hs.message_rate < 0.5 * ss.message_rate);
        assert!(ss.message_rates.refresh > 0.5 * ss.message_rate);
        assert_eq!(hs.message_rates.refresh, 0.0);
    }

    #[test]
    fn expected_hops_per_message() {
        let p = MultiHopParams::reservation_defaults();
        let e = super::expected_hops_per_message(&p);
        let expected = (1.0 - (1.0 - p.loss).powf(20.0)) / p.loss;
        assert!((e - expected).abs() < 1e-12);
        // Loss-free channel: exactly K hops.
        let mut lossless = MultiHopParams::reservation_defaults();
        lossless.loss = 0.0;
        assert_eq!(super::expected_hops_per_message(&lossless), 20.0);
    }

    #[test]
    fn refresh_timer_tradeoff_for_ss() {
        // Figure 19(a): a very small refresh timer hurts SS (state times out
        // against its own refresh traffic? no — tiny T floods but helps);
        // in our model smaller T always repairs faster, so inconsistency
        // decreases, while the message rate explodes (Figure 19(b)).
        let fast = solve_with(
            ProtocolSpec::SS,
            MultiHopParams::reservation_defaults().with_refresh_timer_scaled_timeout(1.0),
        );
        let slow = solve_with(
            ProtocolSpec::SS,
            MultiHopParams::reservation_defaults().with_refresh_timer_scaled_timeout(50.0),
        );
        assert!(fast.inconsistency < slow.inconsistency);
        assert!(fast.message_rate > 10.0 * slow.message_rate);
        // HS ignores the refresh timer.
        let hs_fast = solve_with(
            ProtocolSpec::HS,
            MultiHopParams::reservation_defaults().with_refresh_timer_scaled_timeout(1.0),
        );
        let hs_slow = solve_with(
            ProtocolSpec::HS,
            MultiHopParams::reservation_defaults().with_refresh_timer_scaled_timeout(50.0),
        );
        assert!((hs_fast.inconsistency - hs_slow.inconsistency).abs() < 1e-12);
        assert!((hs_fast.message_rate - hs_slow.message_rate).abs() < 1e-9);
    }

    #[test]
    fn solve_all_returns_three_protocols() {
        let labels: Vec<&str> = ProtocolSpec::PAPER_MULTI_HOP
            .iter()
            .map(|p| solve(*p).protocol.label())
            .collect();
        assert_eq!(labels, vec!["SS", "SS+RT", "HS"]);
    }

    #[test]
    fn single_hop_degenerate_case_works() {
        let p = MultiHopParams::reservation_defaults().with_hops(1);
        for proto in ProtocolSpec::PAPER_MULTI_HOP {
            let s = solve_with(proto, p);
            assert_eq!(s.per_hop_inconsistency.len(), 1);
            assert!((0.0..=1.0).contains(&s.inconsistency));
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let p = MultiHopParams::reservation_defaults().with_hops(0);
        assert!(MultiHopModel::new(ProtocolSpec::SS, p).is_err());
    }

    #[test]
    fn recovery_state_only_for_hard_state() {
        let hs = solve(ProtocolSpec::HS);
        assert!(hs.stationary.contains_key(&MultiHopState::Recovery));
        let ss = solve(ProtocolSpec::SS);
        assert!(!ss.stationary.contains_key(&MultiHopState::Recovery));
        assert_eq!(ss.stationary_probability(MultiHopState::Recovery), 0.0);
    }
}
