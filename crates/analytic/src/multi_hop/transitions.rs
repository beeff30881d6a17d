//! Transition rates of the multi-hop chain (paper Section III-B.1,
//! Equations 9–11, Figures 15–16).

use super::states::MultiHopState;
use crate::params::MultiHopParams;
use crate::spec::ProtocolSpec;

/// One multi-hop transition and its rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiHopRateEntry {
    /// Source state.
    pub from: MultiHopState,
    /// Destination state.
    pub to: MultiHopState,
    /// Transition rate (per second).
    pub rate: f64,
}

/// Slow-path repair rate: the rate at which the system moves from
/// `(i, Slow)` to `(i+1, Fast)`, i.e. the node after hop `i+1` finally
/// receives the state (Equations 9 `(i−1,1)→(i,0)` for SS, 10 for SS+RT, 11
/// for HS).  `next_hop` is `i + 1` (1-indexed hop being repaired).
pub fn slow_repair_rate(spec: ProtocolSpec, p: &MultiHopParams, next_hop: usize) -> f64 {
    let survive_from_sender = p.survival(next_hop);
    let survive_one = 1.0 - p.loss;
    // A refresh generated by the sender must survive `next_hop` hops;
    // hop-by-hop retransmission (reliable triggers or reliable refreshes)
    // only needs to survive one hop.
    match (spec.uses_refresh(), spec.retransmits_repairs()) {
        (true, true) => survive_from_sender / p.refresh_timer + survive_one / p.retrans_timer,
        (true, false) => survive_from_sender / p.refresh_timer,
        (false, true) => survive_one / p.retrans_timer,
        (false, false) => 0.0,
    }
}

/// Timeout-cascade rate (Equation 9): from a state with `consistent ≥ 1`
/// hops, the rate at which the first state timeout happens at hop `j + 1`
/// (1-indexed receiver `j + 1`), leaving only `j` consistent hops.
///
/// `(1 − (1−p_l)^(j+1))^(τ/T) − (1 − (1−p_l)^j)^(τ/T)` approximates the
/// probability that every refresh within one timeout interval failed to reach
/// hop `j + 1` but at least one reached hop `j`; dividing by `τ` turns it
/// into a rate.  The exponent generalises to `τ / attempt_interval`:
/// best-effort refreshes attempt once per refresh interval `T`, reliable
/// refreshes retry every retransmission interval `R`.
pub fn timeout_cascade_rate_with_interval(
    p: &MultiHopParams,
    attempt_interval: f64,
    remaining_consistent: usize,
) -> f64 {
    if p.timeout_timer <= 0.0 || attempt_interval <= 0.0 {
        return 0.0;
    }
    let exponent = p.timeout_timer / attempt_interval;
    let j = remaining_consistent;
    let fail_up_to = |hops: usize| -> f64 { (1.0 - p.survival(hops)).max(0.0).powf(exponent) };
    ((fail_up_to(j + 1) - fail_up_to(j)) / p.timeout_timer).max(0.0)
}

/// The delivery-attempt interval behind the timeout-cascade exponent:
/// best-effort refreshes attempt once per refresh interval `T`; reliable
/// refreshes also retry every retransmission interval `R`, so attempts
/// arrive at the faster of the two.
pub fn multi_hop_attempt_interval(protocol: ProtocolSpec, p: &MultiHopParams) -> f64 {
    if protocol.reliable_refresh() {
        p.refresh_timer.min(p.retrans_timer)
    } else {
        p.refresh_timer
    }
}

/// Builds the complete transition list of the multi-hop chain for one
/// protocol, derived entirely from the spec's mechanisms.  The removal knob
/// is irrelevant here (the multi-hop model has no sender-side state
/// removal), so the paper's removal variants behave identically to their
/// base protocol — which is why Section III-B evaluates only SS, SS+RT and
/// HS.
pub fn multi_hop_transitions(protocol: ProtocolSpec, p: &MultiHopParams) -> Vec<MultiHopRateEntry> {
    let mut entries = Vec::new();
    multi_hop_transitions_into(protocol, p, &mut entries);
    entries
}

/// [`multi_hop_transitions`] into a caller-owned buffer (cleared first), so
/// sweep loops re-fill one allocation per point instead of growing a fresh
/// `Vec` of `O(K²)` entries each time.
///
/// Like the single-hop builder, this consumes the declarative row generator
/// in [`crate::fsm`] and evaluates each row's rate through the same helpers
/// as always (the `powf`-heavy cascade term stays memoized per target), so
/// the entry stream is bit-identical to the historical builder kept below
/// as [`multi_hop_transitions_reference`].
pub fn multi_hop_transitions_into(
    protocol: ProtocolSpec,
    p: &MultiHopParams,
    entries: &mut Vec<MultiHopRateEntry>,
) {
    use crate::fsm::MultiHopRate;
    let k = p.hops;
    entries.clear();
    // The cascade rate depends only on the target position `j`, not on the
    // source state, so the all-attempts-lost term is evaluated once per `j`
    // instead of once per `(state, j)` pair — `O(K)` instead of `O(K²)`
    // transcendental calls for the same values.
    let cascade: Vec<f64> = if protocol.uses_state_timeout() {
        let attempt_interval = multi_hop_attempt_interval(protocol, p);
        (0..k)
            .map(|j| timeout_cascade_rate_with_interval(p, attempt_interval, j))
            .collect()
    } else {
        Vec::new()
    };
    crate::fsm::each_multi_hop_row(protocol, k, &mut |from, _event, _guard, to, rate| {
        let rate = match rate {
            MultiHopRate::Cascade { target } => cascade[target],
            other => other.eval(protocol, p),
        };
        if rate > 0.0 && from != to {
            entries.push(MultiHopRateEntry { from, to, rate });
        }
    });
}

/// The historical predicate-derived builder, kept verbatim as the golden
/// reference the table-driven path is checked against.
pub fn multi_hop_transitions_reference(
    protocol: ProtocolSpec,
    p: &MultiHopParams,
) -> Vec<MultiHopRateEntry> {
    let mut entries = Vec::new();
    multi_hop_transitions_reference_into(protocol, p, &mut entries);
    entries
}

/// [`multi_hop_transitions_reference`] into a caller-owned buffer.
fn multi_hop_transitions_reference_into(
    protocol: ProtocolSpec,
    p: &MultiHopParams,
    entries: &mut Vec<MultiHopRateEntry>,
) {
    let k = p.hops;
    entries.clear();
    let mut push = |from: MultiHopState, to: MultiHopState, rate: f64| {
        if rate > 0.0 && from != to {
            entries.push(MultiHopRateEntry { from, to, rate });
        }
    };

    let uses_timeout = protocol.uses_state_timeout();
    let is_hard_state = protocol.has_external_detector();
    let fast_delivery = (1.0 - p.loss) / p.delay;
    let fast_loss = p.loss / p.delay;

    let all_states = MultiHopState::enumerate(k, is_hard_state);

    // --- State updates at the sender: every state returns to (0, Fast). ---
    for s in &all_states {
        push(*s, MultiHopState::fast(0), p.update_rate);
    }

    // --- Fast-path hop-by-hop propagation. ---
    for i in 0..k {
        push(
            MultiHopState::fast(i),
            MultiHopState::fast(i + 1),
            fast_delivery,
        );
        push(MultiHopState::fast(i), MultiHopState::slow(i), fast_loss);
    }

    // --- Slow-path repair (refresh and/or retransmission). ---
    for i in 0..k {
        push(
            MultiHopState::slow(i),
            MultiHopState::fast(i + 1),
            slow_repair_rate(protocol, p, i + 1),
        );
    }

    // --- Soft-state timeout cascades (Equation 9). ---
    if uses_timeout {
        // Reliable refreshes retry every `R`, but the periodic stream still
        // flows every `T`; attempts arrive at the faster of the two.
        let attempt_interval = if protocol.reliable_refresh() {
            p.refresh_timer.min(p.retrans_timer)
        } else {
            p.refresh_timer
        };
        // The cascade rate depends only on the target position `j`, not on
        // the source state, so the `powf`-heavy all-attempts-lost term is
        // evaluated once per `j` instead of once per `(state, j)` pair —
        // `O(K)` instead of `O(K²)` transcendental calls for the same values.
        let cascade: Vec<f64> = (0..k)
            .map(|j| timeout_cascade_rate_with_interval(p, attempt_interval, j))
            .collect();
        for s in &all_states {
            let i = s.consistent_hops();
            if i == 0 || matches!(s, MultiHopState::Recovery) {
                continue;
            }
            for (j, &rate) in cascade.iter().enumerate().take(i) {
                push(*s, MultiHopState::slow(j), rate);
            }
        }
    }

    // --- Hard-state false external signals and recovery. ---
    if is_hard_state {
        // Following the paper: a false signal at any of the K receivers while
        // the system sits in a slow-path state sends it to the recovery
        // state.
        let false_rate = p.false_signal_rate * k as f64;
        for i in 0..k {
            push(MultiHopState::slow(i), MultiHopState::Recovery, false_rate);
        }
        // Recovery: the sender learns about the (false) removal after roughly
        // half the path's round-trip worth of notifications and re-installs
        // state with a fresh trigger.
        let recovery_rate = 2.0 / (k as f64 * p.delay);
        push(
            MultiHopState::Recovery,
            MultiHopState::fast(0),
            recovery_rate,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MultiHopParams {
        MultiHopParams::reservation_defaults()
    }

    /// Equation 9 with best-effort refreshes (one attempt per `T`).
    fn timeout_cascade_rate(p: &MultiHopParams, remaining_consistent: usize) -> f64 {
        timeout_cascade_rate_with_interval(p, p.refresh_timer, remaining_consistent)
    }

    #[test]
    fn slow_repair_ordering() {
        let p = params();
        // Repairing a far hop by refresh is slower than a near hop (the
        // refresh has to survive more hops); retransmission-based repair does
        // not depend on the hop index.
        assert!(
            slow_repair_rate(ProtocolSpec::SS, &p, 1) > slow_repair_rate(ProtocolSpec::SS, &p, 15)
        );
        assert!(
            (slow_repair_rate(ProtocolSpec::HS, &p, 1)
                - slow_repair_rate(ProtocolSpec::HS, &p, 15))
            .abs()
                < 1e-15
        );
        // Reliable triggers repair faster than refresh-only at every hop.
        for hop in [1usize, 5, 20] {
            assert!(
                slow_repair_rate(ProtocolSpec::SS_RT, &p, hop)
                    > slow_repair_rate(ProtocolSpec::SS, &p, hop)
            );
        }
    }

    #[test]
    fn timeout_cascade_rates_sum_to_total_timeout_probability() {
        let p = params();
        let exponent = p.timeout_timer / p.refresh_timer;
        // Summing over all possible first-timeout positions j = 0..K-1 must
        // give the probability that a timeout happens anywhere, /τ.
        let total: f64 = (0..p.hops).map(|j| timeout_cascade_rate(&p, j)).sum();
        let expected = (1.0 - p.survival(p.hops)).powf(exponent) / p.timeout_timer;
        assert!((total - expected).abs() < 1e-15, "{total} vs {expected}");
        // Rates are non-negative everywhere.
        assert!((0..p.hops).all(|j| timeout_cascade_rate(&p, j) >= 0.0));
    }

    #[test]
    fn timeout_is_most_likely_at_the_far_end() {
        let p = params();
        // A refresh is most likely to die before reaching the last hop, so
        // the cascade that leaves many consistent hops (timeout far away) is
        // more likely than the one that leaves none.
        assert!(timeout_cascade_rate(&p, p.hops - 1) > timeout_cascade_rate(&p, 0));
    }

    #[test]
    fn transition_counts() {
        let p = params().with_hops(4);
        let ss = multi_hop_transitions(ProtocolSpec::SS, &p);
        let hs = multi_hop_transitions(ProtocolSpec::HS, &p);
        // Every rate positive, no self-loops.
        for e in ss.iter().chain(hs.iter()) {
            assert!(e.rate > 0.0);
            assert_ne!(e.from, e.to);
        }
        // HS has the recovery state reachable; SS does not mention it.
        assert!(hs.iter().any(|e| e.to == MultiHopState::Recovery));
        assert!(!ss
            .iter()
            .any(|e| e.to == MultiHopState::Recovery || e.from == MultiHopState::Recovery));
        // SS has timeout cascades; HS does not.
        let ss_to_slow0 = ss
            .iter()
            .filter(|e| e.to == MultiHopState::slow(0) && e.from == MultiHopState::fast(4))
            .count();
        assert_eq!(ss_to_slow0, 1);
        let hs_fast4_to_slow0 = hs
            .iter()
            .filter(|e| e.to == MultiHopState::slow(0) && e.from == MultiHopState::fast(4))
            .count();
        assert_eq!(hs_fast4_to_slow0, 0);
    }

    #[test]
    fn every_state_can_reach_zero_on_update() {
        let p = params().with_hops(3);
        for proto in ProtocolSpec::PAPER_MULTI_HOP {
            let ts = multi_hop_transitions(proto, &p);
            let with_recovery = proto == ProtocolSpec::HS;
            for s in MultiHopState::enumerate(3, with_recovery) {
                if s == MultiHopState::fast(0) {
                    continue;
                }
                assert!(
                    ts.iter()
                        .any(|e| e.from == s && e.to == MultiHopState::fast(0)),
                    "{proto}: no update transition from {s}"
                );
            }
        }
    }
}
