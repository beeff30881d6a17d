//! Protocol-specific transition rates (paper Table I plus the common
//! transitions described in Section III-A.1).
//!
//! Parameter notation (matching the paper):
//!
//! * `λ_u` — state update rate at the sender,
//! * `λ_r` — state removal rate (`1/λ_r` = mean session length),
//! * `λ_f` — false removal rate; for soft-state protocols
//!   `λ_f = p_l^(τ/T)/τ` (all refreshes within one timeout interval lost),
//!   for HS it is the external detector's false-signal rate `λ_e`,
//! * `p_l` — channel loss probability,
//! * `Δ` — mean one-way channel delay,
//! * `T` — refresh timer, `τ` — state-timeout timer, `R` — retransmission
//!   timer.
//!
//! Table I entries reproduced here (rates from/to the states of Figure 3):
//!
//! | transition                | SS          | SS+ER       | SS+RT                | SS+RTR               | HS          |
//! |---------------------------|-------------|-------------|----------------------|----------------------|-------------|
//! | `(1,0)₁→(1,0)₂`, `IC₁→IC₂`| `p_l/Δ`     | `p_l/Δ`     | `p_l/Δ`              | `p_l/Δ`              | `p_l/Δ`     |
//! | `(1,0)₁→C`, `IC₁→C`       | `(1-p_l)/Δ` | `(1-p_l)/Δ` | `(1-p_l)/Δ`          | `(1-p_l)/Δ`          | `(1-p_l)/Δ` |
//! | `(1,0)₂→C`, `IC₂→C`       | `(1-p_l)/T` | `(1-p_l)/T` | `(1/T+1/R)(1-p_l)`   | `(1/T+1/R)(1-p_l)`   | `(1-p_l)/R` |
//! | `(0,1)₁→(0,1)₂`           | —           | `p_l/Δ`     | —                    | `p_l/Δ`              | `p_l/Δ`     |
//! | `(0,1)₁→(0,0)`            | `1/τ`       | `(1-p_l)/Δ` | `1/τ`                | `(1-p_l)/Δ`          | `(1-p_l)/Δ` |
//! | `(0,1)₂→(0,0)`            | —           | `1/τ`       | —                    | `1/τ + (1-p_l)/R`    | `(1-p_l)/R` |
//! | false removal `λ_f`       | `p_l^(τ/T)/τ` | `p_l^(τ/T)/τ` | `p_l^(τ/T)/τ`    | `p_l^(τ/T)/τ`        | `λ_e`       |
//!
//! Common transitions (Figure 3 narrative): updates `C→IC₁`, `(1,0)₂→(1,0)₁`,
//! `IC₂→IC₁` at rate `λ_u`; removal `C→(0,1)₁`, `IC₂→(0,1)₁`,
//! `(1,0)₂→(0,0)` at rate `λ_r`; false removal `C→(1,0)₂`, `IC₂→(1,0)₂` at
//! rate `λ_f`.  The model serializes events, so no update/removal/false
//! removal can originate from a fast-path state with a message in flight.

use super::states::SingleHopState;
use crate::params::SingleHopParams;
use crate::spec::ProtocolSpec;

/// One row of the transition table: a `from → to` transition and its rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEntry {
    /// Source state.
    pub from: SingleHopState,
    /// Destination state.
    pub to: SingleHopState,
    /// Transition rate (per second).
    pub rate: f64,
}

/// The full set of transitions of one protocol under one parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTable {
    /// The protocol the rates belong to.
    pub protocol: ProtocolSpec,
    /// All non-zero transitions.
    pub entries: Vec<RateEntry>,
}

impl RateTable {
    /// Accumulated rate of a particular transition (0 if absent).
    pub fn rate(&self, from: SingleHopState, to: SingleHopState) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.from == from && e.to == to)
            .map(|e| e.rate)
            .sum()
    }

    /// Total exit rate of a state.
    pub fn exit_rate(&self, from: SingleHopState) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.from == from)
            .map(|e| e.rate)
            .sum()
    }

    /// Renders the table in a human-readable form (used by the
    /// `table1_transitions` binary to reproduce Table I numerically).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Protocol {}\n", self.protocol));
        for e in &self.entries {
            out.push_str(&format!(
                "  {:>8} -> {:<8} {:>14.8} /s\n",
                e.from.paper_notation(),
                e.to.paper_notation(),
                e.rate
            ));
        }
        out
    }
}

/// Rate at which a slow-path state (`(1,0)₂` or `IC₂`) returns to the
/// consistent state (Table I row 3), derived from the repair mechanisms the
/// spec enables: a refresh stream contributes `1/T`, retransmission (of
/// reliable triggers, or of reliable refreshes) contributes `1/R`, and
/// either way the repairing message must survive the channel.
///
/// For the paper presets this reduces to exactly Table I: `(1−p_l)/T` for
/// SS/SS+ER, `(1/T + 1/R)(1−p_l)` for SS+RT/SS+RTR, `(1−p_l)/R` for HS.
pub fn slow_path_repair_rate(spec: ProtocolSpec, p: &SingleHopParams) -> f64 {
    let success = 1.0 - p.loss;
    match (spec.uses_refresh(), spec.retransmits_repairs()) {
        (true, true) => (1.0 / p.refresh_timer + 1.0 / p.retrans_timer) * success,
        (true, false) => success / p.refresh_timer,
        (false, true) => success / p.retrans_timer,
        (false, false) => 0.0,
    }
}

/// The false-removal rate `λ_f` of Table I's last row: for the state-timeout
/// protocols it is the all-delivery-attempts-lost approximation — `p_l^(τ/T)/τ`
/// with best-effort refreshes, and `p_l^(τ/R)/τ` with reliable refreshes
/// (retransmissions every `R` multiply the attempts per timeout interval); a
/// protocol without a state timeout relies on an external failure detector
/// instead, whose false alarms arrive at rate `λ_e`.
pub fn false_removal_rate(spec: ProtocolSpec, p: &SingleHopParams) -> f64 {
    if spec.has_external_detector() {
        p.false_signal_rate
    } else if spec.reliable_refresh() {
        // Delivery attempts arrive at the faster of the periodic refresh
        // stream (every `T`) and the retransmission retries (every `R`) —
        // a slow retransmission timer never makes things *worse* than SS.
        p.false_removal_rate_with_interval(p.refresh_timer.min(p.retrans_timer))
    } else {
        p.false_removal_rate()
    }
}

/// Rate at which orphaned receiver state is finally removed once the removal
/// message was lost (`(0,1)₂ → (0,0)`, Table I row 6): the state-timeout
/// backstop contributes `1/τ`, removal retransmission contributes
/// `(1−p_l)/R`.  `None` when the protocol has no `(0,1)₂` state (no explicit
/// removal, or no surviving cleanup mechanism).
pub fn orphan_cleanup_rate(spec: ProtocolSpec, p: &SingleHopParams) -> Option<f64> {
    if !spec.uses_explicit_removal() {
        return None;
    }
    let success = 1.0 - p.loss;
    match (spec.uses_state_timeout(), spec.reliable_removal()) {
        (true, true) => Some(1.0 / p.timeout_timer + success / p.retrans_timer),
        (true, false) => Some(1.0 / p.timeout_timer),
        (false, true) => Some(success / p.retrans_timer),
        (false, false) => None,
    }
}

/// Rate of the `(0,1)₁ → (0,0)` transition (Table I row 5): state-timeout for
/// the protocols without explicit removal, successful delivery of the removal
/// message otherwise.
pub fn removal_delivery_rate(spec: ProtocolSpec, p: &SingleHopParams) -> f64 {
    let success = 1.0 - p.loss;
    if spec.uses_explicit_removal() {
        success / p.delay
    } else {
        1.0 / p.timeout_timer
    }
}

/// Builds the complete transition list of one protocol.
///
/// The builder is written entirely in terms of [`ProtocolSpec`]'s mechanism
/// predicates — there is no per-protocol `match` left — so any coherent
/// composition of mechanisms yields a well-formed chain, and the paper
/// presets reproduce Table I bit for bit.
pub fn protocol_transitions(protocol: ProtocolSpec, p: &SingleHopParams) -> RateTable {
    let mut table = RateTable {
        protocol,
        entries: Vec::new(),
    };
    protocol_transitions_into(protocol, p, &mut table);
    table
}

/// [`protocol_transitions`] into a caller-owned table (entries cleared
/// first), so sweep loops re-fill one allocation per point.
///
/// Since the state-machines-as-data refactor this builder consumes the
/// declarative row generator in [`crate::fsm`]: each row's structural guard
/// selects the transitions that exist, and its symbolic rate expression is
/// evaluated through the same rate helpers as always, so the emitted entry
/// stream is bit-identical to the historical predicate-derived builder
/// (kept below as [`protocol_transitions_reference`] for the model
/// checker's agreement property).
pub fn protocol_transitions_into(
    protocol: ProtocolSpec,
    p: &SingleHopParams,
    table: &mut RateTable,
) {
    table.protocol = protocol;
    table.entries.clear();
    let entries = &mut table.entries;
    crate::fsm::each_single_hop_row(protocol, &mut |from, _event, _guard, to, rate| {
        let rate = rate.eval(protocol, p);
        if rate > 0.0 {
            entries.push(RateEntry { from, to, rate });
        }
    });
}

/// The historical predicate-derived builder, kept verbatim as the golden
/// reference the table-driven path is checked against (exact equality, the
/// way `LuSolver` is pinned to the Gaussian reference).
pub fn protocol_transitions_reference(protocol: ProtocolSpec, p: &SingleHopParams) -> RateTable {
    let mut table = RateTable {
        protocol,
        entries: Vec::new(),
    };
    protocol_transitions_reference_into(protocol, p, &mut table);
    table
}

/// [`protocol_transitions_reference`] into a caller-owned table.
fn protocol_transitions_reference_into(
    protocol: ProtocolSpec,
    p: &SingleHopParams,
    table: &mut RateTable,
) {
    use SingleHopState::*;
    table.protocol = protocol;
    table.entries.clear();
    let entries = &mut table.entries;
    let mut push = |from: SingleHopState, to: SingleHopState, rate: f64| {
        if rate > 0.0 {
            entries.push(RateEntry { from, to, rate });
        }
    };

    let success = 1.0 - p.loss;
    let fast_delivery = success / p.delay;
    let fast_loss = p.loss / p.delay;
    let slow_repair = slow_path_repair_rate(protocol, p);
    let lambda_f = false_removal_rate(protocol, p);

    // --- Setup and update propagation (rows 1–3 of Table I). ---
    push(Setup1, Consistent, fast_delivery);
    push(Setup1, Setup2, fast_loss);
    push(Diff1, Consistent, fast_delivery);
    push(Diff1, Diff2, fast_loss);
    push(Setup2, Consistent, slow_repair);
    push(Diff2, Consistent, slow_repair);

    // --- Sender-side updates (rate λ_u, Figure 3). ---
    push(Consistent, Diff1, p.update_rate);
    push(Setup2, Setup1, p.update_rate);
    push(Diff2, Diff1, p.update_rate);

    // --- Sender-side removal (rate λ_r, Figure 3). ---
    push(Setup2, Absorbed, p.removal_rate);
    push(Consistent, Removing1, p.removal_rate);
    push(Diff2, Removing1, p.removal_rate);

    // --- False removal (rate λ_f, Figure 3 / Table I last row). ---
    push(Consistent, Setup2, lambda_f);
    push(Diff2, Setup2, lambda_f);

    // --- Orphan removal at the receiver (rows 4–6 of Table I). ---
    push(Removing1, Absorbed, removal_delivery_rate(protocol, p));
    if protocol.uses_explicit_removal() {
        push(Removing1, Removing2, fast_loss);
    }
    if let Some(rate) = orphan_cleanup_rate(protocol, p) {
        push(Removing2, Absorbed, rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SingleHopState::*;

    fn params() -> SingleHopParams {
        SingleHopParams::kazaa_defaults()
    }

    #[test]
    fn fast_path_rates_are_protocol_independent() {
        let p = params();
        for proto in ProtocolSpec::PAPER {
            let t = protocol_transitions(proto, &p);
            assert!((t.rate(Setup1, Consistent) - (1.0 - p.loss) / p.delay).abs() < 1e-12);
            assert!((t.rate(Setup1, Setup2) - p.loss / p.delay).abs() < 1e-12);
            assert!((t.rate(Diff1, Consistent) - (1.0 - p.loss) / p.delay).abs() < 1e-12);
            assert!((t.rate(Diff1, Diff2) - p.loss / p.delay).abs() < 1e-12);
        }
    }

    #[test]
    fn slow_path_repair_matches_table_one() {
        let p = params();
        let success = 1.0 - p.loss;
        assert!(
            (slow_path_repair_rate(ProtocolSpec::SS, &p) - success / p.refresh_timer).abs() < 1e-12
        );
        assert!(
            (slow_path_repair_rate(ProtocolSpec::SS_RT, &p)
                - (1.0 / p.refresh_timer + 1.0 / p.retrans_timer) * success)
                .abs()
                < 1e-12
        );
        assert!(
            (slow_path_repair_rate(ProtocolSpec::HS, &p) - success / p.retrans_timer).abs() < 1e-12
        );
        // Reliable-trigger protocols recover faster from a lost trigger.
        assert!(
            slow_path_repair_rate(ProtocolSpec::SS_RT, &p)
                > slow_path_repair_rate(ProtocolSpec::SS, &p)
        );
    }

    #[test]
    fn removing2_exists_only_with_explicit_removal() {
        let p = params();
        for proto in ProtocolSpec::PAPER {
            let t = protocol_transitions(proto, &p);
            let has_r2 = t.rate(Removing1, Removing2) > 0.0 || t.rate(Removing2, Absorbed) > 0.0;
            assert_eq!(has_r2, proto.uses_explicit_removal(), "{proto}");
        }
    }

    #[test]
    fn removal_delivery_uses_timeout_without_explicit_removal() {
        let p = params();
        let ss = protocol_transitions(ProtocolSpec::SS, &p);
        assert!((ss.rate(Removing1, Absorbed) - 1.0 / p.timeout_timer).abs() < 1e-12);
        let sser = protocol_transitions(ProtocolSpec::SS_ER, &p);
        assert!((sser.rate(Removing1, Absorbed) - (1.0 - p.loss) / p.delay).abs() < 1e-12);
        // Explicit removal removes orphaned state much faster than timeout.
        assert!(sser.rate(Removing1, Absorbed) > ss.rate(Removing1, Absorbed));
    }

    #[test]
    fn hs_false_removal_uses_external_signal_rate() {
        let p = params();
        assert_eq!(
            false_removal_rate(ProtocolSpec::HS, &p),
            p.false_signal_rate
        );
        assert_eq!(
            false_removal_rate(ProtocolSpec::SS, &p),
            p.false_removal_rate()
        );
        let hs = protocol_transitions(ProtocolSpec::HS, &p);
        assert!((hs.rate(Consistent, Setup2) - p.false_signal_rate).abs() < 1e-18);
    }

    #[test]
    fn reliable_refresh_lowers_the_false_removal_rate() {
        use crate::spec::{ProtocolSpec, RefreshMode};
        // Retransmissions every R multiply the delivery attempts per timeout
        // interval, so the all-attempts-lost exponent becomes τ/R.
        let mut p = params();
        p.loss = 0.5;
        p.timeout_timer = 2.0 * p.refresh_timer;
        let ss_rr = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        let rr = false_removal_rate(ss_rr, &p);
        let ss = false_removal_rate(ProtocolSpec::SS, &p);
        assert!(
            rr < ss,
            "reliable refresh must cut λ_f ({rr} vs {ss}), matching the simulator"
        );
        let expected = p.loss.powf(p.timeout_timer / p.retrans_timer) / p.timeout_timer;
        assert!((rr - expected).abs() < 1e-18);
    }

    #[test]
    fn orphan_cleanup_rates() {
        let p = params();
        assert_eq!(orphan_cleanup_rate(ProtocolSpec::SS, &p), None);
        assert_eq!(orphan_cleanup_rate(ProtocolSpec::SS_RT, &p), None);
        assert!(
            (orphan_cleanup_rate(ProtocolSpec::SS_ER, &p).unwrap() - 1.0 / p.timeout_timer).abs()
                < 1e-12
        );
        let rtr = orphan_cleanup_rate(ProtocolSpec::SS_RTR, &p).unwrap();
        assert!((rtr - (1.0 / p.timeout_timer + (1.0 - p.loss) / p.retrans_timer)).abs() < 1e-12);
        let hs = orphan_cleanup_rate(ProtocolSpec::HS, &p).unwrap();
        assert!((hs - (1.0 - p.loss) / p.retrans_timer).abs() < 1e-12);
        // SS+RTR can also fall back to timeout, so it cleans up at least as
        // fast as HS.
        assert!(rtr >= hs);
    }

    #[test]
    fn absorbing_state_has_no_exit() {
        let p = params();
        for proto in ProtocolSpec::PAPER {
            let t = protocol_transitions(proto, &p);
            assert_eq!(t.exit_rate(Absorbed), 0.0, "{proto}");
        }
    }

    #[test]
    fn serialization_constraints_hold() {
        // No update, removal or false removal out of fast-path states.
        let p = params();
        for proto in ProtocolSpec::PAPER {
            let t = protocol_transitions(proto, &p);
            assert_eq!(t.rate(Setup1, Absorbed), 0.0);
            assert_eq!(t.rate(Diff1, Removing1), 0.0);
            assert_eq!(t.rate(Diff1, Setup2), 0.0);
            assert_eq!(t.rate(Diff1, Diff1), 0.0);
            assert_eq!(t.rate(Consistent, Setup1), 0.0);
        }
    }

    #[test]
    fn every_rate_is_positive_and_finite() {
        let p = params();
        for proto in ProtocolSpec::PAPER {
            for e in protocol_transitions(proto, &p).entries {
                assert!(e.rate.is_finite() && e.rate > 0.0, "{proto} {e:?}");
            }
        }
    }

    #[test]
    fn render_contains_protocol_and_states() {
        let p = params();
        let table = protocol_transitions(ProtocolSpec::SS_ER, &p);
        let text = table.render();
        assert!(text.contains("SS+ER"));
        assert!(text.contains("(1,0)_1"));
        assert!(text.contains("(0,0)"));
    }

    #[test]
    fn zero_loss_removes_slow_path_entries() {
        let mut p = params();
        p.loss = 0.0;
        let t = protocol_transitions(ProtocolSpec::SS, &p);
        assert_eq!(t.rate(Setup1, Setup2), 0.0);
        assert_eq!(t.rate(Diff1, Diff2), 0.0);
        // False removal disappears as well (p_l^(τ/T) = 0).
        assert_eq!(t.rate(Consistent, Setup2), 0.0);
    }
}
