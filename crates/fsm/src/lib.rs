//! `sigfsm` — the spec-space model checker.
//!
//! `siganalytic::fsm` turns every coherent [`ProtocolSpec`] into a
//! declarative transition table; this crate machine-checks those tables,
//! turning `spec-spectrum` from a plot into a verifier.  Three properties
//! run per spec:
//!
//! * **reachability** — starting from the setup state, no reachable state
//!   is stuck, and every reachable state can reach the removed/absorbed
//!   state (single-hop) or the freshly-updated root state (multi-hop);
//! * **liveness** — the retry cycles terminate: every slow-path state has a
//!   repair exit, every reliable mechanism (triggers, refreshes, removal)
//!   has the matching ack that retires its retransmission cycle, and
//!   orphaned state always has a cleanup path;
//! * **agreement** — the table's enabled-transition set exactly equals what
//!   the analytic builders emit *and* what the historical predicate-derived
//!   reference builders emit (bitwise `f64` equality, the way `LuSolver`
//!   is pinned to the Gaussian reference), and the table-derived
//!   [`FsmDispatch`] the simulators branch on equals the predicate-derived
//!   one — cross-checked against a live [`NodeSim`] instance;
//! * **latency** — the symbolic worst-case repair-latency bound
//!   ([`latency::repair_latency_bound`]) derives, is finite and positive at
//!   the Kazaa operating point, and is structurally consistent with the
//!   table (an orphan bound iff the spec sends explicit removals, a
//!   crash-wipe bound iff it runs a refresh stream).  The *numeric* half of
//!   the property — the bound dominating measured `node-outage`
//!   reconvergence for every coherent spec — needs the simulator, so it
//!   lives in `signaling::node_experiment::outage::check_latency_domination`
//!   and runs
//!   as part of `repro check-specs`.
//!
//! `repro check-specs` runs [`check_all`] over all 33 coherent specs and
//! exits non-zero on any violation; the per-spec entry point
//! [`check_spec`] rejects incoherent specs with the typed
//! [`SpecError`] the spec layer defines.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod latency;

pub use latency::{repair_latency_bound, BoundParams, Expr, LatencyBound, RepairPath, Sym};

use siganalytic::fsm::{mechanism_code, FsmDispatch, MultiHopTransitionTable, TransitionTable};
use siganalytic::multi_hop::transitions::{multi_hop_transitions, multi_hop_transitions_reference};
use siganalytic::multi_hop::MultiHopState;
use siganalytic::single_hop::transitions::{protocol_transitions, protocol_transitions_reference};
use siganalytic::single_hop::SingleHopState;
use siganalytic::{MultiHopParams, ProtocolSpec, SingleHopParams, SpecError};
use sigproto::{NodeConfig, NodeSim};
use std::collections::{HashMap, HashSet, VecDeque};

/// Hop count the multi-hop properties are checked at.  Small enough to keep
/// `check-specs` instant, large enough that cascades, recovery and the
/// slow-path ladder all materialize.
pub const CHECK_HOPS: usize = 6;

/// Residual-probability quantile the latency property evaluates bounds at —
/// the same `ε` the `node-outage` experiment hands to
/// [`RecoveryMetrics::derive`](sigproto::RecoveryMetrics), so the symbolic
/// bound and the measured reconvergence time answer the same question.
pub const CHECK_EPSILON: f64 = 0.02;

/// One property violation found in one spec's tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property failed: `"reachability"`, `"liveness"`,
    /// `"agreement"` or `"latency"`.
    pub property: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

/// The check results of one coherent spec.
#[derive(Debug, Clone)]
pub struct SpecCheck {
    /// The spec that was checked.
    pub spec: ProtocolSpec,
    /// Its five-character mechanism code (the `spec:<code>` label scheme).
    pub code: String,
    /// Single-hop table rows.
    pub single_hop_rows: usize,
    /// Multi-hop table rows at [`CHECK_HOPS`].
    pub multi_hop_rows: usize,
    /// The symbolic repair-latency bound, when the latency pass derived one.
    pub latency: Option<LatencyBound>,
    /// Every property violation found (empty = the spec passed).
    pub violations: Vec<Violation>,
}

impl SpecCheck {
    /// Whether all four properties passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The check results of the whole coherent spec space.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// One entry per coherent spec, in [`ProtocolSpec::enumerate_all`]
    /// order.
    pub checks: Vec<SpecCheck>,
}

impl CheckReport {
    /// Whether every spec passed every property.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(SpecCheck::passed)
    }

    /// Total violations across all specs.
    fn violation_count(&self) -> usize {
        self.checks.iter().map(|c| c.violations.len()).sum()
    }

    /// Renders the per-spec pass/fail summary `repro check-specs` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "check-specs: {} coherent specs x 4 properties (reachability, liveness, agreement, latency)\n",
            self.checks.len()
        ));
        for check in &self.checks {
            if check.passed() {
                let bound = check
                    .latency
                    .as_ref()
                    .map(|b| format!(", reconverge <= {}", b.reconverge.render()))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  PASS spec:{} ({} single-hop rows, {} multi-hop rows at K={}{})\n",
                    check.code, check.single_hop_rows, check.multi_hop_rows, CHECK_HOPS, bound
                ));
            } else {
                out.push_str(&format!("  FAIL spec:{}\n", check.code));
                for v in &check.violations {
                    out.push_str(&format!("       [{}] {}\n", v.property, v.detail));
                }
            }
        }
        out.push_str(&format!(
            "check-specs: {}\n",
            if self.passed() {
                "all specs pass".to_string()
            } else {
                format!("{} violation(s)", self.violation_count())
            }
        ));
        out
    }
}

/// All coherent specs, in enumeration order (33 of the 72 mechanism
/// combinations).
pub fn coherent_specs() -> Vec<ProtocolSpec> {
    ProtocolSpec::enumerate_all("spec")
        .into_iter()
        .filter(|s| s.validate().is_ok())
        .collect()
}

/// Checks one spec.  Incoherent specs are rejected up front with the
/// spec layer's typed [`SpecError`]; coherent specs get the full
/// four-property treatment (an `Ok` result can still carry violations).
// sigtidy: allow(unused-pub) — deliberate API: the define-your-own walkthrough in docs/fsm.md checks a new spec with it
pub fn check_spec(spec: ProtocolSpec) -> Result<SpecCheck, SpecError> {
    spec.validate()?;
    let single = TransitionTable::for_spec(spec);
    let multi = MultiHopTransitionTable::for_spec(spec, CHECK_HOPS);
    let mut violations = Vec::new();
    check_single_hop_reachability(spec, &single, &mut violations);
    check_multi_hop_reachability(spec, &multi, &mut violations);
    check_liveness(spec, &single, &mut violations);
    check_agreement(spec, &single, &multi, &mut violations);
    let latency = check_latency(spec, &single, &mut violations);
    Ok(SpecCheck {
        spec,
        code: mechanism_code(&spec),
        single_hop_rows: single.rows.len(),
        multi_hop_rows: multi.rows.len(),
        latency,
        violations,
    })
}

/// Checks every coherent spec.
pub fn check_all() -> CheckReport {
    CheckReport {
        checks: coherent_specs()
            .into_iter()
            // sigtidy: allow(no-unwrap) — coherent_specs() yields only compositions check_spec accepts
            .map(|spec| check_spec(spec).expect("coherent specs validate"))
            .collect(),
    }
}

/// Default parameter sets the numeric properties are evaluated at: the
/// paper's Kazaa operating point (loss > 0, so every structurally present
/// edge is numerically enabled) and the 20-hop reservation scenario
/// truncated to [`CHECK_HOPS`].
fn check_params() -> (SingleHopParams, MultiHopParams) {
    (
        SingleHopParams::kazaa_defaults(),
        MultiHopParams::reservation_defaults().with_hops(CHECK_HOPS),
    )
}

fn check_single_hop_reachability(
    spec: ProtocolSpec,
    table: &TransitionTable,
    violations: &mut Vec<Violation>,
) {
    let (p, _) = check_params();
    let entries = table.enabled_entries(&p);
    let mut adjacency: HashMap<SingleHopState, Vec<SingleHopState>> = HashMap::new();
    for e in &entries {
        adjacency.entry(e.from).or_default().push(e.to);
    }
    let reachable = breadth_first(SingleHopState::Setup1, |s| {
        adjacency.get(s).cloned().unwrap_or_default()
    });
    for state in &reachable {
        if *state == SingleHopState::Absorbed {
            continue;
        }
        // No stuck states: every reachable non-absorbing state has an exit.
        if adjacency.get(state).is_none_or(Vec::is_empty) {
            violations.push(Violation {
                property: "reachability",
                detail: format!("{spec}: reachable state {state:?} has no enabled exit"),
            });
            continue;
        }
        // Every reachable state can reach Absorbed (the removed state).
        let downstream = breadth_first(*state, |s| adjacency.get(s).cloned().unwrap_or_default());
        if !downstream.contains(&SingleHopState::Absorbed) {
            violations.push(Violation {
                property: "reachability",
                detail: format!("{spec}: state {state:?} cannot reach Absorbed"),
            });
        }
    }
}

fn check_multi_hop_reachability(
    spec: ProtocolSpec,
    table: &MultiHopTransitionTable,
    violations: &mut Vec<Violation>,
) {
    let (_, p) = check_params();
    let entries = table.enabled_entries(&p);
    let mut adjacency: HashMap<MultiHopState, Vec<MultiHopState>> = HashMap::new();
    for e in &entries {
        adjacency.entry(e.from).or_default().push(e.to);
    }
    let root = MultiHopState::fast(0);
    let reachable = breadth_first(root, |s| adjacency.get(s).cloned().unwrap_or_default());
    // The stationary multi-hop process has no absorbing state; the
    // analogous property is irreducibility from the freshly-updated root:
    // every enumerated state is reachable, and every state returns to the
    // root (an update can always restart propagation).
    for state in MultiHopState::enumerate(CHECK_HOPS, spec.has_external_detector()) {
        if !reachable.contains(&state) {
            violations.push(Violation {
                property: "reachability",
                detail: format!("{spec}: multi-hop state {state} unreachable from {root}"),
            });
            continue;
        }
        if state == root {
            continue;
        }
        let downstream = breadth_first(state, |s| adjacency.get(s).cloned().unwrap_or_default());
        if !downstream.contains(&root) {
            violations.push(Violation {
                property: "reachability",
                detail: format!("{spec}: multi-hop state {state} cannot return to {root}"),
            });
        }
    }
}

fn check_liveness(spec: ProtocolSpec, table: &TransitionTable, violations: &mut Vec<Violation>) {
    use siganalytic::fsm::{Action, SingleHopEvent};
    let has_action = |a: Action| table.rows.iter().any(|r| r.actions.contains(&a));
    let mut fail = |detail: String| {
        violations.push(Violation {
            property: "liveness",
            detail,
        })
    };
    // Slow-path states must have a repair path back to Consistent — every
    // coherent spec keeps some loss-recovery mechanism (the spec layer's
    // NoLossRecovery rule), and the table must reflect it.
    for from in [SingleHopState::Setup2, SingleHopState::Diff2] {
        if !table
            .rows
            .iter()
            .any(|r| r.from == from && r.to == SingleHopState::Consistent)
        {
            fail(format!("{spec}: no repair row out of {from:?}"));
        }
    }
    // Each reliable mechanism's retransmission cycle terminates: the
    // matching ack exists in the table, so a delivered message retires the
    // retry timer instead of retransmitting forever.
    if spec.reliable_triggers() && !has_action(Action::AckTrigger) {
        fail(format!(
            "{spec}: reliable triggers but no trigger-ack action"
        ));
    }
    if spec.reliable_refresh() && !has_action(Action::AckRefresh) {
        fail(format!(
            "{spec}: reliable refreshes but no refresh-ack action"
        ));
    }
    if spec.reliable_removal() && !has_action(Action::AckRemoval) {
        fail(format!(
            "{spec}: reliable removal but no removal-ack action"
        ));
    }
    // Orphaned state must always be cleaned up: if a removal can be lost
    // (the Removing2 state exists), a cleanup row must exist too.
    let enters_orphan = table.rows.iter().any(|r| r.to == SingleHopState::Removing2);
    let cleans_orphan = table
        .rows
        .iter()
        .any(|r| r.from == SingleHopState::Removing2 && r.event == SingleHopEvent::OrphanCleanup);
    if enters_orphan && !cleans_orphan {
        fail(format!(
            "{spec}: lost removals orphan state with no cleanup row"
        ));
    }
}

fn check_agreement(
    spec: ProtocolSpec,
    single: &TransitionTable,
    multi: &MultiHopTransitionTable,
    violations: &mut Vec<Violation>,
) {
    let (sp, mp) = check_params();
    let mut fail = |detail: String| {
        violations.push(Violation {
            property: "agreement",
            detail,
        })
    };
    // Table vs the live analytic builder vs the historical predicate-derived
    // reference — exact (bitwise f64) equality, in emission order.
    let enabled = single.enabled_entries(&sp);
    let built = protocol_transitions(spec, &sp).entries;
    let reference = protocol_transitions_reference(spec, &sp).entries;
    if enabled != built {
        fail(format!("{spec}: single-hop table != analytic builder"));
    }
    if enabled != reference {
        fail(format!(
            "{spec}: single-hop table != predicate-derived reference"
        ));
    }
    let enabled = multi.enabled_entries(&mp);
    let built = multi_hop_transitions(spec, &mp);
    let reference = multi_hop_transitions_reference(spec, &mp);
    if enabled != built {
        fail(format!("{spec}: multi-hop table != analytic builder"));
    }
    if enabled != reference {
        fail(format!(
            "{spec}: multi-hop table != predicate-derived reference"
        ));
    }
    // The dispatch the simulators branch on: table-derived == predicate-
    // derived, and a live NodeSim instance really runs on the table's set.
    let table_dispatch = single.dispatch();
    if table_dispatch != FsmDispatch::from_predicates(spec) {
        fail(format!("{spec}: table dispatch != predicate dispatch"));
    }
    let sim = NodeSim::new(NodeConfig::new(spec, sp, 4), 0);
    if sim.dispatch() != table_dispatch {
        fail(format!("{spec}: NodeSim dispatch != table dispatch"));
    }
}

/// The latency property: the symbolic bound derives, is finite and positive
/// at the Kazaa operating point, and is structurally consistent with the
/// table.  Returns the bound so `check-specs` can render it and the
/// `node-outage` cross-check can evaluate it.
fn check_latency(
    spec: ProtocolSpec,
    table: &TransitionTable,
    violations: &mut Vec<Violation>,
) -> Option<LatencyBound> {
    let mut fail = |detail: String| {
        violations.push(Violation {
            property: "latency",
            detail,
        })
    };
    let bound = match repair_latency_bound(spec) {
        Ok(bound) => bound,
        Err(e) => {
            fail(format!("{spec}: no repair-latency bound derivable: {e}"));
            return None;
        }
    };
    let (sp, _) = check_params();
    let p = BoundParams::from_single_hop(&sp, CHECK_EPSILON);
    for (name, expr) in [
        ("false-removal", Some(&bound.false_removal)),
        ("orphan", bound.orphan.as_ref()),
        ("reconverge", Some(&bound.reconverge)),
        ("crash-wipe", bound.crash_wipe.as_ref()),
    ] {
        if let Some(expr) = expr {
            let v = expr.eval(&p);
            if !v.is_finite() || v <= 0.0 {
                fail(format!(
                    "{spec}: {name} bound {} = {v} not finite positive at Kazaa defaults",
                    expr.render()
                ));
            }
        }
    }
    // Structural consistency with the table: an orphan obligation iff a
    // removal can be lost, a crash-wipe bound iff a refresh stream exists.
    let dispatch = table.dispatch();
    if bound.orphan.is_some() != dispatch.uses_explicit_removal {
        fail(format!(
            "{spec}: orphan bound {} but explicit removal {}",
            if bound.orphan.is_some() {
                "present"
            } else {
                "absent"
            },
            dispatch.uses_explicit_removal
        ));
    }
    if bound.crash_wipe.is_some() != dispatch.uses_refresh {
        fail(format!(
            "{spec}: crash-wipe bound {} but refresh stream {}",
            if bound.crash_wipe.is_some() {
                "present"
            } else {
                "absent"
            },
            dispatch.uses_refresh
        ));
    }
    Some(bound)
}

fn breadth_first<S, F>(start: S, mut neighbors: F) -> HashSet<S>
where
    S: Copy + Eq + std::hash::Hash,
    F: FnMut(&S) -> Vec<S>,
{
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(s) = queue.pop_front() {
        for next in neighbors(&s) {
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use siganalytic::{Delivery, RefreshMode, Removal};

    #[test]
    fn all_thirty_three_coherent_specs_pass_every_property() {
        let report = check_all();
        assert_eq!(report.checks.len(), 33);
        for check in &report.checks {
            assert!(
                check.passed(),
                "spec:{} violations: {:?}",
                check.code,
                check.violations
            );
        }
        assert!(report.passed());
        assert_eq!(report.violation_count(), 0);
        let text = report.render();
        assert!(text.contains("all specs pass"));
        assert!(text.contains("PASS spec:btb--"));
        assert!(text.contains("PASS spec:--rrn"));
    }

    #[test]
    fn incoherent_specs_are_rejected_with_the_right_spec_error() {
        // A state timeout with no refresh stream starves immediately.
        let spec = ProtocolSpec::soft_state("broken").with_refresh(None);
        assert_eq!(
            check_spec(spec).map(|_| ()),
            Err(SpecError::TimeoutWithoutRefresh)
        );
        // No refresh and best-effort triggers: a lost trigger is never
        // repaired.
        let spec = ProtocolSpec::hard_state("broken").with_triggers(Delivery::BestEffort);
        assert_eq!(check_spec(spec).map(|_| ()), Err(SpecError::NoLossRecovery));
        // No removal path at all.
        let spec = ProtocolSpec::hard_state("broken").with_removal(Removal::None);
        assert_eq!(check_spec(spec).map(|_| ()), Err(SpecError::NoRemovalPath));
    }

    #[test]
    fn paper_presets_pass_individually() {
        for preset in ProtocolSpec::PAPER {
            let check = check_spec(preset).expect("presets are coherent");
            assert!(check.passed(), "{preset}: {:?}", check.violations);
            assert!(check.single_hop_rows > 0);
            assert!(check.multi_hop_rows > 0);
        }
    }

    #[test]
    fn reliable_refresh_spec_exercises_the_ack_liveness_arm() {
        let spec = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        let check = check_spec(spec).unwrap();
        assert!(check.passed(), "{:?}", check.violations);
    }

    #[test]
    fn latency_property_attaches_a_consistent_bound_to_every_check() {
        let (sp, _) = check_params();
        let p = BoundParams::from_single_hop(&sp, CHECK_EPSILON);
        for check in check_all().checks {
            let bound = check.latency.as_ref().expect("latency bound derived");
            assert!(bound.reconverge.eval(&p).is_finite(), "spec:{}", check.code);
            assert_eq!(
                bound.orphan.is_some(),
                check.spec.uses_explicit_removal(),
                "spec:{}",
                check.code
            );
            assert_eq!(
                bound.crash_wipe.is_some(),
                check.spec.uses_refresh(),
                "spec:{}",
                check.code
            );
        }
    }

    #[test]
    fn render_shows_the_reconverge_bound_per_spec() {
        let text = check_all().render();
        assert!(text.contains("4 properties"));
        assert!(text.contains("latency"));
        assert!(text.contains("reconverge <= T + (N-1)*T + D"));
    }
}
