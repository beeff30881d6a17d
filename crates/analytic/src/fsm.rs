//! Protocol state machines as data.
//!
//! The paper's Section-II mechanisms used to be encoded three times by
//! hand — once in the analytic transition builders, once in the
//! event-driven simulators, once in `docs/protocols.md` — with only golden
//! tests keeping the copies honest.  This module collapses them to one
//! declarative source: a transition table of
//! `(state, event, guard, actions, next_state, rate)` rows generated from
//! any [`ProtocolSpec`].
//!
//! Three consumers read the same rows:
//!
//! * the analytic builders
//!   ([`protocol_transitions_into`](crate::single_hop::transitions::protocol_transitions_into),
//!   [`multi_hop_transitions_into`](crate::multi_hop::transitions::multi_hop_transitions_into))
//!   evaluate each row's [rate expression](SingleHopRate) and keep exactly
//!   the positive-rate edges — bit-identical to the historical
//!   predicate-derived builders, which survive as `*_reference` functions
//!   for the model checker's agreement property;
//! * the simulators derive their mechanism dispatch — which timers to arm,
//!   which messages to ack — from the table's actions via [`FsmDispatch`];
//! * the docs and the `repro --list-transitions` command render the rows
//!   symbolically.
//!
//! The `sigfsm` crate model-checks the table per spec (reachability,
//! liveness, agreement over all coherent specs); `repro check-specs` runs
//! that checker from the command line.

use crate::multi_hop::states::MultiHopState;
use crate::multi_hop::transitions::{
    multi_hop_attempt_interval, slow_repair_rate, timeout_cascade_rate_with_interval,
    MultiHopRateEntry,
};
use crate::params::{MultiHopParams, SingleHopParams};
use crate::single_hop::states::SingleHopState;
use crate::single_hop::transitions::{
    false_removal_rate, orphan_cleanup_rate, removal_delivery_rate, slow_path_repair_rate,
    RateEntry,
};
use crate::spec::ProtocolSpec;
use std::fmt;

/// The event that fires a single-hop transition (Figure 3 narrative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SingleHopEvent {
    /// A trigger (setup or update) message reaches the receiver.
    TriggerDelivered,
    /// A trigger message is lost in the channel.
    TriggerLost,
    /// A repairing message (refresh or retransmission) reaches the receiver.
    RepairDelivered,
    /// The sender changes the state (rate `λ_u`).
    SenderUpdate,
    /// The sender removes the state (rate `λ_r`).
    SenderRemoval,
    /// The receiver falsely removes live state (timeout starvation or a
    /// false external failure signal; rate `λ_f`).
    FalseRemoval,
    /// An explicit removal message reaches the receiver.
    RemovalDelivered,
    /// The receiver's state timeout reclaims state the sender has removed.
    ReceiverTimeout,
    /// An explicit removal message is lost in the channel.
    RemovalLost,
    /// Orphaned receiver state is finally cleaned up (timeout backstop
    /// and/or retransmitted removal).
    OrphanCleanup,
}

impl SingleHopEvent {
    /// Short human-readable name.
    pub fn describe(&self) -> &'static str {
        match self {
            Self::TriggerDelivered => "trigger delivered",
            Self::TriggerLost => "trigger lost",
            Self::RepairDelivered => "repair delivered",
            Self::SenderUpdate => "sender update",
            Self::SenderRemoval => "sender removal",
            Self::FalseRemoval => "false removal",
            Self::RemovalDelivered => "removal delivered",
            Self::ReceiverTimeout => "receiver timeout",
            Self::RemovalLost => "removal lost",
            Self::OrphanCleanup => "orphan cleanup",
        }
    }
}

/// The event that fires a multi-hop transition (Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiHopEvent {
    /// The sender changes the state; every hop becomes inconsistent.
    SenderUpdate,
    /// The trigger reaches the next hop on the fast path.
    TriggerDelivered,
    /// The trigger is lost before the next hop.
    TriggerLost,
    /// A refresh or retransmission repairs the first inconsistent hop.
    RepairDelivered,
    /// The first state timeout fires at some hop, truncating the
    /// consistent prefix (Equation 9).
    TimeoutCascade,
    /// A false external failure signal removes state at some hop.
    FalseExternalSignal,
    /// The sender learns of the false removal and re-installs state.
    SenderRecovers,
}

impl MultiHopEvent {
    /// Short human-readable name.
    pub fn describe(&self) -> &'static str {
        match self {
            Self::SenderUpdate => "sender update",
            Self::TriggerDelivered => "trigger delivered",
            Self::TriggerLost => "trigger lost",
            Self::RepairDelivered => "repair delivered",
            Self::TimeoutCascade => "timeout cascade",
            Self::FalseExternalSignal => "false external signal",
            Self::SenderRecovers => "sender recovers",
        }
    }
}

/// Structural guard of a table row: the mechanism predicate that must hold
/// for the transition to exist at all (independent of the numeric
/// parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// Unconditional — the row exists for every coherent spec.
    Always,
    /// Some slow-path repair mechanism exists
    /// (`uses_refresh || retransmits_repairs`).
    CanRepair,
    /// The protocol sends explicit removal messages.
    UsesExplicitRemoval,
    /// Orphaned state left by a lost removal can still be cleaned up
    /// (`uses_explicit_removal && (uses_state_timeout || reliable_removal)`).
    HasOrphanCleanup,
    /// The receiver runs a state-timeout timer.
    UsesStateTimeout,
    /// The protocol relies on an external failure detector
    /// (`!uses_state_timeout`).
    HasExternalDetector,
}

impl Guard {
    /// Whether the guard holds for `spec`.
    fn holds(&self, spec: &ProtocolSpec) -> bool {
        match self {
            Self::Always => true,
            Self::CanRepair => spec.uses_refresh() || spec.retransmits_repairs(),
            Self::UsesExplicitRemoval => spec.uses_explicit_removal(),
            Self::HasOrphanCleanup => {
                spec.uses_explicit_removal()
                    && (spec.uses_state_timeout() || spec.reliable_removal())
            }
            Self::UsesStateTimeout => spec.uses_state_timeout(),
            Self::HasExternalDetector => spec.has_external_detector(),
        }
    }

    /// Short human-readable name.
    pub fn describe(&self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::CanRepair => "can-repair",
            Self::UsesExplicitRemoval => "explicit-removal",
            Self::HasOrphanCleanup => "orphan-cleanup",
            Self::UsesStateTimeout => "state-timeout",
            Self::HasExternalDetector => "external-detector",
        }
    }
}

/// One mechanism action attached to a table row.  The action set of a row
/// encodes exactly which of the spec's mechanisms participate in the
/// transition, so [`FsmDispatch`] — the capability set the simulators
/// branch on — is derivable from the table alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Install (or overwrite) the state at the receiver.
    InstallReceiverState,
    /// Restart the receiver's state-timeout timer.
    RestartStateTimeout,
    /// Ack the trigger hop-by-hop (reliable triggers).
    AckTrigger,
    /// Ack the refresh (reliable refreshes).
    AckRefresh,
    /// Ack the removal (reliable removal).
    AckRemoval,
    /// Send a trigger message.
    SendTrigger,
    /// Arm the trigger retransmission timer.
    ArmTriggerRetransmit,
    /// Track the refresh sequence for ack-based retransmission.
    TrackPendingRefresh,
    /// Send an explicit removal message.
    SendRemoval,
    /// Arm the removal retransmission timer.
    ArmRemovalRetransmit,
    /// The repair was carried by the periodic refresh stream.
    RepairByRefresh,
    /// The repair was carried by a retransmission.
    RepairByRetransmit,
    /// Notify the sender of the (false) removal.
    NotifySender,
    /// Drop the state at the receiver.
    DropReceiverState,
    /// The receiver's state timeout expired.
    ExpireStateTimeout,
    /// The external failure detector fired (falsely).
    FalseExternalSignal,
    /// Orphaned state reclaimed by the state-timeout backstop.
    ReclaimByTimeout,
    /// The removal message is retransmitted until acked.
    RetransmitRemoval,
}

impl Action {
    /// Short human-readable name.
    pub fn describe(&self) -> &'static str {
        match self {
            Self::InstallReceiverState => "install",
            Self::RestartStateTimeout => "restart-timeout",
            Self::AckTrigger => "ack-trigger",
            Self::AckRefresh => "ack-refresh",
            Self::AckRemoval => "ack-removal",
            Self::SendTrigger => "send-trigger",
            Self::ArmTriggerRetransmit => "arm-trigger-retrans",
            Self::TrackPendingRefresh => "track-pending-refresh",
            Self::SendRemoval => "send-removal",
            Self::ArmRemovalRetransmit => "arm-removal-retrans",
            Self::RepairByRefresh => "repair-by-refresh",
            Self::RepairByRetransmit => "repair-by-retrans",
            Self::NotifySender => "notify-sender",
            Self::DropReceiverState => "drop-state",
            Self::ExpireStateTimeout => "timeout-expired",
            Self::FalseExternalSignal => "false-signal",
            Self::ReclaimByTimeout => "reclaim-by-timeout",
            Self::RetransmitRemoval => "retransmit-removal",
        }
    }
}

/// Symbolic rate expression of a single-hop row.  [`SingleHopRate::eval`]
/// reproduces the exact arithmetic of the historical builder, so the
/// table-driven builder is bit-identical to the predicate-derived one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SingleHopRate {
    /// `(1-p_l)/Δ` — fast-path delivery.
    FastDelivery,
    /// `p_l/Δ` — fast-path loss.
    FastLoss,
    /// Table I row 3 — refresh and/or retransmission repair.
    SlowPathRepair,
    /// `λ_u` — sender update rate.
    Update,
    /// `λ_r` — sender removal rate.
    Removal,
    /// `λ_f` — Table I last row.
    FalseRemoval,
    /// Table I row 5 — removal delivery (or timeout without explicit
    /// removal).
    RemovalDelivery,
    /// Table I row 6 — orphan cleanup after a lost removal.
    OrphanCleanup,
}

impl SingleHopRate {
    /// Evaluates the expression for one spec and parameter set, delegating
    /// to the same rate helpers the builders have always used.
    pub fn eval(&self, spec: ProtocolSpec, p: &SingleHopParams) -> f64 {
        match self {
            Self::FastDelivery => (1.0 - p.loss) / p.delay,
            Self::FastLoss => p.loss / p.delay,
            Self::SlowPathRepair => slow_path_repair_rate(spec, p),
            Self::Update => p.update_rate,
            Self::Removal => p.removal_rate,
            Self::FalseRemoval => false_removal_rate(spec, p),
            Self::RemovalDelivery => removal_delivery_rate(spec, p),
            Self::OrphanCleanup => orphan_cleanup_rate(spec, p).unwrap_or(0.0),
        }
    }

    /// The paper's symbolic notation for the rate.
    pub fn describe(&self) -> &'static str {
        match self {
            Self::FastDelivery => "(1-p_l)/D",
            Self::FastLoss => "p_l/D",
            Self::SlowPathRepair => "repair(T,R)",
            Self::Update => "lambda_u",
            Self::Removal => "lambda_r",
            Self::FalseRemoval => "lambda_f",
            Self::RemovalDelivery => "removal(D,tau)",
            Self::OrphanCleanup => "cleanup(tau,R)",
        }
    }
}

/// Symbolic rate expression of a multi-hop row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiHopRate {
    /// `λ_u` — sender update rate.
    Update,
    /// `(1-p_l)/Δ` — next-hop delivery.
    FastDelivery,
    /// `p_l/Δ` — next-hop loss.
    FastLoss,
    /// Equations 9–11 — slow-path repair of hop `next_hop`.
    SlowRepair {
        /// 1-indexed hop being repaired.
        next_hop: usize,
    },
    /// Equation 9 — first timeout at hop `target + 1`.
    Cascade {
        /// Consistent hops remaining after the cascade.
        target: usize,
    },
    /// `K·λ_e` — a false signal at any of the `K` receivers.
    FalseSignal,
    /// `2/(K·Δ)` — sender learns of the false removal and re-installs.
    Recovery,
}

impl MultiHopRate {
    /// Evaluates the expression for one spec and parameter set.  For
    /// [`MultiHopRate::Cascade`] the builder memoizes per-target values
    /// instead of calling this in a loop (the `powf`-heavy term depends
    /// only on the target), but the value is identical.
    pub fn eval(&self, spec: ProtocolSpec, p: &MultiHopParams) -> f64 {
        match self {
            Self::Update => p.update_rate,
            Self::FastDelivery => (1.0 - p.loss) / p.delay,
            Self::FastLoss => p.loss / p.delay,
            Self::SlowRepair { next_hop } => slow_repair_rate(spec, p, *next_hop),
            Self::Cascade { target } => {
                timeout_cascade_rate_with_interval(p, multi_hop_attempt_interval(spec, p), *target)
            }
            Self::FalseSignal => p.false_signal_rate * p.hops as f64,
            Self::Recovery => 2.0 / (p.hops as f64 * p.delay),
        }
    }

    /// The paper's symbolic notation for the rate.
    pub fn describe(&self) -> String {
        match self {
            Self::Update => "lambda_u".to_string(),
            Self::FastDelivery => "(1-p_l)/D".to_string(),
            Self::FastLoss => "p_l/D".to_string(),
            Self::SlowRepair { next_hop } => format!("repair(hop {next_hop})"),
            Self::Cascade { target } => format!("cascade(->{target})"),
            Self::FalseSignal => "K*lambda_e".to_string(),
            Self::Recovery => "2/(K*D)".to_string(),
        }
    }
}

/// Walks the single-hop rows of one spec in the canonical order (the
/// historical builder's push order), invoking `sink` for each row whose
/// structural guard holds.  This is the single source of truth for the
/// single-hop transition structure: the numeric builder, the symbolic
/// table and the model checker all consume it.
pub fn each_single_hop_row(
    spec: ProtocolSpec,
    sink: &mut dyn FnMut(SingleHopState, SingleHopEvent, Guard, SingleHopState, SingleHopRate),
) {
    use SingleHopEvent::*;
    use SingleHopRate as R;
    use SingleHopState::*;
    let mut row = |from, event, guard: Guard, to, rate| {
        if guard.holds(&spec) {
            sink(from, event, guard, to, rate);
        }
    };

    // --- Setup and update propagation (rows 1–3 of Table I). ---
    row(
        Setup1,
        TriggerDelivered,
        Guard::Always,
        Consistent,
        R::FastDelivery,
    );
    row(Setup1, TriggerLost, Guard::Always, Setup2, R::FastLoss);
    row(
        Diff1,
        TriggerDelivered,
        Guard::Always,
        Consistent,
        R::FastDelivery,
    );
    row(Diff1, TriggerLost, Guard::Always, Diff2, R::FastLoss);
    row(
        Setup2,
        RepairDelivered,
        Guard::CanRepair,
        Consistent,
        R::SlowPathRepair,
    );
    row(
        Diff2,
        RepairDelivered,
        Guard::CanRepair,
        Consistent,
        R::SlowPathRepair,
    );

    // --- Sender-side updates (rate λ_u, Figure 3). ---
    row(Consistent, SenderUpdate, Guard::Always, Diff1, R::Update);
    row(Setup2, SenderUpdate, Guard::Always, Setup1, R::Update);
    row(Diff2, SenderUpdate, Guard::Always, Diff1, R::Update);

    // --- Sender-side removal (rate λ_r, Figure 3). ---
    row(Setup2, SenderRemoval, Guard::Always, Absorbed, R::Removal);
    row(
        Consistent,
        SenderRemoval,
        Guard::Always,
        Removing1,
        R::Removal,
    );
    row(Diff2, SenderRemoval, Guard::Always, Removing1, R::Removal);

    // --- False removal (rate λ_f, Figure 3 / Table I last row). ---
    row(
        Consistent,
        FalseRemoval,
        Guard::Always,
        Setup2,
        R::FalseRemoval,
    );
    row(Diff2, FalseRemoval, Guard::Always, Setup2, R::FalseRemoval);

    // --- Orphan removal at the receiver (rows 4–6 of Table I). ---
    let removal_event = if spec.uses_explicit_removal() {
        RemovalDelivered
    } else {
        ReceiverTimeout
    };
    row(
        Removing1,
        removal_event,
        Guard::Always,
        Absorbed,
        R::RemovalDelivery,
    );
    row(
        Removing1,
        RemovalLost,
        Guard::UsesExplicitRemoval,
        Removing2,
        R::FastLoss,
    );
    row(
        Removing2,
        OrphanCleanup,
        Guard::HasOrphanCleanup,
        Absorbed,
        R::OrphanCleanup,
    );
}

/// Walks the multi-hop rows of one spec over a `k`-hop chain in the
/// canonical order (the historical builder's push order).
pub fn each_multi_hop_row(
    spec: ProtocolSpec,
    k: usize,
    sink: &mut dyn FnMut(MultiHopState, MultiHopEvent, Guard, MultiHopState, MultiHopRate),
) {
    use MultiHopEvent::*;
    use MultiHopRate as R;
    let mut row = |from, event, guard: Guard, to, rate| {
        if guard.holds(&spec) {
            sink(from, event, guard, to, rate);
        }
    };

    let all_states = MultiHopState::enumerate(k, spec.has_external_detector());

    // --- State updates at the sender: every state returns to (0, Fast). ---
    for s in &all_states {
        if *s != MultiHopState::fast(0) {
            row(
                *s,
                SenderUpdate,
                Guard::Always,
                MultiHopState::fast(0),
                R::Update,
            );
        }
    }

    // --- Fast-path hop-by-hop propagation. ---
    for i in 0..k {
        row(
            MultiHopState::fast(i),
            TriggerDelivered,
            Guard::Always,
            MultiHopState::fast(i + 1),
            R::FastDelivery,
        );
        row(
            MultiHopState::fast(i),
            TriggerLost,
            Guard::Always,
            MultiHopState::slow(i),
            R::FastLoss,
        );
    }

    // --- Slow-path repair (refresh and/or retransmission). ---
    for i in 0..k {
        row(
            MultiHopState::slow(i),
            RepairDelivered,
            Guard::CanRepair,
            MultiHopState::fast(i + 1),
            R::SlowRepair { next_hop: i + 1 },
        );
    }

    // --- Soft-state timeout cascades (Equation 9). ---
    if spec.uses_state_timeout() {
        for s in &all_states {
            let i = s.consistent_hops();
            if i == 0 || matches!(s, MultiHopState::Recovery) {
                continue;
            }
            for j in 0..i {
                row(
                    *s,
                    TimeoutCascade,
                    Guard::UsesStateTimeout,
                    MultiHopState::slow(j),
                    R::Cascade { target: j },
                );
            }
        }
    }

    // --- Hard-state false external signals and recovery. ---
    if spec.has_external_detector() {
        for i in 0..k {
            row(
                MultiHopState::slow(i),
                FalseExternalSignal,
                Guard::HasExternalDetector,
                MultiHopState::Recovery,
                R::FalseSignal,
            );
        }
        row(
            MultiHopState::Recovery,
            SenderRecovers,
            Guard::HasExternalDetector,
            MultiHopState::fast(0),
            R::Recovery,
        );
    }
}

/// The mechanism actions a single-hop event performs under one spec.
fn single_hop_actions(spec: &ProtocolSpec, event: SingleHopEvent) -> Vec<Action> {
    let mut actions = Vec::new();
    each_single_hop_action(spec, event, &mut |action| actions.push(action));
    actions
}

/// Feeds `sink` the mechanism actions a single-hop event performs under
/// one spec, in table order, without collecting them.
fn each_single_hop_action(
    spec: &ProtocolSpec,
    event: SingleHopEvent,
    sink: &mut dyn FnMut(Action),
) {
    use SingleHopEvent::*;
    match event {
        TriggerDelivered => {
            sink(Action::InstallReceiverState);
            if spec.uses_state_timeout() {
                sink(Action::RestartStateTimeout);
            }
            if spec.reliable_triggers() {
                sink(Action::AckTrigger);
            } else if spec.reliable_refresh() {
                sink(Action::AckRefresh);
            }
        }
        TriggerLost | RemovalLost => {}
        RepairDelivered => {
            sink(Action::InstallReceiverState);
            if spec.uses_refresh() {
                sink(Action::RepairByRefresh);
            }
            if spec.retransmits_repairs() {
                sink(Action::RepairByRetransmit);
            }
            if spec.uses_state_timeout() {
                sink(Action::RestartStateTimeout);
            }
            if spec.reliable_triggers() {
                sink(Action::AckTrigger);
            }
            if spec.reliable_refresh() {
                sink(Action::AckRefresh);
            }
        }
        SenderUpdate => {
            sink(Action::SendTrigger);
            if spec.reliable_triggers() {
                sink(Action::ArmTriggerRetransmit);
            } else if spec.reliable_refresh() {
                sink(Action::TrackPendingRefresh);
            }
        }
        SenderRemoval => {
            if spec.uses_explicit_removal() {
                sink(Action::SendRemoval);
            }
            if spec.reliable_removal() {
                sink(Action::ArmRemovalRetransmit);
            }
        }
        FalseRemoval => {
            if spec.uses_state_timeout() {
                sink(Action::ExpireStateTimeout);
            } else {
                sink(Action::FalseExternalSignal);
            }
            sink(Action::DropReceiverState);
            if spec.notifies_on_removal() {
                sink(Action::NotifySender);
            }
        }
        RemovalDelivered => {
            sink(Action::DropReceiverState);
            if spec.reliable_removal() {
                sink(Action::AckRemoval);
            }
        }
        ReceiverTimeout => {
            sink(Action::ExpireStateTimeout);
            sink(Action::DropReceiverState);
        }
        OrphanCleanup => {
            sink(Action::DropReceiverState);
            if spec.uses_state_timeout() {
                sink(Action::ReclaimByTimeout);
            }
            if spec.reliable_removal() {
                sink(Action::RetransmitRemoval);
            }
        }
    }
}

/// The mechanism actions a multi-hop event performs under one spec.
fn multi_hop_actions(spec: &ProtocolSpec, event: MultiHopEvent) -> Vec<Action> {
    use MultiHopEvent::*;
    let mut actions = Vec::new();
    match event {
        SenderUpdate | SenderRecovers => actions.push(Action::SendTrigger),
        TriggerDelivered => {
            actions.push(Action::InstallReceiverState);
            if spec.uses_state_timeout() {
                actions.push(Action::RestartStateTimeout);
            }
            if spec.reliable_triggers() {
                actions.push(Action::AckTrigger);
            }
        }
        TriggerLost => {}
        RepairDelivered => {
            actions.push(Action::InstallReceiverState);
            if spec.uses_refresh() {
                actions.push(Action::RepairByRefresh);
            }
            if spec.retransmits_repairs() {
                actions.push(Action::RepairByRetransmit);
            }
        }
        TimeoutCascade => {
            actions.push(Action::ExpireStateTimeout);
            actions.push(Action::DropReceiverState);
        }
        FalseExternalSignal => {
            actions.push(Action::FalseExternalSignal);
            actions.push(Action::DropReceiverState);
            if spec.notifies_on_removal() {
                actions.push(Action::NotifySender);
            }
        }
    }
    actions
}

/// One row of the declarative single-hop state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmRow {
    /// Source state.
    pub from: SingleHopState,
    /// The event that fires the transition.
    pub event: SingleHopEvent,
    /// The mechanism predicate that makes the row exist.
    pub guard: Guard,
    /// The mechanism actions the event performs under this spec.
    pub actions: Vec<Action>,
    /// Destination state.
    pub to: SingleHopState,
    /// Symbolic rate expression.
    pub rate: SingleHopRate,
}

/// The single-hop state machine of one spec, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionTable {
    /// The spec the table was generated from.
    pub spec: ProtocolSpec,
    /// All rows whose guard holds, in the canonical builder order.
    pub rows: Vec<FsmRow>,
}

impl TransitionTable {
    /// Generates the table for one spec.
    pub fn for_spec(spec: ProtocolSpec) -> Self {
        let mut rows = Vec::new();
        each_single_hop_row(spec, &mut |from, event, guard, to, rate| {
            rows.push(FsmRow {
                from,
                event,
                guard,
                actions: single_hop_actions(&spec, event),
                to,
                rate,
            });
        });
        Self { spec, rows }
    }

    /// Evaluates every row at `p` and returns the positive-rate edges — the
    /// exact entry list the analytic builder produces.
    pub fn enabled_entries(&self, p: &SingleHopParams) -> Vec<RateEntry> {
        let mut entries = Vec::new();
        for row in &self.rows {
            let rate = row.rate.eval(self.spec, p);
            if rate > 0.0 {
                entries.push(RateEntry {
                    from: row.from,
                    to: row.to,
                    rate,
                });
            }
        }
        entries
    }

    /// The mechanism capability set the simulators dispatch on, derived
    /// from the table's actions alone (no spec predicates consulted).
    pub fn dispatch(&self) -> FsmDispatch {
        let mut dispatch = FsmDispatch::NONE;
        for row in &self.rows {
            row.actions.iter().for_each(|&action| dispatch.note(action));
        }
        dispatch
    }

    /// Renders the table for `repro --list-transitions`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Protocol {} — single-hop state machine ({} rows)\n",
            self.spec,
            self.rows.len()
        ));
        out.push_str(&format!(
            "  {:<10} {:<18} {:<17} -> {:<10} {:<15} {}\n",
            "state", "event", "guard", "next", "rate", "actions"
        ));
        for row in &self.rows {
            let actions = row
                .actions
                .iter()
                .map(|a| a.describe())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  {:<10} {:<18} {:<17} -> {:<10} {:<15} [{}]\n",
                row.from.paper_notation(),
                row.event.describe(),
                row.guard.describe(),
                row.to.paper_notation(),
                row.rate.describe(),
                actions
            ));
        }
        out
    }
}

/// One row of the declarative multi-hop state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopFsmRow {
    /// Source state.
    pub from: MultiHopState,
    /// The event that fires the transition.
    pub event: MultiHopEvent,
    /// The mechanism predicate that makes the row exist.
    pub guard: Guard,
    /// The mechanism actions the event performs under this spec.
    pub actions: Vec<Action>,
    /// Destination state.
    pub to: MultiHopState,
    /// Symbolic rate expression.
    pub rate: MultiHopRate,
}

/// The multi-hop state machine of one spec over a `hops`-hop chain.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopTransitionTable {
    /// The spec the table was generated from.
    pub spec: ProtocolSpec,
    /// Number of hops `K`.
    pub hops: usize,
    /// All rows whose guard holds, in the canonical builder order.
    pub rows: Vec<MultiHopFsmRow>,
}

impl MultiHopTransitionTable {
    /// Generates the table for one spec and hop count.
    pub fn for_spec(spec: ProtocolSpec, hops: usize) -> Self {
        let mut rows = Vec::new();
        each_multi_hop_row(spec, hops, &mut |from, event, guard, to, rate| {
            rows.push(MultiHopFsmRow {
                from,
                event,
                guard,
                actions: multi_hop_actions(&spec, event),
                to,
                rate,
            });
        });
        Self { spec, hops, rows }
    }

    /// Evaluates every row at `p` and returns the positive-rate edges — the
    /// exact entry list the analytic builder produces.  `p.hops` must match
    /// the table's hop count.
    pub fn enabled_entries(&self, p: &MultiHopParams) -> Vec<MultiHopRateEntry> {
        // Memoize the powf-heavy cascade term per target, like the builder.
        let cascade: Vec<f64> = if self.spec.uses_state_timeout() {
            let attempt_interval = multi_hop_attempt_interval(self.spec, p);
            (0..self.hops)
                .map(|j| timeout_cascade_rate_with_interval(p, attempt_interval, j))
                .collect()
        } else {
            Vec::new()
        };
        let mut entries = Vec::new();
        for row in &self.rows {
            let rate = match row.rate {
                MultiHopRate::Cascade { target } => cascade[target],
                other => other.eval(self.spec, p),
            };
            if rate > 0.0 && row.from != row.to {
                entries.push(MultiHopRateEntry {
                    from: row.from,
                    to: row.to,
                    rate,
                });
            }
        }
        entries
    }

    /// Renders the table for `repro --list-transitions`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Protocol {} — multi-hop state machine, K = {} ({} rows)\n",
            self.spec,
            self.hops,
            self.rows.len()
        ));
        out.push_str(&format!(
            "  {:<8} {:<22} {:<17} -> {:<8} {:<16} {}\n",
            "state", "event", "guard", "next", "rate", "actions"
        ));
        for row in &self.rows {
            let actions = row
                .actions
                .iter()
                .map(|a| a.describe())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  {:<8} {:<22} {:<17} -> {:<8} {:<16} [{}]\n",
                row.from.to_string(),
                row.event.describe(),
                row.guard.describe(),
                row.to.to_string(),
                row.rate.describe(),
                actions
            ));
        }
        out
    }
}

/// The mechanism capability set the simulators branch on.  Historically
/// each simulator called the spec predicates at every dispatch site; now
/// both compute an `FsmDispatch` from the generated [`TransitionTable`] at
/// construction and branch on its fields — so the table is the single
/// runtime source of mechanism truth, and the model checker can verify
/// table-derived dispatch against predicate-derived dispatch
/// ([`FsmDispatch::from_predicates`]) for every coherent spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FsmDispatch {
    /// The protocol sends periodic refreshes.
    pub uses_refresh: bool,
    /// Refreshes are acked and retransmitted.
    pub reliable_refresh: bool,
    /// The receiver runs a state-timeout timer.
    pub uses_state_timeout: bool,
    /// Removal is detected by an external failure detector.
    pub has_external_detector: bool,
    /// The protocol sends explicit removal messages.
    pub uses_explicit_removal: bool,
    /// Triggers are acked and retransmitted hop-by-hop.
    pub reliable_triggers: bool,
    /// Removals are acked and retransmitted.
    pub reliable_removal: bool,
    /// The receiver notifies the sender when it removes state.
    pub notifies_on_removal: bool,
    /// Some retransmission mechanism repairs the slow path.
    pub retransmits_repairs: bool,
}

impl FsmDispatch {
    /// The empty capability set, before any table action is folded in.
    const NONE: Self = Self {
        uses_refresh: false,
        reliable_refresh: false,
        uses_state_timeout: false,
        has_external_detector: false,
        uses_explicit_removal: false,
        reliable_triggers: false,
        reliable_removal: false,
        notifies_on_removal: false,
        retransmits_repairs: false,
    };

    /// Sets the capability one table action reveals, if any.
    fn note(&mut self, action: Action) {
        match action {
            Action::RepairByRefresh => self.uses_refresh = true,
            Action::AckRefresh => self.reliable_refresh = true,
            Action::RestartStateTimeout => self.uses_state_timeout = true,
            Action::FalseExternalSignal => self.has_external_detector = true,
            Action::SendRemoval => self.uses_explicit_removal = true,
            Action::AckTrigger => self.reliable_triggers = true,
            Action::ArmRemovalRetransmit => self.reliable_removal = true,
            Action::NotifySender => self.notifies_on_removal = true,
            Action::RepairByRetransmit => self.retransmits_repairs = true,
            _ => {}
        }
    }

    /// Derives the capability set from the actions of `spec`'s table rows —
    /// the constructor the simulators use.  It visits the rows the table
    /// would hold without building it, so it allocates nothing; it equals
    /// [`TransitionTable::dispatch`] of [`TransitionTable::for_spec`].
    pub fn for_spec(spec: ProtocolSpec) -> Self {
        let mut dispatch = Self::NONE;
        each_single_hop_row(spec, &mut |_, event, _, _, _| {
            each_single_hop_action(&spec, event, &mut |action| dispatch.note(action));
        });
        dispatch
    }

    /// The historical derivation straight from the spec predicates — kept
    /// as the reference the model checker's agreement property compares
    /// [`TransitionTable::dispatch`] against.
    pub fn from_predicates(spec: ProtocolSpec) -> Self {
        Self {
            uses_refresh: spec.uses_refresh(),
            reliable_refresh: spec.reliable_refresh(),
            uses_state_timeout: spec.uses_state_timeout(),
            has_external_detector: spec.has_external_detector(),
            uses_explicit_removal: spec.uses_explicit_removal(),
            reliable_triggers: spec.reliable_triggers(),
            reliable_removal: spec.reliable_removal(),
            notifies_on_removal: spec.notifies_on_removal(),
            retransmits_repairs: spec.retransmits_repairs(),
        }
    }
}

impl fmt::Display for FsmDispatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", mechanism_code_from_dispatch(self))
    }
}

/// The five-character mechanism code `<refresh><timeout><triggers><removal><notify>`
/// used by the `spec-spectrum` experiment's `spec:<code>` labels:
///
/// * refresh: `-` none, `b` best-effort, `r` reliable;
/// * timeout: `-` none, `t` state timeout;
/// * triggers: `b` best-effort, `r` reliable;
/// * removal: `-` none, `b` best-effort, `r` reliable;
/// * notify: `-` silent, `n` notifies on removal.
///
/// `btb--` is pure soft state (SS), `--rrn` pure hard state (HS).
pub fn mechanism_code(spec: &ProtocolSpec) -> String {
    mechanism_code_from_dispatch(&FsmDispatch::from_predicates(*spec))
}

fn mechanism_code_from_dispatch(d: &FsmDispatch) -> String {
    let refresh = if !d.uses_refresh {
        '-'
    } else if d.reliable_refresh {
        'r'
    } else {
        'b'
    };
    let timeout = if d.uses_state_timeout { 't' } else { '-' };
    let triggers = if d.reliable_triggers { 'r' } else { 'b' };
    let removal = if !d.uses_explicit_removal {
        '-'
    } else if d.reliable_removal {
        'r'
    } else {
        'b'
    };
    let notify = if d.notifies_on_removal { 'n' } else { '-' };
    format!("{refresh}{timeout}{triggers}{removal}{notify}")
}

/// Renders the mechanism matrix of `docs/protocols.md` from the generated
/// tables' dispatch sets: one column per spec, one row per mechanism.
/// Keeping the doc in sync is a test, not a convention.
pub fn mechanism_matrix(specs: &[ProtocolSpec]) -> String {
    // Matrix row: paper mechanism name, `ProtocolSpec` field, cell renderer.
    type MatrixRow = (&'static str, &'static str, fn(&FsmDispatch) -> String);
    let dispatches: Vec<FsmDispatch> = specs.iter().map(|s| FsmDispatch::for_spec(*s)).collect();
    let mut out = String::new();
    let mut header = String::from("| Mechanism (paper) | Field |");
    let mut rule = String::from("|---|---|");
    for spec in specs {
        header.push_str(&format!(" {spec} |"));
        rule.push_str("---|");
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    let rows: [MatrixRow; 5] = [
        ("refresh", "`refresh`", |d| {
            if !d.uses_refresh {
                "—".into()
            } else if d.reliable_refresh {
                "reliable".into()
            } else {
                "best-effort".into()
            }
        }),
        ("state timeout", "`state_timeout`", |d| {
            if d.uses_state_timeout {
                "yes".into()
            } else {
                "—".into()
            }
        }),
        ("reliable trigger", "`triggers`", |d| {
            if d.reliable_triggers {
                "reliable".into()
            } else {
                "best-effort".into()
            }
        }),
        ("explicit removal", "`removal`", |d| {
            if !d.uses_explicit_removal {
                "—".into()
            } else if d.reliable_removal {
                "reliable".into()
            } else {
                "best-effort".into()
            }
        }),
        ("removal notification", "`notify_on_removal`", |d| {
            if d.notifies_on_removal {
                "yes".into()
            } else {
                "—".into()
            }
        }),
    ];
    for (paper_name, field, cell) in rows {
        let mut line = format!("| {paper_name} | {field} |");
        for d in &dispatches {
            line.push_str(&format!(" {} |", cell(d)));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_hop::transitions::{multi_hop_transitions, multi_hop_transitions_reference};
    use crate::single_hop::transitions::{protocol_transitions, protocol_transitions_reference};

    fn coherent_specs() -> Vec<ProtocolSpec> {
        ProtocolSpec::enumerate_all("spec")
            .into_iter()
            .filter(|s| s.validate().is_ok())
            .collect()
    }

    #[test]
    fn thirty_three_coherent_specs() {
        assert_eq!(coherent_specs().len(), 33);
    }

    #[test]
    fn table_enabled_entries_match_builder_and_reference_for_all_coherent_specs() {
        let p = SingleHopParams::kazaa_defaults();
        for spec in coherent_specs() {
            let table = TransitionTable::for_spec(spec);
            let enabled = table.enabled_entries(&p);
            let built = protocol_transitions(spec, &p);
            let reference = protocol_transitions_reference(spec, &p);
            assert_eq!(enabled, built.entries, "{spec}: table vs builder");
            assert_eq!(enabled, reference.entries, "{spec}: table vs reference");
        }
    }

    #[test]
    fn multi_hop_table_matches_builder_and_reference_for_all_coherent_specs() {
        let p = MultiHopParams::reservation_defaults().with_hops(6);
        for spec in coherent_specs() {
            let table = MultiHopTransitionTable::for_spec(spec, p.hops);
            let enabled = table.enabled_entries(&p);
            let built = multi_hop_transitions(spec, &p);
            let reference = multi_hop_transitions_reference(spec, &p);
            assert_eq!(enabled, built, "{spec}: table vs builder");
            assert_eq!(enabled, reference, "{spec}: table vs reference");
        }
    }

    #[test]
    fn dispatch_from_table_equals_dispatch_from_predicates() {
        for spec in coherent_specs() {
            assert_eq!(
                FsmDispatch::for_spec(spec),
                FsmDispatch::from_predicates(spec),
                "{spec}"
            );
            assert_eq!(
                FsmDispatch::for_spec(spec),
                TransitionTable::for_spec(spec).dispatch(),
                "{spec}"
            );
        }
    }

    #[test]
    fn preset_mechanism_codes() {
        assert_eq!(mechanism_code(&ProtocolSpec::SS), "btb--");
        assert_eq!(mechanism_code(&ProtocolSpec::HS), "--rrn");
        assert_eq!(mechanism_code(&ProtocolSpec::SS_ER), "btbb-");
        assert_eq!(mechanism_code(&ProtocolSpec::SS_RT), "btr-n");
        assert_eq!(mechanism_code(&ProtocolSpec::SS_RTR), "btrrn");
    }

    #[test]
    fn guards_match_rate_structure() {
        // A guard that fails must imply the corresponding rate helper
        // evaluates to nothing, and vice versa — otherwise the structural
        // filter and the numeric filter would disagree.
        let p = SingleHopParams::kazaa_defaults();
        for spec in coherent_specs() {
            assert_eq!(
                Guard::CanRepair.holds(&spec),
                slow_path_repair_rate(spec, &p) > 0.0,
                "{spec}"
            );
            assert_eq!(
                Guard::HasOrphanCleanup.holds(&spec),
                orphan_cleanup_rate(spec, &p).is_some(),
                "{spec}"
            );
        }
    }

    #[test]
    fn render_mentions_states_events_and_actions() {
        let table = TransitionTable::for_spec(ProtocolSpec::SS_RTR);
        let text = table.render();
        assert!(text.contains("SS+RTR"));
        assert!(text.contains("trigger delivered"));
        assert!(text.contains("ack-trigger"));
        assert!(text.contains("(0,0)"));
        let multi = MultiHopTransitionTable::for_spec(ProtocolSpec::HS, 4);
        let text = multi.render();
        assert!(text.contains("K = 4"));
        assert!(text.contains("false-signal"));
    }

    #[test]
    fn mechanism_matrix_covers_paper_presets() {
        let matrix = mechanism_matrix(&ProtocolSpec::PAPER);
        assert!(matrix.contains("| SS |"));
        assert!(matrix.contains("| HS |"));
        assert!(matrix.contains("best-effort"));
        assert!(matrix.contains("`state_timeout`"));
        // One header + one rule + five mechanism rows.
        assert_eq!(matrix.lines().count(), 7);
    }
}
