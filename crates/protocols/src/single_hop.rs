//! Discrete-event simulation of one single-hop signaling session.
//!
//! A session follows the full life cycle of Section II: the sender installs
//! state (trigger), keeps it alive (refresh, retransmission), updates it, and
//! finally removes it; the receiver installs state on triggers/refreshes,
//! removes it on explicit removal messages, state timeouts, or (for HS)
//! external failure signals, and — where the protocol provides it — notifies
//! the sender of removals so that false removals can be repaired.
//!
//! The session ends when the state is gone from both ends; the returned
//! [`SessionMetrics`] mirror the analytic model's metrics so the two can be
//! compared point by point (paper Figures 11 and 12).

use crate::config::SessionConfig;
use crate::metrics::{MessageCounts, SessionMetrics};
use crate::retry::RetryState;
use siganalytic::FsmDispatch;
use signet::{
    Channel, CrashStatePolicy, DelayModel, FaultClock, MsgKind, SignalMessage, StateValue,
};

use sigstats::TimeWeighted;
use simcore::{Dist, EventId, EventQueue, SimRng, SimTime, Timer, Trace};

/// Safety cap on processed events per session; generously above anything a
/// sane parameter set produces, it only guards against pathological
/// configurations (e.g. a zero-length retransmission timer).
const MAX_EVENTS: u64 = 20_000_000;

/// Tiny slack added to retransmission timers.  The paper sets `R = 2Δ`, i.e.
/// exactly one round-trip; with deterministic timers and delays the ACK and
/// the retransmission would then fire at the same instant and the tie-break
/// would produce a spurious retransmission for every trigger.  Deployed
/// protocols always keep the RTO strictly above the RTT; the slack models
/// that without perturbing any measured quantity.
pub(crate) const RETRANS_SLACK: f64 = 1e-6;

#[derive(Debug, Clone, PartialEq)]
enum Event {
    ArriveAtReceiver(SignalMessage),
    ArriveAtSender(SignalMessage),
    RefreshTimer,
    TriggerRetrans,
    RefreshRetrans,
    RemovalRetrans,
    ReceiverTimeout,
    SenderUpdate,
    SenderRemoval,
    FalseSignal,
    /// A scheduled [`signet::FaultEvent::CrashRestart`] of the receiver node.
    ReceiverCrash(CrashStatePolicy),
}

/// A runnable single-hop signaling session.
pub struct SingleHopSession<'a> {
    cfg: &'a SessionConfig,
    /// Mechanism capability set derived from the generated transition
    /// table ([`FsmDispatch::for_spec`]); every dispatch site branches on
    /// these fields instead of re-querying the spec predicates.
    dispatch: FsmDispatch,
    rng: &'a mut SimRng,
    queue: EventQueue<Event>,
    forward: Channel,
    backward: Channel,

    refresh_dist: Dist,
    timeout_dist: Dist,
    retrans_dist: Dist,

    sender_value: Option<StateValue>,
    receiver_value: Option<StateValue>,
    next_seq: u64,
    pending_trigger: Option<u64>,
    pending_refresh: Option<u64>,
    pending_removal: bool,

    refresh_timer: Timer,
    trigger_retrans: Timer,
    refresh_retrans: Timer,
    removal_retrans: Timer,
    receiver_timeout: Timer,

    // Per-cycle retry-policy state, reset when a cycle starts.  With the
    // default `RetryPolicy::Fixed` none of these is ever touched.
    trigger_retry: RetryState,
    refresh_retry: RetryState,
    removal_retry: RetryState,

    counts: MessageCounts,
    inconsistent: TimeWeighted,
    updates: u64,
    false_removals: u64,
    sender_lifetime: f64,
    trace: Trace,
}

impl<'a> SingleHopSession<'a> {
    /// Runs one session and returns its metrics.
    pub fn run(cfg: &SessionConfig, rng: &mut SimRng) -> SessionMetrics {
        Self::run_traced(cfg, rng, 0).0
    }

    /// Runs one session, additionally recording an event trace with at most
    /// `trace_capacity` entries (0 disables tracing).
    pub fn run_traced(
        cfg: &SessionConfig,
        rng: &mut SimRng,
        trace_capacity: usize,
    ) -> (SessionMetrics, Trace) {
        let mut session = SingleHopSession::new(cfg, rng, trace_capacity);
        session.start();
        let mut processed: u64 = 0;
        while !session.done() && processed < MAX_EVENTS {
            let Some(scheduled) = session.queue.pop() else {
                break;
            };
            session.handle(scheduled.time, scheduled.id, scheduled.event);
            processed += 1;
        }
        session.finish()
    }

    fn new(cfg: &'a SessionConfig, rng: &'a mut SimRng, trace_capacity: usize) -> Self {
        let delay = DelayModel::from_mode(cfg.delay_mode, cfg.params.delay);
        let trace = if trace_capacity > 0 {
            Trace::enabled(trace_capacity)
        } else {
            Trace::disabled()
        };
        Self {
            cfg,
            dispatch: FsmDispatch::for_spec(cfg.protocol),
            rng,
            queue: EventQueue::new(),
            forward: Channel::new(cfg.effective_loss_model(), delay)
                .with_fault_schedule(cfg.faults)
                .with_capacity(cfg.capacity),
            backward: Channel::new(cfg.effective_loss_model(), delay)
                .with_fault_schedule(cfg.faults)
                .with_capacity(cfg.capacity),
            refresh_dist: cfg.timer_mode.dist(cfg.params.refresh_timer),
            timeout_dist: cfg.timer_mode.dist(cfg.params.timeout_timer),
            retrans_dist: cfg.timer_mode.dist(cfg.params.retrans_timer),
            sender_value: None,
            receiver_value: None,
            next_seq: 0,
            pending_trigger: None,
            pending_refresh: None,
            pending_removal: false,
            refresh_timer: Timer::new(),
            trigger_retrans: Timer::new(),
            refresh_retrans: Timer::new(),
            removal_retrans: Timer::new(),
            receiver_timeout: Timer::new(),
            trigger_retry: RetryState::default(),
            refresh_retry: RetryState::default(),
            removal_retry: RetryState::default(),
            counts: MessageCounts::default(),
            inconsistent: TimeWeighted::new(0.0, 0.0),
            updates: 0,
            false_removals: 0,
            sender_lifetime: 0.0,
            trace,
        }
    }

    /// The table-derived mechanism capability set this session runs on.
    pub fn dispatch(&self) -> FsmDispatch {
        self.dispatch
    }

    fn start(&mut self) {
        // Install local state and send the initial trigger.
        self.sender_value = Some(1);
        self.inconsistent = TimeWeighted::new(0.0, 1.0);
        self.send_trigger();
        if self.dispatch.uses_refresh {
            let d = self.refresh_dist.sample(self.rng);
            self.refresh_timer
                .arm(&mut self.queue, d, Event::RefreshTimer);
        }
        // Sender-side workload: lifetime and updates are exponential by
        // definition (they model the application, not the protocol timers).
        let lifetime = self.rng.exponential_rate(self.cfg.params.removal_rate);
        self.queue.schedule_in(lifetime, Event::SenderRemoval);
        self.schedule_next_update();
        self.schedule_next_false_signal();
        // Crash–restart events come straight off the fault schedule; they
        // consume no randomness, so an empty schedule changes nothing.
        for (at, policy) in FaultClock::new(self.cfg.faults).crashes() {
            self.queue
                .schedule_at(SimTime::from_secs(at), Event::ReceiverCrash(policy));
        }
    }

    fn schedule_next_update(&mut self) {
        if self.cfg.params.update_rate > 0.0 {
            let dt = self.rng.exponential_rate(self.cfg.params.update_rate);
            if dt.is_finite() {
                self.queue.schedule_in(dt, Event::SenderUpdate);
            }
        }
    }

    fn schedule_next_false_signal(&mut self) {
        if self.dispatch.has_external_detector && self.cfg.params.false_signal_rate > 0.0 {
            let dt = self.rng.exponential_rate(self.cfg.params.false_signal_rate);
            if dt.is_finite() {
                self.queue.schedule_in(dt, Event::FalseSignal);
            }
        }
    }

    fn done(&self) -> bool {
        self.sender_value.is_none() && self.receiver_value.is_none()
    }

    fn now(&self) -> f64 {
        self.queue.now().as_secs()
    }

    fn finish(self) -> (SessionMetrics, Trace) {
        let end = self.now();
        let metrics = SessionMetrics {
            inconsistency: self.inconsistent.positive_fraction_until(end),
            inconsistent_time: self.inconsistent.positive_time_until(end),
            sender_lifetime: self.sender_lifetime,
            receiver_lifetime: end,
            messages: self.counts,
            updates: self.updates,
            false_removals: self.false_removals,
        };
        (metrics, self.trace)
    }

    // ------------------------------------------------------------------
    // Message transmission helpers.
    // ------------------------------------------------------------------

    fn send_to_receiver(&mut self, kind: MsgKind, value: StateValue, seq: u64) {
        self.counts.record(kind);
        let now = self.now();
        let msg = SignalMessage::new(kind, value, seq);
        self.trace.record(SimTime::from_secs(now), "send", msg);
        match self.forward.transmit(self.rng, now, kind) {
            signet::TransmitOutcome::Delivered { arrival } => {
                self.queue
                    .schedule_at(SimTime::from_secs(arrival), Event::ArriveAtReceiver(msg));
            }
            signet::TransmitOutcome::Lost => {
                self.trace.record(SimTime::from_secs(now), "drop", msg);
            }
        }
    }

    fn send_to_sender(&mut self, kind: MsgKind, value: StateValue, seq: u64) {
        self.counts.record(kind);
        let now = self.now();
        let msg = SignalMessage::new(kind, value, seq);
        self.trace.record(SimTime::from_secs(now), "send", msg);
        match self.backward.transmit(self.rng, now, kind) {
            signet::TransmitOutcome::Delivered { arrival } => {
                self.queue
                    .schedule_at(SimTime::from_secs(arrival), Event::ArriveAtSender(msg));
            }
            signet::TransmitOutcome::Lost => {
                self.trace.record(SimTime::from_secs(now), "drop", msg);
            }
        }
    }

    fn send_trigger(&mut self) {
        let Some(value) = self.sender_value else {
            return;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send_to_receiver(MsgKind::Trigger, value, seq);
        if self.dispatch.reliable_triggers {
            self.pending_trigger = Some(seq);
            // A (re-)trigger starts a fresh retransmission cycle.
            self.trigger_retry.reset();
            let base = self.retrans_dist.sample(self.rng);
            let d = self
                .cfg
                .retry
                .next_interval(base, &mut self.trigger_retry, self.rng)
                + RETRANS_SLACK;
            self.trigger_retrans
                .arm(&mut self.queue, d, Event::TriggerRetrans);
        } else if self.dispatch.reliable_refresh {
            // With best-effort triggers, the reliable refresh loop is the
            // spec's only retransmission machinery, and it tracks the
            // *current* value: a trigger re-enters the loop, so until the
            // receiver acknowledges this value the sender keeps repairing
            // at rate 1/R (retransmissions go out as refreshes) — the
            // behavior the analytic slow-path repair rate credits
            // reliable-refresh compositions.
            self.track_pending_refresh(seq);
        }
        if self.dispatch.uses_refresh && self.refresh_timer.is_armed() {
            // Sending an explicit trigger resets the refresh cycle.
            let d = self.refresh_dist.sample(self.rng);
            self.refresh_timer
                .arm(&mut self.queue, d, Event::RefreshTimer);
        }
    }

    fn send_removal(&mut self) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send_to_receiver(MsgKind::Removal, 0, seq);
        if self.dispatch.reliable_removal {
            self.pending_removal = true;
            self.removal_retry.reset();
            let base = self.retrans_dist.sample(self.rng);
            let d = self
                .cfg
                .retry
                .next_interval(base, &mut self.removal_retry, self.rng)
                + RETRANS_SLACK;
            self.removal_retrans
                .arm(&mut self.queue, d, Event::RemovalRetrans);
        }
    }

    /// Enters (or updates) the reliable-refresh retransmission loop for the
    /// state announcement with sequence number `seq`.  The retransmission
    /// timer is armed only when no cycle is running: re-arming on every
    /// periodic refresh would perpetually postpone the retry whenever
    /// `R + slack ≥ T` and starve retransmissions entirely.
    fn track_pending_refresh(&mut self, seq: u64) {
        self.pending_refresh = Some(seq);
        if !self.refresh_retrans.is_armed() {
            self.refresh_retry.reset();
            let base = self.retrans_dist.sample(self.rng);
            let d = self
                .cfg
                .retry
                .next_interval(base, &mut self.refresh_retry, self.rng)
                + RETRANS_SLACK;
            self.refresh_retrans
                .arm(&mut self.queue, d, Event::RefreshRetrans);
        }
    }

    fn restart_receiver_timeout(&mut self) {
        if self.dispatch.uses_state_timeout {
            let d = self.timeout_dist.sample(self.rng);
            self.receiver_timeout
                .arm(&mut self.queue, d, Event::ReceiverTimeout);
        }
    }

    fn update_consistency(&mut self) {
        let now = self.now();
        let inconsistent = self.sender_value != self.receiver_value;
        self.inconsistent.set_bool(now, inconsistent);
    }

    // ------------------------------------------------------------------
    // Event handling.
    // ------------------------------------------------------------------

    fn handle(&mut self, time: SimTime, id: EventId, event: Event) {
        match event {
            Event::SenderUpdate => self.on_sender_update(),
            Event::SenderRemoval => self.on_sender_removal(time),
            Event::RefreshTimer => self.on_refresh_timer(id),
            Event::TriggerRetrans => self.on_trigger_retrans(id),
            Event::RefreshRetrans => self.on_refresh_retrans(id),
            Event::RemovalRetrans => self.on_removal_retrans(id),
            Event::ReceiverTimeout => self.on_receiver_timeout(id, time),
            Event::FalseSignal => self.on_false_signal(time),
            Event::ArriveAtReceiver(msg) => self.on_receiver_message(msg, time),
            Event::ArriveAtSender(msg) => self.on_sender_message(msg),
            Event::ReceiverCrash(policy) => self.on_receiver_crash(policy, time),
        }
    }

    fn on_receiver_crash(&mut self, policy: CrashStatePolicy, time: SimTime) {
        // The receiver process restarts.  Under `Preserve` its state survives
        // (durable store) and nothing observable happens.  Under `Wipe` the
        // held state is simply gone: no timeout fired, no notification was
        // sent — the paper's orphaned/missing-state scenario.  Soft state
        // heals when the next refresh re-installs; hard state stays missing
        // until the sender's next update or removal.
        if policy == CrashStatePolicy::Preserve || self.receiver_value.is_none() {
            return;
        }
        self.receiver_value = None;
        self.receiver_timeout.cancel(&mut self.queue);
        self.trace
            .record(time, "crash", "receiver crash wiped held state");
        self.update_consistency();
    }

    fn on_sender_update(&mut self) {
        if let Some(v) = self.sender_value {
            self.sender_value = Some(v + 1);
            self.updates += 1;
            self.send_trigger();
            self.update_consistency();
            self.schedule_next_update();
        }
    }

    fn on_sender_removal(&mut self, time: SimTime) {
        if self.sender_value.is_none() {
            return;
        }
        self.sender_value = None;
        self.sender_lifetime = time.as_secs();
        self.pending_trigger = None;
        self.pending_refresh = None;
        self.refresh_timer.cancel(&mut self.queue);
        self.trigger_retrans.cancel(&mut self.queue);
        self.refresh_retrans.cancel(&mut self.queue);
        self.trace.record(time, "sender", "state removed locally");
        if self.dispatch.uses_explicit_removal {
            self.send_removal();
        }
        self.update_consistency();
    }

    fn on_refresh_timer(&mut self, id: EventId) {
        if !self.refresh_timer.on_fired(id) {
            return;
        }
        if let Some(value) = self.sender_value {
            if self.dispatch.uses_refresh {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.send_to_receiver(MsgKind::Refresh, value, seq);
                if self.dispatch.reliable_refresh {
                    self.track_pending_refresh(seq);
                }
                let d = self.refresh_dist.sample(self.rng);
                self.refresh_timer
                    .arm(&mut self.queue, d, Event::RefreshTimer);
            }
        }
    }

    fn on_refresh_retrans(&mut self, id: EventId) {
        if !self.refresh_retrans.on_fired(id) {
            return;
        }
        let Some(seq) = self.pending_refresh else {
            return;
        };
        let Some(value) = self.sender_value else {
            return;
        };
        self.send_to_receiver(MsgKind::Refresh, value, seq);
        let base = self.retrans_dist.sample(self.rng);
        let d = self
            .cfg
            .retry
            .next_interval(base, &mut self.refresh_retry, self.rng)
            + RETRANS_SLACK;
        self.refresh_retrans
            .arm(&mut self.queue, d, Event::RefreshRetrans);
    }

    fn on_trigger_retrans(&mut self, id: EventId) {
        if !self.trigger_retrans.on_fired(id) {
            return;
        }
        let (Some(seq), Some(value)) = (self.pending_trigger, self.sender_value) else {
            return;
        };
        self.send_to_receiver(MsgKind::Trigger, value, seq);
        let base = self.retrans_dist.sample(self.rng);
        let d = self
            .cfg
            .retry
            .next_interval(base, &mut self.trigger_retry, self.rng)
            + RETRANS_SLACK;
        self.trigger_retrans
            .arm(&mut self.queue, d, Event::TriggerRetrans);
    }

    fn on_removal_retrans(&mut self, id: EventId) {
        if !self.removal_retrans.on_fired(id) {
            return;
        }
        if !self.pending_removal {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send_to_receiver(MsgKind::Removal, 0, seq);
        let base = self.retrans_dist.sample(self.rng);
        let d = self
            .cfg
            .retry
            .next_interval(base, &mut self.removal_retry, self.rng)
            + RETRANS_SLACK;
        self.removal_retrans
            .arm(&mut self.queue, d, Event::RemovalRetrans);
    }

    fn on_receiver_timeout(&mut self, id: EventId, time: SimTime) {
        if !self.receiver_timeout.on_fired(id) {
            return;
        }
        if self.receiver_value.is_none() {
            return;
        }
        self.receiver_value = None;
        self.trace
            .record(time, "timeout", "receiver state timed out");
        if self.sender_value.is_some() {
            self.false_removals += 1;
            if self.dispatch.notifies_on_removal {
                self.send_to_sender(MsgKind::RemovalNotice, 0, 0);
            }
        }
        self.update_consistency();
    }

    fn on_false_signal(&mut self, time: SimTime) {
        // The external failure detector (wrongly) reports a sender crash to
        // the hard-state receiver.  The signal itself travels out of band and
        // is not signaling overhead, but we track its occurrences.
        self.counts.record(MsgKind::ExternalSignal);
        if self.receiver_value.is_some() {
            self.receiver_value = None;
            self.trace.record(
                time,
                "external",
                "false failure signal removed receiver state",
            );
            if self.sender_value.is_some() {
                self.false_removals += 1;
                if self.dispatch.notifies_on_removal {
                    self.send_to_sender(MsgKind::RemovalNotice, 0, 0);
                }
            }
            self.update_consistency();
        }
        self.schedule_next_false_signal();
    }

    fn on_receiver_message(&mut self, msg: SignalMessage, time: SimTime) {
        self.trace.record(time, "recv", msg);
        match msg.kind {
            MsgKind::Trigger | MsgKind::Refresh => {
                self.receiver_value = Some(msg.value);
                self.restart_receiver_timeout();
                if msg.kind == MsgKind::Trigger && self.dispatch.reliable_triggers {
                    self.send_to_sender(MsgKind::TriggerAck, msg.value, msg.seq);
                } else if self.dispatch.reliable_refresh {
                    // Reliable refresh acknowledges the state stream: every
                    // delivered refresh and — when triggers have no ACK
                    // machinery of their own — every delivered trigger.
                    self.send_to_sender(MsgKind::RefreshAck, msg.value, msg.seq);
                }
                self.update_consistency();
            }
            MsgKind::Removal => {
                self.receiver_value = None;
                self.receiver_timeout.cancel(&mut self.queue);
                if self.dispatch.reliable_removal {
                    self.send_to_sender(MsgKind::RemovalAck, 0, msg.seq);
                }
                self.update_consistency();
            }
            // Backward-direction kinds never arrive at the receiver.
            MsgKind::TriggerAck
            | MsgKind::RefreshAck
            | MsgKind::RemovalAck
            | MsgKind::RemovalNotice
            | MsgKind::ExternalSignal => {}
        }
    }

    fn on_sender_message(&mut self, msg: SignalMessage) {
        match msg.kind {
            MsgKind::TriggerAck => {
                if self.pending_trigger == Some(msg.seq) {
                    self.pending_trigger = None;
                    self.trigger_retrans.cancel(&mut self.queue);
                }
            }
            MsgKind::RefreshAck => {
                // Sequence numbers grow monotonically, so an ACK for the
                // pending announcement *or anything newer* retires the
                // retransmission cycle (the pending seq may have been
                // superseded by a later refresh while the cycle ran).
                if self
                    .pending_refresh
                    .is_some_and(|pending| msg.seq >= pending)
                {
                    self.pending_refresh = None;
                    self.refresh_retrans.cancel(&mut self.queue);
                }
            }
            MsgKind::RemovalAck => {
                if self.pending_removal {
                    self.pending_removal = false;
                    self.removal_retrans.cancel(&mut self.queue);
                }
            }
            MsgKind::RemovalNotice => {
                // The receiver removed our state even though we still hold
                // it: repair by re-installing.
                if self.sender_value.is_some() {
                    self.send_trigger();
                }
            }
            MsgKind::Trigger | MsgKind::Refresh | MsgKind::Removal | MsgKind::ExternalSignal => {}
        }
    }
}

#[cfg(test)]
mod reliable_refresh_tests {
    use super::*;
    use siganalytic::{ProtocolSpec, RefreshMode, SingleHopParams};

    const SS_RR: ProtocolSpec =
        ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));

    fn lossy_params() -> SingleHopParams {
        let mut p = SingleHopParams::kazaa_defaults()
            .with_mean_lifetime(300.0)
            .with_mean_update_interval(1e9); // isolate the refresh stream
        p.loss = 0.3;
        p
    }

    fn run(spec: ProtocolSpec, seed: u64) -> SessionMetrics {
        let cfg = SessionConfig::deterministic(spec, lossy_params());
        let mut rng = SimRng::new(seed);
        SingleHopSession::run(&cfg, &mut rng)
    }

    #[test]
    fn reliable_refresh_acks_and_retransmits() {
        SS_RR.validate().unwrap();
        let mut acked = 0u64;
        let mut refreshes_rr = 0u64;
        let mut refreshes_ss = 0u64;
        for seed in 0..10 {
            let rr = run(SS_RR, seed);
            acked += rr.messages.refresh_ack;
            refreshes_rr += rr.messages.refresh;
            let ss = run(ProtocolSpec::SS, seed);
            assert_eq!(ss.messages.refresh_ack, 0, "SS never acks refreshes");
            refreshes_ss += ss.messages.refresh;
        }
        assert!(acked > 0, "refresh ACKs must flow for SS+RR");
        // Lost refreshes are retransmitted, so SS+RR sends strictly more
        // refresh messages than SS over the same sample paths.
        assert!(
            refreshes_rr > refreshes_ss,
            "SS+RR ({refreshes_rr}) should retransmit beyond SS ({refreshes_ss})"
        );
    }

    #[test]
    fn refresh_retransmissions_still_fire_when_retrans_timer_exceeds_refresh_timer() {
        // Regression: each periodic refresh used to re-arm the retransmission
        // timer, so with R + slack ≥ T the retry was perpetually postponed
        // and never fired.  The retry cycle must run at its own cadence.
        let mut p = lossy_params();
        p.retrans_timer = 1.6 * p.refresh_timer; // R > T
        let cfg = SessionConfig::deterministic(SS_RR, p);
        let mut retransmitted = 0i64;
        let mut acks = 0u64;
        for seed in 0..10 {
            let mut rng = SimRng::new(seed);
            let m = SingleHopSession::run(&cfg, &mut rng);
            // Periodic refreshes alone would send ~lifetime/T; anything
            // beyond that (under 30% loss) is the retry cycle firing.
            let periodic_budget = (m.sender_lifetime / p.refresh_timer).ceil() as i64 + 1;
            retransmitted += m.messages.refresh as i64 - periodic_budget;
            acks += m.messages.refresh_ack;
        }
        assert!(acks > 0);
        assert!(
            retransmitted > 0,
            "no refresh retransmissions fired with R > T (starved retry cycle)"
        );
    }

    #[test]
    fn reliable_refresh_reduces_false_removals_under_loss() {
        let mut p = lossy_params();
        p.loss = 0.5;
        p.timeout_timer = 2.0 * p.refresh_timer;
        let mut ss_false = 0u64;
        let mut rr_false = 0u64;
        for seed in 0..30 {
            let mut rng = SimRng::new(seed);
            ss_false +=
                SingleHopSession::run(&SessionConfig::deterministic(ProtocolSpec::SS, p), &mut rng)
                    .false_removals;
            let mut rng = SimRng::new(seed);
            rr_false += SingleHopSession::run(&SessionConfig::deterministic(SS_RR, p), &mut rng)
                .false_removals;
        }
        assert!(ss_false > 0, "the operating point must stress SS");
        assert!(
            rr_false < ss_false,
            "retransmitted refreshes should cut false removals ({rr_false} vs {ss_false})"
        );
    }
}

#[cfg(test)]
mod retry_capacity_tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use siganalytic::{ProtocolSpec, SingleHopParams};
    use signet::CapacityModel;

    fn lossy_params() -> SingleHopParams {
        let mut p = SingleHopParams::kazaa_defaults()
            .with_mean_lifetime(300.0)
            .with_mean_update_interval(1e9);
        p.loss = 0.5;
        p
    }

    #[test]
    fn every_retry_policy_terminates_and_is_deterministic() {
        for policy in [
            RetryPolicy::Fixed,
            RetryPolicy::backoff(),
            RetryPolicy::jittered(),
        ] {
            for proto in [ProtocolSpec::SS_RT, ProtocolSpec::SS_RTR, ProtocolSpec::HS] {
                let cfg =
                    SessionConfig::deterministic(proto, lossy_params()).with_retry_policy(policy);
                for seed in 0..5u64 {
                    let mut rng_a = SimRng::new(seed);
                    let mut rng_b = SimRng::new(seed);
                    let a = SingleHopSession::run(&cfg, &mut rng_a);
                    let b = SingleHopSession::run(&cfg, &mut rng_b);
                    assert_eq!(a, b, "{proto} {} seed {seed}", policy.label());
                    assert!((0.0..=1.0).contains(&a.inconsistency));
                    assert!(a.receiver_lifetime >= a.sender_lifetime);
                }
            }
        }
    }

    #[test]
    fn backoff_sends_fewer_retransmissions_than_fixed_under_sustained_loss() {
        // A blackout covering the session start swallows the initial trigger
        // and every retry for 60 s; fixed-interval retries burn one message
        // every R = 0.06 s while backoff caps out at 8R, so backoff wastes
        // strictly fewer messages over the same blackout.
        let schedule = signet::FaultSchedule::outage(0.0, 60.0).unwrap();
        let mut p = lossy_params();
        p.loss = 0.0;
        let mut fixed_triggers = 0u64;
        let mut backoff_triggers = 0u64;
        for seed in 0..20u64 {
            let base =
                SessionConfig::deterministic(ProtocolSpec::SS_RT, p).with_fault_schedule(schedule);
            let mut rng = SimRng::new(seed);
            fixed_triggers += SingleHopSession::run(&base, &mut rng).messages.trigger;
            let backoff = base.with_retry_policy(RetryPolicy::backoff());
            let mut rng = SimRng::new(seed);
            backoff_triggers += SingleHopSession::run(&backoff, &mut rng).messages.trigger;
        }
        assert!(
            backoff_triggers < fixed_triggers,
            "backoff ({backoff_triggers}) should retry less than fixed ({fixed_triggers})"
        );
    }

    #[test]
    fn tight_receiver_capacity_causes_false_removals() {
        // Service slower than the refresh stream: the signaling queue
        // overflows, refreshes are dropped to overload, and the soft-state
        // receiver starts falsely timing out even on a loss-free link.
        let mut p = SingleHopParams::kazaa_defaults()
            .with_mean_lifetime(400.0)
            .with_mean_update_interval(1e9);
        p.loss = 0.0;
        p.false_signal_rate = 0.0;
        p.timeout_timer = 2.0 * p.refresh_timer;
        let tight = CapacityModel::limited(0.05, 1).unwrap(); // 20 s service
        let mut unlimited_false = 0u64;
        let mut limited_false = 0u64;
        for seed in 0..20u64 {
            let base = SessionConfig::deterministic(ProtocolSpec::SS, p);
            let mut rng = SimRng::new(seed);
            unlimited_false += SingleHopSession::run(&base, &mut rng).false_removals;
            let capped = base.with_capacity(tight);
            let mut rng = SimRng::new(seed);
            limited_false += SingleHopSession::run(&capped, &mut rng).false_removals;
        }
        assert_eq!(
            unlimited_false, 0,
            "loss-free unlimited runs never time out"
        );
        assert!(
            limited_false > 0,
            "an overloaded receiver must suffer false removals"
        );
    }

    #[test]
    fn unlimited_capacity_config_is_bit_identical() {
        for proto in ProtocolSpec::PAPER {
            let base = SessionConfig::deterministic(proto, lossy_params());
            let capped = base.with_capacity(CapacityModel::unlimited());
            for seed in 0..5u64 {
                let mut rng_a = SimRng::new(seed);
                let mut rng_b = SimRng::new(seed);
                assert_eq!(
                    SingleHopSession::run(&base, &mut rng_a),
                    SingleHopSession::run(&capped, &mut rng_b),
                    "{proto} seed {seed}"
                );
            }
        }
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use siganalytic::{ProtocolSpec, SingleHopParams};
    use signet::{FaultEvent, FaultSchedule};

    fn quiet_params() -> SingleHopParams {
        // No random loss, no updates, no external false signals: the only
        // dynamics are refreshes, timeouts and the injected faults.
        let mut p = SingleHopParams::kazaa_defaults()
            .with_mean_lifetime(300.0)
            .with_mean_update_interval(1e9);
        p.loss = 0.0;
        p.false_signal_rate = 0.0;
        p
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_no_schedule() {
        for proto in ProtocolSpec::PAPER {
            let base = SessionConfig::deterministic(proto, quiet_params());
            let scheduled = base.with_fault_schedule(FaultSchedule::none());
            for seed in 0..5u64 {
                let mut rng_a = SimRng::new(seed);
                let mut rng_b = SimRng::new(seed);
                assert_eq!(
                    SingleHopSession::run(&base, &mut rng_a),
                    SingleHopSession::run(&scheduled, &mut rng_b),
                    "{proto} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn outage_forces_soft_state_false_removal_but_not_hard_state() {
        // A 30 s blackout silences two timeout periods' worth of refreshes:
        // the soft-state receiver must time out (a false removal) and
        // re-install after the outage.  Hard state exchanges no messages in
        // steady state, so the same outage is invisible to it.
        let schedule = FaultSchedule::outage(30.0, 30.0).unwrap();
        let mut ss_false = 0u64;
        let mut hs_false = 0u64;
        let mut sampled = 0u32;
        for seed in 0..30u64 {
            let ss_cfg = SessionConfig::deterministic(ProtocolSpec::SS, quiet_params())
                .with_fault_schedule(schedule);
            let mut rng = SimRng::new(seed);
            let ss = SingleHopSession::run(&ss_cfg, &mut rng);
            if ss.sender_lifetime < 70.0 {
                continue; // session ended before the outage mattered
            }
            sampled += 1;
            ss_false += ss.false_removals;
            let hs_cfg = SessionConfig::deterministic(ProtocolSpec::HS, quiet_params())
                .with_fault_schedule(schedule);
            let mut rng = SimRng::new(seed);
            hs_false += SingleHopSession::run(&hs_cfg, &mut rng).false_removals;
        }
        assert!(sampled >= 5, "need sessions outliving the outage");
        assert!(
            ss_false >= u64::from(sampled),
            "every surviving SS session should suffer a false removal ({ss_false}/{sampled})"
        );
        assert_eq!(hs_false, 0, "an outage alone cannot remove hard state");
    }

    #[test]
    fn crash_wipe_heals_under_soft_state_but_orphans_hard_state() {
        // The paper's robustness claim in one test: after a crash wipes the
        // receiver, soft state is re-installed by the next refresh (~T), but
        // hard state stays missing until the sender's next explicit exchange
        // — with no updates scheduled, until the sender removes at the end.
        let schedule = FaultSchedule::none()
            .with(FaultEvent::CrashRestart {
                at: 50.0,
                state_policy: CrashStatePolicy::Wipe,
            })
            .unwrap();
        let mut ss_inc = 0.0f64;
        let mut hs_inc = 0.0f64;
        let mut sampled = 0u32;
        for seed in 0..30u64 {
            let ss_cfg = SessionConfig::deterministic(ProtocolSpec::SS, quiet_params())
                .with_fault_schedule(schedule);
            let mut rng = SimRng::new(seed);
            let ss = SingleHopSession::run(&ss_cfg, &mut rng);
            if ss.sender_lifetime < 100.0 {
                continue;
            }
            sampled += 1;
            ss_inc += ss.inconsistent_time;
            let hs_cfg = SessionConfig::deterministic(ProtocolSpec::HS, quiet_params())
                .with_fault_schedule(schedule);
            let mut rng = SimRng::new(seed);
            hs_inc += SingleHopSession::run(&hs_cfg, &mut rng).inconsistent_time;
        }
        assert!(sampled >= 5, "need sessions outliving the crash");
        assert!(
            hs_inc > 5.0 * ss_inc,
            "hard state should stay orphaned far longer than soft state \
             (HS {hs_inc:.1} s vs SS {ss_inc:.1} s over {sampled} sessions)"
        );
    }

    #[test]
    fn crash_preserve_changes_nothing() {
        let schedule = FaultSchedule::none()
            .with(FaultEvent::CrashRestart {
                at: 50.0,
                state_policy: CrashStatePolicy::Preserve,
            })
            .unwrap();
        for proto in [ProtocolSpec::SS, ProtocolSpec::HS] {
            let base = SessionConfig::deterministic(proto, quiet_params());
            let crashed = base.with_fault_schedule(schedule);
            for seed in 0..5u64 {
                let mut rng_a = SimRng::new(seed);
                let mut rng_b = SimRng::new(seed);
                assert_eq!(
                    SingleHopSession::run(&base, &mut rng_a),
                    SingleHopSession::run(&crashed, &mut rng_b),
                    "{proto} seed {seed}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siganalytic::{ProtocolSpec, SingleHopParams};
    use sigstats::OnlineStats;

    fn lossless_params() -> SingleHopParams {
        let mut p = SingleHopParams::kazaa_defaults();
        p.loss = 0.0;
        p
    }

    fn quick_params() -> SingleHopParams {
        // Short sessions keep unit tests fast.
        SingleHopParams::kazaa_defaults()
            .with_mean_lifetime(120.0)
            .with_mean_update_interval(20.0)
    }

    fn run_one(protocol: ProtocolSpec, params: SingleHopParams, seed: u64) -> SessionMetrics {
        let cfg = SessionConfig::deterministic(protocol, params);
        let mut rng = SimRng::new(seed);
        SingleHopSession::run(&cfg, &mut rng)
    }

    #[test]
    fn session_dispatch_is_table_derived_and_matches_predicates() {
        for proto in ProtocolSpec::PAPER {
            let cfg = SessionConfig::deterministic(proto, quick_params());
            let mut rng = SimRng::new(1);
            let session = SingleHopSession::new(&cfg, &mut rng, 0);
            assert_eq!(
                session.dispatch(),
                FsmDispatch::from_predicates(proto),
                "{proto}"
            );
        }
    }

    #[test]
    fn session_terminates_and_reports_sane_metrics() {
        for proto in ProtocolSpec::PAPER {
            for seed in 0..5u64 {
                let m = run_one(proto, quick_params(), seed);
                assert!((0.0..=1.0).contains(&m.inconsistency), "{proto}: {m:?}");
                assert!(m.receiver_lifetime >= m.sender_lifetime, "{proto}: {m:?}");
                assert!(m.sender_lifetime > 0.0);
                assert!(m.messages.signaling_total() > 0);
            }
        }
    }

    #[test]
    fn deterministic_given_same_seed() {
        let a = run_one(ProtocolSpec::SS_ER, quick_params(), 99);
        let b = run_one(ProtocolSpec::SS_ER, quick_params(), 99);
        assert_eq!(a, b);
        let c = run_one(ProtocolSpec::SS_ER, quick_params(), 100);
        assert_ne!(
            a, c,
            "different seeds should explore different sample paths"
        );
    }

    #[test]
    fn lossless_channel_keeps_soft_state_nearly_consistent() {
        // With no loss and explicit removal, inconsistency is only the
        // propagation delay of setup/update/removal messages.
        for proto in [ProtocolSpec::SS_ER, ProtocolSpec::SS_RTR, ProtocolSpec::HS] {
            let mut stats = OnlineStats::new();
            for seed in 0..20u64 {
                let m = run_one(proto, lossless_params().with_mean_lifetime(300.0), seed);
                stats.push(m.inconsistency);
            }
            assert!(
                stats.mean() < 0.01,
                "{proto}: mean inconsistency {} too high for a lossless channel",
                stats.mean()
            );
        }
    }

    #[test]
    fn pure_soft_state_pays_the_timeout_penalty_on_removal() {
        // Under SS the orphaned state lives ~τ after the sender leaves, so
        // with a 120 s session the inconsistency is roughly τ/(lifetime+τ).
        let mut ss = OnlineStats::new();
        let mut sser = OnlineStats::new();
        for seed in 0..40u64 {
            ss.push(
                run_one(
                    ProtocolSpec::SS,
                    lossless_params().with_mean_lifetime(120.0),
                    seed,
                )
                .inconsistency,
            );
            sser.push(
                run_one(
                    ProtocolSpec::SS_ER,
                    lossless_params().with_mean_lifetime(120.0),
                    seed,
                )
                .inconsistency,
            );
        }
        assert!(
            ss.mean() > 5.0 * sser.mean(),
            "SS ({}) should be much worse than SS+ER ({}) for short sessions",
            ss.mean(),
            sser.mean()
        );
        // And the orphan lives about one timeout: I ≈ 15/135 ≈ 0.11.
        assert!(
            ss.mean() > 0.05 && ss.mean() < 0.25,
            "SS mean = {}",
            ss.mean()
        );
    }

    #[test]
    fn hard_state_sends_fewest_messages() {
        let mut per_proto: Vec<(ProtocolSpec, f64)> = Vec::with_capacity(ProtocolSpec::PAPER.len());
        for proto in ProtocolSpec::PAPER {
            let mut total = 0u64;
            for seed in 0..10u64 {
                total += run_one(proto, quick_params(), seed)
                    .messages
                    .signaling_total();
            }
            per_proto.push((proto, total as f64 / 10.0));
        }
        let hs = per_proto
            .iter()
            .find(|(p, _)| *p == ProtocolSpec::HS)
            .unwrap()
            .1;
        for (p, msgs) in &per_proto {
            if *p != ProtocolSpec::HS {
                assert!(
                    hs < *msgs,
                    "HS ({hs}) should send fewer messages than {p} ({msgs})"
                );
            }
        }
    }

    #[test]
    fn soft_state_message_count_tracks_refresh_rate() {
        // Refresh messages dominate; roughly lifetime / T of them are sent.
        let params = lossless_params()
            .with_mean_lifetime(200.0)
            .with_mean_update_interval(1e9);
        let mut refreshes = OnlineStats::new();
        let mut lifetimes = OnlineStats::new();
        for seed in 0..30u64 {
            let m = run_one(ProtocolSpec::SS, params, seed);
            refreshes.push(m.messages.refresh as f64);
            lifetimes.push(m.sender_lifetime);
        }
        let expected = lifetimes.mean() / params.refresh_timer;
        let ratio = refreshes.mean() / expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "refresh count {} vs expected {expected}",
            refreshes.mean()
        );
    }

    #[test]
    fn reliable_triggers_are_acked_and_retransmitted_under_loss() {
        let mut p = quick_params();
        p.loss = 0.4;
        let mut acks = 0u64;
        let mut triggers = 0u64;
        let mut updates = 0u64;
        for seed in 0..20u64 {
            let m = run_one(ProtocolSpec::SS_RT, p, seed);
            acks += m.messages.trigger_ack;
            triggers += m.messages.trigger;
            updates += m.updates;
        }
        assert!(acks > 0, "ACKs must flow for SS+RT");
        // Retransmissions mean strictly more triggers than setup+updates.
        assert!(
            triggers > updates + 20,
            "triggers {triggers} vs updates {updates}"
        );
        // Best-effort SS never sends ACKs.
        let m = run_one(ProtocolSpec::SS, p, 7);
        assert_eq!(m.messages.trigger_ack, 0);
        assert_eq!(m.messages.removal_ack, 0);
    }

    #[test]
    fn explicit_removal_is_sent_only_by_removal_protocols() {
        for proto in ProtocolSpec::PAPER {
            let m = run_one(proto, quick_params(), 3);
            if proto.uses_explicit_removal() {
                assert!(m.messages.removal >= 1, "{proto}");
            } else {
                assert_eq!(m.messages.removal, 0, "{proto}");
            }
        }
    }

    #[test]
    fn false_removals_occur_under_extreme_loss_for_pure_soft_state() {
        let mut p = quick_params().with_mean_lifetime(500.0);
        p.loss = 0.6;
        p.timeout_timer = 2.0 * p.refresh_timer;
        let mut false_removals = 0u64;
        for seed in 0..20u64 {
            false_removals += run_one(ProtocolSpec::SS, p, seed).false_removals;
        }
        assert!(
            false_removals > 0,
            "with 60% loss some state timeouts must be false removals"
        );
    }

    #[test]
    fn hard_state_recovers_from_false_external_signal() {
        let mut p = lossless_params().with_mean_lifetime(2000.0);
        p.false_signal_rate = 0.01; // roughly 20 false signals per session
        let mut total_false = 0u64;
        let mut inconsistency = OnlineStats::new();
        for seed in 0..10u64 {
            let m = run_one(ProtocolSpec::HS, p, seed);
            total_false += m.false_removals;
            inconsistency.push(m.inconsistency);
        }
        assert!(total_false > 0, "false signals must cause removals");
        // Recovery via notification + retrigger keeps inconsistency small.
        assert!(
            inconsistency.mean() < 0.02,
            "mean = {}",
            inconsistency.mean()
        );
    }

    #[test]
    fn exponential_timer_mode_also_terminates() {
        for proto in ProtocolSpec::PAPER {
            let cfg = SessionConfig::exponential(proto, quick_params());
            let mut rng = SimRng::new(17);
            let m = SingleHopSession::run(&cfg, &mut rng);
            assert!((0.0..=1.0).contains(&m.inconsistency));
            assert!(m.receiver_lifetime > 0.0);
        }
    }

    #[test]
    fn trace_records_message_flow() {
        let cfg = SessionConfig::deterministic(ProtocolSpec::SS_ER, quick_params());
        let mut rng = SimRng::new(5);
        let (_, trace) = SingleHopSession::run_traced(&cfg, &mut rng, 10_000);
        assert!(trace.is_enabled());
        assert!(!trace.with_tag("send").is_empty());
        assert!(!trace.with_tag("recv").is_empty());
        let rendered = trace.render();
        assert!(rendered.contains("TRIGGER"));
        assert!(rendered.contains("REMOVAL"));
    }

    #[test]
    fn bursty_loss_hurts_soft_state_more_than_independent_loss() {
        // A Gilbert-Elliott channel with the same mean loss concentrates
        // drops into bursts.  A burst silences several consecutive refreshes,
        // so the receiver's state stays (falsely) removed for the whole burst
        // instead of the single refresh interval an isolated loss costs —
        // pure soft state is therefore much more exposed to correlated loss
        // even at an identical average loss rate.
        use signet::LossModel;
        let mut params = quick_params().with_mean_lifetime(600.0);
        params.loss = 0.2;
        params.timeout_timer = 2.0 * params.refresh_timer;
        let independent = SessionConfig::deterministic(ProtocolSpec::SS, params);
        // Mean loss = p_g2b/(p_g2b+p_b2g) * p_bad = 0.25 * 0.8 = 0.2, but
        // losses arrive in long runs.
        let bursty = independent.with_loss_model(LossModel::GilbertElliott {
            p_good: 0.0,
            p_bad: 0.8,
            p_g2b: 0.05,
            p_b2g: 0.15,
        });
        let outage_time = |cfg: &SessionConfig| -> f64 {
            (0..40u64)
                .map(|seed| {
                    let mut rng = SimRng::new(seed);
                    SingleHopSession::run(cfg, &mut rng).inconsistent_time
                })
                .sum()
        };
        let independent_outage = outage_time(&independent);
        let bursty_outage = outage_time(&bursty);
        assert!(
            bursty_outage > 1.5 * independent_outage,
            "bursty loss should cause much longer outages ({bursty_outage:.1} s vs {independent_outage:.1} s)"
        );
    }

    #[test]
    fn receiver_lifetime_reflects_removal_mechanism() {
        // SS holds orphaned state for about τ beyond the sender lifetime,
        // SS+ER only for about one channel delay.
        let params = lossless_params().with_mean_lifetime(100.0);
        let mut ss_extra = OnlineStats::new();
        let mut er_extra = OnlineStats::new();
        for seed in 0..30u64 {
            let ss = run_one(ProtocolSpec::SS, params, seed);
            ss_extra.push(ss.receiver_lifetime - ss.sender_lifetime);
            let er = run_one(ProtocolSpec::SS_ER, params, seed);
            er_extra.push(er.receiver_lifetime - er.sender_lifetime);
        }
        // The timeout timer was last restarted by a refresh, so the orphan
        // lives between τ - T and τ (+ one delivery delay) after the sender
        // departs.
        assert!(
            ss_extra.mean() > params.timeout_timer - params.refresh_timer
                && ss_extra.mean() < params.timeout_timer + 1.0,
            "SS orphan time {} should be within (τ-T, τ] = ({}, {}]",
            ss_extra.mean(),
            params.timeout_timer - params.refresh_timer,
            params.timeout_timer
        );
        assert!(
            er_extra.mean() < 3.0 * params.delay,
            "SS+ER orphan time {} should be ≈ Δ",
            er_extra.mean()
        );
    }
}
