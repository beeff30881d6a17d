//! Discrete-event simulation of the multi-hop signaling scenario
//! (Section III-B).
//!
//! A signaling sender maintains one piece of state at every node of a chain
//! of `K` receivers.  The sender's state lives for the whole run; updates
//! arrive as a Poisson process and must propagate hop by hop.  Soft-state
//! protocols additionally refresh the whole chain periodically and every
//! receiver times state out when refreshes stop arriving; SS+RT adds
//! hop-by-hop reliable triggers; HS drops refresh/timeout entirely and relies
//! on hop-by-hop reliable triggers plus an external failure detector whose
//! false alarms wipe the chain and force a recovery.
//!
//! Every hop traversal counts as one signaling message, matching the paper's
//! multi-hop overhead accounting.

use crate::config::MultiHopSimConfig;
use crate::metrics::{MessageCounts, MultiHopRunMetrics};
use crate::single_hop::RETRANS_SLACK;
use siganalytic::ProtocolSpec;
use signet::{DelayModel, MsgKind, Path, SignalMessage, StateValue, TransmitOutcome};
use sigstats::TimeWeighted;
use simcore::{Dist, EventId, EventQueue, SimRng, SimTime, Timer};

/// Safety cap on processed events per run.
const MAX_EVENTS: u64 = 50_000_000;

#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// A forward message arrives at receiver `node` (1-indexed).
    ForwardArrive { msg: SignalMessage, node: usize },
    /// A backward message (ACK / notice) arrives at `node` (0 = the sender).
    BackwardArrive { msg: SignalMessage, node: usize },
    /// The sender's refresh timer fired.
    RefreshTimer,
    /// The sender updates its state.
    SenderUpdate,
    /// Receiver `node`'s state-timeout timer fired.
    NodeTimeout { node: usize },
    /// The node upstream of `hop` retransmits its pending trigger.
    HopRetrans { hop: usize },
    /// The external failure detector falsely fires at receiver `node` (HS).
    FalseSignal { node: usize },
    /// A failure notification reaches receiver `node`, which removes state.
    NotifiedRemove { node: usize },
    /// The failure notification reaches the sender, which re-installs state.
    SenderRecover,
    /// End of the measured horizon.
    End,
}

/// A runnable multi-hop signaling simulation.
pub struct MultiHopSession<'a> {
    cfg: &'a MultiHopSimConfig,
    rng: &'a mut SimRng,
    queue: EventQueue<Event>,
    forward: Path,
    backward: Path,

    refresh_dist: Dist,
    timeout_dist: Dist,
    retrans_dist: Dist,

    sender_value: StateValue,
    node_values: Vec<Option<StateValue>>,
    /// Per-hop pending reliable message (value awaiting a hop-level ACK).
    pending: Vec<Option<StateValue>>,
    /// The kind (trigger or refresh) of each hop's pending message, so
    /// retransmissions resend what was lost.
    pending_kind: Vec<MsgKind>,
    hop_retrans: Vec<Timer>,
    node_timeout: Vec<Timer>,
    refresh_timer: Timer,

    counts: MessageCounts,
    per_node_inconsistent: Vec<TimeWeighted>,
    any_inconsistent: TimeWeighted,
    updates: u64,
    finished: bool,
}

impl<'a> MultiHopSession<'a> {
    /// Runs one multi-hop simulation and returns its metrics.
    pub fn run(cfg: &MultiHopSimConfig, rng: &mut SimRng) -> MultiHopRunMetrics {
        let mut sim = MultiHopSession::new(cfg, rng);
        sim.start();
        let mut processed = 0u64;
        while !sim.finished && processed < MAX_EVENTS {
            let Some(scheduled) = sim.queue.pop() else {
                break;
            };
            sim.handle(scheduled.time, scheduled.id, scheduled.event);
            processed += 1;
        }
        sim.finish()
    }

    fn new(cfg: &'a MultiHopSimConfig, rng: &'a mut SimRng) -> Self {
        let k = cfg.params.hops;
        let delay = DelayModel::from_mode(cfg.delay_mode, cfg.params.delay);
        Self {
            cfg,
            rng,
            queue: EventQueue::new(),
            forward: Path::homogeneous(k, cfg.params.loss, delay).with_fault_schedule(cfg.faults),
            backward: Path::homogeneous(k, cfg.params.loss, delay).with_fault_schedule(cfg.faults),
            refresh_dist: cfg.timer_mode.dist(cfg.params.refresh_timer),
            timeout_dist: cfg.timer_mode.dist(cfg.params.timeout_timer),
            retrans_dist: cfg.timer_mode.dist(cfg.params.retrans_timer),
            sender_value: 1,
            node_values: vec![Some(1); k],
            pending: vec![None; k],
            pending_kind: vec![MsgKind::Trigger; k],
            hop_retrans: vec![Timer::new(); k],
            node_timeout: vec![Timer::new(); k],
            refresh_timer: Timer::new(),
            counts: MessageCounts::default(),
            per_node_inconsistent: vec![TimeWeighted::new(0.0, 0.0); k],
            any_inconsistent: TimeWeighted::new(0.0, 0.0),
            updates: 0,
            finished: false,
        }
    }

    fn protocol(&self) -> ProtocolSpec {
        self.cfg.protocol
    }

    fn k(&self) -> usize {
        self.cfg.params.hops
    }

    fn now(&self) -> f64 {
        self.queue.now().as_secs()
    }

    fn start(&mut self) {
        // The chain starts fully consistent (value 1 installed everywhere).
        if self.protocol().uses_refresh() {
            let d = self.refresh_dist.sample(self.rng);
            self.refresh_timer
                .arm(&mut self.queue, d, Event::RefreshTimer);
        }
        if self.protocol().uses_state_timeout() {
            for node in 1..=self.k() {
                let d = self.timeout_dist.sample(self.rng);
                self.node_timeout[node - 1].arm(&mut self.queue, d, Event::NodeTimeout { node });
            }
        }
        if self.protocol().has_external_detector() {
            for node in 1..=self.k() {
                self.schedule_false_signal(node);
            }
        }
        self.schedule_next_update();
        self.queue
            .schedule_at(SimTime::from_secs(self.cfg.horizon), Event::End);
    }

    fn schedule_next_update(&mut self) {
        let dt = self.rng.exponential_rate(self.cfg.params.update_rate);
        if dt.is_finite() {
            self.queue.schedule_in(dt, Event::SenderUpdate);
        }
    }

    fn schedule_false_signal(&mut self, node: usize) {
        if self.cfg.params.false_signal_rate > 0.0 {
            let dt = self.rng.exponential_rate(self.cfg.params.false_signal_rate);
            if dt.is_finite() {
                self.queue.schedule_in(dt, Event::FalseSignal { node });
            }
        }
    }

    fn finish(self) -> MultiHopRunMetrics {
        let horizon = self.cfg.horizon;
        MultiHopRunMetrics {
            end_to_end_inconsistency: self.any_inconsistent.positive_fraction_until(horizon),
            per_hop_inconsistency: self
                .per_node_inconsistent
                .iter()
                .map(|tw| tw.positive_fraction_until(horizon))
                .collect(),
            message_rate: self.counts.signaling_total() as f64 / horizon,
            messages: self.counts,
            duration: horizon,
            updates: self.updates,
        }
    }

    // ------------------------------------------------------------------
    // Transmission helpers.
    // ------------------------------------------------------------------

    /// Sends a forward message on hop `hop` (from node `hop` toward node
    /// `hop + 1`, where node 0 is the sender).
    fn send_forward(&mut self, hop: usize, kind: MsgKind, value: StateValue, seq: u64) {
        self.counts.record(kind);
        let now = self.now();
        let mut msg = SignalMessage::new(kind, value, seq);
        msg.hop = hop;
        if let TransmitOutcome::Delivered { arrival } =
            self.forward.transmit(hop, self.rng, now, kind)
        {
            self.queue.schedule_at(
                SimTime::from_secs(arrival),
                Event::ForwardArrive { msg, node: hop + 1 },
            );
        }
    }

    /// Sends a backward message on hop `hop` (from node `hop + 1` toward node
    /// `hop`).
    fn send_backward(&mut self, hop: usize, kind: MsgKind, value: StateValue, seq: u64) {
        self.counts.record(kind);
        let now = self.now();
        let mut msg = SignalMessage::new(kind, value, seq);
        msg.hop = hop;
        if let TransmitOutcome::Delivered { arrival } =
            self.backward.transmit(hop, self.rng, now, kind)
        {
            self.queue.schedule_at(
                SimTime::from_secs(arrival),
                Event::BackwardArrive { msg, node: hop },
            );
        }
    }

    /// Originates (or forwards) a trigger on hop `hop`, with hop-by-hop
    /// reliability when the protocol provides it.
    fn push_trigger(&mut self, hop: usize, value: StateValue) {
        self.push_forward(hop, MsgKind::Trigger, value);
    }

    /// Originates (or forwards) a forward message on hop `hop`, arming the
    /// hop's retransmission timer when the spec makes that kind reliable:
    /// triggers under reliable triggers, refreshes under reliable refresh —
    /// and, with best-effort triggers, the reliable refresh loop also
    /// carries triggers (retransmitting them as refreshes), which is the
    /// repair behavior the analytic slow-path rate credits those specs.
    fn push_forward(&mut self, hop: usize, kind: MsgKind, value: StateValue) {
        self.send_forward(hop, kind, value, 0);
        let reliable = match kind {
            MsgKind::Trigger => {
                self.protocol().reliable_triggers() || self.protocol().reliable_refresh()
            }
            MsgKind::Refresh => self.protocol().reliable_refresh(),
            _ => false,
        };
        let retrans_kind = if kind == MsgKind::Trigger && !self.protocol().reliable_triggers() {
            MsgKind::Refresh
        } else {
            kind
        };
        // Take over the hop's pending slot only when this message carries at
        // least the value already awaiting an ACK: a stale forwarded refresh
        // must not displace a newer pending trigger, or the hop would
        // retransmit the old value and a matching ACK would cancel the
        // newer value's repair entirely.  (Forwarded triggers always carry a
        // news-checked, strictly growing value, so this guard never fires
        // for the paper presets.)
        if reliable && self.pending[hop].is_none_or(|pending| value >= pending) {
            self.pending[hop] = Some(value);
            self.pending_kind[hop] = retrans_kind;
            // Reliable triggers restart the hop's retry cycle on every push
            // (each trigger is fresh news).  The refresh-reliability paths
            // instead arm only an idle timer: re-arming on every periodic
            // refresh would perpetually postpone the retry whenever
            // `R + slack ≥ T` and starve hop retransmissions.
            let restart_cycle = kind == MsgKind::Trigger && self.protocol().reliable_triggers();
            if restart_cycle || !self.hop_retrans[hop].is_armed() {
                let d = self.retrans_dist.sample(self.rng) + RETRANS_SLACK;
                self.hop_retrans[hop].arm(&mut self.queue, d, Event::HopRetrans { hop });
            }
        }
    }

    fn restart_node_timeout(&mut self, node: usize) {
        if self.protocol().uses_state_timeout() {
            let d = self.timeout_dist.sample(self.rng);
            self.node_timeout[node - 1].arm(&mut self.queue, d, Event::NodeTimeout { node });
        }
    }

    fn refresh_consistency(&mut self) {
        let now = self.now();
        let mut any = false;
        for (i, v) in self.node_values.iter().enumerate() {
            let inconsistent = *v != Some(self.sender_value);
            self.per_node_inconsistent[i].set_bool(now, inconsistent);
            any |= inconsistent;
        }
        self.any_inconsistent.set_bool(now, any);
    }

    // ------------------------------------------------------------------
    // Event handling.
    // ------------------------------------------------------------------

    fn handle(&mut self, _time: SimTime, id: EventId, event: Event) {
        match event {
            Event::End => self.finished = true,
            Event::SenderUpdate => self.on_sender_update(),
            Event::RefreshTimer => self.on_refresh_timer(id),
            Event::NodeTimeout { node } => self.on_node_timeout(id, node),
            Event::HopRetrans { hop } => self.on_hop_retrans(id, hop),
            Event::FalseSignal { node } => self.on_false_signal(node),
            Event::NotifiedRemove { node } => self.on_notified_remove(node),
            Event::SenderRecover => self.on_sender_recover(),
            Event::ForwardArrive { msg, node } => self.on_forward_arrive(msg, node),
            Event::BackwardArrive { msg, node } => self.on_backward_arrive(msg, node),
        }
    }

    fn on_sender_update(&mut self) {
        self.sender_value += 1;
        self.updates += 1;
        self.push_trigger(0, self.sender_value);
        if self.protocol().uses_refresh() {
            // Explicit triggers reset the refresh cycle.
            let d = self.refresh_dist.sample(self.rng);
            self.refresh_timer
                .arm(&mut self.queue, d, Event::RefreshTimer);
        }
        self.refresh_consistency();
        self.schedule_next_update();
    }

    fn on_refresh_timer(&mut self, id: EventId) {
        if !self.refresh_timer.on_fired(id) {
            return;
        }
        if self.protocol().uses_refresh() {
            self.push_forward(0, MsgKind::Refresh, self.sender_value);
            let d = self.refresh_dist.sample(self.rng);
            self.refresh_timer
                .arm(&mut self.queue, d, Event::RefreshTimer);
        }
    }

    fn on_node_timeout(&mut self, id: EventId, node: usize) {
        if !self.node_timeout[node - 1].on_fired(id) {
            return;
        }
        if self.node_values[node - 1].is_some() {
            self.node_values[node - 1] = None;
            self.refresh_consistency();
        }
    }

    fn on_hop_retrans(&mut self, id: EventId, hop: usize) {
        if !self.hop_retrans[hop].on_fired(id) {
            return;
        }
        if let Some(value) = self.pending[hop] {
            self.send_forward(hop, self.pending_kind[hop], value, 0);
            let d = self.retrans_dist.sample(self.rng) + RETRANS_SLACK;
            self.hop_retrans[hop].arm(&mut self.queue, d, Event::HopRetrans { hop });
        }
    }

    fn on_false_signal(&mut self, node: usize) {
        // An out-of-band failure detector wrongly reports that the sender is
        // gone.  The detecting receiver removes its state and notifies every
        // other receiver and the sender; notifications propagate hop by hop.
        self.counts.record(MsgKind::ExternalSignal);
        if self.node_values[node - 1].is_some() {
            self.node_values[node - 1] = None;
            let now = self.now();
            for other in 1..=self.k() {
                if other == node {
                    continue;
                }
                self.counts.record(MsgKind::RemovalNotice);
                let dist = node.abs_diff(other) as f64 * self.cfg.params.delay;
                self.queue.schedule_at(
                    SimTime::from_secs(now + dist),
                    Event::NotifiedRemove { node: other },
                );
            }
            self.counts.record(MsgKind::RemovalNotice);
            self.queue.schedule_at(
                SimTime::from_secs(now + node as f64 * self.cfg.params.delay),
                Event::SenderRecover,
            );
            self.refresh_consistency();
        }
        self.schedule_false_signal(node);
    }

    fn on_notified_remove(&mut self, node: usize) {
        if self.node_values[node - 1].is_some() {
            self.node_values[node - 1] = None;
            self.refresh_consistency();
        }
    }

    fn on_sender_recover(&mut self) {
        // The sender learned that the receivers dropped its state; it
        // re-installs with a fresh trigger.
        self.push_trigger(0, self.sender_value);
        self.refresh_consistency();
    }

    fn on_forward_arrive(&mut self, msg: SignalMessage, node: usize) {
        let idx = node - 1;
        match msg.kind {
            MsgKind::Trigger | MsgKind::Refresh => {
                let previous = self.node_values[idx];
                let is_news = previous.is_none_or(|v| msg.value > v);
                if is_news {
                    self.node_values[idx] = Some(msg.value);
                }
                self.restart_node_timeout(node);
                if msg.kind == MsgKind::Trigger && self.protocol().reliable_triggers() {
                    self.send_backward(node - 1, MsgKind::TriggerAck, msg.value, msg.seq);
                } else if self.protocol().reliable_refresh() {
                    // Reliable refresh acknowledges the whole state stream
                    // hop by hop (triggers too, when they have no ACK
                    // machinery of their own).
                    self.send_backward(node - 1, MsgKind::RefreshAck, msg.value, msg.seq);
                }
                // Forward down the chain: refreshes always travel end to end
                // (reliable refreshes hop by hop with ACKs); triggers are
                // forwarded when they carry news for the next hop (a
                // duplicate retransmission is absorbed here).
                if node < self.k() {
                    match msg.kind {
                        MsgKind::Refresh => self.push_forward(node, MsgKind::Refresh, msg.value),
                        MsgKind::Trigger if is_news => self.push_trigger(node, msg.value),
                        _ => {}
                    }
                }
                self.refresh_consistency();
            }
            // Removal-related and backward kinds do not occur on the forward
            // path in the multi-hop scenario (state is never removed by the
            // sender).
            _ => {}
        }
    }

    fn on_backward_arrive(&mut self, msg: SignalMessage, node: usize) {
        if matches!(msg.kind, MsgKind::TriggerAck | MsgKind::RefreshAck) {
            // `node` is the upstream endpoint of hop `node` (0 = sender).
            if let Some(pending) = self.pending[node] {
                if msg.value >= pending {
                    self.pending[node] = None;
                    self.hop_retrans[node].cancel(&mut self.queue);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siganalytic::{MultiHopParams, RefreshMode};

    fn quick_params(hops: usize) -> MultiHopParams {
        MultiHopParams::reservation_defaults().with_hops(hops)
    }

    fn run(
        protocol: ProtocolSpec,
        params: MultiHopParams,
        horizon: f64,
        seed: u64,
    ) -> MultiHopRunMetrics {
        let cfg = MultiHopSimConfig::deterministic(protocol, params).with_horizon(horizon);
        let mut rng = SimRng::new(seed);
        MultiHopSession::run(&cfg, &mut rng)
    }

    #[test]
    fn run_terminates_at_horizon_with_sane_metrics() {
        for proto in ProtocolSpec::PAPER_MULTI_HOP {
            let m = run(proto, quick_params(5), 600.0, 1);
            assert_eq!(m.duration, 600.0);
            assert_eq!(m.per_hop_inconsistency.len(), 5);
            assert!((0.0..=1.0).contains(&m.end_to_end_inconsistency), "{proto}");
            for h in &m.per_hop_inconsistency {
                assert!((0.0..=1.0).contains(h), "{proto}");
            }
            assert!(m.message_rate > 0.0, "{proto}");
            assert!(m.updates > 0, "{proto}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(ProtocolSpec::SS_RT, quick_params(4), 300.0, 42);
        let b = run(ProtocolSpec::SS_RT, quick_params(4), 300.0, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical() {
        let base =
            MultiHopSimConfig::deterministic(ProtocolSpec::SS, quick_params(4)).with_horizon(300.0);
        let scheduled = base.with_fault_schedule(signet::FaultSchedule::none());
        let mut rng_a = SimRng::new(3);
        let mut rng_b = SimRng::new(3);
        assert_eq!(
            MultiHopSession::run(&base, &mut rng_a),
            MultiHopSession::run(&scheduled, &mut rng_b)
        );
    }

    #[test]
    fn path_outage_cascades_timeouts_down_the_chain() {
        // Blacking out every hop for several timeout periods must push the
        // whole soft-state chain into timeout (the avalanche), making the
        // run far more inconsistent than the fault-free control.
        let mut p = quick_params(5);
        p.loss = 0.0;
        let schedule = signet::FaultSchedule::outage(100.0, 60.0).unwrap();
        let base = MultiHopSimConfig::deterministic(ProtocolSpec::SS, p).with_horizon(400.0);
        let faulty = base.with_fault_schedule(schedule);
        let mut rng = SimRng::new(11);
        let control = MultiHopSession::run(&base, &mut rng);
        let mut rng = SimRng::new(11);
        let outaged = MultiHopSession::run(&faulty, &mut rng);
        assert!(
            outaged.end_to_end_inconsistency > control.end_to_end_inconsistency + 0.05,
            "outage should add inconsistency: {} vs control {}",
            outaged.end_to_end_inconsistency,
            control.end_to_end_inconsistency
        );
    }

    #[test]
    fn far_hops_are_more_inconsistent() {
        let m = run(ProtocolSpec::SS, quick_params(10), 4000.0, 7);
        let near = m.per_hop_inconsistency[0];
        let far = m.per_hop_inconsistency[9];
        assert!(
            far > near,
            "hop 10 ({far}) should be worse than hop 1 ({near})"
        );
        // End-to-end inconsistency is at least the farthest hop's (an
        // upstream node can also be inconsistent on its own, e.g. right
        // after it times out while downstream timers have not yet fired).
        assert!(m.end_to_end_inconsistency >= far - 1e-9);
    }

    #[test]
    fn lossless_chain_stays_consistent_between_updates() {
        let mut p = quick_params(6);
        p.loss = 0.0;
        let m = run(ProtocolSpec::SS, p, 2000.0, 3);
        // Only the propagation delay of each update contributes: at most a
        // few tenths of a percent.
        assert!(
            m.end_to_end_inconsistency < 0.02,
            "inconsistency = {}",
            m.end_to_end_inconsistency
        );
    }

    #[test]
    fn reliable_triggers_reduce_multi_hop_inconsistency() {
        let mut p = quick_params(10);
        p.loss = 0.1;
        let ss = run(ProtocolSpec::SS, p, 4000.0, 11);
        let ss_rt = run(ProtocolSpec::SS_RT, p, 4000.0, 11);
        assert!(
            ss_rt.end_to_end_inconsistency < ss.end_to_end_inconsistency,
            "SS+RT ({}) should beat SS ({})",
            ss_rt.end_to_end_inconsistency,
            ss.end_to_end_inconsistency
        );
    }

    #[test]
    fn hard_state_sends_far_fewer_messages_than_soft_state() {
        let ss = run(ProtocolSpec::SS, quick_params(10), 2000.0, 5);
        let hs = run(ProtocolSpec::HS, quick_params(10), 2000.0, 5);
        assert!(hs.message_rate < 0.5 * ss.message_rate);
        assert_eq!(hs.messages.refresh, 0);
        assert!(ss.messages.refresh > 0);
    }

    #[test]
    fn refresh_traffic_scales_with_hop_count() {
        let short = run(ProtocolSpec::SS, quick_params(2), 1000.0, 9);
        let long = run(ProtocolSpec::SS, quick_params(12), 1000.0, 9);
        assert!(
            long.messages.refresh as f64 > 3.0 * short.messages.refresh as f64,
            "refresh hop-transmissions must grow with the chain length"
        );
    }

    #[test]
    fn acks_flow_only_for_reliable_protocols() {
        let ss = run(ProtocolSpec::SS, quick_params(5), 1000.0, 2);
        assert_eq!(ss.messages.trigger_ack, 0);
        let rt = run(ProtocolSpec::SS_RT, quick_params(5), 1000.0, 2);
        assert!(rt.messages.trigger_ack > 0);
        let hs = run(ProtocolSpec::HS, quick_params(5), 1000.0, 2);
        assert!(hs.messages.trigger_ack > 0);
    }

    #[test]
    fn hs_false_signals_wipe_and_recover_the_chain() {
        let mut p = quick_params(5);
        p.loss = 0.0;
        p.false_signal_rate = 0.005; // ~10 events per node per 2000 s
        let m = run(ProtocolSpec::HS, p, 2000.0, 13);
        assert!(m.messages.external_signal > 0);
        assert!(m.messages.removal_notice > 0);
        // Recovery is quick (notification + re-trigger), so inconsistency
        // stays low even with many false alarms.
        assert!(
            m.end_to_end_inconsistency < 0.05,
            "inconsistency = {}",
            m.end_to_end_inconsistency
        );
    }

    #[test]
    fn exponential_timer_mode_runs() {
        let cfg =
            MultiHopSimConfig::exponential(ProtocolSpec::SS, quick_params(4)).with_horizon(500.0);
        let mut rng = SimRng::new(21);
        let m = MultiHopSession::run(&cfg, &mut rng);
        assert!((0.0..=1.0).contains(&m.end_to_end_inconsistency));
    }

    #[test]
    fn reliable_refresh_spec_runs_hop_by_hop() {
        // A non-paper composition: soft state whose refreshes are
        // hop-by-hop acknowledged and retransmitted.
        let ss_rr = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        ss_rr.validate().unwrap();
        let mut p = quick_params(6);
        p.loss = 0.2;
        let cfg = MultiHopSimConfig::deterministic(ss_rr, p).with_horizon(1500.0);
        let mut rng = SimRng::new(23);
        let rr = MultiHopSession::run(&cfg, &mut rng);
        assert!(rr.messages.refresh_ack > 0, "refresh ACKs must flow");
        assert!((0.0..=1.0).contains(&rr.end_to_end_inconsistency));
        // SS on the same channel sends no refresh ACKs and, with losses
        // unrepaired hop by hop, is more inconsistent at the far end.
        let ss = run(ProtocolSpec::SS, p, 1500.0, 23);
        assert_eq!(ss.messages.refresh_ack, 0);
        assert!(
            rr.per_hop_inconsistency[5] < ss.per_hop_inconsistency[5],
            "SS+RR ({}) should beat SS ({}) at the far hop",
            rr.per_hop_inconsistency[5],
            ss.per_hop_inconsistency[5]
        );
    }

    #[test]
    fn timeouts_cascade_when_refreshes_stop_flowing() {
        // With an extreme loss rate most refreshes never reach the far end of
        // the chain, so far nodes spend a large fraction of time timed out.
        let mut p = quick_params(8);
        p.loss = 0.5;
        p.update_rate = 1.0 / 300.0;
        let m = run(ProtocolSpec::SS, p, 3000.0, 17);
        let far = m.per_hop_inconsistency[7];
        assert!(far > 0.2, "far hop inconsistency = {far}");
        let near = m.per_hop_inconsistency[0];
        assert!(near < far);
    }
}
