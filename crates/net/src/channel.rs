//! A single logical signaling hop.

use crate::capacity::{Admission, CapacityModel, CapacityState};
use crate::delay::DelayModel;
use crate::fault::{FaultClock, FaultSchedule, LinkEffect};
use crate::loss::{LossModel, LossState};
use crate::message::MsgKind;
use simcore::SimRng;

/// Outcome of handing a message to a channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransmitOutcome {
    /// The message will arrive at the absolute time given (seconds).
    Delivered {
        /// Absolute arrival time in seconds of virtual time.
        arrival: f64,
    },
    /// The message was lost.
    Lost,
}

impl TransmitOutcome {
    /// Arrival time if delivered.
    pub fn arrival(&self) -> Option<f64> {
        match self {
            TransmitOutcome::Delivered { arrival } => Some(*arrival),
            TransmitOutcome::Lost => None,
        }
    }

    /// Whether the message was lost.
    pub fn is_lost(&self) -> bool {
        matches!(self, TransmitOutcome::Lost)
    }
}

/// Per-channel transmission statistics, broken down by message kind.
///
/// `dropped` counts every loss regardless of cause; `dropped_injected` is
/// the subset attributable to an active [`FaultEvent`](crate::FaultEvent)
/// (an outage blackout, or the extra drop of a degraded episode) and
/// `dropped_overload` the subset that arrived at a capacity-limited receiver
/// whose queue was full, so `dropped - dropped_injected - dropped_overload`
/// is the channel's own random loss.  The existing totals keep their
/// meaning: a fault-free, capacity-unlimited run reports exactly what it did
/// before those layers existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    sent: [u64; MsgKind::ALL.len()],
    delivered: [u64; MsgKind::ALL.len()],
    dropped: [u64; MsgKind::ALL.len()],
    dropped_injected: [u64; MsgKind::ALL.len()],
    dropped_overload: [u64; MsgKind::ALL.len()],
}

impl ChannelStats {
    fn kind_index(kind: MsgKind) -> usize {
        // `MsgKind::ALL` lists the variants in declaration order, so the
        // discriminant is the index (pinned by a test in message.rs).
        kind as usize
    }

    /// Total messages handed to the channel.
    fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages delivered.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Total messages dropped.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Messages of one kind handed to the channel.
    pub fn sent(&self, kind: MsgKind) -> u64 {
        self.sent[Self::kind_index(kind)]
    }

    /// Messages of one kind delivered.
    pub fn delivered(&self, kind: MsgKind) -> u64 {
        self.delivered[Self::kind_index(kind)]
    }

    /// Messages of one kind dropped.
    pub fn dropped(&self, kind: MsgKind) -> u64 {
        self.dropped[Self::kind_index(kind)]
    }

    /// Total messages dropped by injected faults, all kinds.
    pub fn total_dropped_to_fault(&self) -> u64 {
        self.dropped_injected.iter().sum()
    }

    /// Total messages dropped to receiver overload, all kinds.
    fn total_dropped_to_overload(&self) -> u64 {
        self.dropped_overload.iter().sum()
    }

    /// Total messages dropped by the random loss process, all kinds.
    pub fn total_dropped_to_loss(&self) -> u64 {
        self.total_dropped() - self.total_dropped_to_fault() - self.total_dropped_to_overload()
    }

    /// Empirical loss rate of the channel so far.
    pub fn loss_rate(&self) -> f64 {
        let sent = self.total_sent();
        if sent == 0 {
            0.0
        } else {
            self.total_dropped() as f64 / sent as f64
        }
    }

    /// Merges counters from another stats object.
    pub fn merge(&mut self, other: &ChannelStats) {
        for i in 0..MsgKind::ALL.len() {
            self.sent[i] += other.sent[i];
            self.delivered[i] += other.delivered[i];
            self.dropped[i] += other.dropped[i];
            self.dropped_injected[i] += other.dropped_injected[i];
            self.dropped_overload[i] += other.dropped_overload[i];
        }
    }
}

/// One logical hop: a loss process, a delay process, FIFO ordering, and
/// statistics.
#[derive(Debug, Clone)]
pub struct Channel {
    loss: LossModel,
    loss_state: LossState,
    delay: DelayModel,
    faults: FaultClock,
    capacity: CapacityModel,
    capacity_state: CapacityState,
    stats: ChannelStats,
    last_arrival: f64,
}

impl Channel {
    /// Creates a channel from a loss and a delay model.
    pub fn new(loss: LossModel, delay: DelayModel) -> Self {
        Self {
            loss,
            loss_state: LossState::default(),
            delay,
            faults: FaultClock::default(),
            capacity: CapacityModel::unlimited(),
            capacity_state: CapacityState::default(),
            stats: ChannelStats::default(),
            last_arrival: 0.0,
        }
    }

    /// Attaches a fault schedule; the channel consults it on every transmit.
    /// An empty schedule leaves behavior (and the RNG stream) bit-identical
    /// to a channel without one.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.faults = FaultClock::new(schedule);
        self
    }

    /// Attaches a receiver capacity model.  The model is pure arithmetic
    /// over arrival times (no RNG), and [`CapacityModel::unlimited`] leaves
    /// behavior byte-identical to a channel without one.
    pub fn with_capacity(mut self, capacity: CapacityModel) -> Self {
        self.capacity = capacity;
        self
    }

    /// The paper's default channel: independent Bernoulli loss `p_l` and a
    /// delay with mean `delta` drawn from the given model.
    pub fn bernoulli(p_l: f64, delay: DelayModel) -> Self {
        Self::new(LossModel::bernoulli(p_l), delay)
    }

    /// Mean one-way delay of the channel.
    pub fn mean_delay(&self) -> f64 {
        self.delay.mean()
    }

    /// Long-run loss probability of the channel's loss model.
    pub fn loss_probability(&self) -> f64 {
        self.loss.mean_loss()
    }

    /// The attached receiver capacity model.
    pub fn capacity(&self) -> &CapacityModel {
        &self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Hands a message of the given kind to the channel at time `now`.
    ///
    /// The returned outcome is either `Lost` or `Delivered { arrival }` where
    /// `arrival >= now` and arrivals are non-decreasing across calls (FIFO —
    /// the channel never reorders messages, as assumed in Section III).
    ///
    /// The attached [`FaultSchedule`] is consulted first: during an outage
    /// the message is dropped without consuming randomness; during a
    /// degraded episode the base loss process draws as usual and survivors
    /// face one extra independent drop.  Both injected causes are counted
    /// separately in [`ChannelStats`].
    ///
    /// An attached [`CapacityModel`] acts last, at the link arrival instant:
    /// the message either completes service after the receiver's residual
    /// backlog drains (queueing delay on top of the link delay) or, if the
    /// backlog is at the queue limit, is dropped and counted under
    /// `dropped_to_overload`.  The capacity step is pure arithmetic — it
    /// never consumes randomness, so the RNG stream is identical whether or
    /// not a limit is attached.
    pub fn transmit(&mut self, rng: &mut SimRng, now: f64, kind: MsgKind) -> TransmitOutcome {
        let idx = ChannelStats::kind_index(kind);
        self.stats.sent[idx] += 1;
        let effect = self.faults.link_effect(now);
        if matches!(effect, LinkEffect::Blackout) {
            self.stats.dropped[idx] += 1;
            self.stats.dropped_injected[idx] += 1;
            return TransmitOutcome::Lost;
        }
        if self.loss_state.is_lost(&self.loss, rng) {
            self.stats.dropped[idx] += 1;
            return TransmitOutcome::Lost;
        }
        if let LinkEffect::Degraded(extra) = effect {
            if rng.bernoulli(extra) {
                self.stats.dropped[idx] += 1;
                self.stats.dropped_injected[idx] += 1;
                return TransmitOutcome::Lost;
            }
        }
        let d = self.delay.sample(rng);
        let arrival = (now + d).max(self.last_arrival).max(now);
        self.last_arrival = arrival;
        // Link arrivals are non-decreasing (the clamp above), which is the
        // monotone-order precondition of the capacity server.
        match self.capacity_state.admit(&self.capacity, arrival) {
            Admission::Serviced { completion } => {
                self.stats.delivered[idx] += 1;
                TransmitOutcome::Delivered {
                    arrival: completion,
                }
            }
            Admission::Overflow => {
                self.stats.dropped[idx] += 1;
                self.stats.dropped_overload[idx] += 1;
                TransmitOutcome::Lost
            }
        }
    }
}

#[cfg(test)]
impl ChannelStats {
    /// Messages of one kind dropped by an injected fault (outage blackout or
    /// degraded-episode extra loss).
    fn dropped_to_fault(&self, kind: MsgKind) -> u64 {
        self.dropped_injected[Self::kind_index(kind)]
    }

    /// Messages of one kind dropped because the receiver's signaling queue
    /// was full ([`CapacityModel`] overflow).
    fn dropped_to_overload(&self, kind: MsgKind) -> u64 {
        self.dropped_overload[Self::kind_index(kind)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lossless_fixed() -> Channel {
        Channel::bernoulli(0.0, DelayModel::fixed(0.03))
    }

    #[test]
    fn lossless_channel_delivers_everything() {
        let mut ch = lossless_fixed();
        let mut rng = SimRng::new(1);
        for i in 0..100 {
            let out = ch.transmit(&mut rng, i as f64, MsgKind::Trigger);
            assert_eq!(out.arrival(), Some(i as f64 + 0.03));
            assert!(!out.is_lost());
        }
        assert_eq!(ch.stats().total_sent(), 100);
        assert_eq!(ch.stats().total_delivered(), 100);
        assert_eq!(ch.stats().total_dropped(), 0);
        assert_eq!(ch.stats().loss_rate(), 0.0);
    }

    #[test]
    fn lossy_channel_drop_rate_matches() {
        let mut ch = Channel::bernoulli(0.3, DelayModel::fixed(0.01));
        let mut rng = SimRng::new(2);
        for _ in 0..50_000 {
            ch.transmit(&mut rng, 0.0, MsgKind::Refresh);
        }
        let rate = ch.stats().loss_rate();
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
        assert_eq!(
            ch.stats().total_sent(),
            ch.stats().total_delivered() + ch.stats().total_dropped()
        );
    }

    #[test]
    fn fifo_ordering_with_random_delays() {
        let mut ch = Channel::bernoulli(0.0, DelayModel::exponential(0.1));
        let mut rng = SimRng::new(3);
        let mut last = 0.0;
        for i in 0..1000 {
            let now = i as f64 * 0.001;
            if let TransmitOutcome::Delivered { arrival } =
                ch.transmit(&mut rng, now, MsgKind::Trigger)
            {
                assert!(arrival >= last, "reordered: {arrival} < {last}");
                assert!(arrival >= now);
                last = arrival;
            }
        }
    }

    #[test]
    fn per_kind_counters() {
        let mut ch = lossless_fixed();
        let mut rng = SimRng::new(4);
        ch.transmit(&mut rng, 0.0, MsgKind::Trigger);
        ch.transmit(&mut rng, 0.0, MsgKind::Refresh);
        ch.transmit(&mut rng, 0.0, MsgKind::Refresh);
        ch.transmit(&mut rng, 0.0, MsgKind::ExternalSignal);
        assert_eq!(ch.stats().sent(MsgKind::Trigger), 1);
        assert_eq!(ch.stats().sent(MsgKind::Refresh), 2);
        assert_eq!(ch.stats().sent(MsgKind::Removal), 0);
        assert_eq!(ch.stats().total_sent(), 4);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = ChannelStats::default();
        let mut ch1 = lossless_fixed();
        let mut ch2 = lossless_fixed();
        let mut rng = SimRng::new(5);
        ch1.transmit(&mut rng, 0.0, MsgKind::Trigger);
        ch2.transmit(&mut rng, 0.0, MsgKind::Removal);
        a.merge(ch1.stats());
        a.merge(ch2.stats());
        assert_eq!(a.total_sent(), 2);
        assert_eq!(a.sent(MsgKind::Trigger), 1);
        assert_eq!(a.sent(MsgKind::Removal), 1);
    }

    #[test]
    fn accessors_report_models() {
        let ch = Channel::bernoulli(0.07, DelayModel::fixed(0.25));
        assert_eq!(ch.loss_probability(), 0.07);
        assert_eq!(ch.mean_delay(), 0.25);
    }

    #[test]
    fn outage_blacks_out_without_consuming_randomness() {
        // Two identical channels, one with a schedule whose outage covers
        // the first half of the sends: outside the outage the RNG streams
        // must stay in lockstep, so post-outage outcomes are identical to a
        // fault-free channel that skipped the blacked-out sends.
        let schedule = crate::FaultSchedule::outage(0.0, 10.0).unwrap();
        let mut faulty =
            Channel::bernoulli(0.3, DelayModel::fixed(0.01)).with_fault_schedule(schedule);
        let mut plain = Channel::bernoulli(0.3, DelayModel::fixed(0.01));
        let mut rng_f = SimRng::new(77);
        let mut rng_p = SimRng::new(77);
        for i in 0..20 {
            let now = 5.0 + i as f64; // first 5 sends inside [0, 10)
            let out_f = faulty.transmit(&mut rng_f, now, MsgKind::Refresh);
            if now < 10.0 {
                assert!(out_f.is_lost(), "t = {now} should be blacked out");
            } else {
                let out_p = plain.transmit(&mut rng_p, now, MsgKind::Refresh);
                assert_eq!(out_f.is_lost(), out_p.is_lost(), "diverged at t = {now}");
            }
        }
        assert_eq!(faulty.stats().total_dropped_to_fault(), 5);
        assert_eq!(
            faulty.stats().total_dropped(),
            faulty.stats().total_dropped_to_fault() + faulty.stats().total_dropped_to_loss()
        );
        assert_eq!(plain.stats().total_dropped_to_fault(), 0);
    }

    #[test]
    fn empty_schedule_is_bit_identical() {
        let mut with = Channel::bernoulli(0.25, DelayModel::exponential(0.05))
            .with_fault_schedule(crate::FaultSchedule::none());
        let mut without = Channel::bernoulli(0.25, DelayModel::exponential(0.05));
        let mut rng_a = SimRng::new(9);
        let mut rng_b = SimRng::new(9);
        for i in 0..2000 {
            let now = i as f64 * 0.01;
            assert_eq!(
                with.transmit(&mut rng_a, now, MsgKind::Refresh),
                without.transmit(&mut rng_b, now, MsgKind::Refresh)
            );
        }
        assert_eq!(with.stats(), without.stats());
    }

    #[test]
    fn degrade_adds_attributed_extra_loss() {
        let schedule = crate::FaultSchedule::none()
            .with(crate::FaultEvent::Degrade {
                start: 0.0,
                duration: 1e9,
                loss: 0.5,
            })
            .unwrap();
        let mut ch = Channel::bernoulli(0.1, DelayModel::fixed(0.01)).with_fault_schedule(schedule);
        let mut rng = SimRng::new(11);
        for _ in 0..50_000 {
            ch.transmit(&mut rng, 0.0, MsgKind::Refresh);
        }
        let stats = *ch.stats();
        // Total loss = 1 - (1 - 0.1)(1 - 0.5) = 0.55, of which 0.45 injected.
        let total = stats.total_dropped() as f64 / stats.total_sent() as f64;
        let injected = stats.total_dropped_to_fault() as f64 / stats.total_sent() as f64;
        assert!((total - 0.55).abs() < 0.01, "total = {total}");
        assert!((injected - 0.45).abs() < 0.01, "injected = {injected}");
        let kind = MsgKind::Refresh;
        let random =
            stats.dropped(kind) - stats.dropped_to_fault(kind) - stats.dropped_to_overload(kind);
        assert!(random > 0);
    }

    #[test]
    fn unlimited_capacity_is_bit_identical() {
        let mut with = Channel::bernoulli(0.25, DelayModel::exponential(0.05))
            .with_capacity(crate::CapacityModel::unlimited());
        let mut without = Channel::bernoulli(0.25, DelayModel::exponential(0.05));
        let mut rng_a = SimRng::new(13);
        let mut rng_b = SimRng::new(13);
        for i in 0..2000 {
            let now = i as f64 * 0.01;
            assert_eq!(
                with.transmit(&mut rng_a, now, MsgKind::Refresh),
                without.transmit(&mut rng_b, now, MsgKind::Refresh)
            );
        }
        assert_eq!(with.stats(), without.stats());
        assert_eq!(with.stats().total_dropped_to_overload(), 0);
    }

    #[test]
    fn capacity_limit_consumes_no_randomness() {
        // Same seed, one channel capacity-limited: the loss/delay RNG
        // stream must stay in lockstep, so the limited channel's outcomes
        // partition into the plain channel's deliveries (some serviced
        // later, some dropped to overload) and exactly the same random
        // losses.
        let tight = crate::CapacityModel::limited(20.0, 3).unwrap();
        let mut limited =
            Channel::bernoulli(0.3, DelayModel::exponential(0.02)).with_capacity(tight);
        let mut plain = Channel::bernoulli(0.3, DelayModel::exponential(0.02));
        let mut rng_a = SimRng::new(21);
        let mut rng_b = SimRng::new(21);
        for i in 0..5000 {
            let now = i as f64 * 0.002; // 500 msg/s >> 20 msg/s of service
            let out_l = limited.transmit(&mut rng_a, now, MsgKind::Refresh);
            let out_p = plain.transmit(&mut rng_b, now, MsgKind::Refresh);
            if out_p.is_lost() {
                assert!(out_l.is_lost(), "random losses must agree at t = {now}");
            }
        }
        assert_eq!(
            limited.stats().total_dropped_to_loss(),
            plain.stats().total_dropped_to_loss()
        );
        assert!(limited.stats().total_dropped_to_overload() > 0);
        assert_eq!(
            limited.stats().total_delivered() + limited.stats().total_dropped_to_overload(),
            plain.stats().total_delivered()
        );
    }

    #[test]
    fn capacity_adds_queueing_delay_and_keeps_fifo() {
        let model = crate::CapacityModel::limited(10.0, 100).unwrap();
        let mut ch = Channel::bernoulli(0.0, DelayModel::fixed(0.03)).with_capacity(model);
        let mut rng = SimRng::new(6);
        let mut last = 0.0;
        let mut delayed_past_link = 0;
        for i in 0..50 {
            let now = i as f64 * 0.01; // 100 msg/s into a 10 msg/s server
            let arrival = ch
                .transmit(&mut rng, now, MsgKind::Refresh)
                .arrival()
                .expect("queue limit of 100 never overflows here");
            assert!(arrival >= last, "reordered: {arrival} < {last}");
            // Service takes 0.1 s, so every completion sits at least one
            // service time past the link arrival.
            assert!(arrival >= now + 0.03 + 0.1 - 1e-12);
            if arrival > now + 0.03 + 0.1 + 1e-12 {
                delayed_past_link += 1;
            }
            last = arrival;
        }
        assert!(delayed_past_link > 0, "backlog never built up");
    }

    #[test]
    fn overload_drops_are_attributed() {
        let model = crate::CapacityModel::limited(1.0, 1).unwrap();
        let mut ch = Channel::bernoulli(0.0, DelayModel::fixed(0.0)).with_capacity(model);
        let mut rng = SimRng::new(7);
        for _ in 0..10 {
            ch.transmit(&mut rng, 0.0, MsgKind::Trigger);
        }
        let stats = *ch.stats();
        assert_eq!(stats.total_sent(), 10);
        assert_eq!(stats.total_delivered(), 1);
        assert_eq!(stats.total_dropped(), 9);
        assert_eq!(stats.total_dropped_to_overload(), 9);
        assert_eq!(stats.dropped_to_overload(MsgKind::Trigger), 9);
        assert_eq!(stats.total_dropped_to_loss(), 0);
        assert_eq!(stats.total_dropped_to_fault(), 0);
        assert_eq!(ch.capacity().queue_limit(), 1);
    }

    proptest! {
        #[test]
        fn prop_arrival_never_before_send(
            p in 0.0f64..0.9,
            delays in proptest::collection::vec(0.0f64..2.0, 1..100),
        ) {
            let mut ch = Channel::bernoulli(p, DelayModel::exponential(0.05));
            let mut rng = SimRng::new(42);
            let mut now = 0.0;
            for d in delays {
                now += d;
                if let Some(arrival) = ch.transmit(&mut rng, now, MsgKind::Trigger).arrival() {
                    prop_assert!(arrival >= now);
                }
            }
        }

        #[test]
        fn prop_per_kind_counts_are_conserved(
            lossy in any::<bool>(),
            p in 0.0f64..0.6,
            outage in (0.0f64..40.0, 0.1f64..20.0),
            degrade in (any::<bool>(), 0.0f64..20.0, 0.1f64..30.0, 0.0f64..1.0),
            capacity in (0.5f64..50.0, 1u32..8),
            sends in proptest::collection::vec((0..MsgKind::ALL.len(), 0.0f64..0.5), 1..300),
        ) {
            // Random loss (or none), an outage then maybe a degraded episode,
            // and a finite receiver: per kind, every message sent is either
            // delivered or dropped, the delivered count is what the caller
            // saw, and the fault and overload drops are subsets of the drops.
            let p = if lossy { p } else { 0.0 };
            let (outage_start, outage_len) = outage;
            let (degraded, gap, degrade_len, degrade_loss) = degrade;
            let mut schedule = crate::FaultSchedule::outage(outage_start, outage_len).unwrap();
            if degraded {
                let episode = crate::FaultEvent::Degrade {
                    start: outage_start + outage_len + gap,
                    duration: degrade_len,
                    loss: degrade_loss,
                };
                schedule = schedule.with(episode).unwrap();
            }
            let model = crate::CapacityModel::limited(capacity.0, capacity.1).unwrap();
            let mut ch = Channel::bernoulli(p, DelayModel::exponential(0.05))
                .with_fault_schedule(schedule)
                .with_capacity(model);
            let mut rng = SimRng::new(sends.len() as u64);
            let mut observed = [0u64; MsgKind::ALL.len()];
            let mut now = 0.0;
            for (k, dt) in sends {
                now += dt;
                let kind = MsgKind::ALL[k];
                if let TransmitOutcome::Delivered { .. } = ch.transmit(&mut rng, now, kind) {
                    observed[k] += 1;
                }
            }
            let stats = ch.stats();
            for (k, kind) in MsgKind::ALL.into_iter().enumerate() {
                prop_assert_eq!(stats.sent(kind), stats.delivered(kind) + stats.dropped(kind));
                prop_assert_eq!(stats.delivered(kind), observed[k]);
                prop_assert!(
                    stats.dropped_to_fault(kind) + stats.dropped_to_overload(kind)
                        <= stats.dropped(kind)
                );
            }
            if p == 0.0 && !degraded {
                prop_assert_eq!(stats.total_dropped_to_loss(), 0);
            }
        }
    }
}
