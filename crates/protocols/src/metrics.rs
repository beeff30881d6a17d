//! Metric records produced by simulated sessions and runs.

use signet::MsgKind;

/// Count of signaling messages sent (transmission attempts, including lost
/// messages and retransmissions), broken down by kind.
///
/// The external failure-detection signal used by HS is tracked separately and
/// excluded from [`MessageCounts::signaling_total`], matching the paper's
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// Trigger (setup / update) messages, including retransmissions.
    pub trigger: u64,
    /// Refresh messages.
    pub refresh: u64,
    /// Explicit removal messages, including retransmissions.
    pub removal: u64,
    /// Trigger acknowledgments.
    pub trigger_ack: u64,
    /// Refresh acknowledgments (reliable-refresh compositions only).
    pub refresh_ack: u64,
    /// Removal acknowledgments.
    pub removal_ack: u64,
    /// Removal notifications (receiver → sender).
    pub removal_notice: u64,
    /// External failure-detection signals (not counted as signaling).
    pub external_signal: u64,
}

impl MessageCounts {
    /// Records one sent message of the given kind.
    pub fn record(&mut self, kind: MsgKind) {
        self.record_n(kind, 1);
    }

    /// Records `n` sent messages of the given kind.
    pub fn record_n(&mut self, kind: MsgKind, n: u64) {
        match kind {
            MsgKind::Trigger => self.trigger += n,
            MsgKind::Refresh => self.refresh += n,
            MsgKind::Removal => self.removal += n,
            MsgKind::TriggerAck => self.trigger_ack += n,
            MsgKind::RefreshAck => self.refresh_ack += n,
            MsgKind::RemovalAck => self.removal_ack += n,
            MsgKind::RemovalNotice => self.removal_notice += n,
            MsgKind::ExternalSignal => self.external_signal += n,
        }
    }

    /// Total number of messages that count as signaling overhead.
    pub fn signaling_total(&self) -> u64 {
        self.trigger
            + self.refresh
            + self.removal
            + self.trigger_ack
            + self.refresh_ack
            + self.removal_ack
            + self.removal_notice
    }

    /// Adds another count record to this one.
    pub fn merge(&mut self, other: &MessageCounts) {
        self.trigger += other.trigger;
        self.refresh += other.refresh;
        self.removal += other.removal;
        self.trigger_ack += other.trigger_ack;
        self.refresh_ack += other.refresh_ack;
        self.removal_ack += other.removal_ack;
        self.removal_notice += other.removal_notice;
        self.external_signal += other.external_signal;
    }
}

/// Result of one simulated single-hop session (from state installation at the
/// sender until the state is gone from both ends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionMetrics {
    /// Fraction of the receiver-side lifetime during which the sender and
    /// receiver state values differed — the sampled inconsistency ratio.
    pub inconsistency: f64,
    /// Absolute time (seconds) spent with differing state values.  Campaigns
    /// aggregate the long-run inconsistency ratio as
    /// `Σ inconsistent_time / Σ receiver_lifetime` (renewal-reward), which is
    /// what the paper's metric measures; averaging per-session ratios would
    /// over-weight short sessions.
    pub inconsistent_time: f64,
    /// Sampled sender-side state lifetime (seconds).
    pub sender_lifetime: f64,
    /// Receiver-side lifetime: time from session start until the state was
    /// gone from both ends (seconds).
    pub receiver_lifetime: f64,
    /// Signaling messages sent during the session.
    pub messages: MessageCounts,
    /// Number of sender-side state updates that occurred.
    pub updates: u64,
    /// Number of times the receiver removed state even though the sender
    /// still held it (false removals).
    pub false_removals: u64,
}

impl SessionMetrics {
    /// The session's normalized message rate sample: total signaling messages
    /// multiplied by the configured removal rate `λ_r` (Equation 2's `Λ·λ_r`,
    /// using the *expected* sender lifetime as the normalizer, exactly like
    /// the analytic model).
    pub fn normalized_message_rate(&self, removal_rate: f64) -> f64 {
        self.messages.signaling_total() as f64 * removal_rate
    }

    /// Mean message rate over the receiver-side lifetime (messages/second).
    pub fn message_rate(&self) -> f64 {
        if self.receiver_lifetime <= 0.0 {
            0.0
        } else {
            self.messages.signaling_total() as f64 / self.receiver_lifetime
        }
    }
}

/// Result of one multi-hop simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopRunMetrics {
    /// Fraction of time at least one hop was inconsistent with the sender.
    pub end_to_end_inconsistency: f64,
    /// Per-hop inconsistency fractions (index 0 = hop 1, nearest the sender).
    pub per_hop_inconsistency: Vec<f64>,
    /// Signaling messages sent per second of simulated time, counting each
    /// hop traversal as one message (the paper's multi-hop accounting).
    pub message_rate: f64,
    /// Raw message counts.
    pub messages: MessageCounts,
    /// Simulated duration the metrics cover (seconds).
    pub duration: f64,
    /// Number of sender-side updates during the run.
    pub updates: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut c = MessageCounts::default();
        c.record(MsgKind::Trigger);
        c.record(MsgKind::Refresh);
        c.record(MsgKind::Refresh);
        c.record(MsgKind::TriggerAck);
        c.record(MsgKind::ExternalSignal);
        assert_eq!(c.trigger, 1);
        assert_eq!(c.refresh, 2);
        assert_eq!(c.trigger_ack, 1);
        assert_eq!(c.external_signal, 1);
        assert_eq!(c.signaling_total(), 4, "external signal not counted");
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = MessageCounts {
            trigger: 1,
            refresh: 2,
            ..Default::default()
        };
        let b = MessageCounts {
            trigger: 3,
            removal_notice: 1,
            external_signal: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.trigger, 4);
        assert_eq!(a.refresh, 2);
        assert_eq!(a.removal_notice, 1);
        assert_eq!(a.external_signal, 5);
    }

    #[test]
    fn session_metric_rates() {
        let m = SessionMetrics {
            inconsistency: 0.1,
            inconsistent_time: 10.0,
            sender_lifetime: 90.0,
            receiver_lifetime: 100.0,
            messages: MessageCounts {
                refresh: 20,
                trigger: 5,
                ..Default::default()
            },
            updates: 4,
            false_removals: 0,
        };
        assert!((m.message_rate() - 0.25).abs() < 1e-12);
        assert!((m.normalized_message_rate(0.01) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_lifetime_message_rate_is_zero() {
        let m = SessionMetrics {
            inconsistency: 0.0,
            inconsistent_time: 0.0,
            sender_lifetime: 0.0,
            receiver_lifetime: 0.0,
            messages: MessageCounts::default(),
            updates: 0,
            false_removals: 0,
        };
        assert_eq!(m.message_rate(), 0.0);
    }
}
