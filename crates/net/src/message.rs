//! The signaling message vocabulary.
//!
//! Section II of the paper describes the messages exchanged between the
//! signaling sender and receiver: *trigger* messages carrying state
//! setup/update information, periodic *refresh* messages, explicit *removal*
//! messages, *acknowledgments* for reliable transmission, and *notifications*
//! that let a receiver tell the sender its state was removed (used by SS+RT,
//! SS+RTR and HS to recover from false removal).  The hard-state protocol
//! additionally relies on an *external signal* (e.g. a heartbeat protocol)
//! that is modelled but not counted as signaling overhead.

use std::fmt;

/// The value of the piece of signaling state being installed.
///
/// The paper models a single piece of state whose *value* matters only for
/// equality ("consistent" means sender value == receiver value), so a
/// monotonically increasing integer version is sufficient: every sender-side
/// update increments it.
pub type StateValue = u64;

/// Kinds of signaling messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Explicit state setup/update carrying the newest state value.
    Trigger,
    /// Periodic soft-state refresh carrying the newest state value.
    Refresh,
    /// Explicit state removal.
    Removal,
    /// Acknowledgment of a reliably transmitted trigger.
    TriggerAck,
    /// Acknowledgment of a reliably transmitted refresh (used only by
    /// mechanism compositions with reliable refreshes; no paper protocol
    /// sends these).
    RefreshAck,
    /// Acknowledgment of a reliably transmitted removal.
    RemovalAck,
    /// Receiver → sender notification that state was removed at the receiver
    /// (timeout or false external signal); lets the sender re-install.
    RemovalNotice,
    /// External failure signal delivered to the hard-state receiver by an
    /// out-of-band failure detector.  Modelled for completeness; *not*
    /// counted in the signaling message overhead, matching the paper.
    ExternalSignal,
}

impl MsgKind {
    /// Whether this message counts toward the signaling message overhead
    /// metric `M` (the external failure-detection signal does not).
    pub fn counts_as_signaling(self) -> bool {
        !matches!(self, MsgKind::ExternalSignal)
    }

    /// All message kinds, in a stable order (used by per-kind counters).
    pub const ALL: [MsgKind; 8] = [
        MsgKind::Trigger,
        MsgKind::Refresh,
        MsgKind::Removal,
        MsgKind::TriggerAck,
        MsgKind::RefreshAck,
        MsgKind::RemovalAck,
        MsgKind::RemovalNotice,
        MsgKind::ExternalSignal,
    ];
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::Trigger => "TRIGGER",
            MsgKind::Refresh => "REFRESH",
            MsgKind::Removal => "REMOVAL",
            MsgKind::TriggerAck => "TRIGGER-ACK",
            MsgKind::RefreshAck => "REFRESH-ACK",
            MsgKind::RemovalAck => "REMOVAL-ACK",
            MsgKind::RemovalNotice => "REMOVAL-NOTICE",
            MsgKind::ExternalSignal => "EXTERNAL-SIGNAL",
        };
        f.write_str(s)
    }
}

/// A signaling message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalMessage {
    /// What kind of message this is.
    pub kind: MsgKind,
    /// The state value the message carries (the current sender value for
    /// triggers/refreshes; the acknowledged value for ACKs; ignored for
    /// removals and notices).
    pub value: StateValue,
    /// Sequence number assigned by the originator, used to match ACKs to the
    /// retransmission they acknowledge.
    pub seq: u64,
    /// Index of the hop the message is currently traversing (0 = the hop
    /// adjacent to the sender).  Only meaningful in multi-hop scenarios.
    pub hop: usize,
}

impl SignalMessage {
    /// Builds a message with hop 0 (single-hop scenarios).
    pub fn new(kind: MsgKind, value: StateValue, seq: u64) -> Self {
        Self {
            kind,
            value,
            seq,
            hop: 0,
        }
    }
}

impl fmt::Display for SignalMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} value={} seq={} hop={}",
            self.kind, self.value, self.seq, self.hop
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_signal_not_counted() {
        for kind in MsgKind::ALL {
            let counted = kind.counts_as_signaling();
            if kind == MsgKind::ExternalSignal {
                assert!(!counted);
            } else {
                assert!(counted, "{kind} should be counted");
            }
        }
    }

    #[test]
    fn display_contains_fields() {
        let m = SignalMessage::new(MsgKind::Refresh, 5, 2);
        let s = m.to_string();
        assert!(s.contains("REFRESH"));
        assert!(s.contains("value=5"));
        assert!(s.contains("seq=2"));
    }

    #[test]
    fn all_kinds_are_unique() {
        use std::collections::HashSet;
        let set: HashSet<_> = MsgKind::ALL.iter().collect();
        assert_eq!(set.len(), MsgKind::ALL.len());
    }

    #[test]
    fn all_lists_variants_in_discriminant_order() {
        // ChannelStats indexes its per-kind counters by discriminant; that
        // is only correct while ALL mirrors the declaration order.
        for (i, kind) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind:?}");
        }
    }
}
