//! Markov states of the single-hop model (paper Figure 3).

use std::fmt;

/// A state of the single-hop signaling Markov chain.
///
/// Each state is a pair "(sender has state, receiver has state)" refined by a
/// subscript that distinguishes whether the most recent explicit message is
/// still in flight (*fast path*, subscript 1) or has been lost so the system
/// is waiting for a refresh/retransmission/timeout (*slow path*, subscript 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SingleHopState {
    /// `(1,0)₁` — state installed at the sender only; the trigger message is
    /// in flight.  This is the initial state of every session.
    Setup1,
    /// `(1,0)₂` — state installed at the sender only; the trigger was lost
    /// (or the receiver falsely removed its state) and the system waits for a
    /// refresh / retransmission.
    Setup2,
    /// `C` — sender and receiver hold the same state value (consistent).
    Consistent,
    /// `IC₁` — both hold state but the values differ; the update trigger is
    /// in flight.
    Diff1,
    /// `IC₂` — both hold state but the values differ; the update trigger was
    /// lost.
    Diff2,
    /// `(0,1)₁` — the sender removed its state, the receiver still holds it;
    /// for protocols with explicit removal the removal message is in flight.
    Removing1,
    /// `(0,1)₂` — the sender removed its state and the explicit removal
    /// message was lost.  This state exists only for SS+ER, SS+RTR and HS.
    Removing2,
    /// `(0,0)` — the state is gone from both ends (absorbing).
    Absorbed,
}

impl SingleHopState {
    /// All states in a stable order (the order used for reporting).
    pub const ALL: [SingleHopState; 8] = [
        SingleHopState::Setup1,
        SingleHopState::Setup2,
        SingleHopState::Consistent,
        SingleHopState::Diff1,
        SingleHopState::Diff2,
        SingleHopState::Removing1,
        SingleHopState::Removing2,
        SingleHopState::Absorbed,
    ];

    /// Position of the state in [`SingleHopState::ALL`] — a dense index for
    /// array-backed state maps (the sweep fast path uses it to avoid hashing
    /// in per-point hot loops).
    pub fn canonical_index(self) -> usize {
        match self {
            SingleHopState::Setup1 => 0,
            SingleHopState::Setup2 => 1,
            SingleHopState::Consistent => 2,
            SingleHopState::Diff1 => 3,
            SingleHopState::Diff2 => 4,
            SingleHopState::Removing1 => 5,
            SingleHopState::Removing2 => 6,
            SingleHopState::Absorbed => 7,
        }
    }

    /// Whether this is the absorbing end-of-life state.
    pub fn is_absorbing(self) -> bool {
        matches!(self, SingleHopState::Absorbed)
    }

    /// The paper's notation for the state.
    pub fn paper_notation(self) -> &'static str {
        match self {
            SingleHopState::Setup1 => "(1,0)_1",
            SingleHopState::Setup2 => "(1,0)_2",
            SingleHopState::Consistent => "C",
            SingleHopState::Diff1 => "IC_1",
            SingleHopState::Diff2 => "IC_2",
            SingleHopState::Removing1 => "(0,1)_1",
            SingleHopState::Removing2 => "(0,1)_2",
            SingleHopState::Absorbed => "(0,0)",
        }
    }
}

impl fmt::Display for SingleHopState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn eight_distinct_states() {
        let set: HashSet<_> = SingleHopState::ALL.iter().collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn only_one_absorbing_state() {
        let absorbing: Vec<_> = SingleHopState::ALL
            .iter()
            .filter(|s| s.is_absorbing())
            .collect();
        assert_eq!(absorbing, vec![&SingleHopState::Absorbed]);
    }

    #[test]
    fn notation_matches_paper() {
        assert_eq!(SingleHopState::Setup1.to_string(), "(1,0)_1");
        assert_eq!(SingleHopState::Consistent.to_string(), "C");
        assert_eq!(SingleHopState::Diff2.to_string(), "IC_2");
        assert_eq!(SingleHopState::Absorbed.to_string(), "(0,0)");
    }
}
