//! Markov states of the multi-hop model (paper Figures 15 and 16).

use std::fmt;

/// Whether the chain is progressing on the *fast path* (an explicit trigger
/// message is travelling hop by hop) or the *slow path* (the trigger was lost
/// at some hop and the system waits for a refresh / retransmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathMode {
    /// A trigger is in flight toward the next hop (`s = 0` in the paper).
    Fast,
    /// The trigger was lost; waiting for refresh or retransmission (`s = 1`).
    Slow,
}

/// A state of the multi-hop signaling Markov chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiHopState {
    /// `(i, s)` — the first `i` hops hold state consistent with the sender,
    /// and the chain is on the fast or slow path toward hop `i + 1`.
    /// `(K, Fast)` is the fully consistent state.
    Progress {
        /// Number of consistent hops `i` (`0 ..= K`).
        consistent: usize,
        /// Fast or slow path.
        mode: PathMode,
    },
    /// `F` — the hard-state recovery state entered after a false external
    /// failure signal removed state at the receivers; the sender is being
    /// notified and will re-install state.
    Recovery,
}

impl MultiHopState {
    /// Convenience constructor for a fast-path state.
    pub fn fast(consistent: usize) -> Self {
        MultiHopState::Progress {
            consistent,
            mode: PathMode::Fast,
        }
    }

    /// Convenience constructor for a slow-path state.
    pub fn slow(consistent: usize) -> Self {
        MultiHopState::Progress {
            consistent,
            mode: PathMode::Slow,
        }
    }

    /// Number of consistent hops in this state (0 during HS recovery, where
    /// the receivers have discarded their state).
    pub fn consistent_hops(&self) -> usize {
        match self {
            MultiHopState::Progress { consistent, .. } => *consistent,
            MultiHopState::Recovery => 0,
        }
    }

    /// Whether the given hop (1-indexed, `1 ..= K`) is consistent in this
    /// state.
    pub fn hop_is_consistent(&self, hop: usize) -> bool {
        hop >= 1 && self.consistent_hops() >= hop
    }

    /// Enumerates every state of a `k`-hop model for the given protocol
    /// capabilities (`with_recovery` adds the HS recovery state).
    pub fn enumerate(k: usize, with_recovery: bool) -> Vec<MultiHopState> {
        let mut states = Vec::with_capacity(2 * k + 2);
        for i in 0..=k {
            states.push(MultiHopState::fast(i));
        }
        for i in 0..k {
            states.push(MultiHopState::slow(i));
        }
        if with_recovery {
            states.push(MultiHopState::Recovery);
        }
        states
    }
}

impl fmt::Display for MultiHopState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiHopState::Progress { consistent, mode } => {
                let s = match mode {
                    PathMode::Fast => 0,
                    PathMode::Slow => 1,
                };
                write!(f, "({consistent},{s})")
            }
            MultiHopState::Recovery => write!(f, "F"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumeration_size() {
        // K fast states 0..K plus the fully consistent one, K slow states,
        // optionally the recovery state.
        assert_eq!(MultiHopState::enumerate(5, false).len(), 11);
        assert_eq!(MultiHopState::enumerate(5, true).len(), 12);
        let set: HashSet<_> = MultiHopState::enumerate(5, true).into_iter().collect();
        assert_eq!(set.len(), 12, "all states distinct");
    }

    #[test]
    fn hop_consistency() {
        let s = MultiHopState::fast(3);
        assert!(s.hop_is_consistent(1));
        assert!(s.hop_is_consistent(3));
        assert!(!s.hop_is_consistent(4));
        assert!(!s.hop_is_consistent(0), "hops are 1-indexed");
        assert!(!MultiHopState::Recovery.hop_is_consistent(1));
    }

    #[test]
    fn display_notation() {
        assert_eq!(MultiHopState::fast(2).to_string(), "(2,0)");
        assert_eq!(MultiHopState::slow(0).to_string(), "(0,1)");
        assert_eq!(MultiHopState::Recovery.to_string(), "F");
    }
}
