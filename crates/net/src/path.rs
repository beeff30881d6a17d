//! Multi-hop signaling paths.
//!
//! Section III-B models a chain of `K` hops between the signaling sender and
//! the final receiver, with state installed at every node along the path.
//! [`Path`] owns the `K` channels (which may be heterogeneous — an extension
//! over the paper's homogeneous-hop assumption).

use crate::channel::{Channel, TransmitOutcome};
use crate::delay::DelayModel;
use crate::message::MsgKind;
use simcore::SimRng;

/// A chain of channels from the signaling sender (before hop 0) to the final
/// signaling receiver (after hop `len() - 1`).
#[derive(Debug, Clone)]
pub struct Path {
    hops: Vec<Channel>,
}

impl Path {
    /// Builds a path from explicit channels.
    pub fn new(hops: Vec<Channel>) -> Self {
        Self { hops }
    }

    /// Builds a homogeneous path of `k` hops, each with independent Bernoulli
    /// loss `p_l` and the given delay model — the paper's multi-hop setting.
    pub fn homogeneous(k: usize, p_l: f64, delay: DelayModel) -> Self {
        Self {
            hops: (0..k).map(|_| Channel::bernoulli(p_l, delay)).collect(),
        }
    }

    /// Attaches the same fault schedule to every hop: a node-side fault
    /// (access-link outage, provider brown-out) blacks out or degrades the
    /// whole path at once.  Heterogeneous per-hop schedules can be built via
    /// [`Path::new`] with individually configured channels.
    pub fn with_fault_schedule(mut self, schedule: crate::FaultSchedule) -> Self {
        self.hops = self
            .hops
            .into_iter()
            .map(|hop| hop.with_fault_schedule(schedule))
            .collect();
        self
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path has no hops (degenerate, only used in tests).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Immutable access to one hop.
    pub fn hop(&self, i: usize) -> Option<&Channel> {
        self.hops.get(i)
    }

    /// Transmits a message on hop `i` at time `now`.
    ///
    /// # Panics
    /// Panics if `i` is out of range — protocol code always iterates over
    /// `0..len()`.
    pub fn transmit(
        &mut self,
        i: usize,
        rng: &mut SimRng,
        now: f64,
        kind: MsgKind,
    ) -> TransmitOutcome {
        self.hops[i].transmit(rng, now, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_path_properties() {
        let p = Path::homogeneous(5, 0.1, DelayModel::fixed(0.03));
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        for i in 0..5 {
            let hop = p.hop(i).unwrap();
            assert_eq!((hop.loss_probability(), hop.mean_delay()), (0.1, 0.03));
        }
        assert!(p.hop(5).is_none());
    }

    #[test]
    fn heterogeneous_path() {
        let p = Path::new(vec![
            Channel::bernoulli(0.0, DelayModel::fixed(0.01)),
            Channel::bernoulli(0.5, DelayModel::fixed(0.02)),
        ]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.hop(1).unwrap().loss_probability(), 0.5);
        assert_eq!(p.hop(1).unwrap().mean_delay(), 0.02);
    }

    #[test]
    fn transmit_uses_the_right_hop() {
        let mut p = Path::new(vec![
            Channel::bernoulli(0.0, DelayModel::fixed(0.01)),
            Channel::bernoulli(1.0, DelayModel::fixed(0.02)),
        ]);
        let mut rng = SimRng::new(1);
        assert!(!p.transmit(0, &mut rng, 0.0, MsgKind::Trigger).is_lost());
        assert!(p.transmit(1, &mut rng, 0.0, MsgKind::Trigger).is_lost());
        assert_eq!(p.hop(0).unwrap().stats().total_delivered(), 1);
        assert_eq!(p.hop(1).unwrap().stats().total_dropped(), 1);
    }

    #[test]
    fn fault_schedule_applies_to_every_hop() {
        let schedule = crate::FaultSchedule::outage(0.0, 10.0).unwrap();
        let mut p =
            Path::homogeneous(3, 0.0, DelayModel::fixed(0.01)).with_fault_schedule(schedule);
        let mut rng = SimRng::new(1);
        for i in 0..3 {
            assert!(p.transmit(i, &mut rng, 5.0, MsgKind::Trigger).is_lost());
            assert!(!p.transmit(i, &mut rng, 15.0, MsgKind::Trigger).is_lost());
        }
        for i in 0..3 {
            let stats = p.hop(i).unwrap().stats();
            assert_eq!(stats.total_dropped_to_fault(), 1);
            assert_eq!(stats.total_dropped_to_loss(), 0);
        }
    }

    #[test]
    fn empty_path_is_empty() {
        let p = Path::new(vec![]);
        assert!(p.is_empty());
        assert!(p.hop(0).is_none());
    }
}
