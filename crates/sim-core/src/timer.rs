//! Restartable one-shot timers.
//!
//! Protocol agents use a handful of timers that are constantly restarted:
//! the sender's refresh timer, the receiver's state-timeout timer, and the
//! sender's retransmission timer.  [`Timer`] owns the id of its pending
//! expiry, so re-arming replaces that expiry instead of leaving it to fire:
//! the queue moves the pending event to its new time in place where it can
//! (see [`EventQueue`]), and otherwise cancels it and schedules a new one.
//! Either way no protocol implementation can forget a stale timer event.

use crate::queue::{EventId, EventQueue};

/// A restartable one-shot timer bound to a specific event payload producer.
///
/// The timer does not own the queue — every operation takes the queue as an
/// argument — which keeps borrow-checking simple inside protocol agents that
/// own several timers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    pending: Option<EventId>,
    /// Number of times the timer has fired (acknowledged via [`Timer::on_fired`]).
    fired: u64,
    /// Number of times the timer has been armed or re-armed.
    armed: u64,
}

impl Timer {
    /// Creates an idle timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether an expiry event is currently scheduled.
    pub fn is_armed(&self) -> bool {
        self.pending.is_some()
    }

    /// How many times the timer fired.
    pub fn fired_count(&self) -> u64 {
        self.fired
    }

    /// How many times the timer was (re)armed.
    pub fn armed_count(&self) -> u64 {
        self.armed
    }

    /// (Re)arms the timer to fire after `delay` seconds, replacing any
    /// previously scheduled expiry.
    ///
    /// A pending expiry is moved rather than cancelled: while the queue's
    /// heap core keeps its keys unsorted (at most 16 of them), the expiry's
    /// ordering key is overwritten in place with the new time and the next
    /// sequence number, so a re-arm leaves no stale key behind (a session's
    /// receiver timeout is restarted on every refresh).  When the core is a
    /// heap, or the key sits in a lane or a calendar core, the expiry is
    /// cancelled and a new one scheduled.  Both give the same new id and the
    /// same delivery order.
    ///
    /// The common idle paths cost nothing extra: an idle timer (or one
    /// whose fire was acknowledged via [`Timer::on_fired`]) holds no id and
    /// just schedules, and a held id whose event already fired — a handler
    /// re-arming in response to its own expiry without acknowledging it —
    /// fails a constant-time generation compare and cannot touch an event
    /// reusing the fired event's slot.
    pub fn arm<E>(&mut self, queue: &mut EventQueue<E>, delay: f64, event: E) {
        self.pending = Some(match self.pending {
            Some(id) => queue.reschedule_in(id, delay, event),
            None => queue.schedule_in(delay, event),
        });
        self.armed += 1;
    }

    /// Cancels the pending expiry, if any.  Returns `true` when something was
    /// cancelled.
    pub fn cancel<E>(&mut self, queue: &mut EventQueue<E>) -> bool {
        if let Some(id) = self.pending.take() {
            queue.cancel(id)
        } else {
            false
        }
    }

    /// Must be called by the event handler when a timer event with the given
    /// id is delivered.  Returns `true` when the event corresponds to the
    /// currently armed expiry (i.e. it is not a stale event that raced with a
    /// re-arm), in which case the timer transitions to idle.
    pub fn on_fired(&mut self, id: EventId) -> bool {
        if self.pending == Some(id) {
            self.pending = None;
            self.fired += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick,
        Other,
    }

    #[test]
    fn arm_and_fire() {
        let mut q = EventQueue::new();
        let mut t = Timer::new();
        t.arm(&mut q, 5.0, Ev::Tick);
        assert!(t.is_armed());
        let e = q.pop().unwrap();
        assert_eq!(e.event, Ev::Tick);
        assert!(t.on_fired(e.id));
        assert!(!t.is_armed());
        assert_eq!(t.fired_count(), 1);
    }

    #[test]
    fn rearm_cancels_previous() {
        let mut q = EventQueue::new();
        let mut t = Timer::new();
        t.arm(&mut q, 5.0, Ev::Tick);
        t.arm(&mut q, 1.0, Ev::Tick);
        assert_eq!(t.armed_count(), 2);
        // Only the second event should be delivered.
        let e = q.pop().unwrap();
        assert_eq!(e.time.as_secs(), 1.0);
        assert!(t.on_fired(e.id));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut q = EventQueue::new();
        let mut t = Timer::new();
        t.arm(&mut q, 5.0, Ev::Tick);
        assert!(t.cancel(&mut q));
        assert!(!t.is_armed());
        assert!(q.pop().is_none());
        assert!(!t.cancel(&mut q), "second cancel is a no-op");
    }

    #[test]
    fn rearm_after_unacknowledged_fire_skips_the_dead_cancel() {
        // A handler may re-arm in response to the timer's own expiry without
        // calling `on_fired` first.  The held id already fired, so the re-arm
        // must not cancel anything — in particular not an unrelated event
        // that reused the fired event's payload slot.
        let mut q = EventQueue::new();
        let mut t = Timer::new();
        t.arm(&mut q, 1.0, Ev::Tick);
        let fired = q.pop().unwrap();
        assert_eq!(fired.event, Ev::Tick);
        // `other` reuses the fired event's slot.
        let other = q.schedule_in(5.0, Ev::Other);
        t.arm(&mut q, 1.0, Ev::Tick);
        assert_eq!(t.armed_count(), 2);
        assert!(
            q.is_pending(other),
            "re-arm must not cancel the reused slot"
        );
        let e = q.pop().unwrap();
        assert_eq!(e.event, Ev::Tick);
        assert!(t.on_fired(e.id));
        assert_eq!(q.pop().unwrap().event, Ev::Other);
    }

    #[test]
    fn rearm_after_acknowledged_fire_schedules_fresh() {
        let mut q = EventQueue::new();
        let mut t = Timer::new();
        t.arm(&mut q, 1.0, Ev::Tick);
        let e = q.pop().unwrap();
        assert!(t.on_fired(e.id));
        assert!(!t.is_armed());
        t.arm(&mut q, 2.0, Ev::Tick);
        assert!(t.is_armed());
        assert_eq!(q.len(), 1);
        let e = q.pop().unwrap();
        assert_eq!(e.time.as_secs(), 3.0);
        assert!(t.on_fired(e.id));
    }

    #[test]
    fn rearm_in_a_small_queue_moves_the_pending_key() {
        let mut q = EventQueue::new();
        for i in 0..15 {
            q.schedule_in(10.0 + i as f64, Ev::Other);
        }
        let mut t = Timer::new();
        t.arm(&mut q, 5.0, Ev::Tick);
        let old = t.pending.unwrap();
        t.arm(&mut q, 30.0, Ev::Tick);
        assert_eq!((q.len(), q.cancelled_backlog()), (16, 0));
        assert!(!q.is_pending(old));
        let last = std::iter::from_fn(|| q.pop()).last().unwrap();
        assert_eq!((last.time.as_secs(), last.event), (30.0, Ev::Tick));
        assert!(t.on_fired(last.id));
    }

    #[test]
    fn rearm_past_sixteen_keys_leaves_one_stale_key() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.schedule_in(10.0 + i as f64, Ev::Other);
        }
        let mut t = Timer::new();
        t.arm(&mut q, 5.0, Ev::Tick);
        let old = t.pending.unwrap();
        t.arm(&mut q, 30.0, Ev::Tick);
        assert_eq!((q.len(), q.cancelled_backlog()), (17, 1));
        assert!(!q.is_pending(old));
        let last = std::iter::from_fn(|| q.pop()).last().unwrap();
        assert_eq!((last.time.as_secs(), last.event), (30.0, Ev::Tick));
        assert_eq!(q.cancelled_backlog(), 0);
    }

    #[test]
    fn stale_fire_is_rejected() {
        let mut q = EventQueue::new();
        let mut t = Timer::new();
        t.arm(&mut q, 1.0, Ev::Tick);
        let other = q.schedule_in(0.5, Ev::Other);
        assert!(!t.on_fired(other));
        assert!(t.is_armed());
    }
}
