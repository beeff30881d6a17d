//! Deterministic receiver capacity: finite service rate and a bounded
//! signaling queue.
//!
//! The loss/delay/fault pipeline models the *link*; this module models the
//! *receiver*.  Real signaling endpoints process messages at a finite rate,
//! and under a restart storm the synchronized retransmissions of 10⁶
//! sessions arrive faster than any realistic control plane can service
//! them.  A [`CapacityModel`] gives a channel (or `NodeSim`'s inlined
//! delivery path) an M/D/1/K-style server: messages that arrive while the
//! backlog is below the queue limit are delivered after the residual
//! service backlog drains (queueing delay); messages that arrive to a full
//! queue are dropped and attributed to overload.
//!
//! Determinism contract — identical to the fault layer's:
//!
//! * the model is **pure arithmetic over arrival times** and never consumes
//!   randomness, in any configuration, so attaching it cannot perturb the
//!   RNG stream of loss and delay draws;
//! * the default [`CapacityModel::unlimited`] is an exact no-op: delivery
//!   times and statistics are byte-identical to a build without the
//!   capacity layer (pinned by tests in `channel.rs`).
//!
//! The state lives in a separate [`CapacityState`] so the model itself can
//! stay `Copy` inside configuration structs that travel into replication
//! closures by value.

use std::fmt;

/// Why a capacity model was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityError {
    /// The service rate is NaN or infinite.
    NonFiniteRate {
        /// The offending value.
        rate: f64,
    },
    /// The service rate is zero or negative.
    NonPositiveRate {
        /// The offending value.
        rate: f64,
    },
    /// The queue limit is zero, which would drop every message.
    ZeroQueueLimit,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CapacityError::NonFiniteRate { rate } => {
                write!(f, "capacity service rate must be finite, got {rate}")
            }
            CapacityError::NonPositiveRate { rate } => {
                write!(f, "capacity service rate must be positive, got {rate}")
            }
            CapacityError::ZeroQueueLimit => {
                write!(f, "capacity queue limit must be at least 1")
            }
        }
    }
}

impl std::error::Error for CapacityError {}

/// A receiver's processing capacity: deterministic service rate
/// (messages/second) plus a bounded queue (messages of backlog).
///
/// `unlimited()` — the default — disables the model entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    /// Service rate in messages/second; `0.0` encodes "unlimited".
    service_rate: f64,
    /// Maximum backlog, in messages, before arrivals overflow.
    queue_limit: u32,
}

impl Default for CapacityModel {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl CapacityModel {
    /// Infinite capacity: every message is serviced instantly, nothing is
    /// queued or dropped.  Behavior (and every statistic) is byte-identical
    /// to a build without the capacity layer.
    pub fn unlimited() -> Self {
        Self {
            service_rate: 0.0,
            queue_limit: 0,
        }
    }

    /// A finite receiver: `service_rate` messages/second of deterministic
    /// service, with at most `queue_limit` messages of backlog before
    /// arrivals are dropped to overload.
    pub fn limited(service_rate: f64, queue_limit: u32) -> Result<Self, CapacityError> {
        if !service_rate.is_finite() {
            return Err(CapacityError::NonFiniteRate { rate: service_rate });
        }
        if service_rate <= 0.0 {
            return Err(CapacityError::NonPositiveRate { rate: service_rate });
        }
        if queue_limit == 0 {
            return Err(CapacityError::ZeroQueueLimit);
        }
        Ok(Self {
            service_rate,
            queue_limit,
        })
    }

    /// Whether the model is the disabled no-op.
    pub fn is_unlimited(&self) -> bool {
        self.service_rate == 0.0
    }

    /// Queue limit in messages (`0` when unlimited).
    pub fn queue_limit(&self) -> u32 {
        self.queue_limit
    }
}

/// The fate of one arrival at a capacity-limited receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// The message was (or will be) serviced; processing completes at the
    /// given absolute time (`>= arrival`; the difference is queueing delay).
    Serviced {
        /// Absolute completion time in seconds of virtual time.
        completion: f64,
    },
    /// The backlog was at the queue limit: dropped to overload.
    Overflow,
}

/// Mutable server state: the absolute time until which the receiver is busy
/// draining already-admitted work.
///
/// Arrivals must be fed in non-decreasing time order — exactly the order a
/// FIFO channel produces — so the backlog `(busy_until - now) ·
/// service_rate` is the messages still unserviced at the instant of arrival.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapacityState {
    busy_until: f64,
}

impl CapacityState {
    /// Offers one arrival at absolute time `now` to the receiver.
    ///
    /// Pure arithmetic; never consumes randomness.  With an unlimited model
    /// this returns `Serviced { completion: now }` and leaves the state
    /// untouched.
    pub fn admit(&mut self, model: &CapacityModel, now: f64) -> Admission {
        if model.is_unlimited() {
            return Admission::Serviced { completion: now };
        }
        let backlog = (self.busy_until - now).max(0.0) * model.service_rate;
        if backlog >= model.queue_limit as f64 {
            return Admission::Overflow;
        }
        self.busy_until = self.busy_until.max(now) + 1.0 / model.service_rate;
        Admission::Serviced {
            completion: self.busy_until,
        }
    }

    /// Current backlog, in messages, at absolute time `now` (always `0.0`
    /// for an unlimited model).
    pub fn backlog(&self, model: &CapacityModel, now: f64) -> f64 {
        if model.is_unlimited() {
            0.0
        } else {
            (self.busy_until - now).max(0.0) * model.service_rate
        }
    }

    /// Forgets all queued work (e.g. the receiver crash–restarted and its
    /// signaling queue was volatile).
    pub fn reset(&mut self) {
        self.busy_until = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_an_exact_no_op() {
        let model = CapacityModel::unlimited();
        assert!(model.is_unlimited());
        let mut state = CapacityState::default();
        for i in 0..100 {
            let now = i as f64 * 1e-6;
            assert_eq!(
                state.admit(&model, now),
                Admission::Serviced { completion: now }
            );
        }
        assert_eq!(state, CapacityState::default());
        assert_eq!(state.backlog(&model, 0.0), 0.0);
    }

    #[test]
    fn validation_rejects_bad_models() {
        assert_eq!(
            CapacityModel::limited(f64::INFINITY, 4),
            Err(CapacityError::NonFiniteRate {
                rate: f64::INFINITY
            })
        );
        assert_eq!(
            CapacityModel::limited(0.0, 4),
            Err(CapacityError::NonPositiveRate { rate: 0.0 })
        );
        assert_eq!(
            CapacityModel::limited(-1.0, 4),
            Err(CapacityError::NonPositiveRate { rate: -1.0 })
        );
        assert_eq!(
            CapacityModel::limited(10.0, 0),
            Err(CapacityError::ZeroQueueLimit)
        );
        assert!(CapacityModel::limited(10.0, 1).is_ok());
    }

    #[test]
    fn idle_server_services_after_one_service_time() {
        let model = CapacityModel::limited(10.0, 4).unwrap();
        let mut state = CapacityState::default();
        assert_eq!(
            state.admit(&model, 5.0),
            Admission::Serviced { completion: 5.1 }
        );
        // Long after completion the server is idle again.
        assert_eq!(
            state.admit(&model, 100.0),
            Admission::Serviced { completion: 100.1 }
        );
    }

    #[test]
    fn backlog_queues_then_overflows() {
        // 1 msg/s, queue limit 2: a burst at t = 0 admits two messages
        // (completions 1 s and 2 s), then overflows until work drains.
        let model = CapacityModel::limited(1.0, 2).unwrap();
        let mut state = CapacityState::default();
        assert_eq!(
            state.admit(&model, 0.0),
            Admission::Serviced { completion: 1.0 }
        );
        assert_eq!(state.backlog(&model, 0.0), 1.0);
        assert_eq!(
            state.admit(&model, 0.0),
            Admission::Serviced { completion: 2.0 }
        );
        assert_eq!(state.admit(&model, 0.0), Admission::Overflow);
        assert_eq!(state.admit(&model, 0.0), Admission::Overflow);
        // Half the backlog has drained by t = 1: one slot is free again.
        assert_eq!(
            state.admit(&model, 1.0),
            Admission::Serviced { completion: 3.0 }
        );
        assert_eq!(state.admit(&model, 1.0), Admission::Overflow);
    }

    #[test]
    fn completions_are_fifo_for_monotone_arrivals() {
        let model = CapacityModel::limited(7.0, 5).unwrap();
        let mut state = CapacityState::default();
        let mut last = 0.0;
        for i in 0..200 {
            let now = i as f64 * 0.05;
            if let Admission::Serviced { completion } = state.admit(&model, now) {
                assert!(completion >= now);
                assert!(completion >= last, "reordered: {completion} < {last}");
                last = completion;
            }
        }
    }

    #[test]
    fn reset_forgets_the_backlog() {
        let model = CapacityModel::limited(1.0, 1).unwrap();
        let mut state = CapacityState::default();
        assert!(matches!(
            state.admit(&model, 0.0),
            Admission::Serviced { .. }
        ));
        assert_eq!(state.admit(&model, 0.0), Admission::Overflow);
        state.reset();
        assert_eq!(
            state.admit(&model, 0.0),
            Admission::Serviced { completion: 1.0 }
        );
    }
}
