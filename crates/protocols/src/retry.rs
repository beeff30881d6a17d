//! Retransmission retry policies: fixed interval, capped exponential
//! backoff, and decorrelated jitter.
//!
//! The paper's reliable mechanisms (reliable trigger, reliable refresh,
//! explicit reliable removal) all retransmit unacknowledged messages at a
//! fixed interval `R`.  Under a receiver capacity limit that is exactly the
//! wrong thing at population scale: a crash wipe leaves 10⁶ sessions
//! retransmitting in lockstep, so every retry wave arrives as one
//! synchronized burst that re-overflows the signaling queue forever.  A
//! [`RetryPolicy`] generalizes the interval choice per attempt:
//!
//! * [`RetryPolicy::Fixed`] — the paper's behavior and the default.  Every
//!   attempt waits the base interval.  Selecting it consumes no randomness
//!   and touches no state, so runs are **bit-identical** to the
//!   pre-policy code (pinned by the simulator goldens).
//! * [`RetryPolicy::Backoff`] — capped exponential backoff: attempt `k`
//!   (0-based, counted per retransmission cycle) waits
//!   `base · min(factor^k, cap_mult)`.  Deterministic — no randomness —
//!   so it spreads *successive* retries of one session but not sessions
//!   relative to each other.
//! * [`RetryPolicy::Jittered`] — decorrelated jitter after the AWS
//!   exponential-backoff-and-jitter analysis: the first attempt waits the
//!   base interval; each later re-arm draws uniformly from
//!   `[base, 3 · prev)` capped at `base · cap_mult`, where `prev` is the
//!   previous interval of the same cycle.  Exactly one uniform draw per
//!   jittered re-arm — the draw count is a pure function of the attempt
//!   counter — so the RNG stream stays independent of timer values and the
//!   determinism contract (bit-identical across execution policies and
//!   queue kinds) holds.
//!
//! The per-cycle state is a two-byte [`RetryState`], small enough to live
//! inside `NodeSim`'s 40-byte `SessionSlot` budget.  The previous interval
//! of the jittered policy is quantized to an integer multiple of the base
//! interval (`u8`, saturating) — a deliberate trade of a little jitter
//! granularity for population-scale memory.

use simcore::SimRng;

/// Default exponential growth factor per attempt.
pub const DEFAULT_BACKOFF_FACTOR: f64 = 2.0;
/// Default cap, as a multiple of the base interval.
pub const DEFAULT_CAP_MULT: f64 = 8.0;

/// How the interval between retransmission attempts evolves within one
/// unacknowledged cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RetryPolicy {
    /// Fixed interval (the paper's `R`): every attempt waits the base
    /// interval.  No randomness, no state — bit-identical to the
    /// pre-policy simulators.
    #[default]
    Fixed,
    /// Capped exponential backoff: attempt `k` waits
    /// `base · min(factor^k, cap_mult)`.
    Backoff {
        /// Multiplicative growth per attempt (≥ 1).
        factor: f64,
        /// Cap as a multiple of the base interval (≥ 1).
        cap_mult: f64,
    },
    /// Decorrelated jitter: the first attempt waits the base interval;
    /// each later re-arm draws uniformly from `[base, 3 · prev)`, capped
    /// at `base · cap_mult`.
    Jittered {
        /// Cap as a multiple of the base interval (≥ 1).
        cap_mult: f64,
    },
}

impl RetryPolicy {
    /// Capped exponential backoff with the default factor 2 and cap 8×.
    pub fn backoff() -> Self {
        RetryPolicy::Backoff {
            factor: DEFAULT_BACKOFF_FACTOR,
            cap_mult: DEFAULT_CAP_MULT,
        }
    }

    /// Decorrelated jitter with the default cap 8×.
    pub fn jittered() -> Self {
        RetryPolicy::Jittered {
            cap_mult: DEFAULT_CAP_MULT,
        }
    }

    /// The `(factor, cap_mult)` pair the symbolic latency bound plugs into
    /// its capped-geometric retry sum so that the bound dominates every
    /// attempt interval this policy can produce.
    pub fn bound_terms(&self) -> (f64, f64) {
        match *self {
            RetryPolicy::Fixed => (1.0, 1.0),
            RetryPolicy::Backoff { factor, cap_mult } => (factor, cap_mult),
            // Jitter can hit the cap immediately; bound with a degenerate
            // "jump straight to the cap" geometry.
            RetryPolicy::Jittered { cap_mult } => (cap_mult, cap_mult),
        }
    }

    /// Whether [`RetryPolicy::next_interval`] ever draws from the RNG: only
    /// `Jittered` does.  Under the other two, a cycle's retransmission
    /// times are a fixed sequence once the cycle has started.
    pub fn draws_randomness(&self) -> bool {
        matches!(self, RetryPolicy::Jittered { .. })
    }

    /// Short label for tables and flags.
    pub fn label(&self) -> &'static str {
        match self {
            RetryPolicy::Fixed => "fixed",
            RetryPolicy::Backoff { .. } => "backoff",
            RetryPolicy::Jittered { .. } => "jittered",
        }
    }

    /// The interval to wait before the *next* retransmission attempt, given
    /// the base interval (the paper's `R`, or the sampled timer value under
    /// an exponential timer mode).
    ///
    /// Advances `state` by one attempt.  `Fixed` touches neither the RNG
    /// nor the state; `Backoff` touches only the state; `Jittered` draws
    /// exactly one uniform variate per attempt after the cycle's first.
    /// Callers reset the state with [`RetryState::reset`] when an
    /// acknowledgment retires the cycle.
    pub fn next_interval(&self, base: f64, state: &mut RetryState, rng: &mut SimRng) -> f64 {
        match *self {
            RetryPolicy::Fixed => base,
            RetryPolicy::Backoff { factor, cap_mult } => {
                let mult = factor.powi(state.attempt as i32).min(cap_mult);
                state.attempt = state.attempt.saturating_add(1);
                base * mult
            }
            RetryPolicy::Jittered { cap_mult } => {
                if state.attempt == 0 {
                    // The cycle's first attempt waits exactly the base
                    // interval (the classic decorrelated-jitter start), so
                    // the symbolic first-attempt term still dominates it.
                    state.attempt = 1;
                    state.jitter_mult = 1;
                    return base;
                }
                let prev = base * state.jitter_mult.max(1) as f64;
                let cap = base * cap_mult;
                let next = rng.uniform_range(base, 3.0 * prev).min(cap);
                // Quantize the memory of this draw to a u8 multiple of the
                // base so the state stays within the SessionSlot budget.
                let quantized = (next / base).round().clamp(1.0, 255.0);
                state.jitter_mult = quantized as u8;
                state.attempt = state.attempt.saturating_add(1);
                next
            }
        }
    }
}

/// Per-cycle retry state: two bytes, embedded in every per-session slot.
///
/// `attempt` counts re-arms since the cycle started (saturating);
/// `jitter_mult` is the decorrelated-jitter "previous interval" quantized
/// to a multiple of the base interval (`0` doubles as "fresh cycle").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryState {
    /// Attempts made in the current retransmission cycle (saturating).
    pub attempt: u8,
    /// Quantized previous jitter interval, in base-interval multiples.
    pub jitter_mult: u8,
}

impl RetryState {
    /// A fresh cycle: next attempt is the first.
    pub fn reset(&mut self) {
        *self = RetryState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_touches_neither_rng_nor_state() {
        let policy = RetryPolicy::Fixed;
        let mut state = RetryState::default();
        let mut rng = SimRng::new(1);
        let mut probe = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(policy.next_interval(0.06, &mut state, &mut rng), 0.06);
        }
        assert_eq!(state, RetryState::default());
        // The RNG stream was never advanced.
        assert_eq!(rng.uniform(), probe.uniform());
        assert!(!policy.draws_randomness());
    }

    #[test]
    fn backoff_is_capped_geometric_and_deterministic() {
        let policy = RetryPolicy::backoff();
        let mut state = RetryState::default();
        let mut rng = SimRng::new(2);
        let mut probe = SimRng::new(2);
        let intervals: Vec<f64> = (0..6)
            .map(|_| policy.next_interval(1.0, &mut state, &mut rng))
            .collect();
        assert_eq!(intervals, vec![1.0, 2.0, 4.0, 8.0, 8.0, 8.0]);
        assert_eq!(rng.uniform(), probe.uniform(), "backoff must not draw");
        assert!(!policy.draws_randomness());
        state.reset();
        assert_eq!(policy.next_interval(1.0, &mut state, &mut rng), 1.0);
    }

    #[test]
    fn backoff_attempt_counter_saturates() {
        let policy = RetryPolicy::backoff();
        let mut state = RetryState {
            attempt: u8::MAX,
            jitter_mult: 0,
        };
        let mut rng = SimRng::new(3);
        // factor^255 would overflow to inf without the cap; the cap holds.
        assert_eq!(policy.next_interval(1.0, &mut state, &mut rng), 8.0);
        assert_eq!(state.attempt, u8::MAX);
    }

    #[test]
    fn jittered_starts_at_base_then_draws_once_per_rearm() {
        let policy = RetryPolicy::jittered();
        let mut state = RetryState::default();
        let mut rng = SimRng::new(4);
        let mut probe = SimRng::new(4);
        let base = 0.06;
        let cap = base * DEFAULT_CAP_MULT;
        // The cycle's first attempt is deterministic: exactly the base.
        assert_eq!(policy.next_interval(base, &mut state, &mut rng), base);
        let mut prev_mult = state.jitter_mult;
        for _ in 0..200 {
            let interval = policy.next_interval(base, &mut state, &mut rng);
            let prev = base * prev_mult.max(1) as f64;
            assert!(interval >= base - 1e-12, "below base: {interval}");
            assert!(interval <= (3.0 * prev).min(cap) + 1e-12);
            prev_mult = state.jitter_mult;
            // Exactly one uniform per re-arm after the first attempt.
            probe.uniform();
        }
        assert_eq!(rng.uniform(), probe.uniform());
        assert!(policy.draws_randomness());
    }

    #[test]
    fn jittered_is_deterministic_for_a_fixed_seed() {
        let policy = RetryPolicy::jittered();
        let run = |seed: u64| -> Vec<f64> {
            let mut state = RetryState::default();
            let mut rng = SimRng::new(seed);
            (0..32)
                .map(|_| policy.next_interval(0.06, &mut state, &mut rng))
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn worst_case_mult_and_bound_terms_dominate_samples() {
        let base = 1.0;
        for policy in [
            RetryPolicy::Fixed,
            RetryPolicy::backoff(),
            RetryPolicy::jittered(),
        ] {
            let (factor, cap_mult) = policy.bound_terms();
            let mut state = RetryState::default();
            let mut rng = SimRng::new(11);
            for k in 0..40u32 {
                let sampled = policy.next_interval(base, &mut state, &mut rng);
                let bound = base * factor.powi(k.min(31) as i32).min(cap_mult);
                assert!(
                    sampled <= bound + 1e-9,
                    "{}: attempt {k} sampled {sampled} > bound {bound}",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RetryPolicy::Fixed.label(), "fixed");
        assert_eq!(RetryPolicy::backoff().label(), "backoff");
        assert_eq!(RetryPolicy::jittered().label(), "jittered");
        assert_eq!(RetryPolicy::default(), RetryPolicy::Fixed);
    }
}
