//! Deterministic fault injection: scheduled outages, degraded episodes and
//! crash–restart events, all in virtual time.
//!
//! The paper's robustness claim — soft state self-heals after failures that
//! leave hard state orphaned — is about *transient* faults, which the
//! steady-state loss models in [`crate::loss`] cannot express.  This module
//! adds a declarative [`FaultSchedule`]: a small, copyable list of
//! [`FaultEvent`]s fixed before the run starts, so fault timing is part of
//! the experiment configuration and every replication remains bit-identical
//! across execution policies.
//!
//! Two kinds of events exist:
//!
//! * **Link episodes** ([`FaultEvent::Outage`], [`FaultEvent::Degrade`]) act
//!   on channels.  A [`FaultClock`] wraps the schedule and answers
//!   [`FaultClock::link_effect`] for any instant; [`crate::Channel`] consults
//!   it on every transmit.  During an outage the channel drops the message
//!   *without consuming randomness*, which is what keeps an empty schedule
//!   bit-identical to a fault-free build (same RNG stream, same results).
//!   Degraded episodes add an extra independent drop probability after the
//!   base loss draw, so the base loss process (Bernoulli or Gilbert–Elliott)
//!   also advances identically whether or not the episode is active.
//! * **Node events** ([`FaultEvent::CrashRestart`]) act on protocol state,
//!   not on links, so the channel layer ignores them; simulators read them
//!   off the schedule via [`FaultClock::crashes`] and schedule their own
//!   crash handling (wiping or preserving held state per
//!   [`CrashStatePolicy`]).
//!
//! Link episodes are validated to be non-overlapping: at any instant the
//! link is in exactly one of the [`LinkEffect`] states, so there is no
//! ambiguity about how concurrent degradations would compose.

use std::fmt;

/// Maximum number of events a [`FaultSchedule`] can carry.
///
/// The schedule is a fixed-capacity inline array so that every configuration
/// struct embedding it stays `Copy` (the simulators pass configs by value
/// into replication closures).  Thirty-two events accommodate multi-wave
/// restart storms (one `CrashRestart` per wave) with room to spare;
/// [`FaultError::TooManyEvents`] reports overflow.
pub const MAX_FAULT_EVENTS: usize = 32;

/// What happens to protocol state held by a node when it crash–restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStatePolicy {
    /// Volatile state: everything the node held is gone after the restart.
    /// Soft state re-installs from the refresh stream; hard state stays
    /// missing until the next explicit signaling exchange repairs it.
    Wipe,
    /// Durable state (e.g. written through to disk): the restart is
    /// invisible to the state machines.  Useful as the control arm.
    Preserve,
}

/// One scheduled fault, in absolute virtual time (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Total blackout: every transmit during `[start, start + duration)` is
    /// dropped, deterministically and without consuming randomness.
    Outage {
        /// Absolute start time (seconds).
        start: f64,
        /// Episode length (seconds), strictly positive.
        duration: f64,
    },
    /// Correlated-loss episode: during `[start, start + duration)` each
    /// message that survives the channel's base loss process is additionally
    /// dropped with probability `loss`.
    Degrade {
        /// Absolute start time (seconds).
        start: f64,
        /// Episode length (seconds), strictly positive.
        duration: f64,
        /// Additional independent drop probability in `[0, 1]`.
        loss: f64,
    },
    /// The node crash–restarts instantaneously at `at`; what happens to the
    /// state it held is decided by `state_policy`.
    CrashRestart {
        /// Absolute crash time (seconds).
        at: f64,
        /// Fate of the held protocol state.
        state_policy: CrashStatePolicy,
    },
}

impl FaultEvent {
    /// The half-open `[start, end)` window during which this event affects
    /// the link, or `None` for node events.
    fn link_window(&self) -> Option<(f64, f64)> {
        match *self {
            FaultEvent::Outage { start, duration }
            | FaultEvent::Degrade {
                start, duration, ..
            } => Some((start, start + duration)),
            FaultEvent::CrashRestart { .. } => None,
        }
    }

    /// Validates this event in isolation.
    pub fn validate(&self) -> Result<(), FaultError> {
        let check_finite = |value: f64| {
            if value.is_finite() {
                Ok(())
            } else {
                Err(FaultError::NonFiniteTime { value })
            }
        };
        match *self {
            FaultEvent::Outage { start, duration } => {
                check_finite(start)?;
                check_finite(duration)?;
                if start < 0.0 {
                    return Err(FaultError::NegativeStart { start });
                }
                if duration <= 0.0 {
                    return Err(FaultError::NonPositiveDuration { duration });
                }
            }
            FaultEvent::Degrade {
                start,
                duration,
                loss,
            } => {
                check_finite(start)?;
                check_finite(duration)?;
                if start < 0.0 {
                    return Err(FaultError::NegativeStart { start });
                }
                if duration <= 0.0 {
                    return Err(FaultError::NonPositiveDuration { duration });
                }
                if !(0.0..=1.0).contains(&loss) {
                    return Err(FaultError::LossOutOfRange { loss });
                }
            }
            FaultEvent::CrashRestart { at, .. } => {
                check_finite(at)?;
                if at < 0.0 {
                    return Err(FaultError::NegativeStart { start: at });
                }
            }
        }
        Ok(())
    }
}

/// Why a fault event or schedule was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A time field is NaN or infinite.
    NonFiniteTime {
        /// The offending value.
        value: f64,
    },
    /// An event starts before t = 0.
    NegativeStart {
        /// The offending start time.
        start: f64,
    },
    /// An episode has zero or negative length.
    NonPositiveDuration {
        /// The offending duration.
        duration: f64,
    },
    /// A degraded episode's extra loss probability is outside `[0, 1]`.
    LossOutOfRange {
        /// The offending probability.
        loss: f64,
    },
    /// Two link episodes (outage or degrade) overlap in time, which would
    /// make the link effect at an instant ambiguous.
    OverlappingEpisodes {
        /// End of the earlier episode.
        first_end: f64,
        /// Start of the later episode, strictly before `first_end`.
        second_start: f64,
    },
    /// The schedule would exceed [`MAX_FAULT_EVENTS`].
    TooManyEvents {
        /// The fixed capacity that was exceeded.
        capacity: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultError::NonFiniteTime { value } => {
                write!(f, "fault time must be finite, got {value}")
            }
            FaultError::NegativeStart { start } => {
                write!(f, "fault must not start before t = 0, got {start}")
            }
            FaultError::NonPositiveDuration { duration } => {
                write!(f, "fault episode needs a positive duration, got {duration}")
            }
            FaultError::LossOutOfRange { loss } => {
                write!(f, "degrade loss probability must be in [0, 1], got {loss}")
            }
            FaultError::OverlappingEpisodes {
                first_end,
                second_start,
            } => write!(
                f,
                "link fault episodes overlap: one ends at {first_end} but the next \
                 starts at {second_start}"
            ),
            FaultError::TooManyEvents { capacity } => {
                write!(f, "fault schedule holds at most {capacity} events")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A fixed, copyable list of scheduled faults.
///
/// The schedule is immutable once built (events are appended through the
/// fallible [`FaultSchedule::with`] builder, which validates as it goes) and
/// deliberately `Copy`: simulator configurations embed it by value, so fault
/// timing travels with the config into every replication closure without
/// allocation or sharing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSchedule {
    events: [Option<FaultEvent>; MAX_FAULT_EVENTS],
}

impl FaultSchedule {
    /// The empty schedule: no faults, bit-identical behavior to a build
    /// without the fault layer.
    pub fn none() -> Self {
        Self::default()
    }

    /// Appends one event, validating it and the resulting schedule.
    pub fn with(mut self, event: FaultEvent) -> Result<Self, FaultError> {
        event.validate()?;
        let slot =
            self.events
                .iter()
                .position(|e| e.is_none())
                .ok_or(FaultError::TooManyEvents {
                    capacity: MAX_FAULT_EVENTS,
                })?;
        self.events[slot] = Some(event);
        self.validate()?;
        Ok(self)
    }

    /// Builds a schedule from a slice of events.
    pub fn from_events(events: &[FaultEvent]) -> Result<Self, FaultError> {
        let mut schedule = Self::none();
        for &event in events {
            schedule = schedule.with(event)?;
        }
        Ok(schedule)
    }

    /// Convenience: a single total blackout of `duration` seconds at `start`.
    pub fn outage(start: f64, duration: f64) -> Result<Self, FaultError> {
        Self::none().with(FaultEvent::Outage { start, duration })
    }

    /// Whether the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events[0].is_none()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.iter().filter(|e| e.is_some()).count()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> impl Iterator<Item = FaultEvent> + '_ {
        self.events.iter().flatten().copied()
    }

    /// Full validation: every event individually, plus the link episodes
    /// pairwise non-overlapping.
    pub fn validate(&self) -> Result<(), FaultError> {
        let mut windows: Vec<(f64, f64)> = Vec::new();
        for event in self.events() {
            event.validate()?;
            if let Some(window) = event.link_window() {
                windows.push(window);
            }
        }
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in windows.windows(2) {
            let (_, first_end) = pair[0];
            let (second_start, _) = pair[1];
            if second_start < first_end {
                return Err(FaultError::OverlappingEpisodes {
                    first_end,
                    second_start,
                });
            }
        }
        Ok(())
    }
}

/// The state of a link at one instant, as seen by a transmitting channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkEffect {
    /// No active link fault: only the channel's base loss process applies.
    Up,
    /// An [`FaultEvent::Outage`] is active: the transmit is dropped
    /// deterministically, without consuming randomness.
    Blackout,
    /// A [`FaultEvent::Degrade`] is active: after the base loss draw, drop
    /// with this additional independent probability.
    Degraded(f64),
}

/// Most boundaries a link timeline can have: each link episode contributes
/// its start and its end.
const MAX_BOUNDARIES: usize = 2 * MAX_FAULT_EVENTS;

/// A read-only view of a [`FaultSchedule`] indexed by virtual time.
///
/// [`FaultClock::new`] turns the schedule's link episodes into a
/// piecewise-constant timeline once: the sorted episode starts and ends cut
/// time into segments, and each segment stores the [`LinkEffect`] the
/// schedule gives at its left end.  [`FaultClock::link_effect`] is then a
/// binary search over at most [`MAX_BOUNDARIES`] boundaries instead of a scan
/// of every event slot.  Channels and `NodeSim` call it on every message, so
/// the lookup is on the hot path of faulted runs.  Lookups are pure
/// (`&self`), so they cannot depend on execution order, preserving the
/// determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultClock {
    schedule: FaultSchedule,
    /// Number of live entries in `boundaries`.
    len: usize,
    /// Distinct episode starts and ends, ascending.
    boundaries: [f64; MAX_BOUNDARIES],
    /// `effects[i]` holds on `[boundaries[i - 1], boundaries[i])`;
    /// `effects[0]` before the first boundary and `effects[len]` after the
    /// last.
    effects: [LinkEffect; MAX_BOUNDARIES + 1],
}

impl Default for FaultClock {
    fn default() -> Self {
        Self::new(FaultSchedule::none())
    }
}

impl FaultClock {
    /// Wraps a schedule and builds its link timeline.  The schedule should
    /// already be validated; an invalid one does not panic here, but
    /// overlapping episodes resolve in insertion order (blackout checked
    /// before degradation).
    pub fn new(schedule: FaultSchedule) -> Self {
        let mut boundaries = [0.0; MAX_BOUNDARIES];
        let mut len = 0;
        for (start, end) in schedule.events().filter_map(|e| e.link_window()) {
            boundaries[len] = start;
            boundaries[len + 1] = end;
            len += 2;
        }
        boundaries[..len].sort_by(f64::total_cmp);
        let mut distinct = 0;
        for i in 0..len {
            if distinct == 0 || boundaries[i] != boundaries[distinct - 1] {
                boundaries[distinct] = boundaries[i];
                distinct += 1;
            }
        }
        // Each segment takes the schedule's rule at its left end: blackout
        // if an outage covers it, else the first covering degradation in
        // insertion order, else up.  Episodes are applied last to first so
        // that earlier degradations overwrite later ones, and nothing
        // overwrites a blackout.  Every episode starts at or after the first
        // boundary, so `effects[0]` stays up.
        let mut effects = [LinkEffect::Up; MAX_BOUNDARIES + 1];
        for &event in schedule.events.iter().rev().flatten() {
            let Some((start, end)) = event.link_window() else {
                continue;
            };
            let effect = match event {
                FaultEvent::Degrade { loss, .. } => LinkEffect::Degraded(loss),
                _ => LinkEffect::Blackout,
            };
            for (i, &left) in boundaries[..distinct].iter().enumerate() {
                if left >= start && left < end && effects[i + 1] != LinkEffect::Blackout {
                    effects[i + 1] = effect;
                }
            }
        }
        Self {
            schedule,
            len: distinct,
            boundaries,
            effects,
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// The link state at absolute time `now`.  Episode windows are half-open
    /// `[start, start + duration)`.
    pub fn link_effect(&self, now: f64) -> LinkEffect {
        let segment = self.boundaries[..self.len].partition_point(|&b| b <= now);
        self.effects[segment]
    }

    /// The scheduled crash–restart events `(at, state_policy)`, in insertion
    /// order.  Simulators turn these into crash events on their own queues;
    /// the channel layer ignores them.
    pub fn crashes(&self) -> impl Iterator<Item = (f64, CrashStatePolicy)> + '_ {
        self.schedule.events().filter_map(|event| match event {
            FaultEvent::CrashRestart { at, state_policy } => Some((at, state_policy)),
            _ => None,
        })
    }
}

/// The link state at `now` by a scan of every event: the schedule's rule
/// stated directly, kept as the oracle for the timeline.
#[cfg(test)]
fn scan_link_effect(schedule: &FaultSchedule, now: f64) -> LinkEffect {
    let mut degraded: Option<f64> = None;
    for event in schedule.events() {
        match event {
            FaultEvent::Outage { start, duration } => {
                if now >= start && now < start + duration {
                    return LinkEffect::Blackout;
                }
            }
            FaultEvent::Degrade {
                start,
                duration,
                loss,
            } => {
                if now >= start && now < start + duration && degraded.is_none() {
                    degraded = Some(loss);
                }
            }
            FaultEvent::CrashRestart { .. } => {}
        }
    }
    match degraded {
        Some(loss) => LinkEffect::Degraded(loss),
        None => LinkEffect::Up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A schedule built without validation, so that episodes may overlap.
    fn unchecked(events: &[FaultEvent]) -> FaultSchedule {
        let mut schedule = FaultSchedule::none();
        for (slot, &event) in schedule.events.iter_mut().zip(events) {
            *slot = Some(event);
        }
        schedule
    }

    /// Times at, just before and just after every boundary, plus extremes.
    fn probe_times(schedule: &FaultSchedule, extra: &[f64]) -> Vec<f64> {
        let mut times = vec![-1.0, 0.0, 1e9, f64::INFINITY, f64::NAN];
        times.extend_from_slice(extra);
        for (start, end) in schedule.events().filter_map(|e| e.link_window()) {
            for b in [start, end] {
                times.extend([b - 1e-9, b, b + 1e-9]);
            }
        }
        times
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // The timeline answers exactly as a scan of the schedule, also for
        // overlapping (invalid) episodes and at every boundary.  Times are
        // multiples of 0.25 so that starts and ends often coincide.
        #[test]
        fn prop_timeline_matches_scan(
            raw in proptest::collection::vec(
                (0u8..3, 0u32..400, 1u32..120, 0.0f64..1.0),
                0..MAX_FAULT_EVENTS + 1,
            ),
            extra in proptest::collection::vec(0.0f64..150.0, 0..64),
        ) {
            let events: Vec<FaultEvent> = raw
                .iter()
                .map(|&(kind, start, duration, loss)| {
                    let start = f64::from(start) * 0.25;
                    let duration = f64::from(duration) * 0.25;
                    match kind {
                        0 => FaultEvent::Outage { start, duration },
                        1 => FaultEvent::Degrade { start, duration, loss },
                        _ => FaultEvent::CrashRestart {
                            at: start,
                            state_policy: CrashStatePolicy::Wipe,
                        },
                    }
                })
                .collect();
            let schedule = unchecked(&events);
            let clock = FaultClock::new(schedule);
            for t in probe_times(&schedule, &extra) {
                prop_assert_eq!(clock.link_effect(t), scan_link_effect(&schedule, t), "t = {}", t);
            }
        }
    }

    #[test]
    fn overlapping_episodes_resolve_in_insertion_order() {
        let schedule = unchecked(&[
            FaultEvent::Degrade {
                start: 0.0,
                duration: 10.0,
                loss: 0.1,
            },
            FaultEvent::Degrade {
                start: 5.0,
                duration: 10.0,
                loss: 0.9,
            },
            FaultEvent::Outage {
                start: 8.0,
                duration: 1.0,
            },
        ]);
        let clock = FaultClock::new(schedule);
        assert_eq!(clock.link_effect(6.0), LinkEffect::Degraded(0.1));
        assert_eq!(clock.link_effect(8.5), LinkEffect::Blackout);
        assert_eq!(clock.link_effect(9.0), LinkEffect::Degraded(0.1));
        assert_eq!(clock.link_effect(12.0), LinkEffect::Degraded(0.9));
        assert_eq!(clock.link_effect(15.0), LinkEffect::Up);
    }

    #[test]
    fn full_schedule_of_episodes_fits_the_timeline() {
        let events: Vec<FaultEvent> = (0..MAX_FAULT_EVENTS)
            .map(|i| FaultEvent::Outage {
                start: 10.0 * i as f64,
                duration: 5.0,
            })
            .collect();
        let clock = FaultClock::new(FaultSchedule::from_events(&events).unwrap());
        assert_eq!(clock.len, MAX_BOUNDARIES);
        assert_eq!(clock.link_effect(312.0), LinkEffect::Blackout);
        assert_eq!(clock.link_effect(317.0), LinkEffect::Up);
    }

    #[test]
    fn empty_schedule_is_always_up() {
        let clock = FaultClock::new(FaultSchedule::none());
        for t in [0.0, 1.0, 1e6] {
            assert_eq!(clock.link_effect(t), LinkEffect::Up);
        }
        assert_eq!(clock.crashes().count(), 0);
        assert!(FaultSchedule::none().is_empty());
        assert_eq!(FaultSchedule::none().len(), 0);
    }

    #[test]
    fn outage_window_is_half_open() {
        let clock = FaultClock::new(FaultSchedule::outage(60.0, 30.0).unwrap());
        assert_eq!(clock.link_effect(59.999), LinkEffect::Up);
        assert_eq!(clock.link_effect(60.0), LinkEffect::Blackout);
        assert_eq!(clock.link_effect(89.999), LinkEffect::Blackout);
        assert_eq!(clock.link_effect(90.0), LinkEffect::Up);
    }

    #[test]
    fn degrade_reports_extra_loss() {
        let schedule = FaultSchedule::none()
            .with(FaultEvent::Degrade {
                start: 10.0,
                duration: 5.0,
                loss: 0.4,
            })
            .unwrap();
        let clock = FaultClock::new(schedule);
        assert_eq!(clock.link_effect(9.0), LinkEffect::Up);
        assert_eq!(clock.link_effect(12.0), LinkEffect::Degraded(0.4));
        assert_eq!(clock.link_effect(15.0), LinkEffect::Up);
    }

    #[test]
    fn crashes_are_listed_and_do_not_touch_the_link() {
        let schedule = FaultSchedule::none()
            .with(FaultEvent::CrashRestart {
                at: 42.0,
                state_policy: CrashStatePolicy::Wipe,
            })
            .unwrap();
        let clock = FaultClock::new(schedule);
        assert_eq!(clock.link_effect(42.0), LinkEffect::Up);
        let crashes: Vec<_> = clock.crashes().collect();
        assert_eq!(crashes, vec![(42.0, CrashStatePolicy::Wipe)]);
    }

    #[test]
    fn validation_rejects_bad_events() {
        assert_eq!(
            FaultSchedule::outage(-1.0, 5.0),
            Err(FaultError::NegativeStart { start: -1.0 })
        );
        assert_eq!(
            FaultSchedule::outage(0.0, 0.0),
            Err(FaultError::NonPositiveDuration { duration: 0.0 })
        );
        // NaN != NaN, so match the variant rather than compare values.
        assert!(matches!(
            FaultSchedule::outage(f64::NAN, 5.0),
            Err(FaultError::NonFiniteTime { .. })
        ));
        assert_eq!(
            FaultSchedule::none().with(FaultEvent::Degrade {
                start: 0.0,
                duration: 1.0,
                loss: 1.5,
            }),
            Err(FaultError::LossOutOfRange { loss: 1.5 })
        );
    }

    #[test]
    fn validation_rejects_overlapping_link_episodes() {
        let result = FaultSchedule::outage(10.0, 10.0)
            .unwrap()
            .with(FaultEvent::Degrade {
                start: 15.0,
                duration: 10.0,
                loss: 0.2,
            });
        assert_eq!(
            result,
            Err(FaultError::OverlappingEpisodes {
                first_end: 20.0,
                second_start: 15.0,
            })
        );
        // Back-to-back episodes are fine (half-open windows).
        assert!(FaultSchedule::outage(10.0, 10.0)
            .unwrap()
            .with(FaultEvent::Degrade {
                start: 20.0,
                duration: 10.0,
                loss: 0.2,
            })
            .is_ok());
        // Crashes never conflict with link episodes.
        assert!(FaultSchedule::outage(10.0, 10.0)
            .unwrap()
            .with(FaultEvent::CrashRestart {
                at: 15.0,
                state_policy: CrashStatePolicy::Wipe,
            })
            .is_ok());
    }

    #[test]
    fn capacity_overflow_is_typed() {
        let mut schedule = FaultSchedule::none();
        for i in 0..MAX_FAULT_EVENTS {
            schedule = schedule
                .with(FaultEvent::CrashRestart {
                    at: i as f64,
                    state_policy: CrashStatePolicy::Preserve,
                })
                .unwrap();
        }
        assert_eq!(schedule.len(), MAX_FAULT_EVENTS);
        assert_eq!(
            schedule.with(FaultEvent::CrashRestart {
                at: 99.0,
                state_policy: CrashStatePolicy::Preserve,
            }),
            Err(FaultError::TooManyEvents {
                capacity: MAX_FAULT_EVENTS
            })
        );
    }

    #[test]
    fn multi_wave_restart_storms_fit_the_lifted_cap() {
        // Regression for the old cap of 8: a 16-wave staggered restart
        // storm must build without overflowing.
        let mut schedule = FaultSchedule::none();
        for wave in 0..16 {
            schedule = schedule
                .with(FaultEvent::CrashRestart {
                    at: 60.0 + wave as f64 * 5.0,
                    state_policy: CrashStatePolicy::Wipe,
                })
                .expect("16 crash waves must fit");
        }
        assert_eq!(schedule.len(), 16);
        assert!(schedule.validate().is_ok());
        const _: () = assert!(MAX_FAULT_EVENTS > 8, "cap must exceed the old limit of 8");
    }

    #[test]
    fn from_events_round_trips() {
        let events = [
            FaultEvent::Outage {
                start: 60.0,
                duration: 30.0,
            },
            FaultEvent::CrashRestart {
                at: 100.0,
                state_policy: CrashStatePolicy::Wipe,
            },
        ];
        let schedule = FaultSchedule::from_events(&events).unwrap();
        assert_eq!(schedule.len(), 2);
        let collected: Vec<_> = schedule.events().collect();
        assert_eq!(collected, events);
        assert!(schedule.validate().is_ok());
    }
}
