//! Population-scale node simulation: one event loop, N concurrent sessions.
//!
//! The single-hop simulator ([`crate::single_hop`]) models *one* signaling
//! session at a time — the paper's unit of analysis.  A production signaling
//! node holds state for **millions** of sessions whose refresh, timeout and
//! retransmission timers all share one event loop; at that scale the metrics
//! that matter are per-node aggregates (refresh-message rate, stale-state
//! fraction, signaling bandwidth, false-removal rate) and the node's own
//! resource cost (events/sec, bytes/session).  [`NodeSim`] is that workload:
//!
//! * **N sessions, one queue.**  Every session's timers live in one
//!   [`PackedQueue`] (heap- or calendar-ordered, [`QueueKind`]) whose
//!   24-byte keys are the events themselves: an event is a kind and a
//!   session index packed into eight bytes, so a pop reads no payload
//!   slab.  Per-session state is packed into a flat slab of 40-byte
//!   `SessionSlot`s — the ids of three timers, a lazy state-timeout
//!   deadline and a flag byte.  An id is the key's sequence number, unique
//!   for the run; a slot holds the id of each timer it has armed, or a
//!   "no timer" sentinel.  The node, not the queue, decides staleness:
//!   cancelling a timer just forgets its id, and a refresh, retransmission
//!   or timeout key that pops under an id its session no longer holds is
//!   discarded uncounted (`NodeSim::is_live`).  Refreshes never cancel at
//!   all (they bump the deadline and the armed timer re-arms itself), so
//!   the queue carries few stale keys even at 10⁶ sessions.  Refresh and
//!   retransmission timers re-arm at fixed intervals and link deliveries
//!   land a fixed delay ahead, so their keys go through FIFO queue lanes
//!   (O(1) schedule and pop).  The initial arrival wave is sorted once and
//!   filed in the refresh lane ([`PackedQueue::schedule_batch`]).  State
//!   timeouts ride two more lanes when the receiver's capacity is
//!   unlimited: a session's installs then land one refresh interval apart,
//!   so a timeout arm's delay is the timeout `τ` itself or `τ − T` almost
//!   every time (see `NodeSim::arm_timeout`).  Later lifecycle draws,
//!   crashes, the external detector's signals and the timeouts off that
//!   grid go to the ordering core.
//! * **Phase-ordered sessions.**  Sessions are numbered in the order the
//!   wave delivers them: session 0 arrives first.  Each refresh fires a
//!   fixed interval after its session's install, so the refresh stream,
//!   and the deliveries and timeouts it drives, walk the session slab
//!   front to back, where the hardware prefetcher hides the cache misses
//!   of a slab far larger than cache.  Churn re-draws a session's phase
//!   once per lifetime and vacancy, so the sweep decays slowly back to a
//!   random walk.  The numbering is a permutation of labels: no draw and
//!   no delivered `(time, seq)` changes, and no aggregate depends on it.
//! * **Churn.**  Sessions alternate between alive (exponential lifetime
//!   `1/λ_r`, the paper's removal process) and vacant (exponential vacancy,
//!   [`NodeConfig::mean_vacancy`]); each departure schedules the next
//!   arrival, so the alive population hovers at
//!   `N · lifetime/(lifetime+vacancy)`.
//! * **Streaming aggregates.**  No per-session metric state: population
//!   counts (alive senders, holding receivers, stale entries) stream through
//!   [`LevelMeter`]s, so metric memory is O(1) regardless of N and the
//!   stale *fraction* is the exact population-time ratio
//!   `∫stale dt / ∫held dt` — the paper's inconsistency ratio aggregated
//!   over the whole node.
//!
//! The protocol behaviour is the single-hop machinery in aggregate form:
//! triggers/refreshes install receiver state, state timeouts and (HS) false
//! external signals remove it, explicit removals propagate departures,
//! reliable variants ACK and retransmit, and removal notices repair false
//! removals.  Consistency is *presence-based* (state held by both, one, or
//! neither side); value updates — which do not change any of the node-level
//! rates above — are not modeled.  Timers and delays are deterministic, as
//! in deployed protocols; message sends draw one Bernoulli loss sample and
//! deliver after the one-way delay.  Everything is driven by one seeded
//! [`SimRng`], and because both queue kinds deliver the identical
//! `(time, seq)` event order, every aggregate is **bit-identical across
//! queue kinds** and across replication policies.

use crate::metrics::MessageCounts;
use crate::recovery::RecoveryTrace;
use crate::retry::{RetryPolicy, RetryState};
use crate::single_hop::RETRANS_SLACK;
use siganalytic::{ConfigError, FsmDispatch, ProtocolSpec, SingleHopParams};
use signet::{
    Admission, CapacityModel, CapacityState, CrashStatePolicy, FaultClock, FaultEvent,
    FaultSchedule, LinkEffect, LossModel, LossState, MsgKind,
};
use sigstats::{BinnedMeter, LevelMeter, OnlineStats, RateMeter, Summary};
use simcore::{
    ExecutionPolicy, Lane, PackedEvent, PackedQueue, QueueKind, Replicate, ReplicationEngine,
    SequencedEvent, SimRng, SimTime,
};
// sigtidy: allow(wall-clock) — phase telemetry only; never feeds simulated results
use std::time::Instant;

/// Modeled wire size of one signaling message (bytes); the paper treats all
/// signaling messages as small fixed-size datagrams.
pub const MESSAGE_BYTES: f64 = 64.0;

/// Width of one bandwidth-envelope bin (seconds of virtual time).
pub const ENVELOPE_BIN_SECS: f64 = 1.0;

/// How the periodic refresh timers are phased across the session
/// population.  Arrivals are staggered uniformly over one refresh interval
/// in both disciplines (the RNG stream is identical, so everything except
/// refresh timing is bit-comparable between the two).
///
/// The default [`RefreshPhase::Staggered`] fires each session's refresh one
/// full interval after its own install, so the periodic timers inherit the
/// arrival stagger, decorrelate, and the node's bandwidth is flat.
/// [`RefreshPhase::Aligned`] snaps every refresh firing to the absolute
/// `refresh_timer` grid — the classic operational hazard of refresh daemons
/// scheduled on wall-clock boundaries: all refreshes fire in lockstep and
/// the bandwidth envelope turns into periodic spikes (the `node-storm`
/// experiment measures the ratio).  Protocols with no refresh stream (hard
/// state) are unaffected by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshPhase {
    /// Refresh timers inherit the per-session arrival stagger (default).
    Staggered,
    /// Refresh firings snap to the absolute refresh-interval grid: the
    /// whole population refreshes in lockstep.
    Aligned,
}

/// Configuration of a population-scale node simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// The signaling protocol (mechanism composition) every session runs.
    pub protocol: ProtocolSpec,
    /// Per-session model parameters (same structure as the analytic model).
    pub params: SingleHopParams,
    /// Number of session slots N multiplexed onto the node's event loop.
    pub sessions: usize,
    /// Measurement horizon in seconds of virtual time.
    pub horizon: f64,
    /// Mean vacancy between a session's departure and the slot's next
    /// arrival (seconds); the churn knob.
    pub mean_vacancy: f64,
    /// Which ordering core the shared event queue uses.
    pub queue_kind: QueueKind,
    /// Refresh-phase discipline of the initial arrivals (see
    /// [`RefreshPhase`]).
    pub refresh_phase: RefreshPhase,
    /// Optional loss-model override for every message the node sends.
    /// `None` draws independent Bernoulli loss at `params.loss` (the
    /// paper's model); `Some` routes every loss decision through the given
    /// [`LossModel`] with one node-wide [`LossState`] — e.g. a
    /// Gilbert–Elliott process built by [`LossModel::bursty`] at the same
    /// mean loss.
    pub loss_model: Option<LossModel>,
    /// Deterministic fault schedule: link outages and degrade episodes
    /// apply to every message the node sends or receives (one node, one
    /// uplink); crash–restart events hit the receiver side's installed
    /// state per [`CrashStatePolicy`].  Blackout drops consume no
    /// randomness, so an empty schedule is bit-identical to no schedule.
    pub faults: FaultSchedule,
    /// How retransmission intervals evolve within one unacknowledged cycle
    /// (reliable trigger, reliable refresh, reliable removal).  The default
    /// [`RetryPolicy::Fixed`] is the paper's behavior — bit-identical to
    /// the pre-policy node loop, pinned by the goldens.
    pub retry: RetryPolicy,
    /// Receiver processing capacity: one node-wide deterministic service
    /// queue every delivered message passes through before its arrival
    /// event fires.  [`CapacityModel::unlimited`] (the default) is
    /// bit-identical to a build without the capacity layer.
    pub capacity: CapacityModel,
}

impl NodeConfig {
    /// A node with `sessions` slots, a two-minute horizon, and a default
    /// vacancy of a quarter lifetime (steady-state alive fraction 0.8).
    ///
    /// `protocol` takes `impl Into<ProtocolSpec>` only so that the benchmark
    /// package's `Protocol::Ss` call keeps compiling until that package
    /// moves to the presets.
    pub fn new(
        protocol: impl Into<ProtocolSpec>,
        params: SingleHopParams,
        sessions: usize,
    ) -> Self {
        Self {
            protocol: protocol.into(),
            params,
            sessions: sessions.max(1),
            horizon: 120.0,
            mean_vacancy: params.mean_lifetime() * 0.25,
            queue_kind: QueueKind::Heap,
            refresh_phase: RefreshPhase::Staggered,
            loss_model: None,
            faults: FaultSchedule::none(),
            retry: RetryPolicy::Fixed,
            capacity: CapacityModel::unlimited(),
        }
    }

    /// Overrides the measurement horizon.
    pub fn with_horizon(mut self, seconds: f64) -> Self {
        self.horizon = seconds;
        self
    }

    /// Overrides the mean vacancy between departure and re-arrival.
    pub fn with_mean_vacancy(mut self, seconds: f64) -> Self {
        self.mean_vacancy = seconds;
        self
    }

    /// Selects the event-queue ordering core.
    pub fn with_queue_kind(mut self, kind: QueueKind) -> Self {
        self.queue_kind = kind;
        self
    }

    /// Selects the refresh-phase discipline (see [`RefreshPhase`]).
    pub fn with_refresh_phase(mut self, phase: RefreshPhase) -> Self {
        self.refresh_phase = phase;
        self
    }

    /// Overrides the loss model (see [`NodeConfig::loss_model`]).
    pub fn with_loss_model(mut self, model: LossModel) -> Self {
        self.loss_model = Some(model);
        self
    }

    /// Installs a fault schedule (see [`NodeConfig::faults`]).
    pub fn with_fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the retransmission retry policy (see [`NodeConfig::retry`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a receiver capacity model (see [`NodeConfig::capacity`]).
    pub fn with_capacity(mut self, capacity: CapacityModel) -> Self {
        self.capacity = capacity;
        self
    }

    /// Validates parameters, horizon, vacancy, session count and the fault
    /// schedule.  (Spec *coherence* is the spec builder's concern — see
    /// [`ProtocolSpec::validate`].)
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params.validate()?;
        // `!is_finite()` also rejects NaN, which `<= 0.0` would let through.
        if self.horizon <= 0.0 || !self.horizon.is_finite() {
            return Err(ConfigError::NonPositiveHorizon);
        }
        if self.mean_vacancy <= 0.0 || !self.mean_vacancy.is_finite() {
            return Err(ConfigError::NonPositiveVacancy);
        }
        if self.sessions == 0 {
            return Err(ConfigError::NoSessions);
        }
        if u32::try_from(self.sessions).is_err() {
            return Err(ConfigError::TooManySessions(self.sessions));
        }
        self.faults
            .validate()
            .map_err(|_| ConfigError::InvalidFaultSchedule)?;
        Ok(())
    }
}

/// Deterministic aggregate metrics of one node run.
///
/// Every field is a pure function of the event sequence, so for a fixed
/// config and seed the struct is **bit-identical across queue kinds and
/// replication policies** (the determinism goldens compare it with `==`).
/// Wall-clock quantities live elsewhere: phase timings in [`PhaseTimings`],
/// memory in [`NodeSim::memory_bytes`]/[`NodeSim::bytes_per_session`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeMetrics {
    /// Session slots simulated.
    pub sessions: usize,
    /// Virtual-time horizon the aggregates cover (seconds).
    pub horizon: f64,
    /// Events processed by the loop within the horizon.
    pub events_processed: u64,
    /// Messages sent, by kind (node-wide totals).
    pub messages: MessageCounts,
    /// Refresh messages per second, node-wide.
    pub refresh_rate: f64,
    /// All signaling messages per second, node-wide.
    pub message_rate: f64,
    /// Signaling bandwidth at [`MESSAGE_BYTES`] per message (bytes/sec).
    pub bandwidth_bytes_per_sec: f64,
    /// Peak of the bandwidth envelope: the busiest
    /// [`ENVELOPE_BIN_SECS`]-wide bin, in bytes/sec.  Equals roughly the
    /// mean bandwidth when refreshes are staggered; under
    /// [`RefreshPhase::Aligned`] the lockstep refresh storm concentrates a
    /// whole interval's refreshes into a few bins and the peak shoots up.
    pub peak_bandwidth_bytes_per_sec: f64,
    /// `∫stale dt / ∫held dt`: the fraction of receiver-held session-time
    /// during which the sender no longer held the state — the paper's
    /// inconsistency ratio aggregated over the population.
    pub stale_fraction: f64,
    /// Times a receiver dropped state the sender still held.
    pub false_removals: u64,
    /// False removals per alive-session-second.
    pub false_removal_rate: f64,
    /// Time-average number of alive senders.
    pub mean_active: f64,
    /// Time-average number of holding receivers.
    pub mean_held: f64,
    /// Messages dropped by the base (random) loss process.
    pub drops_random: u64,
    /// Messages dropped by an injected fault episode: a blackout during an
    /// [`Outage`](signet::FaultEvent::Outage), or the extra loss of a
    /// [`Degrade`](signet::FaultEvent::Degrade) window.
    pub drops_injected: u64,
    /// Messages that survived the link but overflowed the receiver's
    /// bounded signaling queue (see [`NodeConfig::capacity`]).  Always zero
    /// under [`CapacityModel::unlimited`].
    pub drops_overload: u64,
    /// Receiver-held entries wiped by injected crash–restart events.  Not
    /// false removals: the protocol took no action, the process died.
    pub crash_wipes: u64,
}

/// Wall-clock breakdown of one node run (seconds): building the initial
/// event population, firing the event loop, extracting metrics.  Printed by
/// `repro --timing`; never part of metric equality.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Building the slab and scheduling the initial arrivals.
    pub schedule: f64,
    /// Popping and handling events up to the horizon.
    pub fire: f64,
    /// Evaluating the streamed aggregates.
    pub metrics: f64,
}

impl PhaseTimings {
    /// Accumulates another run's timings.
    pub fn merge(&mut self, other: &PhaseTimings) {
        self.schedule += other.schedule;
        self.fire += other.fire;
        self.metrics += other.metrics;
    }

    /// Total wall time across the three phases.
    pub fn total(&self) -> f64 {
        self.schedule + self.fire + self.metrics
    }
}

/// Where a node filed its events, counted deterministically: a pure
/// function of the config and seed, like [`NodeMetrics`].  `lifecycle`
/// and `timeout_arms` are the same under both queue kinds; `core_keys`
/// also counts the arrival wave under [`QueueKind::Calendar`], which files
/// the wave in its core rather than a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleCounts {
    /// Lifecycle events scheduled after the arrival wave: arrival and
    /// departure draws, and injected crashes.  They go to the ordering
    /// core; an infinite ("never") draw schedules nothing and is not
    /// counted.
    pub lifecycle: u64,
    /// State-timeout arms: the first arm at each install and every lazy
    /// re-arm (external-detector signals are not counted).
    pub timeout_arms: u64,
    /// The timeout arms whose delay matched neither timeout lane's delay
    /// and went to the ordering core (all of them when no lane is open).
    pub off_grid_timeouts: u64,
    /// Keys the event queue filed in its ordering core rather than a lane
    /// ([`PackedQueue::core_filed_count`]).
    pub core_keys: u64,
    /// Retransmission firings the blackout fast-forward credited without a
    /// queue event of their own.  [`NodeMetrics::events_processed`]
    /// counts them like popped events, so this is the events processed
    /// less the queue's pops, plus the sentinel pop.
    pub fast_forwarded: u64,
    /// Events popped from the queue: [`PackedQueue::popped_count`] less
    /// the stale keys of retired timers, which are discarded uncounted.
    /// It includes the one pop that makes the "no timer" sentinel, so
    /// `pops + fast_forwarded` is one more than the events processed.
    pub pops: u64,
}

/// Session flag bits.
const ALIVE: u8 = 1 << 0; // sender holds the state
const HELD: u8 = 1 << 1; // receiver holds the state
const PENDING: u8 = 1 << 2; // install awaiting ACK (reliable variants)
const PENDING_REMOVAL: u8 = 1 << 3; // removal awaiting ACK

/// Packed per-session state: three timer ids, the lazy-timeout deadline and
/// a flag byte (40 bytes).  An id is the sequence number of the timer's
/// pending key, or the node's `dead` sentinel when the timer is not armed:
/// a sequence number already popped, which no key carries again, so no
/// `Option` padding is needed.  `deadline` makes the state-timeout timer
/// *lazy*: refreshes only bump the deadline, and the armed timer re-arms
/// itself when it fires early — so the hot refresh path never cancels,
/// keeping the event queue free of the ~τ/T stale keys per session that
/// cancel-and-reschedule timeouts would strand there.
#[derive(Debug, Clone, Copy)]
struct SessionSlot {
    refresh: u64,
    retrans: u64,
    timeout: u64,
    deadline: f64,
    flags: u8,
    /// Per-cycle retransmission retry state (two bytes; rides in the
    /// padding the flag byte already paid for).
    retry: RetryState,
}

/// What the blackout fast-forward (`NodeSim::fast_forward`) keeps beyond
/// the session slab.  A node holds one only when its fault schedule blacks
/// the link out, its spec retransmits, and its retry policy draws no
/// randomness; every other node, fault-free ones included, carries none of
/// it and runs no fast-forward code.
#[derive(Debug)]
struct FastForward {
    /// Each session's next lifecycle time: the time of its pending arrival
    /// or departure, `+∞` when none is scheduled.
    lifecycle_at: Vec<f64>,
    /// True while `run` drives the event loop, the only place walks are
    /// taken: `step_events` stays on the event path.
    in_run: bool,
}

/// One event of the node loop: what happened, and to which session.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A vacant slot's session (re-)arrives: the sender installs state.
    Arrive(u32),
    /// The sender's state lifetime expires: departure.
    Depart(u32),
    /// The periodic refresh timer fires at the sender.
    RefreshFire(u32),
    /// The retransmission timer fires at the sender.
    RetransFire(u32),
    /// A trigger message reaches the receiver.
    TriggerArrive(u32),
    /// A refresh message reaches the receiver.
    RefreshArrive(u32),
    /// An explicit removal message reaches the receiver.
    RemovalArrive(u32),
    /// The receiver's state-timeout timer — or, for external-detector
    /// protocols (HS), the detector's false failure signal — fires.
    Timeout(u32),
    /// An injected crash–restart of the receiver process (from the fault
    /// schedule): installed state is wiped or preserved per the policy.
    Crash(CrashStatePolicy),
}

impl PackedEvent for Event {
    /// The variant's tag in the high half, the session index (or the crash
    /// policy) in the low half.
    #[inline]
    fn pack(self) -> u64 {
        let (tag, index) = match self {
            Event::Arrive(i) => (0, i),
            Event::Depart(i) => (1, i),
            Event::RefreshFire(i) => (2, i),
            Event::RetransFire(i) => (3, i),
            Event::TriggerArrive(i) => (4, i),
            Event::RefreshArrive(i) => (5, i),
            Event::RemovalArrive(i) => (6, i),
            Event::Timeout(i) => (7, i),
            Event::Crash(CrashStatePolicy::Wipe) => (8, 0),
            Event::Crash(CrashStatePolicy::Preserve) => (8, 1),
        };
        (tag as u64) << 32 | index as u64
    }

    #[inline]
    fn unpack(bits: u64) -> Self {
        let i = bits as u32;
        match bits >> 32 {
            0 => Event::Arrive(i),
            1 => Event::Depart(i),
            2 => Event::RefreshFire(i),
            3 => Event::RetransFire(i),
            4 => Event::TriggerArrive(i),
            5 => Event::RefreshArrive(i),
            6 => Event::RemovalArrive(i),
            7 => Event::Timeout(i),
            _ if i == 0 => Event::Crash(CrashStatePolicy::Wipe),
            _ => Event::Crash(CrashStatePolicy::Preserve),
        }
    }
}

/// A population-scale node simulation (see the module docs).
pub struct NodeSim {
    cfg: NodeConfig,
    /// Mechanism capability set derived from the generated transition
    /// table ([`FsmDispatch::for_spec`]); every dispatch site branches on
    /// these fields instead of re-querying the spec predicates.
    dispatch: FsmDispatch,
    rng: SimRng,
    queue: PackedQueue<Event>,
    /// Queue lanes of the fixed-interval timers and link deliveries, whose
    /// keys arrive in time order (see [`PackedQueue::lane`]).  The refresh
    /// lane also carries the initial arrival wave.  Later lifecycle draws,
    /// crashes and detector signals go to the queue's ordering core.
    refresh_lane: Lane,
    retrans_lane: Lane,
    delivery_lane: Lane,
    /// The state-timeout lanes and the delay each takes, `τ` and `τ − T`
    /// (see [`NodeSim::arm_timeout`]); `None` for specs with no state
    /// timeout and behind a finite receiver capacity, so their pops scan no
    /// extra lane head.
    timeout_lanes: Option<[(f64, Lane); 2]>,
    slots: Vec<SessionSlot>,
    /// The sequence number of a key popped before any session existed:
    /// no later key carries it, so it is the "no timer armed" sentinel.
    dead: u64,
    /// Keys of retired timers still in the queue: counted in its length,
    /// but not pending events.
    stale_keys: usize,
    /// Keys of retired timers popped and discarded so far.
    discarded: u64,
    counts: MessageCounts,
    /// Virtual time of the event being handled (drives envelope binning).
    now: f64,
    /// Signaling messages sent per [`ENVELOPE_BIN_SECS`]-wide bin of
    /// virtual time — the bandwidth envelope behind `node-storm`.
    envelope: RateMeter,
    active: LevelMeter,
    held: LevelMeter,
    stale: LevelMeter,
    /// Per-bin companions of the three level meters, feeding the
    /// [`RecoveryTrace`] (the scalar aggregates keep coming from the
    /// [`LevelMeter`]s so their accumulation order — and the golden pins —
    /// never move).
    active_bins: BinnedMeter,
    held_bins: BinnedMeter,
    stale_bins: BinnedMeter,
    /// The fault schedule indexed by time; consulted on every send.
    faults: FaultClock,
    /// Node-wide state of the loss process when a [`NodeConfig::loss_model`]
    /// override is installed.
    loss_state: LossState,
    /// False removals per envelope bin (the avalanche time series).
    false_removal_bins: RateMeter,
    /// Backlog of the receiver's capacity server (inert when unlimited).
    capacity_state: CapacityState,
    /// The blackout fast-forward's state, `None` where it cannot run.
    fast_forward: Option<FastForward>,
    false_removals: u64,
    drops_random: u64,
    drops_injected: u64,
    drops_overload: u64,
    crash_wipes: u64,
    events_processed: u64,
    /// Lifecycle events scheduled after the arrival wave: arrival and
    /// departure draws, and injected crashes.
    lifecycle_events: u64,
    /// State-timeout arms: first arms at install and lazy re-arms.
    timeout_arms: u64,
    /// The state-timeout arms whose delay matched neither timeout lane.
    off_grid_timeouts: u64,
    phase: PhaseTimings,
}

impl NodeSim {
    /// Builds the node and schedules the initial arrival wave (staggered
    /// uniformly over one refresh interval, so the periodic timers do not
    /// fire in lockstep).
    pub fn new(cfg: NodeConfig, seed: u64) -> Self {
        Self::with_rng(cfg, SimRng::new(seed))
    }

    /// Like [`NodeSim::new`] with an explicit RNG (replication streams).
    pub fn with_rng(cfg: NodeConfig, rng: SimRng) -> Self {
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now(); // sigtidy: allow(wall-clock) — setup-phase telemetry
        let n = cfg.sessions;
        // Hard assert, like the event slab's: events carry the session index
        // as a `u32`, so a larger node would silently simulate `n mod 2³²`.
        assert!(u32::try_from(n).is_ok(), "more sessions than u32::MAX");
        // The ordering core holds one lifecycle event per session, plus at
        // most one detector timer or state timeout per session: all of them
        // under an external detector or a finite capacity, only those off
        // the timeout lanes' grid otherwise.  Refresh, retransmission,
        // delivery and on-grid timeout keys ride the lanes.  Its empty key
        // buffer is also where the arrival wave is sorted.
        let mut queue = PackedQueue::with_capacity_and_kind(2 * n + 8, cfg.queue_kind);
        let dead_probe = queue.schedule_at(SimTime::ZERO, Event::Arrive(u32::MAX));
        queue.pop();
        let dispatch = FsmDispatch::for_spec(cfg.protocol);
        let timeout = cfg.params.timeout_timer;
        // A finite capacity server completes a delivery at
        // `max(arrival, busy) + 1/rate`, so its queueing moves installs off
        // the `T` grid the lanes rely on (docs/perf.md, "Timeout lanes").
        let on_grid = dispatch.uses_state_timeout && cfg.capacity.is_unlimited();
        let timeout_lanes = on_grid.then(|| {
            [
                (timeout, queue.lane()),
                (timeout - cfg.params.refresh_timer, queue.lane()),
            ]
        });
        let blackouts = cfg
            .faults
            .events()
            .any(|e| matches!(e, FaultEvent::Outage { .. }));
        let retransmits =
            dispatch.reliable_triggers || dispatch.reliable_refresh || dispatch.reliable_removal;
        let fast_forward =
            (blackouts && retransmits && !cfg.retry.draws_randomness()).then(|| FastForward {
                lifecycle_at: vec![f64::INFINITY; n],
                in_run: false,
            });
        let mut sim = Self {
            dispatch,
            cfg,
            rng,
            refresh_lane: queue.lane(),
            retrans_lane: queue.lane(),
            delivery_lane: queue.lane(),
            timeout_lanes,
            queue,
            slots: vec![
                SessionSlot {
                    refresh: dead_probe,
                    retrans: dead_probe,
                    timeout: dead_probe,
                    deadline: 0.0,
                    flags: 0,
                    retry: RetryState::default(),
                };
                n
            ],
            dead: dead_probe,
            stale_keys: 0,
            discarded: 0,
            counts: MessageCounts::default(),
            now: 0.0,
            envelope: RateMeter::new(cfg.horizon, ENVELOPE_BIN_SECS),
            active: LevelMeter::new(0.0),
            held: LevelMeter::new(0.0),
            stale: LevelMeter::new(0.0),
            active_bins: BinnedMeter::new(0.0, ENVELOPE_BIN_SECS),
            held_bins: BinnedMeter::new(0.0, ENVELOPE_BIN_SECS),
            stale_bins: BinnedMeter::new(0.0, ENVELOPE_BIN_SECS),
            faults: FaultClock::new(cfg.faults),
            loss_state: LossState::default(),
            false_removal_bins: RateMeter::new(cfg.horizon, ENVELOPE_BIN_SECS),
            capacity_state: CapacityState::default(),
            fast_forward,
            false_removals: 0,
            drops_random: 0,
            drops_injected: 0,
            drops_overload: 0,
            crash_wipes: 0,
            events_processed: 0,
            lifecycle_events: 0,
            timeout_arms: 0,
            off_grid_timeouts: 0,
            phase: PhaseTimings::default(),
        };
        // The wave is drawn in one go and filed in time order through the
        // refresh lane: each arrival arms its refresh a full interval later,
        // behind every arrival, so the refreshes queue in the same lane as
        // the wave drains.  The batch numbers its events in firing order,
        // so session `k` is the `k`-th to arrive and to refresh.
        let refresh_timer = sim.cfg.params.refresh_timer;
        let rng = &mut sim.rng;
        sim.queue.schedule_batch(
            sim.refresh_lane,
            (0..n).map(|_| SimTime::from_secs(rng.uniform_range(0.0, refresh_timer))),
            |i| Event::Arrive(i as u32),
        );
        let clock = sim.faults;
        for (at, policy) in clock.crashes() {
            sim.queue
                .schedule_at(SimTime::from_secs(at), Event::Crash(policy));
            sim.lifecycle_events += 1;
        }
        sim.phase.schedule = t0.elapsed().as_secs_f64();
        sim
    }

    /// Runs the event loop to the configured horizon and returns the
    /// aggregate metrics.
    pub fn run(&mut self) -> NodeMetrics {
        let horizon = SimTime::from_secs(self.cfg.horizon);
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now(); // sigtidy: allow(wall-clock) — fire-phase telemetry
        self.set_in_run(true);
        while let Some(key) = self.queue.pop_until(horizon) {
            self.process(key);
        }
        self.set_in_run(false);
        self.phase.fire += t0.elapsed().as_secs_f64();
        #[allow(clippy::disallowed_methods)]
        let t1 = Instant::now(); // sigtidy: allow(wall-clock) — metrics-phase telemetry
        let metrics = self.metrics();
        self.phase.metrics += t1.elapsed().as_secs_f64();
        metrics
    }

    /// Pops and handles up to `limit` events regardless of the horizon,
    /// returning how many were processed (0 means the queue is empty).
    /// This is the benchmark driver: the node's churn regenerates events
    /// indefinitely, so a warmed `NodeSim` is a stationary events/sec
    /// workload.
    pub fn step_events(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit {
            let Some(key) = self.queue.pop() else {
                break;
            };
            n += u64::from(self.process(key));
        }
        n
    }

    /// Handles a popped key and counts it as an event, or discards it as
    /// the stale key of a retired timer; returns whether it was an event.
    #[inline]
    fn process(&mut self, key: SequencedEvent<Event>) -> bool {
        if !self.is_live(key.seq, key.event) {
            self.stale_keys -= 1;
            self.discarded += 1;
            return false;
        }
        self.events_processed += 1;
        self.handle(key.time, key.event);
        true
    }

    /// Whether `event`, popped under sequence number `seq`, is still an
    /// event: a refresh, retransmission or timeout key is one only while
    /// its session holds `seq` as that timer's id, since retiring the timer
    /// replaces the id.  No other event is ever retired.
    #[inline]
    fn is_live(&self, seq: u64, event: Event) -> bool {
        let armed = match event {
            Event::RefreshFire(i) => self.slots[i as usize].refresh,
            Event::RetransFire(i) => self.slots[i as usize].retrans,
            Event::Timeout(i) => self.slots[i as usize].timeout,
            _ => return true,
        };
        armed == seq
    }

    /// Retires the timer whose key carries `id`, unless it is the sentinel,
    /// and returns the sentinel for the caller to store in its place: the
    /// key stays queued, stale, until it pops.
    #[inline]
    fn retire(&mut self, id: u64) -> u64 {
        if id != self.dead {
            self.stale_keys += 1;
        }
        self.dead
    }

    /// Opens or closes `run`'s window for the blackout fast-forward.
    fn set_in_run(&mut self, on: bool) {
        if let Some(ff) = &mut self.fast_forward {
            ff.in_run = on;
        }
    }

    /// The aggregate metrics as of the configured horizon.
    pub fn metrics(&self) -> NodeMetrics {
        let h = self.cfg.horizon;
        let held_int = self.held.integral_until(h);
        let active_int = self.active.integral_until(h);
        let stale_int = self.stale.integral_until(h);
        let message_rate = self.counts.signaling_total() as f64 / h;
        NodeMetrics {
            sessions: self.cfg.sessions,
            horizon: h,
            events_processed: self.events_processed,
            messages: self.counts,
            refresh_rate: self.counts.refresh as f64 / h,
            message_rate,
            bandwidth_bytes_per_sec: message_rate * MESSAGE_BYTES,
            peak_bandwidth_bytes_per_sec: self.envelope.peak_rate() * MESSAGE_BYTES,
            stale_fraction: if held_int > 0.0 {
                stale_int / held_int
            } else {
                0.0
            },
            false_removals: self.false_removals,
            false_removal_rate: if active_int > 0.0 {
                self.false_removals as f64 / active_int
            } else {
                0.0
            },
            mean_active: self.active.average_until(h),
            mean_held: self.held.average_until(h),
            drops_random: self.drops_random,
            drops_injected: self.drops_injected,
            drops_overload: self.drops_overload,
            crash_wipes: self.crash_wipes,
        }
    }

    /// The one-second-binned time series of this run (see
    /// [`RecoveryTrace`]): false removals and signaling messages per bin,
    /// and the time-average stale/held/active population levels — the raw
    /// material of [`RecoveryMetrics`](crate::recovery::RecoveryMetrics).
    pub fn recovery_trace(&self) -> RecoveryTrace {
        let h = self.cfg.horizon;
        let stale = self.stale_bins.averages_until(h);
        let held = self.held_bins.averages_until(h);
        let active = self.active_bins.averages_until(h);
        let bins = stale.len().min(held.len()).min(active.len());
        RecoveryTrace {
            bin_secs: ENVELOPE_BIN_SECS,
            horizon: h,
            false_removals: self.false_removal_bins.counts()
                [..bins.min(self.false_removal_bins.counts().len())]
                .to_vec(),
            messages: self.envelope.counts()[..bins.min(self.envelope.counts().len())].to_vec(),
            stale,
            held,
            active,
        }
    }

    /// Wall-clock phase breakdown accumulated so far.
    fn phase_timings(&self) -> PhaseTimings {
        self.phase
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Bytes currently retained per session slot: the shared event queue's
    /// keys plus the session slab, divided by N — the measured quantity
    /// behind the documented bytes/session budget.
    pub fn bytes_per_session(&self) -> f64 {
        self.memory_bytes() as f64 / self.cfg.sessions as f64
    }

    /// Bytes currently retained by the queue, the session slab and, on a
    /// node that can fast-forward through blackouts, its per-session
    /// lifecycle times.
    pub fn memory_bytes(&self) -> usize {
        let lifecycle = self.fast_forward.as_ref().map_or(0, |ff| {
            ff.lifecycle_at.capacity() * std::mem::size_of::<f64>()
        });
        self.queue.memory_bytes()
            + self.slots.capacity() * std::mem::size_of::<SessionSlot>()
            + lifecycle
    }

    /// Live events currently pending in the shared queue: its keys, less
    /// the stale keys of retired timers.
    pub fn pending_events(&self) -> usize {
        self.queue.len() - self.stale_keys
    }

    /// Where this node's events were filed so far (see [`ScheduleCounts`]).
    pub fn schedule_counts(&self) -> ScheduleCounts {
        ScheduleCounts {
            lifecycle: self.lifecycle_events,
            timeout_arms: self.timeout_arms,
            off_grid_timeouts: self.off_grid_timeouts,
            core_keys: self.queue.core_filed_count(),
            fast_forwarded: self.events_processed + 1 - self.pops(),
            pops: self.pops(),
        }
    }

    /// Keys popped as events, the sentinel's included.
    fn pops(&self) -> u64 {
        self.queue.popped_count() - self.discarded
    }

    // ------------------------------------------------------------------
    // Event handling.
    // ------------------------------------------------------------------

    /// Handles a live event ([`NodeSim::is_live`]).
    fn handle(&mut self, time: SimTime, event: Event) {
        let t = time.as_secs();
        self.now = t;
        match event {
            Event::Arrive(i) => self.on_arrive(i as usize, t),
            Event::Depart(i) => self.on_depart(i as usize, t),
            Event::RefreshFire(i) => self.on_refresh_fire(i as usize),
            Event::RetransFire(i) => self.on_retrans_fire(i as usize),
            Event::TriggerArrive(i) => self.on_install_arrive(i as usize, t, true),
            Event::RefreshArrive(i) => self.on_install_arrive(i as usize, t, false),
            Event::RemovalArrive(i) => self.on_removal_arrive(i as usize, t),
            Event::Timeout(i) => self.on_timeout(i as usize, t),
            Event::Crash(policy) => self.on_crash(policy, t),
        }
    }

    /// An injected crash–restart of the receiver process.  The restart
    /// itself is instantaneous; the policy decides what the reborn process
    /// finds.  [`CrashStatePolicy::Preserve`] models state written through
    /// to stable storage: nothing changes (the control arm).
    /// [`CrashStatePolicy::Wipe`] loses every installed entry and every
    /// receiver-side timer with the process — silently, so these are *not*
    /// false removals (no notice, no protocol action; they are counted
    /// separately as `crash_wipes`).  Soft state heals by itself: the next
    /// refresh re-installs each live session within one refresh interval.
    /// Hard state has no periodic stream, so a wiped entry stays missing
    /// until its sender departs and a fresh arrival re-triggers the slot.
    fn on_crash(&mut self, policy: CrashStatePolicy, t: f64) {
        if policy == CrashStatePolicy::Preserve {
            return;
        }
        // The signaling queue is process memory: a wipe loses whatever was
        // awaiting service along with the installed state (pure arithmetic
        // — no RNG — and inert when the capacity model is unlimited).
        self.capacity_state.reset();
        for i in 0..self.slots.len() {
            if self.slots[i].flags & HELD == 0 {
                continue;
            }
            self.slots[i].flags &= !HELD;
            self.held_dec(t);
            if self.slots[i].flags & ALIVE == 0 {
                self.stale_dec(t);
            }
            // Receiver-side timers (state timeouts, and the external
            // detector's pending signal for HS) die with the process; a
            // later arrival arms fresh ones.
            self.slots[i].timeout = self.retire(self.slots[i].timeout);
            self.crash_wipes += 1;
        }
    }

    /// Schedules `event` after `dt` seconds, or returns the dead id when the
    /// delay is infinite (a rate-zero exponential draw: "never").
    fn schedule_after(&mut self, dt: f64, event: Event) -> u64 {
        if dt.is_finite() {
            self.queue.schedule_in(dt, event)
        } else {
            self.dead
        }
    }

    /// [`NodeSim::schedule_after`] for session `i`'s departure or vacancy
    /// draw, counted in [`ScheduleCounts::lifecycle`] when it is scheduled
    /// and noted as the session's next lifecycle time where the node can
    /// fast-forward.
    fn schedule_lifecycle(&mut self, i: usize, dt: f64, event: Event) {
        if let Some(ff) = &mut self.fast_forward {
            ff.lifecycle_at[i] = if dt.is_finite() {
                self.queue.now().after(dt).as_secs()
            } else {
                f64::INFINITY
            };
        }
        if dt.is_finite() {
            self.lifecycle_events += 1;
            self.queue.schedule_in(dt, event);
        }
    }

    /// [`NodeSim::schedule_after`] for a refresh or retransmission timer,
    /// through its lane.
    // `arm`, `arm_timeout`, `send` and `deliver` run on every event:
    // `#[inline]` lets them inline into `handle` however the crate is split
    // into codegen units (`arm_timeout`, once per timeout arm, stays out of
    // line in sigperf's release build; docs/perf.md, "Timeout lanes").
    #[inline]
    fn arm(&mut self, lane: Lane, dt: f64, event: Event) -> u64 {
        if dt.is_finite() {
            self.queue.schedule_in_lane(lane, dt, event)
        } else {
            self.dead
        }
    }

    /// Arms session `i`'s state timeout `dt` seconds from now, through the
    /// timeout lane whose delay `dt` matches.  Installs land one refresh
    /// interval `T` apart, so a first arm waits `τ` and a lazy re-arm, at
    /// `deadline − now`, waits `τ − T` after a regular refresh, or `τ` when
    /// the refresh landed at the very instant the timer fired.  Each lane
    /// then receives its keys in time order.  Delays off that grid (after
    /// a lost refresh, a re-arrival, a repair) would break a lane's order;
    /// they go to the ordering core, as a refused lane key would, and so
    /// does every arm when no lane is open.
    #[inline]
    fn arm_timeout(&mut self, i: usize, dt: f64) -> u64 {
        self.timeout_arms += 1;
        let event = Event::Timeout(i as u32);
        let tolerance = 1e-6 * self.cfg.params.refresh_timer;
        if let Some(lanes) = self.timeout_lanes {
            for (delay, lane) in lanes {
                if (dt - delay).abs() <= tolerance {
                    return self.queue.schedule_in_lane(lane, dt, event);
                }
            }
        }
        self.off_grid_timeouts += 1;
        self.schedule_after(dt, event)
    }

    /// Counts one signaling message and adds it to the bandwidth-envelope
    /// bin of the current virtual time (out-of-band external signals are
    /// not wire messages and stay out of the envelope, matching
    /// [`MessageCounts::signaling_total`]).
    fn record_message(&mut self, kind: MsgKind) {
        self.counts.record(kind);
        if kind.counts_as_signaling() {
            self.envelope.record(self.now);
        }
    }

    /// Sends one message: counts it, draws its loss decision, and routes
    /// the surviving delivery through the receiver's capacity server.
    #[inline]
    fn send(&mut self, kind: MsgKind, arrival: Event) {
        self.record_message(kind);
        if !self.message_lost() {
            self.deliver(self.cfg.params.delay, arrival);
        }
    }

    /// Delivers a message `delay` seconds from now: the link arrival passes
    /// through the node-wide capacity server, which either schedules the
    /// arrival event at its service-completion time or drops it on queue
    /// overflow.  Pure arithmetic — no RNG in any configuration — and under
    /// [`CapacityModel::unlimited`] the completion *is* the link arrival,
    /// so the scheduled time is bit-identical to a capacity-free build.
    #[inline]
    fn deliver(&mut self, delay: f64, arrival: Event) {
        let at = self.now + delay;
        match self.capacity_state.admit(&self.cfg.capacity, at) {
            Admission::Serviced { completion } => {
                self.queue.schedule_at_lane(
                    self.delivery_lane,
                    SimTime::from_secs(completion),
                    arrival,
                );
            }
            Admission::Overflow => self.drops_overload += 1,
        }
    }

    /// One message-loss decision at the current virtual time, with
    /// dropped-by-cause attribution.  Fault episodes come first — a
    /// blackout drops deterministically *without consuming randomness*, so
    /// an empty schedule leaves the RNG stream bit-identical to a build
    /// without fault support.  Then the base loss process (the
    /// [`NodeConfig::loss_model`] override through the node-wide
    /// [`LossState`], or independent Bernoulli at `params.loss`), and last
    /// a degrade episode's extra independent loss — ordered so the base
    /// process advances identically inside and outside degrade windows.
    fn message_lost(&mut self) -> bool {
        let effect = self.faults.link_effect(self.now);
        if matches!(effect, LinkEffect::Blackout) {
            self.drops_injected += 1;
            return true;
        }
        let base = match self.cfg.loss_model {
            Some(model) => self.loss_state.is_lost(&model, &mut self.rng),
            None => self.rng.bernoulli(self.cfg.params.loss),
        };
        if base {
            self.drops_random += 1;
            return true;
        }
        if let LinkEffect::Degraded(extra) = effect {
            if self.rng.bernoulli(extra) {
                self.drops_injected += 1;
                return true;
            }
        }
        false
    }

    // Level-meter steps mirrored into the per-bin meters feeding the
    // recovery trace.  The scalar aggregates still come from the
    // `LevelMeter`s alone, so their accumulation order never changes.
    // Steps past the horizon (a node driven on by `step_events`) are
    // clamped to it, so the meters keep describing the horizon that
    // `metrics` reports on; `run` never gets past it.

    fn active_inc(&mut self, t: f64) {
        let t = t.min(self.cfg.horizon);
        self.active.inc(t);
        self.active_bins.inc(t);
    }

    fn active_dec(&mut self, t: f64) {
        let t = t.min(self.cfg.horizon);
        self.active.dec(t);
        self.active_bins.dec(t);
    }

    fn held_inc(&mut self, t: f64) {
        let t = t.min(self.cfg.horizon);
        self.held.inc(t);
        self.held_bins.inc(t);
    }

    fn held_dec(&mut self, t: f64) {
        let t = t.min(self.cfg.horizon);
        self.held.dec(t);
        self.held_bins.dec(t);
    }

    fn stale_inc(&mut self, t: f64) {
        let t = t.min(self.cfg.horizon);
        self.stale.inc(t);
        self.stale_bins.inc(t);
    }

    fn stale_dec(&mut self, t: f64) {
        let t = t.min(self.cfg.horizon);
        self.stale.dec(t);
        self.stale_bins.dec(t);
    }

    /// The table-derived mechanism capability set this node runs on.
    pub fn dispatch(&self) -> FsmDispatch {
        self.dispatch
    }

    fn on_arrive(&mut self, i: usize, t: f64) {
        debug_assert_eq!(self.slots[i].flags & ALIVE, 0, "arrival on alive slot");
        // Abandon any removal handshake of the previous incarnation: the new
        // trigger supersedes it.
        self.slots[i].flags &= !(PENDING | PENDING_REMOVAL);
        self.slots[i].retrans = self.retire(self.slots[i].retrans);
        self.slots[i].retry.reset();

        self.slots[i].flags |= ALIVE;
        self.active_inc(t);
        if self.slots[i].flags & HELD != 0 {
            // The receiver still holds the previous incarnation's entry; it
            // is no longer stale (presence-based consistency).
            self.stale_dec(t);
        }
        self.send_trigger(i);
        if self.dispatch.uses_refresh {
            let d = self.refresh_delay();
            self.slots[i].refresh = self.arm(self.refresh_lane, d, Event::RefreshFire(i as u32));
        }
        if self.dispatch.has_external_detector && self.cfg.params.false_signal_rate > 0.0 {
            let d = self.rng.exponential_rate(self.cfg.params.false_signal_rate);
            self.slots[i].timeout = self.schedule_after(d, Event::Timeout(i as u32));
        }
        let lifetime = self.rng.exponential_rate(self.cfg.params.removal_rate);
        self.schedule_lifecycle(i, lifetime, Event::Depart(i as u32));
    }

    /// Sends an arriving session's trigger and, where the composition is
    /// reliable, opens its retransmission cycle (`on_arrive` has just
    /// retired any earlier one).
    // Out of line: inlined into `handle`, which runs on every event, it
    // grows the dispatch by about 1 KB (docs/perf.md, "Blackout
    // fast-forward").
    #[inline(never)]
    fn send_trigger(&mut self, i: usize) {
        self.send(MsgKind::Trigger, Event::TriggerArrive(i as u32));
        if self.dispatch.reliable_triggers || self.dispatch.reliable_refresh {
            self.slots[i].flags |= PENDING;
            let d = self.retrans_interval(i) + RETRANS_SLACK;
            self.slots[i].retrans = self.arm(self.retrans_lane, d, Event::RetransFire(i as u32));
        }
    }

    /// The interval to the session's next retransmission attempt, routed
    /// through the configured [`RetryPolicy`].  The cycle state lives in
    /// the session slot; callers reset it where a *new* cycle arms (fresh
    /// install, new removal handshake, repair after a false removal) and
    /// leave it alone where a fired timer re-arms a continuing cycle.
    fn retrans_interval(&mut self, i: usize) -> f64 {
        let retry = self.cfg.retry;
        let base = self.cfg.params.retrans_timer;
        retry.next_interval(base, &mut self.slots[i].retry, &mut self.rng)
    }

    fn on_depart(&mut self, i: usize, t: f64) {
        debug_assert_ne!(self.slots[i].flags & ALIVE, 0, "departure on vacant slot");
        self.slots[i].flags &= !(ALIVE | PENDING);
        self.active_dec(t);
        if self.slots[i].flags & HELD != 0 {
            self.stale_inc(t);
        }
        self.slots[i].refresh = self.retire(self.slots[i].refresh);
        self.slots[i].retrans = self.retire(self.slots[i].retrans);
        if self.dispatch.has_external_detector {
            // The detector monitored this incarnation; it ends with it.
            self.slots[i].timeout = self.retire(self.slots[i].timeout);
        }
        if self.dispatch.uses_explicit_removal {
            self.send(MsgKind::Removal, Event::RemovalArrive(i as u32));
            if self.dispatch.reliable_removal {
                self.slots[i].flags |= PENDING_REMOVAL;
                self.slots[i].retry.reset();
                let d = self.retrans_interval(i) + RETRANS_SLACK;
                self.slots[i].retrans =
                    self.arm(self.retrans_lane, d, Event::RetransFire(i as u32));
            }
        }
        let vacancy = self.rng.exponential_mean(self.cfg.mean_vacancy);
        self.schedule_lifecycle(i, vacancy, Event::Arrive(i as u32));
    }

    fn on_refresh_fire(&mut self, i: usize) {
        self.slots[i].refresh = self.dead;
        if self.slots[i].flags & ALIVE == 0 || !self.dispatch.uses_refresh {
            return;
        }
        self.send(MsgKind::Refresh, Event::RefreshArrive(i as u32));
        if self.dispatch.reliable_refresh {
            self.slots[i].flags |= PENDING;
            if self.slots[i].retrans == self.dead {
                // No cycle in flight: this refresh starts a fresh one.
                self.slots[i].retry.reset();
                let d = self.retrans_interval(i) + RETRANS_SLACK;
                self.slots[i].retrans =
                    self.arm(self.retrans_lane, d, Event::RetransFire(i as u32));
            }
        }
        let d = self.refresh_delay();
        self.slots[i].refresh = self.arm(self.refresh_lane, d, Event::RefreshFire(i as u32));
    }

    /// Delay from now to this session's next refresh firing: one full
    /// interval under the staggered default, or the distance to the next
    /// absolute `refresh_timer` grid point under [`RefreshPhase::Aligned`]
    /// (with a full-interval floor so a firing sitting exactly on the grid
    /// never reschedules itself at zero delay).
    fn refresh_delay(&self) -> f64 {
        let interval = self.cfg.params.refresh_timer;
        match self.cfg.refresh_phase {
            RefreshPhase::Staggered => interval,
            RefreshPhase::Aligned => {
                let into_period = self.now % interval;
                let to_grid = interval - into_period;
                if to_grid < 1e-9 * interval {
                    interval
                } else {
                    to_grid
                }
            }
        }
    }

    fn on_retrans_fire(&mut self, i: usize) {
        self.slots[i].retrans = self.dead;
        let (kind, arrival) = if self.slots[i].flags & PENDING_REMOVAL != 0 {
            (MsgKind::Removal, Event::RemovalArrive(i as u32))
        } else if self.slots[i].flags & (PENDING | ALIVE) == PENDING | ALIVE {
            // Resend the announcement: reliable triggers retransmit the
            // trigger itself; the reliable-refresh loop repairs with
            // refreshes.
            if self.dispatch.reliable_triggers {
                (MsgKind::Trigger, Event::TriggerArrive(i as u32))
            } else {
                (MsgKind::Refresh, Event::RefreshArrive(i as u32))
            }
        } else {
            return;
        };
        let injected = self.drops_injected;
        self.send(kind, arrival);
        let d = self.retrans_interval(i) + RETRANS_SLACK;
        // Walks run only inside `run`, from a firing inside a blackout.
        // Such a firing's message is always an injected drop, so the drop
        // count is a cheap first filter; `fast_forward` then tells a
        // blackout from a degrade episode.
        let in_run = self.fast_forward.as_ref().is_some_and(|ff| ff.in_run);
        self.slots[i].retrans = if self.drops_injected != injected && in_run {
            self.fast_forward(i, kind, d)
        } else {
            self.arm(self.retrans_lane, d, Event::RetransFire(i as u32))
        };
    }

    /// Blackout fast-forward: files session `i`'s next retransmission
    /// `d` seconds from now, after crediting in one loop the firings that
    /// the blackout would drop one queue event at a time.
    ///
    /// Inside a blackout, a firing sends a message that is dropped without
    /// a random draw and re-arms at an interval that (under `Fixed` and
    /// `Backoff`) draws none either; nothing that reaches the session in
    /// between can retire the cycle, since every ACK it would need is sent
    /// into the same blackout.  So the firings form a fixed sequence, and
    /// the loop walks it with the event path's own arithmetic — the same
    /// `SimTime::after` additions and `RetryState` advances — crediting each
    /// firing to `events_processed`, its message kind, the envelope bin of
    /// its own time and `drops_injected`.  It files one key, in the ordering
    /// core, at the first firing it may not take:
    ///
    /// * **Start rule.**  Walk only from a firing that is itself a blackout
    ///   drop.  The last firing before a blackout still sends a message that
    ///   can be delivered and ACKed, retiring the cycle.
    /// * **Blackout rule.**  Take a firing only strictly before the
    ///   blackout's end (back-to-back outages are one blackout, windows
    ///   are half-open); the first firing after it draws a loss sample.
    /// * **Lifecycle rule.**  Take a firing only strictly before the
    ///   session's next lifecycle time.  An arrival or departure cancels or
    ///   replaces the cycle, and at a tie its key, scheduled long before,
    ///   has the older sequence number and fires first.
    /// * **Horizon rule.**  Take a firing only at or before the horizon,
    ///   as `pop_until` does.  Walks are taken only inside `run`:
    ///   `step_events` has no horizon and counts every event it handles
    ///   against its limit, so it stays on the event path, which `run`
    ///   with walks matches event for event.
    ///
    /// **Tie argument.**  The filed key takes its sequence number now,
    /// earlier than the event path would, so it sorts before any key that
    /// the event path would have filed for the same instant in between.
    /// Such a key would need the same float time, which in practice means
    /// another chain in lockstep: one that fired at this same instant with
    /// the same interval sequence.  Chains in lockstep keep their relative
    /// order.  The one that fires first walks first and files first; the
    /// later one walks to the same stopping firing, because the blackout's
    /// end and the horizon are shared, and files after it.  A chain cut
    /// short by its own lifecycle time is cancelled there and never fires
    /// again.  The equivalence proptest and the pins cover the rest.
    #[inline(never)]
    fn fast_forward(&mut self, i: usize, kind: MsgKind, d: f64) -> u64 {
        let first = self.queue.now().after(d);
        let (Some(ff), Some(end)) = (&self.fast_forward, self.faults.blackout_end(self.now)) else {
            return self.arm(self.retrans_lane, d, Event::RetransFire(i as u32));
        };
        let stop = ff.lifecycle_at[i].min(end);
        let horizon = self.cfg.horizon;
        let (policy, base) = (self.cfg.retry, self.cfg.params.retrans_timer);
        let mut retry = self.slots[i].retry;
        let (mut at, mut steps) = (first, 0u64);
        while at.as_secs() < stop && at.as_secs() <= horizon {
            self.envelope.record(at.as_secs());
            steps += 1;
            at = at.after(policy.next_interval(base, &mut retry, &mut self.rng) + RETRANS_SLACK);
        }
        if steps == 0 {
            return self.arm(self.retrans_lane, d, Event::RetransFire(i as u32));
        }
        self.slots[i].retry = retry;
        self.counts.record_n(kind, steps);
        self.drops_injected += steps;
        self.events_processed += steps;
        // The ordering core, not the retransmission lane: a key this far
        // ahead would make the lane refuse every ordinary re-arm behind it.
        self.queue.schedule_at(at, Event::RetransFire(i as u32))
    }

    fn on_install_arrive(&mut self, i: usize, t: f64, trigger: bool) {
        if self.slots[i].flags & HELD == 0 {
            self.slots[i].flags |= HELD;
            self.held_inc(t);
            if self.slots[i].flags & ALIVE == 0 {
                // An in-flight announcement landed after the sender left:
                // instantly stale state.
                self.stale_inc(t);
            }
        }
        if self.dispatch.uses_state_timeout {
            // Lazy timeout: installs and refreshes only bump the deadline.
            // A timer is armed only when none is in flight; one that fires
            // before the (since-extended) deadline re-arms itself there.
            // The refresh hot path therefore never cancels, and the queue
            // never accumulates cancelled-timeout backlog.
            self.slots[i].deadline = t + self.cfg.params.timeout_timer;
            if self.slots[i].timeout == self.dead {
                self.slots[i].timeout = self.arm_timeout(i, self.cfg.params.timeout_timer);
            }
        }
        // ACK path of the reliable variants, with the ACK's own loss draw.
        // The ACK is modeled as retiring the retransmission cycle at arrival
        // time (the backward delay ≪ the retransmission timer).
        let ack = if trigger && self.dispatch.reliable_triggers {
            Some(MsgKind::TriggerAck)
        } else if self.dispatch.reliable_refresh {
            Some(MsgKind::RefreshAck)
        } else {
            None
        };
        if let Some(kind) = ack {
            self.record_message(kind);
            if !self.message_lost() && self.slots[i].flags & PENDING != 0 {
                self.slots[i].flags &= !PENDING;
                if self.slots[i].flags & PENDING_REMOVAL == 0 {
                    self.slots[i].retrans = self.retire(self.slots[i].retrans);
                }
            }
        }
    }

    fn on_removal_arrive(&mut self, i: usize, t: f64) {
        if self.slots[i].flags & HELD != 0 {
            self.slots[i].flags &= !HELD;
            self.held_dec(t);
            if self.slots[i].flags & ALIVE == 0 {
                self.stale_dec(t);
            }
            self.slots[i].timeout = self.retire(self.slots[i].timeout);
        }
        if self.dispatch.reliable_removal {
            self.record_message(MsgKind::RemovalAck);
            if !self.message_lost() && self.slots[i].flags & PENDING_REMOVAL != 0 {
                self.slots[i].flags &= !PENDING_REMOVAL;
                self.slots[i].retrans = self.retire(self.slots[i].retrans);
            }
        }
    }

    fn on_timeout(&mut self, i: usize, t: f64) {
        self.slots[i].timeout = self.dead;
        if self.dispatch.has_external_detector {
            // The external failure detector (wrongly) reports this session's
            // sender as crashed; the signal travels out of band.
            self.record_message(MsgKind::ExternalSignal);
            if self.slots[i].flags & HELD != 0 {
                self.remove_held(i, t);
            }
            if self.slots[i].flags & ALIVE != 0 && self.cfg.params.false_signal_rate > 0.0 {
                let d = self.rng.exponential_rate(self.cfg.params.false_signal_rate);
                self.slots[i].timeout = self.schedule_after(d, Event::Timeout(i as u32));
            }
        } else if self.slots[i].flags & HELD != 0 {
            if t + 1e-9 < self.slots[i].deadline {
                // A newer install pushed the deadline past this firing:
                // re-arm there (the lazy-timeout second half).
                let d = self.slots[i].deadline - t;
                self.slots[i].timeout = self.arm_timeout(i, d);
            } else {
                self.remove_held(i, t);
            }
        }
    }

    /// Receiver-side removal by timeout or false signal, including the
    /// false-removal accounting and the notify/re-trigger repair path.
    fn remove_held(&mut self, i: usize, t: f64) {
        self.slots[i].flags &= !HELD;
        self.held_dec(t);
        if self.slots[i].flags & ALIVE == 0 {
            self.stale_dec(t);
            return;
        }
        // The sender still holds the state: a false removal.
        self.false_removals += 1;
        self.false_removal_bins.record(t);
        if self.dispatch.notifies_on_removal {
            self.record_message(MsgKind::RemovalNotice);
            if !self.message_lost() {
                // The notice reaches the sender one delay from now; the
                // repair trigger is sent from there, so its arrival draw is
                // made now and it lands after two delays.
                self.record_message(MsgKind::Trigger);
                if !self.message_lost() {
                    let d = 2.0 * self.cfg.params.delay;
                    self.deliver(d, Event::TriggerArrive(i as u32));
                }
                if self.dispatch.reliable_triggers || self.dispatch.reliable_refresh {
                    self.slots[i].flags |= PENDING;
                    if self.slots[i].retrans == self.dead {
                        // The repair trigger opens a fresh cycle.
                        self.slots[i].retry.reset();
                        let d = self.cfg.params.delay + self.retrans_interval(i) + RETRANS_SLACK;
                        self.slots[i].retrans =
                            self.arm(self.retrans_lane, d, Event::RetransFire(i as u32));
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Replicated campaigns.
// ----------------------------------------------------------------------

/// Aggregated results of a node-scale campaign: per-replication summaries
/// of every [`NodeMetrics`] rate plus node-wide totals.  Deterministic —
/// bit-identical across execution policies and queue kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCampaignResult {
    /// Number of replications.
    pub replications: usize,
    /// Summary of the node-wide refresh-message rate (msgs/sec).
    pub refresh_rate: Summary,
    /// Summary of the node-wide signaling message rate (msgs/sec).
    pub message_rate: Summary,
    /// Summary of the signaling bandwidth (bytes/sec).
    pub bandwidth_bytes_per_sec: Summary,
    /// Summary of the peak of the per-second bandwidth envelope
    /// (bytes/sec).
    pub peak_bandwidth_bytes_per_sec: Summary,
    /// Summary of the population stale fraction.
    pub stale_fraction: Summary,
    /// Summary of the false-removal rate (per alive-session-second).
    pub false_removal_rate: Summary,
    /// Summary of the time-average alive-sender population.
    pub mean_active: Summary,
    /// Total events processed across replications.
    pub events_processed: u64,
    /// Total messages across replications, by kind.
    pub messages: MessageCounts,
    /// Total false removals across replications.
    pub false_removals: u64,
    /// Total messages dropped by the base loss process.
    pub drops_random: u64,
    /// Total messages dropped by injected fault episodes.
    pub drops_injected: u64,
    /// Total messages dropped to receiver-queue overload.
    pub drops_overload: u64,
    /// Total receiver entries wiped by injected crash–restarts.
    pub crash_wipes: u64,
}

/// A node-scale campaign: one [`NodeConfig`], many replications, fanned out
/// through the shared [`ReplicationEngine`] (work stealing; outputs land in
/// index order, so results are bit-identical under every policy).
#[derive(Debug, Clone)]
pub struct NodeCampaign {
    config: NodeConfig,
    replications: usize,
    seed: u64,
    policy: ExecutionPolicy,
}

/// One node replication, as seen by the [`ReplicationEngine`]: its
/// metrics, phase timings, bytes/session and recovery trace.
struct NodeTracedReplicate<'a> {
    config: &'a NodeConfig,
    seed: u64,
}

impl Replicate for NodeTracedReplicate<'_> {
    type Output = (NodeMetrics, PhaseTimings, f64, RecoveryTrace);

    fn replicate(&self, index: u64) -> Self::Output {
        let rng = SimRng::for_replication(self.seed, index);
        let mut sim = NodeSim::with_rng(*self.config, rng);
        let metrics = sim.run();
        let trace = sim.recovery_trace();
        (metrics, sim.phase_timings(), sim.bytes_per_session(), trace)
    }
}

impl NodeCampaign {
    /// Creates a campaign with the given number of replications.
    pub fn new(config: NodeConfig, replications: usize, seed: u64) -> Self {
        Self {
            config,
            replications: replications.max(1),
            seed,
            policy: ExecutionPolicy::Serial,
        }
    }

    /// Sets the execution policy for the replication fan-out.
    pub fn execution(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configuration being replicated.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Runs every replication and aggregates the results.
    pub fn run(&self) -> NodeCampaignResult {
        self.run_traced().0
    }

    /// Runs every replication, returning the aggregated result, the summed
    /// wall-clock phase breakdown, the largest observed bytes/session, and
    /// the replication traces pooled into one population-aggregate
    /// [`RecoveryTrace`] (element-wise sums: the pool behaves like one node
    /// holding every replication's sessions).  Wall-clock and memory stay
    /// out of [`NodeCampaignResult`] so that the result is comparable across
    /// queue kinds; tracing reads the event sequence, it does not perturb it.
    pub fn run_traced(&self) -> (NodeCampaignResult, PhaseTimings, f64, RecoveryTrace) {
        let task = NodeTracedReplicate {
            config: &self.config,
            seed: self.seed,
        };
        let outputs = ReplicationEngine::new(self.policy).run(self.replications, &task);
        let (result, phases, bytes) = Self::summarize(&outputs);
        let traces: Vec<RecoveryTrace> = outputs.into_iter().map(|o| o.3).collect();
        // sigtidy: allow(no-unwrap) — NodeCampaign::new clamps replications to at least 1
        let trace = RecoveryTrace::pool(&traces).expect("campaigns run at least one replication");
        (result, phases, bytes, trace)
    }

    /// Aggregates replication outputs into the campaign result.
    fn summarize(
        outputs: &[(NodeMetrics, PhaseTimings, f64, RecoveryTrace)],
    ) -> (NodeCampaignResult, PhaseTimings, f64) {
        let mut refresh_rate = OnlineStats::new();
        let mut message_rate = OnlineStats::new();
        let mut bandwidth = OnlineStats::new();
        let mut peak_bandwidth = OnlineStats::new();
        let mut stale = OnlineStats::new();
        let mut false_rate = OnlineStats::new();
        let mut mean_active = OnlineStats::new();
        let mut events = 0u64;
        let mut messages = MessageCounts::default();
        let mut false_removals = 0u64;
        let mut drops_random = 0u64;
        let mut drops_injected = 0u64;
        let mut drops_overload = 0u64;
        let mut crash_wipes = 0u64;
        let mut phases = PhaseTimings::default();
        let mut bytes_per_session = 0.0f64;
        for (m, p, b, _) in outputs {
            refresh_rate.push(m.refresh_rate);
            message_rate.push(m.message_rate);
            bandwidth.push(m.bandwidth_bytes_per_sec);
            peak_bandwidth.push(m.peak_bandwidth_bytes_per_sec);
            stale.push(m.stale_fraction);
            false_rate.push(m.false_removal_rate);
            mean_active.push(m.mean_active);
            events += m.events_processed;
            messages.merge(&m.messages);
            false_removals += m.false_removals;
            drops_random += m.drops_random;
            drops_injected += m.drops_injected;
            drops_overload += m.drops_overload;
            crash_wipes += m.crash_wipes;
            phases.merge(p);
            bytes_per_session = bytes_per_session.max(*b);
        }
        let result = NodeCampaignResult {
            replications: outputs.len(),
            refresh_rate: Summary::from_stats(&refresh_rate),
            message_rate: Summary::from_stats(&message_rate),
            bandwidth_bytes_per_sec: Summary::from_stats(&bandwidth),
            peak_bandwidth_bytes_per_sec: Summary::from_stats(&peak_bandwidth),
            stale_fraction: Summary::from_stats(&stale),
            false_removal_rate: Summary::from_stats(&false_rate),
            mean_active: Summary::from_stats(&mean_active),
            events_processed: events,
            messages,
            false_removals,
            drops_random,
            drops_injected,
            drops_overload,
            crash_wipes,
        };
        (result, phases, bytes_per_session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast-churn parameters: short lifetimes so a two-minute horizon sees
    /// plenty of arrivals, departures and (under loss) false removals.
    fn churn_params() -> SingleHopParams {
        SingleHopParams::kazaa_defaults().with_mean_lifetime(60.0)
    }

    fn quick_config(protocol: ProtocolSpec, sessions: usize) -> NodeConfig {
        NodeConfig::new(protocol, churn_params(), sessions)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0)
    }

    #[test]
    fn config_validation() {
        let cfg = quick_config(ProtocolSpec::SS, 10);
        cfg.validate().unwrap();
        assert!(cfg.with_horizon(0.0).validate().is_err());
        for vacancy in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                cfg.with_mean_vacancy(vacancy).validate(),
                Err(ConfigError::NonPositiveVacancy),
                "{vacancy}"
            );
        }
        assert_eq!(
            ConfigError::NonPositiveVacancy.to_string(),
            "mean vacancy must be positive and finite"
        );
        let mut huge = cfg;
        huge.sessions = u32::MAX as usize;
        huge.validate().unwrap();
        huge.sessions += 1;
        assert_eq!(
            huge.validate(),
            Err(ConfigError::TooManySessions(huge.sessions))
        );
        // Sessions clamp to at least one; a literal with none is refused.
        assert_eq!(
            NodeConfig::new(ProtocolSpec::SS, churn_params(), 0).sessions,
            1
        );
        let empty = NodeConfig { sessions: 0, ..cfg };
        assert_eq!(empty.validate(), Err(ConfigError::NoSessions));
        assert_eq!(
            ConfigError::NoSessions.to_string(),
            "a node needs at least one session"
        );
    }

    #[test]
    #[should_panic(expected = "more sessions than u32::MAX")]
    fn a_node_past_u32_sessions_is_refused_before_allocating() {
        let mut cfg = quick_config(ProtocolSpec::SS, 1);
        cfg.sessions = u32::MAX as usize + 1;
        NodeSim::new(cfg, 1);
    }

    #[test]
    fn sessions_are_numbered_in_arrival_order_so_refreshes_sweep_the_slab() {
        // Lifetimes far beyond the run: no session departs and re-arrives
        // inside the rounds watched here.
        let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(1e9);
        let sessions = 4096;
        let first_round_end = SimTime::from_secs(2.0 * params.refresh_timer);
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            for phase in [RefreshPhase::Staggered, RefreshPhase::Aligned] {
                let cfg = NodeConfig::new(ProtocolSpec::SS, params, sessions)
                    .with_queue_kind(kind)
                    .with_refresh_phase(phase);
                let mut sim = NodeSim::new(cfg, 2003);
                let (mut arrivals, mut refreshes) = (Vec::new(), Vec::new());
                while sim.queue.peek_time().is_some_and(|t| t < first_round_end) {
                    let e = sim.queue.pop().expect("an event is pending");
                    match e.event {
                        Event::Arrive(i) => arrivals.push(i),
                        Event::RefreshFire(i) => refreshes.push(i),
                        _ => {}
                    }
                    assert!(sim.process(e), "nothing is retired");
                }
                let in_order: Vec<u32> = (0..sessions as u32).collect();
                assert_eq!(arrivals, in_order, "{kind} {phase:?}");
                assert_eq!(refreshes, in_order, "{kind} {phase:?}");
            }
        }
    }

    #[test]
    fn session_slot_stays_within_budget() {
        // The packed per-session record is the bytes/session floor; keep it
        // at (or under) 40 bytes = three 8-byte ids + deadline + flags,
        // padded.
        assert!(std::mem::size_of::<SessionSlot>() <= 40);
    }

    #[test]
    fn all_presets_produce_sane_aggregates() {
        for proto in ProtocolSpec::PAPER {
            let mut sim = NodeSim::new(quick_config(proto, 64), 11);
            let m = sim.run();
            assert_eq!(m.sessions, 64);
            assert!(m.events_processed > 0, "{proto}");
            assert!(m.mean_active > 0.0 && m.mean_active <= 64.0, "{proto}");
            assert!(m.mean_held > 0.0 && m.mean_held <= 64.0, "{proto}");
            assert!(
                (0.0..=1.0).contains(&m.stale_fraction),
                "{proto}: {}",
                m.stale_fraction
            );
            assert!(m.message_rate > 0.0, "{proto}");
            assert!(
                (m.bandwidth_bytes_per_sec - m.message_rate * MESSAGE_BYTES).abs() < 1e-9,
                "{proto}"
            );
            if proto.uses_refresh() {
                assert!(m.refresh_rate > 0.0, "{proto}");
            } else {
                assert_eq!(m.messages.refresh, 0, "{proto}");
            }
            if proto.uses_explicit_removal() {
                assert!(m.messages.removal > 0, "{proto}");
            } else {
                assert_eq!(m.messages.removal, 0, "{proto}");
            }
            assert!(sim.bytes_per_session() > 0.0);
        }
    }

    #[test]
    fn refresh_rate_tracks_population_over_refresh_timer() {
        // ~mean_active/T refreshes per second for pure soft state.
        let cfg = quick_config(ProtocolSpec::SS, 200);
        let m = NodeSim::new(cfg, 3).run();
        let expected = m.mean_active / cfg.params.refresh_timer;
        let ratio = m.refresh_rate / expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "refresh rate {} vs population-predicted {expected}",
            m.refresh_rate
        );
    }

    #[test]
    fn churn_keeps_alive_population_near_the_renewal_fraction() {
        // lifetime 60 s, vacancy 15 s ⇒ alive fraction 0.8.
        let m = NodeSim::new(quick_config(ProtocolSpec::SS_ER, 400), 5).run();
        let fraction = m.mean_active / 400.0;
        assert!(
            (0.65..0.95).contains(&fraction),
            "alive fraction {fraction}"
        );
    }

    #[test]
    fn explicit_removal_cuts_the_stale_fraction() {
        // SS holds orphans for ~τ after departure; SS+ER only for ~Δ.
        let ss = NodeSim::new(quick_config(ProtocolSpec::SS, 300), 9).run();
        let er = NodeSim::new(quick_config(ProtocolSpec::SS_ER, 300), 9).run();
        assert!(
            ss.stale_fraction > 3.0 * er.stale_fraction,
            "SS {} vs SS+ER {}",
            ss.stale_fraction,
            er.stale_fraction
        );
        assert!(
            ss.stale_fraction > 0.02,
            "orphans must register: {}",
            ss.stale_fraction
        );
    }

    #[test]
    fn loss_causes_false_removals_for_pure_soft_state() {
        let mut params = churn_params();
        params.loss = 0.5;
        params.timeout_timer = 2.0 * params.refresh_timer;
        let cfg = NodeConfig::new(ProtocolSpec::SS, params, 300)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0);
        let m = NodeSim::new(cfg, 21).run();
        assert!(m.false_removals > 0);
        assert!(m.false_removal_rate > 0.0);
        // Lossless runs must not report any.
        let mut lossless = cfg;
        lossless.params.loss = 0.0;
        let m0 = NodeSim::new(lossless, 21).run();
        assert_eq!(m0.false_removals, 0);
    }

    #[test]
    fn reliable_refresh_repairs_under_loss() {
        use siganalytic::RefreshMode;
        let ss_rr: ProtocolSpec =
            ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        let mut params = churn_params();
        params.loss = 0.4;
        params.timeout_timer = 2.0 * params.refresh_timer;
        let base = NodeConfig::new(ProtocolSpec::SS, params, 200)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0);
        let rr = NodeConfig::new(ss_rr, params, 200)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0);
        let m_ss = NodeSim::new(base, 4).run();
        let m_rr = NodeSim::new(rr, 4).run();
        assert!(m_rr.messages.refresh_ack > 0, "ACKs must flow for SS+RR");
        assert_eq!(m_ss.messages.refresh_ack, 0);
        assert!(
            m_rr.false_removal_rate < m_ss.false_removal_rate,
            "retransmitted refreshes should cut false removals ({} vs {})",
            m_rr.false_removal_rate,
            m_ss.false_removal_rate
        );
    }

    #[test]
    fn hard_state_false_signals_are_repaired() {
        let mut params = churn_params();
        params.loss = 0.0;
        params.false_signal_rate = 0.05; // several per session lifetime
        let cfg = NodeConfig::new(ProtocolSpec::HS, params, 100)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0);
        let m = NodeSim::new(cfg, 13).run();
        assert!(m.messages.external_signal > 0);
        assert!(m.false_removals > 0);
        // The notify + re-trigger repair keeps stale/missing time small.
        assert!(m.stale_fraction < 0.05, "stale {}", m.stale_fraction);
    }

    #[test]
    fn aggregate_metrics_golden_pinned_for_pure_soft_state() {
        // Exact-value pin for one spec (SS, 256 sessions, seed 2003): any
        // behavior change in the node loop — event order, RNG consumption,
        // metric accumulation — shows up here as a literal diff.  Asserted
        // under both ordering cores and both execution policies, so the pin
        // also certifies queue-kind and policy independence.
        let cfg = quick_config(ProtocolSpec::SS, 256);
        for m in [
            NodeSim::new(cfg, 2003).run(),
            NodeSim::new(cfg.with_queue_kind(QueueKind::Calendar), 2003).run(),
        ] {
            assert_eq!(m.sessions, 256);
            assert_eq!(m.horizon, 90.0);
            assert_eq!(m.events_processed, 9992);
            assert_eq!(m.messages.trigger, 494);
            assert_eq!(m.messages.refresh, 3473);
            assert_eq!(m.messages.signaling_total(), 3967);
            assert_eq!(m.refresh_rate, 38.58888888888889);
            assert_eq!(m.message_rate, 44.077777777777776);
            assert_eq!(m.bandwidth_bytes_per_sec, 2820.9777777777776);
            assert_eq!(m.stale_fraction, 0.1114549531037238);
            assert_eq!(m.false_removals, 2);
            assert_eq!(m.false_removal_rate, 0.00010734827258195877);
            assert_eq!(m.mean_active, 207.01052460118436);
            assert_eq!(m.mean_held, 232.51722387751562);
            assert_eq!(m.peak_bandwidth_bytes_per_sec, 3712.0);
        }
        // The campaign path (through the ReplicationEngine) reproduces the
        // same single-replication metrics regardless of policy.
        let serial = NodeCampaign::new(cfg, 1, 2003).run();
        let threaded = NodeCampaign::new(cfg, 1, 2003)
            .execution(ExecutionPolicy::threads(2))
            .run();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn aligned_refresh_phase_storms_the_bandwidth_envelope() {
        // Staggered arrivals decorrelate the periodic refresh timers, so
        // the envelope peak sits near the mean; phase-aligned arrivals put
        // every refresh in the same per-second bin and the peak explodes
        // while the mean barely moves (same message count, bursty shape).
        let cfg = quick_config(ProtocolSpec::SS, 256);
        let staggered = NodeSim::new(cfg, 2003).run();
        let aligned = NodeSim::new(cfg.with_refresh_phase(RefreshPhase::Aligned), 2003).run();
        assert!(staggered.peak_bandwidth_bytes_per_sec >= staggered.bandwidth_bytes_per_sec);
        assert!(
            aligned.peak_bandwidth_bytes_per_sec > 3.0 * staggered.peak_bandwidth_bytes_per_sec,
            "aligned peak {} vs staggered peak {}",
            aligned.peak_bandwidth_bytes_per_sec,
            staggered.peak_bandwidth_bytes_per_sec
        );
        let ratio = |m: &NodeMetrics| m.bandwidth_bytes_per_sec / m.message_rate;
        assert_eq!(ratio(&staggered), MESSAGE_BYTES);
        assert_eq!(ratio(&aligned), MESSAGE_BYTES);
    }

    #[test]
    fn aligned_refresh_metrics_are_pinned() {
        // Exact pin of grid-snapped refresh timers: each re-arm lands on the
        // next refresh-interval boundary, whose floating-point value can
        // differ by an ulp between sessions, so the event order hinges on
        // exact `(time, seq)` ties.  Asserted under both ordering cores.
        let cfg = quick_config(ProtocolSpec::SS, 256).with_refresh_phase(RefreshPhase::Aligned);
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let m = NodeSim::new(cfg.with_queue_kind(kind), 2003).run();
            assert_eq!(format!("{m:?}"), PIN_ALIGNED, "{kind}");
        }
    }

    const PIN_ALIGNED: &str = concat!(
        "NodeMetrics { sessions: 256, horizon: 90.0, ",
        "events_processed: 10329, ",
        "messages: MessageCounts { trigger: 491, refresh: 3796, ",
        "removal: 0, trigger_ack: 0, refresh_ack: 0, removal_ack: 0, ",
        "removal_notice: 0, external_signal: 0 }, ",
        "refresh_rate: 42.17777777777778, ",
        "message_rate: 47.63333333333333, ",
        "bandwidth_bytes_per_sec: 3048.5333333333333, ",
        "peak_bandwidth_bytes_per_sec: 15616.0, ",
        "stale_fraction: 0.1155258273269029, false_removals: 2, ",
        "false_removal_rate: 0.00010777470712450884, ",
        "mean_active: 206.19144152764494, mean_held: 232.70219342793615, ",
        "drops_random: 61, drops_injected: 0, drops_overload: 0, ",
        "crash_wipes: 0 }",
    );

    #[test]
    fn node_dispatch_is_table_derived_and_matches_predicates() {
        for proto in ProtocolSpec::PAPER {
            let sim = NodeSim::new(quick_config(proto, 8), 7);
            assert_eq!(
                sim.dispatch(),
                siganalytic::FsmDispatch::from_predicates(proto),
                "{proto}"
            );
        }
    }

    #[test]
    fn metrics_are_deterministic_for_fixed_seed() {
        let cfg = quick_config(ProtocolSpec::SS_RTR, 128);
        let a = NodeSim::new(cfg, 77).run();
        let b = NodeSim::new(cfg, 77).run();
        assert_eq!(a, b);
        let c = NodeSim::new(cfg, 78).run();
        assert_ne!(a, c);
    }

    #[test]
    fn metrics_identical_across_queue_kinds() {
        // Both ordering cores deliver the identical (time, seq) sequence, so
        // the RNG consumption — and every aggregate — matches bit for bit.
        for proto in ProtocolSpec::PAPER {
            let heap_cfg = quick_config(proto, 96);
            let cal_cfg = heap_cfg.with_queue_kind(QueueKind::Calendar);
            let a = NodeSim::new(heap_cfg, 5).run();
            let b = NodeSim::new(cal_cfg, 5).run();
            assert_eq!(a, b, "{proto}: queue kinds diverged");
        }
    }

    #[test]
    fn campaign_bit_identical_across_policies_and_kinds() {
        let cfg = quick_config(ProtocolSpec::SS_ER, 64);
        let serial = NodeCampaign::new(cfg, 8, 42).run();
        for n in [2, 4] {
            let threaded = NodeCampaign::new(cfg, 8, 42)
                .execution(ExecutionPolicy::threads(n))
                .run();
            assert_eq!(serial, threaded, "Threads({n}) diverged from Serial");
        }
        let calendar = NodeCampaign::new(cfg.with_queue_kind(QueueKind::Calendar), 8, 42)
            .execution(ExecutionPolicy::threads(4))
            .run();
        assert_eq!(serial, calendar, "calendar queue diverged");
    }

    #[test]
    fn step_events_is_a_stationary_driver() {
        let mut sim = NodeSim::new(quick_config(ProtocolSpec::SS, 256), 1);
        // Warm to steady state, then stepping keeps processing events
        // (churn regenerates them indefinitely).
        assert_eq!(sim.step_events(2000), 2000);
        let pending_before = sim.pending_events();
        assert_eq!(sim.step_events(1000), 1000);
        let pending_after = sim.pending_events();
        assert!(pending_before > 0 && pending_after > 0);
        assert_eq!(sim.events_processed(), 3000);
    }

    #[test]
    fn stepping_past_the_horizon_keeps_the_horizon_levels() {
        // `metrics` reports on the horizon.  A node stepped far past it
        // (as the throughput benchmarks drive it) must report the same
        // population levels as `run`, which stops there.
        let cfg = quick_config(ProtocolSpec::SS, 256);
        let ran = NodeSim::new(cfg, 2003).run();
        let mut sim = NodeSim::new(cfg, 2003);
        sim.step_events(3 * ran.events_processed);
        let stepped = sim.metrics();
        assert_eq!(stepped.mean_active, ran.mean_active);
        assert_eq!(stepped.mean_held, ran.mean_held);
        assert_eq!(stepped.stale_fraction, ran.stale_fraction);
        assert!(stepped.mean_active <= cfg.sessions as f64);
    }

    #[test]
    fn phase_timings_accumulate() {
        let mut sim = NodeSim::new(quick_config(ProtocolSpec::SS, 64), 2);
        sim.run();
        let p = sim.phase_timings();
        assert!(p.schedule >= 0.0 && p.fire >= 0.0 && p.metrics >= 0.0);
        assert!(p.total() > 0.0);
        let mut sum = PhaseTimings::default();
        sum.merge(&p);
        sum.merge(&p);
        assert!((sum.total() - 2.0 * p.total()).abs() < 1e-12);
    }

    #[test]
    fn memory_stays_within_the_per_session_budget() {
        // The documented budgets (docs/perf.md): ≤ 160 bytes/session on the
        // heap core and ≤ 192 on the calendar core (whose short sorted
        // buckets carry per-bucket `Vec` capacity slack), in steady state at
        // populations where the fixed overheads have amortized.  Each is
        // the measured footprint (140.8 and 168.5) plus 12.5%, rounded up
        // to a multiple of 8 bytes.
        let cfg = quick_config(ProtocolSpec::SS, 4096);
        let mut sim = NodeSim::new(cfg, 6);
        sim.run();
        let b = sim.bytes_per_session();
        assert!(
            b <= 160.0,
            "bytes/session {b} exceeds the documented 160-byte budget"
        );
        let cal = cfg.with_queue_kind(QueueKind::Calendar);
        let mut sim = NodeSim::new(cal, 6);
        sim.run();
        let b = sim.bytes_per_session();
        assert!(
            b <= 192.0,
            "calendar bytes/session {b} exceeds the 192-byte budget"
        );
    }

    /// One-million-session smoke: runs in release test suites (and by
    /// request in debug via `--ignored`), pinning the bytes/session budget
    /// at the headline population.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: 10^6 sessions")]
    fn million_sessions_within_budget() {
        // Six seconds covers the full arrival stagger (one refresh interval)
        // plus the first refresh wave: every session is live and the queue
        // is at its steady-state occupancy.
        let cfg = NodeConfig::new(ProtocolSpec::SS, churn_params(), 1_000_000)
            .with_horizon(6.0)
            .with_mean_vacancy(15.0);
        let mut sim = NodeSim::new(cfg, 1);
        let m = sim.run();
        assert!(m.events_processed > 1_000_000);
        // Measured 135.9 bytes/session; the bound adds 12.5% and rounds up
        // to a multiple of 8 bytes, as above.
        let b = sim.bytes_per_session();
        assert!(b <= 160.0, "bytes/session {b} at N=10^6 exceeds budget");
    }

    // ------------------------------------------------------------------
    // Fault injection.
    // ------------------------------------------------------------------

    use signet::{FaultEvent, FaultSchedule, LossModel};

    /// Churn parameters with every random process except timers silenced:
    /// no loss, no false detector signals.  Whatever the fault schedule
    /// causes is then cleanly attributable.
    fn quiet_params() -> SingleHopParams {
        let mut p = churn_params();
        p.loss = 0.0;
        p.false_signal_rate = 0.0;
        p
    }

    fn faulted_config(protocol: ProtocolSpec, faults: FaultSchedule) -> NodeConfig {
        NodeConfig::new(protocol, quiet_params(), 256)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0)
            .with_fault_schedule(faults)
    }

    #[test]
    fn outage_avalanches_soft_state_and_not_hard_state() {
        // A 30 s blackout (longer than the 15 s state timeout) silences the
        // refresh stream: every soft-state receiver entry whose sender is
        // still alive times out — the avalanche.  Hard state removes only
        // on explicit signals, so it false-removes nothing; its failure
        // mode is the dual (removals lost during the outage leave stale
        // orphans behind).
        let faults = FaultSchedule::outage(30.0, 30.0).unwrap();
        let ss = NodeSim::new(faulted_config(ProtocolSpec::SS, faults), 17).run();
        let hs = NodeSim::new(faulted_config(ProtocolSpec::HS, faults), 17).run();
        assert!(
            ss.false_removals > 100,
            "SS avalanche: {}",
            ss.false_removals
        );
        assert_eq!(hs.false_removals, 0);
        assert!(ss.drops_injected > 500 && hs.drops_injected > 50);
        assert_eq!(ss.drops_random, 0, "loss is zero: every drop is injected");
        assert_eq!(hs.drops_random, 0);
        // HS's failure mode is the dual: departures whose removal message
        // fell into the blackout leave orphans a lossless control never
        // shows.
        let hs_control =
            NodeSim::new(faulted_config(ProtocolSpec::HS, FaultSchedule::none()), 17).run();
        assert!(
            hs_control.stale_fraction < 0.01,
            "lossless HS control should hold almost no stale state: {}",
            hs_control.stale_fraction
        );
        assert!(
            hs.stale_fraction > 3.0 * hs_control.stale_fraction.max(0.01),
            "lost removals must orphan HS entries (outage {} vs control {})",
            hs.stale_fraction,
            hs_control.stale_fraction
        );
    }

    #[test]
    fn recovery_trace_shows_spike_and_reconvergence() {
        use crate::recovery::RecoveryMetrics;
        // Pool eight replications: a 256-session node's per-bin stale
        // fraction is too noisy for a tight reconvergence tolerance, the
        // ~2000-session pool is not.
        let faults = FaultSchedule::outage(30.0, 30.0).unwrap();
        let (_, _, _, trace) =
            NodeCampaign::new(faulted_config(ProtocolSpec::SS, faults), 8, 17).run_traced();
        let m = RecoveryMetrics::derive(&trace, 30.0, 60.0, 0.05);
        // No loss ⇒ a zero pre-fault baseline, so the avalanche spike is
        // the pure injected signal.
        assert_eq!(m.baseline_false_removal_rate, 0.0);
        assert!(m.peak_false_removal_rate > 100.0, "{m:?}");
        assert!(m.spike_amplification.is_infinite());
        // The refresh stream re-installs everything shortly after the
        // outage clears: finite, small reconvergence time.
        assert!(m.reconverge_secs.is_finite(), "{m:?}");
        assert!(m.reconverge_secs < 30.0, "{m:?}");
        // Pure SS refreshes unconditionally, so its recovery costs no
        // *extra* messages; the reliable-trigger variant pays for the
        // outage in retransmissions.
        let (_, _, _, rtr_trace) =
            NodeCampaign::new(faulted_config(ProtocolSpec::SS_RTR, faults), 8, 17).run_traced();
        let rtr = RecoveryMetrics::derive(&rtr_trace, 30.0, 60.0, 0.05);
        assert!(rtr.recovery_messages > 100.0, "{rtr:?}");
    }

    #[test]
    fn crash_wipe_heals_soft_state_and_orphans_hard_state() {
        let faults = FaultSchedule::from_events(&[FaultEvent::CrashRestart {
            at: 45.0,
            state_policy: signet::CrashStatePolicy::Wipe,
        }])
        .unwrap();
        let run = |proto: ProtocolSpec| {
            let mut sim = NodeSim::new(faulted_config(proto, faults), 23);
            let m = sim.run();
            (m, sim.recovery_trace())
        };
        let (ss, ss_t) = run(ProtocolSpec::SS);
        let (hs, hs_t) = run(ProtocolSpec::HS);
        assert!(ss.crash_wipes > 100 && hs.crash_wipes > 100);
        // The wipe is silent: no protocol removal happened.
        assert_eq!(ss.false_removals, 0);
        assert_eq!(hs.false_removals, 0);
        // Ten seconds after the crash (two refresh intervals), soft state
        // has re-installed every live session; hard state is still missing
        // almost everything, because nothing re-announces until churn
        // replaces the sessions.
        let ratio = |t: &RecoveryTrace| t.held[54] / t.active[54];
        assert!(ratio(&ss_t) > 0.9, "SS held/active {}", ratio(&ss_t));
        assert!(ratio(&hs_t) < 0.5, "HS held/active {}", ratio(&hs_t));
    }

    #[test]
    fn crash_preserve_changes_nothing_but_the_event_count() {
        let faults = FaultSchedule::from_events(&[FaultEvent::CrashRestart {
            at: 45.0,
            state_policy: signet::CrashStatePolicy::Preserve,
        }])
        .unwrap();
        let preserved = NodeSim::new(faulted_config(ProtocolSpec::SS_ER, faults), 29).run();
        let control = NodeSim::new(
            faulted_config(ProtocolSpec::SS_ER, FaultSchedule::none()),
            29,
        )
        .run();
        assert_eq!(preserved.events_processed, control.events_processed + 1);
        assert_eq!(preserved.messages, control.messages);
        assert_eq!(preserved.stale_fraction, control.stale_fraction);
        assert_eq!(preserved.mean_held, control.mean_held);
        assert_eq!(preserved.mean_active, control.mean_active);
        assert_eq!(preserved.crash_wipes, 0);
    }

    #[test]
    fn faulted_campaign_bit_identical_across_policies_and_queue_kinds() {
        // The determinism contract must survive a full schedule: outage,
        // degrade episode and crash–restart together.
        let faults = FaultSchedule::from_events(&[
            FaultEvent::Outage {
                start: 20.0,
                duration: 10.0,
            },
            FaultEvent::Degrade {
                start: 50.0,
                duration: 15.0,
                loss: 0.3,
            },
            FaultEvent::CrashRestart {
                at: 75.0,
                state_policy: signet::CrashStatePolicy::Wipe,
            },
        ])
        .unwrap();
        let cfg = NodeConfig::new(ProtocolSpec::SS_RTR, churn_params(), 96)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0)
            .with_fault_schedule(faults);
        let (serial, _, _, serial_trace) = NodeCampaign::new(cfg, 6, 99).run_traced();
        assert!(serial.drops_injected > 0 && serial.crash_wipes > 0);
        for n in [2, 4] {
            let (threaded, _, _, threaded_trace) = NodeCampaign::new(cfg, 6, 99)
                .execution(ExecutionPolicy::threads(n))
                .run_traced();
            assert_eq!(serial, threaded, "Threads({n}) diverged from Serial");
            assert_eq!(
                serial_trace, threaded_trace,
                "trace diverged at Threads({n})"
            );
        }
        let (calendar, _, _, calendar_trace) =
            NodeCampaign::new(cfg.with_queue_kind(QueueKind::Calendar), 6, 99)
                .execution(ExecutionPolicy::threads(4))
                .run_traced();
        assert_eq!(serial, calendar, "calendar queue diverged");
        assert_eq!(serial_trace, calendar_trace, "calendar trace diverged");
    }

    #[test]
    fn traced_run_matches_plain_run_bit_for_bit() {
        // The pooled trace is consistent with the scalar totals.
        let cfg = quick_config(ProtocolSpec::SS_ER, 64);
        let (traced, _, _, trace) = NodeCampaign::new(cfg, 4, 42).run_traced();
        assert_eq!(
            trace.false_removals.iter().map(|&c| c as u64).sum::<u64>(),
            traced.false_removals
        );
        assert_eq!(
            trace.messages.iter().map(|&c| c as u64).sum::<u64>(),
            traced.messages.signaling_total()
        );
    }

    #[test]
    fn gilbert_elliott_override_keeps_the_mean_but_changes_the_stream() {
        let mut params = churn_params();
        params.loss = 0.05;
        let base = NodeConfig::new(ProtocolSpec::SS, params, 256)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0);
        let bursty = base.with_loss_model(LossModel::bursty(0.05, 0.5, 8.0));
        let a = NodeSim::new(base, 31).run();
        let b = NodeSim::new(bursty, 31).run();
        assert!(a.drops_random > 0 && b.drops_random > 0);
        assert_ne!(a, b, "the override must change the event sequence");
        // Same mean loss: the drop totals stay within a factor of two.
        let (lo, hi) = (
            a.drops_random.min(b.drops_random) as f64,
            a.drops_random.max(b.drops_random) as f64,
        );
        assert!(
            hi / lo < 2.0,
            "bernoulli {} vs bursty {}",
            a.drops_random,
            b.drops_random
        );
        assert_eq!(a.drops_injected, 0);
        assert_eq!(b.drops_injected, 0);
    }

    // ------------------------------------------------------------------
    // Retry policies and receiver capacity.
    // ------------------------------------------------------------------

    use crate::retry::RetryPolicy;
    use signet::CapacityModel;

    /// A restart storm: the node goes dark (blackout), then the process
    /// comes back with its state wiped — the whole population must repair
    /// through whatever retry discipline is configured.
    fn restart_storm_faults() -> FaultSchedule {
        FaultSchedule::from_events(&[
            FaultEvent::Outage {
                start: 30.0,
                duration: 15.0,
            },
            FaultEvent::CrashRestart {
                at: 45.0,
                state_policy: signet::CrashStatePolicy::Wipe,
            },
        ])
        .unwrap()
    }

    #[test]
    fn explicit_defaults_are_bit_identical_to_the_pre_policy_config() {
        // `Fixed` + `unlimited` consume no randomness and perturb no event
        // times, so spelling them out matches the plain config bit for bit
        // (the golden pin above certifies the absolute values).
        let cfg = quick_config(ProtocolSpec::SS_RTR, 128);
        let explicit = cfg
            .with_retry_policy(RetryPolicy::Fixed)
            .with_capacity(CapacityModel::unlimited());
        assert_eq!(
            NodeSim::new(cfg, 77).run(),
            NodeSim::new(explicit, 77).run()
        );
    }

    #[test]
    fn tight_capacity_attributes_overload_and_stays_rng_neutral() {
        // Pure soft state sends on a fixed schedule with no receiver
        // feedback, so a capacity limit changes deliveries — and therefore
        // false removals — without changing a single send or RNG draw.
        let cfg = NodeConfig::new(ProtocolSpec::SS, quiet_params(), 256)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0);
        let tight = cfg.with_capacity(CapacityModel::limited(10.0, 8).unwrap());
        let unlimited = NodeSim::new(cfg, 41).run();
        let limited = NodeSim::new(tight, 41).run();
        assert_eq!(unlimited.drops_overload, 0);
        assert!(limited.drops_overload > 0, "{limited:?}");
        // Same sender-side behavior: identical message counts and envelope.
        assert_eq!(limited.messages, unlimited.messages);
        assert_eq!(
            limited.peak_bandwidth_bytes_per_sec,
            unlimited.peak_bandwidth_bytes_per_sec
        );
        assert_eq!(limited.drops_random, 0);
        // The starved receiver times sessions out while senders live on.
        assert!(limited.false_removals > unlimited.false_removals);
    }

    #[test]
    fn retry_and_capacity_keep_the_determinism_contract() {
        // Satellite of the fault-layer contract: backoff and jittered
        // retries under a capacity limit and a restart storm stay
        // bit-identical across execution policies and both queue kinds.
        for retry in [RetryPolicy::backoff(), RetryPolicy::jittered()] {
            let cfg = NodeConfig::new(ProtocolSpec::SS_RTR, churn_params(), 96)
                .with_horizon(90.0)
                .with_mean_vacancy(15.0)
                .with_fault_schedule(restart_storm_faults())
                .with_retry_policy(retry)
                .with_capacity(CapacityModel::limited(60.0, 24).unwrap());
            let serial = NodeCampaign::new(cfg, 4, 99).run();
            for n in [2, 4] {
                let threaded = NodeCampaign::new(cfg, 4, 99)
                    .execution(ExecutionPolicy::threads(n))
                    .run();
                assert_eq!(serial, threaded, "{}: Threads({n}) diverged", retry.label());
            }
            let calendar = NodeCampaign::new(cfg.with_queue_kind(QueueKind::Calendar), 4, 99)
                .execution(ExecutionPolicy::threads(4))
                .run();
            assert_eq!(serial, calendar, "{}: calendar diverged", retry.label());
        }
    }

    #[test]
    fn backoff_bounds_the_restart_storm_retry_cost() {
        // During the blackout every reliable-trigger cycle retransmits
        // unacknowledged; fixed-interval retries burn one message per R
        // for the whole outage, capped backoff a small constant per
        // session.  The storm experiment tabulates this as retry cost.
        let run = |retry: RetryPolicy| {
            let cfg = NodeConfig::new(ProtocolSpec::SS_RTR, quiet_params(), 256)
                .with_horizon(90.0)
                .with_mean_vacancy(15.0)
                .with_fault_schedule(restart_storm_faults())
                .with_retry_policy(retry);
            NodeSim::new(cfg, 53).run()
        };
        let fixed = run(RetryPolicy::Fixed);
        let backoff = run(RetryPolicy::backoff());
        let jittered = run(RetryPolicy::jittered());
        assert!(
            backoff.messages.signaling_total() * 2 < fixed.messages.signaling_total(),
            "backoff {} vs fixed {}",
            backoff.messages.signaling_total(),
            fixed.messages.signaling_total()
        );
        assert!(
            jittered.messages.signaling_total() * 2 < fixed.messages.signaling_total(),
            "jittered {} vs fixed {}",
            jittered.messages.signaling_total(),
            fixed.messages.signaling_total()
        );
        // Lower retry pressure also means a lower storm peak.
        assert!(
            backoff.peak_bandwidth_bytes_per_sec < fixed.peak_bandwidth_bytes_per_sec,
            "backoff peak {} vs fixed peak {}",
            backoff.peak_bandwidth_bytes_per_sec,
            fixed.peak_bandwidth_bytes_per_sec
        );
    }

    #[test]
    fn crash_preserve_leaves_the_capacity_backlog_alone() {
        // `Wipe` resets the capacity server with the process (its queue is
        // process memory); the `Preserve` control must leave the backlog —
        // and therefore the whole overload stream — untouched.
        let faults = FaultSchedule::from_events(&[FaultEvent::CrashRestart {
            at: 45.0,
            state_policy: signet::CrashStatePolicy::Preserve,
        }])
        .unwrap();
        let cfg = NodeConfig::new(ProtocolSpec::SS, quiet_params(), 256)
            .with_horizon(90.0)
            .with_mean_vacancy(15.0)
            .with_capacity(CapacityModel::limited(10.0, 8).unwrap());
        let control = NodeSim::new(cfg, 29).run();
        let preserved = NodeSim::new(cfg.with_fault_schedule(faults), 29).run();
        // Preserve leaves the backlog alone: identical overload stream.
        assert_eq!(preserved.drops_overload, control.drops_overload);
        assert_eq!(preserved.messages, control.messages);
    }

    // ------------------------------------------------------------------
    // Blackout fast-forward: the walk against the event path.
    // ------------------------------------------------------------------

    use proptest::prelude::*;
    use siganalytic::{RefreshMode, Removal};

    impl NodeSim {
        /// The same node with the blackout fast-forward switched off, so
        /// every retransmission firing is a queue event: the oracle the
        /// walk is checked against.  Test builds only; users get no knob.
        fn without_fast_forward(mut self) -> Self {
            self.fast_forward = None;
            self
        }
    }

    /// Specs with every retransmission cycle the walk can meet: reliable
    /// refresh, reliable triggers, reliable removal, and mixes of them.
    fn retransmitting_specs() -> [ProtocolSpec; 6] {
        let ss_rr = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        [
            ss_rr,
            ss_rr
                .with_label("SS+RR+RR")
                .with_removal(Removal::Reliable)
                .with_notify_on_removal(true),
            ProtocolSpec::SS
                .with_label("SS+RER")
                .with_removal(Removal::Reliable),
            ProtocolSpec::SS_RT,
            ProtocolSpec::SS_RTR,
            ProtocolSpec::HS,
        ]
    }

    /// Up to three outages laid out one after another from `layout`:
    /// `(shape, gap, duration)` with shape 0 a free-standing outage, 1 an
    /// outage back to back with the previous episode, 2 an outage right
    /// behind a degrade episode, 3 one right before a degrade episode and
    /// 4 one that starts before `horizon` and ends after it.  A
    /// crash-restart may be added.
    fn outage_schedule(
        layout: &[(u8, f64, f64)],
        crash_at: Option<f64>,
        horizon: f64,
    ) -> FaultSchedule {
        let mut events = Vec::new();
        let mut cursor: f64 = 1.0;
        for &(shape, gap, duration) in layout {
            let start = match shape {
                1 => cursor,
                4 => cursor.max(horizon - gap),
                _ => cursor + gap,
            };
            let duration = if shape == 4 {
                (horizon - start).max(0.0) + duration
            } else {
                duration
            };
            if shape == 2 {
                events.push(FaultEvent::Degrade {
                    start,
                    duration: 1.0,
                    loss: 0.5,
                });
                events.push(FaultEvent::Outage {
                    start: start + 1.0,
                    duration,
                });
                cursor = start + 1.0 + duration;
            } else {
                events.push(FaultEvent::Outage { start, duration });
                cursor = start + duration;
                if shape == 3 {
                    events.push(FaultEvent::Degrade {
                        start: cursor,
                        duration: 1.0,
                        loss: 0.5,
                    });
                    cursor += 1.0;
                }
            }
        }
        if let Some(at) = crash_at {
            events.push(FaultEvent::CrashRestart {
                at,
                state_policy: signet::CrashStatePolicy::Wipe,
            });
        }
        FaultSchedule::from_events(&events).unwrap()
    }

    /// Asserts that the walk changes nothing: `run` with and without it,
    /// and `step_events` in random batches of 1–16 events up to `run`'s
    /// event count, all end in the same metrics, trace and pending events.
    fn assert_fast_forward_is_exact(cfg: NodeConfig, seed: u64, batches: u64) {
        let mut walked = NodeSim::new(cfg, seed);
        let mut stepped = NodeSim::new(cfg, seed);
        let mut oracle = NodeSim::new(cfg, seed).without_fast_forward();
        let m = walked.run();
        let expected = oracle.run();
        assert_eq!(format!("{m:?}"), format!("{expected:?}"), "{cfg:?}");
        assert_eq!(walked.recovery_trace(), oracle.recovery_trace(), "{cfg:?}");
        assert_eq!(walked.events_processed(), oracle.events_processed());
        assert_eq!(walked.pending_events(), oracle.pending_events());
        assert_eq!(oracle.schedule_counts().fast_forwarded, 0);

        let mut rng = SimRng::new(batches);
        while stepped.events_processed() < m.events_processed {
            let left = m.events_processed - stepped.events_processed();
            let batch = (1 + rng.index(16) as u64).min(left);
            assert_eq!(stepped.step_events(batch), batch, "{cfg:?}");
        }
        assert_eq!(
            format!("{:?}", stepped.metrics()),
            format!("{m:?}"),
            "{cfg:?}"
        );
        assert_eq!(stepped.recovery_trace(), walked.recovery_trace(), "{cfg:?}");
        assert_eq!(stepped.pending_events(), walked.pending_events(), "{cfg:?}");
        // `step_events` stays on the event path.
        assert_eq!(stepped.schedule_counts().fast_forwarded, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Small faulted nodes under every retransmitting spec, both
        // deterministic retry policies, finite and unlimited capacity,
        // both refresh phasings (aligned refreshes start retransmission
        // cycles in lockstep, the tie case) and both queue kinds.
        #[test]
        fn prop_fast_forward_matches_the_event_path(
            choice in (0usize..6, 0usize..2, any::<bool>(), any::<bool>(), any::<bool>()),
            sessions in 16usize..513,
            layout in proptest::collection::vec((0u8..5, 0.0f64..6.0, 0.05f64..6.0), 1..4),
            crash in (any::<bool>(), 0.0f64..25.0),
            seeds in (0u64..1_000, any::<u64>()),
        ) {
            let (spec, retry, limited, aligned, calendar) = choice;
            let mut params = SingleHopParams::kazaa_defaults().with_mean_lifetime(20.0);
            params.loss = 0.05;
            let horizon = 25.0;
            let faults = outage_schedule(&layout, crash.0.then_some(crash.1), horizon);
            let mut cfg = NodeConfig::new(retransmitting_specs()[spec], params, sessions)
                .with_horizon(horizon)
                .with_mean_vacancy(5.0)
                .with_fault_schedule(faults)
                .with_retry_policy([RetryPolicy::Fixed, RetryPolicy::backoff()][retry]);
            if limited {
                let rate = 0.5 * sessions as f64;
                cfg = cfg.with_capacity(CapacityModel::limited(rate, 32).unwrap());
            }
            if aligned {
                cfg = cfg.with_refresh_phase(RefreshPhase::Aligned);
            }
            if calendar {
                cfg = cfg.with_queue_kind(QueueKind::Calendar);
            }
            assert_fast_forward_is_exact(cfg, seeds.0, seeds.1);
        }
    }

    #[test]
    fn the_walk_needs_a_blackout_a_retransmitting_spec_and_a_fixed_sequence() {
        let outage = FaultSchedule::outage(5.0, 5.0).unwrap();
        let cfg = NodeConfig::new(ProtocolSpec::SS_RTR, churn_params(), 64)
            .with_horizon(20.0)
            .with_fault_schedule(outage);
        let walks = |cfg: NodeConfig| {
            let mut sim = NodeSim::new(cfg, 3);
            sim.run();
            (
                sim.fast_forward.is_some(),
                sim.schedule_counts().fast_forwarded,
            )
        };
        let (open, credited) = walks(cfg);
        assert!(open && credited > 0, "{credited}");
        assert!(walks(cfg.with_retry_policy(RetryPolicy::backoff())).1 > 0);
        // Jittered re-arms draw from the node-wide RNG.
        assert_eq!(
            walks(cfg.with_retry_policy(RetryPolicy::jittered())),
            (false, 0)
        );
        // Nothing retransmits under SS; a degrade episode is no blackout.
        let ss = NodeConfig {
            protocol: ProtocolSpec::SS,
            ..cfg
        };
        assert_eq!(walks(ss), (false, 0));
        let degrade = FaultSchedule::from_events(&[FaultEvent::Degrade {
            start: 5.0,
            duration: 5.0,
            loss: 1.0,
        }])
        .unwrap();
        assert_eq!(walks(cfg.with_fault_schedule(degrade)), (false, 0));
        assert_eq!(
            walks(cfg.with_fault_schedule(FaultSchedule::none())),
            (false, 0)
        );
    }
}
