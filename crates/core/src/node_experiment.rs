//! The node experiments: the paper's hard/soft comparison carried from one
//! session to a whole population.
//!
//! Every paper experiment measures *one* session (or one multi-hop path).
//! The rows of [`NODE_EXPERIMENTS`] run [`NodeSim`](sigproto::NodeSim) —
//! one event loop multiplexing thousands of concurrent sessions with churn
//! — per protocol and tabulate what the per-session metrics imply at scale:
//!
//! * `node-scale` — mean load: signaling message rate and bandwidth, refresh
//!   rate, the population stale fraction (the inconsistency ratio weighted by
//!   session-time), the false-removal rate, and the node's own memory cost in
//!   bytes per session;
//! * `node-storm` — the refresh-storm envelope.  Refresh timers are periodic,
//!   so if a population ever synchronizes (a reboot, a failover re-install, a
//!   flash crowd) every session refreshes in the same instant, every period.
//!   The table runs each protocol with the default per-session stagger and
//!   with every session installed at t = 0, and reports mean bytes/s next to
//!   the peak 1-second bin of each.  Hard state has no periodic refresh stream
//!   to align: its peak barely moves while pure soft state's multiplies by
//!   roughly `refresh_timer / bin`;
//! * `node-outage` — the timeout avalanche.  A blackout longer than the state
//!   timeout silences every soft-state refresh stream at once, so the
//!   receiver false-removes its whole population in a burst and then
//!   re-installs it.  Hard state never false-removes on silence, but every
//!   removal lost in the blackout leaves an orphan nothing repairs.  The table
//!   reports the [`RecoveryMetrics`] of the transient;
//! * `node-restart-storm` — the restart storm: waves of a short blackout
//!   followed by a crash that wipes the node's state, under a receiver
//!   capacity limit, per retransmission [`RetryKind`] (see [`restart_storm`]).
//!
//! Rows are static data, so registering one builds nothing.  A row's body
//! holds only what is unique to its table; the population budgets, the
//! Kazaa-based parameters, the node configuration (horizon, `--retry`,
//! `--loss`) and the campaign run (execution policy, `--timing` line) are
//! shared.  Every table is bit-identical across execution policies and queue
//! kinds; wall-clock phase breakdowns go to stderr under
//! [`ExperimentOptions::timing`], never into the result.

use crate::experiment::{ExperimentOptions, ExperimentOutput, RetryKind};
use crate::registry::{coherent_spectrum, Experiment};
use siganalytic::{ProtocolSpec, SingleHopParams};
use sigproto::{
    NodeCampaign, NodeCampaignResult, NodeConfig, RecoveryMetrics, RecoveryTrace, RefreshPhase,
};
use std::fmt::Write as _;

/// One node experiment as static catalog data (a row of
/// [`NODE_EXPERIMENTS`]).
#[derive(Debug, Clone, Copy)]
pub struct NodeExperiment {
    name: &'static str,
    description: &'static str,
    tags: &'static [&'static str],
    /// The protocol set run when no `--protocols` override is given.
    defaults: fn() -> &'static [ProtocolSpec],
    /// Appends the table to its header line's `name: ` prefix.
    body: fn(&NodeRun, &[ProtocolSpec], &mut String),
}

const CHURN: &[&str] = &["extra", "simulation", "node"];
const FAULT: &[&str] = &["extra", "simulation", "node", "fault"];

/// The node experiments, in registration order.  The two churn tables run
/// the paper's five presets by default; the two fault tables chart every
/// coherent mechanism composition ([`coherent_spectrum`]).
pub static NODE_EXPERIMENTS: [NodeExperiment; 4] = [
    NodeExperiment {
        name: "node-scale",
        description: "population-scale node: aggregate signaling rate, stale fraction and \
                      memory per session for N concurrent sessions under churn",
        tags: CHURN,
        defaults: paper_presets,
        body: scale_table,
    },
    NodeExperiment {
        name: "node-storm",
        description: "refresh-storm envelope: peak vs mean node bandwidth when session \
                      refresh timers phase-align, against the default stagger",
        tags: CHURN,
        defaults: paper_presets,
        body: storm_table,
    },
    NodeExperiment {
        name: "node-outage",
        description: "timeout-avalanche recovery: false-removal spike, stale-fraction \
                      reconvergence time and recovery message cost after a scheduled \
                      link outage, per mechanism composition",
        tags: FAULT,
        defaults: coherent_spectrum,
        body: outage::table,
    },
    NodeExperiment {
        name: "node-restart-storm",
        description: "mass crash-restart under a receiver capacity limit: re-install \
                      convergence, peak signaling rate, overload-drop fraction and retry \
                      cost per mechanism composition x retry policy (fixed / backoff / \
                      jittered)",
        tags: FAULT,
        defaults: coherent_spectrum,
        body: restart_storm::table,
    },
];

impl Experiment for NodeExperiment {
    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }

    fn tags(&self) -> Vec<String> {
        self.tags.iter().map(|t| t.to_string()).collect()
    }

    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput {
        let protocols = options.protocol_set((self.defaults)());
        let mut text = format!("{}: ", self.name);
        let run = NodeRun {
            name: self.name,
            options,
        };
        (self.body)(&run, &protocols, &mut text);
        ExperimentOutput::Text(text)
    }
}

/// What a row's campaigns run under: its name (for `--timing` lines) and
/// the options.
struct NodeRun<'a> {
    name: &'static str,
    options: &'a ExperimentOptions,
}

impl NodeRun<'_> {
    /// Runs `config` as a campaign of `replications` under the options'
    /// seed and execution policy, returning the result, the largest observed
    /// bytes/session and the pooled recovery trace.  Under `--timing` it
    /// prints the schedule/fire/metrics split to stderr, labeled `row`.
    fn campaign(
        &self,
        config: NodeConfig,
        replications: usize,
        row: &str,
    ) -> (NodeCampaignResult, f64, RecoveryTrace) {
        let (result, phases, bytes_per_session, trace) =
            NodeCampaign::new(config, replications, self.options.seed)
                .execution(self.options.execution)
                .run_traced();
        if self.options.timing {
            eprintln!(
                "timing: {}[{row:<12}] schedule {:>7.3} s   fire {:>7.3} s   metrics {:>7.3} s   \
                 ({} events)",
                self.name, phases.schedule, phases.fire, phases.metrics, result.events_processed,
            );
        }
        (result, bytes_per_session, trace)
    }
}

/// Mean session lifetime (seconds) of the scale, storm and outage nodes:
/// shorter than the Kazaa default so a few-minute horizon sees real churn;
/// vacancy keeps the default quarter lifetime (steady-state alive fraction
/// 0.8).
const MEAN_LIFETIME: f64 = 300.0;

/// Channel loss of the two fault tables: raised above the Kazaa default so
/// the *steady-state* false-removal rate is nonzero at the full population
/// and the spike amplification is a finite ratio rather than a
/// divide-by-zero.
pub const LOSS: f64 = 0.05;

/// Stale-fraction reconvergence tolerance (absolute) of the two fault
/// tables.
pub const EPSILON: f64 = 0.02;

fn paper_presets() -> &'static [ProtocolSpec] {
    &ProtocolSpec::PAPER
}

/// Replications of the two churn tables: a fifth of the sweep-level
/// replication budget, clamped to `[1, 8]` (each replication is a whole
/// node, not a single session).  The fault tables run one replication.
fn replications(options: &ExperimentOptions) -> usize {
    (options.sim_replications / 5).clamp(1, 8)
}

/// Sessions of the fault tables: the `full` population regime at the full
/// replication budget, a CI-sized `quick` node under `--quick`.
fn sessions(options: &ExperimentOptions, quick: usize, full: usize) -> usize {
    if options.sim_replications >= 20 {
        full
    } else {
        quick
    }
}

/// Per-session parameters: Kazaa defaults with a churn override.
fn params(mean_lifetime: f64) -> SingleHopParams {
    SingleHopParams::kazaa_defaults().with_mean_lifetime(mean_lifetime)
}

/// The fault tables' parameters: [`params`] with the [`LOSS`] override and
/// the external false-signal process disabled, so the false-removal columns
/// isolate the fault transient — with it on, hard state's detector noise
/// would blur the "HS never false-removes on silence" contrast.
fn fault_params(mean_lifetime: f64) -> SingleHopParams {
    SingleHopParams {
        loss: LOSS,
        false_signal_rate: 0.0,
        ..params(mean_lifetime)
    }
}

/// The node every table starts from: `sessions` sessions of `protocol` for
/// `horizon` seconds, retransmitting under the options' `--retry` policy and
/// drawing losses from their `--loss` process.  The event queue is the heap
/// core (every aggregate is queue-kind independent).
fn config(
    protocol: ProtocolSpec,
    params: SingleHopParams,
    sessions: usize,
    horizon: f64,
    options: &ExperimentOptions,
) -> NodeConfig {
    let config = NodeConfig::new(protocol, params, sessions)
        .with_horizon(horizon)
        .with_retry_policy(options.retry_kind.policy());
    match options.loss_kind.model_for(params.loss) {
        Some(model) => config.with_loss_model(model),
        None => config,
    }
}

/// Sessions on the `node-scale` node: enough that the per-session fixed
/// overheads have amortized (the bytes/session number is representative of
/// the 10⁶ regime measured by the `node_throughput` bench), few enough that
/// `repro` stays interactive.
const SCALE_SESSIONS: usize = 4096;

/// Sessions on the `node-storm` node: fewer than `node-scale`'s, since the
/// storm ratio is already unmistakable at this size and every protocol runs
/// two campaigns.
const STORM_SESSIONS: usize = 2048;

/// Virtual-time horizon of the two churn tables (seconds): several refresh
/// periods, so an aligned population storms repeatedly, not just at t = 0.
const CHURN_HORIZON: f64 = 120.0;

/// The `node-scale` table.
fn scale_table(run: &NodeRun, protocols: &[ProtocolSpec], text: &mut String) {
    let replications = replications(run.options);
    let params = params(MEAN_LIFETIME);
    let _ = writeln!(
        text,
        "N = {SCALE_SESSIONS} sessions, horizon = {CHURN_HORIZON} s, \
         mean lifetime = {MEAN_LIFETIME} s, {replications} replication(s)"
    );
    let _ = writeln!(
        text,
        "{:<12} {:>10} {:>10} {:>12} {:>9} {:>12} {:>9} {:>10}",
        "protocol", "msg/s", "refresh/s", "bw B/s", "stale %", "false-rm/s", "active", "bytes/sess"
    );
    for &protocol in protocols {
        let config = config(protocol, params, SCALE_SESSIONS, CHURN_HORIZON, run.options);
        let (result, bytes_per_session, _) = run.campaign(config, replications, protocol.label());
        let _ = writeln!(
            text,
            "{:<12} {:>10.2} {:>10.2} {:>12.1} {:>9.3} {:>12.6} {:>9.1} {:>10.1}",
            protocol.label(),
            result.message_rate.mean,
            result.refresh_rate.mean,
            result.bandwidth_bytes_per_sec.mean,
            100.0 * result.stale_fraction.mean,
            result.false_removal_rate.mean,
            result.mean_active.mean,
            bytes_per_session,
        );
    }
}

/// The `node-storm` table: each protocol staggered and phase-aligned.
fn storm_table(run: &NodeRun, protocols: &[ProtocolSpec], text: &mut String) {
    let replications = replications(run.options);
    let params = params(MEAN_LIFETIME);
    let _ = writeln!(
        text,
        "N = {STORM_SESSIONS} sessions, horizon = {CHURN_HORIZON} s, \
         mean lifetime = {MEAN_LIFETIME} s, {replications} replication(s), \
         1 s envelope bins"
    );
    let _ = writeln!(
        text,
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "protocol", "mean B/s", "stag peak", "aligned peak", "storm ratio", "peak/mean"
    );
    for &protocol in protocols {
        let [staggered, aligned] = [RefreshPhase::Staggered, RefreshPhase::Aligned].map(|phase| {
            let config = config(protocol, params, STORM_SESSIONS, CHURN_HORIZON, run.options)
                .with_refresh_phase(phase);
            let row = format!("{} {phase:?}", protocol.label());
            run.campaign(config, replications, &row).0
        });
        let mean = staggered.bandwidth_bytes_per_sec.mean;
        let staggered_peak = staggered.peak_bandwidth_bytes_per_sec.mean;
        let aligned_peak = aligned.peak_bandwidth_bytes_per_sec.mean;
        let _ = writeln!(
            text,
            "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>11.2}x {:>9.2}x",
            protocol.label(),
            mean,
            staggered_peak,
            aligned_peak,
            aligned_peak / staggered_peak,
            aligned_peak / mean,
        );
    }
}

/// The `node-outage` table and the latency-domination cross-check built on
/// its measurement.
pub mod outage {
    use super::*;
    use sigfsm::{repair_latency_bound, BoundParams};
    use sigproto::FaultSchedule;

    /// When the blackout starts (seconds of virtual time): late enough that
    /// the population and its per-second baseline rates are in steady state.
    pub const OUTAGE_START: f64 = 60.0;

    /// Blackout duration (seconds): twice the Kazaa state timeout, so every
    /// soft-state timer expires inside the window.
    pub const OUTAGE_SECS: f64 = 30.0;

    /// When the blackout ends: the fault end recovery is measured from.
    const OUTAGE_END: f64 = OUTAGE_START + OUTAGE_SECS;

    /// Virtual-time horizon (seconds): a full minute of steady state, the
    /// outage, and ninety seconds of recovery.
    pub const HORIZON: f64 = 180.0;

    /// Sessions at the full (default) replication budget — the headline
    /// population regime.
    pub const SESSIONS_FULL: usize = 100_000;

    /// Sessions under `--quick` (small budgets): keeps CI interactive.
    pub const SESSIONS_QUICK: usize = 4096;

    /// The node for one protocol under the canonical outage.
    pub(crate) fn config(protocol: ProtocolSpec, options: &ExperimentOptions) -> NodeConfig {
        let faults = FaultSchedule::outage(OUTAGE_START, OUTAGE_SECS)
            // sigtidy: allow(no-unwrap) — constant window, validity pinned by the tests
            .expect("the canonical outage window is valid");
        let sessions = sessions(options, SESSIONS_QUICK, SESSIONS_FULL);
        let params = fault_params(MEAN_LIFETIME);
        super::config(protocol, params, sessions, HORIZON, options).with_fault_schedule(faults)
    }

    /// Runs the canonical outage for one protocol and derives its recovery
    /// metrics — the shared measurement of the table and the
    /// latency-domination cross-check.
    pub(super) fn measure(
        run: &NodeRun,
        protocol: ProtocolSpec,
    ) -> (NodeCampaignResult, RecoveryMetrics) {
        let config = config(protocol, run.options);
        let (result, _, trace) = run.campaign(config, 1, protocol.label());
        let metrics = RecoveryMetrics::derive(&trace, OUTAGE_START, OUTAGE_END, EPSILON);
        (result, metrics)
    }

    pub(super) fn table(run: &NodeRun, protocols: &[ProtocolSpec], text: &mut String) {
        let sessions = sessions(run.options, SESSIONS_QUICK, SESSIONS_FULL);
        let _ = writeln!(
            text,
            "N = {sessions} sessions, horizon = {HORIZON} s, loss = {LOSS}, \
             blackout [{OUTAGE_START}, {OUTAGE_END}) s, epsilon = {EPSILON}"
        );
        let _ = writeln!(
            text,
            "{:<12} {:>12} {:>12} {:>9} {:>12} {:>13} {:>12}",
            "protocol",
            "base fr/s",
            "peak fr/s",
            "amplif",
            "reconverge s",
            "recovery msg",
            "drops inj"
        );
        for &protocol in protocols {
            let (result, m) = measure(run, protocol);
            let _ = writeln!(
                text,
                "{:<12} {:>12.4} {:>12.1} {:>8.1}x {:>12.1} {:>13.0} {:>12}",
                protocol.label(),
                m.baseline_false_removal_rate,
                m.peak_false_removal_rate,
                m.spike_amplification,
                m.reconverge_secs,
                m.recovery_messages,
                result.drops_injected,
            );
        }
    }

    /// One spec's row of the latency-domination cross-check: the measured
    /// `node-outage` reconvergence time against the evaluated symbolic bound.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DominationRow {
        /// The spec's five-character mechanism code.
        pub code: String,
        /// Measured reconvergence (seconds) from [`RecoveryMetrics::derive`].
        pub measured_secs: f64,
        /// The symbolic bound, rendered.
        pub bound_expr: String,
        /// The bound evaluated at the experiment's operating point (seconds).
        pub bound_secs: f64,
    }

    impl DominationRow {
        /// Whether the bound dominates the measurement (a non-finite
        /// measurement — an unconverged trace — can never be dominated).
        ///
        /// The measurement comes from whole recovery-trace bins, so its
        /// resolution is one bin: a sub-bin bound (e.g. the jittered retry
        /// worst case of a refresh-free spec) is compared rounded up to the
        /// bin it ends in — the tightest claim the trace can corroborate.
        fn dominated(&self) -> bool {
            let bin = sigproto::node::ENVELOPE_BIN_SECS;
            let bound_at_resolution = (self.bound_secs / bin).ceil() * bin;
            self.measured_secs.is_finite() && bound_at_resolution >= self.measured_secs
        }
    }

    /// The latency-domination cross-check over the whole coherent spec
    /// space: the numeric half of the checker's latency property (see
    /// [`check_latency_domination`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DominationReport {
        /// Sessions per spec the measurements ran at.
        pub sessions: usize,
        /// One row per coherent spec, in enumeration order.
        pub rows: Vec<DominationRow>,
        /// Coherent specs the symbolic pass failed to derive a bound for
        /// (always `0` when the checker's structural latency property holds).
        pub underivable: usize,
    }

    impl DominationReport {
        /// Whether every coherent spec got a bound and every bound dominates
        /// its measurement.
        pub fn passed(&self) -> bool {
            self.underivable == 0 && self.rows.iter().all(DominationRow::dominated)
        }

        /// Renders the cross-check table `repro check-specs` prints.
        pub fn render(&self) -> String {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "latency-domination: symbolic bound vs measured node-outage reconvergence \
                 ({} specs, {} sessions, loss = {LOSS}, epsilon = {EPSILON})",
                self.rows.len(),
                self.sessions
            );
            let _ = writeln!(
                out,
                "  {:<6} {:<12} {:>10} {:>10}   bound",
                "", "spec", "measured s", "bound s"
            );
            for row in &self.rows {
                let _ = writeln!(
                    out,
                    "  {:<6} spec:{:<7} {:>10.1} {:>10.2}   {}",
                    if row.dominated() { "PASS" } else { "FAIL" },
                    row.code,
                    row.measured_secs,
                    row.bound_secs,
                    row.bound_expr,
                );
            }
            if self.underivable > 0 {
                let _ = writeln!(
                    out,
                    "  {} coherent spec(s) had no derivable bound",
                    self.underivable
                );
            }
            let _ = writeln!(
                out,
                "latency-domination: {}",
                if self.passed() {
                    "all bounds dominate".to_string()
                } else {
                    format!(
                        "{} spec(s) exceed their bound",
                        self.rows.iter().filter(|r| !r.dominated()).count() + self.underivable
                    )
                }
            );
            out
        }
    }

    /// The numeric half of the spec checker's latency property: for every
    /// coherent spec, run the canonical `node-outage` campaign, measure the
    /// stale-fraction reconvergence time, and verify the symbolic worst-case
    /// bound from [`sigfsm::repair_latency_bound`] — evaluated at the
    /// experiment's own operating point (Kazaa defaults with the [`LOSS`]
    /// override, quantile [`EPSILON`]) — dominates it.  `repro check-specs`
    /// runs this after the structural passes and fails on any violation.
    pub fn check_latency_domination(options: &ExperimentOptions) -> DominationReport {
        let (retry_factor, retry_cap) = options.retry_kind.policy().bound_terms();
        let p = BoundParams::from_single_hop(&fault_params(MEAN_LIFETIME), EPSILON)
            .with_retry_terms(retry_factor, retry_cap);
        let run = NodeRun {
            name: "node-outage",
            options,
        };
        let mut rows = Vec::new();
        let mut underivable = 0;
        for spec in sigfsm::coherent_specs() {
            // coherent_specs() pre-validates, so derivation only fails if the
            // structural latency property is itself broken; count it instead
            // of panicking so check-specs reports the failure as a gate result.
            let Ok(bound) = repair_latency_bound(spec) else {
                underivable += 1;
                continue;
            };
            let (_, metrics) = measure(&run, spec);
            rows.push(DominationRow {
                code: siganalytic::fsm::mechanism_code(&spec),
                measured_secs: metrics.reconverge_secs,
                bound_expr: bound.reconverge.render(),
                bound_secs: bound.reconverge.eval(&p),
            });
        }
        DominationReport {
            sessions: sessions(options, SESSIONS_QUICK, SESSIONS_FULL),
            rows,
            underivable,
        }
    }
}

/// The `node-restart-storm` table: mass crash–restart under a receiver
/// capacity limit, per retransmission retry policy.
///
/// Each storm wave is a short blackout immediately followed by a
/// [`CrashRestart`](sigproto::FaultEvent) that wipes the node's state: the
/// blackout silences acknowledgments so every reliable mechanism opens a
/// retransmission cycle, and the wipe then forces the whole population to
/// re-install at once.  Under the paper's fixed retransmission interval all
/// those retries stay synchronized, so each wave lands on the receiver as
/// one burst per `R` — and with a finite receiver
/// [`CapacityModel`](sigproto::CapacityModel) those bursts overflow the
/// signaling queue over and over instead of spreading out.
///
/// The table runs every selected protocol × every [`RetryKind`] (fixed /
/// capped exponential backoff / decorrelated jitter) — it sweeps the retry
/// policies itself, overriding `--retry` — and reports the re-install
/// convergence and stale-fraction reconvergence times after the last wave,
/// the peak signaling rate, the overload drops and the fraction of
/// signaling lost to overload, and the messages per session.  Backoff and
/// jitter bound the storm — lower peak, lower overload fraction — while
/// fixed-interval retries under the same capacity can sustain overload for
/// the whole blackout.
pub mod restart_storm {
    pub use super::EPSILON;
    use super::*;
    use sigproto::node::MESSAGE_BYTES;
    use sigproto::{CapacityModel, CrashStatePolicy, FaultEvent, FaultSchedule};

    /// When the first storm wave starts (seconds of virtual time): late
    /// enough that the population and its per-second baselines are in
    /// steady state.
    pub const STORM_START: f64 = 60.0;

    /// Blackout length before each wipe (seconds).  Short of the state
    /// timeout (no timeout avalanche — that is `node-outage`'s exhibit) but
    /// many retransmission intervals long, so the reliable mechanisms' retry
    /// cycles run up their full cost before the crash.
    pub const BLACKOUT_SECS: f64 = 10.0;

    /// Spacing between wave starts (seconds): enough room for the population
    /// to re-install between waves, so each wave hits a re-converged node.
    pub const WAVE_SPACING: f64 = 40.0;

    /// Number of blackout-then-wipe waves (two fault events per wave).
    pub const WAVES: usize = 3;

    /// Virtual-time horizon (seconds): a minute of steady state, three
    /// waves, and ninety seconds of recovery after the last wipe.
    pub const HORIZON: f64 = 240.0;

    /// Mean session lifetime (seconds).  Deliberately churnier than the
    /// other node experiments: every arrival during a blackout opens an
    /// unacknowledgeable trigger cycle and every departure an
    /// unacknowledgeable removal cycle, so the churn rate sets how many
    /// synchronized retransmission cycles each wave accumulates — the
    /// storm's amplitude.
    pub const MEAN_LIFETIME: f64 = 120.0;

    /// Mean vacancy between sessions in a slot (seconds); with
    /// [`MEAN_LIFETIME`] this puts the per-node churn at
    /// `N / (lifetime + vacancy)` arrivals (and departures) per second.
    pub const MEAN_VACANCY: f64 = 30.0;

    /// Receiver service rate per session (messages/sec): about twice the
    /// steady-state per-session forward signaling rate (refreshes dominate
    /// at `active/N · 1/T ≈ 0.16`), so the capacity limit is invisible in
    /// steady state and binds exactly during the synchronized post-blackout
    /// retransmission burst, whose instantaneous rate is an order of
    /// magnitude above it under fixed-interval retry.
    pub const CAPACITY_PER_SESSION: f64 = 0.35;

    /// Receiver signaling-queue limit (messages).  Small relative to the
    /// population: a synchronized retry wave overflows it immediately, a
    /// jittered one mostly drains through.
    pub const QUEUE_LIMIT: u32 = 64;

    /// Sessions at the full (default) replication budget.
    pub const SESSIONS_FULL: usize = 16_384;

    /// Sessions under `--quick` (small budgets): keeps CI interactive — the
    /// table is 3 retry policies × every selected spec.
    pub const SESSIONS_QUICK: usize = 1024;

    /// The storm's fault schedule, capacity limit and node configuration,
    /// for callers that drive its node runs directly.
    pub struct NodeRestartStormExperiment;

    impl NodeRestartStormExperiment {
        /// The storm schedule: [`WAVES`] staggered blackout-then-wipe pairs.
        pub fn faults() -> FaultSchedule {
            let mut events = Vec::with_capacity(2 * WAVES);
            for wave in 0..WAVES {
                let start = STORM_START + wave as f64 * WAVE_SPACING;
                events.push(FaultEvent::Outage {
                    start,
                    duration: BLACKOUT_SECS,
                });
                events.push(FaultEvent::CrashRestart {
                    at: start + BLACKOUT_SECS,
                    state_policy: CrashStatePolicy::Wipe,
                });
            }
            FaultSchedule::from_events(&events)
                // sigtidy: allow(no-unwrap) — constant schedule, validity pinned by the tests
                .expect("the canonical storm schedule is valid")
        }

        /// When the last wipe lands — the fault end the recovery metrics
        /// measure reconvergence from.
        pub fn last_wipe() -> f64 {
            STORM_START + (WAVES - 1) as f64 * WAVE_SPACING + BLACKOUT_SECS
        }

        /// The receiver capacity for a node of `sessions` sessions.
        pub fn capacity(sessions: usize) -> CapacityModel {
            CapacityModel::limited(sessions as f64 * CAPACITY_PER_SESSION, QUEUE_LIMIT)
                // sigtidy: allow(no-unwrap) — constant per-session rate and limit, pinned by tests
                .expect("the canonical capacity limit is valid")
        }

        /// The node configuration for one protocol and one retry policy
        /// under the canonical storm and capacity limit.
        pub fn config(
            protocol: ProtocolSpec,
            retry: RetryKind,
            options: &ExperimentOptions,
        ) -> NodeConfig {
            let sessions = sessions(options, SESSIONS_QUICK, SESSIONS_FULL);
            let params = fault_params(MEAN_LIFETIME);
            super::config(protocol, params, sessions, HORIZON, options)
                .with_retry_policy(retry.policy())
                .with_mean_vacancy(MEAN_VACANCY)
                .with_fault_schedule(Self::faults())
                .with_capacity(Self::capacity(sessions))
        }

        /// Re-install convergence time: how long after the last wipe the
        /// live install *coverage* — receiver-held entries for still-alive
        /// senders, `(held − stale) / active` — takes to return within
        /// [`EPSILON`] of its pre-storm baseline, in seconds.
        ///
        /// The stale-fraction reconvergence of [`RecoveryMetrics`] measures
        /// the outage transient (orphaned state); a wipe instead *deletes*
        /// state for senders that are still alive, so the restart transient
        /// shows up as depressed coverage.  Soft state heals it within a few
        /// refresh intervals; hard state has no periodic stream and stays
        /// unconverged ([`f64::INFINITY`]) until churn replaces the wiped
        /// sessions.
        pub fn reinstall_secs(trace: &RecoveryTrace) -> f64 {
            let w = trace.bin_secs;
            let n = trace.bins();
            let coverage = |i: usize| {
                if trace.active[i] > 0.0 {
                    (trace.held[i] - trace.stale[i]) / trace.active[i]
                } else {
                    1.0
                }
            };
            let pre = ((STORM_START / w).floor() as usize).min(n);
            if pre == 0 {
                return f64::INFINITY;
            }
            let baseline = (0..pre).map(coverage).sum::<f64>() / pre as f64;
            let resume = ((Self::last_wipe() / w).ceil() as usize).min(n);
            let mut last_violation = None;
            for i in resume..n {
                if (coverage(i) - baseline).abs() > EPSILON {
                    last_violation = Some(i);
                }
            }
            match last_violation {
                None => 0.0,
                Some(i) if i + 1 == n => f64::INFINITY,
                Some(i) => ((i + 1) as f64 * w - Self::last_wipe()).max(0.0),
            }
        }
    }

    /// The fraction of signaling messages the receiver's capacity queue
    /// dropped to overload (zero when nothing was sent, as nothing could
    /// be dropped).
    pub(super) fn overload_fraction(result: &NodeCampaignResult) -> f64 {
        result.drops_overload as f64 / result.messages.signaling_total().max(1) as f64
    }

    /// Runs the canonical storm for one protocol × retry policy: the
    /// campaign result, the recovery metrics of the transient and the
    /// re-install convergence time.
    pub(super) fn measure(
        run: &NodeRun,
        protocol: ProtocolSpec,
        retry: RetryKind,
    ) -> (NodeCampaignResult, RecoveryMetrics, f64) {
        let config = NodeRestartStormExperiment::config(protocol, retry, run.options);
        let row = format!("{} {}", protocol.label(), retry.label());
        let (result, _, trace) = run.campaign(config, 1, &row);
        let last_wipe = NodeRestartStormExperiment::last_wipe();
        let metrics = RecoveryMetrics::derive(&trace, STORM_START, last_wipe, EPSILON);
        let reinstall = NodeRestartStormExperiment::reinstall_secs(&trace);
        (result, metrics, reinstall)
    }

    pub(super) fn table(run: &NodeRun, protocols: &[ProtocolSpec], text: &mut String) {
        let sessions = sessions(run.options, SESSIONS_QUICK, SESSIONS_FULL);
        let _ = writeln!(
            text,
            "N = {sessions} sessions, horizon = {HORIZON} s, \
             loss = {LOSS}, {WAVES} waves of [{BLACKOUT_SECS} s blackout + wipe] \
             every {WAVE_SPACING} s from {STORM_START} s, capacity = \
             {CAPACITY_PER_SESSION} msg/s/session (queue {QUEUE_LIMIT}), \
             epsilon = {EPSILON}"
        );
        let _ = writeln!(
            text,
            "{:<12} {:<9} {:>11} {:>12} {:>12} {:>10} {:>9} {:>10}",
            "protocol",
            "retry",
            "reinstall s",
            "reconverge s",
            "peak msg/s",
            "ovl drops",
            "ovl frac",
            "msg/sess"
        );
        for &protocol in protocols {
            for retry in RetryKind::ALL {
                let (result, m, reinstall) = measure(run, protocol, retry);
                let _ = writeln!(
                    text,
                    "{:<12} {:<9} {:>11.1} {:>12.1} {:>12.1} {:>10} {:>9.4} {:>10.1}",
                    protocol.label(),
                    retry.label(),
                    reinstall,
                    m.reconverge_secs,
                    result.peak_bandwidth_bytes_per_sec.mean / MESSAGE_BYTES,
                    result.drops_overload,
                    overload_fraction(&result),
                    result.messages.signaling_total() as f64 / sessions as f64,
                );
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::outage::{DominationReport, DominationRow};
    use super::restart_storm::{
        NodeRestartStormExperiment as RestartStorm, SESSIONS_FULL, SESSIONS_QUICK,
    };
    use super::*;
    use crate::experiment::LossKind;
    use sigfsm::{repair_latency_bound, BoundParams};
    use simcore::{ExecutionPolicy, QueueKind};

    pub(crate) fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            sim_replications: 5,
            ..ExperimentOptions::quick()
        }
    }

    fn row(name: &str) -> &'static NodeExperiment {
        NODE_EXPERIMENTS
            .iter()
            .find(|row| row.name == name)
            .unwrap_or_else(|| panic!("no node experiment named {name}"))
    }

    fn table(name: &str, protocols: &[ProtocolSpec], options: &ExperimentOptions) -> String {
        let options = options.clone().with_protocols(protocols.to_vec());
        row(name).run(&options).to_text()
    }

    /// The whitespace-separated columns of `label`'s table line.
    fn columns<'a>(text: &'a str, label: &str) -> Vec<&'a str> {
        text.lines()
            .find(|l| l.starts_with(&format!("{label} ")))
            .unwrap_or_else(|| panic!("{label} missing:\n{text}"))
            .split_whitespace()
            .collect()
    }

    /// An `HS` override leaves only `HS` rows in `name`'s table.
    pub(crate) fn assert_respects_protocol_override(name: &str) {
        let text = table(name, &[ProtocolSpec::HS], &tiny_options());
        // Past the header and column lines, every line is an HS row.
        let rows: Vec<&str> = text.lines().skip(2).collect();
        assert!(!rows.is_empty(), "{name}: no rows:\n{text}");
        assert!(
            rows.iter().all(|l| l.starts_with("HS ")),
            "{name}: a row outside the override:\n{text}"
        );
    }

    /// `name`'s output over `protocols` is bit-identical under serial and
    /// threaded execution.
    pub(crate) fn assert_identical_across_policies(name: &str, protocols: &[ProtocolSpec]) {
        let options = tiny_options().with_protocols(protocols.to_vec());
        let serial = row(name).run(&options.clone().with_execution(ExecutionPolicy::Serial));
        let threaded = row(name).run(&options.with_execution(ExecutionPolicy::threads(4)));
        assert_eq!(serial, threaded, "{name}");
    }

    /// The config builders pin the heap core; rebuilding `heap`'s campaign
    /// on the calendar core yields the same raw results and traces.
    pub(crate) fn assert_queue_kinds_agree(heap: NodeConfig) {
        let seed = tiny_options().seed;
        let calendar = heap.with_queue_kind(QueueKind::Calendar);
        let (a, _, _, ta) = NodeCampaign::new(heap, 1, seed).run_traced();
        let (b, _, _, tb) = NodeCampaign::new(calendar, 1, seed).run_traced();
        assert_eq!(a, b, "calendar queue diverged");
        assert_eq!(ta, tb, "calendar trace diverged");
    }

    #[test]
    fn replication_budget_is_clamped() {
        let mut o = ExperimentOptions::quick();
        o.sim_replications = 0;
        assert_eq!(replications(&o), 1);
        o.sim_replications = 40;
        assert_eq!(replications(&o), 8);
        o.sim_replications = 1000;
        assert_eq!(replications(&o), 8);
    }

    #[test]
    fn session_budget_tracks_the_replication_budget() {
        use outage::{SESSIONS_FULL, SESSIONS_QUICK};
        let full = ExperimentOptions::default();
        assert_eq!(
            sessions(&full, SESSIONS_QUICK, SESSIONS_FULL),
            SESSIONS_FULL
        );
        let quick = ExperimentOptions::quick();
        assert_eq!(
            sessions(&quick, SESSIONS_QUICK, SESSIONS_FULL),
            SESSIONS_QUICK
        );
    }

    #[test]
    fn node_scale_runs_every_paper_preset_into_one_table() {
        let text = row("node-scale").run(&tiny_options()).to_text();
        for preset in ProtocolSpec::PAPER {
            assert!(text.contains(preset.label()), "{preset} missing:\n{text}");
        }
        assert!(text.contains("bytes/sess"));
    }

    #[test]
    fn soft_state_storms_and_hard_state_does_not() {
        let specs = [ProtocolSpec::SS, ProtocolSpec::HS];
        let text = table("node-storm", &specs, &tiny_options());
        let ratio = |label: &str| -> f64 {
            columns(&text, label)[4]
                .trim_end_matches('x')
                .parse()
                .expect("ratio parses")
        };
        // A phase-aligned soft-state population storms: the peak envelope
        // multiplies.  Hard state has no periodic refresh stream to align.
        assert!(
            ratio("SS") > 2.0,
            "SS ratio {} too small:\n{text}",
            ratio("SS")
        );
        assert!(
            ratio("HS") < 2.0,
            "HS ratio {} too large:\n{text}",
            ratio("HS")
        );
    }

    #[test]
    fn node_storm_honours_the_retry_option() {
        // SS+RTR retransmits triggers and refreshes, so a different retry
        // discipline changes its node's event sequence and so its table.
        let options = tiny_options();
        let fixed = table("node-storm", &[ProtocolSpec::SS_RTR], &options);
        let backoff_options = options.with_retry_kind(RetryKind::Backoff);
        let backoff = table("node-storm", &[ProtocolSpec::SS_RTR], &backoff_options);
        assert_ne!(fixed, backoff, "--retry backoff left node-storm unchanged");
    }

    #[test]
    fn soft_state_avalanches_and_hard_state_does_not() {
        let specs = [ProtocolSpec::SS, ProtocolSpec::HS];
        let text = table("node-outage", &specs, &tiny_options());
        let ss = columns(&text, "SS");
        let hs = columns(&text, "HS");
        // Columns: protocol, base fr/s, peak fr/s, amplif, reconverge,
        // recovery msg, drops inj.
        let peak_ss: f64 = ss[2].parse().unwrap();
        let peak_hs: f64 = hs[2].parse().unwrap();
        assert!(
            peak_ss > 100.0,
            "SS avalanche peak {peak_ss} too small:\n{text}"
        );
        assert_eq!(peak_hs, 0.0, "HS must not false-remove on silence:\n{text}");
        let drops_ss: u64 = ss[6].parse().unwrap();
        let drops_hs: u64 = hs[6].parse().unwrap();
        assert!(drops_ss > 1000 && drops_hs > 100, "{text}");
    }

    #[test]
    fn gilbert_elliott_option_changes_the_table_but_not_determinism() {
        let options = tiny_options();
        let bernoulli = table("node-outage", &[ProtocolSpec::SS], &options);
        let gilbert_options = options.with_loss_kind(LossKind::GilbertElliott);
        let gilbert = table("node-outage", &[ProtocolSpec::SS], &gilbert_options);
        assert_ne!(bernoulli, gilbert, "bursty loss must change the transient");
        let again = table("node-outage", &[ProtocolSpec::SS], &gilbert_options);
        assert_eq!(gilbert, again);
    }

    #[test]
    fn symbolic_bound_dominates_measured_reconvergence_for_paper_presets() {
        let options = tiny_options();
        let run = NodeRun {
            name: "node-outage",
            options: &options,
        };
        let p = BoundParams::from_single_hop(&fault_params(MEAN_LIFETIME), EPSILON);
        // The full 33-spec sweep is `repro check-specs` territory (release
        // build, CI gate); the debug test pins the three mechanism families
        // with distinct bound shapes: pure soft state (refresh chain), pure
        // hard state (notify + retransmit), and the all-mechanisms spec
        // (both backstops).
        for spec in [ProtocolSpec::SS, ProtocolSpec::HS, ProtocolSpec::SS_RTR] {
            let (_, m) = outage::measure(&run, spec);
            let bound = repair_latency_bound(spec).expect("paper presets are coherent");
            let b = bound.reconverge.eval(&p);
            assert!(
                m.reconverge_secs.is_finite() && b >= m.reconverge_secs,
                "{spec}: bound {} = {b} does not dominate measured {}",
                bound.reconverge.render(),
                m.reconverge_secs
            );
        }
    }

    #[test]
    fn domination_report_renders_pass_fail_and_counts_underivable() {
        let row = |code: &str, measured: f64, bound: f64| DominationRow {
            code: code.into(),
            measured_secs: measured,
            bound_expr: "T + (N-1)*T + D".into(),
            bound_secs: bound,
        };
        let ok = DominationReport {
            sessions: 4096,
            rows: vec![row("btb--", 6.0, 10.03)],
            underivable: 0,
        };
        assert!(ok.passed());
        assert!(ok.render().contains("all bounds dominate"));
        let tight = DominationReport {
            sessions: 4096,
            rows: vec![row("btb--", 12.0, 10.03), row("--rrn", f64::INFINITY, 0.18)],
            underivable: 1,
        };
        assert!(!tight.passed());
        let text = tight.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("3 spec(s) exceed their bound"), "{text}");
        assert!(
            text.contains("1 coherent spec(s) had no derivable bound"),
            "{text}"
        );
    }

    #[test]
    fn schedule_and_capacity_constants_are_valid() {
        use restart_storm::{HORIZON, WAVES};
        let faults = RestartStorm::faults();
        assert_eq!(faults.len(), 2 * WAVES);
        faults.validate().expect("canonical schedule validates");
        assert_eq!(RestartStorm::last_wipe(), 150.0);
        assert!(RestartStorm::last_wipe() < HORIZON);
        let capacity = RestartStorm::capacity(SESSIONS_QUICK);
        assert!(!capacity.is_unlimited());
        let full = ExperimentOptions::default();
        assert_eq!(
            RestartStorm::config(ProtocolSpec::SS, RetryKind::Fixed, &full).sessions,
            SESSIONS_FULL
        );
        let quick = ExperimentOptions::quick();
        assert_eq!(
            RestartStorm::config(ProtocolSpec::SS, RetryKind::Fixed, &quick).sessions,
            SESSIONS_QUICK
        );
    }

    #[test]
    fn backoff_and_jitter_bound_the_storm_for_a_reliable_spec() {
        // The acceptance property: under the capacity limit, both
        // overload-aware policies beat fixed-interval retry on the storm
        // peak *and* the overload-drop fraction, for a composition whose
        // mechanisms all retransmit (SS+RTR: reliable trigger + reliable
        // refresh + timeout).
        let options = tiny_options();
        let run = NodeRun {
            name: "node-restart-storm",
            options: &options,
        };
        let spec = ProtocolSpec::SS_RTR;
        let [fixed, backoff, jittered] =
            RetryKind::ALL.map(|retry| restart_storm::measure(&run, spec, retry).0);
        let overload = restart_storm::overload_fraction;
        for (label, r) in [("backoff", &backoff), ("jittered", &jittered)] {
            assert!(
                r.peak_bandwidth_bytes_per_sec.mean < fixed.peak_bandwidth_bytes_per_sec.mean,
                "{label} peak {} not below fixed {}",
                r.peak_bandwidth_bytes_per_sec.mean,
                fixed.peak_bandwidth_bytes_per_sec.mean
            );
            assert!(
                overload(r) < overload(&fixed),
                "{label} overload fraction {} not below fixed {}",
                overload(r),
                overload(&fixed)
            );
        }
        // Fixed-interval retries under the capacity limit do sustain real
        // overload (the table's point, not just a marginal difference).
        assert!(
            fixed.drops_overload > 0,
            "fixed policy never overflowed: {fixed:?}"
        );
    }

    #[test]
    fn soft_state_reinstalls_fast_but_hard_state_stays_wiped() {
        // The wipe deletes held state for live senders.  Soft state's
        // periodic refreshes re-install coverage within a few refresh
        // intervals; pure hard state has no periodic stream, so coverage
        // stays depressed until churn replaces the wiped sessions — longer
        // than the post-storm horizon.
        let options = tiny_options();
        let run = NodeRun {
            name: "node-restart-storm",
            options: &options,
        };
        let (_, _, ss) = restart_storm::measure(&run, ProtocolSpec::SS, RetryKind::Fixed);
        let (_, _, hs) = restart_storm::measure(&run, ProtocolSpec::HS, RetryKind::Fixed);
        assert!(
            ss.is_finite() && ss < 30.0,
            "soft-state re-install took {ss} s"
        );
        assert!(
            hs > restart_storm::HORIZON - RestartStorm::last_wipe(),
            "hard state {hs} s"
        );
    }

    #[test]
    fn every_retry_policy_row_is_rendered_per_protocol() {
        let text = table("node-restart-storm", &[ProtocolSpec::SS], &tiny_options());
        for label in ["fixed", "backoff", "jittered"] {
            assert!(
                text.lines()
                    .any(|l| l.starts_with("SS ") && l.contains(label)),
                "missing SS x {label} row:\n{text}"
            );
        }
    }

    /// The storm node at 128 sessions (the capacity limit scaled to match),
    /// for a spec whose every mechanism retransmits: reliable triggers,
    /// reliable refresh and reliable removal, with removal notices.
    fn small_storm_config(retry: RetryKind) -> NodeConfig {
        let spec = ProtocolSpec::SS_RTR
            .with_label("SS+RTR+RR")
            .with_refresh(Some(siganalytic::RefreshMode::Reliable));
        let sessions = 128;
        NodeConfig {
            sessions,
            capacity: RestartStorm::capacity(sessions),
            ..RestartStorm::config(spec, retry, &tiny_options())
        }
    }

    #[test]
    fn storm_node_metrics_are_pinned_under_every_retry_policy() {
        // Exact pins of the retransmission path: fixed retries re-arm at a
        // constant interval, backoff and jitter at varying ones, and the
        // repair after a removal notice adds a delay on top.  Any change
        // in event order or RNG consumption shows up as a literal diff,
        // under both ordering cores.
        for (retry, want) in [
            (RetryKind::Fixed, PIN_FIXED),
            (RetryKind::Backoff, PIN_BACKOFF),
            (RetryKind::Jittered, PIN_JITTERED),
        ] {
            let cfg = small_storm_config(retry);
            for kind in [QueueKind::Heap, QueueKind::Calendar] {
                let m = sigproto::NodeSim::new(cfg.with_queue_kind(kind), 2003).run();
                assert_eq!(format!("{m:?}"), want, "{} on {kind}", retry.label());
            }
        }
    }

    const PIN_FIXED: &str = concat!(
        "NodeMetrics { sessions: 128, horizon: 240.0, ",
        "events_processed: 255513, ",
        "messages: MessageCounts { trigger: 227719, refresh: 4742, ",
        "removal: 12013, trigger_ack: 8876, refresh_ack: 216, ",
        "removal_ack: 506, removal_notice: 27, external_signal: 0 }, ",
        "refresh_rate: 19.758333333333333, ",
        "message_rate: 1058.7458333333334, ",
        "bandwidth_bytes_per_sec: 67759.73333333334, ",
        "peak_bandwidth_bytes_per_sec: 124992.0, ",
        "stale_fraction: 0.025474184275613113, false_removals: 27, ",
        "false_removal_rate: 0.001101696027620493, ",
        "mean_active: 102.1152815109845, mean_held: 98.08860363501435, ",
        "drops_random: 10068, drops_injected: 50525, ",
        "drops_overload: 174883, crash_wipes: 291 }",
    );
    const PIN_BACKOFF: &str = concat!(
        "NodeMetrics { sessions: 128, horizon: 240.0, ",
        "events_processed: 52758, ",
        "messages: MessageCounts { trigger: 34804, refresh: 4961, ",
        "removal: 1891, trigger_ack: 8039, refresh_ack: 1129, ",
        "removal_ack: 429, removal_notice: 23, external_signal: 0 }, ",
        "refresh_rate: 20.670833333333334, message_rate: 213.65, ",
        "bandwidth_bytes_per_sec: 13673.6, ",
        "peak_bandwidth_bytes_per_sec: 18496.0, ",
        "stale_fraction: 0.02079177546703284, false_removals: 23, ",
        "false_removal_rate: 0.0008994351824271366, ",
        "mean_active: 106.54834856996135, mean_held: 102.77974810564328, ",
        "drops_random: 2131, drops_injected: 7458, ",
        "drops_overload: 23075, crash_wipes: 302 }",
    );
    const PIN_JITTERED: &str = concat!(
        "NodeMetrics { sessions: 128, horizon: 240.0, ",
        "events_processed: 62523, ",
        "messages: MessageCounts { trigger: 44236, refresh: 4956, ",
        "removal: 2185, trigger_ack: 8134, refresh_ack: 1079, ",
        "removal_ack: 385, removal_notice: 7, external_signal: 0 }, ",
        "refresh_rate: 20.65, message_rate: 254.09166666666667, ",
        "bandwidth_bytes_per_sec: 16261.866666666667, ",
        "peak_bandwidth_bytes_per_sec: 23936.0, ",
        "stale_fraction: 0.018529713405110834, false_removals: 7, ",
        "false_removal_rate: 0.0002739712863477954, ",
        "mean_active: 106.45884485004305, mean_held: 103.29053536553467, ",
        "drops_random: 2472, drops_injected: 9706, ",
        "drops_overload: 30199, crash_wipes: 303 }",
    );
}
