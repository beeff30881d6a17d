//! The two node workloads.
//!
//! `node-million`: one soft-state `NodeSim` at 10⁶ sessions with Kazaa
//! parameters and a 600 s lifetime on the default heap core, as in the
//! `node_throughput` bench.  Set-up builds it and warms it past the arrival
//! wave (4N events); a unit is one `step_events` batch.
//!
//! `fault-storm`: the `node-restart-storm` configuration — every coherent
//! spec × {fixed, backoff, jittered} retry at the quick population — driven
//! through `NodeRestartStormExperiment::config`, `NodeCampaign::run_traced`
//! and the recovery derivation; a unit is one node run.

use crate::analytic::DEFAULT_SEED;
use crate::harness::{Checker, Fingerprint, Metrics, Workload};
use crate::layers::{replay_admit, replay_fault_lookup, replay_meters, replay_queue};
use crate::stats::Digest;
use crate::trace::Tracer;
use signaling::experiment::RetryKind;
use signaling::node_restart_storm::{EPSILON, HORIZON, STORM_START};
use signaling::{
    ExecutionPolicy, ExperimentOptions, NodeCampaign, NodeCampaignResult, NodeConfig, NodeMetrics,
    NodeRestartStormExperiment, NodeSim, PhaseTimings, Protocol, QueueKind, RecoveryMetrics,
    RecoveryTrace, SimRng, SingleHopParams,
};
use signet::{CapacityModel, FaultSchedule};
use sigproto::MessageCounts;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sessions of the `node-million` node.
pub const SESSIONS: usize = 1_000_000;

/// Events per `step_events` batch (one unit).
pub const BATCH: u64 = 49_152;

/// Batches per pass: about three million events, one cycle of the backlog.
pub const BATCHES_PER_PASS: usize = 64;

/// Sessions of the node the calendar-core check runs each pass.
const CHECK_SESSIONS: usize = 4096;

fn million_config(sessions: usize) -> NodeConfig {
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(600.0);
    NodeConfig::new(Protocol::Ss, params, sessions)
}

/// Counts of one node's message, drop and wipe accounting.
fn node_counts(
    fp: &mut Fingerprint,
    messages: &MessageCounts,
    drops: [u64; 3],
    false_removals: u64,
    crash_wipes: u64,
) {
    let mut put = |k: &str, v: u64| {
        *fp.entry(k.to_string()).or_insert(0) += v;
    };
    put("sigproto.messages", messages.signaling_total());
    put("sigproto.refresh_msgs", messages.refresh);
    put(
        "sigproto.ack_msgs",
        messages.trigger_ack + messages.refresh_ack + messages.removal_ack,
    );
    put("msgs.trigger", messages.trigger);
    put("msgs.removal", messages.removal);
    put("msgs.removal_notice", messages.removal_notice);
    put("msgs.external_signal", messages.external_signal);
    put("sigproto.false_removals", false_removals);
    put("sigproto.crash_wipes", crash_wipes);
    put("signet.drops_random", drops[0]);
    put("signet.drops_injected", drops[1]);
    put("signet.drops_overload", drops[2]);
}

/// Checks the invariants of one node's metrics.
fn check_node_metrics(m: &NodeMetrics, ck: &mut Checker, what: &str) {
    ck.in_range(
        m.stale_fraction,
        0.0,
        1.0,
        &format!("{what}: stale_fraction"),
    );
    for (name, v) in [
        ("refresh_rate", m.refresh_rate),
        ("message_rate", m.message_rate),
        ("false_removal_rate", m.false_removal_rate),
        ("peak_bandwidth", m.peak_bandwidth_bytes_per_sec),
    ] {
        ck.in_range(v, 0.0, f64::MAX, &format!("{what}: {name}"));
    }
    ck.in_range(
        m.mean_active,
        0.0,
        m.sessions as f64,
        &format!("{what}: mean_active"),
    );
    ck.in_range(
        m.mean_held,
        0.0,
        m.sessions as f64,
        &format!("{what}: mean_held"),
    );
    let drops = m.drops_random + m.drops_injected + m.drops_overload;
    ck.expect(
        drops <= m.messages.signaling_total(),
        &format!(
            "{what}: {drops} drops exceed {} messages sent",
            m.messages.signaling_total()
        ),
    );
}

/// Fraction of signaling messages not dropped (0 when none were sent).
fn delivered_frac(fp: &Fingerprint) -> f64 {
    let sent = fp.get("sigproto.messages").copied().unwrap_or(0) as f64;
    let dropped: u64 = [
        "signet.drops_random",
        "signet.drops_injected",
        "signet.drops_overload",
    ]
    .iter()
    .filter_map(|k| fp.get(*k))
    .sum();
    if sent > 0.0 {
        1.0 - dropped as f64 / sent
    } else {
        0.0
    }
}

/// Copies the counts of `fp` that are per-layer metrics into `out`.
fn count_metrics(fp: &Fingerprint, out: &mut Metrics) {
    for def in crate::harness::PER_LAYER {
        if def.unit == "count" {
            if let Some(v) = fp.get(def.name) {
                out.insert(def.name, *v as f64);
            }
        }
    }
    out.insert("signet.delivered_frac", delivered_frac(fp));
}

pub struct NodeMillion {
    seed: u64,
    sim: NodeSim,
    registry_build_s: f64,
    node_setup_s: f64,
    warmup_s: f64,
    short_batch: bool,
    completed_passes: usize,
    pending_peak: usize,
    checkpoint: Option<Fingerprint>,
    expected: BTreeMap<String, u64>,
    check_digests: bool,
    digests: Vec<(String, u64)>,
}

/// Sets up `node-million`: registries, `NodeSim::new` and the warm-up.
pub fn node_million(
    seed: u64,
    expected: BTreeMap<String, u64>,
    check_digests: bool,
) -> NodeMillion {
    let t = Instant::now();
    std::hint::black_box((sigbench::extended_registry(), sigbench::protocol_registry()));
    let registry_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut sim = NodeSim::new(million_config(SESSIONS), seed);
    let node_setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sim.step_events(4 * SESSIONS as u64);
    let warmup_s = t.elapsed().as_secs_f64();
    NodeMillion {
        seed,
        sim,
        registry_build_s,
        node_setup_s,
        warmup_s,
        short_batch: false,
        completed_passes: 0,
        pending_peak: 0,
        checkpoint: None,
        expected,
        check_digests,
        digests: Vec::new(),
    }
}

impl NodeMillion {
    fn fingerprint(&self) -> Fingerprint {
        let m = self.sim.metrics();
        let mut fp = Fingerprint::new();
        fp.insert("simcore.events".into(), self.sim.events_processed());
        fp.insert("simcore.pending".into(), self.sim.pending_events() as u64);
        fp.insert(
            "sigproto.bytes_per_session".into(),
            self.sim.bytes_per_session().round() as u64,
        );
        node_counts(
            &mut fp,
            &m.messages,
            [m.drops_random, m.drops_injected, m.drops_overload],
            m.false_removals,
            m.crash_wipes,
        );
        fp
    }

    fn check_digest(&mut self, key: &str, text: String, ck: &mut Checker) {
        let digest = Digest::of(&text);
        if self.check_digests {
            let expected = self.expected.get(key).copied();
            ck.expect(
                expected == Some(digest),
                &format!("node-million {key}: digest {digest:016x} differs from {expected:x?}"),
            );
        }
        self.digests.push((key.to_string(), digest));
    }
}

impl Workload for NodeMillion {
    fn slots(&self) -> usize {
        BATCHES_PER_PASS
    }

    fn run_unit(&mut self, _slot: usize, tr: &mut Tracer) {
        let sim = &mut self.sim;
        let n = tr.span("sigproto.fire", |_| sim.step_events(BATCH));
        self.short_batch |= n != BATCH;
        if self.completed_passes == 0 {
            self.pending_peak = self.pending_peak.max(self.sim.pending_events());
        }
    }

    fn end_pass(&mut self, pass: usize, ck: &mut Checker) -> Option<Fingerprint> {
        ck.expect(
            !self.short_batch,
            "every batch processed its full event count",
        );
        let m = self.sim.metrics();
        check_node_metrics(&m, ck, "node-million");
        // One sampled node per pass must be identical on the calendar core.
        let small = million_config(CHECK_SESSIONS);
        let seed = self.seed.wrapping_add(pass as u64);
        let heap = NodeSim::new(small, seed).run();
        let calendar = NodeSim::new(small.with_queue_kind(QueueKind::Calendar), seed).run();
        ck.expect(
            heap == calendar,
            "sampled node run is identical on the calendar core",
        );
        check_node_metrics(&heap, ck, "sampled node");
        self.completed_passes += 1;
        if pass != 0 {
            return None;
        }
        let mut fp = self.fingerprint();
        fp.insert("simcore.pending_peak".into(), self.pending_peak as u64);
        self.check_digest("pass0", format!("{m:?}"), ck);
        self.checkpoint = Some(fp.clone());
        Some(fp)
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sigbench.registry_build_s", self.registry_build_s),
            ("sigproto.node_setup_s", self.node_setup_s),
            ("sigproto.warmup_s", self.warmup_s),
        ]
    }

    fn setup_fingerprint(&self) -> Option<Fingerprint> {
        Some(self.fingerprint())
    }

    fn layer_metrics(&mut self, spans: &Metrics, _ck: &mut Checker) -> Metrics {
        let mut out = Metrics::new();
        if let Some(fp) = &self.checkpoint {
            count_metrics(fp, &mut out);
        }
        let fire_s = spans.get("sigproto.fire_s").copied().unwrap_or(0.0);
        out.insert(
            "sigproto.ns_per_event",
            fire_s * 1e9 / (BATCH * BATCHES_PER_PASS as u64) as f64,
        );
        out.insert("sigproto.bytes_per_session", self.sim.bytes_per_session());
        let horizon = million_config(SESSIONS).horizon;
        let queue = replay_queue(self.pending_peak, 5.0, self.seed);
        out.insert("simcore.hold_ns", queue.hold_ns);
        out.insert("simcore.cancel_ns", queue.cancel_ns);
        let sent = out.get("sigproto.messages").copied().unwrap_or(0.0);
        out.insert(
            "signet.admit_ns",
            replay_admit(CapacityModel::unlimited(), sent / horizon),
        );
        out.insert(
            "signet.fault_lookup_ns",
            replay_fault_lookup(FaultSchedule::none(), horizon),
        );
        out.insert("sigstats.meter_ns", replay_meters(horizon));
        out
    }

    fn extras(&self, wall_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "events_per_s",
                (BATCH * BATCHES_PER_PASS as u64) as f64 / wall_s,
                "1/s",
            ),
            ("bytes_per_session", self.sim.bytes_per_session(), "B"),
            ("pending_events", self.sim.pending_events() as f64, "count"),
        ]
    }

    fn digests(&self) -> Vec<(String, u64)> {
        self.digests.clone()
    }
}

/// One node run of the storm and what was derived from it.
struct StormRun {
    result: NodeCampaignResult,
    phases: PhaseTimings,
    bytes_per_session: f64,
    trace: RecoveryTrace,
    recovery: RecoveryMetrics,
    reinstall_s: f64,
}

/// What the first pass leaves for the per-layer metrics.
struct FirstPass {
    counts: Fingerprint,
    /// The slot with the most events, and its events.
    busiest: (usize, u64),
    bytes_per_session: f64,
}

pub struct FaultStorm {
    seed: u64,
    configs: Vec<(String, NodeConfig)>,
    runs: Vec<Option<StormRun>>,
    registry_build_s: f64,
    expected: BTreeMap<String, u64>,
    check_digests: bool,
    first_pass: Option<FirstPass>,
    /// Phase timings, events and passes since the traced phase began.
    traced_phases: PhaseTimings,
    traced_events: u64,
    traced_passes: u32,
}

/// Sets up `fault-storm`: registries and the 3 × spectrum node configs.
///
/// Every run uses the default campaign seed, in registry order; `seed`
/// picks which run each pass repeats on the calendar core.  A campaign seed
/// can set off a retransmission storm in one configuration that another
/// does not, which moves a pass's events by 12%, and reordering the runs
/// moves the allocator's peak by as much.
pub fn fault_storm(seed: u64, expected: BTreeMap<String, u64>, check_digests: bool) -> FaultStorm {
    let t = Instant::now();
    std::hint::black_box((sigbench::extended_registry(), sigbench::protocol_registry()));
    let options = ExperimentOptions::quick().with_execution(ExecutionPolicy::Serial);
    let configs: Vec<(String, NodeConfig)> = sigbench::coherent_spectrum()
        .iter()
        .flat_map(|&spec| {
            let options = &options;
            RetryKind::ALL.map(move |retry| {
                let label = format!("{}/{}", spec.label(), retry.label());
                (
                    label,
                    NodeRestartStormExperiment::config(spec, retry, options),
                )
            })
        })
        .collect();
    let registry_build_s = t.elapsed().as_secs_f64();
    FaultStorm {
        seed,
        runs: configs.iter().map(|_| None).collect(),
        configs,
        registry_build_s,
        expected,
        check_digests,
        first_pass: None,
        traced_phases: PhaseTimings::default(),
        traced_events: 0,
        traced_passes: 0,
    }
}

fn storm_run(config: NodeConfig, seed: u64, tr: &mut Tracer) -> StormRun {
    let (result, phases, bytes_per_session, trace) = tr.span("sigproto.node_run", |_| {
        NodeCampaign::new(config, 1, seed)
            .execution(ExecutionPolicy::Serial)
            .run_traced()
    });
    let (recovery, reinstall_s) = tr.span("sigproto.recovery", |_| {
        (
            RecoveryMetrics::derive(
                &trace,
                STORM_START,
                NodeRestartStormExperiment::last_wipe(),
                EPSILON,
            ),
            NodeRestartStormExperiment::reinstall_secs(&trace),
        )
    });
    StormRun {
        result,
        phases,
        bytes_per_session,
        trace,
        recovery,
        reinstall_s,
    }
}

fn storm_digest(run: &StormRun) -> u64 {
    Digest::of(&format!(
        "{:?}{:?}{:?}",
        run.result, run.recovery, run.reinstall_s
    ))
}

impl Workload for FaultStorm {
    fn slots(&self) -> usize {
        self.configs.len()
    }

    fn run_unit(&mut self, slot: usize, tr: &mut Tracer) {
        self.runs[slot] = Some(storm_run(self.configs[slot].1, DEFAULT_SEED, tr));
    }

    fn end_pass(&mut self, pass: usize, ck: &mut Checker) -> Option<Fingerprint> {
        self.traced_passes += 1;
        let mut fp = Fingerprint::new();
        for ((label, _), run) in self.configs.iter().zip(&self.runs) {
            let Some(run) = run else {
                ck.expect(false, &format!("{label}: no run"));
                continue;
            };
            let r = &run.result;
            ck.in_range(
                r.stale_fraction.mean,
                0.0,
                1.0,
                &format!("{label}: stale_fraction"),
            );
            ck.in_range(
                r.message_rate.mean,
                0.0,
                f64::MAX,
                &format!("{label}: message_rate"),
            );
            let drops = r.drops_random + r.drops_injected + r.drops_overload;
            ck.expect(
                drops <= r.messages.signaling_total(),
                &format!("{label}: drops exceed messages sent"),
            );
            ck.expect(
                !run.recovery.reconverge_secs.is_nan()
                    && run.recovery.reconverge_secs >= 0.0
                    && !run.reinstall_s.is_nan()
                    && run.reinstall_s >= 0.0,
                &format!("{label}: recovery times"),
            );
            ck.expect(
                run.trace.stale.iter().all(|s| s.is_finite() && *s >= 0.0),
                &format!("{label}: stale trace"),
            );
            let digest = storm_digest(run);
            if self.check_digests {
                let expected = self.expected.get(label).copied();
                ck.expect(
                    expected == Some(digest),
                    &format!("{label}: digest {digest:016x} differs from {expected:x?}"),
                );
            }
            fp.insert(format!("digest.{label}"), digest);
            *fp.entry("simcore.events".into()).or_insert(0) += r.events_processed;
            node_counts(
                &mut fp,
                &r.messages,
                [r.drops_random, r.drops_injected, r.drops_overload],
                r.false_removals,
                r.crash_wipes,
            );
            self.traced_phases.merge(&run.phases);
            self.traced_events += r.events_processed;
        }
        // One sampled run per pass must be identical on the calendar core.
        let slot = (self.seed as usize).wrapping_add(pass) % self.configs.len();
        if let Some(run) = &self.runs[slot] {
            let config = self.configs[slot].1.with_queue_kind(QueueKind::Calendar);
            let (result, _, _, trace) = NodeCampaign::new(config, 1, DEFAULT_SEED).run_traced();
            ck.expect(
                result == run.result && trace == run.trace,
                &format!("{}: calendar core diverged", self.configs[slot].0),
            );
        }
        if self.first_pass.is_none() {
            let runs = self.runs.iter().flatten();
            self.first_pass = Some(FirstPass {
                counts: fp.clone(),
                busiest: runs
                    .clone()
                    .map(|r| r.result.events_processed)
                    .enumerate()
                    .max_by_key(|&(i, e)| (e, std::cmp::Reverse(i)))
                    .unwrap_or((0, 0)),
                bytes_per_session: runs.map(|r| r.bytes_per_session).fold(0.0, f64::max),
            });
        }
        Some(fp)
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![("sigbench.registry_build_s", self.registry_build_s)]
    }

    fn begin_traced(&mut self) {
        self.traced_phases = PhaseTimings::default();
        self.traced_events = 0;
        self.traced_passes = 0;
    }

    fn layer_metrics(&mut self, _spans: &Metrics, ck: &mut Checker) -> Metrics {
        let mut out = Metrics::new();
        let Some(first) = &self.first_pass else {
            return out;
        };
        let fp = &first.counts;
        count_metrics(fp, &mut out);
        let passes = f64::from(self.traced_passes.max(1));
        out.insert(
            "sigproto.node_setup_s",
            self.traced_phases.schedule / passes,
        );
        out.insert("sigproto.fire_s", self.traced_phases.fire / passes);
        out.insert(
            "sigproto.ns_per_event",
            self.traced_phases.fire * 1e9 / self.traced_events.max(1) as f64,
        );
        out.insert("sigproto.bytes_per_session", first.bytes_per_session);

        // The backlog the busiest run of the first pass reaches, stepped
        // event by event on the stream `NodeCampaign` gave it.
        let (slot, events) = first.busiest;
        let config = self.configs[slot].1;
        let mut sim = NodeSim::with_rng(config, SimRng::for_replication(DEFAULT_SEED, 0));
        let mut peak = 0usize;
        let mut stepped = 0u64;
        while stepped < events {
            let n = sim.step_events(16.min(events - stepped));
            if n == 0 {
                break;
            }
            stepped += n;
            peak = peak.max(sim.pending_events());
        }
        ck.expect(
            stepped == events,
            "pending-peak replay reached the run's event count",
        );
        out.insert("simcore.pending_peak", peak as f64);
        let queue = replay_queue(peak, 5.0, self.seed);
        out.insert("simcore.hold_ns", queue.hold_ns);
        out.insert("simcore.cancel_ns", queue.cancel_ns);

        let sessions = config.sessions;
        let rate = fp["sigproto.messages"] as f64 / (self.configs.len() as f64 * HORIZON);
        out.insert(
            "signet.admit_ns",
            replay_admit(NodeRestartStormExperiment::capacity(sessions), rate),
        );
        out.insert(
            "signet.fault_lookup_ns",
            replay_fault_lookup(NodeRestartStormExperiment::faults(), HORIZON),
        );
        out.insert("sigstats.meter_ns", replay_meters(HORIZON));
        out
    }

    fn extras(&self, wall_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let (events, bytes) = self.first_pass.as_ref().map_or((0, 0.0), |f| {
            (f.counts["simcore.events"], f.bytes_per_session)
        });
        vec![
            ("events_per_s", events as f64 / wall_s, "1/s"),
            ("bytes_per_session", bytes, "B"),
        ]
    }

    fn digests(&self) -> Vec<(String, u64)> {
        self.configs
            .iter()
            .zip(&self.runs)
            .filter_map(|((label, _), r)| r.as_ref().map(|r| (label.clone(), storm_digest(r))))
            .collect()
    }
}
