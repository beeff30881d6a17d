//! Exact node outputs around the initial arrival wave, pinned.
//!
//! `NodeSim` opens with one `Arrive` per session, staggered uniformly over
//! the first refresh interval.  These pins cover the events that interleave
//! with that wave: a crash–restart and a link outage inside it, and the
//! refresh, retransmission, delivery and departure events the arrivals
//! themselves schedule.  Any change to how the wave is filed that moved one
//! delivered event, or one RNG draw, moves one of these numbers.

use siganalytic::{Protocol, SingleHopParams};
use signet::{CrashStatePolicy, FaultEvent, FaultSchedule};
use sigproto::{NodeConfig, NodeSim, RecoveryTrace};
use simcore::QueueKind;

const KINDS: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Calendar];

/// FNV-1a over the trace's `Debug` text: an exact fingerprint of every bin
/// of every series (`f64` debug output is the shortest round-trip form).
fn fingerprint(trace: &RecoveryTrace) -> u64 {
    format!("{trace:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A reliable-trigger node whose receiver crashes (state wiped) 2.5 s in
/// and whose link is down from 1 s to 1.5 s, both inside the 5 s wave.
fn faulted_in_wave() -> NodeConfig {
    let faults = FaultSchedule::from_events(&[
        FaultEvent::Outage {
            start: 1.0,
            duration: 0.5,
        },
        FaultEvent::CrashRestart {
            at: 2.5,
            state_policy: CrashStatePolicy::Wipe,
        },
    ])
    .expect("valid schedule");
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(60.0);
    NodeConfig::new(Protocol::SsRtr, params, 512)
        .with_horizon(30.0)
        .with_mean_vacancy(15.0)
        .with_fault_schedule(faults)
}

#[test]
fn a_crash_inside_the_arrival_wave_is_pinned() {
    for kind in KINDS {
        let mut sim = NodeSim::new(faulted_in_wave().with_queue_kind(kind), 2003);
        let m = sim.run();
        assert_eq!(format!("{m:?}"), PIN_FAULTED, "{kind}");
        let trace = sim.recovery_trace();
        assert_eq!(trace.bins(), 30, "{kind}");
        assert_eq!(
            trace.messages[..6],
            [215, 533, 225, 229, 211, 112],
            "{kind}"
        );
        assert_eq!(trace.held[2], 125.32669867615769, "{kind}");
        assert_eq!(fingerprint(&trace), 0x0737_ae23_32cb_7354, "{kind}");
    }
}

const PIN_FAULTED: &str = concat!(
    "NodeMetrics { sessions: 512, horizon: 30.0, ",
    "events_processed: 6885, ",
    "messages: MessageCounts { trigger: 957, refresh: 2153, ",
    "removal: 225, trigger_ack: 643, refresh_ack: 0, removal_ack: 215, ",
    "removal_notice: 0, external_signal: 0 }, ",
    "refresh_rate: 71.76666666666667, ",
    "message_rate: 139.76666666666668, ",
    "bandwidth_bytes_per_sec: 8945.066666666668, ",
    "peak_bandwidth_bytes_per_sec: 34112.0, ",
    "stale_fraction: 0.0005559047808452914, false_removals: 0, ",
    "false_removal_rate: 0.0, ",
    "mean_active: 409.9862385396986, mean_held: 378.3014760031127, ",
    "drops_random: 53, drops_injected: 319, drops_overload: 0, ",
    "crash_wipes: 248 }",
);

#[test]
fn the_warm_up_past_the_wave_is_pinned() {
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(600.0);
    let sessions = 10_000;
    for kind in KINDS {
        let cfg = NodeConfig::new(Protocol::Ss, params, sessions).with_queue_kind(kind);
        let mut sim = NodeSim::new(cfg, 2003);
        assert_eq!(sim.step_events(4 * sessions as u64), 4 * sessions as u64);
        assert_eq!(sim.events_processed(), 40_000, "{kind}");
        assert_eq!(sim.pending_events(), 29_927, "{kind}");
        let messages = sim.metrics().messages;
        assert_eq!(
            (messages.trigger, messages.refresh),
            (10_003, 10_177),
            "{kind}"
        );
    }
}

/// The same warm-up at 10⁵ sessions, past every cache: the wave's session
/// numbering decides which slab slot each event touches, never which event
/// fires next, so every count and aggregate here is label-blind.
#[test]
fn the_warm_up_of_an_out_of_cache_node_is_pinned() {
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(600.0);
    let sessions = 100_000;
    for kind in KINDS {
        let cfg = NodeConfig::new(Protocol::Ss, params, sessions).with_queue_kind(kind);
        let mut sim = NodeSim::new(cfg, 2003);
        assert_eq!(sim.step_events(4 * sessions as u64), 4 * sessions as u64);
        assert_eq!(sim.events_processed(), 400_000, "{kind}");
        assert_eq!(sim.pending_events(), 299_323, "{kind}");
        let m = sim.metrics();
        assert_eq!(
            (
                m.messages.trigger,
                m.messages.refresh,
                m.messages.signaling_total()
            ),
            (100_037, 101_643, 201_680),
            "{kind}"
        );
        assert_eq!(format!("{m:?}"), PIN_OUT_OF_CACHE, "{kind}");
    }
}

const PIN_OUT_OF_CACHE: &str = concat!(
    "NodeMetrics { sessions: 100000, horizon: 120.0, ",
    "events_processed: 400000, ",
    "messages: MessageCounts { trigger: 100037, refresh: 101643, ",
    "removal: 0, trigger_ack: 0, refresh_ack: 0, removal_ack: 0, ",
    "removal_notice: 0, external_signal: 0 }, ",
    "refresh_rate: 847.025, message_rate: 1680.6666666666667, ",
    "bandwidth_bytes_per_sec: 107562.66666666667, ",
    "peak_bandwidth_bytes_per_sec: 1295680.0, ",
    "stale_fraction: 0.011524854717118565, false_removals: 0, ",
    "false_removal_rate: 0.0, ",
    "mean_active: 96762.5453751576, mean_held: 97746.20980566471, ",
    "drops_random: 4018, drops_injected: 0, drops_overload: 0, ",
    "crash_wipes: 0 }",
);
