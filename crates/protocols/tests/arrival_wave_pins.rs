//! Exact node outputs around the initial arrival wave, pinned.
//!
//! `NodeSim` opens with one `Arrive` per session, staggered uniformly over
//! the first refresh interval.  These pins cover the events that interleave
//! with that wave: a crash–restart and a link outage inside it, and the
//! refresh, retransmission, delivery and departure events the arrivals
//! themselves schedule; the last pin runs on into the state timeouts that
//! follow.  Any change to how the wave or the timeouts are filed that
//! moved one delivered event, or one RNG draw, moves one of these numbers.

use siganalytic::{ProtocolSpec, SingleHopParams};
use signet::{CapacityModel, CrashStatePolicy, FaultEvent, FaultSchedule};
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
    NodeConfig::new(ProtocolSpec::SS_RTR, params, 512)
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
        let cfg = NodeConfig::new(ProtocolSpec::SS, params, sessions).with_queue_kind(kind);
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
        let cfg = NodeConfig::new(ProtocolSpec::SS, params, sessions).with_queue_kind(kind);
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

/// The timeout phase: a 10⁴-session node run to 60 s, past three state
/// timeouts (τ = 15 s), so the first timeout arms, the lazy re-arms and
/// the expiries of the opening minute all stand behind these numbers.
/// SS+RTR adds removal notices, whose repair arms fall off the
/// retransmission grid.
fn timeout_phase(protocol: ProtocolSpec, kind: QueueKind) -> NodeConfig {
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(600.0);
    NodeConfig::new(protocol, params, 10_000)
        .with_horizon(60.0)
        .with_queue_kind(kind)
}

#[test]
fn the_timeout_phase_is_pinned() {
    for (protocol, pin, events, pending) in [
        (ProtocolSpec::SS, PIN_TIMEOUT_SS, 277_843, 28_811),
        (ProtocolSpec::SS_RTR, PIN_TIMEOUT_SS_RTR, 277_810, 28_584),
    ] {
        for kind in KINDS {
            let mut sim = NodeSim::new(timeout_phase(protocol, kind), 2003);
            let m = sim.run();
            assert_eq!(format!("{m:?}"), pin, "{protocol:?} {kind}");
            assert_eq!(sim.events_processed(), events, "{protocol:?} {kind}");
            assert_eq!(sim.pending_events(), pending, "{protocol:?} {kind}");
        }
    }
}

/// Where the timeout-phase node files its keys.  Its state timeouts ride
/// the two timeout lanes, so only the arms off the lanes' grid reach the
/// ordering core, and under SS, which sends no repair triggers, the core
/// takes little more than the lifecycle draws, those arms and (under the
/// calendar core, which sorts it in place) the arrival wave.  A change
/// that sent the timeouts back to the core would multiply `core_keys` by
/// five and fail the bounds; the counts are pinned exactly too.
#[test]
fn the_timeout_phase_files_its_timeouts_on_lanes() {
    for (protocol, counts) in [
        (
            ProtocolSpec::SS,
            [
                (10_998, 57_547, 1_287, 12_286),
                (10_998, 57_547, 1_287, 22_286),
            ],
        ),
        (
            ProtocolSpec::SS_RTR,
            [
                (10_987, 56_778, 1_151, 13_770),
                (10_987, 56_778, 1_151, 23_770),
            ],
        ),
    ] {
        for (kind, (lifecycle, timeout_arms, off_grid, core_keys)) in KINDS.into_iter().zip(counts)
        {
            let mut sim = NodeSim::new(timeout_phase(protocol, kind), 2003);
            sim.run();
            let got = sim.schedule_counts();
            assert_eq!(
                (
                    got.lifecycle,
                    got.timeout_arms,
                    got.off_grid_timeouts,
                    got.core_keys
                ),
                (lifecycle, timeout_arms, off_grid, core_keys),
                "{protocol:?} {kind}"
            );
            assert!(
                got.off_grid_timeouts <= got.timeout_arms * 3 / 100,
                "{protocol:?} {kind}: {got:?}"
            );
            if protocol == ProtocolSpec::SS {
                let wave = if kind == QueueKind::Calendar {
                    10_000
                } else {
                    0
                };
                assert!(
                    got.core_keys - wave <= got.lifecycle + got.timeout_arms * 3 / 100,
                    "{kind}: {got:?}"
                );
            }
        }
    }
}

/// Behind a finite receiver capacity the service queue moves installs off
/// the refresh grid, so no timeout lane opens and every arm goes to the
/// ordering core.
#[test]
fn a_finite_capacity_node_opens_no_timeout_lane() {
    let capacity = CapacityModel::limited(4_000.0, 64).unwrap();
    let cfg = timeout_phase(ProtocolSpec::SS, QueueKind::Heap).with_capacity(capacity);
    let mut sim = NodeSim::new(cfg, 2003);
    sim.run();
    let got = sim.schedule_counts();
    assert!(got.timeout_arms > 50_000, "{got:?}");
    assert_eq!(got.off_grid_timeouts, got.timeout_arms, "{got:?}");
}

const PIN_TIMEOUT_SS: &str = concat!(
    "NodeMetrics { sessions: 10000, horizon: 60.0, ",
    "events_processed: 277843, ",
    "messages: MessageCounts { trigger: 10146, refresh: 105525, ",
    "removal: 0, trigger_ack: 0, refresh_ack: 0, removal_ack: 0, ",
    "removal_notice: 0, external_signal: 0 }, ",
    "refresh_rate: 1758.75, message_rate: 1927.85, ",
    "bandwidth_bytes_per_sec: 123382.4, ",
    "peak_bandwidth_bytes_per_sec: 130816.0, ",
    "stale_fraction: 0.016274679452504243, false_removals: 31, ",
    "false_removal_rate: 5.609633380796045e-5, ",
    "mean_active: 9210.346409364602, mean_held: 9338.535888218034, ",
    "drops_random: 2381, drops_injected: 0, drops_overload: 0, ",
    "crash_wipes: 0 }",
);

const PIN_TIMEOUT_SS_RTR: &str = concat!(
    "NodeMetrics { sessions: 10000, horizon: 60.0, ",
    "events_processed: 277810, ",
    "messages: MessageCounts { trigger: 10600, refresh: 105332, ",
    "removal: 894, trigger_ack: 10363, refresh_ack: 0, removal_ack: 880, ",
    "removal_notice: 32, external_signal: 0 }, ",
    "refresh_rate: 1755.5333333333333, ",
    "message_rate: 2135.016666666667, ",
    "bandwidth_bytes_per_sec: 136641.06666666668, ",
    "peak_bandwidth_bytes_per_sec: 272704.0, ",
    "stale_fraction: 4.822454365122167e-5, false_removals: 32, ",
    "false_removal_rate: 5.801246686744389e-5, ",
    "mean_active: 9193.426208748857, mean_held: 9188.574705132192, ",
    "drops_random: 2641, drops_injected: 0, drops_overload: 0, ",
    "crash_wipes: 0 }",
);
