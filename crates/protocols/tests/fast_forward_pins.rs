//! The blackout fast-forward's work, pinned exactly.
//!
//! A reliable-refresh node loses its link for 10 s.  Every session with an
//! unacknowledged refresh keeps retransmitting into the blackout, one
//! dropped message per retransmission interval.  `NodeSim` credits those
//! firings in one loop per session instead of one queue event each, so
//! the queue pops far fewer events than the node processes.  The events,
//! pending events and metrics below were recorded before the fast-forward
//! existed and must not move; the credited firings and the queue's pops
//! pin the work the fast-forward saves, so a change that quietly turned it
//! off fails here.

use siganalytic::{ProtocolSpec, RefreshMode, SingleHopParams};
use signet::FaultSchedule;
use sigproto::{NodeConfig, NodeSim, RetryPolicy};
use simcore::QueueKind;

fn outage_node(retry: RetryPolicy, kind: QueueKind) -> NodeConfig {
    let ss_rr = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(60.0);
    NodeConfig::new(ss_rr, params, 256)
        .with_horizon(30.0)
        .with_mean_vacancy(15.0)
        .with_fault_schedule(FaultSchedule::outage(10.0, 10.0).expect("valid outage"))
        .with_retry_policy(retry)
        .with_queue_kind(kind)
}

#[test]
fn the_blackout_fast_forward_work_is_pinned() {
    for (retry, events, pending, fast_forwarded, pops, pin) in [
        (RetryPolicy::Fixed, 32_423, 716, 28_746, 3_678, PIN_FIXED),
        (
            RetryPolicy::backoff(),
            7_367,
            709,
            3_699,
            3_669,
            PIN_BACKOFF,
        ),
    ] {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut sim = NodeSim::new(outage_node(retry, kind), 2003);
            let m = sim.run();
            assert_eq!(format!("{m:?}"), pin, "{retry:?} {kind}");
            assert_eq!(sim.events_processed(), events, "{retry:?} {kind}");
            assert_eq!(sim.pending_events(), pending, "{retry:?} {kind}");
            let counts = sim.schedule_counts();
            assert_eq!(
                (counts.fast_forwarded, counts.pops),
                (fast_forwarded, pops),
                "{retry:?} {kind}"
            );
        }
    }
}

const PIN_FIXED: &str = concat!(
    "NodeMetrics { sessions: 256, horizon: 30.0, events_processed: 32423, ",
    "messages: MessageCounts { trigger: 300, refresh: 30362, removal: 0, ",
    "trigger_ack: 0, refresh_ack: 1181, removal_ack: 0, removal_notice: 0, ",
    "external_signal: 0 }, ",
    "refresh_rate: 1012.0666666666667, message_rate: 1061.4333333333334, ",
    "bandwidth_bytes_per_sec: 67931.73333333334, ",
    "peak_bandwidth_bytes_per_sec: 247936.0, ",
    "stale_fraction: 0.07622606713751294, false_removals: 6, ",
    "false_removal_rate: 0.0009457397548694163, ",
    "mean_active: 211.4746672858382, mean_held: 228.0594270813505, ",
    "drops_random: 39, drops_injected: 29456, drops_overload: 0, ",
    "crash_wipes: 0 }",
);

const PIN_BACKOFF: &str = concat!(
    "NodeMetrics { sessions: 256, horizon: 30.0, events_processed: 7367, ",
    "messages: MessageCounts { trigger: 300, refresh: 5300, removal: 0, ",
    "trigger_ack: 0, refresh_ack: 1184, removal_ack: 0, removal_notice: 0, ",
    "external_signal: 0 }, ",
    "refresh_rate: 176.66666666666666, message_rate: 226.13333333333333, ",
    "bandwidth_bytes_per_sec: 14472.533333333333, ",
    "peak_bandwidth_bytes_per_sec: 34240.0, ",
    "stale_fraction: 0.08038294970253994, false_removals: 23, ",
    "false_removal_rate: 0.0036553571647194917, ",
    "mean_active: 209.7378264609335, mean_held: 227.19134256544905, ",
    "drops_random: 41, drops_injected: 4402, drops_overload: 0, ",
    "crash_wipes: 0 }",
);
