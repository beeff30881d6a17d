//! Pending and processed events of nodes that cancel timers, pinned while
//! `step_events` drives them in random batches.
//!
//! `NodeSim` retires a refresh, retransmission or timeout timer by
//! forgetting its id; the timer's key stays queued and is discarded when
//! it pops.  Such a stale key is no event: it must not count toward
//! `events_processed`, toward `step_events`' limit, toward
//! `pending_events()` once retired, or toward the queue pops in
//! `ScheduleCounts`.  The nodes below cancel on every path that can: a
//! blackout that starves acknowledgements, a crash that wipes every
//! receiver timer, reliable removal (whose ACK retires the retransmission
//! timer), and departures that retire refresh and detector timers.  Each
//! is stepped in batches of 1–64 events; after every batch the pending
//! count is folded into a checksum.  The values were recorded on a queue
//! that cancelled stale keys itself, and must not move.

use siganalytic::{ProtocolSpec, SingleHopParams};
use signet::{CrashStatePolicy, FaultEvent, FaultSchedule};
use sigproto::{NodeConfig, NodeSim, RetryPolicy};
use simcore::{QueueKind, SimRng};

/// Batches each node is stepped through.
const BATCHES: usize = 600;

fn cancelling_node(spec: ProtocolSpec, retry: RetryPolicy, kind: QueueKind) -> NodeConfig {
    let faults = FaultSchedule::from_events(&[
        FaultEvent::Outage {
            start: 10.0,
            duration: 8.0,
        },
        FaultEvent::CrashRestart {
            at: 24.0,
            state_policy: CrashStatePolicy::Wipe,
        },
    ])
    .expect("valid schedule");
    let mut params = SingleHopParams::kazaa_defaults().with_mean_lifetime(30.0);
    params.loss = 0.05;
    NodeConfig::new(spec, params, 192)
        .with_horizon(40.0)
        .with_mean_vacancy(10.0)
        .with_fault_schedule(faults)
        .with_retry_policy(retry)
        .with_queue_kind(kind)
}

/// Steps the node in seeded random batches: `(events processed, pending
/// events at the end, sum over batches of the pending events after each,
/// queue pops)`.
fn stepped(cfg: NodeConfig) -> (u64, usize, usize, u64) {
    let mut sim = NodeSim::new(cfg, 2003);
    let mut rng = SimRng::new(7);
    let mut checksum = 0;
    for _ in 0..BATCHES {
        let batch = 1 + rng.index(64) as u64;
        assert_eq!(sim.step_events(batch), batch, "{cfg:?}");
        checksum += sim.pending_events();
    }
    // The batches cross the blackout and the crash, and removals were
    // acknowledged: every cancelling path ran.
    let m = sim.metrics();
    assert!(m.drops_injected > 0 && m.crash_wipes > 0, "{m:?}");
    assert!(m.messages.removal_ack > 0, "{m:?}");
    let pops = sim.schedule_counts().pops;
    (sim.events_processed(), sim.pending_events(), checksum, pops)
}

#[test]
fn stepping_a_cancelling_node_counts_no_stale_key() {
    let pins = [
        (ProtocolSpec::SS_RTR, RetryPolicy::Fixed, 481, 296_637),
        (ProtocolSpec::SS_RTR, RetryPolicy::jittered(), 469, 291_125),
        (ProtocolSpec::HS, RetryPolicy::Fixed, 342, 203_743),
        (ProtocolSpec::HS, RetryPolicy::jittered(), 340, 200_428),
    ];
    for (spec, retry, pending, checksum) in pins {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            // Every step is an event and the queue popped one key for each,
            // plus the one that makes the node's "no timer" sentinel.
            let want = (19_106, pending, checksum, 19_107);
            let got = stepped(cancelling_node(spec, retry, kind));
            assert_eq!(got, want, "{} {retry:?} {kind}", spec.label);
        }
    }
}
