//! `node_throughput` — the repo's headline speed number: events/sec through
//! a population-scale [`NodeSim`](signaling::NodeSim) at N ∈ {10⁴, 10⁵,
//! 10⁶} concurrent sessions, for both event-queue cores.
//!
//! Each combination builds one node running pure soft state (SS — the
//! densest periodic-timer mix: refresh every `T`, a state timeout per held
//! session, plus churn), warms it past the initial arrival wave into the
//! stationary regime, and then measures `step_events` batches.  The bench
//! prints, per combination:
//!
//! * the measured **events/sec** (the headline, from one continuous
//!   wall-clock measurement outside the criterion loop), and
//! * the measured **bytes/session** (shared event queue + session slab),
//!
//! and records the per-batch timing through the criterion harness so
//! `BENCH_BASELINE_DIR` / `BENCH_COMPARE_DIR` gate regressions like every
//! other bench.  The simulation is deterministic, so both cores process the
//! byte-identical event sequence — the timing difference is purely the
//! ordering core.
//!
//! The `node_build/heap/{10⁴, 10⁵}` rows time the set-up instead: building
//! the node (which files the arrival wave) plus the 4N-event warm-up.
//!
//! The `node_steady/heap/10⁵` row times the timeout phase: a node run past
//! three state timeouts (the first fires about τ = 15 s in, after the
//! `node_throughput` rows' warm-up), where every session's timeout is
//! re-arming lazily and the timeout keys ride their own queue lanes.

// The headline events/sec number is a wall-clock measurement by definition.
#![allow(clippy::disallowed_methods)]

use criterion::{black_box, Criterion};
use signaling::{NodeConfig, NodeSim, ProtocolSpec, QueueKind, SingleHopParams};
use std::time::Instant;

/// Concurrent-session populations (the 10⁶ row is the headline).
const SIZES: &[usize] = &[10_000, 100_000, 1_000_000];

/// Both ordering cores, head to head on identical event sequences.
const KINDS: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Calendar];

/// Events per measured batch: large enough to amortize loop overhead, small
/// enough that criterion gets many samples per measurement window.
const BATCH: u64 = 4096;

/// Populations of the `node_build` rows: building a node and warming it,
/// the set-up every node run pays before its first measured event.
const BUILD_SIZES: &[usize] = &[10_000, 100_000];

/// Population of the `node_steady` row.
const STEADY_SIZE: usize = 100_000;

/// The node every row runs: pure soft state on Kazaa parameters with a
/// ten-minute lifetime, whose stationary mix is dominated by refresh and
/// timeout timers with steady churn underneath.
fn node_config(n: usize, kind: QueueKind) -> NodeConfig {
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(600.0);
    NodeConfig::new(ProtocolSpec::SS, params, n).with_queue_kind(kind)
}

/// Builds a warmed node at population `n`: every session has arrived and the
/// queue sits at its stationary backlog.
fn warmed_node(n: usize, kind: QueueKind) -> NodeSim {
    let mut sim = NodeSim::new(node_config(n, kind), 0x90de);
    // Processing 4n events takes the node through the arrival wave (one
    // arrival, trigger delivery, refresh arm and timeout arm per session)
    // into the periodic steady state.
    sim.step_events(4 * n as u64);
    sim
}

fn main() {
    let mut c = Criterion::default().configure_from_args();

    for kind in KINDS {
        for &n in SIZES {
            let mut sim = warmed_node(n, kind);

            // Headline measurement: one continuous run, long enough to
            // cycle the whole backlog several times at 10⁶ sessions.
            let measure = (8 * n as u64).max(2_000_000);
            let start = Instant::now();
            let processed = sim.step_events(measure);
            let elapsed = start.elapsed().as_secs_f64();
            println!(
                "node_throughput/{kind}/{n}: {:.3e} events/sec   ({processed} events in \
                 {elapsed:.2} s, {:.1} bytes/session, {} pending)",
                processed as f64 / elapsed,
                sim.bytes_per_session(),
                sim.pending_events(),
            );

            c.bench_function(&format!("node_throughput/{kind}/{n}"), |b| {
                b.iter(|| black_box(sim.step_events(BATCH)))
            });
        }
    }

    for &n in BUILD_SIZES {
        c.bench_function(&format!("node_build/heap/{n}"), |b| {
            b.iter(|| black_box(warmed_node(n, QueueKind::Heap).pending_events()))
        });
    }

    // Run to a horizon one refresh interval past 3τ, then step on from
    // there (the level meters clamp at the horizon; the events go on).
    let cfg = node_config(STEADY_SIZE, QueueKind::Heap);
    let past = 3.0 * cfg.params.timeout_timer + cfg.params.refresh_timer;
    let mut sim = NodeSim::new(cfg.with_horizon(past), 0x90de);
    sim.run();
    c.bench_function(&format!("node_steady/heap/{STEADY_SIZE}"), |b| {
        b.iter(|| black_box(sim.step_events(BATCH)))
    });

    c.final_summary();
}
