//! Microbenchmarks of the `simcore` future event list — the hottest data
//! structure in the repo (every simulated session pops its events through
//! it, and the fig11/fig12 sweeps pop millions per campaign) — measured
//! head-to-head for both ordering cores ([`QueueKind::Heap`] vs
//! [`QueueKind::Calendar`]).
//!
//! Two mixes, each at several backlog sizes, both *stationary* (the backlog
//! holds exactly `n` keys in steady state, so per-iteration cost does not
//! drift with the iteration count):
//!
//! * **cancel-heavy** — the protocols' timer-restart pattern: with `n`
//!   events pending, each iteration schedules a short-delay event (a
//!   retransmission timer), immediately cancels it, and peeks — which
//!   reclaims the cancelled event's key from the front, keeping the
//!   structure at `n (+1)` keys.  No payload is ever delivered: this
//!   isolates schedule/cancel/reclaim.
//! * **pop-heavy** — event delivery: with `n` events pending, each
//!   iteration pops the earliest event and schedules a replacement, keeping
//!   the backlog constant (the classic "hold" model of event-list papers).
//!   This is where the heap pays O(log n) sifts through cache-cold levels
//!   and the calendar stays O(1); the crossover is documented in
//!   `docs/perf.md`.
//!
//! Run with `BENCH_BASELINE_DIR=dir` to record timings, and with
//! `BENCH_COMPARE_DIR=bench-baselines [BENCH_COMPARE_TOLERANCE=x]` to diff a
//! fresh run against committed baselines (non-zero exit on regression).

use criterion::{black_box, Criterion};
use simcore::{EventQueue, QueueKind, SimRng};

/// Pending-event backlog sizes for each mix (the paper's campaigns sit in
/// the small end — a node of the restart-storm experiment peaks at about
/// 3 550 pending keys, hence 4 096 — and the population-scale node
/// simulation stresses the large end).
const SIZES: &[usize] = &[4_096, 10_000, 100_000, 1_000_000];

/// Both ordering cores, benched under identical mixes.
const KINDS: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Calendar];

/// Builds a queue holding `n` pending events at pseudo-random future times.
fn filled_queue(n: usize, kind: QueueKind) -> EventQueue<u64> {
    let mut rng = SimRng::new(0x5eed);
    let mut q = EventQueue::with_kind(kind);
    for i in 0..n {
        q.schedule_in(1.0 + 1000.0 * rng.uniform(), i as u64);
    }
    q
}

fn main() {
    let mut c = Criterion::default().configure_from_args();

    for kind in KINDS {
        for &n in SIZES {
            c.bench_function(&format!("event_queue/cancel_heavy/{kind}/{n}"), |b| {
                let mut q = filled_queue(n, kind);
                b.iter(|| {
                    // A short-delay expiry — the retransmission-timer
                    // pattern: armed ahead of everything pending, cancelled
                    // before it fires.  The key surfaces at the front, so
                    // the peek reclaims it immediately and the backlog
                    // stays at exactly n (+1) keys.
                    let id = q.schedule_in(1e-9, 0);
                    let cancelled = q.cancel(black_box(id));
                    black_box((cancelled, q.peek_time()))
                })
            });
        }
    }

    for kind in KINDS {
        for &n in SIZES {
            c.bench_function(&format!("event_queue/pop_heavy/{kind}/{n}"), |b| {
                let mut q = filled_queue(n, kind);
                let mut rng = SimRng::new(43);
                b.iter(|| {
                    let e = q.pop().expect("backlog never drains");
                    q.schedule_in(1.0 + 1000.0 * rng.uniform(), e.event);
                    black_box(e.time)
                })
            });
        }
    }

    c.final_summary();
}
