//! Microbenchmarks of the `simcore` future event list — the hottest data
//! structure in the repo (every simulated session pops its events through
//! it, and the fig11/fig12 sweeps pop millions per campaign) — measured
//! head-to-head for both ordering cores ([`QueueKind::Heap`] vs
//! [`QueueKind::Calendar`]), and on the small backlogs of one session.
//!
//! Five mixes, each at several backlog sizes, all *stationary* (the backlog
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
//! * **pop-heavy on a lane** — the same hold on a fixed-interval timer: the
//!   backlog sits in one FIFO lane and every replacement is armed a
//!   constant delay ahead, so it always joins the lane and neither core
//!   ever orders a key.
//! * **hold on a small backlog** — the same hold at the 2–16 keys a single
//!   Fig 11/12 session keeps pending, with a session-sized payload (one
//!   32-byte [`SignalMessage`]), on the default heap core, which keeps a
//!   backlog this small unsorted.
//! * **timer re-arm** — the hold plus one [`Timer`] re-armed on every step
//!   a fixed delay past every held key, so it never fires: a receiver's
//!   state timeout restarted by each refresh.  At 4 and 16 keys (the timer
//!   included) the re-arm overwrites the timer's key in place; at 4 096
//!   the heap is ordered and the re-arm falls back to cancel plus
//!   schedule, leaving a stale key for every re-arm still ahead of the
//!   clock (their number levels off once the clock reaches the first).
//!
//! Run with `BENCH_BASELINE_DIR=dir` to record timings, and with
//! `BENCH_COMPARE_DIR=bench-baselines [BENCH_COMPARE_TOLERANCE=x]` to diff a
//! fresh run against committed baselines (non-zero exit on regression).

use criterion::{black_box, Criterion};
use signet::{MsgKind, SignalMessage};
use simcore::{EventQueue, QueueKind, SimRng, SimTime, Timer};

/// Pending-event backlog sizes for each mix (the paper's campaigns sit in
/// the small end — a node of the restart-storm experiment peaks at about
/// 3 550 pending keys, hence 4 096 — and the population-scale node
/// simulation stresses the large end).
const SIZES: &[usize] = &[4_096, 10_000, 100_000, 1_000_000];

/// Both ordering cores, benched under identical mixes.
const KINDS: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Calendar];

/// The fixed interval of the lane hold: every pending key is due within it.
const LANE_INTERVAL: f64 = 1000.0;

/// Backlogs of one session's queue, for the small-backlog hold.
const SMALL_SIZES: &[usize] = &[2, 4, 8, 16];

/// Backlogs of the timer re-arm, the timer included; the last is past the
/// 16 keys the heap core keeps unsorted.
const REARM_SIZES: &[usize] = &[4, 16, 4_096];

/// The timer_rearm timeout: past every hold delay, so the timer is always
/// re-armed before it fires.
const REARM_DELAY: f64 = 1500.0;

/// Builds a queue holding `n` pending events at pseudo-random future
/// times; the `i`th carries `payload(i)`.
fn filled_queue<E>(n: usize, kind: QueueKind, payload: impl Fn(u64) -> E) -> EventQueue<E> {
    let mut rng = SimRng::new(0x5eed);
    let mut q = EventQueue::with_kind(kind);
    for i in 0..n as u64 {
        q.schedule_in(1.0 + 1000.0 * rng.uniform(), payload(i));
    }
    q
}

/// A session-sized payload with sequence number `seq`.
fn message(seq: u64) -> SignalMessage {
    SignalMessage::new(MsgKind::Refresh, 1, seq)
}

fn main() {
    let mut c = Criterion::default().configure_from_args();

    for kind in KINDS {
        for &n in SIZES {
            c.bench_function(&format!("event_queue/cancel_heavy/{kind}/{n}"), |b| {
                let mut q = filled_queue(n, kind, |i| i);
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
                let mut q = filled_queue(n, kind, |i| i);
                let mut rng = SimRng::new(43);
                b.iter(|| {
                    let e = q.pop().expect("backlog never drains");
                    q.schedule_in(1.0 + 1000.0 * rng.uniform(), e.event);
                    black_box(e.time)
                })
            });
        }
    }

    for kind in KINDS {
        for &n in SIZES {
            c.bench_function(&format!("event_queue/pop_heavy_lane/{kind}/{n}"), |b| {
                // `n` keys spread evenly over one interval, in time order,
                // as a population of fixed-interval timers leaves them.
                let mut q = EventQueue::with_kind(kind);
                let lane = q.lane();
                for i in 0..n {
                    let at = 1.0 + LANE_INTERVAL * i as f64 / n as f64;
                    q.schedule_at_lane(lane, SimTime::from_secs(at), i as u64);
                }
                b.iter(|| {
                    let e = q.pop().expect("backlog never drains");
                    q.schedule_in_lane(lane, LANE_INTERVAL, e.event);
                    black_box(e.time)
                })
            });
        }
    }

    for &n in SMALL_SIZES {
        c.bench_function(&format!("event_queue/hold_small/{n}"), |b| {
            let mut q = filled_queue(n, QueueKind::Heap, message);
            let mut rng = SimRng::new(43);
            b.iter(|| {
                let e = q.pop().expect("backlog never drains");
                q.schedule_in(1.0 + 1000.0 * rng.uniform(), e.event);
                black_box(e.time)
            })
        });
    }

    for &n in REARM_SIZES {
        c.bench_function(&format!("event_queue/timer_rearm/{n}"), |b| {
            let mut q = filled_queue(n - 1, QueueKind::Heap, message);
            let mut timer = Timer::new();
            timer.arm(&mut q, REARM_DELAY, message(0));
            let mut rng = SimRng::new(43);
            b.iter(|| {
                let e = q.pop().expect("backlog never drains");
                q.schedule_in(1.0 + 1000.0 * rng.uniform(), e.event);
                timer.arm(&mut q, REARM_DELAY, message(0));
                black_box(e.time)
            })
        });
    }

    c.final_summary();
}
