//! Replays of layer calls the workloads make inside other crates' code,
//! run on each workload's own inputs so that a layer's cost can be read
//! per operation: transition-table evaluation and sweep-session solves
//! (`siganalytic`), LU factorisation of the same generators (`ctmc`),
//! event-queue hold and cancel (`simcore`), admission and fault lookup
//! (`signet`), and the streaming meters (`sigstats`).

use crate::harness::Checker;
use crate::stats::median;
use ctmc::{CtmcBuilder, DMatrix, LuSolver};
use siganalytic::multi_hop::transitions::{multi_hop_transitions_into, MultiHopRateEntry};
use siganalytic::multi_hop::MultiHopState;
use siganalytic::single_hop::{protocol_transitions, protocol_transitions_into, SingleHopState};
use siganalytic::{
    MultiHopParams, MultiHopSweepSession, ProtocolSpec, SingleHopParams, SingleHopSweepSession,
};
use signet::{CapacityModel, CapacityState, FaultClock, FaultSchedule};
use sigstats::{BinnedMeter, LevelMeter, RateMeter};
use simcore::{EventQueue, QueueKind, SimRng, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One analytic solve of a workload's grid.
#[derive(Debug, Clone, Copy)]
pub enum Point {
    Single(ProtocolSpec, SingleHopParams),
    Multi(ProtocolSpec, MultiHopParams),
}

/// Per-pass costs and counts of replaying a grid.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GridCost {
    pub solves: u64,
    pub factor_calls: u64,
    pub flops: u64,
    pub table_eval_s: f64,
    pub single_hop_solve_s: f64,
    pub multi_hop_solve_s: f64,
    pub factor_s: f64,
    pub solve_s: f64,
}

/// Replays `points` until `budget` has passed (at least once) and returns
/// the median cost of one replay.  Every replay checks that each
/// stationary distribution sums to one, and that the counts repeat.
pub fn replay_grid(points: &[Point], budget: Duration, ck: &mut Checker) -> GridCost {
    let start = Instant::now();
    let mut runs: Vec<GridCost> = Vec::new();
    while runs.is_empty() || start.elapsed() < budget {
        // One check per replay, so replays do not swamp the pass checks.
        let mut point_checks = Checker::default();
        let run = replay_grid_once(points, &mut point_checks);
        ck.expect(
            point_checks.failed == 0,
            &format!(
                "grid replay: {} of {} point checks failed",
                point_checks.failed, point_checks.attempted
            ),
        );
        if let Some(first) = runs.first() {
            let counts = |c: &GridCost| (c.solves, c.factor_calls, c.flops);
            ck.expect(counts(first) == counts(&run), "grid replay counts repeat");
        }
        runs.push(run);
    }
    let med = |f: fn(&GridCost) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    GridCost {
        table_eval_s: med(|c| c.table_eval_s),
        single_hop_solve_s: med(|c| c.single_hop_solve_s),
        multi_hop_solve_s: med(|c| c.multi_hop_solve_s),
        factor_s: med(|c| c.factor_s),
        solve_s: med(|c| c.solve_s),
        ..runs[0]
    }
}

fn replay_grid_once(points: &[Point], ck: &mut Checker) -> GridCost {
    let mut cost = GridCost::default();
    let mut single = SingleHopSweepSession::new();
    let mut multi = MultiHopSweepSession::new();
    let mut table = protocol_transitions(ProtocolSpec::SS, &SingleHopParams::kazaa_defaults());
    let mut entries: Vec<MultiHopRateEntry> = Vec::new();
    for point in points {
        match *point {
            Point::Single(spec, p) => {
                let t = Instant::now();
                protocol_transitions_into(spec, &p, &mut table);
                cost.table_eval_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let solved = single.solve(spec, p);
                cost.single_hop_solve_s += t.elapsed().as_secs_f64();
                cost.solves += 1;
                match solved {
                    Ok(s) => {
                        ck.in_range(s.inconsistency, 0.0, 1.0, "single-hop inconsistency");
                        ck.in_range(
                            s.stationary.values().sum(),
                            1.0 - 1e-9,
                            1.0 + 1e-9,
                            "single-hop sum of pi",
                        );
                    }
                    Err(e) => ck.expect(false, &format!("{}: {e}", spec.label())),
                }
                // The sweep session factors two chains per point: the
                // stationary chain (absorption folded back into set-up) and
                // the transient chain behind the expected lifetime.
                let mut merged = CtmcBuilder::new();
                merged.state(SingleHopState::Setup1);
                let mut life = CtmcBuilder::new();
                life.state(SingleHopState::Setup1);
                life.state(SingleHopState::Absorbed);
                for e in &table.entries {
                    let folded = if e.to == SingleHopState::Absorbed {
                        SingleHopState::Setup1
                    } else {
                        e.to
                    };
                    let ok = merged.transition(e.from, folded, e.rate).is_ok()
                        && life.transition(e.from, e.to, e.rate).is_ok();
                    ck.expect(ok, "single-hop rates are valid");
                }
                stationary_lu(&merged, &mut cost, ck);
                absorption_lu(&life, &SingleHopState::Absorbed, &mut cost, ck);
            }
            Point::Multi(spec, p) => {
                let t = Instant::now();
                multi_hop_transitions_into(spec, &p, &mut entries);
                cost.table_eval_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let solved = multi.solve(spec, p);
                cost.multi_hop_solve_s += t.elapsed().as_secs_f64();
                cost.solves += 1;
                match solved {
                    Ok(s) => {
                        ck.in_range(s.inconsistency, 0.0, 1.0, "multi-hop inconsistency");
                        ck.in_range(
                            s.stationary.values().sum(),
                            1.0 - 1e-9,
                            1.0 + 1e-9,
                            "multi-hop sum of pi",
                        );
                    }
                    Err(e) => ck.expect(false, &format!("{}: {e}", spec.label())),
                }
                let mut chain = CtmcBuilder::new();
                chain.states(MultiHopState::enumerate(
                    p.hops,
                    spec.has_external_detector(),
                ));
                for e in &entries {
                    let ok = chain.transition(e.from, e.to, e.rate).is_ok();
                    ck.expect(ok, "multi-hop rates are valid");
                }
                stationary_lu(&chain, &mut cost, ck);
            }
        }
    }
    cost
}

/// Factors and solves the stationary system `πQ = 0, Σπ = 1` of `chain`.
fn stationary_lu<S>(chain: &CtmcBuilder<S>, cost: &mut GridCost, ck: &mut Checker)
where
    S: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let Ok(ctmc) = chain.build() else {
        ck.expect(false, "chain builds");
        return;
    };
    let mut a = ctmc.generator().transpose();
    let n = a.rows();
    for c in 0..n {
        let _ = a.set(n - 1, c, 1.0);
    }
    let mut rhs = vec![0.0; n];
    rhs[n - 1] = 1.0;
    if let Some(pi) = factor_and_solve(&a, &rhs, cost, ck) {
        ck.in_range(pi.iter().sum(), 1.0 - 1e-9, 1.0 + 1e-9, "LU sum of pi");
    }
}

/// Factors and solves `-Q_TT m = 1` over the transient states of `chain`.
fn absorption_lu<S>(chain: &CtmcBuilder<S>, absorbing: &S, cost: &mut GridCost, ck: &mut Checker)
where
    S: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let (Ok(ctmc), Some(absorbed)) = (chain.build(), chain.index_of(absorbing)) else {
        ck.expect(false, "absorbing chain builds");
        return;
    };
    let transient: Vec<usize> = (0..chain.num_states()).filter(|&i| i != absorbed).collect();
    let Ok(mut sub) = ctmc.generator().submatrix(&transient) else {
        ck.expect(false, "transient submatrix");
        return;
    };
    for v in sub.as_mut_slice() {
        *v = -*v;
    }
    let ones = vec![1.0; transient.len()];
    if let Some(m) = factor_and_solve(&sub, &ones, cost, ck) {
        ck.expect(
            m.iter().all(|t| t.is_finite() && *t >= 0.0),
            "mean times to absorption",
        );
    }
}

fn factor_and_solve(
    a: &DMatrix,
    b: &[f64],
    cost: &mut GridCost,
    ck: &mut Checker,
) -> Option<Vec<f64>> {
    let n = a.rows() as f64;
    let t = Instant::now();
    let lu = LuSolver::factor(a);
    cost.factor_s += t.elapsed().as_secs_f64();
    cost.factor_calls += 1;
    let lu = match lu {
        Ok(lu) => lu,
        Err(e) => {
            ck.expect(false, &format!("LU factor: {e}"));
            return None;
        }
    };
    let t = Instant::now();
    let x = lu.solve(b);
    cost.solve_s += t.elapsed().as_secs_f64();
    cost.flops += (2.0 * n * n * n / 3.0 + 2.0 * n * n).round() as u64;
    match x {
        Ok(x) => Some(x),
        Err(e) => {
            ck.expect(false, &format!("LU solve: {e}"));
            None
        }
    }
}

/// Queue operations each `simcore` replay times.
const QUEUE_OPS: u32 = 1 << 20;

/// Per-operation costs of an event queue holding `backlog` events.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueCost {
    /// One hold: pop the minimum and schedule a successor.
    pub hold_ns: f64,
    /// One schedule immediately followed by its cancel.
    pub cancel_ns: f64,
}

/// Replays hold and schedule+cancel on a standalone heap-core queue at
/// `backlog` pending events, with event times spread like a timer wheel of
/// period `period` seconds.
pub fn replay_queue(backlog: usize, period: f64, seed: u64) -> QueueCost {
    let backlog = backlog.max(1);
    let mut rng = SimRng::new(seed);
    let mut queue = EventQueue::with_capacity_and_kind(backlog + 8, QueueKind::Heap);
    for i in 0..backlog {
        queue.schedule_at(SimTime::from_secs(rng.uniform_range(0.0, period)), i as u32);
    }
    let t = Instant::now();
    for _ in 0..QUEUE_OPS {
        let Some(e) = queue.pop() else { break };
        let next = e.time.after(rng.uniform_range(0.0, period));
        queue.schedule_at(next, black_box(e.event));
    }
    let hold_ns = t.elapsed().as_nanos() as f64 / QUEUE_OPS as f64;
    let t = Instant::now();
    for i in 0..QUEUE_OPS {
        let at = queue.now().after(rng.uniform_range(0.0, period));
        let id = queue.schedule_at(at, i);
        black_box(queue.cancel(id));
    }
    let cancel_ns = t.elapsed().as_nanos() as f64 / QUEUE_OPS as f64;
    QueueCost { hold_ns, cancel_ns }
}

/// Calls each `signet` and `sigstats` replay makes.
const CALLS: u32 = 1 << 22;

/// Nanoseconds per `CapacityState::admit` for arrivals at `rate` per second.
pub fn replay_admit(model: CapacityModel, rate: f64) -> f64 {
    let mut state = CapacityState::default();
    let dt = 1.0 / rate.max(1e-9);
    let t = Instant::now();
    for i in 0..CALLS {
        black_box(state.admit(&model, black_box(i as f64 * dt)));
    }
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

/// Nanoseconds per `FaultClock::link_effect` over `[0, horizon)`.
pub fn replay_fault_lookup(schedule: FaultSchedule, horizon: f64) -> f64 {
    let clock = FaultClock::new(schedule);
    let dt = horizon / CALLS as f64;
    let t = Instant::now();
    for i in 0..CALLS {
        black_box(clock.link_effect(black_box(i as f64 * dt)));
    }
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

/// Nanoseconds per node-style meter update — one `LevelMeter` step, one
/// `BinnedMeter` step and one `RateMeter` record — spread over `horizon`.
pub fn replay_meters(horizon: f64) -> f64 {
    let mut level = LevelMeter::new(0.0);
    let mut binned = BinnedMeter::new(0.0, 1.0);
    let mut rate = RateMeter::new(horizon, 1.0);
    let dt = horizon / CALLS as f64;
    let t = Instant::now();
    for i in 0..CALLS {
        let at = i as f64 * dt;
        let delta = if i % 2 == 0 { 1 } else { -1 };
        level.step(at, delta);
        binned.step(at, delta);
        rate.record(at);
    }
    black_box((level.integral_until(horizon), binned.level(), rate.total()));
    t.elapsed().as_nanos() as f64 / CALLS as f64
}
