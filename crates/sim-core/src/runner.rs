//! The generic parallel replication engine.
//!
//! Every statistics-producing layer of the workspace runs the same shape of
//! job: *N independent, seed-indexed replications whose outputs are collected
//! in index order*.  A simulation campaign replicates sessions; the sweep
//! layer replicates whole campaigns across (protocol × sweep-point) pairs.
//! This module implements that shape exactly once:
//!
//! * [`Replicate`] — a task that can run replication `index` and produce an
//!   output (the implementor derives its RNG from the index, which is what
//!   makes the fan-out embarrassingly parallel *and* deterministic);
//! * [`ExecutionPolicy`] — serial, or a fixed number of OS threads;
//! * [`ReplicationEngine`] — runs `count` replications under a policy and
//!   returns the outputs **in replication order**, so results are
//!   bit-identical no matter how the work was scheduled.
//!
//! Closures `Fn(u64) -> T + Sync` implement [`Replicate`] directly, so ad-hoc
//! fan-out does not require a named type.

use std::num::NonZeroUsize;

/// A replicable unit of work: given a replication index, produce that
/// replication's output.
///
/// Implementations must be pure functions of `self` and `index` (deriving any
/// randomness from the index) — the engine relies on this for deterministic
/// results under every [`ExecutionPolicy`].
pub trait Replicate: Sync {
    /// The per-replication output.
    type Output: Send;

    /// Runs replication `index`.
    fn replicate(&self, index: u64) -> Self::Output;
}

impl<T: Send, F: Fn(u64) -> T + Sync> Replicate for F {
    type Output = T;

    fn replicate(&self, index: u64) -> T {
        self(index)
    }
}

/// How a [`ReplicationEngine`] schedules replications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionPolicy {
    /// Run every replication on the calling thread, in index order.
    #[default]
    Serial,
    /// Fan out across up to `n` OS threads (clamped to the replication
    /// count; `Threads(1)` behaves like [`ExecutionPolicy::Serial`]).
    Threads(NonZeroUsize),
}

impl ExecutionPolicy {
    /// One thread per available CPU, falling back to serial execution when
    /// parallelism cannot be determined.
    pub fn auto() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) => ExecutionPolicy::Threads(n),
            Err(_) => ExecutionPolicy::Serial,
        }
    }

    /// `Threads(n)` for a plain integer, treating `n <= 1` as serial.
    pub fn threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) if n.get() > 1 => ExecutionPolicy::Threads(n),
            _ => ExecutionPolicy::Serial,
        }
    }

    /// The number of worker threads this policy uses for `count` jobs.
    fn worker_count(&self, count: usize) -> usize {
        match self {
            ExecutionPolicy::Serial => 1,
            ExecutionPolicy::Threads(n) => n.get().min(count).max(1),
        }
    }
}

/// Runs replicable tasks under an [`ExecutionPolicy`].
///
/// Threaded runs use work stealing: workers claim the next unclaimed index
/// from a shared atomic cursor and write each result into its index slot.
/// No worker idles while indices remain, so utilization holds up under
/// arbitrarily skewed per-index costs (session length growing with the sweep
/// index, say), and outputs still come back in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationEngine {
    policy: ExecutionPolicy,
}

impl ReplicationEngine {
    /// An engine with the given policy.
    pub fn new(policy: ExecutionPolicy) -> Self {
        Self { policy }
    }

    /// An engine using every available CPU.
    pub fn auto() -> Self {
        Self::new(ExecutionPolicy::auto())
    }

    /// The policy this engine schedules with.
    pub fn policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// Runs replications `0..count` of `task` and returns the outputs in
    /// replication order.
    ///
    /// The output is a pure function of `task` and `count`: every policy
    /// produces the identical `Vec`, because each replication derives its own
    /// randomness from its index and outputs are placed by index.
    pub fn run<R: Replicate>(&self, count: usize, task: &R) -> Vec<R::Output> {
        let workers = self.policy.worker_count(count);
        if workers <= 1 || count <= 1 {
            return (0..count as u64).map(|i| task.replicate(i)).collect();
        }
        run_work_stealing(workers, count, task)
    }
}

/// Work stealing: every worker claims the next unclaimed index from a shared
/// atomic cursor and stores its output into that index's slot (a `Mutex` per
/// slot — uncontended by construction, since each index is claimed exactly
/// once and replication dominates the lock by orders of magnitude).
fn run_work_stealing<R: Replicate>(workers: usize, count: usize, task: &R) -> Vec<R::Output> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R::Output>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let output = task.replicate(index as u64);
                // sigtidy: allow(no-unwrap) — poisoning implies a worker already panicked; propagate
                *slots[index].lock().expect("slot lock poisoned") = Some(output);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // sigtidy: allow(no-unwrap) — poisoning implies a worker already panicked; propagate
                .expect("slot lock poisoned")
                // sigtidy: allow(no-unwrap) — the cursor hands out every index exactly once
                .expect("every claimed index produced an output")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_runs_in_index_order() {
        let engine = ReplicationEngine::new(ExecutionPolicy::Serial);
        let out = engine.run(5, &|i: u64| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn threads_match_serial_bit_for_bit() {
        let task = |i: u64| {
            let mut rng = SimRng::for_replication(99, i);
            (0..50).map(|_| rng.uniform()).sum::<f64>()
        };
        let serial = ReplicationEngine::new(ExecutionPolicy::Serial).run(37, &task);
        for n in [2, 3, 8, 64] {
            let parallel = ReplicationEngine::new(ExecutionPolicy::threads(n)).run(37, &task);
            assert_eq!(serial, parallel, "policy Threads({n}) diverged");
        }
        let auto = ReplicationEngine::auto().run(37, &task);
        assert_eq!(serial, auto);
    }

    #[test]
    fn work_stealing_matches_serial_bit_for_bit() {
        // The engine contract under wildly skewed per-index costs: no matter
        // how workers interleave their claims, outputs come back in index
        // order, identical to Serial — including for worker counts that
        // exceed, divide, and do not divide the count.
        let task = |i: u64| {
            let mut rng = SimRng::for_replication(21, i);
            let work = (i % 17) as usize * 12;
            (0..work).map(|_| rng.uniform()).sum::<f64>() + i as f64
        };
        let serial = ReplicationEngine::new(ExecutionPolicy::Serial).run(59, &task);
        for n in [2, 3, 8, 64] {
            let stealing = ReplicationEngine::new(ExecutionPolicy::threads(n)).run(59, &task);
            assert_eq!(serial, stealing, "Threads({n}) diverged");
        }
    }

    #[test]
    fn work_stealing_every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = ReplicationEngine::new(ExecutionPolicy::threads(7)).run(103, &|i: u64| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 103);
        assert_eq!(out, (0..103u64).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = ReplicationEngine::new(ExecutionPolicy::threads(4)).run(100, &|i: u64| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_counts_are_fine() {
        let engine = ReplicationEngine::auto();
        assert!(engine.run(0, &|i: u64| i).is_empty());
        assert_eq!(engine.run(1, &|i: u64| i), vec![0]);
    }

    #[test]
    fn policy_constructors() {
        assert_eq!(ExecutionPolicy::threads(0), ExecutionPolicy::Serial);
        assert_eq!(ExecutionPolicy::threads(1), ExecutionPolicy::Serial);
        assert!(matches!(
            ExecutionPolicy::threads(4),
            ExecutionPolicy::Threads(n) if n.get() == 4
        ));
        assert_eq!(ExecutionPolicy::Serial.worker_count(10), 1);
        assert_eq!(ExecutionPolicy::threads(8).worker_count(3), 3);
        assert_eq!(ExecutionPolicy::threads(8).worker_count(100), 8);
    }

    #[test]
    fn named_replicate_impl_works() {
        struct Doubler;
        impl Replicate for Doubler {
            type Output = u64;
            fn replicate(&self, index: u64) -> u64 {
                index * 2
            }
        }
        let out = ReplicationEngine::new(ExecutionPolicy::threads(3)).run(6, &Doubler);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }
}
