//! A single-hop session allocates only while it sets up and grows its event
//! queue, never per message: with tracing off, a session at a mean lifetime
//! of 10⁴ s (hundreds of messages) stays under the same small allocation
//! bound as one at 10² s (a handful).

use siganalytic::{ProtocolSpec, SingleHopParams};
use sigproto::{SessionConfig, SingleHopSession};
use simcore::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on the current thread, so that tests running on
/// other threads do not disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-up plus a few doublings of the event queue's vectors; the largest
/// paper-preset session measured 25.
const MAX_SESSION_ALLOCS: u64 = 32;

/// Allocations and messages of one untraced session.
fn run_counted(spec: ProtocolSpec, lifetime: f64) -> (u64, u64) {
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(lifetime);
    let cfg = SessionConfig::deterministic(spec, params);
    let mut rng = SimRng::new(7);
    let before = ALLOCS.with(Cell::get);
    let metrics = SingleHopSession::run(&cfg, &mut rng);
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, metrics.messages.signaling_total())
}

#[test]
fn session_allocations_do_not_grow_with_messages() {
    for spec in ProtocolSpec::PAPER {
        let (short_allocs, short_msgs) = run_counted(spec, 1e2);
        let (long_allocs, long_msgs) = run_counted(spec, 1e4);
        assert!(
            long_msgs > 10 * short_msgs,
            "{}: {short_msgs} vs {long_msgs} messages",
            spec.label
        );
        for (allocs, msgs) in [(short_allocs, short_msgs), (long_allocs, long_msgs)] {
            assert!(
                allocs <= MAX_SESSION_ALLOCS,
                "{}: {allocs} allocations for {msgs} messages",
                spec.label
            );
        }
    }
}
