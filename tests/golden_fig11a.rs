//! Golden test pinning the fig11a JSON byte-for-byte.
//!
//! Figure 11(a) exercises the full simulation stack — event queue, timers,
//! protocols, campaigns, the sweep fan-out and the JSON renderer — so any
//! unintended behavior change anywhere in that stack shows up here as a
//! byte diff.  The fixture was recorded before the slab event-queue rewrite
//! and must stay stable across engine refactors; regenerate it (only after
//! establishing the change is intended) with:
//!
//! ```text
//! cargo run --release --example dump_fig11a > tests/golden/fig11a_quick_serial.json
//! ```

use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;
use signaling::report::render_json;
use signaling::{ExecutionPolicy, ProtocolSpec, ReplicationEngine};

const GOLDEN: &str = include_str!("golden/fig11a_quick_serial.json");

fn fig11a_json_with(options: &ExperimentOptions) -> String {
    let out = Registry::with_builtins()
        .run("fig11a", options)
        .expect("fig11a is a built-in experiment");
    render_json(out.as_figure().expect("fig11a is a figure"))
}

fn fig11a_json(execution: ExecutionPolicy) -> String {
    fig11a_json_with(&ExperimentOptions::quick().with_execution(execution))
}

#[test]
fn fig11a_quick_serial_matches_the_committed_golden_json() {
    // The example appends a trailing newline via println!.
    let fresh = fig11a_json(ExecutionPolicy::Serial) + "\n";
    assert_eq!(
        fresh, GOLDEN,
        "fig11a output drifted from tests/golden/fig11a_quick_serial.json"
    );
}

#[test]
fn fig11a_via_protocol_spec_presets_matches_the_golden_json() {
    // The protocol-layer redesign guarantee: running the figure over the
    // five mechanism-composition presets — through the options-level
    // protocol override, i.e. the `repro --protocols` path — produces
    // byte-for-byte the JSON the closed-enum path recorded.  The fixture
    // predates `ProtocolSpec` and is unchanged.
    let options = ExperimentOptions::quick()
        .with_execution(ExecutionPolicy::Serial)
        .with_protocols(ProtocolSpec::PAPER.to_vec());
    let fresh = fig11a_json_with(&options) + "\n";
    assert_eq!(
        fresh, GOLDEN,
        "the ProtocolSpec preset path drifted from the recorded enum-path output"
    );
}

#[test]
fn fig11a_is_bit_identical_under_every_execution_policy() {
    // The sweep layer fans campaigns out with the work-stealing assignment;
    // outputs must be byte-identical to serial execution regardless.
    let serial = fig11a_json(ExecutionPolicy::Serial);
    for n in [2, 4, 16] {
        assert_eq!(
            serial,
            fig11a_json(ExecutionPolicy::threads(n)),
            "Threads({n}) diverged from Serial"
        );
    }
}

#[test]
fn engine_outputs_are_identical_across_all_assignments() {
    // Determinism at the engine level, through the facade's re-exports:
    // Serial ≡ Threads(n), whose workers steal indices from a shared cursor.
    let task = |i: u64| (i * 2654435761) % 97;
    let serial = ReplicationEngine::new(ExecutionPolicy::Serial).run(41, &task);
    let parallel = ReplicationEngine::new(ExecutionPolicy::threads(4)).run(41, &task);
    assert_eq!(serial, parallel);
}
