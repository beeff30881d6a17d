//! Reproduces Figure 19: multi-hop inconsistency and message rate versus the refresh timer.
//!
//! Running `cargo bench --bench fig19_multihop_refresh` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig19a", "fig19b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();
    let paper = Registry::with_builtins();
    let options = ExperimentOptions::default();
    let fig19a = paper
        .get("fig19a")
        .expect("fig19a is a built-in experiment");

    c.bench_function("fig19/refresh_timer_sweep", |b| {
        b.iter(|| black_box(fig19a.run(&options)))
    });
    c.final_summary();
}
