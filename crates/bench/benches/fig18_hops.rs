//! Reproduces Figure 18: end-to-end inconsistency and message rate versus the number of hops.
//!
//! Running `cargo bench --bench fig18_hops` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig18a", "fig18b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();
    let paper = Registry::with_builtins();
    let options = ExperimentOptions::default();
    let fig18a = paper
        .get("fig18a")
        .expect("fig18a is a built-in experiment");

    c.bench_function("fig18/hop_count_sweep", |b| {
        b.iter(|| black_box(fig18a.run(&options)))
    });
    c.final_summary();
}
