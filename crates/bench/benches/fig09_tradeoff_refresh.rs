//! Reproduces Figure 9: message overhead versus inconsistency, tracing out the refresh-timer tradeoff.
//!
//! Running `cargo bench --bench fig09_tradeoff_refresh` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig9"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();
    let paper = Registry::with_builtins();
    let options = ExperimentOptions::default();
    let fig9 = paper.get("fig9").expect("fig9 is a built-in experiment");

    c.bench_function("fig09/tradeoff_sweep", |b| {
        b.iter(|| black_box(fig9.run(&options)))
    });
    c.final_summary();
}
