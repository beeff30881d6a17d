//! Reproduces Figure 6: inconsistency and message rate versus the soft-state refresh timer.
//!
//! Running `cargo bench --bench fig06_refresh_timer` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig6a", "fig6b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();
    let paper = Registry::with_builtins();
    let options = ExperimentOptions::default();
    let fig6a = paper.get("fig6a").expect("fig6a is a built-in experiment");

    c.bench_function("fig06/refresh_timer_sweep", |b| {
        b.iter(|| black_box(fig6a.run(&options)))
    });
    c.final_summary();
}
