//! Reproduces Figure 10: the overhead/inconsistency tradeoff under varying update rate and channel delay.
//!
//! Running `cargo bench --bench fig10_tradeoff_update_delay` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig10a", "fig10b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();
    let paper = Registry::with_builtins();
    let options = ExperimentOptions::default();
    let fig10a = paper
        .get("fig10a")
        .expect("fig10a is a built-in experiment");
    let fig10b = paper
        .get("fig10b")
        .expect("fig10b is a built-in experiment");

    c.bench_function("fig10/tradeoff_sweeps", |b| {
        b.iter(|| {
            black_box(fig10a.run(&options));
            black_box(fig10b.run(&options));
        })
    });
    c.final_summary();
}
