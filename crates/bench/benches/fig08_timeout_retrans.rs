//! Reproduces Figure 8: inconsistency versus the state-timeout timer and the retransmission timer.
//!
//! Running `cargo bench --bench fig08_timeout_retrans` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig8a", "fig8b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();
    let paper = Registry::with_builtins();
    let options = ExperimentOptions::default();
    let fig8a = paper.get("fig8a").expect("fig8a is a built-in experiment");
    let fig8b = paper.get("fig8b").expect("fig8b is a built-in experiment");

    c.bench_function("fig08/timeout_sweep", |b| {
        b.iter(|| black_box(fig8a.run(&options)))
    });
    c.bench_function("fig08/retrans_sweep", |b| {
        b.iter(|| black_box(fig8b.run(&options)))
    });
    c.final_summary();
}
