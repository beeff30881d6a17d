//! Reproduces Figure 4: inconsistency ratio and normalized message rate versus the mean state lifetime.
//!
//! Running `cargo bench --bench fig04_lifetime` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;
use signaling::{Protocol, SingleHopModel, SingleHopParams};

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig4a", "fig4b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();
    let paper = Registry::with_builtins();
    let options = ExperimentOptions::default();
    let fig4a = paper.get("fig4a").expect("fig4a is a built-in experiment");

    c.bench_function("fig04/solve_all_protocols_one_lifetime", |b| {
        let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(300.0);
        b.iter(|| {
            for protocol in Protocol::ALL {
                let s = SingleHopModel::new(protocol, black_box(params))
                    .unwrap()
                    .solve()
                    .unwrap();
                black_box(s.inconsistency);
            }
        })
    });
    c.bench_function("fig04/full_lifetime_sweep", |b| {
        b.iter(|| black_box(fig4a.run(&options)))
    });
    c.final_summary();
}
