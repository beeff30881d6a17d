//! Reproduces Figure 5: inconsistency versus channel loss rate and channel delay.
//!
//! Running `cargo bench --bench fig05_loss_delay` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::{Protocol, SingleHopModel, SingleHopParams};

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig5a", "fig5b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("fig05/solve_at_high_loss", |b| {
        let mut params = SingleHopParams::kazaa_defaults();
        params.loss = 0.25;
        b.iter(|| {
            for protocol in Protocol::ALL {
                black_box(
                    SingleHopModel::new(protocol, black_box(params))
                        .unwrap()
                        .solve()
                        .unwrap()
                        .inconsistency,
                );
            }
        })
    });
    c.final_summary();
}
