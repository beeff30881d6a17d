//! Reproduces Figure 7: integrated cost (w*I + M) versus the refresh timer.
//!
//! Running `cargo bench --bench fig07_integrated_cost` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::{integrated_cost, Protocol, SingleHopModel, SingleHopParams};

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig7"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("fig07/integrated_cost_single_point", |b| {
        let params = SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(5.0);
        b.iter(|| {
            let s = SingleHopModel::new(Protocol::SsEr, black_box(params))
                .unwrap()
                .solve()
                .unwrap();
            black_box(integrated_cost(
                s.inconsistency,
                s.normalized_message_rate,
                10.0,
            ))
        })
    });
    c.final_summary();
}
