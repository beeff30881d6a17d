//! Reproduces Figure 17: fraction of time the i-th hop is inconsistent along a 20-hop path.
//!
//! Running `cargo bench --bench fig17_per_hop` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::{MultiHopModel, MultiHopParams, ProtocolSpec};

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig17"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("fig17/solve_20_hop_chain", |b| {
        let params = MultiHopParams::reservation_defaults();
        b.iter(|| {
            for protocol in ProtocolSpec::PAPER_MULTI_HOP {
                black_box(
                    MultiHopModel::new(protocol, black_box(params))
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
