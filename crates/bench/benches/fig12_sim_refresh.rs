//! Reproduces Figure 12: analytic model versus deterministic-timer simulation, sweeping the refresh timer.
//!
//! Running `cargo bench --bench fig12_sim_refresh` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::{Campaign, ProtocolSpec, SessionConfig, SingleHopParams};

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig12a", "fig12b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("fig12/campaign_of_ten_sessions", |b| {
        let cfg = SessionConfig::deterministic(
            ProtocolSpec::SS,
            SingleHopParams::kazaa_defaults()
                .with_mean_lifetime(300.0)
                .with_refresh_timer_scaled_timeout(5.0),
        );
        b.iter(|| black_box(Campaign::new(cfg, 10, 1).run()))
    });
    c.final_summary();
}
