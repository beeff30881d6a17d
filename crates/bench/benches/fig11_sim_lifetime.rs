//! Reproduces Figure 11: analytic model (exponential timers) versus deterministic-timer simulation, sweeping the state lifetime.
//!
//! Running `cargo bench --bench fig11_sim_lifetime` first prints the regenerated data
//! series (the reproduction itself), then times the computation behind it
//! with Criterion.

use criterion::{black_box, Criterion};
use signaling::{Protocol, SessionConfig, SimRng, SingleHopParams, SingleHopSession};

fn main() {
    // Reproduction: print the regenerated series.
    sigbench::print_experiments(&["fig11a", "fig11b"]);

    // Benchmark: time the computation behind the figure.
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("fig11/single_simulated_session", |b| {
        let cfg = SessionConfig::deterministic(
            Protocol::SsEr,
            SingleHopParams::kazaa_defaults().with_mean_lifetime(300.0),
        );
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::new(seed);
            black_box(SingleHopSession::run(&cfg, &mut rng))
        })
    });
    c.final_summary();
}
