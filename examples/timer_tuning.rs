//! Timer tuning: where is the sweet spot for the refresh and state-timeout
//! timers?
//!
//! The paper's Figures 6–8 show that soft-state protocols trade signaling
//! load against consistency through their timers, and that the cost-optimal
//! refresh timer depends strongly on which mechanisms the protocol has.  This
//! example finds the cost-minimizing refresh timer for every protocol and
//! illustrates the τ/T guidance of Figure 8(a).
//!
//! ```text
//! cargo run --example timer_tuning
//! ```

use signaling::{CostWeights, ProtocolSpec, SingleHopModel, SingleHopParams, Sweep};

/// Finds the refresh timer in `sweep` that minimizes the integrated cost for
/// `protocol`, returning `(timer, cost)`.
fn optimal_refresh_timer(
    protocol: ProtocolSpec,
    base: SingleHopParams,
    weights: CostWeights,
    sweep: &Sweep,
) -> (f64, f64) {
    sweep
        .values
        .iter()
        .map(|&t| {
            let params = base.with_refresh_timer_scaled_timeout(t);
            let s = SingleHopModel::new(protocol, params)
                .expect("valid params")
                .solve()
                .expect("solvable");
            (t, weights.cost(s.inconsistency, s.normalized_message_rate))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .expect("non-empty sweep")
}

fn main() {
    let base = SingleHopParams::kazaa_defaults();
    let weights = CostWeights::default();
    let sweep = Sweep::refresh_timer();

    println!(
        "Cost-optimal refresh timer (tau = 3T) for the Kazaa workload, w = {}:",
        weights.inconsistency_weight
    );
    println!(
        "{:<8} {:>18} {:>14}",
        "protocol", "best T (seconds)", "cost at best T"
    );
    for protocol in ProtocolSpec::PAPER {
        let (t, cost) = optimal_refresh_timer(protocol, base, weights, &sweep);
        if protocol.uses_refresh() {
            println!("{:<8} {:>18.2} {:>14.4}", protocol.label(), t, cost);
        } else {
            println!(
                "{:<8} {:>18} {:>14.4}",
                protocol.label(),
                "(no refresh)",
                cost
            );
        }
    }

    // The τ/T guidance from Figure 8(a): pure soft state wants τ ≈ 2–3 T,
    // reliable-removal protocols prefer τ as large as possible.
    println!("\nInconsistency vs the timeout/refresh ratio (T = 5 s):");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "tau/T", "1.0", "2.0", "3.0", "5.0", "10.0"
    );
    for protocol in [
        ProtocolSpec::SS,
        ProtocolSpec::SS_ER,
        ProtocolSpec::SS_RT,
        ProtocolSpec::SS_RTR,
    ] {
        print!("{:<8}", protocol.label());
        for ratio in [1.0f64, 2.0, 3.0, 5.0, 10.0] {
            let mut params = base;
            params.timeout_timer = ratio * params.refresh_timer;
            let s = SingleHopModel::new(protocol, params)
                .expect("valid params")
                .solve()
                .expect("solvable");
            print!(" {:>10.5}", s.inconsistency);
        }
        println!();
    }

    println!(
        "\nReading: SS and SS+ER bottom out around tau = 2-3 T; SS+RTR keeps improving with\n\
         larger tau because reliable removal no longer depends on the timeout, while a\n\
         timeout shorter than the refresh interval is catastrophic for every soft-state variant."
    );
}
