//! Quickstart: compare the five signaling protocols on the paper's default
//! (Kazaa peer ↔ supernode) workload, both analytically and by simulation.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use signaling::{
    Campaign, ExecutionPolicy, ProtocolSpec, SessionConfig, SimRng, SingleHopModel,
    SingleHopParams, SingleHopSession,
};

fn main() {
    let params = SingleHopParams::kazaa_defaults();

    println!("Hard-state vs soft-state signaling — quickstart");
    println!(
        "Workload: p_l = {}, Delta = {} s, 1/lambda_u = {:.0} s, 1/lambda_r = {:.0} s, T = {} s, tau = {} s\n",
        params.loss,
        params.delay,
        1.0 / params.update_rate,
        params.mean_lifetime(),
        params.refresh_timer,
        params.timeout_timer
    );

    // ------------------------------------------------------------------
    // 1. The analytic model (Section III-A of the paper).
    // ------------------------------------------------------------------
    println!("Analytic model (single hop):");
    println!(
        "{:<8} {:>16} {:>16} {:>16}",
        "protocol", "inconsistency", "msg rate M", "cost (w=10)"
    );
    for protocol in ProtocolSpec::PAPER {
        let solution = SingleHopModel::new(protocol, params)
            .expect("valid parameters")
            .solve()
            .expect("solvable model");
        println!(
            "{:<8} {:>16.6} {:>16.6} {:>16.6}",
            protocol.label(),
            solution.inconsistency,
            solution.normalized_message_rate,
            solution.integrated_cost(10.0)
        );
    }

    // ------------------------------------------------------------------
    // 2. A replicated discrete-event simulation with deterministic timers
    //    (what a deployed protocol would actually do).
    // ------------------------------------------------------------------
    println!("\nSimulation (100 sessions per protocol, deterministic timers):");
    println!(
        "{:<8} {:>22} {:>16}",
        "protocol", "inconsistency (±95% CI)", "msg rate M"
    );
    for protocol in ProtocolSpec::PAPER {
        let cfg = SessionConfig::deterministic(protocol, params);
        let result = Campaign::new(cfg, 100, 7)
            .execution(ExecutionPolicy::auto())
            .run();
        println!(
            "{:<8} {:>14.6} ±{:>8.6} {:>16.6}",
            protocol.label(),
            result.inconsistency.mean,
            result.inconsistency.ci95_half_width,
            result.normalized_message_rate.mean
        );
    }

    // ------------------------------------------------------------------
    // 3. Peek inside one session: the message flow of SS+ER.
    // ------------------------------------------------------------------
    println!("\nFirst 12 events of one simulated SS+ER session:");
    let cfg = SessionConfig::deterministic(
        ProtocolSpec::SS_ER,
        params
            .with_mean_lifetime(60.0)
            .with_mean_update_interval(20.0),
    );
    let mut rng = SimRng::new(3);
    let (metrics, trace) = SingleHopSession::run_traced(&cfg, &mut rng, 10_000);
    for entry in trace.entries().iter().take(12) {
        println!("  {entry}");
    }
    println!(
        "  ... session ended after {:.1} s with {} signaling messages, inconsistency {}",
        metrics.receiver_lifetime,
        metrics.messages.signaling_total(),
        hs_ss_signaling_repro::percent(metrics.inconsistency)
    );
}
