//! RSVP-style bandwidth reservation along a multi-hop path — the paper's
//! Section III-B scenario.
//!
//! A sender maintains a reservation at every router between itself and the
//! receiver.  Updates (reservation changes) must propagate hop by hop, and the
//! question is how the consistency of the whole path and the signaling load
//! scale with its length under end-to-end soft state (SS), soft state with
//! hop-by-hop reliable triggers (SS+RT), and hard state (HS).
//!
//! ```text
//! cargo run --example bandwidth_reservation
//! ```

use hs_ss_signaling_repro::percent;
use signaling::{
    MultiHopCampaign, MultiHopModel, MultiHopScenario, MultiHopSimConfig, ProtocolSpec,
};

fn main() {
    let scenario = MultiHopScenario::bandwidth_reservation();
    let params = scenario.params;
    println!("Scenario: {} ({} hops)\n", scenario.name, params.hops);

    // ------------------------------------------------------------------
    // 1. Per-hop inconsistency (paper Figure 17).
    // ------------------------------------------------------------------
    println!("Analytic per-hop inconsistency (fraction of time hop i disagrees with the sender):");
    println!("{:>6} {:>12} {:>12} {:>12}", "hop", "SS", "SS+RT", "HS");
    let solutions: Vec<_> = ProtocolSpec::PAPER_MULTI_HOP
        .iter()
        .map(|p| {
            MultiHopModel::new(*p, params)
                .expect("valid params")
                .solve()
                .expect("solvable")
        })
        .collect();
    for hop in [1, 5, 10, 15, 20] {
        print!("{hop:>6}");
        for s in &solutions {
            print!(" {:>12.5}", s.hop_inconsistency(hop));
        }
        println!();
    }

    println!("\nEnd-to-end view:");
    for s in &solutions {
        println!(
            "  {:<6} whole-path inconsistency {} at {:.2} signaling messages/s",
            s.protocol.label(),
            percent(s.inconsistency),
            s.message_rate
        );
    }

    // ------------------------------------------------------------------
    // 2. How does path length change the picture? (paper Figure 18)
    // ------------------------------------------------------------------
    println!("\nScaling with path length (analytic):");
    println!("{:>6} {:>12} {:>12} {:>12}", "hops", "SS", "SS+RT", "HS");
    for hops in [2usize, 5, 10, 20] {
        print!("{hops:>6}");
        for protocol in ProtocolSpec::PAPER_MULTI_HOP {
            let s = MultiHopModel::new(protocol, params.with_hops(hops))
                .expect("valid")
                .solve()
                .expect("solvable");
            print!(" {:>12.5}", s.inconsistency);
        }
        println!();
    }

    // ------------------------------------------------------------------
    // 3. Cross-check with the discrete-event simulator (an extension over
    //    the paper, which evaluates multi-hop analytically only).
    // ------------------------------------------------------------------
    println!("\nSimulation cross-check (5 runs x 2 simulated hours, deterministic timers):");
    for protocol in ProtocolSpec::PAPER_MULTI_HOP {
        let cfg = MultiHopSimConfig::deterministic(protocol, params).with_horizon(7200.0);
        let result = MultiHopCampaign::new(cfg, 5, 42).run();
        println!(
            "  {:<6} end-to-end inconsistency {:.5} ±{:.5}, {:.2} messages/s",
            protocol.label(),
            result.end_to_end_inconsistency.mean,
            result.end_to_end_inconsistency.ci95_half_width,
            result.message_rate.mean
        );
    }
}
