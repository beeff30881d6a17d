//! Kazaa peer / supernode registration — the paper's motivating single-hop
//! scenario.
//!
//! A peer registers its shared-file list at a supernode when it starts,
//! updates it when it downloads new files, and should have it removed when it
//! quits.  Stale registrations make the supernode direct other peers to a
//! host that is gone — the application-specific cost of inconsistency.
//!
//! This example answers the operational question the paper poses: *which
//! signaling mechanisms should the registration protocol use, and how does the
//! answer change with how long peers stay online?*
//!
//! ```text
//! cargo run --example kazaa_supernode
//! ```

use hs_ss_signaling_repro::percent;
use signaling::{integrated_cost, ProtocolSpec, Scenario, SingleHopModel, Sweep};

fn main() {
    let scenario = Scenario::kazaa_peer();
    let base = scenario.params;
    let weight = scenario.inconsistency_weight;

    println!("Scenario: {}", scenario.name);
    println!(
        "A stale registration costs about {weight} wasted messages per second of inconsistency.\n"
    );

    // How does the best protocol choice depend on peer session length?
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>10}   best",
        "session (s)", "SS", "SS+ER", "SS+RT", "SS+RTR", "HS"
    );
    for &lifetime in &Sweep::session_length().values {
        let mut costs = Vec::new();
        for protocol in ProtocolSpec::PAPER {
            let params = base.with_mean_lifetime(lifetime);
            let s = SingleHopModel::new(protocol, params)
                .expect("valid params")
                .solve()
                .expect("solvable");
            costs.push((
                protocol,
                integrated_cost(s.inconsistency, s.normalized_message_rate, weight),
            ));
        }
        let best = costs
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .expect("five protocols");
        print!("{lifetime:>12.0}");
        for (_, c) in &costs {
            print!(" {c:>10.4}");
        }
        println!("   {}", best.0.label());
    }

    // The paper's headline numbers at the default 1800 s sessions.
    println!("\nAt the default 1800 s sessions:");
    let ss = SingleHopModel::new(ProtocolSpec::SS, base)
        .expect("valid")
        .solve()
        .expect("solvable");
    let ss_er = SingleHopModel::new(ProtocolSpec::SS_ER, base)
        .expect("valid")
        .solve()
        .expect("solvable");
    let hs = SingleHopModel::new(ProtocolSpec::HS, base)
        .expect("valid")
        .solve()
        .expect("solvable");
    println!(
        "  pure soft state leaves the supernode stale {} of the time;",
        percent(ss.inconsistency)
    );
    println!(
        "  adding a best-effort LEAVE message cuts that to {} while adding only {:.2}% more signaling traffic;",
        percent(ss_er.inconsistency),
        100.0 * (ss_er.normalized_message_rate - ss.normalized_message_rate)
            / ss.normalized_message_rate
    );
    println!(
        "  a full hard-state protocol would reach {} but needs reliable delivery and an external failure detector.",
        percent(hs.inconsistency)
    );
}
