//! `table1_transitions` — print Table I (the protocol-specific transition
//! rates of the unified single-hop Markov model), both symbolically and
//! evaluated at the paper's default parameters.

use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;
use signaling::{Protocol, SingleHopParams};

fn main() {
    // Symbolic form (as printed in the paper).
    println!("Symbolic Table I (rates per protocol)\n");
    println!(
        "{:<28} {:<14} {:<14} {:<22} {:<22} {:<14}",
        "transition", "SS", "SS+ER", "SS+RT", "SS+RTR", "HS"
    );
    let rows = [
        (
            "(1,0)1->(1,0)2, IC1->IC2",
            "p/D",
            "p/D",
            "p/D",
            "p/D",
            "p/D",
        ),
        (
            "(1,0)1->C, IC1->C",
            "(1-p)/D",
            "(1-p)/D",
            "(1-p)/D",
            "(1-p)/D",
            "(1-p)/D",
        ),
        (
            "(1,0)2->C, IC2->C",
            "(1-p)/T",
            "(1-p)/T",
            "(1/T+1/R)(1-p)",
            "(1/T+1/R)(1-p)",
            "(1-p)/R",
        ),
        ("(0,1)1->(0,1)2", "-", "p/D", "-", "p/D", "p/D"),
        (
            "(0,1)1->(0,0)",
            "1/tau",
            "(1-p)/D",
            "1/tau",
            "(1-p)/D",
            "(1-p)/D",
        ),
        (
            "(0,1)2->(0,0)",
            "-",
            "1/tau",
            "-",
            "1/tau+(1-p)/R",
            "(1-p)/R",
        ),
        (
            "false removal rate",
            "p^(tau/T)/tau",
            "p^(tau/T)/tau",
            "p^(tau/T)/tau",
            "p^(tau/T)/tau",
            "lambda_e",
        ),
    ];
    for (name, ss, sser, ssrt, ssrtr, hs) in rows {
        println!("{name:<28} {ss:<14} {sser:<14} {ssrt:<22} {ssrtr:<22} {hs:<14}");
    }
    println!(
        "\n(p = p_l, D = Delta; common transitions at lambda_u, lambda_r, lambda_f per Figure 3)\n"
    );

    // Numeric form from the model itself.
    let table1 = Registry::with_builtins()
        .run("table1", &ExperimentOptions::default())
        .expect("table1 is a built-in experiment");
    println!("{}", table1.to_text());

    // A small sanity print of the resulting metrics at the defaults.
    println!("Metrics at the Kazaa defaults:");
    let params = SingleHopParams::kazaa_defaults();
    for protocol in Protocol::ALL {
        let s = signaling::SingleHopModel::new(protocol, params)
            .expect("valid params")
            .solve()
            .expect("solvable");
        println!(
            "  {:<7} I = {:.6}   M = {:.6}   C(w=10) = {:.6}",
            protocol.label(),
            s.inconsistency,
            s.normalized_message_rate,
            s.integrated_cost(10.0)
        );
    }
}
