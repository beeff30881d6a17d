//! Defining your own signaling protocol — no core changes required.
//!
//! The protocol layer is a mechanism-composition API: a protocol is a
//! `ProtocolSpec` — one knob per Section-II mechanism — and everything
//! downstream (the analytic Markov models, both discrete-event simulators,
//! the experiment registry, `repro`) derives its behavior from those knobs.
//! The five paper protocols are just named presets.
//!
//! This example composes a design point the paper never evaluates: **soft
//! state with reliable explicit removal but best-effort triggers**
//! ("SS+ERR") — keep the cheap fire-and-forget install/update path of SS+ER,
//! but make sure a departing sender's removal message actually lands.  It
//! then runs the new protocol through the analytic model, a simulation
//! campaign and a registered experiment, side by side with the presets.
//!
//! ```text
//! cargo run --example custom_protocol
//! ```

use signaling::registry::{ExperimentSpec, Registry, SweepTarget};
use signaling::{
    Campaign, ExperimentOptions, Metric, ProtocolSpec, Removal, SessionConfig, SingleHopModel,
    SingleHopParams, Sweep,
};

/// Soft state + reliable removal, best-effort everything else.
const SS_ERR: ProtocolSpec = ProtocolSpec::soft_state("SS+ERR").with_removal(Removal::Reliable);

fn main() {
    // A spec validates before it runs anywhere: incoherent combinations
    // (say, a state timeout with no refresh stream feeding it) are typed
    // errors, not silent nonsense.
    SS_ERR.validate().expect("SS+ERR composes coherently");
    println!("SS+ERR = {}\n", SS_ERR.mechanism_summary());

    // --- Analytic: same chain builder as the paper presets. ---
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(120.0);
    println!("analytic inconsistency at 120 s sessions (Kazaa defaults):");
    for spec in [ProtocolSpec::SS, ProtocolSpec::SS_ER, SS_ERR] {
        let s = SingleHopModel::new(spec, params)
            .expect("valid")
            .solve()
            .expect("solvable");
        println!(
            "  {:<7} I = {:.6}   M = {:.4}",
            spec.label(),
            s.inconsistency,
            s.normalized_message_rate
        );
    }

    // --- Simulation: the same spec drives the event-driven state machine.
    // Under heavy loss a best-effort removal often dies and SS+ER orphans
    // the receiver state until the timeout; reliable removal reclaims it a
    // round-trip later.
    let mut lossy = params;
    lossy.loss = 0.3;
    println!("\nsimulated receiver-orphan time beyond sender departure (30% loss):");
    for spec in [ProtocolSpec::SS_ER, SS_ERR] {
        let result = Campaign::new(SessionConfig::deterministic(spec, lossy), 200, 42).run();
        let orphan = result.receiver_lifetime.mean - result.sender_lifetime.mean;
        println!(
            "  {:<7} {:.2} s orphaned, {} removal msgs, {} removal ACKs",
            spec.label(),
            orphan,
            result.messages.removal,
            result.messages.removal_ack
        );
    }

    // --- Registry: the custom protocol is a first-class experiment axis. ---
    let mut registry = Registry::with_builtins();
    registry
        .register(
            ExperimentSpec::new(
                "ss-err-lifetime",
                "reliable-removal soft state vs the presets, over session length",
            )
            .protocols(&[ProtocolSpec::SS, ProtocolSpec::SS_ER, SS_ERR])
            .sweep(Sweep::session_length(), SweepTarget::MeanLifetime)
            .metric(Metric::Inconsistency)
            .tag("example"),
        )
        .expect("name is free");
    let out = registry
        .run("ss-err-lifetime", &ExperimentOptions::quick())
        .expect("registered above");
    println!("\n{}", out.to_text());
}
