//! Integration test: the analytic CTMC models against the discrete-event
//! simulator, following the paper's validation methodology (Figures 11–12):
//! exponential-approximation model vs. a simulation of the deployed protocol
//! with deterministic timers.

use signaling::compare::{compare_all, compare_single_hop};
use signaling::{ProtocolSpec, SingleHopParams, TimerMode};

fn medium_params() -> SingleHopParams {
    // Medium-length sessions keep the simulation cheap while leaving every
    // mechanism (updates, refreshes, removal, timeouts) well exercised.
    SingleHopParams::kazaa_defaults()
        .with_mean_lifetime(300.0)
        .with_mean_update_interval(30.0)
}

#[test]
fn inconsistency_agrees_for_every_protocol() {
    for protocol in ProtocolSpec::PAPER {
        let row = compare_single_hop(protocol, medium_params(), TimerMode::Deterministic, 300, 17);
        // The paper reports <1% absolute difference; we allow 2 percentage
        // points to keep the test robust at 300 replications.
        assert!(
            row.inconsistency_gap() < 0.02,
            "{protocol}: model {} vs sim {} ± {}",
            row.analytic.inconsistency,
            row.simulated_inconsistency.mean,
            row.simulated_inconsistency.ci95_half_width
        );
    }
}

#[test]
fn message_rate_agrees_within_paper_tolerance() {
    // The paper reports 5–15% differences on the message rate between the
    // analytic model and the deterministic-timer simulation; we accept 25%.
    for protocol in ProtocolSpec::PAPER {
        let row = compare_single_hop(protocol, medium_params(), TimerMode::Deterministic, 300, 23);
        assert!(
            row.message_rate_relative_gap() < 0.25,
            "{protocol}: model {} vs sim {}",
            row.analytic.normalized_message_rate,
            row.simulated_message_rate.mean
        );
    }
}

#[test]
fn receiver_lifetime_agrees() {
    // The receiver keeps state for the sender lifetime plus the orphan
    // removal time; model and simulation must agree on that shape.
    for protocol in [ProtocolSpec::SS, ProtocolSpec::SS_ER, ProtocolSpec::HS] {
        let row = compare_single_hop(protocol, medium_params(), TimerMode::Deterministic, 200, 5);
        let model = row.analytic.expected_lifetime;
        let sim = row.simulated_receiver_lifetime.mean;
        let rel = (model - sim).abs() / model;
        assert!(
            rel < 0.15,
            "{protocol}: model lifetime {model} vs simulated {sim}"
        );
    }
}

#[test]
fn protocol_ranking_is_preserved_by_the_simulator() {
    // Whatever the absolute gaps, the simulator must reproduce the paper's
    // ordering: SS worst, explicit removal a big win, SS+RTR ≈ HS best.
    let rows = compare_all(medium_params(), TimerMode::Deterministic, 300, 31);
    let sim = |p: ProtocolSpec| {
        rows.iter()
            .find(|r| r.protocol == p)
            .expect("protocol present")
            .simulated_inconsistency
            .mean
    };
    assert!(sim(ProtocolSpec::SS_ER) < sim(ProtocolSpec::SS));
    assert!(sim(ProtocolSpec::SS_RTR) < sim(ProtocolSpec::SS));
    assert!(sim(ProtocolSpec::HS) < sim(ProtocolSpec::SS_ER));
    assert!(sim(ProtocolSpec::SS_RTR) < sim(ProtocolSpec::SS_ER));
    // And on the overhead side HS stays the cheapest, soft state pays for
    // refreshes.
    let sim_m = |p: ProtocolSpec| {
        rows.iter()
            .find(|r| r.protocol == p)
            .expect("protocol present")
            .simulated_message_rate
            .mean
    };
    for p in [
        ProtocolSpec::SS,
        ProtocolSpec::SS_ER,
        ProtocolSpec::SS_RT,
        ProtocolSpec::SS_RTR,
    ] {
        assert!(
            sim_m(ProtocolSpec::HS) < sim_m(p),
            "HS should be cheaper than {p}"
        );
    }
}

#[test]
fn loss_sensitivity_matches_between_model_and_simulation() {
    // Figure 5(a) shape: raising the loss rate hurts SS much more than
    // SS+RTR, in both the model and the simulator.
    let mut lossy = medium_params();
    lossy.loss = 0.2;
    let clean = medium_params();

    let model = |protocol: ProtocolSpec, params: SingleHopParams| {
        signaling::SingleHopModel::new(protocol, params)
            .expect("valid")
            .solve()
            .expect("solvable")
            .inconsistency
    };
    let sim = |protocol: ProtocolSpec, params: SingleHopParams| {
        compare_single_hop(protocol, params, TimerMode::Deterministic, 250, 41)
            .simulated_inconsistency
            .mean
    };

    for eval in [model as fn(ProtocolSpec, SingleHopParams) -> f64, sim] {
        let ss_increase = eval(ProtocolSpec::SS, lossy) - eval(ProtocolSpec::SS, clean);
        let rtr_increase = eval(ProtocolSpec::SS_RTR, lossy) - eval(ProtocolSpec::SS_RTR, clean);
        assert!(
            ss_increase > 0.0,
            "loss must hurt SS (increase {ss_increase})"
        );
        assert!(rtr_increase >= 0.0, "loss must not help SS+RTR");
        assert!(
            ss_increase > rtr_increase,
            "SS should suffer more additional inconsistency under loss than SS+RTR \
             ({ss_increase} vs {rtr_increase})"
        );
    }
}
