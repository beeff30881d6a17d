//! Integration test: the multi-hop analytic model against the multi-hop
//! discrete-event simulator.  The paper evaluates the multi-hop scenario
//! analytically only; cross-checking it against an independent simulation is
//! an extension of this reproduction, so the tolerances here are looser than
//! for the single-hop agreement tests (the analytic chain treats consistency
//! as a prefix property and approximates timeout cascades).

use signaling::{MultiHopCampaign, MultiHopModel, MultiHopParams, MultiHopSimConfig, ProtocolSpec};

fn params(hops: usize) -> MultiHopParams {
    MultiHopParams::reservation_defaults().with_hops(hops)
}

fn simulate(
    protocol: ProtocolSpec,
    p: MultiHopParams,
    seed: u64,
) -> signaling::MultiHopCampaignResult {
    let cfg = MultiHopSimConfig::deterministic(protocol, p).with_horizon(6000.0);
    MultiHopCampaign::new(cfg, 4, seed).run()
}

#[test]
fn end_to_end_inconsistency_same_order_of_magnitude() {
    for protocol in ProtocolSpec::PAPER_MULTI_HOP {
        let model = MultiHopModel::new(protocol, params(10))
            .expect("valid")
            .solve()
            .expect("solvable");
        let sim = simulate(protocol, params(10), 3);
        let m = model.inconsistency;
        let s = sim.end_to_end_inconsistency.mean;
        assert!(
            s < 4.0 * m + 0.02 && m < 4.0 * s + 0.02,
            "{protocol}: model {m} vs simulation {s}"
        );
    }
}

#[test]
fn per_hop_profile_increases_in_both_model_and_simulation() {
    let protocol = ProtocolSpec::SS;
    let model = MultiHopModel::new(protocol, params(8))
        .expect("valid")
        .solve()
        .expect("solvable");
    let sim = simulate(protocol, params(8), 11);
    assert_eq!(model.per_hop_inconsistency.len(), 8);
    assert_eq!(sim.per_hop_inconsistency.len(), 8);
    // First hop clearly better than last hop on both sides.
    assert!(model.per_hop_inconsistency[7] > 2.0 * model.per_hop_inconsistency[0]);
    assert!(
        sim.per_hop_inconsistency[7].mean > 2.0 * sim.per_hop_inconsistency[0].mean,
        "simulated per-hop profile: {:?}",
        sim.per_hop_inconsistency
            .iter()
            .map(|s| s.mean)
            .collect::<Vec<_>>()
    );
}

#[test]
fn protocol_ordering_agrees_between_model_and_simulation() {
    let mut model_i = Vec::new();
    let mut sim_i = Vec::new();
    for protocol in ProtocolSpec::PAPER_MULTI_HOP {
        model_i.push((
            protocol,
            MultiHopModel::new(protocol, params(12))
                .expect("valid")
                .solve()
                .expect("solvable")
                .inconsistency,
        ));
        sim_i.push((
            protocol,
            simulate(protocol, params(12), 29)
                .end_to_end_inconsistency
                .mean,
        ));
    }
    let rank = |rows: &[(ProtocolSpec, f64)], p: ProtocolSpec| {
        rows.iter().find(|(q, _)| *q == p).expect("present").1
    };
    for rows in [&model_i, &sim_i] {
        assert!(
            rank(rows, ProtocolSpec::SS) > rank(rows, ProtocolSpec::SS_RT),
            "SS should be worse than SS+RT: {rows:?}"
        );
    }
}

#[test]
fn message_rate_agrees_roughly() {
    // Refreshes dominate the soft-state multi-hop load; model and simulation
    // should agree within ~30% on the total hop-transmission rate.
    for protocol in ProtocolSpec::PAPER_MULTI_HOP {
        let model = MultiHopModel::new(protocol, params(10))
            .expect("valid")
            .solve()
            .expect("solvable");
        let sim = simulate(protocol, params(10), 7);
        let m = model.message_rate;
        let s = sim.message_rate.mean;
        let rel = (m - s).abs() / s.max(1e-9);
        assert!(rel < 0.35, "{protocol}: model {m} vs sim {s} (rel {rel})");
    }
}

#[test]
fn hard_state_multi_hop_is_cheap_in_both_views() {
    let ss_model = MultiHopModel::new(ProtocolSpec::SS, params(10))
        .expect("valid")
        .solve()
        .expect("solvable");
    let hs_model = MultiHopModel::new(ProtocolSpec::HS, params(10))
        .expect("valid")
        .solve()
        .expect("solvable");
    assert!(hs_model.message_rate < 0.5 * ss_model.message_rate);

    let ss_sim = simulate(ProtocolSpec::SS, params(10), 13);
    let hs_sim = simulate(ProtocolSpec::HS, params(10), 13);
    assert!(hs_sim.message_rate.mean < 0.5 * ss_sim.message_rate.mean);
}
