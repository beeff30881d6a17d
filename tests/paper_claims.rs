//! Integration test: the qualitative claims of the paper's evaluation
//! section, checked end-to-end through the experiment registry (the same code
//! path the `repro` binary and the benches use).

use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;
use signaling::{Protocol, SeriesSet};

fn figure(name: &str) -> SeriesSet {
    Registry::with_builtins()
        .run(name, &ExperimentOptions::quick())
        .expect("a built-in experiment")
        .as_figure()
        .cloned()
        .unwrap_or_else(|| panic!("{name} should be a figure"))
}

#[test]
fn every_experiment_produces_output() {
    // Simulation figures are exercised separately (they are slower).
    let registry = Registry::with_builtins();
    for exp in registry.with_tag("analytic") {
        let name = exp.name();
        let out = exp.run(&ExperimentOptions::quick());
        let text = out.to_text();
        assert!(!text.is_empty(), "{name}");
        if let Some(fig) = out.as_figure() {
            assert!(!fig.series.is_empty(), "{name}");
            for s in &fig.series {
                assert!(!s.is_empty(), "{name}/{}", s.label);
                for p in &s.points {
                    assert!(p.x.is_finite() && p.y.is_finite(), "{name}/{}", s.label);
                }
            }
        }
    }
}

#[test]
fn claim_explicit_removal_improves_consistency_cheaply() {
    // "a soft-state approach coupled with explicit removal substantially
    //  improves the degree of state consistency while introducing little
    //  additional signaling message overhead"
    let inconsistency = figure("fig4a");
    let overhead = figure("fig4b");
    let ss_i = inconsistency.get("SS").unwrap();
    let er_i = inconsistency.get("SS+ER").unwrap();
    let ss_m = overhead.get("SS").unwrap();
    let er_m = overhead.get("SS+ER").unwrap();
    // Substantial consistency improvement at every session length…
    for (ss, er) in ss_i.points.iter().zip(er_i.points.iter()) {
        assert!(
            er.y < 0.75 * ss.y,
            "at lifetime {}: {} vs {}",
            ss.x,
            er.y,
            ss.y
        );
    }
    // …at ≤5% extra overhead for sessions of 100 s and longer.
    for (ss, er) in ss_m.points.iter().zip(er_m.points.iter()) {
        if ss.x >= 100.0 {
            assert!(
                er.y <= ss.y * 1.05,
                "at lifetime {}: overhead {} vs {}",
                ss.x,
                er.y,
                ss.y
            );
        }
    }
}

#[test]
fn claim_reliable_signaling_reaches_hard_state_consistency() {
    // "The addition of reliable explicit setup/update/removal allows the
    //  soft-state approach to achieve comparable (and sometimes better)
    //  consistency than that of the hard-state approach."
    let fig = figure("fig4a");
    let rtr = fig.get("SS+RTR").unwrap();
    let hs = fig.get("HS").unwrap();
    let mut rtr_better_somewhere = false;
    for (a, b) in rtr.points.iter().zip(hs.points.iter()) {
        assert!(
            a.y < 3.0 * b.y,
            "SS+RTR ({}) should be comparable to HS ({}) at lifetime {}",
            a.y,
            b.y,
            a.x
        );
        if a.y <= b.y {
            rtr_better_somewhere = true;
        }
    }
    assert!(
        rtr_better_somewhere,
        "SS+RTR should beat HS for at least some session lengths"
    );
}

#[test]
fn claim_reliable_triggers_matter_mainly_for_long_sessions() {
    // Figure 4(a): for long sessions the protocols group by trigger
    // reliability; for short sessions they group by removal mechanism.
    let fig = figure("fig4a");
    let ss = fig.get("SS").unwrap();
    let ss_rt = fig.get("SS+RT").unwrap();
    let ss_er = fig.get("SS+ER").unwrap();
    let first = 0; // shortest session
    let last = ss.points.len() - 1; // longest session
                                    // Short sessions: SS ≈ SS+RT (removal dominates), both far above SS+ER.
    let rel_short = (ss.points[first].y - ss_rt.points[first].y).abs() / ss.points[first].y;
    assert!(
        rel_short < 0.25,
        "short sessions: SS vs SS+RT differ by {rel_short}"
    );
    assert!(ss.points[first].y > 3.0 * ss_er.points[first].y);
    // Long sessions: reliable triggers separate SS+RT from SS clearly.
    assert!(ss_rt.points[last].y < 0.8 * ss.points[last].y);
}

#[test]
fn claim_modest_loss_makes_reliability_worthwhile() {
    // Figure 5(a): "even for modest loss rates, reliable transmission
    // significantly improves the performance of soft-state protocols".
    let fig = figure("fig5a");
    let ss = fig.get("SS").unwrap();
    let ss_rt = fig.get("SS+RT").unwrap();
    // Find the ~10% loss point.
    let idx = ss
        .points
        .iter()
        .position(|p| p.x >= 0.1)
        .expect("sweep reaches 10% loss");
    assert!(ss_rt.points[idx].y < 0.8 * ss.points[idx].y);
}

#[test]
fn claim_delay_increases_inconsistency_roughly_linearly() {
    // Figure 5(b): an approximately linear increase for all protocols.
    let fig = figure("fig5b");
    for s in &fig.series {
        assert!(s.is_non_decreasing(1e-9), "{}", s.label);
        // Compare the chord slope of the first and second halves: a straight
        // line has equal halves; we allow a factor of two.
        let n = s.points.len();
        let (x0, y0) = (s.points[0].x, s.points[0].y);
        let (xm, ym) = (s.points[n / 2].x, s.points[n / 2].y);
        let (x1, y1) = (s.points[n - 1].x, s.points[n - 1].y);
        let first_half = (ym - y0) / (xm - x0);
        let second_half = (y1 - ym) / (x1 - xm);
        assert!(
            second_half < 2.0 * first_half + 1e-9 && first_half < 2.0 * second_half + 1e-9,
            "{}: slopes {first_half} vs {second_half} are not roughly linear",
            s.label
        );
    }
}

#[test]
fn claim_refresh_timer_has_an_optimal_operating_point() {
    // Figure 7: SS and SS+RT have a clear interior cost optimum; SS+RTR
    // prefers long timers; HS does not care.
    let fig = figure("fig7");
    for label in ["SS", "SS+RT"] {
        let s = fig.get(label).unwrap();
        let best = s.argmin_y().unwrap();
        assert!(
            best > s.points[0].x && best < s.points.last().unwrap().x,
            "{label}: optimum {best} should be interior"
        );
    }
    let rtr = fig.get("SS+RTR").unwrap();
    let best_rtr = rtr.argmin_y().unwrap();
    assert!(
        best_rtr >= 10.0,
        "SS+RTR prefers long refresh timers, found {best_rtr}"
    );
    let hs = fig.get("HS").unwrap();
    assert!(hs.y_max().unwrap() - hs.y_min().unwrap() < 1e-9);
}

#[test]
fn claim_hs_is_most_sensitive_to_retransmission_timer() {
    // Figure 8(b): HS depends only on reliable transmission, so its
    // inconsistency grows fastest as the retransmission timer grows.
    let fig = figure("fig8b");
    let growth = |label: &str| {
        let s = fig.get(label).unwrap();
        s.points.last().unwrap().y / s.points.first().unwrap().y.max(1e-12)
    };
    let hs = growth("HS");
    for label in ["SS", "SS+ER"] {
        assert!(
            hs > growth(label),
            "HS growth {hs} should exceed {label} growth {}",
            growth(label)
        );
    }
}

#[test]
fn claim_tradeoff_crossover_between_soft_and_hard_state() {
    // Figure 10(a): to reach very low inconsistency HS is the cheapest
    // option, while at loose consistency targets SS needs the fewest
    // messages.
    let fig = figure("fig10a");
    let ss = fig.get("SS").unwrap();
    let hs = fig.get("HS").unwrap();
    // Very tight consistency targets are only reachable with hard state: the
    // lowest inconsistency HS attains is below anything SS ever reaches.
    let ss_best_consistency = ss.points.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
    let hs_best_consistency = hs.points.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
    assert!(hs_best_consistency < ss_best_consistency);
    // At the loose-consistency end of the sweep (frequent updates), the
    // soft-state approach is the cheaper one: per-update reliable exchanges
    // make HS's overhead balloon while SS just keeps refreshing.
    let ss_at_loosest = ss
        .points
        .iter()
        .max_by(|a, b| a.x.partial_cmp(&b.x).expect("finite"))
        .expect("non-empty");
    let hs_at_loosest = hs
        .points
        .iter()
        .max_by(|a, b| a.x.partial_cmp(&b.x).expect("finite"))
        .expect("non-empty");
    assert!(
        ss_at_loosest.y < hs_at_loosest.y,
        "SS ({}) should be cheaper than HS ({}) when consistency demands are loose",
        ss_at_loosest.y,
        hs_at_loosest.y
    );
}

#[test]
fn claim_multi_hop_inconsistency_grows_with_distance_and_hops() {
    let per_hop = figure("fig17");
    for s in &per_hop.series {
        assert!(s.is_non_decreasing(1e-9), "{}", s.label);
    }
    // SS is the most sensitive to the number of hops (Figure 18a).
    let fig18 = figure("fig18a");
    let growth = |label: &str| {
        let s = fig18.get(label).unwrap();
        s.points.last().unwrap().y / s.points.first().unwrap().y.max(1e-12)
    };
    assert!(growth("SS") > growth("SS+RT"));
    assert!(growth("SS") > growth("HS"));
    // Hop-by-hop reliability adds little signaling overhead (Figure 18b).
    let fig18b = figure("fig18b");
    let ss = fig18b.get("SS").unwrap().points.last().unwrap().y;
    let ss_rt = fig18b.get("SS+RT").unwrap().points.last().unwrap().y;
    assert!(ss_rt < 1.5 * ss);
}

#[test]
fn protocol_labels_cover_all_five_protocols_in_single_hop_figures() {
    let fig = figure("fig6a");
    let labels = fig.labels();
    for p in Protocol::ALL {
        assert!(labels.contains(&p.label()), "{p} missing from Fig 6(a)");
    }
}
