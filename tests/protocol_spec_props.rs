//! Coherence properties of the mechanism-composition protocol layer.
//!
//! Three guarantees:
//!
//! 1. **Preset fidelity** — for each paper protocol, the spec-derived
//!    mechanism predicates equal the paper-transcribed Table I matrix, and
//!    every preset validates.
//! 2. **Total validation** — `ProtocolSpec::validate` never panics anywhere
//!    in the full 72-point mechanism space (exhaustively) nor under random
//!    parameter perturbation (proptest).
//! 3. **Valid ⇒ runnable** — every *coherent* composition yields a
//!    well-formed transition table and a solvable analytic chain, and runs
//!    a discrete-event session to completion: the validation rules are
//!    exactly the boundary of the runnable space.

use signaling::{
    MultiHopModel, MultiHopParams, Protocol, ProtocolSpec, SessionConfig, SimRng, SingleHopModel,
    SingleHopParams, SingleHopSession,
};

/// The paper's mechanism matrix (Section II, Table I), transcribed: per
/// protocol, its figure label and whether it uses refresh, a state timeout,
/// explicit removal, reliable triggers, reliable removal and a removal
/// notification.
const TABLE_ONE: [(ProtocolSpec, &str, [bool; 6]); 5] = [
    (
        ProtocolSpec::SS,
        "SS",
        [true, true, false, false, false, false],
    ),
    (
        ProtocolSpec::SS_ER,
        "SS+ER",
        [true, true, true, false, false, false],
    ),
    (
        ProtocolSpec::SS_RT,
        "SS+RT",
        [true, true, false, true, false, true],
    ),
    (
        ProtocolSpec::SS_RTR,
        "SS+RTR",
        [true, true, true, true, true, true],
    ),
    (
        ProtocolSpec::HS,
        "HS",
        [false, false, true, true, true, true],
    ),
];

#[test]
fn preset_predicates_match_the_enum_ground_truth() {
    assert_eq!(TABLE_ONE.map(|(spec, ..)| spec), ProtocolSpec::PAPER);
    for (spec, label, mechanisms) in TABLE_ONE {
        assert_eq!(spec.label(), label, "{spec}");
        let derived = [
            spec.uses_refresh(),
            spec.uses_state_timeout(),
            spec.uses_explicit_removal(),
            spec.reliable_triggers(),
            spec.reliable_removal(),
            spec.notifies_on_removal(),
        ];
        assert_eq!(derived, mechanisms, "{spec}");
        // No paper protocol has reliable refreshes.
        assert!(!spec.reliable_refresh(), "{spec}");
        // And every preset is a coherent composition.
        spec.validate().unwrap_or_else(|e| panic!("{spec}: {e}"));
    }
    // The five-variant shim converts to the same presets.
    let shim = [
        Protocol::Ss,
        Protocol::SsEr,
        Protocol::SsRt,
        Protocol::SsRtr,
        Protocol::Hs,
    ];
    assert_eq!(shim.map(ProtocolSpec::from), ProtocolSpec::PAPER);
}

#[test]
fn every_valid_composition_runs_end_to_end() {
    let quick = SingleHopParams::kazaa_defaults()
        .with_mean_lifetime(60.0)
        .with_mean_update_interval(20.0);
    let multi = MultiHopParams::reservation_defaults().with_hops(3);
    let mut valid = 0usize;
    for spec in ProtocolSpec::enumerate_all("x") {
        // Rule 2: validation is total over the whole space.
        let verdict = spec.validate();
        let Ok(()) = verdict else { continue };
        valid += 1;

        // Rule 3a: the single-hop chain is well-formed and solvable.
        let solution = SingleHopModel::new(spec, quick)
            .expect("valid spec accepted")
            .solve()
            .unwrap_or_else(|e| panic!("{spec:?}: single-hop solve failed: {e}"));
        assert!(
            (0.0..=1.0).contains(&solution.inconsistency),
            "{spec:?}: I = {}",
            solution.inconsistency
        );
        assert!(
            solution.message_rate.is_finite() && solution.message_rate >= 0.0,
            "{spec:?}"
        );
        for e in &SingleHopModel::new(spec, quick)
            .unwrap()
            .rate_table()
            .entries
        {
            assert!(e.rate.is_finite() && e.rate > 0.0, "{spec:?}: {e:?}");
        }

        // Rule 3b: the multi-hop chain solves too.
        let mh = MultiHopModel::new(spec, multi)
            .expect("valid spec accepted")
            .solve()
            .unwrap_or_else(|e| panic!("{spec:?}: multi-hop solve failed: {e}"));
        assert!((0.0..=1.0).contains(&mh.inconsistency), "{spec:?}");

        // Rule 3c: a simulated session terminates with sane metrics.
        let cfg = SessionConfig::deterministic(spec, quick);
        let mut rng = SimRng::new(7);
        let m = SingleHopSession::run(&cfg, &mut rng);
        assert!((0.0..=1.0).contains(&m.inconsistency), "{spec:?}: {m:?}");
        assert!(m.receiver_lifetime >= m.sender_lifetime, "{spec:?}");
    }
    // The five presets are in the valid set, and the space is genuinely
    // larger than the paper's five points — that is the point of the API.
    assert!(valid > 5, "only {valid} valid compositions");
    assert!(valid < 72, "validation rejects nothing?");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Validation never panics for random spec × random parameters, and
        /// accepted (spec, params) pairs never panic the model constructor.
        #[test]
        fn prop_validate_is_total_and_accepted_specs_build(
            idx in 0usize..72,
            loss in -0.5f64..1.5,
            refresh in -1.0f64..60.0,
        ) {
            let spec = ProtocolSpec::enumerate_all("p")[idx];
            let _ = spec.validate(); // must not panic
            let mut params = SingleHopParams::kazaa_defaults();
            params.loss = loss;
            params.refresh_timer = refresh;
            match SingleHopModel::new(spec, params) {
                Ok(model) => {
                    // Constructor accepted ⇒ both validations passed.
                    prop_assert!(spec.validate().is_ok());
                    prop_assert!(params.validate().is_ok());
                    let s = model.solve();
                    prop_assert!(s.is_ok(), "{spec:?} solve failed");
                }
                Err(_) => {
                    // Typed rejection: either the spec or the params failed.
                    prop_assert!(
                        spec.validate().is_err() || params.validate().is_err()
                    );
                }
            }
        }

        /// The declarative transition tables (`siganalytic::fsm`) and the
        /// historical predicate-derived reference builders enumerate the
        /// same enabled transitions — same order, bitwise-equal rates — for
        /// a random coherent spec under random parameters, single- and
        /// multi-hop.
        #[test]
        fn prop_fsm_tables_match_predicate_derived_reference(
            idx in 0usize..33,
            loss in 0.0f64..0.9,
            refresh in 0.5f64..30.0,
            hops in 2usize..8,
        ) {
            let coherent: Vec<ProtocolSpec> = ProtocolSpec::enumerate_all("p")
                .into_iter()
                .filter(|s| s.validate().is_ok())
                .collect();
            prop_assert_eq!(coherent.len(), 33);
            let spec = coherent[idx];
            let params = {
                let mut p = SingleHopParams::kazaa_defaults()
                    .with_refresh_timer_scaled_timeout(refresh);
                p.loss = loss;
                p
            };
            let table = siganalytic::TransitionTable::for_spec(spec);
            prop_assert_eq!(
                table.enabled_entries(&params),
                siganalytic::single_hop::transitions::protocol_transitions_reference(
                    spec, &params
                )
                .entries,
                "{:?} single-hop", spec
            );
            let mp = {
                let mut p = MultiHopParams::reservation_defaults()
                    .with_hops(hops)
                    .with_refresh_timer_scaled_timeout(refresh);
                p.loss = loss;
                p
            };
            let mtable = siganalytic::MultiHopTransitionTable::for_spec(spec, hops);
            prop_assert_eq!(
                mtable.enabled_entries(&mp),
                siganalytic::multi_hop::transitions::multi_hop_transitions_reference(
                    spec, &mp
                ),
                "{:?} multi-hop", spec
            );
        }

        /// For every preset the mechanism-derived single-hop table equals
        /// the paper's Table I rates under random (coherent) parameters.
        #[test]
        fn prop_preset_tables_follow_table_one(
            proto_idx in 0usize..5,
            loss in 0.0f64..0.9,
            refresh in 0.5f64..30.0,
        ) {
            let protocol = ProtocolSpec::PAPER[proto_idx];
            let params = {
                let mut p = SingleHopParams::kazaa_defaults()
                    .with_refresh_timer_scaled_timeout(refresh);
                p.loss = loss;
                p
            };
            let table = siganalytic::single_hop::protocol_transitions(protocol, &params);
            let success = 1.0 - loss;
            // Row 3 of Table I, per protocol family.
            use siganalytic::single_hop::SingleHopState::{Consistent, Setup2};
            let slow = table.rate(Setup2, Consistent);
            let expected = match protocol {
                ProtocolSpec::SS | ProtocolSpec::SS_ER => success / params.refresh_timer,
                ProtocolSpec::SS_RT | ProtocolSpec::SS_RTR => {
                    (1.0 / params.refresh_timer + 1.0 / params.retrans_timer) * success
                }
                ProtocolSpec::HS => success / params.retrans_timer,
                _ => unreachable!("{protocol} is not a paper preset"),
            };
            prop_assert_eq!(slow, expected, "{} slow-path repair", protocol);
        }
    }
}
