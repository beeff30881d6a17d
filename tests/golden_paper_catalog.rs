//! Golden test pinning every built-in paper experiment byte-for-byte.
//!
//! The fixture maps each of the 22 built-in names to a 64-bit FNV-1a digest
//! of its rendered text (the `repro` block: header line plus table) followed
//! by its CSV, at `ExperimentOptions::quick()` under serial execution.  Any
//! change to a built-in's title, labels, grid, protocol set or numbers moves
//! its digest.  On a mismatch the failure message prints the regenerated
//! fixture; replace `tests/golden/paper_catalog_quick_serial.txt` with it
//! only after establishing the change is intended.

use signaling::experiment::{ExperimentId, ExperimentOptions, ExperimentOutput};
use signaling::registry::Registry;
use signaling::report::render_csv;
use signaling::ExecutionPolicy;

const GOLDEN: &str = include_str!("golden/paper_catalog_quick_serial.txt");

/// FNV-1a over the rendered output; any change in one byte moves it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `name digest` line per built-in, in registry order.
fn catalog_digests() -> String {
    let options = ExperimentOptions::quick().with_execution(ExecutionPolicy::Serial);
    let mut fixture = String::new();
    for exp in Registry::with_builtins().iter() {
        let output = exp.run(&options);
        let mut rendered = format!(
            "== {} — {} ==\n{}\n",
            exp.name(),
            exp.description(),
            output.to_text()
        );
        if let ExperimentOutput::Figure(fig) = &output {
            rendered.push_str(&render_csv(fig));
        }
        fixture.push_str(&format!(
            "{} {:016x}\n",
            exp.name(),
            fnv1a(rendered.as_bytes())
        ));
    }
    fixture
}

#[test]
fn every_builtin_matches_the_committed_catalog_digest() {
    let fresh = catalog_digests();
    assert_eq!(
        fresh, GOLDEN,
        "paper catalog output drifted from tests/golden/paper_catalog_quick_serial.txt; \
         regenerated fixture:\n{fresh}"
    );
}

#[test]
fn experiment_id_descriptions_are_pinned_for_every_builtin() {
    // `ExperimentId` is the stable handle external code resolves a paper
    // experiment's description through; its strings must not drift.
    const DESCRIPTIONS: [(&str, &str); 22] = [
        ("table1", "Table I: protocol-specific CTMC transition rates"),
        ("fig4a", "Fig 4(a): inconsistency vs mean state lifetime"),
        (
            "fig4b",
            "Fig 4(b): normalized message rate vs mean state lifetime",
        ),
        ("fig5a", "Fig 5(a): inconsistency vs channel loss rate"),
        ("fig5b", "Fig 5(b): inconsistency vs channel delay"),
        ("fig6a", "Fig 6(a): inconsistency vs refresh timer"),
        ("fig6b", "Fig 6(b): message rate vs refresh timer"),
        ("fig7", "Fig 7: integrated cost vs refresh timer"),
        ("fig8a", "Fig 8(a): inconsistency vs state-timeout timer"),
        ("fig8b", "Fig 8(b): inconsistency vs retransmission timer"),
        (
            "fig9",
            "Fig 9: overhead/inconsistency tradeoff varying refresh timer",
        ),
        ("fig10a", "Fig 10(a): tradeoff varying update rate"),
        ("fig10b", "Fig 10(b): tradeoff varying channel delay"),
        (
            "fig11a",
            "Fig 11(a): analytic vs simulation, inconsistency vs lifetime",
        ),
        (
            "fig11b",
            "Fig 11(b): analytic vs simulation, message rate vs lifetime",
        ),
        (
            "fig12a",
            "Fig 12(a): analytic vs simulation, inconsistency vs refresh timer",
        ),
        (
            "fig12b",
            "Fig 12(b): analytic vs simulation, message rate vs refresh timer",
        ),
        ("fig17", "Fig 17: per-hop inconsistency along a 20-hop path"),
        ("fig18a", "Fig 18(a): inconsistency vs number of hops"),
        ("fig18b", "Fig 18(b): message rate vs number of hops"),
        (
            "fig19a",
            "Fig 19(a): multi-hop inconsistency vs refresh timer",
        ),
        (
            "fig19b",
            "Fig 19(b): multi-hop message rate vs refresh timer",
        ),
    ];
    for (name, description) in DESCRIPTIONS {
        assert_eq!(
            ExperimentId::parse(name).map(|id| id.description()),
            Some(description),
            "{name}"
        );
        assert_eq!(
            ExperimentId::parse(&name.to_ascii_uppercase()).map(|id| id.description()),
            Some(description),
            "lookup is case-insensitive"
        );
    }
    assert!(ExperimentId::parse("nope").is_none());
}
