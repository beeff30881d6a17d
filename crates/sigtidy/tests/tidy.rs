//! Fixture-driven coverage of every lint, plus the live-tree self-check:
//! the workspace this crate ships in must itself lint clean.

use sigtidy::{lint_file, CrateClass, Finding};

fn lint_fixture(class: CrateClass, name: &str, text: &str) -> Vec<Finding> {
    lint_file(class, &format!("fixtures/{name}"), name, text)
}

fn lines_of(findings: &[Finding], lint: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

#[test]
fn wall_clock_fires_in_result_path_code_only() {
    let text = include_str!("fixtures/wall_clock.rs");
    let findings = lint_fixture(CrateClass::ResultPath, "wall_clock.rs", text);
    // The `use` line and the call in `bad()`; the escaped site, word-boundary
    // near-miss, comment, string and test-module uses stay silent.
    assert_eq!(lines_of(&findings, "wall-clock"), vec![2, 5]);
    // The same file in an infra crate is clean: infra may read wall clocks.
    let infra = lint_fixture(CrateClass::Infra, "wall_clock.rs", text);
    assert_eq!(lines_of(&infra, "wall-clock"), Vec::<usize>::new());
}

#[test]
fn nondeterministic_rng_fires_everywhere_outside_devtools() {
    let text = include_str!("fixtures/rng.rs");
    for class in [CrateClass::ResultPath, CrateClass::Infra] {
        let findings = lint_fixture(class, "rng.rs", text);
        assert_eq!(
            lines_of(&findings, "nondeterministic-rng"),
            vec![4, 9, 14, 15],
            "{class:?}"
        );
    }
    assert!(lint_fixture(CrateClass::DevTool, "rng.rs", text).is_empty());
}

#[test]
fn unordered_map_iter_catches_both_iteration_idioms() {
    let text = include_str!("fixtures/map_iter.rs");
    let findings = lint_fixture(CrateClass::ResultPath, "map_iter.rs", text);
    // The method-style iteration and the for loop; lookups, BTreeMap
    // iteration and the escaped summation stay silent.
    assert_eq!(lines_of(&findings, "unordered-map-iter"), vec![5, 11]);
}

#[test]
fn no_unwrap_exempts_tests_and_graceful_forms() {
    let text = include_str!("fixtures/unwrap.rs");
    let findings = lint_fixture(CrateClass::Infra, "unwrap.rs", text);
    assert_eq!(lines_of(&findings, "no-unwrap"), vec![4, 8, 12]);
    // In a binary source path the lint does not apply at all.
    let in_bin = lint_file(CrateClass::Infra, "fixtures/unwrap.rs", "main.rs", text);
    assert!(lines_of(&in_bin, "no-unwrap").is_empty());
}

#[test]
fn the_escape_hatch_is_itself_linted() {
    let text = include_str!("fixtures/allow_reason.rs");
    let findings = lint_fixture(CrateClass::Infra, "allow_reason.rs", text);
    // A reason-less allow and an unknown lint name are findings; the
    // unknown name also fails to suppress the site it sits on.
    assert_eq!(lines_of(&findings, "allow-needs-reason"), vec![4, 9]);
    assert_eq!(lines_of(&findings, "no-unwrap"), vec![10]);
}

#[test]
fn unused_pub_wants_a_name_in_another_file() {
    let lib = include_str!("fixtures/unused_pub.rs");
    let caller = "pub use demo::{called_elsewhere,\n    only_re_exported};\n\
                  // named_in_a_comment\n\
                  fn main() { demo::called_elsewhere(); let _ = \"named_in_a_comment\"; }\n";
    let sources = |lib_path: &str| {
        [(lib_path, lib), ("tests/caller.rs", caller)].map(|(p, t)| (p.to_string(), t.to_string()))
    };
    let findings = sigtidy::unused_pub(&sources("crates/demo/src/lib.rs"));
    assert_eq!(lines_of(&findings, "unused-pub"), vec![7, 11, 13]);
    // Dev-tool stand-ins mirror external APIs and are exempt.
    assert!(sigtidy::unused_pub(&sources("crates/devtools/demo/src/lib.rs")).is_empty());
}

#[test]
fn live_tree_lints_clean() {
    // The gate CI runs, under plain `cargo test`: the workspace itself must
    // have no findings — forbidden APIs, hygiene, or structural drift.
    let report = sigtidy::lint_tree(&sigtidy::workspace_root()).expect("workspace tree readable");
    assert!(
        report.findings.is_empty(),
        "sigtidy findings in the live tree:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually covered the workspace.
    assert!(report.files_scanned > 50, "{}", report.files_scanned);
}
