//! Cross-file sync checks, generalizing `tests/doc_sync.rs`: the
//! experiment registry vs `EXPERIMENTS.md`, the committed bench baselines
//! vs the bench targets registered in `crates/bench/Cargo.toml`, and the CI
//! workflow vs everything it claims to invoke.
//!
//! All registry truth comes from the live `sigbench` registries — the same
//! constructors `repro` runs — so these checks can never drift from the
//! binary's actual behavior.

use crate::json;
use crate::lints::Finding;
use std::path::Path;

fn finding(file: &str, line: usize, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        lint: "structure",
        message,
    }
}

/// 1-indexed line of the first occurrence of `needle` in `text` (for
/// pointing findings at the offending line), defaulting to 1.
fn line_of(text: &str, needle: &str) -> usize {
    text.lines()
        .position(|l| l.contains(needle))
        .map_or(1, |i| i + 1)
}

/// Runs every structural check against the workspace at `root`.
pub fn structural_findings(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_experiments_doc(root, &mut findings);
    check_bench_baselines(root, &mut findings);
    check_ci_workflow(root, &mut findings);
    findings
}

/// `EXPERIMENTS.md` must embed every line `repro --list-md` generates —
/// header, then one row per experiment with its name, tags and description —
/// verbatim and in registry order.
fn check_experiments_doc(root: &Path, findings: &mut Vec<Finding>) {
    let path = "EXPERIMENTS.md";
    let Ok(doc) = std::fs::read_to_string(root.join(path)) else {
        findings.push(finding(path, 1, "EXPERIMENTS.md is missing".to_string()));
        return;
    };
    let rows = sigbench::list_md_lines(&sigbench::extended_registry());
    for (line, row) in missing_rows(&doc, &rows) {
        findings.push(finding(
            path,
            line,
            format!(
                "generated catalog line `{row}` is missing, stale or out of order \
                 (regenerate the table with `cargo run --release --bin repro -- --list-md`)"
            ),
        ));
    }
}

/// The `rows` that do not appear in `doc` as whole lines in the given
/// order, each with the 1-indexed line after the last row found in order
/// (where the missing row belongs).
fn missing_rows<'r>(doc: &str, rows: &'r [String]) -> Vec<(usize, &'r str)> {
    let lines: Vec<&str> = doc.lines().collect();
    let mut next = 0;
    let mut missing = Vec::new();
    for row in rows {
        match lines[next..].iter().position(|line| line == row) {
            Some(i) => next += i + 1,
            None => missing.push((next + 1, row.as_str())),
        }
    }
    missing
}

/// The bench-target names registered in `crates/bench/Cargo.toml`.
fn bench_targets(root: &Path) -> Vec<String> {
    let Ok(manifest) = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")) else {
        return Vec::new();
    };
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
            continue;
        }
        if in_bench {
            if let Some(rest) = line.strip_prefix("name") {
                let name = rest.trim_start().trim_start_matches('=').trim();
                names.push(name.trim_matches('"').to_string());
            }
        }
    }
    names
}

/// Every committed `bench-baselines/BENCH_<name>.json` must parse as JSON
/// and correspond to a registered bench target.
fn check_bench_baselines(root: &Path, findings: &mut Vec<Finding>) {
    let dir = root.join("bench-baselines");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // No baselines committed: nothing to check.
    };
    let targets = bench_targets(root);
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let file = format!("bench-baselines/{}", name_of(&path));
        let stem = name_of(&path)
            .trim_end_matches(".json")
            .trim_start_matches("BENCH_")
            .to_string();
        if !targets.contains(&stem) {
            findings.push(finding(
                &file,
                1,
                format!(
                    "baseline '{stem}' matches no [[bench]] target in crates/bench/Cargo.toml \
                     (registered: {})",
                    targets.join(", ")
                ),
            ));
        }
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Err(e) = json::validate(&text) {
                    findings.push(finding(&file, 1, format!("malformed JSON: {e}")));
                }
            }
            Err(e) => findings.push(finding(&file, 1, format!("unreadable: {e}"))),
        }
    }
}

fn name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Every smoke the CI workflow claims to run must resolve: `--fig` names
/// against the experiment registry, `--bench` names against the bench
/// targets, `--list-transitions` labels against the protocol registry and
/// the coherent spectrum — and the workflow must actually gate on sigtidy
/// and `check-specs`.
fn check_ci_workflow(root: &Path, findings: &mut Vec<Finding>) {
    let path = ".github/workflows/ci.yml";
    let Ok(ci) = std::fs::read_to_string(root.join(path)) else {
        findings.push(finding(path, 1, "CI workflow is missing".to_string()));
        return;
    };
    let registry = sigbench::extended_registry();
    let targets = bench_targets(root);

    for (flag, line) in flag_arguments(&ci, "--fig") {
        if registry.get(&flag).is_none() {
            findings.push(finding(
                path,
                line,
                format!("CI invokes --fig {flag}, which is not a registered experiment"),
            ));
        }
    }
    for (flag, line) in flag_arguments(&ci, "--bench") {
        if !targets.contains(&flag) {
            findings.push(finding(
                path,
                line,
                format!("CI invokes --bench {flag}, which is not a registered bench target"),
            ));
        }
    }
    let protocols = sigbench::protocol_registry();
    for (label, line) in flag_arguments(&ci, "--list-transitions") {
        let known = protocols.iter().any(|e| e.spec.label() == label)
            || sigbench::coherent_spectrum()
                .iter()
                .any(|s| s.label() == label);
        if !known {
            findings.push(finding(
                path,
                line,
                format!("CI invokes --list-transitions {label}, which resolves to no spec"),
            ));
        }
    }
    for (needle, what) in [
        ("-p sigtidy", "the sigtidy lint gate"),
        ("check-specs", "the spec-space model check"),
    ] {
        if !ci.contains(needle) {
            findings.push(finding(
                path,
                line_of(&ci, "jobs:"),
                format!("CI workflow does not run {what} (`{needle}`)"),
            ));
        }
    }
}

/// All `(argument, 1-indexed line)` pairs following `flag` in `text`.
fn flag_arguments(text: &str, flag: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut tokens = line.split_whitespace().peekable();
        while let Some(tok) = tokens.next() {
            if tok == flag {
                if let Some(arg) = tokens.peek() {
                    out.push((arg.to_string(), i + 1));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_arguments_find_every_occurrence_with_lines() {
        let text = "run: repro --quick --fig fig12a\n  other\n  repro --fig node-scale --fig x";
        let args = flag_arguments(text, "--fig");
        assert_eq!(
            args,
            vec![
                ("fig12a".to_string(), 1),
                ("node-scale".to_string(), 3),
                ("x".to_string(), 3),
            ]
        );
    }

    #[test]
    fn catalog_rows_must_appear_whole_and_in_order() {
        let rows: Vec<String> = ["| a | x |", "| b | y |"].map(String::from).to_vec();
        let doc = "intro\n| a | x |\ntext\n| b | y |\n";
        assert!(missing_rows(doc, &rows).is_empty());
        // Out of order: the second row is only found before the first.
        let swapped = "| b | y |\n| a | x |\n";
        assert_eq!(missing_rows(swapped, &rows), vec![(3, "| b | y |")]);
        // A stale row (changed tags) or a partial line does not count.
        let stale = "| a | x |\n| b | z |\n| b | y | extra\n";
        assert_eq!(missing_rows(stale, &rows), vec![(2, "| b | y |")]);
    }

    #[test]
    fn bench_targets_parse_the_real_manifest() {
        let root = crate::workspace_root();
        let targets = bench_targets(&root);
        assert!(targets.contains(&"event_queue".to_string()), "{targets:?}");
        assert!(targets.contains(&"fig05_loss_delay".to_string()));
    }
}
