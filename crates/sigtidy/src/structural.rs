//! Cross-file sync checks, generalizing `tests/doc_sync.rs`: the
//! experiment registry vs `EXPERIMENTS.md`, the committed bench baselines
//! vs the bench targets registered in `crates/bench/Cargo.toml`, the CI
//! workflow vs everything it claims to invoke, and every `pub fn` vs the
//! source files that name it.
//!
//! All registry truth comes from the live `sigbench` registries — the same
//! constructors `repro` runs — so these checks can never drift from the
//! binary's actual behavior.

use crate::json;
use crate::lints::{allowed, classify, parse_allow, CrateClass, Finding};
use crate::scan::scan;
use std::collections::BTreeMap;
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
    match public_surface_sources(root) {
        Ok(sources) => findings.extend(unused_pub(&sources)),
        Err(e) => findings.push(finding(".", 1, format!("cannot read the source tree: {e}"))),
    }
    findings
}

/// `(repo-relative path, text)` of every file the `unused-pub` check reads:
/// each workspace crate's `src/`, `tests/` and `benches/` (lint fixtures
/// excluded: they are data, not code), the facade's `src/`, `tests/` and
/// `examples/`, and `sigperf/src`.
fn public_surface_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut dirs: Vec<String> = Vec::new();
    for (name, _) in crate::workspace_crates(root)? {
        for sub in ["src", "tests", "benches"] {
            dirs.push(format!("crates/{name}/{sub}"));
        }
    }
    dirs.extend(["src", "tests", "examples", "sigperf/src"].map(String::from));
    let mut sources = Vec::new();
    for dir in dirs {
        let dir_path = root.join(&dir);
        if !dir_path.is_dir() {
            continue;
        }
        for file in crate::rust_sources(&dir_path)? {
            let path = format!("{dir}/{}", crate::relative(&file, &dir_path));
            if !path.contains("/fixtures/") {
                sources.push((path, std::fs::read_to_string(&file)?));
            }
        }
    }
    Ok(sources)
}

/// The `unused-pub` check over `(repo-relative path, text)` sources: a
/// non-test `pub fn` in a linted crate's `src/` must be named, outside
/// comments, strings and `pub use` re-exports, in at least one *other*
/// source file.  One named only in its own file should not be public;
/// one named nowhere should not exist.  Deliberate API (a reference
/// implementation, an entry point for examples or docs) is waived with
/// `// sigtidy: allow(unused-pub) — <reason>`.
pub fn unused_pub(sources: &[(String, String)]) -> Vec<Finding> {
    let scanned: Vec<_> = sources.iter().map(|(_, text)| scan(text)).collect();
    // How many files name each identifier.
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for lines in &scanned {
        let mut idents: Vec<&str> = Vec::new();
        let mut in_pub_use = false;
        for line in lines {
            // A `pub use` re-export names an item without using it.
            let code = line.code.trim_start();
            in_pub_use = in_pub_use || code.starts_with("pub use ");
            if !in_pub_use {
                idents.extend(code.split(|c: char| !(c.is_alphanumeric() || c == '_')));
            }
            in_pub_use = in_pub_use && !code.contains(';');
        }
        idents.sort_unstable();
        idents.dedup();
        for ident in idents {
            *files_naming.entry(ident).or_default() += 1;
        }
    }
    let mut findings = Vec::new();
    for ((path, _), lines) in sources.iter().zip(&scanned) {
        let linted = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once("/src/"))
            .is_some_and(|(krate, _)| classify(krate) != CrateClass::DevTool);
        if !linted {
            continue;
        }
        let allows: Vec<_> = lines.iter().map(parse_allow).collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(name) = pub_fn_name(&line.code) else {
                continue;
            };
            // The definition itself is one file naming it.
            if line.in_test || files_naming.get(name).is_some_and(|&n| n > 1) {
                continue;
            }
            if !allowed(&allows, "unused-pub", i) {
                findings.push(Finding {
                    file: path.clone(),
                    line: i + 1,
                    lint: "unused-pub",
                    message: format!(
                        "`pub fn {name}` is named in no other source file: delete it, narrow \
                         its visibility, or waive deliberate API with \
                         `// sigtidy: allow(unused-pub) — <why>`"
                    ),
                });
            }
        }
    }
    findings
}

/// The name defined by a `pub [const] fn <name>` line of blanked code
/// (`pub(crate)` and other scoped visibilities excluded).
fn pub_fn_name(code: &str) -> Option<&str> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
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
    fn pub_fn_definitions_are_recognised() {
        assert_eq!(pub_fn_name("    pub fn run(&self) {"), Some("run"));
        assert_eq!(pub_fn_name("pub const fn new() -> Self {"), Some("new"));
        assert_eq!(pub_fn_name("pub(crate) fn helper() {"), None);
        assert_eq!(pub_fn_name("fn private() {"), None);
        assert_eq!(pub_fn_name("pub fn $name() {}"), None);
        assert_eq!(pub_fn_name("pub fields: u32,"), None);
    }

    #[test]
    fn bench_targets_parse_the_real_manifest() {
        let root = crate::workspace_root();
        let targets = bench_targets(&root);
        assert!(targets.contains(&"event_queue".to_string()), "{targets:?}");
        assert!(targets.contains(&"fig05_loss_delay".to_string()));
    }
}
