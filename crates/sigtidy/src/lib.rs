//! `sigtidy` — the workspace determinism linter.
//!
//! Every result this workspace ships rests on a determinism contract:
//! bit-identical output across execution policies, queue kinds and
//! fault-schedule encodings.  That contract is enforced after the fact by
//! golden tests, which catch a violation only once it flips a figure.
//! sigtidy enforces it at the source level, rustc-`tidy`-style — line and
//! token based over blanked source (see [`scan`]), no parser, zero
//! external dependencies — so a nondeterminism hazard fails CI before it
//! can reach a golden.
//!
//! Three layers:
//!
//! * **forbidden-API lints** per [crate class](lints::CrateClass):
//!   wall-clock reads (`Instant`/`SystemTime`) and hash-ordered
//!   `HashMap`/`HashSet` *iteration* in result-path crates, and
//!   environment-seeded randomness anywhere outside `crates/devtools/*`;
//! * **hygiene lints**: `unwrap()`/`expect()`/`panic!` in non-test library
//!   code (typed errors are the house style);
//! * **structural sync checks** ([`structural`]): the experiment registry
//!   vs `EXPERIMENTS.md`, committed bench baselines vs registered bench
//!   targets, the CI workflow vs every smoke it claims to invoke, and the
//!   public surface vs its callers (`unused-pub`).
//!
//! Any lint can be waived at a specific site with
//! `// sigtidy: allow(<lint>) — <reason>` on the offending line or the
//! line above; the escape hatch is itself linted (`allow-needs-reason`)
//! for a known lint name and a non-empty reason.
//!
//! `cargo run -p sigtidy` lints the workspace and exits non-zero on any
//! finding; the `live_tree` integration test holds the tree to the same
//! standard under plain `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lints;
pub mod scan;
pub mod structural;

pub use lints::{classify, lint_file, CrateClass, Finding, LINTS};
pub use structural::{structural_findings, unused_pub};

use std::path::{Path, PathBuf};

/// The workspace root, resolved from this crate's manifest location
/// (`crates/sigtidy` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

/// The outcome of linting a whole workspace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidyReport {
    /// Every finding, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl TidyReport {
    /// Whether the tree is clean.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints the workspace at `root`: every `crates/*/src/**/*.rs` (crate
/// classes per [`classify`]) plus the structural sync checks.
pub fn lint_tree(root: &Path) -> std::io::Result<TidyReport> {
    let mut findings = Vec::new();
    let mut files_scanned = 0;
    for (crate_name, crate_dir) in workspace_crates(root)? {
        let class = classify(&crate_name);
        let src = crate_dir.join("src");
        for file in rust_sources(&src)? {
            let rel_in_src = relative(&file, &src);
            let display = format!("crates/{crate_name}/src/{rel_in_src}");
            let text = std::fs::read_to_string(&file)?;
            findings.extend(lint_file(class, &display, &rel_in_src, &text));
            files_scanned += 1;
        }
    }
    findings.extend(structural_findings(root));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(TidyReport {
        findings,
        files_scanned,
    })
}

/// `(name, dir)` of every workspace crate under `crates/`, in sorted
/// order; `crates/devtools/*` members are named `devtools/<sub>`.
fn workspace_crates(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for dir in sorted_dirs(&root.join("crates"))? {
        let name = name_of(&dir);
        if dir.join("src").is_dir() {
            out.push((name, dir));
        } else {
            // A grouping directory (devtools/): each subdirectory is a crate.
            for sub in sorted_dirs(&dir)? {
                if sub.join("src").is_dir() {
                    out.push((format!("{name}/{}", name_of(&sub)), sub));
                }
            }
        }
    }
    Ok(out)
}

/// Every `.rs` file under `dir`, recursively, in sorted (deterministic)
/// order.
fn rust_sources(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn sorted_dirs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            dirs.push(path);
        }
    }
    dirs.sort();
    Ok(dirs)
}

fn name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn relative(path: &Path, base: &Path) -> String {
    path.strip_prefix(base)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_points_at_the_manifest() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "{}", root.display());
        assert!(root.join("crates/sigtidy").is_dir());
    }

    #[test]
    fn walker_finds_every_workspace_crate() {
        let crates = workspace_crates(&workspace_root()).expect("workspace layout");
        let names: Vec<&str> = crates.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "analytic",
            "bench",
            "core",
            "devtools/criterion",
            "devtools/proptest",
            "fsm",
            "markov",
            "net",
            "protocols",
            "sigtidy",
            "sim-core",
            "stats",
            "workload",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
        // Sorted = deterministic walk order.
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
