//! The source-tree lints: per-crate-class forbidden-API checks, the
//! `unwrap`/`expect`/`panic!` hygiene check, and the allow-comment escape
//! hatch (itself linted for a reason string).

use crate::scan::{scan, SourceLine};
use std::fmt;

/// Every lint sigtidy knows, by the name used in findings and in
/// `// sigtidy: allow(<name>) — <reason>` escape comments.
pub const LINTS: &[&str] = &[
    "wall-clock",
    "nondeterministic-rng",
    "unordered-map-iter",
    "no-unwrap",
    "unused-pub",
    "allow-needs-reason",
];

/// One lint finding, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// The lint that fired (one of [`LINTS`], or `"structure"` for the
    /// cross-file sync checks).
    pub lint: &'static str,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// The determinism contract a crate is held to.
///
/// Result-path crates feed numbers that end up in tables, figures and
/// goldens, so they get the full forbidden-API set; infrastructure crates
/// (benches, the CLI, the checker, workload generators) legitimately read
/// wall clocks but still must not panic in library code or draw
/// nondeterministic randomness; dev-tool stand-ins (`crates/devtools/*`)
/// exist to measure time and to panic on assertion failure, so they are
/// exempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Crates whose output reaches results: full lint set.
    ResultPath,
    /// Tooling crates: hygiene lints only.
    Infra,
    /// `crates/devtools/*`: exempt from source lints.
    DevTool,
}

/// Classifies a crate by its directory name under `crates/`.
pub fn classify(crate_dir: &str) -> CrateClass {
    match crate_dir {
        "sim-core" | "analytic" | "markov" | "protocols" | "net" | "stats" | "core" => {
            CrateClass::ResultPath
        }
        dir if dir.starts_with("devtools") => CrateClass::DevTool,
        _ => CrateClass::Infra,
    }
}

/// Whether a source path (relative to the crate's `src/`) is library code,
/// where the `no-unwrap` lint applies.  Binaries (`main.rs`, `bin/*`) own
/// their process and may exit or panic at the top level.
fn is_library_path(rel_in_src: &str) -> bool {
    rel_in_src != "main.rs" && !rel_in_src.starts_with("bin/")
}

/// An `// sigtidy: allow(<lint>) — <reason>` escape parsed from one line.
pub(crate) struct Allow {
    lint: String,
    has_reason: bool,
    known: bool,
}

const ALLOW_MARKER: &str = "sigtidy: allow(";

/// Parses the escape comment on one line, if any.  The marker counts only
/// inside an actual `//` line comment — not in string literals, and not in
/// doc comments (`///`, `//!`), which merely *document* the syntax.
pub(crate) fn parse_allow(line: &SourceLine) -> Option<Allow> {
    // Blanking is char-for-char, so the char offset of the comment opener
    // in `code` (comments keep their leading `//`) is valid in `raw` too.
    let comment_chars = line
        .code
        .find("//")
        .map(|b| line.code[..b].chars().count())?;
    let comment: String = line.raw.chars().skip(comment_chars).collect();
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let start = comment.find(ALLOW_MARKER)?;
    let rest = &comment[start + ALLOW_MARKER.len()..];
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim_start();
    // The reason is mandatory and set off by a dash: "— <why>" (em dash,
    // double hyphen, or a plain "- ").
    let reason = ["\u{2014}", "--", "-"]
        .iter()
        .find_map(|d| tail.strip_prefix(d))
        .map(str::trim)
        .unwrap_or("");
    Some(Allow {
        known: LINTS.contains(&lint.as_str()),
        lint,
        has_reason: !reason.is_empty(),
    })
}

/// Whether an allow for `lint` sits on line `i` or on the line
/// immediately above it, which suppresses the lint there.
pub(crate) fn allowed(allows: &[Option<Allow>], lint: &str, i: usize) -> bool {
    let covers = |a: &Option<Allow>| a.as_ref().is_some_and(|a| a.known && a.lint == lint);
    covers(&allows[i]) || (i > 0 && covers(&allows[i - 1]))
}

/// Word-boundary containment: `needle` appears in `hay` not flanked by
/// identifier characters.
fn has_word(hay: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = !hay[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !hay[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Identifiers bound to `HashMap`/`HashSet` values in this file: `let`
/// bindings, struct fields and typed parameters.  Token-level, like the
/// rest of sigtidy — the goal is catching the iteration idioms that caused
/// real golden-test nondeterminism, not soundness.
fn map_identifiers(lines: &[SourceLine]) -> Vec<String> {
    let mut names = Vec::new();
    for line in lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if !(code.contains("HashMap") || code.contains("HashSet")) {
            continue;
        }
        // `let [mut] name: ... HashMap<...>` / `let [mut] name = HashMap::new()`
        // and `name: [&]HashMap<...>` field or parameter declarations.
        for (i, _) in code.match_indices(':').chain(code.match_indices('=')) {
            let after = &code[i + 1..];
            let after = after.strip_prefix(':').unwrap_or(after); // skip `::`
            let mentions = ["HashMap", "HashSet"]
                .iter()
                .any(|t| after.trim_start().trim_start_matches('&').starts_with(t));
            if !mentions {
                continue;
            }
            let before = code[..i].trim_end();
            let name: String = before
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if !name.is_empty()
                && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                && !names.contains(&name)
            {
                names.push(name);
            }
        }
    }
    names
}

const ITERATION_SUFFIXES: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// Whether `code` iterates over the map/set identifier `name`: a
/// method-style iteration (`name.iter()`, `name.keys()`, ...) or a
/// `for`-loop over `name` / `&name` / `&mut name`.
fn iterates_over(code: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = code[from..].find(name) {
        let at = from + pos;
        from = at + name.len();
        if code[..at].chars().next_back().is_some_and(is_ident) {
            continue; // mid-identifier, e.g. `reseen` when looking for `seen`
        }
        let after = &code[at + name.len()..];
        if ITERATION_SUFFIXES.iter().any(|s| after.starts_with(s)) {
            return true;
        }
        // `for x in name {` / `... in &mut name` — the identifier is the
        // loop's iterated expression.
        let before = code[..at].trim_end();
        let before = before
            .strip_suffix("&mut")
            .or_else(|| before.strip_suffix('&'))
            .map(str::trim_end)
            .unwrap_or(before);
        if before.ends_with(" in") || before == "in" {
            let rest = after.trim_start();
            if rest.is_empty() || rest.starts_with('{') {
                return true;
            }
        }
    }
    false
}

/// Lints one source file.  `rel_in_src` is the path relative to the
/// crate's `src/` directory (for the library-code distinction); `file` is
/// the repo-relative path reported in findings.
pub fn lint_file(class: CrateClass, file: &str, rel_in_src: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if class == CrateClass::DevTool {
        return findings;
    }
    let lines = scan(text);
    let allows: Vec<Option<Allow>> = lines.iter().map(parse_allow).collect();

    // The escape hatch is itself linted: the lint name must exist and the
    // reason string must be present.
    for (i, allow) in allows.iter().enumerate() {
        if lines[i].in_test {
            continue;
        }
        if let Some(a) = allow {
            if !a.known {
                findings.push(Finding {
                    file: file.to_string(),
                    line: i + 1,
                    lint: "allow-needs-reason",
                    message: format!(
                        "unknown lint '{}' in sigtidy allow (known: {})",
                        a.lint,
                        LINTS.join(", ")
                    ),
                });
            } else if !a.has_reason {
                findings.push(Finding {
                    file: file.to_string(),
                    line: i + 1,
                    lint: "allow-needs-reason",
                    message: format!(
                        "sigtidy allow({}) needs a reason: `// sigtidy: allow({}) — <why>`",
                        a.lint, a.lint
                    ),
                });
            }
        }
    }

    let library = is_library_path(rel_in_src);
    let maps = if class == CrateClass::ResultPath {
        map_identifiers(&lines)
    } else {
        Vec::new()
    };

    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut push = |lint: &'static str, message: String| {
            if !allowed(&allows, lint, i) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: i + 1,
                    lint,
                    message,
                });
            }
        };

        if class == CrateClass::ResultPath {
            for token in ["Instant", "SystemTime"] {
                if has_word(code, token) {
                    push(
                        "wall-clock",
                        format!(
                            "std::time::{token} in a result-path crate: results must be a pure \
                             function of virtual time (use simcore::SimTime)"
                        ),
                    );
                }
            }
        }

        for token in [
            "thread_rng",
            "from_entropy",
            "OsRng",
            "RandomState",
            "getrandom",
        ] {
            if has_word(code, token) {
                push(
                    "nondeterministic-rng",
                    format!(
                        "{token} seeds from the environment: all randomness must flow from the \
                         campaign seed (sigstats xoshiro)"
                    ),
                );
            }
        }

        if class == CrateClass::ResultPath {
            for name in &maps {
                if iterates_over(code, name) {
                    push(
                        "unordered-map-iter",
                        format!(
                            "iteration over hash-ordered `{name}`: iterate a sorted projection \
                             or use an index-ordered container (BTreeMap / Vec)"
                        ),
                    );
                    break;
                }
            }
        }

        if library {
            for (token, hint) in [
                (".unwrap()", "return a typed error instead of unwrapping"),
                (".expect(", "return a typed error instead of expecting"),
                (
                    "panic!(",
                    "library code must not panic; return a typed error",
                ),
            ] {
                if code.contains(token) {
                    push(
                        "no-unwrap",
                        format!(
                            "`{}` in non-test library code: {hint}",
                            token.trim_matches('.')
                        ),
                    );
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_crate_map() {
        assert_eq!(classify("analytic"), CrateClass::ResultPath);
        assert_eq!(classify("core"), CrateClass::ResultPath);
        assert_eq!(classify("bench"), CrateClass::Infra);
        assert_eq!(classify("fsm"), CrateClass::Infra);
        assert_eq!(classify("sigtidy"), CrateClass::Infra);
        assert_eq!(classify("devtools/criterion"), CrateClass::DevTool);
    }

    #[test]
    fn word_boundaries_guard_token_matches() {
        assert!(has_word("let t = Instant::now();", "Instant"));
        assert!(!has_word("let t = MyInstant::now();", "Instant"));
        assert!(!has_word("let t = Instantaneous::now();", "Instant"));
    }

    fn allow_of(line: &str) -> Option<Allow> {
        parse_allow(&scan(line)[0])
    }

    #[test]
    fn allow_parsing_requires_known_lint_and_reason() {
        let a = allow_of("let t = now(); // sigtidy: allow(wall-clock) — phase telemetry").unwrap();
        assert!(a.known && a.has_reason);
        let a = allow_of("// sigtidy: allow(wall-clock)").unwrap();
        assert!(a.known && !a.has_reason);
        let a = allow_of("// sigtidy: allow(made-up) — whatever").unwrap();
        assert!(!a.known);
        assert!(allow_of("// ordinary comment").is_none());
    }

    #[test]
    fn allow_marker_only_counts_in_real_line_comments() {
        // Doc comments document the syntax; strings quote it.  Neither is
        // an escape hatch.
        assert!(allow_of("/// write `// sigtidy: allow(wall-clock) — why`").is_none());
        assert!(allow_of("//! see sigtidy: allow(no-unwrap) — docs").is_none());
        assert!(allow_of("let s = \"sigtidy: allow(wall-clock) — nope\";").is_none());
    }
}
