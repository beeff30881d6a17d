//! Rendering experiment results.
//!
//! The `repro` binary and `EXPERIMENTS.md` are produced from these renderers:
//! aligned plain-text tables for reading in a terminal, CSV for plotting, and
//! JSON for programmatic consumption.

use crate::experiment::{ExperimentOptions, ExperimentOutput};
use crate::registry::Experiment;
use sigstats::SeriesSet;

/// Renders a figure as an aligned plain-text table.
pub fn render_table(set: &SeriesSet) -> String {
    set.to_table()
}

/// Renders a figure as CSV.
pub fn render_csv(set: &SeriesSet) -> String {
    set.to_csv()
}

/// Renders a figure as a JSON document
/// (`{"title", "x_label", "y_label", "series": [{label, points: [[x, y, err]]}]}`).
///
/// The emitter is hand-rolled (the build is dependency-free); it produces
/// strictly valid JSON: strings are escaped, non-finite numbers and absent
/// error bars become `null`.
pub fn render_json(set: &SeriesSet) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"title\": {},\n", json_string(&set.title)));
    out.push_str(&format!("  \"x_label\": {},\n", json_string(&set.x_label)));
    out.push_str(&format!("  \"y_label\": {},\n", json_string(&set.y_label)));
    out.push_str("  \"series\": [\n");
    for (i, s) in set.series.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": {},\n", json_string(&s.label)));
        out.push_str("      \"points\": [");
        for (j, p) in s.points.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "[{}, {}, {}]",
                json_number(p.x),
                json_number(p.y),
                p.err.map_or_else(|| "null".to_string(), json_number)
            ));
        }
        out.push_str("]\n");
        out.push_str(if i + 1 < set.series.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}");
    out
}

/// Escapes a string as a JSON string literal (including the quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (`null` for NaN/infinities, which JSON
/// cannot represent).
fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let mut s = format!("{x}");
    // `{}` on an integral float prints no decimal point; keep it a JSON
    // number either way (both forms are valid), but normalize -0.
    if s == "-0" {
        s = "0".to_string();
    }
    s
}

/// Runs any registered experiment and renders it as text, prefixed with its
/// description.
pub fn run_and_render(experiment: &dyn Experiment, options: &ExperimentOptions) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== {} — {} ==\n",
        experiment.name(),
        experiment.description()
    ));
    let output = experiment.run(options);
    match output {
        ExperimentOutput::Figure(fig) => out.push_str(&render_table(&fig)),
        ExperimentOutput::Text(text) => out.push_str(&text),
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use proptest::prelude::*;
    use sigstats::{Point, Series};

    fn sample() -> SeriesSet {
        let mut set = SeriesSet::new("Fig X", "x", "y");
        set.push(Series::from_xy("SS", [(1.0, 0.5), (2.0, 0.25)]));
        set.push(Series::from_xy("HS", [(1.0, 0.1), (2.0, 0.05)]));
        set
    }

    #[test]
    fn table_and_csv_render() {
        let s = sample();
        assert!(render_table(&s).contains("Fig X"));
        assert!(render_csv(&s).starts_with("x,SS,HS"));
    }

    #[test]
    fn json_contains_series_and_escapes() {
        let s = sample();
        let text = render_json(&s);
        assert!(text.contains("\"title\": \"Fig X\""));
        assert!(text.contains("\"label\": \"SS\""));
        assert!(text.contains("\"label\": \"HS\""));
        assert!(text.contains("[1, 0.5, null]"));
        assert_eq!(text.matches("\"points\"").count(), 2);

        let mut tricky = SeriesSet::new("quote \" and \\ back\nslash", "x", "y");
        tricky.push(Series::from_xy("s", [(f64::NAN, f64::INFINITY)]));
        let text = render_json(&tricky);
        assert!(text.contains("\"quote \\\" and \\\\ back\\nslash\""));
        assert!(text.contains("[null, null, null]"));
    }

    #[test]
    fn json_number_formats() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(-0.0), "0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn run_and_render_produces_header_and_data() {
        let registry = Registry::with_builtins();
        let fig5a = registry.get("fig5a").expect("fig5a is built in");
        let text = run_and_render(fig5a, &ExperimentOptions::quick());
        assert!(text.contains("fig5a"));
        assert!(text.contains("SS+ER"));
        assert!(text.lines().count() > 10);
    }

    /// Decodes a JSON string literal produced by `json_string`, so the
    /// escaping property below is a full round trip.
    fn json_unescape(literal: &str) -> String {
        let inner: Vec<char> = literal
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .expect("quoted literal")
            .chars()
            .collect();
        let mut out = String::new();
        let mut i = 0;
        while i < inner.len() {
            if inner[i] != '\\' {
                out.push(inner[i]);
                i += 1;
                continue;
            }
            match inner[i + 1] {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = inner[i + 2..i + 6].iter().collect();
                    let code = u32::from_str_radix(&hex, 16).expect("4 hex digits");
                    out.push(char::from_u32(code).expect("valid escape"));
                    i += 6;
                    continue;
                }
                other => panic!("invalid escape \\{other}"),
            }
            i += 2;
        }
        out
    }

    proptest! {
        #[test]
        fn prop_json_string_escaping_round_trips(codes in proptest::collection::vec(0u32..0x2000, 0..40)) {
            // Bias heavily toward the characters that need escaping, then
            // check the emitted literal is well-formed and decodes back to
            // the original string.
            let original: String = codes
                .iter()
                .map(|&c| match c % 8 {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => '\t',
                    4 => '\r',
                    5 => char::from_u32(c % 0x20).unwrap(),
                    _ => char::from_u32(0x20 + c % 0xD7E0).unwrap(),
                })
                .collect();
            let literal = json_string(&original);
            prop_assert!(literal.starts_with('"') && literal.ends_with('"'));
            // No raw control characters may survive escaping.
            for ch in literal[1..literal.len() - 1].chars() {
                prop_assert!(ch as u32 >= 0x20, "raw control char {:?} in {literal}", ch);
            }
            prop_assert_eq!(json_unescape(&literal), original);
        }

        #[test]
        fn prop_json_number_finite_round_trips_and_nonfinite_is_null(x in any::<f64>()) {
            // Finite values parse back exactly (Rust's shortest-roundtrip
            // formatting); non-finite values must become null.
            let s = json_number(x);
            prop_assert!(s != "null");
            let parsed: f64 = s.parse().unwrap();
            prop_assert_eq!(parsed, x);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, x * f64::NAN] {
                prop_assert_eq!(json_number(bad), "null".to_string());
            }
        }

        #[test]
        fn prop_render_json_never_emits_nonfinite_tokens(y in any::<f64>(), n in 1usize..6) {
            let mut set = SeriesSet::new("t", "x", "y");
            let mut s = Series::new("s");
            for i in 0..n {
                let value = if i % 2 == 0 { y } else { f64::NAN };
                s.push(Point::new(i as f64, value));
            }
            set.push(s);
            let text = render_json(&set);
            prop_assert!(!text.contains("NaN"));
            prop_assert!(!text.contains("inf"));
        }
    }
}
