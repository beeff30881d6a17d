//! `sigperf` — end-to-end and per-layer benchmark of the hard-state /
//! soft-state signaling reproduction.
//!
//! ```text
//! sigperf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!         [--digests FILE] [--state-dir DIR] [--record-digests]
//! sigperf --list-metrics
//! ```
//!
//! One process runs one workload: it sets the workload up several times
//! (reporting the median as `setup_s`), measures passes for `--seconds`,
//! checks every pass's outputs outside the timed region, and prints the
//! metrics followed by one JSON result line.  `--trace 1` spends half the
//! time untraced and half with spans on, replays the layers' calls on the
//! workload's inputs, and prints the per-layer metrics instead.
//! `sigperf/run.py` builds this program and is the command to run.

// Timing with the wall clock is this program's job.
#![allow(clippy::disallowed_methods)]

mod analytic;
mod harness;
mod layers;
mod node;
mod stats;
mod trace;

use analytic::DEFAULT_SEED;
use harness::{
    compare_with_earlier_run, end_to_end, measure, print_result, unit_latencies, Checker,
    Fingerprint, FingerprintLog, MetricDef, Metrics, Workload, END_TO_END, PER_LAYER,
};
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "paper-figures",
    "analytic-spectrum",
    "node-million",
    "fault-storm",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    digests: Option<PathBuf>,
    state_dir: Option<PathBuf>,
    record_digests: bool,
    list_metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        digests: None,
        state_dir: None,
        record_digests: false,
        list_metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds needs a positive number, got '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got '{other}'")),
                }
            }
            "--digests" => args.digests = Some(PathBuf::from(value()?)),
            "--state-dir" => args.state_dir = Some(PathBuf::from(value()?)),
            "--record-digests" => args.record_digests = true,
            "--list-metrics" => args.list_metrics = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.record_digests && args.seed != DEFAULT_SEED {
        return Err(format!(
            "--record-digests records the default seed {DEFAULT_SEED}"
        ));
    }
    if !args.list_metrics && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            args.workload
        ));
    }
    Ok(args)
}

/// Set-ups per run; `setup_s` is their median.
fn setup_repetitions(workload: &str) -> usize {
    if workload == "node-million" {
        3
    } else {
        25
    }
}

fn build(args: &Args, expected: &BTreeMap<String, u64>) -> Box<dyn Workload> {
    let check = !args.record_digests;
    let default_seed = args.seed == DEFAULT_SEED;
    let expected = expected.clone();
    match args.workload.as_str() {
        "paper-figures" => Box::new(analytic::paper_figures(args.seed, expected, check)),
        "analytic-spectrum" => Box::new(analytic::analytic_spectrum(
            args.seed,
            expected,
            check && default_seed,
        )),
        "node-million" => Box::new(node::node_million(
            args.seed,
            expected,
            check && default_seed,
        )),
        _ => Box::new(node::fault_storm(args.seed, expected, check)),
    }
}

/// The recorded digests of `workload`: lines of `workload key hex-digest`.
fn load_digests(path: Option<&PathBuf>, workload: &str) -> BTreeMap<String, u64> {
    let text = path
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (w, key, hex) = (f.next()?, f.next()?, f.next()?);
            if w != workload {
                return None;
            }
            Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Replaces the recorded digests of `workload` in `path`.
fn record_digests(
    path: &PathBuf,
    workload: &str,
    digests: &[(String, u64)],
) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| l.split_whitespace().next() != Some(workload))
        .map(String::from)
        .collect();
    lines.extend(
        digests
            .iter()
            .map(|(k, d)| format!("{workload} {k} {d:016x}")),
    );
    lines.sort();
    std::fs::write(path, lines.join("\n") + "\n")
}

fn list_metrics() {
    let list = |defs: &[MetricDef]| {
        defs.iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name, d.unit, d.better
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        list(END_TO_END),
        list(PER_LAYER)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sigperf: {e}");
            std::process::exit(2);
        }
    };
    if args.list_metrics {
        list_metrics();
        return;
    }
    println!(
        "sigperf: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let expected = load_digests(args.digests.as_ref(), &args.workload);
    let mut ck = Checker::default();
    let mut tr = Tracer::new();

    // Set-up, several times; each repetition must reproduce the first.
    let mut setup_s = Vec::new();
    let mut setup_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut setup_log = FingerprintLog::default();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..setup_repetitions(&args.workload) {
        drop(workload.take());
        let t = Instant::now();
        let w = build(&args, &expected);
        setup_s.push(t.elapsed().as_secs_f64());
        for (name, secs) in w.setup_layers() {
            setup_layers.entry(name).or_default().push(secs);
        }
        if let Some(fp) = w.setup_fingerprint() {
            setup_log.observe(fp, &mut ck, "set-up");
        }
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let mut next_pass = 0;
    let mut next_unit = 0;
    let mut log = FingerprintLog::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut run = |w: &mut Box<dyn Workload>, tr: &mut Tracer, ck: &mut Checker, budget| {
        measure(
            w.as_mut(),
            tr,
            ck,
            budget,
            &mut next_pass,
            &mut next_unit,
            &mut log,
        )
    };

    let metrics: Metrics = if args.trace {
        let plain = run(&mut w, &mut tr, &mut ck, budget / 2);
        w.begin_traced();
        tr.set_enabled(true);
        let traced = run(&mut w, &mut tr, &mut ck, budget / 2);
        tr.set_enabled(false);
        let passes = traced.pass_equivalents();
        let mut spans = Metrics::new();
        for (name, secs) in tr.self_seconds_by_name() {
            let metric = format!("{name}_s");
            if let Some(def) = PER_LAYER.iter().find(|d| d.name == metric) {
                spans.insert(def.name, secs / passes);
            }
        }
        let mut metrics = spans.clone();
        for (name, samples) in &setup_layers {
            metrics.insert(name, median(samples));
        }
        if let Some(layers) = ck.guarded("layer replays", |ck| w.layer_metrics(&spans, ck)) {
            metrics.extend(layers);
        }
        metrics.insert("trace.overhead_s", traced.wall_s() - plain.wall_s());
        println!(
            "trace: {} spans over {passes:.2} traced passes; wall_s untraced {:.6} s, traced {:.6} s",
            tr.spans().len(),
            plain.wall_s(),
            traced.wall_s()
        );
        if let Some(dir) = &args.state_dir {
            let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| tr.write_jsonl(&path)) {
                eprintln!("sigperf: cannot write {}: {e}", path.display());
            }
        }
        metrics
    } else {
        let t = run(&mut w, &mut tr, &mut ck, budget);
        let metrics = end_to_end(&setup_s, &t);
        println!("{} complete passes, {} set-ups", t.passes, setup_s.len());
        for (name, value, unit) in unit_latencies(&t).into_iter().chain(w.extras(t.wall_s())) {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        metrics
    };

    // Counts must also repeat across runs of the same build and seed.
    if let Some(dir) = &args.state_dir {
        let mut fp: Fingerprint = log.seen.clone();
        fp.extend(
            setup_log
                .seen
                .iter()
                .map(|(k, v)| (format!("setup.{k}"), *v)),
        );
        let path = dir.join(format!(
            "counts-{}-{}-{}.txt",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        match std::fs::create_dir_all(dir) {
            Ok(()) => compare_with_earlier_run(&fp, &path, &mut ck),
            Err(e) => eprintln!("sigperf: cannot create {}: {e}", dir.display()),
        }
    }
    if args.record_digests {
        if let Some(path) = &args.digests {
            if let Err(e) = record_digests(path, &args.workload, &w.digests()) {
                eprintln!("sigperf: cannot record digests in {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!(
        "failed_frac {:>16} ({} of {} checks failed)",
        ck.failed as f64 / ck.attempted.max(1) as f64,
        ck.failed,
        ck.attempted
    );
    print_result(
        if args.trace { PER_LAYER } else { END_TO_END },
        &metrics,
        &ck,
    );
}
