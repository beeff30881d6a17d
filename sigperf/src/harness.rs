//! The measurement loop every workload shares: set-up repetitions, timed
//! passes, output checks outside the timed region, exact-count comparison,
//! and the metric catalog the result line is printed from.

use crate::stats::{median, tail};
use crate::trace::Tracer;
use simcore::SimRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Counts and digests of one pass that must repeat exactly.
pub type Fingerprint = BTreeMap<String, u64>;

/// Metric values by catalog name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One metric of the catalog: name, unit, and which direction is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The end-to-end metrics, printed by every untraced run.  The unit
/// latencies are printed too, but they are not in the catalog: they carry
/// the host's speed drift (see `Timings::wall_s`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// The per-layer metrics, printed by every traced run.  A layer the
/// workload never reaches reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("sigbench.registry_build_s", "s", "lower"),
    m("signaling.run_s", "s", "lower"),
    m("signaling.render_s", "s", "lower"),
    m("siganalytic.solves", "count", "lower"),
    m("siganalytic.single_hop_solve_s", "s", "lower"),
    m("siganalytic.multi_hop_solve_s", "s", "lower"),
    m("siganalytic.table_eval_s", "s", "lower"),
    m("ctmc.factor_calls", "count", "lower"),
    m("ctmc.factor_s", "s", "lower"),
    m("ctmc.solve_s", "s", "lower"),
    m("ctmc.flops_computed", "count", "lower"),
    m("simcore.events", "count", "lower"),
    m("simcore.pending_peak", "count", "lower"),
    m("simcore.hold_ns", "ns", "lower"),
    m("simcore.cancel_ns", "ns", "lower"),
    m("sigproto.node_setup_s", "s", "lower"),
    m("sigproto.warmup_s", "s", "lower"),
    m("sigproto.fire_s", "s", "lower"),
    m("sigproto.ns_per_event", "ns", "lower"),
    m("sigproto.bytes_per_session", "B", "lower"),
    m("sigproto.session_campaign_s", "s", "lower"),
    m("sigproto.messages", "count", "lower"),
    m("sigproto.refresh_msgs", "count", "lower"),
    m("sigproto.ack_msgs", "count", "lower"),
    m("sigproto.false_removals", "count", "lower"),
    m("sigproto.crash_wipes", "count", "lower"),
    m("sigproto.recovery_s", "s", "lower"),
    m("signet.drops_random", "count", "lower"),
    m("signet.drops_injected", "count", "lower"),
    m("signet.drops_overload", "count", "lower"),
    m("signet.delivered_frac", "ratio", "higher"),
    m("signet.admit_ns", "ns", "lower"),
    m("signet.fault_lookup_ns", "ns", "lower"),
    m("sigstats.meter_ns", "ns", "lower"),
    m("trace.overhead_s", "s", "lower"),
];

/// Counts the output checks behind `failed_frac`.  A panic inside a
/// guarded region is one failed check.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Records one check; `what` names it in the failure message.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("sigperf: check failed: {what}");
        }
    }

    /// Runs `f`, counting a panic as one failed check.
    pub fn guarded<R>(&mut self, what: &str, f: impl FnOnce(&mut Checker) -> R) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(out) => Some(out),
            Err(_) => {
                self.expect(false, &format!("{what} panicked"));
                None
            }
        }
    }

    /// Checks that `value` is finite and within `[lo, hi]`.
    pub fn in_range(&mut self, value: f64, lo: f64, hi: f64, what: &str) {
        self.expect(
            value.is_finite() && (lo..=hi).contains(&value),
            &format!("{what} = {value} outside [{lo}, {hi}]"),
        );
    }
}

/// A workload as the harness drives it: a pass is `slots()` units, each
/// timed on its own; checks run between passes, outside the timed region.
pub trait Workload {
    /// Units per pass.
    fn slots(&self) -> usize;

    /// Runs one unit of the pass.  This is the timed region.
    fn run_unit(&mut self, slot: usize, tr: &mut Tracer);

    /// Checks the outputs of the pass just completed and returns its
    /// fingerprint, or `None` when the pass has nothing that repeats.
    fn end_pass(&mut self, pass: usize, ck: &mut Checker) -> Option<Fingerprint>;

    /// Per-layer timings of the set-up that built this instance, by metric
    /// name; the harness reports each as a median over set-ups.
    fn setup_layers(&self) -> Vec<(&'static str, f64)>;

    /// What this set-up must reproduce exactly on every repetition.
    fn setup_fingerprint(&self) -> Option<Fingerprint> {
        None
    }

    /// Called before the traced passes start.
    fn begin_traced(&mut self) {}

    /// Workload-specific per-layer metrics: replays, and counts taken from
    /// the fingerprint.  `spans` holds the per-pass self time of each traced
    /// span, by metric name.
    fn layer_metrics(&mut self, spans: &Metrics, ck: &mut Checker) -> Metrics;

    /// Extra human-readable end-to-end figures, as `(name, value, unit)`.
    fn extras(&self, wall_s: f64) -> Vec<(&'static str, f64, &'static str)>;

    /// The output digests of the last completed pass, for recording.
    fn digests(&self) -> Vec<(String, u64)>;
}

/// Repetitions from which a unit's fastest time stands for it in `wall_s`.
pub const FASTEST_FROM: usize = 100;

/// Unit timings of one measured phase.
#[derive(Debug, Default)]
pub struct Timings {
    /// Unit times per slot, in seconds.
    pub slot_times: Vec<Vec<f64>>,
    /// Every unit time, in seconds.
    pub units: Vec<f64>,
    /// Passes completed.
    pub passes: usize,
}

impl Timings {
    /// One pass's time: the sum over the pass's units of each unit's time
    /// in the run — its fastest repetition when it repeated at least
    /// [`FASTEST_FROM`] times, its median otherwise.
    ///
    /// A shared host's speed drifts by up to 1.5× over tens of seconds.  A
    /// unit repeated hundreds of times (the 12 ms `analytic-spectrum` pass)
    /// always meets a quiet moment, and its fastest repetition varies from
    /// run to run three times less than its median.  A unit repeated a few
    /// dozen times or fewer may meet none, and its median is the steadier.
    pub fn wall_s(&self) -> f64 {
        self.slot_times
            .iter()
            .map(|t| {
                if t.len() >= FASTEST_FROM {
                    t.iter().copied().fold(f64::INFINITY, f64::min)
                } else {
                    median(t)
                }
            })
            .sum()
    }

    /// Passes' worth of units run (partial passes count fractionally).
    pub fn pass_equivalents(&self) -> f64 {
        self.units.len() as f64 / self.slot_times.len().max(1) as f64
    }
}

/// Shuffles `items` into the order `seed` gives them (Fisher–Yates on the
/// simulation RNG): the seed varies a pass without changing its work.
pub fn seeded_order<T>(items: &mut [T], seed: u64) {
    let mut rng = SimRng::new(seed);
    for i in (1..items.len()).rev() {
        let j = ((rng.uniform() * (i + 1) as f64) as usize).min(i);
        items.swap(i, j);
    }
}

/// Every count and digest seen so far: a key seen again must carry the
/// same value.
#[derive(Debug, Default)]
pub struct FingerprintLog {
    pub seen: Fingerprint,
}

impl FingerprintLog {
    pub fn observe(&mut self, fp: Fingerprint, ck: &mut Checker, what: &str) {
        let mut overlap = false;
        let mut differ = Vec::new();
        for (key, value) in fp {
            match self.seen.get(&key) {
                Some(old) => {
                    overlap = true;
                    if *old != value {
                        differ.push(key);
                    }
                }
                None => {
                    self.seen.insert(key, value);
                }
            }
        }
        if overlap {
            ck.expect(
                differ.is_empty(),
                &format!("{what}: counts differ in {differ:?}"),
            );
        }
    }
}

/// Runs passes until `budget` has elapsed and at least one pass is
/// complete.  A panic in a unit is a failed check and ends the phase.
pub fn measure(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    ck: &mut Checker,
    budget: Duration,
    next_pass: &mut usize,
    next_unit: &mut u64,
    log: &mut FingerprintLog,
) -> Timings {
    let slots = w.slots();
    let mut t = Timings {
        slot_times: vec![Vec::new(); slots],
        ..Timings::default()
    };
    let start = Instant::now();
    'passes: loop {
        for slot in 0..slots {
            tr.begin_unit(*next_unit);
            *next_unit += 1;
            let t0 = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                tr.span("unit", |tr| w.run_unit(slot, tr))
            }));
            let dt = t0.elapsed().as_secs_f64();
            if ran.is_err() {
                ck.expect(false, &format!("unit {slot} panicked"));
                break 'passes;
            }
            t.slot_times[slot].push(dt);
            t.units.push(dt);
            if t.passes > 0 && start.elapsed() >= budget {
                break 'passes;
            }
        }
        let pass = *next_pass;
        *next_pass += 1;
        t.passes += 1;
        if let Some(Some(fp)) = ck.guarded("pass checks", |ck| w.end_pass(pass, ck)) {
            log.observe(fp, ck, "pass");
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    t
}

/// Compares the run's fingerprint with what earlier runs of the same
/// build, workload and seed stored at `path` (on the keys both have), then
/// stores the union.
pub fn compare_with_earlier_run(fp: &Fingerprint, path: &Path, ck: &mut Checker) {
    let mut log = FingerprintLog::default();
    if let Ok(earlier) = std::fs::read_to_string(path) {
        for line in earlier.lines() {
            if let Some((key, value)) = line.split_once(' ') {
                if let Ok(value) = value.parse() {
                    log.seen.insert(key.to_string(), value);
                }
            }
        }
    }
    log.observe(
        fp.clone(),
        ck,
        &format!("counts against {}", path.display()),
    );
    let text: String = log.seen.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("sigperf: cannot store counts in {}: {e}", path.display());
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup: &[f64], t: &Timings) -> Metrics {
    let mut out = Metrics::new();
    out.insert("setup_s", median(setup));
    out.insert("wall_s", t.wall_s());
    out.insert("peak_rss_mib", peak_rss_mib());
    out
}

/// The unit latencies of an untraced run, as `(name, value, unit)`: the
/// median, the tail (see [`tail`]) and the tail's percentile and sample
/// count.
pub fn unit_latencies(t: &Timings) -> Vec<(&'static str, f64, &'static str)> {
    let (p, tail_s) = tail(&t.units);
    vec![
        ("unit_p50_ms", median(&t.units) * 1e3, "ms"),
        ("unit_tail_ms", tail_s * 1e3, "ms"),
        ("unit_tail_percentile", p, "%"),
        ("units", t.units.len() as f64, "count"),
    ]
}

/// Prints `catalog` as human-readable lines and then the result line, the
/// last line of standard output.  Metrics missing from `values` read 0.
pub fn print_result(catalog: &[MetricDef], values: &Metrics, ck: &Checker) {
    for def in catalog {
        match values.get(def.name) {
            Some(v) => println!("{:<32} {v:>16.6} {}", def.name, def.unit),
            None => println!("{:<32} {:>16} {} (not reached)", def.name, 0, def.unit),
        }
    }
    let metrics: Vec<String> = catalog
        .iter()
        .map(|def| {
            let v = values.get(def.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(v),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ck.failed == 0,
        ck.attempted.max(1),
        ck.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit of `v`: Rust's shortest form that reads
/// back exactly (`2.0`, `0.30000000000000004`, `1e-7`).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(def.name.chars().all(ok_char), "{}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def.unit.len() <= 16 && !def.unit.is_empty());
            assert!(def.better == "lower" || def.better == "higher");
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
    }

    #[test]
    fn wall_time_takes_the_fastest_of_many_repetitions_and_the_median_of_few() {
        let mut many: Vec<f64> = (0..FASTEST_FROM).map(|i| 2.0 + i as f64).collect();
        many[7] = 1.0;
        let t = Timings {
            slot_times: vec![many, vec![2.0, 9.0, 1.0]],
            units: vec![],
            passes: 1,
        };
        assert_eq!(t.wall_s(), 1.0 + 2.0);
    }

    #[test]
    fn fingerprints_must_repeat() {
        let mut ck = Checker::default();
        let mut log = FingerprintLog::default();
        let fp: Fingerprint = [("events".to_string(), 5)].into();
        log.observe(fp.clone(), &mut ck, "t");
        log.observe(fp, &mut ck, "t");
        assert_eq!((ck.attempted, ck.failed), (1, 0));
        log.observe([("events".to_string(), 6)].into(), &mut ck, "t");
        assert_eq!((ck.attempted, ck.failed), (2, 1));
    }

    #[test]
    fn a_panic_is_a_failed_check() {
        let mut ck = Checker::default();
        let out = ck.guarded("boom", |_| -> u32 { panic!("expected in this test") });
        assert_eq!(out, None);
        assert_eq!((ck.attempted, ck.failed), (1, 1));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
