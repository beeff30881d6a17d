//! The `paper-figures` and `analytic-spectrum` workloads: registered
//! experiments run through `Registry::run` and rendered to text and CSV the
//! way `repro --csv` renders them.
//!
//! `paper-figures` runs the 22 `paper`-tagged experiments at full
//! `ExperimentOptions::default()` size with the seed as campaign seed; one
//! unit is one experiment.  `analytic-spectrum` runs every
//! `analytic`-tagged experiment; one unit is the whole pass.  On a seed
//! other than [`DEFAULT_SEED`] it replaces the Kazaa and reservation
//! scenarios with loss, delay and lifetime drawn from the seed within the
//! paper's sweep ranges, and runs the same sweeps as `ExperimentSpec`s.

use crate::harness::{seeded_order, Checker, Fingerprint, Metrics, Workload};
use crate::layers::{replay_grid, Point};
use crate::stats::Digest;
use crate::trace::Tracer;
use signaling::experiment::ExperimentId;
use signaling::registry::{Experiment, ExperimentSpec, Registry, SpecKind, SweepTarget};
use signaling::report::render_csv;
use signaling::{
    Campaign, ExecutionPolicy, ExperimentOptions, ExperimentOutput, Metric, MultiHopModel,
    MultiHopParams, MultiHopScenario, Point as FigPoint, Protocol, ProtocolSpec, Scenario, Series,
    SeriesSet, SessionConfig, SimRng, SingleHopParams, SingleHopSweepSession, Sweep,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The repository's default campaign seed.  `paper-figures` and
/// `fault-storm` always run at it, and the recorded digests are of its
/// outputs.
pub const DEFAULT_SEED: u64 = 2003;

/// How long a traced run replays the grid for the per-layer costs.
const GRID_REPLAY: Duration = Duration::from_millis(500);

/// One analytic sweep of the paper's evaluation.
struct SweepDef {
    name: &'static str,
    sweep: Sweep,
    target: SweepTarget,
    kind: SpecKind,
    metric: Metric,
}

impl SweepDef {
    fn multi_hop(&self) -> bool {
        self.kind == SpecKind::AnalyticMultiHop
    }

    fn points(&self, single: SingleHopParams, multi: MultiHopParams) -> Vec<Point> {
        let protocols: &[ProtocolSpec] = if self.multi_hop() {
            &ProtocolSpec::PAPER_MULTI_HOP
        } else {
            &ProtocolSpec::PAPER
        };
        sweep_points(protocols, &self.sweep, |p, x| {
            if self.multi_hop() {
                Point::Multi(p, self.target.apply_multi(multi, x))
            } else {
                Point::Single(p, self.target.apply_single(single, x))
            }
        })
    }

    /// The same sweep as a declarative experiment over the given scenarios.
    fn spec(&self, single: &Scenario, multi: &MultiHopScenario) -> ExperimentSpec {
        ExperimentSpec::new(self.name, description(self.name))
            .scenario(single.clone())
            .multi_hop_scenario(multi.clone())
            .sweep(self.sweep.clone(), self.target)
            .kind(self.kind)
            .metric(self.metric)
            .tag("analytic")
    }
}

/// The paper's analytic sweeps (Figures 4–10, 18 and 19), as the built-in
/// experiments define them.
fn paper_sweeps() -> Vec<SweepDef> {
    use Metric::{Inconsistency as I, MessageRate as M};
    use SpecKind::{AnalyticMultiHop as Multi, AnalyticSingleHop as Single};
    use SpecKind::{IntegratedCost, Tradeoff};
    use SweepTarget as T;
    let d = |name, sweep, target, kind, metric| SweepDef {
        name,
        sweep,
        target,
        kind,
        metric,
    };
    vec![
        d("fig4a", Sweep::session_length(), T::MeanLifetime, Single, I),
        d("fig4b", Sweep::session_length(), T::MeanLifetime, Single, M),
        d("fig5a", Sweep::loss_rate(), T::LossRate, Single, I),
        d("fig5b", Sweep::channel_delay(), T::ChannelDelay, Single, I),
        d("fig6a", Sweep::refresh_timer(), T::RefreshTimer, Single, I),
        d("fig6b", Sweep::refresh_timer(), T::RefreshTimer, Single, M),
        d(
            "fig7",
            Sweep::refresh_timer(),
            T::RefreshTimer,
            IntegratedCost,
            I,
        ),
        d("fig8a", Sweep::timeout_timer(), T::TimeoutTimer, Single, I),
        d("fig8b", Sweep::retrans_timer(), T::RetransTimer, Single, I),
        d("fig9", Sweep::refresh_timer(), T::RefreshTimer, Tradeoff, I),
        d(
            "fig10a",
            Sweep::update_interval(),
            T::UpdateInterval,
            Tradeoff,
            I,
        ),
        d(
            "fig10b",
            Sweep::channel_delay(),
            T::ChannelDelay,
            Tradeoff,
            I,
        ),
        d("fig18a", Sweep::hop_count(), T::HopCount, Multi, I),
        d("fig18b", Sweep::hop_count(), T::HopCount, Multi, M),
        d("fig19a", Sweep::refresh_timer(), T::RefreshTimer, Multi, I),
        d("fig19b", Sweep::refresh_timer(), T::RefreshTimer, Multi, M),
    ]
}

fn description(name: &str) -> &'static str {
    ExperimentId::parse(name).map_or("", |id| id.description())
}

fn sweep_points(
    protocols: &[ProtocolSpec],
    sweep: &Sweep,
    point: impl Fn(ProtocolSpec, f64) -> Point,
) -> Vec<Point> {
    protocols
        .iter()
        .flat_map(|&p| sweep.values.iter().map(move |&x| (p, x)))
        .map(|(p, x)| point(p, x))
        .collect()
}

/// The paper's solves over the base scenarios: every sweep plus Fig 17.
fn paper_grid(single: SingleHopParams, multi: MultiHopParams) -> Vec<Point> {
    let mut grid: Vec<Point> = paper_sweeps()
        .iter()
        .flat_map(|d| d.points(single, multi))
        .collect();
    grid.extend(ProtocolSpec::PAPER_MULTI_HOP.map(|p| Point::Multi(p, multi)));
    grid
}

/// The simulated points of Figs 11 and 12 (each figure's (a) and (b)
/// panels run the same campaigns), mirroring the built-in experiments.
fn campaign_points(options: &ExperimentOptions) -> Vec<(ProtocolSpec, SingleHopParams)> {
    let count = options.sim_points.max(2);
    let fig11 = sim_grid(&Sweep::session_length().values, 30.0, 3000.0, count);
    let fig12 = sim_grid(&Sweep::refresh_timer().values, 0.5, 50.0, count);
    let kazaa = SingleHopParams::kazaa_defaults();
    let mut points = Vec::new();
    for _panel in ["a", "b"] {
        for &p in &ProtocolSpec::PAPER {
            points.extend(fig11.iter().map(|&x| (p, kazaa.with_mean_lifetime(x))));
        }
        for &p in &ProtocolSpec::PAPER {
            points.extend(fig12.iter().map(|&x| {
                (
                    p,
                    kazaa
                        .with_mean_lifetime(600.0)
                        .with_refresh_timer_scaled_timeout(x),
                )
            }));
        }
    }
    points
}

/// Up to `count` values of `analytic` within `[lo, hi]`, evenly spread — the
/// simulation grid rule of the Fig 11/12 experiments.
fn sim_grid(analytic: &[f64], lo: f64, hi: f64, count: usize) -> Vec<f64> {
    let inside: Vec<f64> = analytic
        .iter()
        .copied()
        .filter(|x| (lo..=hi).contains(x))
        .collect();
    if inside.is_empty() {
        return analytic.iter().copied().take(count.max(1)).collect();
    }
    let count = count.clamp(1, inside.len());
    let mut grid: Vec<f64> = (0..count)
        .map(|i| {
            let idx = if count == 1 {
                0
            } else {
                i * (inside.len() - 1) / (count - 1)
            };
            inside[idx]
        })
        .collect();
    grid.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    grid
}

/// Kazaa and reservation scenarios with loss, delay and lifetime drawn from
/// `seed` within the ranges the paper sweeps them over (Figs 4 and 5).
pub fn drawn_bases(seed: u64) -> (SingleHopParams, MultiHopParams) {
    let mut rng = SimRng::new(seed);
    let loss = rng.uniform_range(0.0, 0.3);
    let delay = rng.uniform_range(0.01, 1.0);
    let lifetime = 10f64.powf(rng.uniform_range(1.0, 4.0));
    let mut single = SingleHopParams::kazaa_defaults()
        .with_mean_lifetime(lifetime)
        .with_delay_scaled_retrans(delay);
    single.loss = loss;
    let mut multi = MultiHopParams::reservation_defaults();
    multi.loss = loss;
    multi.delay = delay;
    multi.retrans_timer = 2.0 * delay;
    multi.false_signal_rate = loss.powi(3) / multi.timeout_timer;
    (single, multi)
}

/// Table I evaluated at a drawn parameter set.
struct TableAt(SingleHopParams);

impl Experiment for TableAt {
    fn name(&self) -> &str {
        "table1"
    }
    fn description(&self) -> &str {
        description("table1")
    }
    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput {
        let mut text = format!("Table I at {:?}\n\n", self.0);
        for p in options.protocol_set(&ProtocolSpec::PAPER) {
            text.push_str(&siganalytic::single_hop::protocol_transitions(p, &self.0).render());
            text.push('\n');
        }
        ExperimentOutput::Text(text)
    }
}

/// Fig 17 (per-hop inconsistency along the path) at a drawn parameter set.
struct PerHopAt(MultiHopParams);

impl Experiment for PerHopAt {
    fn name(&self) -> &str {
        "fig17"
    }
    fn description(&self) -> &str {
        description("fig17")
    }
    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput {
        let mut set = SeriesSet::new(
            description("fig17"),
            "hop index i",
            "fraction of time inconsistent",
        );
        for p in options.protocol_set(&ProtocolSpec::PAPER_MULTI_HOP) {
            let solution = MultiHopModel::new(p, self.0)
                .and_then(|m| m.solve())
                .expect("drawn multi-hop parameters solve");
            let mut series = Series::new(p.label());
            for (i, v) in solution.per_hop_inconsistency.iter().enumerate() {
                series.push(FigPoint::new((i + 1) as f64, *v));
            }
            set.push(series);
        }
        ExperimentOutput::Figure(set)
    }
}

/// One experiment of the pass and the registry it runs from.
struct Entry {
    registry: usize,
    name: String,
    description: String,
}

struct Rendered {
    output: ExperimentOutput,
    text: String,
    csv: String,
}

/// A pass over registered experiments (both figure workloads).
pub struct Figures {
    registries: Vec<Registry>,
    entries: Vec<Entry>,
    /// One unit per experiment (`paper-figures`) or per pass.
    unit_per_experiment: bool,
    options: ExperimentOptions,
    outputs: Vec<Option<Rendered>>,
    grid: Vec<Point>,
    campaigns: Vec<(ProtocolSpec, SingleHopParams)>,
    expected: BTreeMap<String, u64>,
    /// Whether this run's outputs are those the digests were recorded for.
    check_digests: bool,
    registry_build_s: f64,
    seed: u64,
}

fn build_registry() -> (Registry, f64) {
    let t = Instant::now();
    let registry = sigbench::extended_registry();
    std::hint::black_box(sigbench::protocol_registry());
    (registry, t.elapsed().as_secs_f64())
}

/// Sets up the `paper-figures` workload.
pub fn paper_figures(seed: u64, expected: BTreeMap<String, u64>, check_digests: bool) -> Figures {
    let (registry, registry_build_s) = build_registry();
    let mut entries: Vec<Entry> = registry
        .with_tag("paper")
        .into_iter()
        .map(|e| Entry {
            registry: 0,
            name: e.name().to_string(),
            description: e.description().to_string(),
        })
        .collect();
    // The seed orders the experiments of a pass.  What they compute is the
    // paper's reproduction at the default campaign seed: one campaign
    // seed's Fig 11/12 campaigns cost up to 30% more or less than another's,
    // so a seed-dependent campaign would measure that seed's luck.
    seeded_order(&mut entries, seed);
    let options = ExperimentOptions {
        seed: DEFAULT_SEED,
        ..ExperimentOptions::default()
    }
    .with_execution(ExecutionPolicy::Serial);
    let kazaa = SingleHopParams::kazaa_defaults();
    let mut grid = paper_grid(kazaa, MultiHopParams::reservation_defaults());
    // Figs 11 and 12: the analytic curves of both panels, and the analytic
    // value each simulated point is compared with.
    for _panel in ["a", "b"] {
        grid.extend(sweep_points(
            &ProtocolSpec::PAPER,
            &Sweep::session_length(),
            |p, x| Point::Single(p, kazaa.with_mean_lifetime(x)),
        ));
        grid.extend(sweep_points(
            &ProtocolSpec::PAPER,
            &Sweep::refresh_timer(),
            |p, x| {
                Point::Single(
                    p,
                    kazaa
                        .with_mean_lifetime(600.0)
                        .with_refresh_timer_scaled_timeout(x),
                )
            },
        ));
    }
    let campaigns = campaign_points(&options);
    grid.extend(
        campaigns
            .iter()
            .map(|&(p, params)| Point::Single(p, params)),
    );
    Figures {
        unit_per_experiment: true,
        campaigns,
        ..Figures::new(
            vec![registry],
            entries,
            options,
            grid,
            expected,
            check_digests,
            seed,
            registry_build_s,
        )
    }
}

/// Sets up the `analytic-spectrum` workload.
pub fn analytic_spectrum(
    seed: u64,
    expected: BTreeMap<String, u64>,
    check_digests: bool,
) -> Figures {
    let (registry, registry_build_s) = build_registry();
    let drawn = seed != DEFAULT_SEED;
    let (single, multi) = if drawn {
        drawn_bases(seed)
    } else {
        (
            SingleHopParams::kazaa_defaults(),
            MultiHopParams::reservation_defaults(),
        )
    };
    let kazaa_scenario = Scenario::new("seed-drawn Kazaa peer", single).with_weight(10.0);
    let spectrum = sigbench::coherent_spectrum();
    let mut local = Registry::new();
    if drawn {
        let multi_scenario = MultiHopScenario::new("seed-drawn reservation path", multi);
        local.register(TableAt(single)).expect("fresh registry");
        local.register(PerHopAt(multi)).expect("fresh registry");
        for d in paper_sweeps() {
            let spec = d.spec(&kazaa_scenario, &multi_scenario);
            spec.validate().expect("seed-drawn sweep is runnable");
            local.register(spec).expect("sweep names are unique");
        }
        let spectrum_spec =
            ExperimentSpec::new("spec-spectrum", "spec spectrum at seed-drawn parameters")
                .scenario(kazaa_scenario.clone())
                .protocols(spectrum)
                .sweep(Sweep::refresh_timer(), SweepTarget::RefreshTimer)
                .kind(SpecKind::Tradeoff)
                .tag("analytic");
        local.register(spectrum_spec).expect("fresh name");
    }
    let entries = registry
        .with_tag("analytic")
        .into_iter()
        .map(|e| {
            let from_local = local.get(e.name());
            let exp = from_local.unwrap_or(e);
            Entry {
                registry: usize::from(from_local.is_some()),
                name: exp.name().to_string(),
                description: exp.description().to_string(),
            }
        })
        .collect();

    let mut grid = paper_grid(single, multi);
    grid.extend(sweep_points(spectrum, &Sweep::refresh_timer(), |p, x| {
        Point::Single(p, SweepTarget::RefreshTimer.apply_single(single, x))
    }));
    let dns = Scenario::dns_cache_lease().params;
    grid.extend(sweep_points(
        &ProtocolSpec::PAPER,
        &Sweep::refresh_timer(),
        |p, x| Point::Single(p, SweepTarget::RefreshTimer.apply_single(dns, x)),
    ));
    let bgp = Scenario::bgp_session_keepalive().params;
    let bgp_protocols = [Protocol::Ss, Protocol::SsRt, Protocol::Hs].map(|p| p.spec());
    grid.extend(sweep_points(&bgp_protocols, &Sweep::loss_rate(), |p, x| {
        Point::Single(p, SweepTarget::LossRate.apply_single(bgp, x))
    }));
    for scenario in Scenario::builtins() {
        grid.extend(sweep_points(
            &[ProtocolSpec::SS],
            &Sweep::refresh_timer(),
            |p, x| {
                Point::Single(
                    p,
                    SweepTarget::RefreshTimer.apply_single(scenario.params, x),
                )
            },
        ));
    }
    let options = ExperimentOptions {
        seed,
        ..ExperimentOptions::default()
    }
    .with_execution(ExecutionPolicy::Serial);
    Figures::new(
        vec![registry, local],
        entries,
        options,
        grid,
        expected,
        check_digests,
        seed,
        registry_build_s,
    )
}

impl Figures {
    /// One unit per pass, no campaigns replayed.
    #[allow(clippy::too_many_arguments)]
    fn new(
        registries: Vec<Registry>,
        entries: Vec<Entry>,
        options: ExperimentOptions,
        grid: Vec<Point>,
        expected: BTreeMap<String, u64>,
        check_digests: bool,
        seed: u64,
        registry_build_s: f64,
    ) -> Self {
        let outputs = entries.iter().map(|_| None).collect();
        Figures {
            registries,
            entries,
            unit_per_experiment: false,
            options,
            outputs,
            grid,
            campaigns: Vec::new(),
            expected,
            check_digests,
            registry_build_s,
            seed,
        }
    }

    fn run_entry(&mut self, i: usize, tr: &mut Tracer) {
        let entry = &self.entries[i];
        let registry = &self.registries[entry.registry];
        let options = &self.options;
        let output = tr.span("signaling.run", |_| {
            registry
                .run(&entry.name, options)
                .expect("entry is registered")
        });
        let rendered = tr.span("signaling.render", |_| {
            let text = format!(
                "== {} — {} ==\n{}\n",
                entry.name,
                entry.description,
                output.to_text()
            );
            let csv = output.as_figure().map(render_csv).unwrap_or_default();
            Rendered { output, text, csv }
        });
        self.outputs[i] = Some(rendered);
    }
}

/// Checks one experiment's output: every point finite, rates and costs
/// non-negative, and inconsistency-valued axes within [0, 1].
fn check_output(name: &str, output: &ExperimentOutput, ck: &mut Checker) {
    let fig = match output {
        ExperimentOutput::Text(text) => {
            ck.expect(!text.is_empty(), &format!("{name}: empty table"));
            return;
        }
        ExperimentOutput::Figure(fig) => fig,
    };
    ck.expect(!fig.series.is_empty(), &format!("{name}: no series"));
    let y_max = if fig.y_label.contains("inconsisten") {
        1.0
    } else {
        f64::MAX
    };
    let x_max = if fig.x_label.contains("inconsisten") {
        1.0
    } else {
        f64::MAX
    };
    let mut ok = true;
    for s in &fig.series {
        for p in &s.points {
            ok &= p.x.is_finite() && p.x <= x_max;
            ok &= p.y.is_finite() && (0.0..=y_max).contains(&p.y);
            ok &= p.err.is_none_or(|e| e.is_finite() && e >= 0.0);
        }
    }
    ck.expect(ok, &format!("{name}: a point is out of range"));
}

impl Workload for Figures {
    fn slots(&self) -> usize {
        if self.unit_per_experiment {
            self.entries.len()
        } else {
            1
        }
    }

    fn run_unit(&mut self, slot: usize, tr: &mut Tracer) {
        if self.unit_per_experiment {
            self.run_entry(slot, tr);
        } else {
            for i in 0..self.entries.len() {
                self.run_entry(i, tr);
            }
        }
    }

    fn end_pass(&mut self, pass: usize, ck: &mut Checker) -> Option<Fingerprint> {
        let mut fp = Fingerprint::new();
        for (entry, out) in self.entries.iter().zip(&self.outputs) {
            let Some(out) = out else {
                ck.expect(false, &format!("{}: no output", entry.name));
                continue;
            };
            check_output(&entry.name, &out.output, ck);
            let digest = output_digest(out);
            if self.check_digests {
                let expected = self.expected.get(&entry.name).copied();
                ck.expect(
                    expected == Some(digest),
                    &format!(
                        "{}: digest {digest:016x} differs from the recorded {expected:x?}",
                        entry.name
                    ),
                );
            }
            fp.insert(format!("digest.{}", entry.name), digest);
        }
        // One sampled grid point per pass, solved afresh: π sums to one.
        let index = (self.seed as usize).wrapping_add(pass.wrapping_mul(7919)) % self.grid.len();
        if let Point::Single(p, params) = self.grid[index] {
            match SingleHopSweepSession::new().solve(p, params) {
                Ok(s) => ck.in_range(
                    s.stationary.values().sum(),
                    1.0 - 1e-9,
                    1.0 + 1e-9,
                    "sampled sum of pi",
                ),
                Err(e) => ck.expect(false, &format!("sampled solve: {e}")),
            }
        }
        fp.insert("siganalytic.solves".into(), self.grid.len() as u64);
        Some(fp)
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![("sigbench.registry_build_s", self.registry_build_s)]
    }

    fn layer_metrics(&mut self, _spans: &Metrics, ck: &mut Checker) -> Metrics {
        let cost = replay_grid(&self.grid, GRID_REPLAY, ck);
        let mut out = Metrics::from([
            ("siganalytic.solves", cost.solves as f64),
            ("siganalytic.single_hop_solve_s", cost.single_hop_solve_s),
            ("siganalytic.multi_hop_solve_s", cost.multi_hop_solve_s),
            ("siganalytic.table_eval_s", cost.table_eval_s),
            ("ctmc.factor_calls", cost.factor_calls as f64),
            ("ctmc.factor_s", cost.factor_s),
            ("ctmc.solve_s", cost.solve_s),
            ("ctmc.flops_computed", cost.flops as f64),
        ]);
        if !self.campaigns.is_empty() {
            let t = Instant::now();
            let mut messages = sigproto::MessageCounts::default();
            let mut false_removals = 0;
            for &(p, params) in &self.campaigns {
                let result = Campaign::new(
                    SessionConfig::deterministic(p, params),
                    self.options.sim_replications,
                    self.options.seed,
                )
                .execution(ExecutionPolicy::Serial)
                .run();
                messages.merge(&result.messages);
                false_removals += result.false_removals;
            }
            out.insert("sigproto.session_campaign_s", t.elapsed().as_secs_f64());
            out.insert("sigproto.messages", messages.signaling_total() as f64);
            out.insert("sigproto.refresh_msgs", messages.refresh as f64);
            out.insert(
                "sigproto.ack_msgs",
                (messages.trigger_ack + messages.refresh_ack + messages.removal_ack) as f64,
            );
            out.insert("sigproto.false_removals", false_removals as f64);
        }
        out
    }

    fn extras(&self, wall_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![("solves_per_s", self.grid.len() as f64 / wall_s, "1/s")]
    }

    fn digests(&self) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .zip(&self.outputs)
            .filter_map(|(e, o)| o.as_ref().map(|o| (e.name.clone(), output_digest(o))))
            .collect()
    }
}

fn output_digest(out: &Rendered) -> u64 {
    let mut d = Digest::default();
    d.update(out.text.as_bytes());
    d.update(out.csv.as_bytes());
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_grid_matches_the_fig11_rule() {
        let grid = sim_grid(&Sweep::session_length().values, 30.0, 3000.0, 6);
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().all(|x| (30.0..=3000.0).contains(x)));
    }

    #[test]
    fn drawn_bases_stay_in_the_paper_ranges_and_validate() {
        for seed in 0..200 {
            let (s, m) = drawn_bases(seed);
            assert!((0.0..=0.3).contains(&s.loss));
            assert!((0.01..=1.0).contains(&s.delay));
            assert!((10.0..=10_000.0).contains(&s.mean_lifetime()));
            s.validate().unwrap();
            m.validate().unwrap();
        }
    }
}
