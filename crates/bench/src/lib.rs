//! Support library for the benchmark harness.
//!
//! Each Criterion bench in `benches/` regenerates one of the paper's figures
//! (printing the data series so `cargo bench` output doubles as a
//! reproduction log) and then times the computation that produces it.  The
//! `repro` binary in `src/bin/` regenerates everything at once and is what
//! `EXPERIMENTS.md` is derived from.
//!
//! This crate is also the proof that the experiment registry is open: the
//! extra experiments [`extended_registry`] adds — two declarative
//! [`ExperimentSpec`] figures over the new DNS/BGP scenarios and one
//! hand-written [`Experiment`] implementation sweeping *across* scenarios —
//! are composed entirely out of `signaling`'s public API, without touching
//! any core source.

pub use signaling::coherent_spectrum;
use signaling::experiment::ExperimentOptions;
use signaling::registry::{
    Experiment, ExperimentSpec, ProtocolRegistry, Registry, RegistryError, SpecKind, SweepTarget,
};
use signaling::report::run_and_render;
use signaling::{
    ExperimentOutput, Metric, Point, ProtocolSpec, RefreshMode, Scenario, Series, SeriesSet,
    SingleHopModel, Sweep,
};

/// `print!` that ends the program instead of panicking when stdout fails
/// (see [`stdout_failed`]); the binaries print their reports through it.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) =
            ::std::io::Write::write_fmt(&mut ::std::io::stdout(), format_args!($($arg)*))
        {
            $crate::stdout_failed(e)
        }
    };
}

/// `println!` with the error handling of [`out!`].
#[macro_export]
macro_rules! outln {
    () => { $crate::out!("\n") };
    ($($arg:tt)*) => { $crate::out!("{}\n", format_args!($($arg)*)) };
}

/// Ends the program after a failed write to stdout: quietly with status 0
/// when the reader has gone away (`BrokenPipe`, as in `repro --list | head
/// -1`), with an error and status 1 otherwise.
// sigtidy: allow(unused-pub) — macro support: `out!` expands to `$crate::stdout_failed` in the binaries
pub fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: cannot write to stdout: {e}");
    std::process::exit(1);
}

/// Reliable-refresh soft state — a design point on the hard/soft spectrum
/// the paper never evaluates: refreshes are acknowledged and retransmitted
/// (so a lost refresh is repaired in `R` rather than waiting a full refresh
/// interval), while triggers stay best-effort and removal stays
/// timeout-only.  Composed purely from [`ProtocolSpec`] knobs; it runs
/// through the analytic models, both simulators, the experiment registry
/// and `repro` with zero protocol-specific code.
pub const SS_RR: ProtocolSpec =
    ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));

/// Options used by the benches: small simulation campaigns so `cargo bench`
/// stays fast; the `repro` binary uses the full defaults instead.
fn bench_options() -> ExperimentOptions {
    ExperimentOptions::quick()
}

/// Prints the named experiments' regenerated data to stdout (the bench
/// log).
///
/// # Panics
/// Panics if a name is not registered in [`extended_registry`].
pub fn print_experiments(names: &[&str]) {
    let registry = extended_registry();
    for name in names {
        let experiment = registry
            .get(name)
            // sigtidy: allow(no-unwrap) — bench names are literals; a typo must fail loudly
            .unwrap_or_else(|| panic!("no experiment named '{name}' is registered"));
        print!("{}", run_and_render(experiment, &bench_options()));
    }
}

/// The registry the `repro` binary runs against: the paper's 22 built-ins
/// plus the extra scenario experiments from `register_extras`.
pub fn extended_registry() -> Registry {
    let mut registry = Registry::with_builtins();
    // sigtidy: allow(no-unwrap) — name uniqueness is pinned by the registry tests
    register_extras(&mut registry).expect("extra experiment names are unique");
    registry
}

/// The markdown catalog of `registry`, one line per table row: the header,
/// then a `| name | tags | description |` row per experiment.  `repro
/// --list-md` prints it and `EXPERIMENTS.md` embeds it; sigtidy checks that
/// the embedded table has every line, verbatim and in order.
pub fn list_md_lines(registry: &Registry) -> Vec<String> {
    let header = ["| name | tags | description |", "| --- | --- | --- |"];
    let rows = registry.iter().map(|exp| {
        format!(
            "| `{}` | {} | {} |",
            exp.name(),
            exp.tags().join(", "),
            exp.description()
        )
    });
    header.into_iter().map(String::from).chain(rows).collect()
}

/// The protocol registry the `repro` binary resolves `--protocols` against:
/// the paper's five presets plus the non-paper [`SS_RR`] composition.
pub fn protocol_registry() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::with_paper_presets();
    registry
        .register(SS_RR, "ss-rr-lifetime (custom, non-paper)")
        // sigtidy: allow(no-unwrap) — coherence of SS_RR is pinned by a test below
        .expect("SS+RR is coherent and its label is free");
    registry
}

/// Registers the non-paper experiments.  Every entry here is user-level
/// composition: declarative [`ExperimentSpec`]s, a hand-written
/// [`Experiment`] type and the node experiments' static rows
/// ([`signaling::NODE_EXPERIMENTS`]), all built on public API only.
fn register_extras(registry: &mut Registry) -> Result<(), RegistryError> {
    registry.register(
        ExperimentSpec::new(
            "dns-lease-cost",
            "DNS cache lease: integrated cost vs re-resolution (refresh) timer",
        )
        .scenario(Scenario::dns_cache_lease())
        .sweep(Sweep::refresh_timer(), SweepTarget::RefreshTimer)
        .kind(SpecKind::IntegratedCost)
        .tag("extra")
        .tag("scenario")
        .tag("analytic"),
    )?;
    registry.register(
        ExperimentSpec::new(
            "bgp-keepalive-loss",
            "BGP session keepalive: inconsistency vs channel loss rate",
        )
        .scenario(Scenario::bgp_session_keepalive())
        .protocols(&[ProtocolSpec::SS, ProtocolSpec::SS_RT, ProtocolSpec::HS])
        .sweep(Sweep::loss_rate(), SweepTarget::LossRate)
        .metric(Metric::Inconsistency)
        .tag("extra")
        .tag("scenario")
        .tag("analytic"),
    )?;
    registry.register(
        ExperimentSpec::new(
            "ss-rr-lifetime",
            "reliable-refresh soft state (SS+RR) vs SS: analytic vs simulation over session length",
        )
        .protocols(&[ProtocolSpec::SS, SS_RR])
        .sweep(Sweep::session_length(), SweepTarget::MeanLifetime)
        .kind(SpecKind::AnalyticVsSim)
        .sim_range(30.0, 300.0)
        .tag("extra")
        .tag("custom-protocol")
        .tag("simulation"),
    )?;
    registry.register(
        ExperimentSpec::new(
            "spec-spectrum",
            "overhead/inconsistency tradeoff of every coherent ProtocolSpec point \
             (the full hard/soft design space), varying the refresh timer",
        )
        .title("Spec spectrum: overhead vs inconsistency for every coherent mechanism composition")
        .protocols(coherent_spectrum())
        .sweep(Sweep::refresh_timer(), SweepTarget::RefreshTimer)
        .kind(SpecKind::Tradeoff)
        .tag("extra")
        .tag("spectrum")
        .tag("analytic"),
    )?;
    registry.register(ScenarioCostSweep)?;
    for row in signaling::NODE_EXPERIMENTS {
        registry.register(row)?;
    }
    Ok(())
}

/// A small, deterministic slice of the `spec-spectrum` figure — four
/// mechanism compositions spanning the spectrum (pure soft state, pure hard
/// state, everything-reliable soft state, and timeout-free reliable-refresh
/// state) at the first four sweep points — used by the golden test that pins
/// the spectrum scan byte-for-byte (`tests/golden_spec_spectrum.rs`) and by
/// the `dump_spec_spectrum_slice` example that regenerates the fixture.
pub fn spec_spectrum_golden_slice(options: &ExperimentOptions) -> SeriesSet {
    const SLICE_LABELS: [&str; 4] = ["spec:btb--", "spec:--rrn", "spec:rtrrn", "spec:r-br-"];
    const SLICE_POINTS: usize = 4;
    let out = extended_registry()
        .run("spec-spectrum", options)
        // sigtidy: allow(no-unwrap) — registered three lines up, in this crate
        .expect("spec-spectrum is registered");
    // sigtidy: allow(no-unwrap) — spec-spectrum is registered as a figure experiment
    let fig = out.as_figure().expect("spec-spectrum is a figure").clone();
    let mut slice = SeriesSet::new(
        format!("{} (golden slice)", fig.title),
        fig.x_label.clone(),
        fig.y_label.clone(),
    );
    for label in SLICE_LABELS {
        let series = fig
            .get(label)
            // sigtidy: allow(no-unwrap) — the golden slice must fail loudly if the spectrum shrinks
            .unwrap_or_else(|| panic!("{label} missing from the spectrum"));
        let mut trimmed = Series::new(label);
        for p in series.points.iter().take(SLICE_POINTS) {
            trimmed.push(*p);
        }
        slice.push(trimmed);
    }
    slice
}

/// A scenario-sweep experiment: the integrated cost of pure soft state as a
/// function of the refresh timer, one series per *built-in scenario* — the
/// cross-scenario view no single paper figure provides.
///
/// Implemented by hand (not via [`ExperimentSpec`]) to exercise the open
/// [`Experiment`] trait end to end; it derives its protocol set through
/// `ExperimentOptions::protocol_set` (default: SS alone), so
/// `repro --protocols` applies to it like to every other experiment.
pub struct ScenarioCostSweep;

impl Experiment for ScenarioCostSweep {
    fn name(&self) -> &str {
        "scenario-cost-sweep"
    }

    fn description(&self) -> &str {
        "integrated cost of SS vs refresh timer, one series per built-in scenario"
    }

    fn tags(&self) -> Vec<String> {
        vec!["extra".into(), "scenario".into(), "analytic".into()]
    }

    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput {
        let protocols = options.protocol_set(&[ProtocolSpec::SS]);
        let sweep = Sweep::refresh_timer();
        // Keep the historical "of SS" title and one-series-per-scenario
        // labels only for the default set; any override names the protocol
        // in every label so the output is never mislabeled as SS data.
        let default_set = protocols == [ProtocolSpec::SS];
        let title = if default_set {
            "Integrated cost C = w·I + M of SS vs refresh timer, per scenario"
        } else {
            "Integrated cost C = w·I + M vs refresh timer, per scenario"
        };
        let mut set = SeriesSet::new(title, sweep.parameter.clone(), "integrated cost");
        for scenario in Scenario::builtins() {
            for &protocol in &protocols {
                let label = if default_set {
                    scenario.name.clone()
                } else {
                    format!("{} ({})", scenario.name, protocol.label())
                };
                let mut series = Series::new(label);
                for &t in &sweep.values {
                    let params = scenario.params.with_refresh_timer_scaled_timeout(t);
                    let s = SingleHopModel::new(protocol, params)
                        // sigtidy: allow(no-unwrap) — scenario presets are validated by tests
                        .expect("scenario parameters are valid")
                        .solve()
                        // sigtidy: allow(no-unwrap) — the preset chains are solvable by construction
                        .expect("single-hop chain solves");
                    series.push(Point::new(
                        t,
                        s.integrated_cost(scenario.inconsistency_weight),
                    ));
                }
                set.push(series);
            }
        }
        ExperimentOutput::Figure(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_options_are_small() {
        let o = bench_options();
        assert!(o.sim_replications <= 20);
        assert!(o.sim_points <= 6);
    }

    #[test]
    fn printing_an_experiment_does_not_panic() {
        // Smoke-test the cheap analytic path used by most benches.
        print_experiments(&["fig5a"]);
    }

    #[test]
    fn extended_registry_adds_user_level_experiments() {
        let registry = extended_registry();
        assert_eq!(registry.len(), 31);
        // Paper experiments still resolve...
        assert!(registry.get("fig11a").is_some());
        // ...and the extras are addressable by name and tag.
        for name in [
            "dns-lease-cost",
            "bgp-keepalive-loss",
            "ss-rr-lifetime",
            "spec-spectrum",
            "scenario-cost-sweep",
            "node-scale",
            "node-storm",
            "node-outage",
            "node-restart-storm",
        ] {
            assert!(registry.get(name).is_some(), "{name} missing");
        }
        assert_eq!(registry.with_tag("extra").len(), 9);
        assert_eq!(registry.with_tag("paper").len(), 22);
    }

    #[test]
    fn coherent_spectrum_covers_exactly_the_valid_compositions() {
        let spectrum = coherent_spectrum();
        // Exactly the coherent subset of the 72-point mechanism space.
        let expected = ProtocolSpec::enumerate_all("x")
            .into_iter()
            .filter(|s| s.validate().is_ok())
            .count();
        assert_eq!(spectrum.len(), expected);
        assert!(spectrum.len() > 5, "wider than the paper's five points");
        // Labels are distinct and the set passes the shared set-level rules.
        signaling::registry::check_protocol_set(spectrum).expect("spectrum set is runnable");
        // Every paper preset's mechanisms appear (modulo the label).
        for preset in ProtocolSpec::PAPER {
            assert!(
                spectrum
                    .iter()
                    .any(|s| s.with_label(preset.label) == preset),
                "{preset} missing from the spectrum"
            );
        }
        // The label encoding reads back the mechanisms: pure soft and pure
        // hard state land on their documented codes.
        assert!(spectrum
            .iter()
            .any(|s| s.label() == "spec:btb--" && s.with_label("SS") == ProtocolSpec::SS));
        assert!(spectrum
            .iter()
            .any(|s| s.label() == "spec:--rrn" && s.with_label("HS") == ProtocolSpec::HS));
    }

    #[test]
    fn spectrum_label_order_is_pinned_and_matches_the_fsm_mechanism_code() {
        // The spectrum's series order (and therefore the spec-spectrum
        // golden fixture and its CSV column order) is the spec enumeration
        // order.  That ordering used to be only implicitly stable; pin the
        // full label sequence so any reordering of `enumerate_all` — or any
        // drift in the label scheme — fails loudly rather than silently
        // rewriting the golden.
        let labels: Vec<&str> = coherent_spectrum().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "spec:--rrn",
                "spec:b-br-",
                "spec:b-brn",
                "spec:b-rr-",
                "spec:b-rrn",
                "spec:btb--",
                "spec:btb-n",
                "spec:btbb-",
                "spec:btbbn",
                "spec:btbr-",
                "spec:btbrn",
                "spec:btr--",
                "spec:btr-n",
                "spec:btrb-",
                "spec:btrbn",
                "spec:btrr-",
                "spec:btrrn",
                "spec:r-br-",
                "spec:r-brn",
                "spec:r-rr-",
                "spec:r-rrn",
                "spec:rtb--",
                "spec:rtb-n",
                "spec:rtbb-",
                "spec:rtbbn",
                "spec:rtbr-",
                "spec:rtbrn",
                "spec:rtr--",
                "spec:rtr-n",
                "spec:rtrb-",
                "spec:rtrbn",
                "spec:rtrr-",
                "spec:rtrrn",
            ]
        );
        // The spectrum's label encoder and the transition-table layer's
        // mechanism code are independent implementations of the same
        // scheme; they must agree on every point.
        for spec in coherent_spectrum() {
            assert_eq!(
                spec.label(),
                format!("spec:{}", siganalytic::fsm::mechanism_code(spec)),
                "label scheme drifted from the fsm mechanism code"
            );
        }
    }

    #[test]
    fn spec_spectrum_charts_every_coherent_point() {
        let out = extended_registry()
            .run("spec-spectrum", &bench_options())
            .expect("registered");
        let fig = out.as_figure().expect("figure");
        assert_eq!(
            fig.series.len(),
            coherent_spectrum().len(),
            "one series per coherent composition"
        );
        for (series, spec) in fig.series.iter().zip(coherent_spectrum()) {
            assert_eq!(series.label, spec.label());
            assert_eq!(series.len(), Sweep::refresh_timer().len());
            for p in &series.points {
                assert!((0.0..=1.0).contains(&p.x), "{}: I = {}", series.label, p.x);
                assert!(
                    p.y.is_finite() && p.y >= 0.0,
                    "{}: M = {}",
                    series.label,
                    p.y
                );
            }
        }
    }

    #[test]
    fn protocol_registry_resolves_presets_and_the_custom_spec() {
        let protocols = protocol_registry();
        assert_eq!(protocols.len(), 6);
        let set = protocols.resolve_set("SS,SS+RR,HS").unwrap();
        assert_eq!(set[1], SS_RR);
        assert!(protocols
            .get("ss+rr")
            .unwrap()
            .used_by
            .contains("ss-rr-lifetime"));
    }

    #[test]
    fn the_custom_protocol_runs_end_to_end_through_the_registry() {
        // SS+RR through analytic + simulation + registry in one shot: the
        // AnalyticVsSim kind solves the chain for the custom spec and runs
        // replicated discrete-event campaigns of it.
        let mut options = bench_options();
        options.sim_replications = 5;
        options.sim_points = 2;
        let out = extended_registry()
            .run("ss-rr-lifetime", &options)
            .expect("registered");
        let fig = out.as_figure().expect("figure");
        assert_eq!(fig.labels(), vec!["SS", "SS+RR", "SS sim", "SS+RR sim"]);
        // Reliable refresh repairs lost refreshes, so the analytic SS+RR
        // curve sits at or below SS everywhere.
        let ss = fig.get("SS").unwrap();
        let rr = fig.get("SS+RR").unwrap();
        for (a, b) in rr.points.iter().zip(ss.points.iter()) {
            assert!(a.y <= b.y + 1e-12, "SS+RR above SS at x = {}", a.x);
        }
        // And the simulated points carry error bars like every sim series.
        assert!(fig
            .get("SS+RR sim")
            .unwrap()
            .points
            .iter()
            .all(|p| p.err.is_some()));
    }

    #[test]
    fn scenario_cost_sweep_covers_every_builtin_scenario() {
        let out = ScenarioCostSweep.run(&bench_options());
        let fig = out.as_figure().expect("figure");
        assert_eq!(fig.series.len(), Scenario::builtins().len());
        for s in &fig.series {
            assert_eq!(s.len(), Sweep::refresh_timer().len());
            assert!(s.points.iter().all(|p| p.y.is_finite() && p.y >= 0.0));
        }
        // Heavily weighted scenarios pay more for the same inconsistency.
        let bgp = fig.get("BGP session keepalive").unwrap();
        assert!(!bgp.is_empty());
    }

    #[test]
    fn extra_experiments_run_through_the_registry() {
        let registry = extended_registry();
        let out = registry
            .run("dns-lease-cost", &bench_options())
            .expect("registered");
        let fig = out.as_figure().expect("figure");
        assert_eq!(fig.y_label, "integrated cost");
        assert_eq!(fig.series.len(), 5);
    }
}
