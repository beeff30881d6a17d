//! The open experiment registry.
//!
//! Three pieces make up the experiment API:
//!
//! * [`Experiment`] — the trait every runnable experiment implements: a
//!   stable [`name`](Experiment::name), a human
//!   [`description`](Experiment::description), free-form
//!   [`tags`](Experiment::tags) for filtering, and
//!   [`run`](Experiment::run);
//! * [`Registry`] — a name-indexed collection of experiments.
//!   [`Registry::with_builtins`] pre-registers the paper's 22 tables and
//!   figures from a static catalog; [`Registry::register`] accepts
//!   user-defined experiments at runtime;
//! * [`ExperimentSpec`] — a declarative builder that composes a workload
//!   [`Scenario`], a protocol set, a [`Sweep`] over one parameter
//!   ([`SweepTarget`]), a timer/delay/loss discipline and a [`SpecKind`]
//!   into a runnable experiment, so a new figure is ~10 lines of
//!   composition.  Twenty of the paper's built-ins are exactly such specs,
//!   built from their catalog row when they run.
//!
//! ```
//! use signaling::registry::{ExperimentSpec, Registry, SpecKind, SweepTarget};
//! use signaling::{ExperimentOptions, Metric, Scenario, Sweep};
//!
//! let mut registry = Registry::with_builtins();
//! registry
//!     .register(
//!         ExperimentSpec::new("dns-lease-cost", "integrated cost of a DNS cache lease")
//!             .scenario(Scenario::dns_cache_lease())
//!             .sweep(Sweep::refresh_timer(), SweepTarget::RefreshTimer)
//!             .kind(SpecKind::IntegratedCost)
//!             .tag("custom"),
//!     )
//!     .unwrap();
//! let out = registry.run("dns-lease-cost", &ExperimentOptions::quick()).unwrap();
//! assert!(out.as_figure().is_some());
//! ```

use crate::experiment::{
    sim_grid, simulated_series, solve_multi, solve_single, sweep_series, ExperimentOptions,
    ExperimentOutput, Metric, PAPER_EXPERIMENTS,
};
use siganalytic::spec::SpecError as ProtocolSpecError;
use siganalytic::{
    ConfigError, Delivery, MultiHopParams, ProtocolSpec, RefreshMode, Removal, SingleHopParams,
};
use sigstats::{Point, SeriesSet};
use sigworkload::{MultiHopScenario, Scenario, Sweep};
use simcore::TimerMode;
use std::fmt;

/// A runnable, self-describing experiment.
///
/// Implementations must be cheap to construct; all heavy work belongs in
/// [`Experiment::run`], which receives the sizing/scheduling options.
///
/// Hand-written implementations that sweep protocols should derive their
/// set via [`ExperimentOptions::protocol_set`] (passing their own default)
/// so the options-level protocol override — `repro --protocols` — applies
/// to them exactly as it does to the built-in figures and to
/// [`ExperimentSpec`] compositions.
pub trait Experiment: Send + Sync {
    /// Stable short name, usable as a CLI argument or a file stem
    /// (e.g. `"fig4a"`, `"dns-lease-cost"`).
    fn name(&self) -> &str;

    /// One-line description of what the experiment produces.
    fn description(&self) -> &str;

    /// Free-form labels for filtering (`"paper"`, `"analytic"`,
    /// `"simulation"`, `"custom"`, ...).
    fn tags(&self) -> Vec<String> {
        Vec::new()
    }

    /// Runs the experiment.
    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput;
}

/// Errors from [`Registry`] and [`ProtocolRegistry`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An experiment with this name is already registered.
    DuplicateName(String),
    /// No experiment with this name is registered.
    UnknownExperiment(String),
    /// A protocol with this label is already registered.
    DuplicateProtocol(String),
    /// No protocol with this label is registered.
    UnknownProtocol(String),
    /// The protocol's mechanism composition failed validation.
    InvalidProtocol {
        /// The offending spec's label.
        label: String,
        /// Why the mechanisms do not compose.
        error: ProtocolSpecError,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "an experiment named '{name}' is already registered")
            }
            RegistryError::UnknownExperiment(name) => {
                write!(f, "no experiment named '{name}' is registered")
            }
            RegistryError::DuplicateProtocol(label) => {
                write!(f, "a protocol labeled '{label}' is already registered")
            }
            RegistryError::UnknownProtocol(label) => {
                write!(f, "no protocol labeled '{label}' is registered")
            }
            RegistryError::InvalidProtocol { label, error } => {
                write!(f, "protocol '{label}' is incoherent: {error}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A name-indexed, insertion-ordered collection of [`Experiment`]s.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the paper's 22 tables and figures, in
    /// paper order.  The catalog rows are static data: registering them
    /// builds no [`ExperimentSpec`].
    pub fn with_builtins() -> Self {
        let mut registry = Self::new();
        for row in &PAPER_EXPERIMENTS {
            registry
                .register(*row)
                // sigtidy: allow(no-unwrap) — uniqueness over the catalog is pinned by a test
                .expect("built-in experiment names are unique");
        }
        registry
    }

    /// Registers an experiment.  Names are compared case-insensitively and
    /// must be unique.
    pub fn register(&mut self, experiment: impl Experiment + 'static) -> Result<(), RegistryError> {
        self.register_boxed(Box::new(experiment))
    }

    /// Registers an already-boxed experiment (useful when the concrete type
    /// is decided at runtime).
    fn register_boxed(&mut self, experiment: Box<dyn Experiment>) -> Result<(), RegistryError> {
        let name = experiment.name().to_string();
        if self.get(&name).is_some() {
            return Err(RegistryError::DuplicateName(name));
        }
        self.entries.push(experiment);
        Ok(())
    }

    /// Looks up an experiment by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.name().eq_ignore_ascii_case(name))
            .map(|e| e.as_ref())
    }

    /// Runs the named experiment.
    pub fn run(
        &self,
        name: &str,
        options: &ExperimentOptions,
    ) -> Result<ExperimentOutput, RegistryError> {
        self.get(name)
            .map(|e| e.run(options))
            .ok_or_else(|| RegistryError::UnknownExperiment(name.to_string()))
    }

    /// All experiments, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.entries.iter().map(|e| e.as_ref())
    }

    /// The experiments carrying `tag` (case-insensitive), in registration
    /// order.
    pub fn with_tag(&self, tag: &str) -> Vec<&dyn Experiment> {
        self.iter()
            .filter(|e| e.tags().iter().any(|t| t.eq_ignore_ascii_case(tag)))
            .collect()
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.iter().map(|e| e.name().to_string()).collect()
    }

    /// Every distinct tag in use, sorted.
    pub fn tags(&self) -> Vec<String> {
        let mut tags: Vec<String> = self.iter().flat_map(|e| e.tags()).collect();
        tags.sort();
        tags.dedup();
        tags
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("experiments", &self.names())
            .finish()
    }
}

/// Why a protocol *set* is unusable, beyond per-spec coherence.
///
/// Returned by [`check_protocol_set`], the one implementation of the
/// set-level rules shared by [`ExperimentSpec::validate`], the
/// options-level protocol override and `repro --protocols`.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSetError {
    /// A spec in the set has an incoherent mechanism composition.
    Incoherent {
        /// The offending spec.
        spec: ProtocolSpec,
        /// Why its mechanisms do not compose.
        error: ProtocolSpecError,
    },
    /// Two specs share a label (compared case-insensitively) — series,
    /// CSV columns and registry lookups are keyed by label, so duplicates
    /// would be ambiguous.
    DuplicateLabel(ProtocolSpec),
}

impl fmt::Display for ProtocolSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolSetError::Incoherent { spec, error } => {
                write!(f, "protocol '{}' is incoherent: {error}", spec.label())
            }
            ProtocolSetError::DuplicateLabel(spec) => {
                write!(f, "duplicate label '{}' in the protocol set", spec.label())
            }
        }
    }
}

impl std::error::Error for ProtocolSetError {}

/// Checks a protocol set: every spec must be coherent and labels must be
/// unique (case-insensitive).  Reports the first problem found.
pub fn check_protocol_set(set: &[ProtocolSpec]) -> Result<(), ProtocolSetError> {
    for (i, spec) in set.iter().enumerate() {
        spec.validate()
            .map_err(|error| ProtocolSetError::Incoherent { spec: *spec, error })?;
        if set[..i]
            .iter()
            .any(|other| other.label().eq_ignore_ascii_case(spec.label()))
        {
            return Err(ProtocolSetError::DuplicateLabel(*spec));
        }
    }
    Ok(())
}

/// Every *coherent* mechanism composition — the full hard/soft design space
/// the `spec-spectrum` experiment charts and the `node-outage` and
/// `node-restart-storm` tables run by default — each under a distinct,
/// mechanism-encoding label.
///
/// The label scheme packs one character per knob,
/// `spec:<refresh><timeout><triggers><removal><notify>` with `-` for
/// "absent/best-effort-less", `b` for best-effort, `r` for reliable, `t`/`n`
/// for an enabled timeout/notification — e.g. pure soft state (the SS
/// preset's mechanisms) is `spec:bt b--` written `spec:btb--`, and pure hard
/// state is `spec:--rrn`.  The encoding is injective, so the set always
/// passes [`check_protocol_set`].
pub fn coherent_spectrum() -> &'static [ProtocolSpec] {
    use std::sync::OnceLock;
    static SPECTRUM: OnceLock<Vec<ProtocolSpec>> = OnceLock::new();
    SPECTRUM.get_or_init(|| {
        ProtocolSpec::enumerate_all("spec")
            .into_iter()
            .filter(|spec| spec.validate().is_ok())
            .map(|spec| spec.with_label(spectrum_label(&spec)))
            .collect()
    })
}

/// The injective `spec:<refresh><timeout><triggers><removal><notify>` label
/// of one spectrum point (leaked once per distinct composition; the spectrum
/// is computed a single time into a static).
fn spectrum_label(spec: &ProtocolSpec) -> &'static str {
    let refresh = match spec.refresh {
        None => '-',
        Some(RefreshMode::BestEffort) => 'b',
        Some(RefreshMode::Reliable) => 'r',
    };
    let timeout = if spec.state_timeout { 't' } else { '-' };
    let triggers = match spec.triggers {
        Delivery::BestEffort => 'b',
        Delivery::Reliable => 'r',
    };
    let removal = match spec.removal {
        Removal::None => '-',
        Removal::BestEffort => 'b',
        Removal::Reliable => 'r',
    };
    let notify = if spec.notify_on_removal { 'n' } else { '-' };
    Box::leak(format!("spec:{refresh}{timeout}{triggers}{removal}{notify}").into_boxed_str())
}

/// One registered protocol: its mechanism composition plus a note on which
/// figures/experiments use it (shown by `repro --list-protocols`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolEntry {
    /// The mechanism composition.
    pub spec: ProtocolSpec,
    /// Human note on where the protocol appears (e.g. `"table1, fig4–fig12"`).
    pub used_by: String,
}

/// A label-indexed, insertion-ordered collection of [`ProtocolSpec`]s — the
/// protocol-layer analogue of [`Registry`].
///
/// Registration validates the spec's mechanism coherence and rejects
/// duplicate labels with a typed [`RegistryError`] (label lookups are
/// case-insensitive), so a custom design point either becomes addressable by
/// name everywhere — `repro --protocols`, [`ExperimentOptions::protocols`],
/// [`ExperimentSpec`] protocol sets — or fails loudly at registration time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtocolRegistry {
    entries: Vec<ProtocolEntry>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the paper's five protocols, in paper
    /// order, annotated with the figures that evaluate them.
    pub fn with_paper_presets() -> Self {
        const SINGLE_HOP: &str = "table1, fig4–fig12";
        const BOTH: &str = "table1, fig4–fig12, fig17–fig19";
        let mut registry = Self::new();
        for (spec, used_by) in [
            (ProtocolSpec::SS, BOTH),
            (ProtocolSpec::SS_ER, SINGLE_HOP),
            (ProtocolSpec::SS_RT, BOTH),
            (ProtocolSpec::SS_RTR, SINGLE_HOP),
            (ProtocolSpec::HS, BOTH),
        ] {
            registry
                .register(spec, used_by)
                // sigtidy: allow(no-unwrap) — the five paper presets are coherent by construction
                .expect("paper preset labels are unique and coherent");
        }
        registry
    }

    /// Registers a protocol spec.  The spec must validate and its label must
    /// be unique (compared case-insensitively) — both enforced by
    /// [`check_protocol_set`] over the would-be registry contents, so the
    /// registry accepts exactly the sets every other protocol-set consumer
    /// does.
    pub fn register(
        &mut self,
        spec: ProtocolSpec,
        used_by: impl Into<String>,
    ) -> Result<(), RegistryError> {
        let mut specs: Vec<ProtocolSpec> = self.entries.iter().map(|e| e.spec).collect();
        specs.push(spec);
        check_protocol_set(&specs).map_err(|e| match e {
            ProtocolSetError::Incoherent { spec, error } => RegistryError::InvalidProtocol {
                label: spec.label().to_string(),
                error,
            },
            ProtocolSetError::DuplicateLabel(spec) => {
                RegistryError::DuplicateProtocol(spec.label().to_string())
            }
        })?;
        self.entries.push(ProtocolEntry {
            spec,
            used_by: used_by.into(),
        });
        Ok(())
    }

    /// Looks up a protocol by label (case-insensitive).
    pub fn get(&self, label: &str) -> Option<&ProtocolEntry> {
        self.entries
            .iter()
            .find(|e| e.spec.label().eq_ignore_ascii_case(label))
    }

    /// Resolves a comma-separated list of labels (e.g. `"SS,SS+RT,HS"`) to
    /// specs, preserving order.  Empty items are skipped; an unknown label
    /// is a typed error naming it.
    pub fn resolve_set(&self, labels: &str) -> Result<Vec<ProtocolSpec>, RegistryError> {
        let mut specs = Vec::new();
        for label in labels.split(',') {
            let label = label.trim();
            if label.is_empty() {
                continue;
            }
            let entry = self
                .get(label)
                .ok_or_else(|| RegistryError::UnknownProtocol(label.to_string()))?;
            specs.push(entry.spec);
        }
        Ok(specs)
    }

    /// All entries, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &ProtocolEntry> {
        self.entries.iter()
    }

    /// Number of registered protocols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Which parameter a declarative experiment sweeps.
///
/// Each target maps one swept x-value onto a scenario's base parameters,
/// following the paper's coupling conventions where they exist (sweeping the
/// refresh timer keeps `τ = 3 T`; sweeping the delay keeps `R = 2 Δ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTarget {
    /// Mean state lifetime `1/λ_r` (single-hop only).
    MeanLifetime,
    /// Mean update interval `1/λ_u`.
    UpdateInterval,
    /// Channel loss probability `p_l`.
    LossRate,
    /// One-way channel delay `Δ`, with `R = 2 Δ`.
    ChannelDelay,
    /// Refresh timer `T`, with `τ = 3 T`.
    RefreshTimer,
    /// State-timeout timer `τ` alone.
    TimeoutTimer,
    /// Retransmission timer `R` alone.
    RetransTimer,
    /// Hop count `K` (multi-hop only; single-hop parameters ignore it).
    HopCount,
}

impl SweepTarget {
    /// Applies the swept value to a single-hop parameter set.
    pub fn apply_single(self, mut base: SingleHopParams, x: f64) -> SingleHopParams {
        match self {
            SweepTarget::MeanLifetime => base.with_mean_lifetime(x),
            SweepTarget::UpdateInterval => base.with_mean_update_interval(x),
            SweepTarget::LossRate => {
                base.loss = x;
                base
            }
            SweepTarget::ChannelDelay => base.with_delay_scaled_retrans(x),
            SweepTarget::RefreshTimer => base.with_refresh_timer_scaled_timeout(x),
            SweepTarget::TimeoutTimer => {
                base.timeout_timer = x;
                base
            }
            SweepTarget::RetransTimer => {
                base.retrans_timer = x;
                base
            }
            SweepTarget::HopCount => base,
        }
    }

    /// Applies the swept value to a multi-hop parameter set.
    pub fn apply_multi(self, mut base: MultiHopParams, x: f64) -> MultiHopParams {
        match self {
            SweepTarget::MeanLifetime => base,
            SweepTarget::UpdateInterval => {
                base.update_rate = 1.0 / x;
                base
            }
            SweepTarget::LossRate => {
                base.loss = x;
                base
            }
            SweepTarget::ChannelDelay => {
                base.delay = x;
                base.retrans_timer = 2.0 * x;
                base
            }
            SweepTarget::RefreshTimer => base.with_refresh_timer_scaled_timeout(x),
            SweepTarget::TimeoutTimer => {
                base.timeout_timer = x;
                base
            }
            SweepTarget::RetransTimer => {
                base.retrans_timer = x;
                base
            }
            SweepTarget::HopCount => base.with_hops(x.max(1.0) as usize),
        }
    }
}

/// Why an [`ExperimentSpec`]'s composition cannot run.
///
/// Returned by [`ExperimentSpec::validate`]; [`Experiment::run`] on a spec
/// panics with this error's message, so validating before registering is how
/// a user turns a composition mistake into a handled error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecError {
    /// The single-hop scenario's parameters are invalid.
    Scenario(ConfigError),
    /// The multi-hop scenario's parameters are invalid.
    MultiHopScenario(ConfigError),
    /// The sweep target does not affect the parameters the spec's kind
    /// solves (e.g. [`SweepTarget::HopCount`] with a single-hop kind):
    /// every swept point would be identical.
    TargetIgnoredByKind {
        /// The inapplicable target.
        target: SweepTarget,
        /// The kind that ignores it.
        kind: SpecKind,
    },
    /// The protocol set is empty (for multi-hop kinds: contains none of the
    /// paper's multi-hop protocols).
    NoProtocols,
    /// A protocol in the spec's set has an incoherent mechanism
    /// composition.
    Protocol {
        /// The offending spec's label.
        label: &'static str,
        /// Why the mechanisms do not compose.
        error: ProtocolSpecError,
    },
    /// Two protocols in the spec's set share a label (series, reports and
    /// CSV columns are keyed by label, so duplicates would be ambiguous).
    DuplicateProtocolLabel(&'static str),
    /// The sweep has no values.
    EmptySweep,
    /// The simulation range `[lo, hi]` holds no sweep value (it may be
    /// reversed or NaN), so no point could be simulated.
    SimRangeMissesSweep {
        /// The range's lower end.
        lo: f64,
        /// The range's upper end.
        hi: f64,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            SpecError::MultiHopScenario(e) => write!(f, "invalid multi-hop scenario: {e}"),
            SpecError::TargetIgnoredByKind { target, kind } => write!(
                f,
                "sweep target {target:?} does not vary the parameters of kind {kind:?} \
                 (every swept point would be identical)"
            ),
            SpecError::NoProtocols => write!(f, "the spec's protocol set is empty"),
            SpecError::Protocol { label, error } => {
                write!(f, "protocol '{label}' is incoherent: {error}")
            }
            SpecError::DuplicateProtocolLabel(label) => write!(
                f,
                "two protocols in the set share the label '{label}' \
                 (series labels must be unique)"
            ),
            SpecError::EmptySweep => write!(f, "the sweep has no values"),
            SpecError::SimRangeMissesSweep { lo, hi } => write!(
                f,
                "the simulation range [{lo}, {hi}] contains no sweep value"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// What a declarative experiment computes at each swept point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecKind {
    /// Analytic single-hop curves: one series per protocol, the spec's
    /// metric on the y axis.
    AnalyticSingleHop,
    /// Analytic multi-hop curves (protocols outside the paper's multi-hop
    /// set are skipped).
    AnalyticMultiHop,
    /// Overhead-vs-inconsistency tradeoff: x = `I`, y = `M`, one point per
    /// swept value.
    Tradeoff,
    /// Integrated cost `C = w·I + M` with the scenario's inconsistency
    /// weight `w`.
    IntegratedCost,
    /// Analytic curves plus simulated points with 95% error bars — the
    /// paper's Figures 11–12 methodology.  Simulated points are placed on up
    /// to `ExperimentOptions::sim_points` grid values inside the spec's
    /// simulation range; replications, seed and scheduling come from the
    /// options.
    AnalyticVsSim,
}

/// A declarative, scenario-composable experiment.
///
/// The builder starts from the paper's defaults (Kazaa scenario, all five
/// protocols, refresh-timer sweep, inconsistency metric, analytic
/// single-hop kind, deterministic simulation timers) and each method
/// overrides one axis of the composition.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    name: String,
    description: String,
    title: Option<String>,
    tags: Vec<String>,
    scenario: Scenario,
    multi_hop_scenario: MultiHopScenario,
    protocols: Vec<ProtocolSpec>,
    sweep: Sweep,
    target: SweepTarget,
    metric: Metric,
    kind: SpecKind,
    timer_mode: TimerMode,
    sim_range: Option<(f64, f64)>,
}

impl ExperimentSpec {
    /// A spec with the given name and description and the default
    /// composition (see the type docs).
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
            title: None,
            tags: Vec::new(),
            scenario: Scenario::kazaa_peer(),
            multi_hop_scenario: MultiHopScenario::bandwidth_reservation(),
            protocols: ProtocolSpec::PAPER.to_vec(),
            sweep: Sweep::refresh_timer(),
            target: SweepTarget::RefreshTimer,
            metric: Metric::Inconsistency,
            kind: SpecKind::AnalyticSingleHop,
            timer_mode: TimerMode::Deterministic,
            sim_range: None,
        }
    }

    /// Adds a tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tags.push(tag.into());
        self
    }

    /// Overrides the figure title (defaults to the description).
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Sets the single-hop base scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the multi-hop base scenario (used by
    /// [`SpecKind::AnalyticMultiHop`]).
    pub fn multi_hop_scenario(mut self, scenario: MultiHopScenario) -> Self {
        self.multi_hop_scenario = scenario;
        self
    }

    /// Sets the protocol set: paper presets and custom [`ProtocolSpec`]s mix
    /// freely.
    pub fn protocols(mut self, protocols: &[ProtocolSpec]) -> Self {
        self.protocols = protocols.to_vec();
        self
    }

    /// Sets the sweep grid and which parameter it drives.
    pub fn sweep(mut self, sweep: Sweep, target: SweepTarget) -> Self {
        self.sweep = sweep;
        self.target = target;
        self
    }

    /// Sets the y-axis metric (ignored by [`SpecKind::Tradeoff`] and
    /// [`SpecKind::IntegratedCost`], which fix their own axes).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets what is computed at each swept point.
    pub fn kind(mut self, kind: SpecKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the simulated timer/delay discipline
    /// ([`SpecKind::AnalyticVsSim`] only).
    pub fn timer_mode(mut self, mode: TimerMode) -> Self {
        self.timer_mode = mode;
        self
    }

    /// Restricts the simulated points to `[lo, hi]`
    /// ([`SpecKind::AnalyticVsSim`] only; defaults to the whole sweep).  The
    /// range must hold at least one sweep value.
    pub fn sim_range(mut self, lo: f64, hi: f64) -> Self {
        self.sim_range = Some((lo, hi));
        self
    }

    /// Checks that the composition is runnable: valid scenario parameters,
    /// a sweep target the kind actually responds to, a non-empty protocol
    /// set and sweep, and a simulation range that holds a sweep value.
    ///
    /// [`Experiment::run`] performs the same check and panics with the
    /// error's message, so call this before registering to handle
    /// composition mistakes gracefully.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.sweep.is_empty() {
            return Err(SpecError::EmptySweep);
        }
        if let Some((lo, hi)) = self.sim_range {
            if !self.sweep.values.iter().any(|x| (lo..=hi).contains(x)) {
                return Err(SpecError::SimRangeMissesSweep { lo, hi });
            }
        }
        check_protocol_set(&self.protocols).map_err(|e| match e {
            ProtocolSetError::Incoherent { spec, error } => SpecError::Protocol {
                label: spec.label(),
                error,
            },
            ProtocolSetError::DuplicateLabel(spec) => {
                SpecError::DuplicateProtocolLabel(spec.label())
            }
        })?;
        if self.kind == SpecKind::AnalyticMultiHop {
            self.multi_hop_scenario
                .validate()
                .map_err(SpecError::MultiHopScenario)?;
            if self.multi_hop_protocols().is_empty() {
                return Err(SpecError::NoProtocols);
            }
            // The multi-hop model has no removal rate to sweep.
            if self.target == SweepTarget::MeanLifetime {
                return Err(SpecError::TargetIgnoredByKind {
                    target: self.target,
                    kind: self.kind,
                });
            }
        } else {
            self.scenario.validate().map_err(SpecError::Scenario)?;
            if self.protocols.is_empty() {
                return Err(SpecError::NoProtocols);
            }
            // Single-hop parameters have no hop count.
            if self.target == SweepTarget::HopCount {
                return Err(SpecError::TargetIgnoredByKind {
                    target: self.target,
                    kind: self.kind,
                });
            }
        }
        Ok(())
    }

    fn figure_title(&self) -> &str {
        self.title.as_deref().unwrap_or(&self.description)
    }

    /// The multi-hop subset of the spec's protocols: paper presets outside
    /// the paper's multi-hop trio (SS+ER, SS+RTR — whose removal mechanisms
    /// are inert without sender-side removal) are dropped, while any custom
    /// spec the user asked for explicitly is kept.
    fn multi_hop_protocols(&self) -> Vec<ProtocolSpec> {
        self.protocols
            .iter()
            .copied()
            .filter(|p| {
                !ProtocolSpec::PAPER.contains(p) || ProtocolSpec::PAPER_MULTI_HOP.contains(p)
            })
            .collect()
    }
}

impl Experiment for ExperimentSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn tags(&self) -> Vec<String> {
        self.tags.clone()
    }

    /// Runs the composed experiment.
    ///
    /// # Panics
    /// Panics with the [`SpecError`] message if the composition is invalid;
    /// use [`ExperimentSpec::validate`] to check first.
    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput {
        if let Err(e) = self.validate() {
            // sigtidy: allow(no-unwrap) — documented API contract ("# Panics" above)
            panic!("experiment '{}' is not runnable: {e}", self.name);
        }
        let base = self.scenario.params;
        let make_single = |x: f64| self.target.apply_single(base, x);
        let execution = options.execution;
        let metric = self.metric;
        // The options-level override replaces the spec's own set, exactly as
        // it does for the built-in figures.
        let protocols = options.protocol_set(&self.protocols);
        let (x_label, y_label) = match self.kind {
            SpecKind::Tradeoff => ("inconsistency ratio".to_string(), "message overhead"),
            SpecKind::IntegratedCost => (self.sweep.parameter.clone(), "integrated cost"),
            _ => (self.sweep.parameter.clone(), metric.label()),
        };
        let mut set = SeriesSet::new(self.figure_title(), x_label, y_label);
        set.series = match self.kind {
            SpecKind::AnalyticSingleHop | SpecKind::AnalyticVsSim => sweep_series(
                execution,
                &protocols,
                &self.sweep,
                make_single,
                solve_single,
                |x, s| Point::new(x, metric.of_single_hop(s)),
            ),
            SpecKind::AnalyticMultiHop => {
                let multi_base = self.multi_hop_scenario.params;
                let multi = options.protocol_set(&self.multi_hop_protocols());
                sweep_series(
                    execution,
                    &multi,
                    &self.sweep,
                    |x| self.target.apply_multi(multi_base, x),
                    solve_multi,
                    |x, s| Point::new(x, metric.of_multi_hop(s)),
                )
            }
            SpecKind::Tradeoff => sweep_series(
                execution,
                &protocols,
                &self.sweep,
                make_single,
                solve_single,
                |_, s| Point::new(s.inconsistency, s.normalized_message_rate),
            ),
            SpecKind::IntegratedCost => {
                let weight = self.scenario.inconsistency_weight;
                sweep_series(
                    execution,
                    &protocols,
                    &self.sweep,
                    make_single,
                    solve_single,
                    |x, s| Point::new(x, s.integrated_cost(weight)),
                )
            }
        };
        if self.kind == SpecKind::AnalyticVsSim {
            let (lo, hi) = self.sim_range.unwrap_or_else(|| {
                (
                    self.sweep.values.first().copied().unwrap_or(0.0),
                    self.sweep.values.last().copied().unwrap_or(0.0),
                )
            });
            let xs_sim = sim_grid(&self.sweep.values, lo, hi, options.sim_points.max(2));
            set.series.extend(simulated_series(
                metric,
                &protocols,
                &xs_sim,
                self.timer_mode,
                self.scenario.loss_model,
                options,
                make_single,
            ));
        }
        ExperimentOutput::Figure(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentId;
    use simcore::ExecutionPolicy;

    #[test]
    fn builtins_cover_every_paper_experiment() {
        let registry = Registry::with_builtins();
        assert_eq!(registry.len(), 22);
        for row in &PAPER_EXPERIMENTS {
            let exp = registry
                .get(row.name())
                .unwrap_or_else(|| panic!("{} missing", row.name()));
            let id = ExperimentId::parse(row.name()).expect("the handle resolves every row");
            assert_eq!(exp.description(), id.description());
            assert!(exp.tags().contains(&"paper".to_string()));
        }
        // Case-insensitive lookup, like ExperimentId::parse.
        assert!(registry.get("FIG4A").is_some());
        assert!(registry.get("nope").is_none());
        assert_eq!(
            registry.run("missing", &ExperimentOptions::quick()),
            Err(RegistryError::UnknownExperiment("missing".into()))
        );
    }

    #[test]
    fn builtin_tags_partition_the_catalog() {
        let registry = Registry::with_builtins();
        assert_eq!(registry.with_tag("simulation").len(), 4);
        assert_eq!(registry.with_tag("analytic").len(), 18);
        assert_eq!(registry.with_tag("multi-hop").len(), 5);
        assert_eq!(registry.with_tag("table").len(), 1);
        assert_eq!(registry.with_tag("paper").len(), 22);
        let tags = registry.tags();
        for expected in ["analytic", "figure", "multi-hop", "paper", "simulation"] {
            assert!(tags.iter().any(|t| t == expected), "missing tag {expected}");
        }
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut registry = Registry::with_builtins();
        let err = registry
            .register(ExperimentSpec::new("fig4a", "duplicate"))
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName("fig4a".into()));
        // Case-insensitive collision.
        let spec = ExperimentSpec::new("FIG4A", "shadowing attempt");
        assert!(matches!(
            registry.register(spec),
            Err(RegistryError::DuplicateName(_))
        ));
        assert_eq!(registry.len(), 22);
    }

    #[test]
    fn a_new_figure_is_ten_lines_of_composition() {
        let spec = ExperimentSpec::new(
            "bgp-loss-sensitivity",
            "BGP keepalive inconsistency vs loss rate",
        )
        .scenario(Scenario::bgp_session_keepalive())
        .protocols(&[ProtocolSpec::SS, ProtocolSpec::SS_RT, ProtocolSpec::HS])
        .sweep(Sweep::loss_rate(), SweepTarget::LossRate)
        .metric(Metric::Inconsistency)
        .tag("custom");
        let out = spec.run(&ExperimentOptions::quick());
        let fig = out.as_figure().expect("figure output");
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.len(), Sweep::loss_rate().len());
            assert!(s.is_non_decreasing(1e-9), "{}", s.label);
        }
    }

    #[test]
    fn spec_kinds_produce_the_expected_shapes() {
        let options = ExperimentOptions::quick();
        let cost = ExperimentSpec::new("cost", "integrated cost")
            .scenario(Scenario::dns_cache_lease())
            .kind(SpecKind::IntegratedCost)
            .run(&options);
        let cost = cost.as_figure().unwrap();
        assert_eq!(cost.y_label, "integrated cost");
        assert_eq!(cost.series.len(), 5);

        let tradeoff = ExperimentSpec::new("tr", "tradeoff")
            .kind(SpecKind::Tradeoff)
            .run(&options);
        let tradeoff = tradeoff.as_figure().unwrap();
        assert_eq!(tradeoff.x_label, "inconsistency ratio");

        let multi = ExperimentSpec::new("mh", "multi-hop")
            .multi_hop_scenario(MultiHopScenario::enterprise_path())
            .kind(SpecKind::AnalyticMultiHop)
            .sweep(Sweep::hop_count(), SweepTarget::HopCount)
            .run(&options);
        let multi = multi.as_figure().unwrap();
        // ProtocolSpec::PAPER filtered down to the paper's multi-hop trio.
        assert_eq!(multi.series.len(), 3);
    }

    #[test]
    fn sim_spec_runs_and_is_policy_independent() {
        let spec = ExperimentSpec::new("sim", "scenario simulation check")
            .scenario(Scenario::kazaa_peer())
            .protocols(&[ProtocolSpec::SS])
            .sweep(Sweep::session_length(), SweepTarget::MeanLifetime)
            .kind(SpecKind::AnalyticVsSim)
            .sim_range(30.0, 300.0);
        let mut quick = ExperimentOptions::quick();
        quick.sim_replications = 5;
        quick.sim_points = 2;
        let serial = spec.run(&quick.clone().with_execution(ExecutionPolicy::Serial));
        let threaded = spec.run(&quick.with_execution(ExecutionPolicy::threads(4)));
        assert_eq!(serial, threaded);
        let fig = serial.as_figure().unwrap();
        assert_eq!(fig.series.len(), 2); // one analytic + one simulated series
        assert!(fig
            .get("SS sim")
            .unwrap()
            .points
            .iter()
            .all(|p| p.err.is_some()));
    }

    #[test]
    fn sweep_targets_apply_paper_conventions() {
        let base = SingleHopParams::kazaa_defaults();
        let p = SweepTarget::RefreshTimer.apply_single(base, 10.0);
        assert_eq!(p.refresh_timer, 10.0);
        assert_eq!(p.timeout_timer, 30.0);
        let p = SweepTarget::ChannelDelay.apply_single(base, 0.5);
        assert_eq!(p.delay, 0.5);
        assert_eq!(p.retrans_timer, 1.0);
        let p = SweepTarget::MeanLifetime.apply_single(base, 600.0);
        assert_eq!(p.mean_lifetime(), 600.0);
        let m = SweepTarget::HopCount.apply_multi(MultiHopParams::reservation_defaults(), 7.0);
        assert_eq!(m.hops, 7);
    }

    #[test]
    fn spec_validation_catches_composition_mistakes() {
        // Invalid scenario parameters surface as a typed error, not a panic
        // deep inside the solver.
        let bad_params = SingleHopParams {
            loss: 2.0,
            ..Default::default()
        };
        let spec = ExperimentSpec::new("bad", "invalid scenario")
            .scenario(Scenario::new("broken", bad_params));
        assert_eq!(
            spec.validate(),
            Err(SpecError::Scenario(ConfigError::LossOutOfRange(2.0)))
        );

        // A sweep target the kind ignores would plot a flat, meaningless
        // figure — rejected instead.
        let flat =
            ExperimentSpec::new("h", "hops").sweep(Sweep::hop_count(), SweepTarget::HopCount);
        assert!(matches!(
            flat.validate(),
            Err(SpecError::TargetIgnoredByKind {
                target: SweepTarget::HopCount,
                ..
            })
        ));
        let flat_multi = ExperimentSpec::new("m", "multi lifetime")
            .kind(SpecKind::AnalyticMultiHop)
            .sweep(Sweep::session_length(), SweepTarget::MeanLifetime);
        assert!(matches!(
            flat_multi.validate(),
            Err(SpecError::TargetIgnoredByKind { .. })
        ));

        // Empty compositions.
        assert_eq!(
            ExperimentSpec::new("p", "no protocols")
                .protocols(&[])
                .validate(),
            Err(SpecError::NoProtocols)
        );
        assert_eq!(
            ExperimentSpec::new("m", "no multi-hop protocols")
                .kind(SpecKind::AnalyticMultiHop)
                .protocols(&[ProtocolSpec::SS_ER])
                .validate(),
            Err(SpecError::NoProtocols)
        );
        assert_eq!(
            ExperimentSpec::new("s", "no sweep")
                .sweep(Sweep::explicit("x", vec![]), SweepTarget::LossRate)
                .validate(),
            Err(SpecError::EmptySweep)
        );

        // And a healthy composition passes.
        ExperimentSpec::new("ok", "fine")
            .scenario(Scenario::dns_cache_lease())
            .validate()
            .unwrap();
    }

    #[test]
    fn sim_range_must_hold_a_sweep_value() {
        let sim = |lo, hi| {
            ExperimentSpec::new("sim", "range check")
                .sweep(Sweep::session_length(), SweepTarget::MeanLifetime)
                .kind(SpecKind::AnalyticVsSim)
                .sim_range(lo, hi)
        };
        // Beyond the sweep, reversed or NaN: no sweep value to simulate.
        for (lo, hi) in [(2e4, 3e4), (3000.0, 30.0), (f64::NAN, 300.0)] {
            assert!(
                matches!(
                    sim(lo, hi).validate(),
                    Err(SpecError::SimRangeMissesSweep { .. })
                ),
                "[{lo}, {hi}] accepted"
            );
        }
        assert_eq!(
            sim(2e4, 3e4).validate().unwrap_err().to_string(),
            "the simulation range [20000, 30000] contains no sweep value"
        );
        sim(30.0, 300.0).validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "experiment 'bad' is not runnable: invalid scenario")]
    fn running_an_invalid_spec_panics_with_a_clear_message() {
        let bad_params = SingleHopParams {
            loss: 2.0,
            ..Default::default()
        };
        ExperimentSpec::new("bad", "invalid scenario")
            .scenario(Scenario::new("broken", bad_params))
            .run(&ExperimentOptions::quick());
    }

    #[test]
    fn protocol_registry_presets_and_customs() {
        let mut registry = ProtocolRegistry::with_paper_presets();
        assert_eq!(registry.len(), 5);
        assert!(!registry.is_empty());
        // Case-insensitive lookup, usage notes attached.
        let hs = registry.get("hs").expect("HS registered");
        assert_eq!(hs.spec, ProtocolSpec::HS);
        assert!(hs.used_by.contains("fig17"));
        assert!(registry.get("SS+ER").unwrap().used_by.contains("fig4"));

        // A custom design point registers next to the presets...
        let ss_rr = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        registry.register(ss_rr, "custom experiments").unwrap();
        assert_eq!(registry.get("ss+rr").unwrap().spec, ss_rr);

        // ...and a CSV of labels resolves in order.
        let set = registry.resolve_set("HS, ss+rr ,SS").unwrap();
        assert_eq!(
            set,
            vec![ProtocolSpec::HS, ss_rr, ProtocolSpec::SS],
            "resolution must preserve argument order"
        );
        assert_eq!(
            registry.resolve_set("SS,nope"),
            Err(RegistryError::UnknownProtocol("nope".into()))
        );
    }

    #[test]
    fn protocol_registry_rejects_duplicates_and_incoherent_specs_typed() {
        let mut registry = ProtocolRegistry::with_paper_presets();
        // Duplicate custom name (case-insensitive) is a typed error, not a
        // panic.
        let shadow = ProtocolSpec::soft_state("ss");
        assert_eq!(
            registry.register(shadow, ""),
            Err(RegistryError::DuplicateProtocol("ss".into()))
        );
        // Incoherent mechanisms are rejected at registration time.
        let broken = ProtocolSpec::hard_state("broken").with_state_timeout(true);
        assert_eq!(
            registry.register(broken, ""),
            Err(RegistryError::InvalidProtocol {
                label: "broken".into(),
                error: ProtocolSpecError::TimeoutWithoutRefresh,
            })
        );
        assert_eq!(registry.len(), 5);
        let rendered = RegistryError::DuplicateProtocol("ss".into()).to_string();
        assert!(rendered.contains("already registered"));
    }

    #[test]
    fn spec_validation_covers_protocol_composition() {
        // An incoherent custom protocol in the set is caught before running.
        let broken = ProtocolSpec::hard_state("broken").with_state_timeout(true);
        let spec = ExperimentSpec::new("bad-proto", "incoherent protocol").protocols(&[broken]);
        assert_eq!(
            spec.validate(),
            Err(SpecError::Protocol {
                label: "broken",
                error: ProtocolSpecError::TimeoutWithoutRefresh,
            })
        );
        // Duplicate labels (ambiguous series) are a typed error too.
        let twins = ExperimentSpec::new("twins", "duplicate labels")
            .protocols(&[ProtocolSpec::SS, ProtocolSpec::soft_state("ss")]);
        assert_eq!(
            twins.validate(),
            Err(SpecError::DuplicateProtocolLabel("ss"))
        );
    }

    #[test]
    fn custom_spec_runs_through_a_declarative_experiment() {
        // A non-paper mechanism composition is a first-class protocol in the
        // experiment layer: same builder, same registry, zero new code.
        let ss_rr = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        let spec = ExperimentSpec::new("rr-loss", "reliable refresh vs loss rate")
            .protocols(&[ProtocolSpec::SS, ss_rr, ProtocolSpec::HS])
            .sweep(Sweep::loss_rate(), SweepTarget::LossRate)
            .metric(Metric::Inconsistency);
        spec.validate().unwrap();
        let out = spec.run(&ExperimentOptions::quick());
        let fig = out.as_figure().unwrap();
        assert_eq!(fig.labels(), vec!["SS", "SS+RR", "HS"]);
        // Retransmitted refreshes repair losses faster, so SS+RR sits at or
        // below SS at every swept loss rate.
        let ss = fig.get("SS").unwrap();
        let rr = fig.get("SS+RR").unwrap();
        for (a, b) in rr.points.iter().zip(ss.points.iter()) {
            assert!(a.y <= b.y + 1e-12, "SS+RR above SS at loss {}", a.x);
        }
    }

    #[test]
    fn hand_written_experiment_types_register_too() {
        struct Constant;
        impl Experiment for Constant {
            fn name(&self) -> &str {
                "constant"
            }
            fn description(&self) -> &str {
                "a text experiment"
            }
            fn run(&self, _: &ExperimentOptions) -> ExperimentOutput {
                ExperimentOutput::Text("42".into())
            }
        }
        let mut registry = Registry::new();
        registry.register(Constant).unwrap();
        let out = registry
            .run("constant", &ExperimentOptions::quick())
            .unwrap();
        assert_eq!(out.to_text(), "42");
        assert!(registry.get("constant").unwrap().tags().is_empty());
    }
}
