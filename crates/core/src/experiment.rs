//! The paper catalog and the machinery every experiment runs on.
//!
//! The paper's 22 tables and figures are static catalog rows
//! (`PAPER_EXPERIMENTS`), registered by
//! [`Registry::with_builtins`](crate::registry::Registry::with_builtins).
//! Twenty of them sweep one parameter and run as an [`ExperimentSpec`] built
//! from the row; Table I and Fig 17 keep small hand-written bodies.
//! [`ExperimentId`] is a `Copy` handle that looks a built-in up by name and
//! gives its description.  Analytic experiments are exact and fast; the
//! simulation experiments (Figures 11 and 12) run replicated discrete-event
//! campaigns whose size is controlled by [`ExperimentOptions`].

use crate::compare::compare_session;
use crate::registry::{Experiment, ExperimentSpec, SpecKind, SweepTarget};
use siganalytic::single_hop::protocol_transitions;
use siganalytic::{
    MultiHopParams, MultiHopSolution, MultiHopSweepSession, ProtocolSpec, SingleHopParams,
    SingleHopSolution, SingleHopSweepSession,
};
use sigproto::{LossModel, SessionConfig};
use sigstats::{Point, Series, SeriesSet};
use sigworkload::{Scenario, Sweep};
use simcore::{Assignment, ExecutionPolicy, ReplicationEngine, TimerMode};
use std::cell::RefCell;

/// Options controlling the simulation-backed experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Independent replications per simulated point.
    pub sim_replications: usize,
    /// Number of sweep points for simulation experiments (analytic curves
    /// keep the full grid).
    pub sim_points: usize,
    /// Campaign seed (replications derive their own streams from it).
    pub seed: u64,
    /// How simulation work is scheduled.  The sweep layer fans out whole
    /// campaigns — one unit per (protocol × sweep point) — under this
    /// policy; results are bit-identical under every policy.
    pub execution: ExecutionPolicy,
    /// Optional protocol-set override.  `None` runs each experiment with
    /// its own default set (the paper's, for the built-ins); `Some` replaces
    /// that set with the given mechanism compositions, in order — this is
    /// how `repro --protocols` runs any figure over any design point.
    pub protocols: Option<Vec<ProtocolSpec>>,
    /// Print per-phase wall-clock breakdowns to stderr while running
    /// (`repro --timing`).  Experiments with internal phases — the
    /// node-scale simulation's schedule/fire/metrics split — report them
    /// under this flag; it never changes stdout output or any result.
    pub timing: bool,
    /// Which loss process the node-scale simulations draw from
    /// (`repro --loss`).  [`LossKind::Bernoulli`] is the paper's
    /// independent-loss model; [`LossKind::GilbertElliott`] keeps the same
    /// mean loss but correlates it into bursts (see
    /// [`LossModel::bursty`](sigproto::LossModel::bursty)), probing how
    /// much of the protocol comparison survives a harsher channel.
    pub loss_kind: LossKind,
    /// Which retransmission retry discipline the node-scale simulations
    /// arm (`repro --retry`).  [`RetryKind::Fixed`] is the paper's fixed
    /// interval `R`; the backoff and jittered kinds are the
    /// overload-aware alternatives the `node-restart-storm` experiment
    /// compares.
    pub retry_kind: RetryKind,
}

/// The loss process selected by [`ExperimentOptions::loss_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LossKind {
    /// Independent Bernoulli loss at the parameter set's `loss` (default).
    #[default]
    Bernoulli,
    /// Gilbert–Elliott bursty loss at the same mean: Bad-state loss
    /// probability [`GE_P_BAD`], mean burst of [`GE_MEAN_BURST`] messages.
    GilbertElliott,
}

/// Bad-state loss probability of the Gilbert–Elliott option.
pub const GE_P_BAD: f64 = 0.5;

/// Mean Bad-state burst length (messages) of the Gilbert–Elliott option.
pub const GE_MEAN_BURST: f64 = 8.0;

impl LossKind {
    /// The node-simulator loss-model override this kind implies for a
    /// parameter set with mean loss `loss`: `None` for Bernoulli (the
    /// simulator's built-in default path), a mean-preserving bursty
    /// process otherwise.
    pub fn model_for(self, loss: f64) -> Option<sigproto::LossModel> {
        match self {
            LossKind::Bernoulli => None,
            LossKind::GilbertElliott => Some(sigproto::LossModel::bursty(
                loss.min(GE_P_BAD * 0.99),
                GE_P_BAD,
                GE_MEAN_BURST,
            )),
        }
    }

    /// The CLI token naming this kind (`repro --loss <token>`).
    pub fn label(self) -> &'static str {
        match self {
            LossKind::Bernoulli => "bernoulli",
            LossKind::GilbertElliott => "gilbert",
        }
    }
}

/// The retransmission retry discipline selected by
/// [`ExperimentOptions::retry_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryKind {
    /// Fixed interval `R` (the paper's behavior; default).
    #[default]
    Fixed,
    /// Capped exponential backoff with the retry module's default factor
    /// and cap.
    Backoff,
    /// Decorrelated jitter with the retry module's default cap.
    Jittered,
}

impl RetryKind {
    /// Every kind, in table order.
    pub const ALL: [RetryKind; 3] = [RetryKind::Fixed, RetryKind::Backoff, RetryKind::Jittered];

    /// The simulator retry policy this kind selects.
    pub fn policy(self) -> sigproto::RetryPolicy {
        match self {
            RetryKind::Fixed => sigproto::RetryPolicy::Fixed,
            RetryKind::Backoff => sigproto::RetryPolicy::backoff(),
            RetryKind::Jittered => sigproto::RetryPolicy::jittered(),
        }
    }

    /// The CLI token naming this kind (`repro --retry <token>`).
    pub fn label(self) -> &'static str {
        match self {
            RetryKind::Fixed => "fixed",
            RetryKind::Backoff => "backoff",
            RetryKind::Jittered => "jittered",
        }
    }
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            sim_replications: 40,
            sim_points: 6,
            seed: 2003,
            execution: ExecutionPolicy::auto(),
            protocols: None,
            timing: false,
            loss_kind: LossKind::default(),
            retry_kind: RetryKind::default(),
        }
    }
}

impl ExperimentOptions {
    /// A reduced configuration for quick checks and CI runs.
    pub fn quick() -> Self {
        Self {
            sim_replications: 10,
            sim_points: 4,
            ..Self::default()
        }
    }

    /// The same experiment sizes with an explicit execution policy.
    pub fn with_execution(mut self, execution: ExecutionPolicy) -> Self {
        self.execution = execution;
        self
    }

    /// Overrides the protocol set experiments run with (see
    /// [`ExperimentOptions::protocols`]).
    pub fn with_protocols(mut self, protocols: Vec<ProtocolSpec>) -> Self {
        self.protocols = Some(protocols);
        self
    }

    /// Enables per-phase wall-clock reporting on stderr (see
    /// [`ExperimentOptions::timing`]).
    pub fn with_timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Selects the loss process (see [`ExperimentOptions::loss_kind`]).
    pub fn with_loss_kind(mut self, kind: LossKind) -> Self {
        self.loss_kind = kind;
        self
    }

    /// Selects the retry discipline (see [`ExperimentOptions::retry_kind`]).
    pub fn with_retry_kind(mut self, kind: RetryKind) -> Self {
        self.retry_kind = kind;
        self
    }

    /// The protocol set an experiment should run with: the override if one
    /// was given, the experiment's own `default` set otherwise.
    ///
    /// # Panics
    /// Panics with the
    /// [`ProtocolSetError`](crate::registry::ProtocolSetError) message if
    /// the override contains an incoherent spec or duplicate labels
    /// (mirroring how running an invalid
    /// [`ExperimentSpec`] panics with its
    /// [`SpecError`](crate::registry::SpecError)); check override sets up
    /// front with [`check_protocol_set`](crate::registry::check_protocol_set)
    /// — or resolve them through a
    /// [`ProtocolRegistry`](crate::registry::ProtocolRegistry), which
    /// validates at registration — to turn these into typed errors.
    pub fn protocol_set(&self, default: &[ProtocolSpec]) -> Vec<ProtocolSpec> {
        match &self.protocols {
            Some(set) => {
                if let Err(e) = crate::registry::check_protocol_set(set) {
                    // sigtidy: allow(no-unwrap) — documented API contract ("# Panics" above)
                    panic!("the protocol override is not runnable: {e}");
                }
                set.clone()
            }
            None => default.to_vec(),
        }
    }
}

/// Output of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentOutput {
    /// A figure: one or more series over a shared x axis.
    Figure(SeriesSet),
    /// A textual table (Table I).
    Text(String),
}

impl ExperimentOutput {
    /// The figure data, if this output is a figure.
    pub fn as_figure(&self) -> Option<&SeriesSet> {
        match self {
            ExperimentOutput::Figure(s) => Some(s),
            ExperimentOutput::Text(_) => None,
        }
    }

    /// Renders the output as plain text (a table for figures).
    pub fn to_text(&self) -> String {
        match self {
            ExperimentOutput::Figure(s) => s.to_table(),
            ExperimentOutput::Text(t) => t.clone(),
        }
    }
}

/// A `Copy` handle to one built-in paper experiment (a catalog row),
/// resolved by its short name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentId(usize);

impl ExperimentId {
    /// Resolves a built-in's short name, e.g. `"fig4a"` (case-insensitive).
    pub fn parse(name: &str) -> Option<ExperimentId> {
        PAPER_EXPERIMENTS
            .iter()
            .position(|e| e.name.eq_ignore_ascii_case(name))
            .map(ExperimentId)
    }

    /// One-line description of what the experiment reproduces.
    pub fn description(self) -> &'static str {
        PAPER_EXPERIMENTS[self.0].description
    }
}

/// One built-in table or figure of the paper, as static catalog data.
///
/// Rows are plain data, so registering them builds nothing; a sweep row
/// composes its [`ExperimentSpec`] only when it runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PaperExperiment {
    name: &'static str,
    description: &'static str,
    tags: &'static [&'static str],
    body: Body,
}

/// What a catalog row runs.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// A hand-written table or figure (Table I, Fig 17).
    Custom(fn(&ExperimentOptions) -> ExperimentOutput),
    /// A one-parameter sweep, run through [`ExperimentSpec`].
    Sweep(SweepFigure),
}

/// Everything a sweep row's [`ExperimentSpec`] is built from.
#[derive(Debug, Clone, Copy)]
struct SweepFigure {
    title: &'static str,
    scenario: fn() -> Scenario,
    sweep: fn() -> Sweep,
    target: SweepTarget,
    kind: SpecKind,
    metric: Metric,
    sim_range: Option<(f64, f64)>,
}

const TABLE: &[&str] = &["paper", "table", "analytic", "single-hop"];
const SINGLE_HOP: &[&str] = &["paper", "figure", "analytic", "single-hop"];
const MULTI_HOP: &[&str] = &["paper", "figure", "analytic", "multi-hop"];
const SIMULATION: &[&str] = &["paper", "figure", "simulation", "single-hop"];

impl PaperExperiment {
    /// A sweep figure over the Kazaa scenario; its tags follow from `kind`.
    const fn sweep(
        name: &'static str,
        description: &'static str,
        title: &'static str,
        sweep: fn() -> Sweep,
        target: SweepTarget,
        kind: SpecKind,
        metric: Metric,
    ) -> Self {
        let tags = match kind {
            SpecKind::AnalyticMultiHop => MULTI_HOP,
            SpecKind::AnalyticVsSim => SIMULATION,
            _ => SINGLE_HOP,
        };
        let figure = SweepFigure {
            title,
            scenario: Scenario::kazaa_peer,
            sweep,
            target,
            kind,
            metric,
            sim_range: None,
        };
        Self {
            name,
            description,
            tags,
            body: Body::Sweep(figure),
        }
    }

    /// Simulates a [`SpecKind::AnalyticVsSim`] row over `scenario`, at sweep
    /// values inside `[lo, hi]`.
    const fn simulated(mut self, scenario: fn() -> Scenario, lo: f64, hi: f64) -> Self {
        if let Body::Sweep(figure) = &mut self.body {
            figure.scenario = scenario;
            figure.sim_range = Some((lo, hi));
        }
        self
    }
}

impl SweepFigure {
    /// The row's [`ExperimentSpec`], under the row's name and description.
    fn spec(&self, name: &str, description: &str) -> ExperimentSpec {
        let spec = ExperimentSpec::new(name, description)
            .title(self.title)
            .scenario((self.scenario)())
            .sweep((self.sweep)(), self.target)
            .kind(self.kind)
            .metric(self.metric);
        match self.sim_range {
            Some((lo, hi)) => spec.sim_range(lo, hi),
            None => spec,
        }
    }
}

impl Experiment for PaperExperiment {
    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }

    fn tags(&self) -> Vec<String> {
        self.tags.iter().map(|t| t.to_string()).collect()
    }

    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput {
        match self.body {
            Body::Custom(run) => run(options),
            Body::Sweep(figure) => figure.spec(self.name, self.description).run(options),
        }
    }
}

/// The paper's 22 tables and figures, in paper order.
pub(crate) static PAPER_EXPERIMENTS: [PaperExperiment; 22] = {
    use Metric::{Inconsistency as I, MessageRate as M};
    use SpecKind::{
        AnalyticMultiHop as Multi, AnalyticSingleHop as Single, AnalyticVsSim as Sim,
        IntegratedCost, Tradeoff,
    };
    use SweepTarget as T;
    let fig = PaperExperiment::sweep;
    [
        PaperExperiment {
            name: "table1",
            description: "Table I: protocol-specific CTMC transition rates",
            tags: TABLE,
            body: Body::Custom(table1),
        },
        fig(
            "fig4a",
            "Fig 4(a): inconsistency vs mean state lifetime",
            "Fig 4(a): inconsistency vs mean state lifetime",
            Sweep::session_length,
            T::MeanLifetime,
            Single,
            I,
        ),
        fig(
            "fig4b",
            "Fig 4(b): normalized message rate vs mean state lifetime",
            "Fig 4(b): message rate vs mean state lifetime",
            Sweep::session_length,
            T::MeanLifetime,
            Single,
            M,
        ),
        fig(
            "fig5a",
            "Fig 5(a): inconsistency vs channel loss rate",
            "Fig 5(a): inconsistency vs channel loss rate",
            Sweep::loss_rate,
            T::LossRate,
            Single,
            I,
        ),
        fig(
            "fig5b",
            "Fig 5(b): inconsistency vs channel delay",
            "Fig 5(b): inconsistency vs channel delay",
            Sweep::channel_delay,
            T::ChannelDelay,
            Single,
            I,
        ),
        fig(
            "fig6a",
            "Fig 6(a): inconsistency vs refresh timer",
            "Fig 6(a): inconsistency vs refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            Single,
            I,
        ),
        fig(
            "fig6b",
            "Fig 6(b): message rate vs refresh timer",
            "Fig 6(b): message rate vs refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            Single,
            M,
        ),
        fig(
            "fig7",
            "Fig 7: integrated cost vs refresh timer",
            "Fig 7: integrated cost C = 10*I + M vs refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            IntegratedCost,
            I,
        ),
        fig(
            "fig8a",
            "Fig 8(a): inconsistency vs state-timeout timer",
            "Fig 8(a): inconsistency vs state-timeout timer (T = 5 s)",
            Sweep::timeout_timer,
            T::TimeoutTimer,
            Single,
            I,
        ),
        fig(
            "fig8b",
            "Fig 8(b): inconsistency vs retransmission timer",
            "Fig 8(b): inconsistency vs retransmission timer",
            Sweep::retrans_timer,
            T::RetransTimer,
            Single,
            I,
        ),
        fig(
            "fig9",
            "Fig 9: overhead/inconsistency tradeoff varying refresh timer",
            "Fig 9: overhead vs inconsistency, varying refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            Tradeoff,
            I,
        ),
        fig(
            "fig10a",
            "Fig 10(a): tradeoff varying update rate",
            "Fig 10(a): overhead vs inconsistency, varying update rate",
            Sweep::update_interval,
            T::UpdateInterval,
            Tradeoff,
            I,
        ),
        fig(
            "fig10b",
            "Fig 10(b): tradeoff varying channel delay",
            "Fig 10(b): overhead vs inconsistency, varying channel delay",
            Sweep::channel_delay,
            T::ChannelDelay,
            Tradeoff,
            I,
        ),
        fig(
            "fig11a",
            "Fig 11(a): analytic vs simulation, inconsistency vs lifetime",
            "Fig 11(a): analytic (exp. timers) vs simulation (det. timers), inconsistency vs lifetime",
            Sweep::session_length,
            T::MeanLifetime,
            Sim,
            I,
        )
        .simulated(Scenario::kazaa_peer, 30.0, 3000.0),
        fig(
            "fig11b",
            "Fig 11(b): analytic vs simulation, message rate vs lifetime",
            "Fig 11(b): analytic (exp. timers) vs simulation (det. timers), message rate vs lifetime",
            Sweep::session_length,
            T::MeanLifetime,
            Sim,
            M,
        )
        .simulated(Scenario::kazaa_peer, 30.0, 3000.0),
        fig(
            "fig12a",
            "Fig 12(a): analytic vs simulation, inconsistency vs refresh timer",
            "Fig 12(a): analytic vs simulation, inconsistency vs refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            Sim,
            I,
        )
        .simulated(kazaa_600s_lifetime, 0.5, 50.0),
        fig(
            "fig12b",
            "Fig 12(b): analytic vs simulation, message rate vs refresh timer",
            "Fig 12(b): analytic vs simulation, message rate vs refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            Sim,
            M,
        )
        .simulated(kazaa_600s_lifetime, 0.5, 50.0),
        PaperExperiment {
            name: "fig17",
            description: "Fig 17: per-hop inconsistency along a 20-hop path",
            tags: MULTI_HOP,
            body: Body::Custom(fig17),
        },
        fig(
            "fig18a",
            "Fig 18(a): inconsistency vs number of hops",
            "Fig 18(a): inconsistency vs total number of hops",
            Sweep::hop_count,
            T::HopCount,
            Multi,
            I,
        ),
        fig(
            "fig18b",
            "Fig 18(b): message rate vs number of hops",
            "Fig 18(b): signaling message rate vs total number of hops",
            Sweep::hop_count,
            T::HopCount,
            Multi,
            M,
        ),
        fig(
            "fig19a",
            "Fig 19(a): multi-hop inconsistency vs refresh timer",
            "Fig 19(a): multi-hop inconsistency vs refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            Multi,
            I,
        ),
        fig(
            "fig19b",
            "Fig 19(b): multi-hop message rate vs refresh timer",
            "Fig 19(b): multi-hop message rate vs refresh timer",
            Sweep::refresh_timer,
            T::RefreshTimer,
            Multi,
            M,
        ),
    ]
};

/// Fig 12's base scenario: the Kazaa defaults with a 600 s mean state
/// lifetime.
fn kazaa_600s_lifetime() -> Scenario {
    let mut scenario = Scenario::kazaa_peer();
    scenario.params = scenario.params.with_mean_lifetime(600.0);
    scenario
}

/// Table I: the transition rates of every protocol at the Kazaa defaults.
fn table1(options: &ExperimentOptions) -> ExperimentOutput {
    let params = SingleHopParams::kazaa_defaults();
    let mut out = String::new();
    out.push_str("Table I — protocol-specific transition rates of the unified single-hop CTMC\n");
    out.push_str(&format!(
        "(evaluated at the Kazaa defaults: p_l={}, Delta={}s, 1/lambda_u={}s, 1/lambda_r={}s, T={}s, tau={}s, R={}s)\n\n",
        params.loss,
        params.delay,
        1.0 / params.update_rate,
        params.mean_lifetime(),
        params.refresh_timer,
        params.timeout_timer,
        params.retrans_timer,
    ));
    for protocol in options.protocol_set(&ProtocolSpec::PAPER) {
        out.push_str(&protocol_transitions(protocol, &params).render());
        out.push('\n');
    }
    ExperimentOutput::Text(out)
}

/// Fig 17: the per-hop inconsistency along the 20-hop reservation path.
fn fig17(options: &ExperimentOptions) -> ExperimentOutput {
    let params = MultiHopParams::reservation_defaults();
    let mut set = SeriesSet::new(
        "Fig 17: fraction of time the i-th hop is inconsistent (K = 20)",
        "hop index i",
        "fraction of time inconsistent",
    );
    for protocol in options.protocol_set(&ProtocolSpec::PAPER_MULTI_HOP) {
        let solution = solve_multi(protocol, params);
        let mut series = Series::new(protocol.label());
        for (i, v) in solution.per_hop_inconsistency.iter().enumerate() {
            series.push(Point::new((i + 1) as f64, *v));
        }
        set.push(series);
    }
    ExperimentOutput::Figure(set)
}

/// Which y-axis metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Inconsistency ratio `I`.
    Inconsistency,
    /// Normalized signaling message rate `M`.
    MessageRate,
}

impl Metric {
    /// The y-axis label the paper's figures use for this metric.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Inconsistency => "inconsistency ratio",
            Metric::MessageRate => "normalized signaling message rate",
        }
    }

    /// Extracts the metric from a single-hop solution.
    pub fn of_single_hop(self, s: &SingleHopSolution) -> f64 {
        match self {
            Metric::Inconsistency => s.inconsistency,
            Metric::MessageRate => s.normalized_message_rate,
        }
    }

    /// Extracts the metric from a multi-hop solution.
    pub fn of_multi_hop(self, s: &MultiHopSolution) -> f64 {
        match self {
            Metric::Inconsistency => s.inconsistency,
            Metric::MessageRate => s.message_rate,
        }
    }
}

thread_local! {
    // Per-thread analytic sweep sessions (the rebuild-in-place fast path):
    // matrices, LU workspace and state maps survive across every solve a
    // worker performs, whether it is the main thread running a serial sweep
    // or a `ReplicationEngine` worker draining the work-stealing queue.
    static SINGLE_HOP_SESSION: RefCell<SingleHopSweepSession> =
        RefCell::new(SingleHopSweepSession::new());
    static MULTI_HOP_SESSION: RefCell<MultiHopSweepSession> =
        RefCell::new(MultiHopSweepSession::new());
}

pub(crate) fn solve_single(protocol: ProtocolSpec, params: SingleHopParams) -> SingleHopSolution {
    SINGLE_HOP_SESSION
        .with(|session| session.borrow_mut().solve(protocol, params))
        // sigtidy: allow(no-unwrap) — experiment definitions validate parameters up front
        .expect("experiment parameters are validated before solving")
}

pub(crate) fn solve_multi(protocol: ProtocolSpec, params: MultiHopParams) -> MultiHopSolution {
    MULTI_HOP_SESSION
        .with(|session| session.borrow_mut().solve(protocol, params))
        // sigtidy: allow(no-unwrap) — experiment definitions validate parameters up front
        .expect("experiment parameters are validated before solving")
}

/// Solves the whole `(protocol × sweep value)` grid through the
/// [`ReplicationEngine`] and returns one series per protocol, each solution
/// mapped to a point by `point`.
///
/// Work stealing by default, like the fig11/fig12 simulation fan-out: per-
/// point costs vary with the chain structure, and the dynamic assignment
/// writes into index slots, so the grid is bit-identical to a serial loop
/// under every policy.  Each worker thread reuses its own sweep sessions
/// (see [`solve_single`] and [`solve_multi`]), so the sweep is
/// allocation-free past the first point per structure.
pub(crate) fn sweep_series<P, S: Send>(
    execution: ExecutionPolicy,
    protocols: &[ProtocolSpec],
    sweep: &Sweep,
    make_params: impl Fn(f64) -> P + Sync,
    solve: fn(ProtocolSpec, P) -> S,
    point: impl Fn(f64, &S) -> Point,
) -> Vec<Series> {
    let jobs: Vec<(ProtocolSpec, f64)> = protocols
        .iter()
        .flat_map(|&p| sweep.values.iter().map(move |&x| (p, x)))
        .collect();
    let solutions = ReplicationEngine::new(execution)
        .with_assignment(Assignment::WorkStealing)
        .run(jobs.len(), &|i: u64| {
            let (protocol, x) = jobs[i as usize];
            solve(protocol, make_params(x))
        });
    // Indexed slicing (not `chunks`), so a degenerate empty sweep still
    // yields one (empty) series per protocol like the historical loops.
    let per = sweep.values.len();
    let mut all = Vec::with_capacity(protocols.len());
    for (i, protocol) in protocols.iter().enumerate() {
        let mut series = Series::new(protocol.label());
        for (solution, &x) in solutions[i * per..(i + 1) * per].iter().zip(&sweep.values) {
            series.push(point(x, solution));
        }
        all.push(series);
    }
    all
}

/// The simulated half of an analytic-vs-simulation figure: one `"<label>
/// sim"` series per protocol, with 95% confidence error bars, at the
/// `xs_sim` sweep points.
///
/// The simulation grid is the expensive part, so the whole sweep — one
/// campaign per (protocol × sweep point) — is fanned out through the
/// [`ReplicationEngine`] under `options.execution`; each campaign then runs
/// its replications serially on its worker.  Outputs come back in sweep
/// order, so the figure is identical under every policy.
pub(crate) fn simulated_series(
    metric: Metric,
    protocols: &[ProtocolSpec],
    xs_sim: &[f64],
    timer_mode: TimerMode,
    loss_model: Option<LossModel>,
    options: &ExperimentOptions,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> Vec<Series> {
    // The sweep-point × replication fan-out: flatten (protocol, x) pairs
    // into one job list for the engine.
    let jobs: Vec<(ProtocolSpec, f64)> = protocols
        .iter()
        .flat_map(|&p| xs_sim.iter().map(move |&x| (p, x)))
        .collect();
    // Work stealing by default: campaign costs are skewed across the sweep
    // (session length grows with the sweep point), and the dynamic
    // assignment is bit-identical to serial execution anyway.
    let rows = ReplicationEngine::new(options.execution)
        .with_assignment(Assignment::WorkStealing)
        .run(jobs.len(), &|i: u64| {
            let (protocol, x) = jobs[i as usize];
            compare_session(
                SessionConfig {
                    timer_mode,
                    delay_mode: timer_mode,
                    loss_model,
                    ..SessionConfig::deterministic(protocol, make_params(x))
                },
                options.sim_replications,
                options.seed,
                ExecutionPolicy::Serial,
            )
        });

    let mut all = Vec::with_capacity(protocols.len());
    for (protocol_rows, &protocol) in rows.chunks(xs_sim.len().max(1)).zip(protocols) {
        let mut series = Series::new(format!("{} sim", protocol.label()));
        for (row, &x) in protocol_rows.iter().zip(xs_sim) {
            let simulated = match metric {
                Metric::Inconsistency => &row.simulated_inconsistency,
                Metric::MessageRate => &row.simulated_message_rate,
            };
            series.push(Point::with_error(
                x,
                simulated.mean,
                simulated.ci95_half_width,
            ));
        }
        all.push(series);
    }
    all
}

/// Picks up to `count` simulation x-values from the analytic grid restricted
/// to `[lo, hi]`, so simulated points line up with analytic rows exactly.
/// A range that holds no grid value yields no points;
/// [`ExperimentSpec::validate`] rejects such a range up front.
pub(crate) fn sim_grid(analytic: &[f64], lo: f64, hi: f64, count: usize) -> Vec<f64> {
    let candidates: Vec<f64> = analytic
        .iter()
        .copied()
        .filter(|x| (lo..=hi).contains(x))
        .collect();
    let count = count.min(candidates.len());
    let mut grid: Vec<f64> = (0..count)
        .map(|i| {
            let idx = if count == 1 {
                0
            } else {
                i * (candidates.len() - 1) / (count - 1)
            };
            candidates[idx]
        })
        .collect();
    grid.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use siganalytic::Protocol;

    /// Runs a built-in by name with explicit options.
    fn run_with(name: &str, options: &ExperimentOptions) -> ExperimentOutput {
        Registry::with_builtins()
            .run(name, options)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs a built-in by name with default options.
    fn run(name: &str) -> ExperimentOutput {
        run_with(name, &ExperimentOptions::default())
    }

    #[test]
    fn names_roundtrip() {
        for (i, row) in PAPER_EXPERIMENTS.iter().enumerate() {
            assert_eq!(ExperimentId::parse(row.name), Some(ExperimentId(i)));
            assert!(!row.description.is_empty());
        }
        assert_eq!(ExperimentId::parse("FIG4A"), ExperimentId::parse("fig4a"));
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn only_fig11_and_12_use_simulation() {
        let sim: Vec<_> = PAPER_EXPERIMENTS
            .iter()
            .filter(|row| row.tags.contains(&"simulation"))
            .map(|row| row.name)
            .collect();
        assert_eq!(sim, vec!["fig11a", "fig11b", "fig12a", "fig12b"]);
        // The simulation tag and the AnalyticVsSim kind are the same set.
        for row in &PAPER_EXPERIMENTS {
            let simulated = matches!(
                row.body,
                Body::Sweep(SweepFigure {
                    kind: SpecKind::AnalyticVsSim,
                    ..
                })
            );
            assert_eq!(simulated, sim.contains(&row.name), "{}", row.name);
        }
    }

    #[test]
    fn table1_lists_all_protocols() {
        let text = run("table1").to_text();
        for p in Protocol::ALL {
            assert!(text.contains(p.label()), "missing {p}");
        }
        assert!(text.contains("(1,0)_1"));
    }

    #[test]
    fn fig4a_reproduces_paper_orderings() {
        let out = run("fig4a");
        let fig = out.as_figure().unwrap();
        assert_eq!(fig.series.len(), 5);
        // Every protocol's inconsistency decreases with session length.
        for s in &fig.series {
            assert!(s.is_non_increasing(1e-9), "{}", s.label);
        }
        // SS+ER dominates SS everywhere; SS+RTR is comparable to HS.
        let ss = fig.get("SS").unwrap();
        let ss_er = fig.get("SS+ER").unwrap();
        let ss_rtr = fig.get("SS+RTR").unwrap();
        let hs = fig.get("HS").unwrap();
        assert!(ss_er.dominates_below(ss, 1e-9));
        assert!(ss_rtr.dominates_below(ss_er, 1e-9));
        for (a, b) in ss_rtr.points.iter().zip(hs.points.iter()) {
            assert!(
                a.y < 5.0 * b.y && b.y < 5.0 * a.y,
                "SS+RTR vs HS at {}",
                a.x
            );
        }
    }

    #[test]
    fn fig4b_message_rates_decrease_with_lifetime_and_hs_wins_for_long_sessions() {
        let out = run("fig4b");
        let fig = out.as_figure().unwrap();
        for s in &fig.series {
            assert!(s.is_non_increasing(1e-9), "{}", s.label);
        }
        // For long-lived sessions refreshes dominate and HS is by far the
        // cheapest; for very short sessions HS's per-session reliable
        // setup/teardown exchange makes it the most expensive per unit of
        // sender lifetime — exactly the crossover Figure 4(b) shows.
        let hs = fig.get("HS").unwrap();
        let ss = fig.get("SS").unwrap();
        for other in ["SS", "SS+ER", "SS+RT", "SS+RTR"] {
            let o = fig.get(other).unwrap();
            assert!(
                hs.points.last().unwrap().y < o.points.last().unwrap().y,
                "{other} should cost more than HS for long sessions"
            );
        }
        assert!(
            hs.points.first().unwrap().y > ss.points.first().unwrap().y,
            "HS should cost more than SS for very short sessions"
        );
    }

    #[test]
    fn fig5a_inconsistency_grows_with_loss() {
        let fig = run("fig5a");
        let fig = fig.as_figure().unwrap();
        for s in &fig.series {
            assert!(s.is_non_decreasing(1e-9), "{}", s.label);
        }
        // Reliable transmission helps under loss: at the highest loss point
        // SS+RT is clearly better than SS.
        let ss = fig.get("SS").unwrap().points.last().unwrap().y;
        let ss_rt = fig.get("SS+RT").unwrap().points.last().unwrap().y;
        assert!(ss_rt < ss);
    }

    #[test]
    fn fig7_has_an_interior_optimum_for_ss() {
        let fig = run("fig7");
        let fig = fig.as_figure().unwrap();
        let ss = fig.get("SS").unwrap();
        let best_t = ss.argmin_y().unwrap();
        let first = ss.points.first().unwrap();
        let last = ss.points.last().unwrap();
        // The optimum is strictly inside the sweep: both tiny and huge
        // refresh timers are worse.
        assert!(best_t > first.x && best_t < last.x, "optimum at {best_t}");
        assert!(ss.y_min().unwrap() < first.y);
        assert!(ss.y_min().unwrap() < last.y);
        // HS does not depend on the refresh timer: its cost curve is flat.
        let hs = fig.get("HS").unwrap();
        let spread = hs.y_max().unwrap() - hs.y_min().unwrap();
        assert!(spread < 1e-9, "HS cost should be flat, spread = {spread}");
    }

    #[test]
    fn fig17_per_hop_series_are_increasing() {
        let fig = run("fig17");
        let fig = fig.as_figure().unwrap();
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.len(), 20);
            assert!(s.is_non_decreasing(1e-9), "{}", s.label);
        }
        let ss = fig.get("SS").unwrap();
        let hs = fig.get("HS").unwrap();
        assert!(hs.dominates_below(ss, 1e-9));
    }

    #[test]
    fn fig18_monotone_in_hop_count() {
        let a = run("fig18a");
        let a = a.as_figure().unwrap();
        let b = run("fig18b");
        let b = b.as_figure().unwrap();
        for s in a.series.iter().chain(b.series.iter()) {
            assert!(s.is_non_decreasing(1e-6), "{}", s.label);
        }
        // HS needs far fewer messages than SS at 20 hops.
        let ss20 = b.get("SS").unwrap().points.last().unwrap().y;
        let hs20 = b.get("HS").unwrap().points.last().unwrap().y;
        assert!(hs20 < 0.5 * ss20);
    }

    #[test]
    fn analytic_sweeps_are_bit_identical_under_every_execution_policy() {
        // The analytic fast path fans (protocol × point) grids out through
        // the ReplicationEngine with the work-stealing assignment; every
        // figure must be bit-identical to the serial loop: Serial ≡
        // Threads(n) ≡ the WorkStealing default at any thread count.
        for name in [
            "fig4a",  // single-hop sweep
            "fig7",   // integrated cost
            "fig9",   // tradeoff
            "fig18b", // multi-hop sweep
        ] {
            let serial = run_with(
                name,
                &ExperimentOptions::quick().with_execution(ExecutionPolicy::Serial),
            );
            for n in [2, 8] {
                let threaded = run_with(
                    name,
                    &ExperimentOptions::quick().with_execution(ExecutionPolicy::threads(n)),
                );
                assert_eq!(serial, threaded, "{name} diverged at {n} threads");
            }
        }
    }

    #[test]
    fn sweep_fanout_is_policy_independent() {
        // The whole sweep (protocol × point × replication) must be a pure
        // function of the options, no matter how it is scheduled.
        let quick = ExperimentOptions::quick();
        let serial = run_with(
            "fig11a",
            &quick.clone().with_execution(ExecutionPolicy::Serial),
        );
        let threaded = run_with("fig11a", &quick.with_execution(ExecutionPolicy::threads(4)));
        assert_eq!(serial, threaded);
    }

    #[test]
    fn protocol_override_replaces_a_figure_protocol_set() {
        // The options-level override runs any figure over any design point:
        // restrict fig6a to two presets and check only those series appear.
        let options =
            ExperimentOptions::quick().with_protocols(vec![ProtocolSpec::SS, ProtocolSpec::HS]);
        let fig = run_with("fig6a", &options);
        let fig = fig.as_figure().unwrap();
        assert_eq!(
            fig.labels(),
            vec!["SS", "HS"],
            "override must replace the default set in order"
        );
        // And the full preset override reproduces the default set exactly.
        let default_run = run_with("fig6a", &ExperimentOptions::quick());
        let preset_run = run_with(
            "fig6a",
            &ExperimentOptions::quick().with_protocols(ProtocolSpec::PAPER.to_vec()),
        );
        assert_eq!(default_run, preset_run);
    }

    #[test]
    #[should_panic(expected = "protocol 'bad' is incoherent")]
    fn incoherent_protocol_override_panics_with_a_clear_message() {
        // An unvalidated spec smuggled in through the options-level override
        // must fail at the funnel with its SpecError, not deep inside the
        // solver with a misleading message.
        let bad = ProtocolSpec::hard_state("bad").with_state_timeout(true);
        let options = ExperimentOptions::quick().with_protocols(vec![bad]);
        run_with("fig6a", &options);
    }

    #[test]
    #[should_panic(expected = "duplicate label 'ss'")]
    fn duplicate_labels_in_protocol_override_panic_clearly() {
        let options = ExperimentOptions::quick()
            .with_protocols(vec![ProtocolSpec::SS, ProtocolSpec::soft_state("ss")]);
        run_with("fig6a", &options);
    }

    #[test]
    fn quick_simulation_experiment_runs_and_matches_roughly() {
        let fig = run_with("fig12a", &ExperimentOptions::quick());
        let fig = fig.as_figure().unwrap();
        // 5 analytic + 5 simulated series.
        assert_eq!(fig.series.len(), 10);
        let sim = fig.get("SS sim").unwrap();
        assert!(!sim.is_empty());
        for p in &sim.points {
            assert!(p.err.is_some(), "simulated points carry error bars");
            assert!((0.0..=1.0).contains(&p.y));
        }
    }
}
