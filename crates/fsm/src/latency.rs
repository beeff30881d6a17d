//! Symbolic worst-case repair-latency bounds, derived from the transition
//! tables.
//!
//! The model checker's reachability and liveness passes prove that every
//! coherent spec *eventually* repairs a false removal and *eventually*
//! reclaims an orphan — qualitative properties.  This module makes the
//! guarantee quantitative: for each coherent [`ProtocolSpec`] it derives,
//! from the generated [`TransitionTable`] alone, a symbolic upper bound on
//! the time to reconverge after a false removal or a crash wipe, as an
//! expression in the paper's parameters `(T, R, τ, p_l, Δ)`.
//!
//! # The bound
//!
//! Worst-case latency over a lossy channel is unbounded in the strict sense
//! (any finite run of losses has positive probability), so the bound is an
//! **ε-quantile worst case**: the time by which the probability that a
//! session is still unrepaired has dropped to `ε`.  With independent loss
//! `p_l` per attempt, `N = max(1, ⌈ln ε / ln p_l⌉)` delivery attempts
//! suffice.  At population scale this is exactly the right notion: when at
//! most an `ε` fraction of the avalanched sessions remain unrepaired, the
//! population stale fraction is back within `ε` of its baseline — which is
//! precisely the reconvergence criterion
//! [`RecoveryMetrics::derive`](sigproto::RecoveryMetrics) applies to the
//! `node-outage` experiment's traces.  `repro check-specs` closes the loop
//! numerically: for all 33 coherent specs the evaluated bound must dominate
//! the measured reconvergence time.
//!
//! Per spec the derivation walks the table rows (not the spec predicates)
//! and composes one path expression per *guaranteed, repeating* repair
//! mechanism:
//!
//! * **refresh stream** (`RepairByRefresh` action): first attempt within one
//!   refresh period `T`, retries every `T` (best-effort) or every `R` once
//!   the unacked refresh starts retransmitting (reliable), plus one delivery
//!   delay — `T + (N-1)·T + Δ` or `T + (N-1)·R + Δ`;
//! * **removal notification + reliable re-install** (`NotifySender` on the
//!   false-removal row together with `AckTrigger` rows): one notification
//!   delay, then `N` trigger attempts every `R`, plus delivery —
//!   `2Δ + N·R`.  For refresh-bearing specs the notification is a one-shot
//!   accelerator (a single lost notification falls back to the refresh
//!   stream), so it is *excluded* from their worst case; for external-
//!   detector specs it is the only repair path and Table I's analytic model
//!   already treats it as a retransmitted repair at interval `R`.
//!
//! Orphaned state (a lost explicit removal, the `Removing2` state) gets the
//! analogous cleanup bound: the state-timeout backstop contributes `τ`, the
//! reliable-removal retransmission cycle contributes `N·R + Δ`, and the
//! orphan bound is the `min` of the available backstops.  The overall
//! reconvergence bound is the `max` of the repair bound and the orphan
//! bound.
//!
//! Retransmission intervals need not be fixed: a [`BoundParams`] carries
//! the worst-case `(factor, cap)` growth terms of the configured retry
//! policy, and the `N·R` / `(N−1)·R` multipliers evaluate as the capped
//! geometric sum `Σ min(factor^k, cap)` — so one symbolic expression
//! dominates fixed, capped-backoff and decorrelated-jitter retries alike,
//! and collapses to the paper's plain counts at `factor = 1`.
//!
//! A crash wipe (the receiver loses state *silently* — no timeout fired, no
//! detector signal, so nothing notifies the sender) is repaired only by the
//! refresh stream; specs without one carry no finite crash-wipe bound,
//! mirroring `docs/robustness.md`: "crash wipes heal under soft state via
//! the next refresh and orphan hard state until churn".

use siganalytic::fsm::{Action, SingleHopEvent, TransitionTable};
use siganalytic::single_hop::SingleHopState;
use siganalytic::{ProtocolSpec, SingleHopParams, SpecError};
use std::fmt;

/// A parameter symbol of a bound expression (the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sym {
    /// Refresh timer `T`.
    T,
    /// Retransmission timer `R`.
    R,
    /// State-timeout timer `τ`.
    Tau,
    /// One-way channel delay `Δ`.
    Delta,
}

impl Sym {
    /// ASCII rendering used in bound expressions.
    pub fn describe(&self) -> &'static str {
        match self {
            Sym::T => "T",
            Sym::R => "R",
            Sym::Tau => "tau",
            Sym::Delta => "D",
        }
    }
}

/// A symbolic latency expression over `(T, R, τ, Δ)` and the attempt count
/// `N = max(1, ⌈ln ε / ln p_l⌉)` (which is where `p_l` and the quantile `ε`
/// enter).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric constant.
    Const(f64),
    /// A parameter symbol.
    Sym(Sym),
    /// The ε-quantile attempt count `N`, as a multiplier on an attempt
    /// interval.  Evaluates to the retry policy's worst-case weight
    /// `1 + Σ_{k=1}^{N−1} min(factor^k, cap)` — exactly `N` under the
    /// fixed-interval default.
    Attempts,
    /// `N - 1` (retries after the first attempt, as an interval
    /// multiplier); floors at zero.  Evaluates to the capped geometric sum
    /// `Σ_{k=1}^{N−1} min(factor^k, cap)` — exactly `N − 1` under the
    /// fixed-interval default.
    Retries,
    /// Sum of the operands.
    Add(Vec<Expr>),
    /// Product of the two operands.
    Mul(Box<Expr>, Box<Expr>),
    /// Minimum of the operands (parallel mechanisms: the first to fire
    /// repairs).
    Min(Vec<Expr>),
    /// Maximum of the operands (independent obligations: reconvergence
    /// waits for the slowest).
    Max(Vec<Expr>),
}

/// The numeric operating point a bound is evaluated at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundParams {
    /// Refresh timer `T` (seconds).
    pub refresh: f64,
    /// Retransmission timer `R` (seconds).
    pub retrans: f64,
    /// State-timeout timer `τ` (seconds).
    pub timeout: f64,
    /// One-way channel delay `Δ` (seconds).
    pub delta: f64,
    /// Per-attempt loss probability `p_l`.
    pub loss: f64,
    /// Residual-probability quantile `ε` the bound is taken at.
    pub epsilon: f64,
    /// Worst-case per-attempt growth factor of the retransmission retry
    /// policy: attempt `k` (0-based) waits at most
    /// `base · min(retry_factor^k, retry_cap)`.  `1.0` (the default, and
    /// what [`BoundParams::from_single_hop`] sets) is the paper's fixed
    /// interval, under which the weighted retry sum collapses to `N − 1`
    /// exactly.  A capped exponential-backoff policy plugs in its factor;
    /// decorrelated jitter bounds with the degenerate "jump straight to
    /// the cap" geometry (`factor = cap`).
    pub retry_factor: f64,
    /// Cap on the attempt-interval multiplier, as a multiple of the base
    /// interval (`1.0` for fixed).
    pub retry_cap: f64,
}

impl BoundParams {
    /// The operating point of a single-hop parameter set, at quantile
    /// `epsilon`, under the paper's fixed retransmission interval.
    pub fn from_single_hop(p: &SingleHopParams, epsilon: f64) -> Self {
        Self {
            refresh: p.refresh_timer,
            retrans: p.retrans_timer,
            timeout: p.timeout_timer,
            delta: p.delay,
            loss: p.loss,
            epsilon,
            retry_factor: 1.0,
            retry_cap: 1.0,
        }
    }

    /// The same operating point under a retry policy with worst-case
    /// per-attempt growth `factor` capped at `cap` base intervals (the
    /// `(factor, cap_mult)` pair a `RetryPolicy::bound_terms()` reports).
    pub fn with_retry_terms(mut self, factor: f64, cap: f64) -> Self {
        self.retry_factor = factor.max(1.0);
        self.retry_cap = cap.max(1.0);
        self
    }

    /// The ε-quantile attempt count `N = max(1, ⌈ln ε / ln p_l⌉)`: after `N`
    /// independent delivery attempts the residual failure probability
    /// `p_l^N` is at most `ε`.  Lossless channels need exactly one attempt.
    fn attempts(&self) -> f64 {
        if self.loss <= 0.0 {
            return 1.0;
        }
        if self.loss >= 1.0 || self.epsilon <= 0.0 {
            return f64::INFINITY;
        }
        (self.epsilon.ln() / self.loss.ln()).ceil().max(1.0)
    }

    /// The worst-case number of base intervals the `N − 1` retries wait in
    /// total: the capped geometric sum
    /// `Σ_{k=1}^{N−1} min(retry_factor^k, retry_cap)`.  Exactly `N − 1`
    /// under a fixed interval (`retry_factor == 1`).
    fn weighted_retries(&self) -> f64 {
        let n = self.attempts();
        if !n.is_finite() {
            return f64::INFINITY;
        }
        let mut sum = 0.0;
        for k in 1..(n as i32) {
            sum += self.retry_factor.powi(k).min(self.retry_cap);
        }
        sum
    }

    /// The worst-case number of base intervals all `N` attempts wait in
    /// total (`1 + `[`BoundParams::weighted_retries`]); exactly `N` under a
    /// fixed interval.
    fn weighted_attempts(&self) -> f64 {
        1.0 + self.weighted_retries()
    }
}

impl Expr {
    /// Evaluates the expression at one operating point.
    pub fn eval(&self, p: &BoundParams) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Sym(Sym::T) => p.refresh,
            Expr::Sym(Sym::R) => p.retrans,
            Expr::Sym(Sym::Tau) => p.timeout,
            Expr::Sym(Sym::Delta) => p.delta,
            // `N` and `N−1` enter bound expressions only as multipliers on
            // an attempt interval, so they evaluate as the retry policy's
            // worst-case interval weights — the plain counts whenever
            // `retry_factor` is 1 (the fixed-interval default).
            Expr::Attempts => p.weighted_attempts(),
            Expr::Retries => p.weighted_retries(),
            Expr::Add(terms) => terms.iter().map(|t| t.eval(p)).sum(),
            Expr::Mul(a, b) => a.eval(p) * b.eval(p),
            Expr::Min(terms) => terms
                .iter()
                .map(|t| t.eval(p))
                .fold(f64::INFINITY, f64::min),
            Expr::Max(terms) => terms
                .iter()
                .map(|t| t.eval(p))
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::Add(_) => 0,
            Expr::Mul(_, _) => 1,
            _ => 2,
        }
    }

    fn render_at(&self, parent: u8, out: &mut String) {
        let prec = self.precedence();
        let parens = prec < parent;
        if parens {
            out.push('(');
        }
        match self {
            Expr::Const(c) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{c}"));
            }
            Expr::Sym(s) => out.push_str(s.describe()),
            Expr::Attempts => out.push('N'),
            Expr::Retries => out.push_str("(N-1)"),
            Expr::Add(terms) => {
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" + ");
                    }
                    t.render_at(1, out);
                }
            }
            Expr::Mul(a, b) => {
                a.render_at(2, out);
                out.push('*');
                b.render_at(2, out);
            }
            Expr::Min(terms) | Expr::Max(terms) => {
                out.push_str(if matches!(self, Expr::Min(_)) {
                    "min("
                } else {
                    "max("
                });
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    t.render_at(0, out);
                }
                out.push(')');
            }
        }
        if parens {
            out.push(')');
        }
    }

    /// Renders the expression in the paper's symbolic notation, e.g.
    /// `T + (N-1)*R + D`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_at(0, &mut out);
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One guaranteed repair (or cleanup) mechanism and its latency expression.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPath {
    /// Which mechanism carries the path.
    pub mechanism: &'static str,
    /// The path's ε-quantile latency expression.
    pub expr: Expr,
}

/// The symbolic repair-latency bounds of one coherent spec, derived by
/// [`repair_latency_bound`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBound {
    /// The spec the bounds were derived for.
    pub spec: ProtocolSpec,
    /// Guaranteed re-install paths after a false removal, in table order.
    pub repair_paths: Vec<RepairPath>,
    /// Guaranteed cleanup paths for orphaned state (lost explicit removal);
    /// empty when the spec sends no explicit removals.
    pub orphan_paths: Vec<RepairPath>,
    /// `min` over [`LatencyBound::repair_paths`]: the false-removal
    /// re-install bound.
    pub false_removal: Expr,
    /// `min` over [`LatencyBound::orphan_paths`], when any exist.
    pub orphan: Option<Expr>,
    /// `max` of the false-removal and orphan bounds: the overall
    /// reconvergence bound the `node-outage` cross-check verifies.
    pub reconverge: Expr,
    /// Bound on repair after a *silent* receiver crash wipe — only the
    /// refresh stream repairs state nothing detected the loss of.  `None`
    /// means unbounded (hard state orphans crash-wiped entries until
    /// session churn).
    pub crash_wipe: Option<Expr>,
}

impl LatencyBound {
    /// Renders the derivation for `repro --list-transitions`: each path,
    /// the composed bounds, and their values at `p`.
    pub fn render(&self, p: &BoundParams) -> String {
        let mut out = String::new();
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "Protocol {} — worst-case repair latency (epsilon = {}, N = {})\n",
                self.spec,
                p.epsilon,
                p.attempts()
            ),
        );
        for path in &self.repair_paths {
            let _ = fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "  repair path   {:<28} {:<20} = {:>8.2} s\n",
                    path.mechanism,
                    path.expr.render(),
                    path.expr.eval(p)
                ),
            );
        }
        for path in &self.orphan_paths {
            let _ = fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "  orphan path   {:<28} {:<20} = {:>8.2} s\n",
                    path.mechanism,
                    path.expr.render(),
                    path.expr.eval(p)
                ),
            );
        }
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "  false removal {:<49} = {:>8.2} s\n",
                self.false_removal.render(),
                self.false_removal.eval(p)
            ),
        );
        if let Some(orphan) = &self.orphan {
            let _ = fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "  orphan state  {:<49} = {:>8.2} s\n",
                    orphan.render(),
                    orphan.eval(p)
                ),
            );
        }
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "  reconverge    {:<49} = {:>8.2} s\n",
                self.reconverge.render(),
                self.reconverge.eval(p)
            ),
        );
        match &self.crash_wipe {
            Some(expr) => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        "  crash wipe    {:<49} = {:>8.2} s\n",
                        expr.render(),
                        expr.eval(p)
                    ),
                );
            }
            None => {
                out.push_str(
                    "  crash wipe    unbounded (no refresh stream; orphaned until session churn)\n",
                );
            }
        }
        out
    }
}

fn min_of(mut exprs: Vec<Expr>) -> Expr {
    if exprs.len() == 1 {
        exprs.pop().unwrap_or(Expr::Const(0.0))
    } else {
        Expr::Min(exprs)
    }
}

fn max_of(mut exprs: Vec<Expr>) -> Expr {
    if exprs.len() == 1 {
        exprs.pop().unwrap_or(Expr::Const(0.0))
    } else {
        Expr::Max(exprs)
    }
}

/// `first + (N-1)*retry + D`: a repeating delivery process whose first
/// attempt fires within `first` and whose retries are spaced `retry`.
fn attempt_chain(first: Sym, retry: Sym) -> Expr {
    Expr::Add(vec![
        Expr::Sym(first),
        Expr::Mul(Box::new(Expr::Retries), Box::new(Expr::Sym(retry))),
        Expr::Sym(Sym::Delta),
    ])
}

/// Derives the symbolic repair-latency bounds of one spec from its
/// generated transition table.  Incoherent specs are rejected with the spec
/// layer's typed error.
pub fn repair_latency_bound(spec: ProtocolSpec) -> Result<LatencyBound, SpecError> {
    spec.validate()?;
    let table = TransitionTable::for_spec(spec);
    let dispatch = table.dispatch();

    // --- False-removal re-install paths, read off the repair rows. ---
    let mut repair_paths = Vec::new();
    let repairs_by_refresh = table.rows.iter().any(|r| {
        r.event == SingleHopEvent::RepairDelivered && r.actions.contains(&Action::RepairByRefresh)
    });
    if repairs_by_refresh {
        if dispatch.reliable_refresh {
            // First refresh within T; once it goes unacked it retransmits
            // every R until one delivery re-installs the state.
            repair_paths.push(RepairPath {
                mechanism: "reliable refresh stream",
                expr: attempt_chain(Sym::T, Sym::R),
            });
        } else {
            // One delivery attempt per refresh period.
            repair_paths.push(RepairPath {
                mechanism: "refresh stream",
                expr: attempt_chain(Sym::T, Sym::T),
            });
        }
    } else {
        // No refresh stream: the false-removal row must notify the sender,
        // whose reliable trigger machinery re-installs the state.  Table I
        // models this repair as a retransmission process at interval R; the
        // notification delay adds one more channel traversal.
        let notifies = table.rows.iter().any(|r| {
            r.event == SingleHopEvent::FalseRemoval && r.actions.contains(&Action::NotifySender)
        });
        if notifies && dispatch.reliable_triggers {
            repair_paths.push(RepairPath {
                mechanism: "notify + reliable re-install",
                expr: Expr::Add(vec![
                    Expr::Sym(Sym::Delta),
                    Expr::Mul(Box::new(Expr::Attempts), Box::new(Expr::Sym(Sym::R))),
                    Expr::Sym(Sym::Delta),
                ]),
            });
        }
    }
    if repair_paths.is_empty() {
        // Unreachable for coherent specs (NoLossRecovery and
        // UnrecoverableFalseRemoval guarantee a path); validated by the
        // checker's latency property rather than panicking here.
        return Err(SpecError::NoLossRecovery);
    }
    let false_removal = min_of(repair_paths.iter().map(|p| p.expr.clone()).collect());

    // --- Orphan-cleanup paths, read off the Removing2 rows. ---
    let mut orphan_paths = Vec::new();
    let enters_orphan = table.rows.iter().any(|r| r.to == SingleHopState::Removing2);
    if enters_orphan {
        let cleanup_actions: Vec<&Action> = table
            .rows
            .iter()
            .filter(|r| r.from == SingleHopState::Removing2)
            .flat_map(|r| r.actions.iter())
            .collect();
        if cleanup_actions.contains(&&Action::ReclaimByTimeout) {
            orphan_paths.push(RepairPath {
                mechanism: "state-timeout backstop",
                expr: Expr::Sym(Sym::Tau),
            });
        }
        if cleanup_actions.contains(&&Action::RetransmitRemoval) {
            orphan_paths.push(RepairPath {
                mechanism: "removal retransmission",
                expr: Expr::Add(vec![
                    Expr::Mul(Box::new(Expr::Attempts), Box::new(Expr::Sym(Sym::R))),
                    Expr::Sym(Sym::Delta),
                ]),
            });
        }
    }
    let orphan = if orphan_paths.is_empty() {
        None
    } else {
        Some(min_of(
            orphan_paths.iter().map(|p| p.expr.clone()).collect(),
        ))
    };

    let mut obligations = vec![false_removal.clone()];
    if let Some(orphan) = &orphan {
        obligations.push(orphan.clone());
    }
    let reconverge = max_of(obligations);

    // --- Crash wipe: only the refresh stream repairs silent loss. ---
    let crash_wipe = repairs_by_refresh.then(|| {
        if dispatch.reliable_refresh {
            attempt_chain(Sym::T, Sym::R)
        } else {
            attempt_chain(Sym::T, Sym::T)
        }
    });

    Ok(LatencyBound {
        spec,
        repair_paths,
        orphan_paths,
        false_removal,
        orphan,
        reconverge,
        crash_wipe,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kazaa(eps: f64) -> BoundParams {
        BoundParams::from_single_hop(&SingleHopParams::kazaa_defaults(), eps)
    }

    #[test]
    fn attempt_count_is_the_epsilon_quantile() {
        let mut p = kazaa(0.02);
        p.loss = 0.05;
        // p_l^2 = 0.0025 <= 0.02 < 0.05 = p_l^1.
        assert_eq!(p.attempts(), 2.0);
        p.loss = 0.0;
        assert_eq!(p.attempts(), 1.0);
        p.loss = 0.5;
        p.epsilon = 0.01;
        // 0.5^7 ~ 0.0078 <= 0.01 < 0.0156 ~ 0.5^6.
        assert_eq!(p.attempts(), 7.0);
    }

    #[test]
    fn pure_soft_state_bound_is_the_refresh_chain() {
        let bound = repair_latency_bound(ProtocolSpec::SS).unwrap();
        assert_eq!(bound.false_removal.render(), "T + (N-1)*T + D");
        // SS has no explicit removal, hence no orphan obligation.
        assert!(bound.orphan.is_none());
        assert_eq!(bound.reconverge, bound.false_removal);
        // Crash wipes heal via the same refresh stream.
        assert_eq!(bound.crash_wipe, Some(bound.false_removal.clone()));
        // Kazaa: T = 5, p_l = 0.02, eps = 0.02 => N = 1: 5 + 0 + 0.03.
        let p = kazaa(0.02);
        assert!((bound.false_removal.eval(&p) - 5.03).abs() < 1e-12);
    }

    #[test]
    fn hard_state_bound_is_notify_plus_retransmit_and_crash_wipe_unbounded() {
        let bound = repair_latency_bound(ProtocolSpec::HS).unwrap();
        assert_eq!(bound.repair_paths.len(), 1);
        assert_eq!(
            bound.repair_paths[0].mechanism,
            "notify + reliable re-install"
        );
        assert_eq!(bound.false_removal.render(), "D + N*R + D");
        // Reliable removal retransmits orphans; no timeout backstop.
        assert_eq!(bound.orphan.as_ref().unwrap().render(), "N*R + D");
        assert!(bound.crash_wipe.is_none(), "HS cannot repair a silent wipe");
    }

    #[test]
    fn explicit_removal_with_timeout_takes_the_min_of_both_backstops() {
        let bound = repair_latency_bound(ProtocolSpec::SS_RTR).unwrap();
        let orphan = bound.orphan.as_ref().unwrap();
        assert_eq!(orphan.render(), "min(tau, N*R + D)");
        let p = kazaa(0.02);
        // Kazaa: min(15, 1*0.06 + 0.03) = 0.09.
        assert!((orphan.eval(&p) - 0.09).abs() < 1e-12);
        // Reconvergence waits for the slower obligation.
        assert!(bound.reconverge.eval(&p) >= bound.false_removal.eval(&p));
    }

    #[test]
    fn every_coherent_spec_has_a_finite_positive_bound() {
        let p = kazaa(0.02);
        for spec in crate::coherent_specs() {
            let bound = repair_latency_bound(spec).unwrap();
            let v = bound.reconverge.eval(&p);
            assert!(v.is_finite() && v > 0.0, "{spec}: reconverge bound {v}");
            // Tighter epsilon can only push the bound out.
            let loose = kazaa(0.5);
            assert!(
                bound.reconverge.eval(&loose) <= v,
                "{spec}: bound not monotone in epsilon"
            );
        }
    }

    #[test]
    fn retry_weighting_collapses_to_plain_counts_at_factor_one() {
        let mut p = kazaa(0.01);
        p.loss = 0.5;
        // 0.5^7 ~ 0.0078 <= 0.01: seven attempts, six retries.
        assert_eq!(p.attempts(), 7.0);
        assert_eq!(p.weighted_retries(), 6.0);
        assert_eq!(p.weighted_attempts(), 7.0);
        assert_eq!(Expr::Retries.eval(&p), 6.0);
        assert_eq!(Expr::Attempts.eval(&p), 7.0);
    }

    #[test]
    fn backoff_weighting_is_the_capped_geometric_sum() {
        let mut p = kazaa(0.01);
        p.loss = 0.5; // N = 7
        let backoff = p.with_retry_terms(2.0, 8.0);
        // 2 + 4 + 8 + 8 + 8 + 8 = 38 base intervals across six retries.
        assert_eq!(backoff.weighted_retries(), 38.0);
        assert_eq!(backoff.weighted_attempts(), 39.0);
        // Jitter bounds with the degenerate jump-to-cap geometry.
        let jittered = p.with_retry_terms(8.0, 8.0);
        assert_eq!(jittered.weighted_retries(), 48.0);
        // The weighted bound can only be slower than the fixed one, and
        // the rendered expression is unchanged — only the evaluation of
        // the N-multipliers moves.
        let bound = repair_latency_bound(ProtocolSpec::HS).unwrap();
        assert_eq!(bound.false_removal.render(), "D + N*R + D");
        assert!(bound.false_removal.eval(&backoff) > bound.false_removal.eval(&p));
        assert!(
            (bound.false_removal.eval(&backoff) - (p.delta + 39.0 * p.retrans + p.delta)).abs()
                < 1e-12
        );
    }

    #[test]
    fn every_coherent_spec_bound_is_monotone_in_the_retry_terms() {
        let p = kazaa(0.02);
        let mut lossy = p;
        lossy.loss = 0.3;
        for spec in crate::coherent_specs() {
            let bound = repair_latency_bound(spec).unwrap();
            let fixed = bound.reconverge.eval(&lossy);
            let backoff = bound.reconverge.eval(&lossy.with_retry_terms(2.0, 8.0));
            let jittered = bound.reconverge.eval(&lossy.with_retry_terms(8.0, 8.0));
            assert!(fixed <= backoff, "{spec}: backoff bound shrank");
            assert!(backoff <= jittered, "{spec}: jitter bound shrank");
            assert!(jittered.is_finite(), "{spec}");
        }
    }

    #[test]
    fn incoherent_specs_are_rejected() {
        let spec = ProtocolSpec::soft_state("broken").with_refresh(None);
        assert!(repair_latency_bound(spec).is_err());
    }

    #[test]
    fn render_shows_paths_and_values() {
        let bound = repair_latency_bound(ProtocolSpec::SS).unwrap();
        let text = bound.render(&kazaa(0.02));
        assert!(text.contains("worst-case repair latency"));
        assert!(text.contains("refresh stream"));
        assert!(text.contains("T + (N-1)*T + D"));
        let hs = repair_latency_bound(ProtocolSpec::HS).unwrap();
        let text = hs.render(&kazaa(0.02));
        assert!(text.contains("unbounded"));
    }
}
