//! The analytic sweep fast path: rebuild-in-place CTMC solving.
//!
//! Every analytic figure is a sweep — hundreds of `(ProtocolSpec, params)`
//! points, each a stationary solve plus (single-hop) a mean-time-to-
//! absorption solve.  The one-shot
//! [`SingleHopModel`](crate::SingleHopModel)/[`MultiHopModel`](crate::MultiHopModel)
//! path rebuilds everything per point: two `CtmcBuilder`s with their
//! `HashMap`s, a `Ctmc` rate matrix, a generator clone, a transpose, a
//! submatrix and a fresh Gaussian elimination working copy.  For the tiny chains of this
//! paper (8–42 states) those allocations dominate the flops.
//!
//! A [`SingleHopSweepSession`] / [`MultiHopSweepSession`] holds the rate
//! matrix, the dense solve workspace (including the [`ctmc::LuSolver`]'s
//! pivot and factor buffers) and the state↔index maps across points, and
//! re-solves each new point by *mutating rate entries in place* — same state
//! order, same accumulation order, same factorization arithmetic — so the
//! solutions are **bit-identical** to the rebuild-per-point path (tested
//! exhaustively below and pinned end-to-end by the fig11a golden).
//!
//! ```
//! use siganalytic::{ProtocolSpec, SingleHopModel, SingleHopParams};
//! use siganalytic::sweep::SingleHopSweepSession;
//!
//! let mut session = SingleHopSweepSession::new();
//! let params = SingleHopParams::kazaa_defaults();
//! let fast = session.solve(ProtocolSpec::SS, params).unwrap();
//! let slow = SingleHopModel::new(ProtocolSpec::SS, params).unwrap().solve().unwrap();
//! assert_eq!(fast, slow); // not "close" — equal
//! ```

use crate::multi_hop::model::solution_from_stationary;
use crate::multi_hop::states::MultiHopState;
use crate::multi_hop::transitions::{multi_hop_transitions_into, MultiHopRateEntry};
use crate::multi_hop::MultiHopSolution;
use crate::params::{MultiHopParams, SingleHopParams};
use crate::single_hop::model::{assemble_solution, ModelError};
use crate::single_hop::states::SingleHopState;
use crate::single_hop::transitions::{protocol_transitions_into, RateTable};
use crate::single_hop::SingleHopSolution;
use crate::spec::ProtocolSpec;
use ctmc::{CtmcError, DMatrix, LuSolver};
use std::collections::HashMap;

/// Reusable dense workspace for solving one CTMC's stationary distribution
/// or mean time to absorption without per-point allocation.
///
/// The arithmetic replicates `ctmc::Ctmc` operation for operation (rate
/// accumulation order, row-sum order, generator/transpose/submatrix values,
/// LU pivoting), which is what makes session solutions bit-identical to the
/// builder path.
#[derive(Debug, Clone)]
struct ChainWorkspace {
    n: usize,
    /// Off-diagonal accumulated rates (diagonal kept at zero), row-major.
    rates: DMatrix,
    /// Per-state exit rates (row sums of `rates`).
    exit: Vec<f64>,
    /// Dense solve matrix for the stationary system.
    a: DMatrix,
    /// Dense solve matrix for the transient (absorption) subsystem.
    sub: DMatrix,
    /// Right-hand side / solution vector.
    rhs: Vec<f64>,
    /// Transient state indices for absorption solves.
    transient: Vec<usize>,
    solver: LuSolver,
}

impl ChainWorkspace {
    fn new() -> Self {
        Self {
            n: 0,
            rates: DMatrix::zeros(0, 0),
            exit: Vec::new(),
            a: DMatrix::zeros(0, 0),
            sub: DMatrix::zeros(0, 0),
            rhs: Vec::new(),
            transient: Vec::new(),
            solver: LuSolver::new(),
        }
    }

    /// Starts a new point: zeroes the rate matrix, resizing only when the
    /// state count changed since the previous point.
    fn begin(&mut self, n: usize) {
        if self.n != n {
            self.n = n;
            self.rates = DMatrix::zeros(n, n);
            self.a = DMatrix::zeros(n, n);
        } else {
            self.rates.as_mut_slice().fill(0.0);
        }
        self.exit.clear();
        self.exit.resize(n, 0.0);
    }

    /// Accumulates a `from → to` rate (mirrors `Ctmc::add_rate` for the
    /// pre-validated entries the transition builders emit).
    fn add_rate(&mut self, from: usize, to: usize, rate: f64) {
        let cur = self.rates.row(from)[to];
        self.rates.row_mut(from)[to] = cur + rate;
    }

    /// Row sums of the rate matrix into `exit`, in index order (the same
    /// summation `Ctmc::generator` performs).
    fn compute_exit_rates(&mut self) {
        for (i, e) in self.exit.iter_mut().enumerate() {
            *e = self.rates.row(i).iter().sum();
        }
    }

    /// Stationary distribution of the (recurrent) chain, left in `rhs`.
    ///
    /// Value-for-value the same computation as
    /// `Ctmc::stationary_distribution`: solve `Qᵀ·π = 0` with the
    /// normalization `Σπ = 1` replacing the last equation, clamp tiny
    /// negatives, renormalize.
    fn stationary(&mut self) -> Result<&[f64], CtmcError> {
        let n = self.n;
        if n == 0 {
            return Err(CtmcError::BadStructure("empty chain"));
        }
        if n == 1 {
            self.rhs.clear();
            self.rhs.push(1.0);
            return Ok(&self.rhs);
        }
        self.compute_exit_rates();
        if self.exit.contains(&0.0) {
            return Err(CtmcError::BadStructure(
                "chain has an absorbing state; merge it before asking for a stationary distribution",
            ));
        }
        // a[r][c] = Qᵀ[r][c] = (r == c ? −exit[r] : rates[c][r]), last row 1.
        let rdata = self.rates.as_slice();
        for r in 0..n {
            let dst = self.a.row_mut(r);
            if r == n - 1 {
                dst.fill(1.0);
            } else {
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = if c == r {
                        -self.exit[r]
                    } else {
                        rdata[c * n + r]
                    };
                }
            }
        }
        self.rhs.clear();
        self.rhs.resize(n, 0.0);
        self.rhs[n - 1] = 1.0;
        self.solver.refactor(&self.a)?;
        self.solver.solve_in_place(&mut self.rhs)?;
        // Numerical cleanup: clamp tiny negatives and renormalize.
        for p in self.rhs.iter_mut() {
            if *p < 0.0 && *p > -1e-9 {
                *p = 0.0;
            }
        }
        if self.rhs.iter().any(|p| *p < 0.0) {
            return Err(CtmcError::SingularSystem);
        }
        let sum: f64 = self.rhs.iter().sum();
        if sum <= 0.0 {
            return Err(CtmcError::SingularSystem);
        }
        for p in self.rhs.iter_mut() {
            *p /= sum;
        }
        Ok(&self.rhs)
    }

    /// Expected time to reach `absorbing` from `start` — the same `Q_TT·t =
    /// −1` solve as `Ctmc::mean_time_to_absorption`, restricted to the one
    /// entry the caller needs.
    fn mtta_from(&mut self, absorbing: usize, start: usize) -> Result<f64, CtmcError> {
        if start == absorbing {
            return Ok(0.0);
        }
        let n = self.n;
        self.compute_exit_rates();
        self.transient.clear();
        self.transient.extend((0..n).filter(|&i| i != absorbing));
        let m = self.transient.len();
        if m == 0 {
            return Ok(0.0);
        }
        if self.sub.rows() != m {
            self.sub = DMatrix::zeros(m, m);
        }
        let rdata = self.rates.as_slice();
        for (ri, &r) in self.transient.iter().enumerate() {
            let dst = self.sub.row_mut(ri);
            for (d, &c) in dst.iter_mut().zip(self.transient.iter()) {
                *d = if r == c {
                    -self.exit[r]
                } else {
                    rdata[r * n + c]
                };
            }
        }
        self.rhs.clear();
        self.rhs.resize(m, -1.0);
        self.solver.refactor(&self.sub)?;
        self.solver.solve_in_place(&mut self.rhs)?;
        let pos = self
            .transient
            .iter()
            .position(|&i| i == start)
            // sigtidy: allow(no-unwrap) — the caller passes a start index taken from `transient`
            .expect("start state is transient");
        Ok(self.rhs[pos])
    }
}

/// Canonical index of a single-hop state (its position in
/// [`SingleHopState::ALL`]).
fn state_slot(s: SingleHopState) -> usize {
    s.canonical_index()
}

const NO_STATE: usize = usize::MAX;

/// A reusable single-hop solver: [`SingleHopSweepSession::solve`] produces
/// exactly the `SingleHopSolution` that
/// `SingleHopModel::new(protocol, params)?.solve()` would, while keeping the
/// matrices, LU workspace and state maps alive across points.
///
/// Create one per thread and feed it a whole sweep
/// ([`SingleHopSweepSession::solve_sweep`]); the structures are rebuilt only
/// when the protocol's chain shape actually changes (different used-state
/// set), which protocol-major sweep orders make rare.
#[derive(Debug, Clone)]
pub struct SingleHopSweepSession {
    merged: ChainWorkspace,
    life: ChainWorkspace,
    merged_states: Vec<SingleHopState>,
    life_states: Vec<SingleHopState>,
    merged_index: [usize; 8],
    life_index: [usize; 8],
    /// Reused transition-table buffer (refilled per point).
    table: RateTable,
}

impl Default for SingleHopSweepSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SingleHopSweepSession {
    /// A fresh session (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            merged: ChainWorkspace::new(),
            life: ChainWorkspace::new(),
            merged_states: Vec::with_capacity(8),
            life_states: Vec::with_capacity(8),
            merged_index: [NO_STATE; 8],
            life_index: [NO_STATE; 8],
            table: RateTable {
                protocol: ProtocolSpec::SS,
                entries: Vec::with_capacity(16),
            },
        }
    }

    /// Solves one `(protocol, params)` point, reusing the session's
    /// workspace.  Bit-identical to
    /// `SingleHopModel::new(protocol, params)?.solve()`.
    // `#[inline]` compiles this body into the calling crate, next to its
    // sweep loop; out of line, sigperf's analytic-spectrum sweeps ran about
    // 8% slower.
    #[inline]
    pub fn solve(
        &mut self,
        protocol: ProtocolSpec,
        params: SingleHopParams,
    ) -> Result<SingleHopSolution, ModelError> {
        protocol.validate().map_err(ModelError::InvalidSpec)?;
        params.validate().map_err(ModelError::InvalidParams)?;
        protocol_transitions_into(protocol, &params, &mut self.table);

        // Which states this protocol's chain actually uses (same rule as
        // `SingleHopModel::state_is_used`).
        let mut used = [false; 8];
        used[state_slot(SingleHopState::Setup1)] = true;
        for e in &self.table.entries {
            used[state_slot(e.from)] = true;
            used[state_slot(e.to)] = true;
        }

        // --- Merged recurrent chain: Absorbed identified with Setup1. ---
        self.merged_states.clear();
        self.merged_index = [NO_STATE; 8];
        for s in SingleHopState::ALL {
            if s == SingleHopState::Absorbed {
                continue;
            }
            if used[state_slot(s)] {
                self.merged_index[state_slot(s)] = self.merged_states.len();
                self.merged_states.push(s);
            }
        }
        self.merged.begin(self.merged_states.len());
        for e in &self.table.entries {
            let to = if e.to == SingleHopState::Absorbed {
                SingleHopState::Setup1
            } else {
                e.to
            };
            let fi = self.merged_index[state_slot(e.from)];
            let ti = self.merged_index[state_slot(to)];
            // Mirror `CtmcBuilder::transition`'s no-ops.
            if e.rate == 0.0 || fi == ti {
                continue;
            }
            self.merged.add_rate(fi, ti, e.rate);
        }
        let pi = self.merged.stationary().map_err(ModelError::Chain)?;
        let mut stationary = HashMap::with_capacity(self.merged_states.len());
        for (idx, s) in self.merged_states.iter().enumerate() {
            stationary.insert(*s, pi[idx]);
        }

        // --- Transient chain for the expected receiver-side lifetime. ---
        self.life_states.clear();
        self.life_index = [NO_STATE; 8];
        for s in SingleHopState::ALL {
            if used[state_slot(s)] || s == SingleHopState::Absorbed {
                self.life_index[state_slot(s)] = self.life_states.len();
                self.life_states.push(s);
            }
        }
        self.life.begin(self.life_states.len());
        for e in &self.table.entries {
            let fi = self.life_index[state_slot(e.from)];
            let ti = self.life_index[state_slot(e.to)];
            if e.rate == 0.0 || fi == ti {
                continue;
            }
            self.life.add_rate(fi, ti, e.rate);
        }
        let absorbed_idx = self.life_index[state_slot(SingleHopState::Absorbed)];
        let start_idx = self.life_index[state_slot(SingleHopState::Setup1)];
        let lifetime = self
            .life
            .mtta_from(absorbed_idx, start_idx)
            .map_err(ModelError::Chain)?;

        Ok(assemble_solution(
            protocol,
            params,
            &self.table,
            stationary,
            lifetime,
        ))
    }

    /// Solves a batch of points in order — the sweep entry point.
    pub fn solve_sweep(
        &mut self,
        jobs: &[(ProtocolSpec, SingleHopParams)],
    ) -> Result<Vec<SingleHopSolution>, ModelError> {
        jobs.iter()
            .map(|&(protocol, params)| self.solve(protocol, params))
            .collect()
    }
}

/// Index of a multi-hop state in the `MultiHopState::enumerate(k, _)` order:
/// fast states first (`0 ..= k`), then slow states (`k+1 ..= 2k`), then the
/// recovery state (`2k + 1`).
fn multi_hop_index(k: usize, s: MultiHopState) -> usize {
    match s {
        MultiHopState::Progress {
            consistent,
            mode: crate::multi_hop::states::PathMode::Fast,
        } => consistent,
        MultiHopState::Progress {
            consistent,
            mode: crate::multi_hop::states::PathMode::Slow,
        } => k + 1 + consistent,
        MultiHopState::Recovery => 2 * k + 1,
    }
}

/// A reusable multi-hop solver: [`MultiHopSweepSession::solve`] produces
/// exactly the `MultiHopSolution` that
/// `MultiHopModel::new(protocol, params)?.solve()` would, reusing matrices,
/// LU workspace and the state list across points (rebuilt only when the hop
/// count or the recovery-state presence changes).
#[derive(Debug, Clone)]
pub struct MultiHopSweepSession {
    ws: ChainWorkspace,
    states: Vec<MultiHopState>,
    /// Reused transition-entry buffer (refilled per point).
    entries: Vec<MultiHopRateEntry>,
    k: usize,
    with_recovery: bool,
}

impl Default for MultiHopSweepSession {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiHopSweepSession {
    /// A fresh session (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            ws: ChainWorkspace::new(),
            states: Vec::new(),
            entries: Vec::new(),
            k: 0,
            with_recovery: false,
        }
    }

    /// Solves one `(protocol, params)` point, reusing the session's
    /// workspace.  Bit-identical to
    /// `MultiHopModel::new(protocol, params)?.solve()`.
    // Inlined into the calling crate; see `SingleHopSweepSession::solve`.
    #[inline]
    pub fn solve(
        &mut self,
        protocol: ProtocolSpec,
        params: MultiHopParams,
    ) -> Result<MultiHopSolution, ModelError> {
        protocol.validate().map_err(ModelError::InvalidSpec)?;
        params.validate().map_err(ModelError::InvalidParams)?;

        let k = params.hops;
        let with_recovery = protocol.has_external_detector();
        if self.states.is_empty() || self.k != k || self.with_recovery != with_recovery {
            self.states = MultiHopState::enumerate(k, with_recovery);
            self.k = k;
            self.with_recovery = with_recovery;
        }
        self.ws.begin(self.states.len());
        multi_hop_transitions_into(protocol, &params, &mut self.entries);
        for e in &self.entries {
            let fi = multi_hop_index(k, e.from);
            let ti = multi_hop_index(k, e.to);
            if e.rate == 0.0 || fi == ti {
                continue;
            }
            self.ws.add_rate(fi, ti, e.rate);
        }
        let pi = self.ws.stationary().map_err(ModelError::Chain)?;
        Ok(solution_from_stationary(protocol, params, &self.states, pi))
    }

    /// Solves a batch of points in order — the sweep entry point.
    pub fn solve_sweep(
        &mut self,
        jobs: &[(ProtocolSpec, MultiHopParams)],
    ) -> Result<Vec<MultiHopSolution>, ModelError> {
        jobs.iter()
            .map(|&(protocol, params)| self.solve(protocol, params))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RefreshMode;
    use crate::{MultiHopModel, SingleHopModel};

    #[test]
    fn single_hop_session_is_bit_identical_to_the_model_path() {
        // Every paper preset, a sweep of lifetimes, plus parameter corners
        // that change the chain *structure* (loss = 0 drops the slow-path
        // states) — all interleaved through ONE session, so the
        // rebuild-on-structure-change path is exercised repeatedly.
        let mut session = SingleHopSweepSession::new();
        let base = SingleHopParams::kazaa_defaults();
        for protocol in ProtocolSpec::PAPER {
            for lifetime in [30.0, 600.0, 10_000.0] {
                let params = base.with_mean_lifetime(lifetime);
                let fast = session.solve(protocol, params).unwrap();
                let slow = SingleHopModel::new(protocol, params)
                    .unwrap()
                    .solve()
                    .unwrap();
                assert_eq!(fast, slow, "{protocol} at lifetime {lifetime}");
            }
            let mut lossless = base;
            lossless.loss = 0.0;
            let fast = session.solve(protocol, lossless).unwrap();
            let slow = SingleHopModel::new(protocol, lossless)
                .unwrap()
                .solve()
                .unwrap();
            assert_eq!(fast, slow, "{protocol} lossless (structure change)");
        }
    }

    #[test]
    fn single_hop_session_covers_non_paper_specs() {
        let ss_rr = ProtocolSpec::soft_state("SS+RR").with_refresh(Some(RefreshMode::Reliable));
        let mut session = SingleHopSweepSession::new();
        for spec in ProtocolSpec::enumerate_all("x") {
            if spec.validate().is_err() {
                continue;
            }
            let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(120.0);
            let fast = session.solve(spec, params).unwrap();
            let slow = SingleHopModel::new(spec, params).unwrap().solve().unwrap();
            assert_eq!(fast, slow, "{spec:?}");
        }
        // And the named custom spec used elsewhere in the workspace.
        let params = SingleHopParams::kazaa_defaults();
        assert_eq!(
            session.solve(ss_rr, params).unwrap(),
            SingleHopModel::new(ss_rr, params).unwrap().solve().unwrap()
        );
    }

    #[test]
    fn single_hop_solve_sweep_matches_per_point_solves() {
        let jobs: Vec<(ProtocolSpec, SingleHopParams)> = ProtocolSpec::PAPER
            .iter()
            .flat_map(|p| {
                [1.0f64, 5.0, 20.0].into_iter().map(|t| {
                    (
                        *p,
                        SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(t),
                    )
                })
            })
            .collect();
        let mut session = SingleHopSweepSession::new();
        let batch = session.solve_sweep(&jobs).unwrap();
        assert_eq!(batch.len(), jobs.len());
        for ((protocol, params), got) in jobs.iter().zip(&batch) {
            let want = SingleHopModel::new(*protocol, *params)
                .unwrap()
                .solve()
                .unwrap();
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn single_hop_session_rejects_what_the_model_rejects() {
        let mut session = SingleHopSweepSession::new();
        let mut bad = SingleHopParams::kazaa_defaults();
        bad.loss = 2.0;
        assert!(matches!(
            session.solve(ProtocolSpec::SS, bad),
            Err(ModelError::InvalidParams(_))
        ));
        let incoherent = ProtocolSpec::hard_state("bad").with_state_timeout(true);
        assert!(matches!(
            session.solve(incoherent, SingleHopParams::kazaa_defaults()),
            Err(ModelError::InvalidSpec(_))
        ));
        // The session still works after a rejection.
        session
            .solve(ProtocolSpec::SS, SingleHopParams::kazaa_defaults())
            .unwrap();
    }

    #[test]
    fn multi_hop_session_is_bit_identical_to_the_model_path() {
        let mut session = MultiHopSweepSession::new();
        let base = MultiHopParams::reservation_defaults();
        // Interleave protocols (recovery state appears and disappears) and
        // hop counts (matrix shape changes) through one session.
        for hops in [2usize, 7, 20] {
            for protocol in ProtocolSpec::PAPER_MULTI_HOP {
                let params = base.with_hops(hops);
                let fast = session.solve(protocol, params).unwrap();
                let slow = MultiHopModel::new(protocol, params)
                    .unwrap()
                    .solve()
                    .unwrap();
                assert_eq!(fast, slow, "{protocol} at {hops} hops");
            }
        }
        // Refresh-timer sweep at fixed shape (the pure mutate-in-place path).
        for t in [1.0f64, 5.0, 50.0] {
            let params = base.with_refresh_timer_scaled_timeout(t);
            for protocol in ProtocolSpec::PAPER_MULTI_HOP {
                let fast = session.solve(protocol, params).unwrap();
                let slow = MultiHopModel::new(protocol, params)
                    .unwrap()
                    .solve()
                    .unwrap();
                assert_eq!(fast, slow, "{protocol} at T = {t}");
            }
        }
    }

    #[test]
    fn multi_hop_solve_sweep_matches_per_point_solves() {
        let jobs: Vec<(ProtocolSpec, MultiHopParams)> = ProtocolSpec::PAPER_MULTI_HOP
            .iter()
            .flat_map(|p| {
                (2..=4).map(|k| (*p, MultiHopParams::reservation_defaults().with_hops(k)))
            })
            .collect();
        let mut session = MultiHopSweepSession::new();
        let batch = session.solve_sweep(&jobs).unwrap();
        for ((protocol, params), got) in jobs.iter().zip(&batch) {
            let want = MultiHopModel::new(*protocol, *params)
                .unwrap()
                .solve()
                .unwrap();
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn session_reuse_does_not_leak_state_between_protocols() {
        // Alternating between chains of different sizes must not carry any
        // stale rate over — run the same point before and after an unrelated
        // solve and compare.
        let mut session = SingleHopSweepSession::new();
        let params = SingleHopParams::kazaa_defaults();
        let first = session.solve(ProtocolSpec::SS_RTR, params).unwrap();
        session.solve(ProtocolSpec::SS, params).unwrap();
        session
            .solve(ProtocolSpec::HS, params.with_mean_lifetime(31.0))
            .unwrap();
        let again = session.solve(ProtocolSpec::SS_RTR, params).unwrap();
        assert_eq!(first, again);
    }
}
