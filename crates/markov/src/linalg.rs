//! Linear-system solving: LU factorization with partial pivoting.
//!
//! Stationary distributions and mean-time-to-absorption computations reduce
//! to solving small dense linear systems.  State spaces in this workspace are
//! at most a few hundred states, so a dense `O(n³)` factorization is simple,
//! robust and instantaneous — what matters for the sweep workloads is not the
//! flop count but the *allocation* count, so the factorization lives in a
//! reusable [`LuSolver`] that owns its pivot and workspace buffers:
//!
//! * [`LuSolver::factor`] / [`LuSolver::refactor`] — factor a matrix in
//!   place (`refactor` reuses the buffers of a previous factorization, the
//!   hot path when a sweep mutates rate entries of a same-shape system);
//! * [`LuSolver::solve`] / [`LuSolver::solve_in_place`] — back-substitute
//!   any number of right-hand sides against one factorization.
//!
//! The elimination performs *exactly* the operation sequence of the classic
//! one-shot Gaussian elimination it replaced (same pivot choices, same
//! multiply-subtract order, same zero-multiplier skips), so solutions are
//! bit-identical to the historical [`solve`] results — which is what lets the
//! sweep fast path guarantee byte-identical figures.  [`solve`] itself is now
//! a thin wrapper that factors once and solves once.

use crate::error::CtmcError;
use crate::matrix::DMatrix;

/// A reusable dense LU factorization (partial pivoting) of a square matrix.
///
/// Construct with [`LuSolver::factor`], re-use buffers across same-shape
/// systems with [`LuSolver::refactor`], and solve any number of right-hand
/// sides with [`LuSolver::solve`] / [`LuSolver::solve_in_place`].
#[derive(Debug, Clone, Default)]
pub struct LuSolver {
    /// Matrix dimension of the current factorization.
    n: usize,
    /// Row-major packed LU factors: `U` on and above the diagonal, the
    /// elimination multipliers of `L` below it (unit diagonal implied).
    lu: Vec<f64>,
    /// `pivots[col]` is the row swapped into position `col` at step `col`.
    pivots: Vec<usize>,
}

impl LuSolver {
    /// An empty solver holding no factorization (use [`LuSolver::refactor`]
    /// to load one); useful as a field initializer for reusable workspaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Factors `a`, allocating fresh buffers.
    pub fn factor(a: &DMatrix) -> Result<Self, CtmcError> {
        let mut solver = Self::new();
        solver.refactor(a)?;
        Ok(solver)
    }

    /// Dimension of the factored system (0 when nothing is factored).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Re-factors `a` into this solver's buffers.  When `a` has the shape of
    /// the previous factorization — the sweep hot path, where only rate
    /// entries changed — no allocation happens at all.
    ///
    /// Returns [`CtmcError::DimensionMismatch`] for a non-square matrix and
    /// [`CtmcError::SingularSystem`] when a pivot is (numerically) zero; the
    /// previous factorization is lost either way.
    pub fn refactor(&mut self, a: &DMatrix) -> Result<(), CtmcError> {
        if !a.is_square() {
            return Err(CtmcError::DimensionMismatch {
                expected: a.rows(),
                found: a.cols(),
            });
        }
        let n = a.rows();
        self.n = n;
        self.lu.clear();
        self.lu.extend_from_slice(a.as_slice());
        self.pivots.clear();
        self.pivots.resize(n, 0);
        let lu = &mut self.lu[..];

        // Scale for the singularity tolerance (matches the historical
        // Gaussian elimination: computed on the unmodified input).
        let scale = lu.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        let tol = scale * 1e-14;

        for col in 0..n {
            // Partial pivoting: the row with the largest absolute value in
            // this column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = lu[col * n + col].abs();
            for r in (col + 1)..n {
                let v = lu[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= tol {
                return Err(CtmcError::SingularSystem);
            }
            self.pivots[col] = pivot_row;
            if pivot_row != col {
                // Swap the full rows, multipliers included: the multipliers
                // travel with their rows exactly as the eliminated zeros did
                // in the one-shot Gaussian code, so the forward substitution
                // replays the identical operation sequence.
                let (a, b) = lu.split_at_mut(pivot_row * n);
                a[col * n..col * n + n].swap_with_slice(&mut b[..n]);
            }
            // Eliminate below the pivot, storing the multipliers in place of
            // the zeros.  `split_at_mut` hands the pivot row and the trailing
            // rows out as slices, so the inner multiply-subtract loop is
            // bounds-check-free in release builds.
            let (top, below) = lu.split_at_mut((col + 1) * n);
            let pivot_row_slice = &top[col * n..(col + 1) * n];
            let pivot = pivot_row_slice[col];
            for chunk in below.chunks_exact_mut(n) {
                let factor = chunk[col] / pivot;
                if factor == 0.0 {
                    // The slot must hold the *factor* (0.0 here, even when
                    // the entry itself was a subnormal that underflowed in
                    // the division), or forward substitution would treat the
                    // stale entry as a multiplier the reference elimination
                    // never applied.
                    chunk[col] = 0.0;
                    continue;
                }
                chunk[col] = factor;
                for (x, &u) in chunk[col + 1..].iter_mut().zip(&pivot_row_slice[col + 1..]) {
                    *x -= factor * u;
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` against the current factorization, overwriting `b`
    /// with `x`.  Allocation-free.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), CtmcError> {
        let n = self.n;
        if b.len() != n {
            return Err(CtmcError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        let lu = &self.lu[..];
        // Apply the recorded row swaps in factorization order.
        for (col, &pivot_row) in self.pivots.iter().enumerate() {
            if pivot_row != col {
                b.swap(col, pivot_row);
            }
        }
        // Forward substitution against the unit-lower-triangular multipliers.
        // The zero-multiplier skip mirrors the elimination's `factor == 0`
        // skip bit for bit (including the sign of zero).
        for r in 1..n {
            let (solved, rest) = b.split_at_mut(r);
            let mut acc = rest[0];
            for (&l, &y) in lu[r * n..r * n + r].iter().zip(solved.iter()) {
                if l != 0.0 {
                    acc -= l * y;
                }
            }
            rest[0] = acc;
        }
        // Back substitution against `U`.
        for i in (0..n).rev() {
            let row = &lu[i * n..(i + 1) * n];
            let (lhs, solved) = b.split_at_mut(i + 1);
            let mut acc = lhs[i];
            for (&u, &x) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= u * x;
            }
            lhs[i] = acc / row[i];
        }
        Ok(())
    }

    /// Solves `A·x = b` against the current factorization, returning a fresh
    /// `x` (many right-hand sides may be solved against one factorization).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, CtmcError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }
}

/// Solves `A·x = b` for a square `A`, returning `x`.
///
/// A thin wrapper over [`LuSolver`]: factor once, solve once.  Returns
/// [`CtmcError::SingularSystem`] when a pivot is (numerically) zero.
pub fn solve(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, CtmcError> {
    if a.is_square() && b.len() != a.rows() {
        return Err(CtmcError::DimensionMismatch {
            expected: a.rows(),
            found: b.len(),
        });
    }
    LuSolver::factor(a)?.solve(b)
}

/// The historical one-shot Gaussian elimination with partial pivoting,
/// retained verbatim as the reference implementation: the `LuSolver` path is
/// property-tested to reproduce its results *bit for bit* (same pivoting,
/// same operation order), which is the foundation of the sweep fast path's
/// byte-identical-figures guarantee.
#[doc(hidden)]
// sigtidy: allow(unused-pub) — reference implementation: the oracle the LU path is proptested against
pub fn gaussian_solve_reference(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, CtmcError> {
    if !a.is_square() {
        return Err(CtmcError::DimensionMismatch {
            expected: a.rows(),
            found: a.cols(),
        });
    }
    let n = a.rows();
    if b.len() != n {
        return Err(CtmcError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();

    // Scale for the singularity tolerance.
    let scale = m.max_abs().max(1.0);
    let tol = scale * 1e-14;

    for col in 0..n {
        let mut pivot_row = col;
        let mut pivot_val = m[(col, col)].abs();
        for r in (col + 1)..n {
            let v = m[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val <= tol {
            return Err(CtmcError::SingularSystem);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m[(col, c)];
                m[(col, c)] = m[(pivot_row, c)];
                m[(pivot_row, c)] = tmp;
            }
            rhs.swap(col, pivot_row);
        }
        let pivot = m[(col, col)];
        for r in (col + 1)..n {
            let factor = m[(r, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            m[(r, col)] = 0.0;
            for c in (col + 1)..n {
                m[(r, c)] -= factor * m[(col, c)];
            }
            rhs[r] -= factor * rhs[col];
        }
    }

    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = rhs[i];
        for c in (i + 1)..n {
            acc -= m[(i, c)] * x[c];
        }
        x[i] = acc / m[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The residual ∞-norm `‖A·x − b‖∞` of a solution.
    fn residual_norm(a: &DMatrix, x: &[f64], b: &[f64]) -> Result<f64, CtmcError> {
        let ax = a.mul_vec(x)?;
        assert_eq!(ax.len(), b.len());
        Ok(ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max))
    }

    #[test]
    fn solves_simple_system() {
        // 2x + y = 5 ; x + 3y = 10  => x = 1, y = 3
        let a = DMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn identity_returns_rhs() {
        let a = DMatrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve(&a, &b).unwrap(), b);
    }

    #[test]
    fn requires_pivoting() {
        // Leading zero on the diagonal forces a row swap.
        let a = DMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(CtmcError::SingularSystem));
        assert_eq!(
            LuSolver::factor(&a).err(),
            Some(CtmcError::SingularSystem),
            "factorization reports singularity directly"
        );
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(CtmcError::DimensionMismatch { .. })
        ));
        let a = DMatrix::identity(2);
        assert!(matches!(
            solve(&a, &[1.0]),
            Err(CtmcError::DimensionMismatch { .. })
        ));
        let solver = LuSolver::factor(&a).unwrap();
        assert!(matches!(
            solver.solve(&[1.0, 2.0, 3.0]),
            Err(CtmcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = DMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b = vec![1.0, 2.0];
        let x = solve(&a, &b).unwrap();
        assert!(residual_norm(&a, &x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn one_factorization_solves_many_right_hand_sides() {
        let a = DMatrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, -1.0],
            vec![0.0, -0.5, 5.0],
        ]);
        let solver = LuSolver::factor(&a).unwrap();
        assert_eq!(solver.n(), 3);
        for b in [
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.0, 1.0],
            vec![-4.5, 2.25, 0.125],
        ] {
            let x = solver.solve(&b).unwrap();
            assert_eq!(x, solve(&a, &b).unwrap(), "rhs {b:?}");
            assert!(residual_norm(&a, &x, &b).unwrap() < 1e-10);
        }
    }

    #[test]
    fn refactor_reuses_buffers_for_same_shape_updates() {
        let a = DMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let mut solver = LuSolver::factor(&a).unwrap();
        // Mutated rates, same shape: refactor and get the fresh system's
        // solution, identical to a one-shot solve.
        let b_mat = DMatrix::from_rows(&[vec![5.0, -1.0], vec![0.0, 2.0]]);
        solver.refactor(&b_mat).unwrap();
        let rhs = [4.0, 2.0];
        assert_eq!(solver.solve(&rhs).unwrap(), solve(&b_mat, &rhs).unwrap());
        // A different shape also works (buffers grow).
        let c = DMatrix::identity(5);
        solver.refactor(&c).unwrap();
        assert_eq!(solver.n(), 5);
        let rhs5 = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(solver.solve(&rhs5).unwrap(), rhs5.to_vec());
        // And refactoring a singular matrix reports it.
        let s = DMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solver.refactor(&s), Err(CtmcError::SingularSystem));
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = DMatrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 1.0]]);
        let solver = LuSolver::factor(&a).unwrap();
        let mut b = vec![4.0, 5.0];
        solver.solve_in_place(&mut b).unwrap();
        assert_eq!(b, solve(&a, &[4.0, 5.0]).unwrap());
        let mut short = vec![1.0];
        assert!(solver.solve_in_place(&mut short).is_err());
    }

    #[test]
    fn empty_solver_solves_only_empty_systems() {
        let solver = LuSolver::new();
        assert_eq!(solver.n(), 0);
        assert_eq!(solver.solve(&[]).unwrap(), Vec::<f64>::new());
        assert!(solver.solve(&[1.0]).is_err());
    }

    /// A random diagonally dominant system (well conditioned by
    /// construction), the shape every CTMC solve in this workspace has.
    fn dominant_system(seed_rows: &[Vec<f64>]) -> DMatrix {
        let mut rows = seed_rows.to_vec();
        for (i, row) in rows.iter_mut().enumerate() {
            let sum: f64 = row.iter().map(|v| v.abs()).sum();
            row[i] = sum + 1.0;
        }
        DMatrix::from_rows(&rows)
    }

    proptest! {
        #[test]
        fn prop_solution_satisfies_system(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, 4), 4),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let a = dominant_system(&seed_rows);
            let x = solve(&a, &b).unwrap();
            let res = residual_norm(&a, &x, &b).unwrap();
            prop_assert!(res < 1e-8, "residual = {}", res);
        }

        /// The LuSolver path reproduces the historical Gaussian elimination
        /// bit for bit on random diagonally dominant systems — same pivots,
        /// same operation order, so not "close": *equal*.
        #[test]
        fn prop_lu_is_bit_identical_to_gaussian_reference(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, 6), 6),
            b in proptest::collection::vec(-10.0f64..10.0, 6),
        ) {
            let a = dominant_system(&seed_rows);
            let reference = gaussian_solve_reference(&a, &b).unwrap();
            let via_wrapper = solve(&a, &b).unwrap();
            prop_assert_eq!(&via_wrapper, &reference, "one-shot wrapper diverged");
            let solver = LuSolver::factor(&a).unwrap();
            prop_assert_eq!(&solver.solve(&b).unwrap(), &reference, "factor+solve diverged");
            // And through a refactor of recycled buffers.
            let mut recycled = LuSolver::factor(&DMatrix::identity(3)).unwrap();
            recycled.refactor(&a).unwrap();
            prop_assert_eq!(&recycled.solve(&b).unwrap(), &reference, "refactor path diverged");
        }

        /// Singular systems are detected identically by both paths (rank-1
        /// matrices: every row a multiple of the first).
        #[test]
        fn prop_singular_error_parity_with_reference(
            row in proptest::collection::vec(-10.0f64..10.0, 4),
            scales in proptest::collection::vec(-3.0f64..3.0, 3),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let mut rows = vec![row.clone()];
            for s in &scales {
                rows.push(row.iter().map(|v| v * s).collect());
            }
            let a = DMatrix::from_rows(&rows);
            let reference = gaussian_solve_reference(&a, &b);
            let via_lu = solve(&a, &b);
            prop_assert_eq!(via_lu, reference.clone());
            prop_assert_eq!(reference, Err(CtmcError::SingularSystem));
        }
    }
}
