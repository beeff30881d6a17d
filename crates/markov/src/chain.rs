//! Continuous-time Markov chains over integer-indexed states.

use crate::error::CtmcError;
use crate::linalg::solve;
use crate::matrix::DMatrix;

/// A continuous-time Markov chain described by its off-diagonal transition
/// rates.
///
/// The chain does not interpret its states; higher layers (the analytic
/// models) attach meaning through [`crate::builder::CtmcBuilder`] labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    n: usize,
    /// Off-diagonal rates; `rates[(i, j)]` is the rate of the `i → j`
    /// transition, diagonal entries are kept at zero.
    rates: DMatrix,
}

impl Ctmc {
    /// Creates a chain with `n` states and no transitions.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rates: DMatrix::zeros(n, n),
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Adds `rate` to the `from → to` transition (rates between the same pair
    /// of states accumulate, modelling competing exponential events).
    ///
    /// A zero rate is accepted and is a no-op, which lets model code write
    /// uniform "add every Table I transition" loops.
    pub fn add_rate(&mut self, from: usize, to: usize, rate: f64) -> Result<(), CtmcError> {
        if from >= self.n || to >= self.n {
            return Err(CtmcError::StateOutOfRange {
                index: from.max(to),
                states: self.n,
            });
        }
        if !rate.is_finite() || rate < 0.0 {
            return Err(CtmcError::InvalidRate { from, to, rate });
        }
        if from == to || rate == 0.0 {
            // Self loops carry no information in a CTMC.
            return Ok(());
        }
        let cur = self.rates[(from, to)];
        self.rates.set(from, to, cur + rate)?;
        Ok(())
    }

    /// The current `from → to` rate.
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        self.rates.get(from, to).unwrap_or(0.0)
    }

    /// Total exit rate of state `i`.
    pub fn exit_rate(&self, i: usize) -> f64 {
        if i >= self.n {
            return 0.0;
        }
        self.rates.row(i).iter().sum()
    }

    /// Whether state `i` is absorbing (no outgoing rate).
    pub fn is_absorbing(&self, i: usize) -> bool {
        self.exit_rate(i) == 0.0
    }

    /// The infinitesimal generator `Q` (off-diagonal rates, diagonal equal to
    /// minus the exit rate).
    pub fn generator(&self) -> DMatrix {
        let mut q = self.rates.clone();
        for i in 0..self.n {
            let exit: f64 = self.rates.row(i).iter().sum();
            q[(i, i)] = -exit;
        }
        q
    }

    /// Stationary distribution `π` of an irreducible (recurrent) chain:
    /// the unique probability vector with `π·Q = 0`.
    ///
    /// Returns [`CtmcError::SingularSystem`] when the chain is reducible (the
    /// distribution is then not unique) and [`CtmcError::BadStructure`] when
    /// the chain has an absorbing state (the stationary distribution would be
    /// degenerate; the caller almost certainly wants the merged recurrent
    /// chain instead).
    pub fn stationary_distribution(&self) -> Result<Vec<f64>, CtmcError> {
        if self.n == 0 {
            return Err(CtmcError::BadStructure("empty chain"));
        }
        if self.n == 1 {
            return Ok(vec![1.0]);
        }
        if (0..self.n).any(|i| self.is_absorbing(i)) {
            return Err(CtmcError::BadStructure(
                "chain has an absorbing state; merge it before asking for a stationary distribution",
            ));
        }
        // Solve Qᵀ·π = 0 with the normalization Σπ = 1 replacing the last
        // equation.
        let q = self.generator();
        let qt = q.transpose();
        let mut a = DMatrix::zeros(self.n, self.n);
        for r in 0..self.n {
            for c in 0..self.n {
                a[(r, c)] = qt[(r, c)];
            }
        }
        for c in 0..self.n {
            a[(self.n - 1, c)] = 1.0;
        }
        let mut b = vec![0.0; self.n];
        b[self.n - 1] = 1.0;
        let mut pi = solve(&a, &b)?;
        // Numerical cleanup: clamp tiny negatives and renormalize.
        for p in pi.iter_mut() {
            if *p < 0.0 && *p > -1e-9 {
                *p = 0.0;
            }
        }
        if pi.iter().any(|p| *p < 0.0) {
            return Err(CtmcError::SingularSystem);
        }
        let sum: f64 = pi.iter().sum();
        if sum <= 0.0 {
            return Err(CtmcError::SingularSystem);
        }
        for p in pi.iter_mut() {
            *p /= sum;
        }
        Ok(pi)
    }

    /// Expected time to reach any state in `absorbing`, starting from each
    /// transient state.  The returned vector has one entry per state; entries
    /// for absorbing states are zero.
    pub fn mean_time_to_absorption(&self, absorbing: &[usize]) -> Result<Vec<f64>, CtmcError> {
        let transient = self.transient_indices(absorbing)?;
        if transient.is_empty() {
            return Ok(vec![0.0; self.n]);
        }
        // Solve Q_TT · t = -1.
        let q = self.generator();
        let qtt = q.submatrix(&transient)?;
        let b = vec![-1.0; transient.len()];
        let t = solve(&qtt, &b)?;
        let mut out = vec![0.0; self.n];
        for (k, &idx) in transient.iter().enumerate() {
            out[idx] = t[k];
        }
        Ok(out)
    }

    fn transient_indices(&self, absorbing: &[usize]) -> Result<Vec<usize>, CtmcError> {
        for &a in absorbing {
            if a >= self.n {
                return Err(CtmcError::StateOutOfRange {
                    index: a,
                    states: self.n,
                });
            }
        }
        if absorbing.is_empty() {
            return Err(CtmcError::BadStructure("no absorbing states given"));
        }
        Ok((0..self.n).filter(|i| !absorbing.contains(i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    /// Expected total time spent in each transient state before absorption,
    /// starting from the transient state `start`: `Q_TTᵀ · u = -e_start`.
    fn expected_occupancy(c: &Ctmc, start: usize, absorbing: &[usize]) -> Vec<f64> {
        let transient = c.transient_indices(absorbing).unwrap();
        let qtt = c.generator().submatrix(&transient).unwrap();
        let mut e = vec![0.0; transient.len()];
        e[transient.iter().position(|&i| i == start).unwrap()] = -1.0;
        solve(&qtt.transpose(), &e).unwrap()
    }

    /// Two-state birth–death chain with known stationary distribution.
    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, lambda).unwrap();
        c.add_rate(1, 0, mu).unwrap();
        c
    }

    #[test]
    fn two_state_stationary() {
        let c = two_state(1.0, 3.0);
        let pi = c.stationary_distribution().unwrap();
        // π0 = μ/(λ+μ) = 0.75
        assert!(approx(pi[0], 0.75, 1e-12));
        assert!(approx(pi[1], 0.25, 1e-12));
    }

    #[test]
    fn three_state_cycle_stationary_is_uniform_when_symmetric() {
        let mut c = Ctmc::new(3);
        for i in 0..3 {
            c.add_rate(i, (i + 1) % 3, 2.0).unwrap();
        }
        let pi = c.stationary_distribution().unwrap();
        for p in pi {
            assert!(approx(p, 1.0 / 3.0, 1e-12));
        }
    }

    #[test]
    fn stationary_satisfies_balance() {
        let mut c = Ctmc::new(4);
        c.add_rate(0, 1, 0.7).unwrap();
        c.add_rate(1, 2, 1.3).unwrap();
        c.add_rate(2, 3, 0.5).unwrap();
        c.add_rate(3, 0, 2.0).unwrap();
        c.add_rate(2, 0, 0.9).unwrap();
        let pi = c.stationary_distribution().unwrap();
        let q = c.generator();
        let flow = q.vec_mul(&pi).unwrap();
        for f in flow {
            assert!(f.abs() < 1e-10, "π·Q component = {f}");
        }
        assert!(approx(pi.iter().sum::<f64>(), 1.0, 1e-12));
    }

    #[test]
    fn stationary_rejects_absorbing_chain() {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 1.0).unwrap();
        assert!(matches!(
            c.stationary_distribution(),
            Err(CtmcError::BadStructure(_))
        ));
    }

    #[test]
    fn single_state_stationary_is_one() {
        let c = Ctmc::new(1);
        assert_eq!(c.stationary_distribution().unwrap(), vec![1.0]);
    }

    #[test]
    fn mean_time_to_absorption_exponential() {
        // Single transient state with exit rate λ: MTTA = 1/λ.
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 4.0).unwrap();
        let t = c.mean_time_to_absorption(&[1]).unwrap();
        assert!(approx(t[0], 0.25, 1e-12));
        assert_eq!(t[1], 0.0);
    }

    #[test]
    fn mean_time_to_absorption_two_stage() {
        // 0 -> 1 -> 2 with rates a then b: MTTA(0) = 1/a + 1/b.
        let mut c = Ctmc::new(3);
        c.add_rate(0, 1, 2.0).unwrap();
        c.add_rate(1, 2, 5.0).unwrap();
        let t = c.mean_time_to_absorption(&[2]).unwrap();
        assert!(approx(t[0], 0.5 + 0.2, 1e-12));
        assert!(approx(t[1], 0.2, 1e-12));
    }

    #[test]
    fn occupancy_sums_to_mtta() {
        let mut c = Ctmc::new(4);
        c.add_rate(0, 1, 1.0).unwrap();
        c.add_rate(1, 0, 0.5).unwrap();
        c.add_rate(1, 2, 1.5).unwrap();
        c.add_rate(2, 3, 1.0).unwrap();
        c.add_rate(2, 0, 0.3).unwrap();
        let mtta = c.mean_time_to_absorption(&[3]).unwrap();
        let total: f64 = expected_occupancy(&c, 0, &[3]).iter().sum();
        assert!(approx(total, mtta[0], 1e-10), "{total} vs {}", mtta[0]);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let mut c = Ctmc::new(2);
        assert!(matches!(
            c.add_rate(0, 1, -1.0),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            c.add_rate(0, 1, f64::NAN),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            c.add_rate(0, 5, 1.0),
            Err(CtmcError::StateOutOfRange { .. })
        ));
        // Self-loop and zero rate are accepted no-ops.
        c.add_rate(0, 0, 3.0).unwrap();
        c.add_rate(0, 1, 0.0).unwrap();
        assert_eq!(c.rate(0, 0), 0.0);
        assert_eq!(c.rate(0, 1), 0.0);
    }

    #[test]
    fn rates_accumulate() {
        let mut c = Ctmc::new(2);
        c.add_rate(0, 1, 1.0).unwrap();
        c.add_rate(0, 1, 0.5).unwrap();
        assert_eq!(c.rate(0, 1), 1.5);
        assert_eq!(c.exit_rate(0), 1.5);
        assert!(c.is_absorbing(1));
        assert!(!c.is_absorbing(0));
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let mut c = Ctmc::new(3);
        c.add_rate(0, 1, 1.0).unwrap();
        c.add_rate(0, 2, 2.0).unwrap();
        c.add_rate(1, 2, 3.0).unwrap();
        c.add_rate(2, 0, 4.0).unwrap();
        let q = c.generator();
        for r in 0..3 {
            let s: f64 = q.row(r).iter().sum();
            assert!(s.abs() < 1e-12);
        }
        assert_eq!(q[(0, 0)], -3.0);
    }

    #[test]
    fn mtta_with_no_absorbing_errors() {
        let c = two_state(1.0, 1.0);
        assert!(matches!(
            c.mean_time_to_absorption(&[]),
            Err(CtmcError::BadStructure(_))
        ));
        assert!(matches!(
            c.mean_time_to_absorption(&[7]),
            Err(CtmcError::StateOutOfRange { .. })
        ));
    }
}
