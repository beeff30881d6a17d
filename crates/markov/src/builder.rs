//! Building chains from named states.

use crate::chain::Ctmc;
use crate::error::CtmcError;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// A recorded transition, kept for inspection (the `repro` binary prints the
/// single-hop model's transition table this way, reproducing Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Transition<S> {
    /// Source state.
    pub from: S,
    /// Destination state.
    pub to: S,
    /// Accumulated rate.
    pub rate: f64,
}

/// Assembles a [`Ctmc`] from application-level state labels.
///
/// States are indexed in insertion order; transitions between the same pair
/// of states accumulate.  The builder keeps the label ↔ index mapping so
/// model code can translate solver output back into named states.
#[derive(Debug, Clone)]
pub struct CtmcBuilder<S: Clone + Eq + Hash + Debug> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    transitions: Vec<(usize, usize, f64)>,
}

impl<S: Clone + Eq + Hash + Debug> Default for CtmcBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Clone + Eq + Hash + Debug> CtmcBuilder<S> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            states: Vec::new(),
            index: HashMap::new(),
            transitions: Vec::new(),
        }
    }

    /// Adds a state (idempotent) and returns its index.
    pub fn state(&mut self, s: S) -> usize {
        if let Some(&i) = self.index.get(&s) {
            return i;
        }
        let i = self.states.len();
        self.states.push(s.clone());
        self.index.insert(s, i);
        i
    }

    /// Adds all states from an iterator, preserving order.
    pub fn states<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        for s in iter {
            self.state(s);
        }
    }

    /// Adds `rate` to the `from → to` transition, creating the states if they
    /// are new.  Negative and non-finite rates are rejected; zero rates and
    /// self-loops are accepted no-ops (they simplify table-driven model code).
    pub fn transition(&mut self, from: S, to: S, rate: f64) -> Result<(), CtmcError> {
        let fi = self.state(from);
        let ti = self.state(to);
        if !rate.is_finite() || rate < 0.0 {
            return Err(CtmcError::InvalidRate {
                from: fi,
                to: ti,
                rate,
            });
        }
        if rate == 0.0 || fi == ti {
            return Ok(());
        }
        self.transitions.push((fi, ti, rate));
        Ok(())
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Index of a state, if it was added.
    pub fn index_of(&self, s: &S) -> Option<usize> {
        self.index.get(s).copied()
    }

    /// The state labels in index order.
    pub fn labels(&self) -> &[S] {
        &self.states
    }

    /// All accumulated transitions with their labels, merged per state pair.
    pub fn transitions(&self) -> Vec<Transition<S>> {
        let mut merged: HashMap<(usize, usize), f64> = HashMap::new();
        for &(f, t, r) in &self.transitions {
            *merged.entry((f, t)).or_insert(0.0) += r;
        }
        let mut out: Vec<Transition<S>> = merged
            .into_iter()
            .map(|((f, t), rate)| Transition {
                from: self.states[f].clone(),
                to: self.states[t].clone(),
                rate,
            })
            .collect();
        out.sort_by(|a, b| {
            let ia = self.index[&a.from];
            let ib = self.index[&b.from];
            ia.cmp(&ib).then(self.index[&a.to].cmp(&self.index[&b.to]))
        });
        out
    }

    /// Builds the chain.
    pub fn build(&self) -> Result<Ctmc, CtmcError> {
        let mut c = Ctmc::new(self.states.len());
        for &(f, t, r) in &self.transitions {
            c.add_rate(f, t, r)?;
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum St {
        A,
        B,
        C,
    }

    #[test]
    fn states_are_indexed_in_insertion_order() {
        let mut b = CtmcBuilder::new();
        assert_eq!(b.state(St::A), 0);
        assert_eq!(b.state(St::B), 1);
        assert_eq!(b.state(St::A), 0, "idempotent");
        assert_eq!(b.num_states(), 2);
        assert_eq!(b.index_of(&St::B), Some(1));
        assert_eq!(b.index_of(&St::C), None);
        assert_eq!(b.labels(), &[St::A, St::B]);
    }

    #[test]
    fn transitions_accumulate_and_build() {
        let mut b = CtmcBuilder::new();
        b.transition(St::A, St::B, 1.0).unwrap();
        b.transition(St::A, St::B, 0.5).unwrap();
        b.transition(St::B, St::A, 2.0).unwrap();
        let chain = b.build().unwrap();
        assert_eq!(chain.rate(0, 1), 1.5);
        assert_eq!(chain.rate(1, 0), 2.0);
        let pi = chain.stationary_distribution().unwrap();
        assert!((pi[0] - 2.0 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_and_self_loop_are_noops() {
        let mut b = CtmcBuilder::new();
        b.transition(St::A, St::A, 5.0).unwrap();
        b.transition(St::A, St::B, 0.0).unwrap();
        assert_eq!(b.transitions().len(), 0);
        assert_eq!(b.num_states(), 2);
    }

    #[test]
    fn invalid_rate_rejected() {
        let mut b = CtmcBuilder::new();
        assert!(matches!(
            b.transition(St::A, St::B, -2.0),
            Err(CtmcError::InvalidRate { .. })
        ));
    }

    #[test]
    fn transitions_listing_is_merged_and_ordered() {
        let mut b = CtmcBuilder::new();
        b.states([St::A, St::B, St::C]);
        b.transition(St::B, St::C, 1.0).unwrap();
        b.transition(St::A, St::C, 2.0).unwrap();
        b.transition(St::A, St::C, 3.0).unwrap();
        let ts = b.transitions();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].from, St::A);
        assert_eq!(ts[0].rate, 5.0);
        assert_eq!(ts[1].from, St::B);
    }

    #[test]
    fn string_labels_work() {
        let mut b: CtmcBuilder<String> = CtmcBuilder::new();
        b.transition("up".to_string(), "down".to_string(), 0.1)
            .unwrap();
        b.transition("down".to_string(), "up".to_string(), 0.9)
            .unwrap();
        let c = b.build().unwrap();
        let pi = c.stationary_distribution().unwrap();
        assert!((pi[b.index_of(&"up".to_string()).unwrap()] - 0.9).abs() < 1e-12);
    }
}
