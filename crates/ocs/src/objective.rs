//! The OCS objective (Eq. 13) and an incremental evaluation state.
//!
//! Greedy solvers evaluate `ocs(R^c + r) − ocs(R^c)` for every feasible
//! candidate each iteration; recomputing Eq. (13) from scratch would cost
//! `O(|R^q| · |R^c|)` per probe. [`SelectionState`] keeps the per-query
//! best correlation, making a gain probe `O(|R^q|)` and an insertion
//! `O(|R^q| + |R^c|)`.

use crate::problem::{OcsInstance, Selection};
use rtse_graph::RoadId;

/// Direct evaluation of `ocs(R^c)` (Eq. 13). Used by tests and the exact
/// solver; greedy code paths use [`SelectionState`].
pub fn ocs_value(inst: &OcsInstance<'_>, chosen: &[RoadId]) -> f64 {
    inst.queried.iter().map(|&q| inst.sigma[q.index()] * inst.corr.road_set_corr(q, chosen)).sum()
}

/// Incremental selection state shared by the greedy solvers.
#[derive(Debug, Clone)]
pub struct SelectionState<'a> {
    inst: &'a OcsInstance<'a>,
    chosen: Vec<RoadId>,
    /// `max_{c ∈ chosen} corr(q, c)` per queried road (parallel to
    /// `inst.queried`).
    best: Vec<f64>,
    value: f64,
    spent: u32,
}

impl<'a> SelectionState<'a> {
    /// Fresh empty state.
    pub fn new(inst: &'a OcsInstance<'a>) -> Self {
        Self { inst, chosen: Vec::new(), best: vec![0.0; inst.queried.len()], value: 0.0, spent: 0 }
    }

    /// Roads chosen so far.
    pub fn chosen(&self) -> &[RoadId] {
        &self.chosen
    }

    /// Current objective value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Budget spent so far.
    pub fn spent(&self) -> u32 {
        self.spent
    }

    /// Remaining budget.
    pub fn remaining_budget(&self) -> u32 {
        self.inst.budget - self.spent
    }

    /// Objective gain of adding `r` (Eq. 13 marginal).
    pub fn gain(&self, r: RoadId) -> f64 {
        self.inst
            .queried
            .iter()
            .zip(self.best.iter())
            .map(|(&q, &b)| {
                let c = self.inst.corr.corr(q, r);
                self.inst.sigma[q.index()] * (c - b).max(0.0)
            })
            .sum()
    }

    /// True when `r` can be added: affordable, not already chosen, and not
    /// redundant (`corr(r, chosen) ≤ θ` pairwise).
    pub fn is_feasible_addition(&self, r: RoadId) -> bool {
        self.is_affordable_new(r) && !self.is_redundant(r)
    }

    /// True when `r` is not chosen yet and fits the remaining budget. Reads
    /// no correlation.
    pub(crate) fn is_affordable_new(&self, r: RoadId) -> bool {
        !self.chosen.contains(&r) && self.inst.cost(r) <= self.remaining_budget()
    }

    /// True unless `corr(r, c) ≤ θ` for every chosen `c`. Reads only row
    /// `r` of Γ.
    pub(crate) fn is_redundant(&self, r: RoadId) -> bool {
        !self.chosen.iter().all(|&c| self.inst.corr.corr(r, c) <= self.inst.theta)
    }

    /// Adds `r`, updating value, spend and per-query bests.
    ///
    /// # Panics
    /// Panics (debug) when the addition is infeasible.
    pub fn add(&mut self, r: RoadId) {
        debug_assert!(self.is_feasible_addition(r), "infeasible addition {r}");
        for (slot, &q) in self.best.iter_mut().zip(self.inst.queried.iter()) {
            let c = self.inst.corr.corr(q, r);
            if c > *slot {
                self.value += self.inst.sigma[q.index()] * (c - *slot);
                *slot = c;
            }
        }
        self.spent += self.inst.cost(r);
        self.chosen.push(r);
    }

    /// Freezes the state into a [`Selection`].
    pub fn into_selection(self) -> Selection {
        Selection { roads: self.chosen, value: self.value, spent: self.spent }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixture builders for OCS solver tests.

    use rtse_data::{SlotOfDay, SLOTS_PER_DAY};
    use rtse_graph::{Graph, GraphBuilder, RoadClass, RoadId};
    use rtse_rtf::{params::SlotParams, CorrelationTable, PathCorrelation, RtfModel};

    /// Builds a graph + correlation table with explicit per-edge ρ.
    pub fn table(n: usize, edges: &[(u32, u32, f64)]) -> (Graph, CorrelationTable) {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_road(RoadClass::Secondary, (i as f64, 0.0));
        }
        let mut rho = Vec::new();
        for &(x, y, r) in edges {
            if b.add_edge(RoadId(x), RoadId(y)) {
                rho.push(r);
            }
        }
        let g = b.build();
        let slots: Vec<SlotParams> = (0..SLOTS_PER_DAY)
            .map(|_| SlotParams { mu: vec![0.0; n], sigma: vec![1.0; n], rho: rho.clone() })
            .collect();
        let model = RtfModel::from_slots(n, g.num_edges(), slots);
        let table = CorrelationTable::build(&g, &model, SlotOfDay(0), PathCorrelation::MaxProduct);
        (g, table)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::table;
    use super::*;

    #[test]
    fn ocs_value_hand_example() {
        // 0-1 (ρ .8), 1-2 (ρ .6); query {0, 2} with σ = 2 and 3.
        let (_g, t) = table(3, &[(0, 1, 0.8), (1, 2, 0.6)]);
        let sigma = vec![2.0, 1.0, 3.0];
        let costs = vec![1, 1, 1];
        let queried = [RoadId(0), RoadId(2)];
        let candidates = [RoadId(1)];
        let inst = OcsInstance {
            sigma: &sigma,
            corr: &t,
            queried: &queried,
            candidates: &candidates,
            costs: &costs,
            budget: 5,
            theta: 1.0,
        };
        // corr(0,1)=.8, corr(2,1)=.6 → 2*.8 + 3*.6 = 3.4
        let v = ocs_value(&inst, &[RoadId(1)]);
        assert!((v - 3.4).abs() < 1e-12);
        assert_eq!(ocs_value(&inst, &[]), 0.0);
    }

    #[test]
    fn state_matches_direct_evaluation() {
        let (_g, t) = table(4, &[(0, 1, 0.9), (1, 2, 0.7), (2, 3, 0.5)]);
        let sigma = vec![1.0, 2.0, 1.5, 0.5];
        let costs = vec![1, 2, 1, 3];
        let queried = [RoadId(0), RoadId(3)];
        let candidates = [RoadId(1), RoadId(2)];
        let inst = OcsInstance {
            sigma: &sigma,
            corr: &t,
            queried: &queried,
            candidates: &candidates,
            costs: &costs,
            budget: 10,
            theta: 1.0,
        };
        let mut st = SelectionState::new(&inst);
        let g1 = st.gain(RoadId(1));
        assert!((g1 - ocs_value(&inst, &[RoadId(1)])).abs() < 1e-12);
        st.add(RoadId(1));
        let g2 = st.gain(RoadId(2));
        let direct = ocs_value(&inst, &[RoadId(1), RoadId(2)]) - ocs_value(&inst, &[RoadId(1)]);
        assert!((g2 - direct).abs() < 1e-12);
        st.add(RoadId(2));
        assert!((st.value() - ocs_value(&inst, &[RoadId(1), RoadId(2)])).abs() < 1e-12);
        assert_eq!(st.spent(), 3);
    }

    #[test]
    fn feasibility_checks() {
        let (_g, t) = table(3, &[(0, 1, 0.95), (1, 2, 0.6)]);
        let sigma = vec![1.0; 3];
        let costs = vec![2, 2, 2];
        let queried = [RoadId(2)];
        let candidates = [RoadId(0), RoadId(1)];
        let inst = OcsInstance {
            sigma: &sigma,
            corr: &t,
            queried: &queried,
            candidates: &candidates,
            costs: &costs,
            budget: 4,
            theta: 0.9,
        };
        let mut st = SelectionState::new(&inst);
        assert!(st.is_feasible_addition(RoadId(0)));
        st.add(RoadId(0));
        // Duplicate rejected.
        assert!(!st.is_feasible_addition(RoadId(0)));
        // corr(0,1) = .95 > θ = .9: redundant.
        assert!(!st.is_feasible_addition(RoadId(1)));
    }

    #[test]
    fn budget_exhaustion_blocks_addition() {
        let (_g, t) = table(2, &[(0, 1, 0.5)]);
        let sigma = vec![1.0; 2];
        let costs = vec![3, 3];
        let queried = [RoadId(0)];
        let candidates = [RoadId(0), RoadId(1)];
        let inst = OcsInstance {
            sigma: &sigma,
            corr: &t,
            queried: &queried,
            candidates: &candidates,
            costs: &costs,
            budget: 5,
            theta: 1.0,
        };
        let mut st = SelectionState::new(&inst);
        st.add(RoadId(0));
        assert_eq!(st.remaining_budget(), 2);
        assert!(!st.is_feasible_addition(RoadId(1)));
    }
}
