//! Lazy-evaluation greedy (accelerated Objective-Greedy).
//!
//! The OCS objective (Eq. 13) is monotone submodular in `R^c` — adding a
//! road can only shrink another road's marginal gain. The classic
//! lazy-greedy trick (Minoux) therefore applies: keep candidates in a
//! max-heap keyed by their *last known* gain; pop the top, recompute its
//! gain, and only if it still tops the heap commit it. Output is identical
//! to [`crate::objective_greedy`] (asserted by tests) but large instances
//! skip most gain evaluations.
//!
//! (Submodularity does not extend across the redundancy constraint — a
//! candidate that was infeasible can never become feasible again as the
//! selection grows, so stale "infeasible" verdicts remain safe to keep.)
//!
//! ## Which rows of Γ a solve reads
//!
//! Gains read the rows of the queried roads `R^q`; the redundancy test
//! `corr(r, c) ≤ θ` is the only read of a candidate's own row. Every pop
//! runs the cheap duplicate and budget test, but the redundancy test runs
//! only when a fresh entry reaches the top, right before it would commit.
//! Feasibility only shrinks as `R^c` grows, so a redundant candidate left
//! in the heap can never commit and the selections are unchanged; what
//! changes is that a solve reads the rows of `R^q`, of `R^c`, and of the
//! candidates rejected at commit — not of every candidate it pops. With
//! rows built on first read (`rtse_rtf::CorrelationTable`), that is the
//! work a cold slot's first round pays.

use crate::objective::SelectionState;
use crate::problem::{OcsInstance, Selection};
use rtse_graph::RoadId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapItem {
    gain: f64,
    road: RoadId,
    /// Selection size when the gain was computed (staleness stamp).
    round: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Gains are finite by construction; `total_cmp` keeps the order
        // total without an abort path.
        self.gain.total_cmp(&other.gain).then(other.road.cmp(&self.road)) // lower id wins ties
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Objective-Greedy with lazy gain evaluation. Identical selections to
/// [`crate::objective_greedy`], asymptotically fewer gain computations.
pub fn lazy_objective_greedy(inst: &OcsInstance<'_>) -> Selection {
    lazy_greedy_by(inst, |state, road| state.gain(road))
}

/// Ratio-Greedy with lazy gain evaluation. Identical selections to
/// [`crate::ratio_greedy`] — the gain/cost score is submodular divided by a
/// constant per candidate, so stale scores remain upper bounds and the
/// Minoux argument still applies.
pub fn lazy_ratio_greedy(inst: &OcsInstance<'_>) -> Selection {
    lazy_greedy_by(inst, |state, road| state.gain(road) / inst.cost(road) as f64)
}

/// Hybrid-Greedy (Alg. 4) built from the two lazy components.
pub fn lazy_hybrid_greedy(inst: &OcsInstance<'_>) -> Selection {
    let ratio = lazy_ratio_greedy(inst);
    let objective = lazy_objective_greedy(inst);
    if ratio.value >= objective.value {
        ratio
    } else {
        objective
    }
}

fn lazy_greedy_by(
    inst: &OcsInstance<'_>,
    score: impl Fn(&SelectionState<'_>, RoadId) -> f64,
) -> Selection {
    inst.validate();
    let mut state = SelectionState::new(inst);
    let mut heap: BinaryHeap<HeapItem> = inst
        .candidates
        .iter()
        .map(|&road| HeapItem { gain: f64::INFINITY, road, round: usize::MAX })
        .collect();
    loop {
        let round = state.chosen().len();
        let mut committed = false;
        while let Some(top) = heap.pop() {
            if !state.is_affordable_new(top.road) {
                continue; // never feasible again; drop permanently
            }
            if top.round == round {
                if state.is_redundant(top.road) {
                    continue; // never feasible again; drop permanently
                }
                // Fresh gain and on top of every (possibly stale, hence
                // upper-bounded) feasible competitor: commit. Tie-breaking
                // matches the plain greedy because fresh ties sort by road
                // id.
                state.add(top.road);
                committed = true;
                break;
            }
            // Stale: refresh and reinsert; never commit on a stale stamp so
            // equal-gain ties are always resolved among fresh entries.
            let fresh = score(&state, top.road);
            heap.push(HeapItem { gain: fresh, road: top.road, round });
        }
        if !committed {
            break;
        }
    }
    let sel = state.into_selection();
    crate::problem::debug_validate_selection(inst, &sel);
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_support::table;
    use crate::solvers::objective_greedy;
    use proptest::prelude::*;
    use rtse_rtf::{CorrelationRead, CorrelationTable};
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// A Γ that records the row (first argument) and count of every
    /// `corr` read it serves. The Eq. (11)–(12) defaults route through
    /// `corr`, so every read is seen.
    #[derive(Debug)]
    struct RowReads<'a> {
        inner: &'a CorrelationTable,
        seen: Mutex<(BTreeSet<RoadId>, usize)>,
    }

    impl<'a> RowReads<'a> {
        fn new(inner: &'a CorrelationTable) -> Self {
            Self { inner, seen: Mutex::new((BTreeSet::new(), 0)) }
        }

        fn rows(&self) -> BTreeSet<RoadId> {
            self.seen.lock().expect("no reader panicked").0.clone()
        }

        fn calls(&self) -> usize {
            self.seen.lock().expect("no reader panicked").1
        }
    }

    impl CorrelationRead for RowReads<'_> {
        fn num_roads(&self) -> usize {
            self.inner.num_roads()
        }

        fn corr(&self, a: RoadId, b: RoadId) -> f64 {
            let mut seen = self.seen.lock().expect("no reader panicked");
            seen.0.insert(a);
            seen.1 += 1;
            self.inner.corr(a, b)
        }
    }

    /// The rows a lazy solve may read: `R^q`, each selection's `R^c`, and
    /// the candidates rejected at commit. A candidate rejected at commit
    /// was redundant against the `R^c` of that moment, hence against the
    /// final one (feasibility only shrinks).
    fn allowed_rows(
        t: &CorrelationTable,
        queried: &[RoadId],
        candidates: &[RoadId],
        theta: f64,
        selections: &[&Selection],
    ) -> BTreeSet<RoadId> {
        let mut allowed: BTreeSet<RoadId> = queried.iter().copied().collect();
        for sel in selections {
            allowed.extend(sel.roads.iter().copied());
            allowed.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&r| sel.roads.iter().any(|&c| t.corr(r, c) > theta)),
            );
        }
        allowed
    }

    /// Runs `solve` on a counting Γ and checks its row reads against
    /// [`allowed_rows`]; returns the rows read and the `corr` calls made.
    #[allow(clippy::too_many_arguments)]
    fn reads_of(
        t: &CorrelationTable,
        sigma: &[f64],
        costs: &[u32],
        queried: &[RoadId],
        candidates: &[RoadId],
        budget: u32,
        theta: f64,
        solve: fn(&OcsInstance<'_>) -> Selection,
        solves: &[fn(&OcsInstance<'_>) -> Selection],
    ) -> (BTreeSet<RoadId>, usize) {
        let reads = RowReads::new(t);
        let inst = OcsInstance { sigma, corr: &reads, queried, candidates, costs, budget, theta };
        let picked = solve(&inst);
        let plain = OcsInstance { corr: t, ..inst.clone() };
        assert_eq!(picked, solve(&plain), "counting must not steer the solve");
        let components: Vec<Selection> = solves.iter().map(|f| f(&plain)).collect();
        let refs: Vec<&Selection> = components.iter().collect();
        let allowed = allowed_rows(t, queried, candidates, theta, &refs);
        let rows = reads.rows();
        assert!(
            rows.is_subset(&allowed),
            "read rows {rows:?} outside R^q ∪ R^c ∪ rejected-at-commit {allowed:?}"
        );
        (rows, reads.calls())
    }

    #[test]
    fn lazy_solve_reads_only_query_selected_and_rejected_rows() {
        // A 12-road ring with chords; two queried roads, ten candidates,
        // a budget for three picks and a θ that makes neighbors redundant.
        let mut edges: Vec<(u32, u32, f64)> =
            (0..12).map(|i| (i, (i + 1) % 12, 0.6 + 0.03 * i as f64)).collect();
        edges.extend([(0, 6, 0.5), (3, 9, 0.55), (2, 7, 0.45)]);
        let (_g, t) = table(12, &edges);
        let sigma: Vec<f64> = (0..12).map(|i| 1.0 + 0.1 * i as f64).collect();
        let costs = vec![1; 12];
        let queried = [RoadId(0), RoadId(6)];
        let candidates: Vec<RoadId> = (1..12).filter(|&i| i != 6).map(RoadId).collect();
        let (rows, lazy_calls) = reads_of(
            &t,
            &sigma,
            &costs,
            &queried,
            &candidates,
            3,
            0.7,
            lazy_objective_greedy,
            &[lazy_objective_greedy],
        );
        assert!(rows.len() < queried.len() + candidates.len(), "some candidate rows stay unread");
        let plain = RowReads::new(&t);
        let inst = OcsInstance {
            sigma: &sigma,
            corr: &plain,
            queried: &queried,
            candidates: &candidates,
            costs: &costs,
            budget: 3,
            theta: 0.7,
        };
        objective_greedy(&inst);
        assert!(lazy_calls < plain.calls(), "{lazy_calls} lazy vs {} plain", plain.calls());
    }

    #[test]
    fn matches_plain_objective_greedy_on_example() {
        let (_g, t) = table(
            6,
            &[(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (3, 4, 0.6), (4, 5, 0.5), (0, 5, 0.4)],
        );
        let sigma: Vec<f64> = (0..6).map(|i| 1.0 + 0.4 * i as f64).collect();
        let costs = vec![1, 2, 3, 1, 2, 3];
        let queried = [RoadId(0), RoadId(3)];
        let candidates = [RoadId(1), RoadId(2), RoadId(4), RoadId(5)];
        for budget in 0..10 {
            let inst = OcsInstance {
                sigma: &sigma,
                corr: &t,
                queried: &queried,
                candidates: &candidates,
                costs: &costs,
                budget,
                theta: 0.95,
            };
            let lazy = lazy_objective_greedy(&inst);
            let plain = objective_greedy(&inst);
            assert_eq!(lazy, plain, "budget {budget}");
        }
    }

    proptest! {
        /// Lazy and plain variants agree on random instances, for all three
        /// solver families.
        #[test]
        fn lazy_equals_plain(
            edges in proptest::collection::vec((0u32..8, 0u32..8, 0.05..0.95f64), 4..20),
            costs in proptest::collection::vec(1u32..6, 8),
            budget in 0u32..15,
            theta in 0.5..1.0f64,
        ) {
            let edges: Vec<(u32, u32, f64)> =
                edges.into_iter().filter(|(a, b, _)| a != b).collect();
            prop_assume!(!edges.is_empty());
            let (_g, t) = table(8, &edges);
            let sigma: Vec<f64> = (0..8).map(|i| 0.5 + 0.3 * i as f64).collect();
            let queried = [RoadId(0), RoadId(4)];
            let candidates = [RoadId(1), RoadId(2), RoadId(3), RoadId(5), RoadId(6), RoadId(7)];
            let inst = OcsInstance {
                sigma: &sigma,
                corr: &t,
                queried: &queried,
                candidates: &candidates,
                costs: &costs,
                budget,
                theta,
            };
            prop_assert_eq!(lazy_objective_greedy(&inst), objective_greedy(&inst));
            prop_assert_eq!(lazy_ratio_greedy(&inst), crate::solvers::ratio_greedy(&inst));
            prop_assert_eq!(lazy_hybrid_greedy(&inst), crate::solvers::hybrid_greedy(&inst));
        }

        /// The same agreement where most candidates are infeasible: a low
        /// θ makes many pairs redundant and a tight budget leaves many
        /// candidates unaffordable. These are the candidates whose
        /// redundancy test the lazy solver defers to commit time.
        #[test]
        fn lazy_equals_plain_when_most_candidates_are_infeasible(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0.3..0.99f64), 10..36),
            costs in proptest::collection::vec(1u32..8, 12),
            budget in 0u32..9,
            theta in 0.05..0.8f64,
        ) {
            let edges: Vec<(u32, u32, f64)> =
                edges.into_iter().filter(|(a, b, _)| a != b).collect();
            prop_assume!(!edges.is_empty());
            let (_g, t) = table(12, &edges);
            let sigma: Vec<f64> = (0..12).map(|i| 0.5 + 0.2 * i as f64).collect();
            let queried = [RoadId(0), RoadId(5), RoadId(11)];
            let candidates: Vec<RoadId> = (1..11).filter(|&i| i != 5).map(RoadId).collect();
            let inst = OcsInstance {
                sigma: &sigma,
                corr: &t,
                queried: &queried,
                candidates: &candidates,
                costs: &costs,
                budget,
                theta,
            };
            prop_assert_eq!(lazy_objective_greedy(&inst), objective_greedy(&inst));
            prop_assert_eq!(lazy_ratio_greedy(&inst), crate::solvers::ratio_greedy(&inst));
            prop_assert_eq!(lazy_hybrid_greedy(&inst), crate::solvers::hybrid_greedy(&inst));
        }

        /// A lazy solve reads Γ rows of `R^q`, of `R^c` and of candidates
        /// rejected at commit, never of a candidate it only popped.
        #[test]
        fn lazy_solves_read_only_needed_rows(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0.3..0.99f64), 10..36),
            costs in proptest::collection::vec(1u32..6, 12),
            budget in 0u32..12,
            theta in 0.05..1.0f64,
        ) {
            let edges: Vec<(u32, u32, f64)> =
                edges.into_iter().filter(|(a, b, _)| a != b).collect();
            prop_assume!(!edges.is_empty());
            let (_g, t) = table(12, &edges);
            let sigma: Vec<f64> = (0..12).map(|i| 0.5 + 0.2 * i as f64).collect();
            let queried = [RoadId(0), RoadId(5), RoadId(11)];
            let candidates: Vec<RoadId> = (1..11).filter(|&i| i != 5).map(RoadId).collect();
            let run = |solve, solves: &[fn(&OcsInstance<'_>) -> Selection]| {
                reads_of(&t, &sigma, &costs, &queried, &candidates, budget, theta, solve, solves)
            };
            run(lazy_objective_greedy, &[lazy_objective_greedy]);
            run(lazy_ratio_greedy, &[lazy_ratio_greedy]);
            run(lazy_hybrid_greedy, &[lazy_ratio_greedy, lazy_objective_greedy]);
        }
    }
}
