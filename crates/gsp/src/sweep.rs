//! The one Eq. (18) sweep behind every propagation entry point.
//!
//! [`GspSolver::propagate`](crate::GspSolver::propagate),
//! [`propagate_warm`](crate::propagate_warm) and
//! [`propagate_delta`](crate::propagate_delta) differ only in the seed
//! they start from and in whether a dirty frontier gates the visits.
//! Everything else — the observation contract, the μ reset of roads no
//! observation reaches, the BFS schedule, the Gauss–Seidel recurrence, the
//! result and the instrumentation — is [`sweep`].

use crate::delta::DeltaResult;
use crate::schedule::UpdateSchedule;
use crate::solver::{GspResult, GspSolver};
use rtse_graph::{Graph, RoadId};
use rtse_obs::{ObsHandle, Stage};
use rtse_rtf::likelihood::optimal_update;
use rtse_rtf::params::SlotParams;

/// The delta inputs of a run seeded from a previous round (see
/// [`DeltaGsp`](crate::DeltaGsp) for the frontier rule).
pub(crate) struct Frontier<'a> {
    /// Input-movement threshold ε; `<= 0.0` (or NaN) sweeps fully.
    pub epsilon: f64,
    /// Roads whose observation was removed since the seed round.
    pub changed: &'a [RoadId],
}

/// Marks `r` dirty when it is a clean scheduled road; returns whether it
/// was newly marked. `None` entries (observed, unreachable or out of
/// range) are never relaxed, so they never enter the frontier.
fn mark(marks: &mut [Option<bool>], r: RoadId) -> bool {
    match marks.get_mut(r.index()) {
        Some(m @ Some(false)) => {
            *m = Some(true);
            true
        }
        _ => false,
    }
}

/// Marks every scheduled neighbor of `r`; returns how many were newly
/// marked.
fn mark_neighbors(marks: &mut [Option<bool>], graph: &Graph, r: RoadId) -> usize {
    let mut newly = 0;
    for &(n, _) in graph.neighbors(r) {
        newly += usize::from(mark(marks, n));
    }
    newly
}

/// Runs Alg. 5 from `seed` (length `num_roads`, checked by the caller).
///
/// Initialization copies the seed, snaps the observations in and resets
/// every road no observation reaches to its slot mean. With `frontier`
/// and a positive ε, a scheduled road is relaxed only while dirty; without
/// it every scheduled road is relaxed every round, in schedule order.
/// A `frontier` also records the `gsp.delta_*` stages, whatever its ε.
///
/// # Panics
/// Panics when an observed road id is out of range, when a road is
/// observed twice with different values, or when the model dimensions
/// disagree with the graph.
pub(crate) fn sweep(
    solver: &GspSolver,
    graph: &Graph,
    params: &SlotParams,
    observations: &[(RoadId, f64)],
    seed: &[f64],
    frontier: Option<Frontier<'_>>,
    obs: &ObsHandle,
) -> DeltaResult {
    let _span = obs.span(Stage::GspRound);
    let n = graph.num_roads();
    assert_eq!(params.mu.len(), n, "params/graph mismatch");
    // Initialization (Alg. 5 line 2): the seed everywhere, observed
    // values on the sampled roads.
    let mut values = seed.to_vec();
    let mut observed = vec![false; n];
    for &(r, v) in observations {
        assert!(r.index() < n, "observation for unknown road {r}");
        assert!(
            !observed[r.index()] || (values[r.index()] - v).abs() < 1e-12,
            "conflicting observations for {r}"
        );
        observed[r.index()] = true;
        values[r.index()] = v;
    }
    let sampled: Vec<RoadId> = observations.iter().map(|&(r, _)| r).collect();
    let schedule = UpdateSchedule::new(graph, &sampled);
    // Roads no observation reaches take the slot prior, whatever the seed
    // held: when a component's last probe expires, its estimates decay
    // to μ instead of coasting on stale crowd data.
    for &r in schedule.unreachable() {
        values[r.index()] = params.mu[r.index()];
    }

    // Frontier marks, only when ε can skip anything: `Some(dirty)` on
    // scheduled roads, `None` elsewhere. The seeding diff reads the seed,
    // which still holds the previous round's value of every observed road.
    let mut marks: Option<Vec<Option<bool>>> = None;
    let mut seeded = 0usize;
    if let Some(f) = frontier.as_ref().filter(|f| f.epsilon > 0.0) {
        let mut m = vec![None; n];
        for r in schedule.iter() {
            m[r.index()] = Some(false);
        }
        for &(r, v) in observations {
            if (v - seed[r.index()]).abs() > f.epsilon {
                seeded += mark_neighbors(&mut m, graph, r);
            }
        }
        for &r in f.changed.iter().filter(|r| r.index() < n) {
            seeded += usize::from(mark(&mut m, r)) + mark_neighbors(&mut m, graph, r);
        }
        marks = Some(m);
    }

    let mut trace = Vec::new();
    let mut rounds = 0usize;
    let mut evaluated = 0usize;
    let mut skipped = 0usize;
    let mut converged =
        sampled.is_empty() || schedule.num_scheduled() == 0 || (marks.is_some() && seeded == 0);
    while !converged && rounds < solver.max_rounds {
        rounds += 1;
        let mut max_delta = 0.0_f64;
        let mut next_frontier = 0usize;
        for layer in schedule.layers() {
            for &r in layer {
                if let Some(marks) = marks.as_mut() {
                    if marks[r.index()] != Some(true) {
                        skipped += 1;
                        continue;
                    }
                    marks[r.index()] = Some(false);
                }
                let next = optimal_update(graph, params, &values, r);
                let change = (next - values[r.index()]).abs();
                max_delta = max_delta.max(change);
                values[r.index()] = next;
                evaluated += 1;
                if let Some(marks) = marks.as_mut() {
                    // Residual expansion: the move invalidates every
                    // adjacent argmax.
                    if change >= solver.epsilon {
                        next_frontier += mark_neighbors(marks, graph, r);
                    }
                }
            }
        }
        if solver.record_trace {
            trace.push(max_delta);
        }
        converged = max_delta < solver.epsilon || (marks.is_some() && next_frontier == 0);
    }
    obs.record(Stage::GspItersToConverge, rounds as u64);
    if frontier.is_some() {
        obs.record(Stage::GspDeltaFrontier, seeded as u64);
        obs.add(Stage::GspDeltaSkipped, skipped as u64);
    }
    let result = DeltaResult {
        result: GspResult {
            values,
            rounds,
            converged,
            unreachable: schedule.unreachable().to_vec(),
            delta_trace: trace,
        },
        frontier: seeded,
        scheduled: schedule.num_scheduled(),
        evaluated,
        skipped,
        full_sweep: marks.is_none(),
    };
    #[cfg(feature = "validate")]
    {
        if let Err(v) = rtse_check::Validate::validate(params) {
            rtse_check::fail(&v);
        }
        if let Err(v) = rtse_check::Validate::validate(&result) {
            rtse_check::fail(&v);
        }
    }
    result
}
