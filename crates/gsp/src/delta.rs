//! Delta-GSP: incremental re-propagation from the previous fixed point.
//!
//! Realtime serving recomputes a slot's round every few seconds even when
//! only one crowd value moved; a full Alg. 5 sweep then re-relaxes every
//! scheduled road to rediscover a fixed point that barely shifted. Delta
//! propagation exploits the locality of sparse updates (the LSM-RN /
//! spatio-temporal-correlation argument): it warm-starts from the previous
//! round's values and re-relaxes only the **dirty frontier** — roads whose
//! inputs actually moved — expanding along Γ-neighborhoods until residuals
//! fall below the solver's convergence tolerance.
//!
//! ## Frontier rule
//!
//! A scheduled road enters the dirty set when
//!
//! 1. a neighboring observation moved more than [`DeltaGsp::epsilon`]
//!    against the previous round's value for that road (covers changed
//!    *and* newly added observations), or
//! 2. the caller names a road in `changed` (covers observations *removed*
//!    since the previous round, which the value diff cannot see — the
//!    stored value still equals the stale observation), or
//! 3. during the sweep, a dirty neighbor's relaxation moved its value by
//!    at least the convergence tolerance `base.epsilon` (residual
//!    expansion: the move invalidates every adjacent argmax).
//!
//! Scheduled roads never reached by this closure keep their previous
//! value — which is exactly the Eq. (18) argmax they already sat at,
//! because [`optimal_update`] reads only the road's own parameters and
//! its neighbors' values, and none of those moved. Roads *outside* the
//! schedule (unreachable from the current observation set) revert to the
//! slot prior `μ`, matching where a full propagation leaves them: when a
//! component's last probe expires, its estimates must decay to the prior,
//! not silently coast on stale crowd data.
//!
//! ## ε semantics and the full-sweep mode
//!
//! `epsilon` bounds how far an *input* may drift before the affected
//! neighborhood is re-relaxed; the previous fixed point is itself only a
//! `base.epsilon`-approximate stationary point, so skipped roads can carry
//! residual error up to that same order. Setting `epsilon <= 0.0` disables
//! skipping entirely: every scheduled road is re-relaxed every sweep in
//! schedule order, making the run **bit-identical** to
//! [`propagate_warm`](crate::propagate_warm) from the same previous values
//! on every scheduled or observed road (both execute the same Gauss–Seidel
//! recurrence; unreachable roads are the one deliberate difference — delta
//! resets them to `μ` where warm keeps the seed; property-tested in
//! `tests/proptest_delta.rs`).
//!
//! ## Fallback conditions
//!
//! Delta propagation needs a previous fixed point *for the same slot and
//! model*. Callers fall back to a full cold propagation when no previous
//! round exists (first round of a slot, including after a slot rollover —
//! the serving layer's per-slot cache cells make a cross-slot seed
//! structurally impossible) or when the previous values' length disagrees
//! with the network.

use crate::schedule::UpdateSchedule;
use crate::solver::{GspResult, GspSolver};
use rtse_graph::{Graph, RoadId};
use rtse_obs::{ObsHandle, Stage};
use rtse_rtf::likelihood::optimal_update;
use rtse_rtf::params::SlotParams;

/// Delta propagation configuration.
#[derive(Debug, Clone, Copy)]
pub struct DeltaGsp {
    /// Convergence/round settings shared with the full solver.
    pub base: GspSolver,
    /// Input-movement threshold ε: an observation must move the initial
    /// value of a road by more than this before its neighborhood is
    /// seeded dirty. `<= 0.0` disables skipping (full-sweep mode,
    /// bit-identical to a warm full propagation).
    pub epsilon: f64,
}

impl Default for DeltaGsp {
    /// Full-sweep mode by default: delta skipping is opt-in.
    fn default() -> Self {
        Self { base: GspSolver::default(), epsilon: 0.0 }
    }
}

/// Output of a delta propagation: the ordinary [`GspResult`] plus the
/// frontier accounting the benchmarks and the regression gate read.
#[derive(Debug, Clone)]
pub struct DeltaResult {
    /// The propagation result (same contract as the full solver's).
    pub result: GspResult,
    /// Scheduled roads the changed inputs seeded dirty before the sweep.
    pub frontier: usize,
    /// Roads the sweep was asked to relax each round (schedule size).
    pub scheduled: usize,
    /// Eq. (18) relaxations actually evaluated.
    pub evaluated: usize,
    /// Scheduled-road visits skipped because the road's inputs never
    /// moved. A full sweep would have paid these for nothing.
    pub skipped: usize,
    /// Whether the run executed in full-sweep mode (`epsilon <= 0.0`).
    pub full_sweep: bool,
}

impl rtse_check::Validate for DeltaResult {
    /// Delta-accounting contract on top of the propagation-output
    /// contract: every sweep visits every scheduled road exactly once,
    /// either evaluating or skipping it, and full-sweep mode never skips.
    fn validate(&self) -> Result<(), rtse_check::InvariantViolation> {
        use rtse_check::ensure;
        rtse_check::Validate::validate(&self.result)?;
        ensure(
            self.evaluated + self.skipped == self.result.rounds * self.scheduled,
            "gsp.delta_visit_accounting",
            || {
                format!(
                    "{} evaluated + {} skipped != {} rounds x {} scheduled",
                    self.evaluated, self.skipped, self.result.rounds, self.scheduled
                )
            },
        )?;
        ensure(
            !self.full_sweep || self.skipped == 0,
            "gsp.delta_full_sweep_skips_nothing",
            || format!("full-sweep run skipped {} visits", self.skipped),
        )?;
        ensure(self.frontier <= self.scheduled, "gsp.delta_frontier_in_schedule", || {
            format!("frontier {} exceeds schedule {}", self.frontier, self.scheduled)
        })
    }
}

/// Incremental propagation from the previous round's fixed point.
///
/// `prev` is the previous round's full-network values for the **same slot
/// and model**; `changed` names roads whose observation was removed or is
/// otherwise known-stale since that round (roads whose observation merely
/// changed value are detected internally by diffing against `prev`).
///
/// # Panics
/// Panics when `prev.len()` differs from the road count or the model
/// dimensions disagree with the graph.
pub fn propagate_delta(
    solver: &DeltaGsp,
    graph: &Graph,
    params: &SlotParams,
    observations: &[(RoadId, f64)],
    prev: &[f64],
    changed: &[RoadId],
) -> DeltaResult {
    propagate_delta_observed(solver, graph, params, observations, prev, changed, &ObsHandle::noop())
}

/// [`propagate_delta`] with instrumentation: one `gsp.round` span for the
/// run, the sweep count in `gsp.iters_to_converge`, the seeded frontier
/// size in `gsp.delta_frontier`, and every skipped visit counted into
/// `gsp.delta_skipped`. Estimates are bit-identical to the unobserved
/// call.
///
/// # Panics
/// Panics when `prev.len()` differs from the road count or the model
/// dimensions disagree with the graph.
pub fn propagate_delta_observed(
    solver: &DeltaGsp,
    graph: &Graph,
    params: &SlotParams,
    observations: &[(RoadId, f64)],
    prev: &[f64],
    changed: &[RoadId],
    obs: &ObsHandle,
) -> DeltaResult {
    let _span = obs.span(Stage::GspRound);
    assert_eq!(params.mu.len(), graph.num_roads(), "params/graph mismatch");
    assert_eq!(prev.len(), graph.num_roads(), "previous round length mismatch");
    // Full-sweep mode when ε cannot exclude anything: the sign test is
    // exact by design, not a tolerance comparison, and a NaN ε must fall
    // back to the safe full sweep rather than skip everything.
    let full_sweep = solver.epsilon <= 0.0 || solver.epsilon.is_nan();

    let mut values = prev.to_vec();
    let sampled: Vec<RoadId> = observations.iter().map(|&(r, _)| r).collect();
    let schedule = UpdateSchedule::new(graph, &sampled);
    let scheduled_total = schedule.num_scheduled();

    // Membership mask: frontier expansion only ever marks roads the
    // schedule will visit (observed roads hold their value; unreachable
    // roads are never relaxed by the full solver either).
    let mut scheduled = vec![false; graph.num_roads()];
    for r in schedule.iter() {
        scheduled[r.index()] = true;
    }
    let mut observed = vec![false; graph.num_roads()];
    for &(r, _) in observations {
        observed[r.index()] = true;
    }

    // Roads neither scheduled nor observed revert to the slot prior —
    // exactly where the full solver leaves them. Carrying the previous
    // value instead would keep estimates alive in components whose last
    // probe expired, silently diverging from full propagation. Safe
    // before the diff seeding below: the diff only reads observed roads,
    // which this never touches.
    for i in 0..graph.num_roads() {
        if !scheduled[i] && !observed[i] {
            values[i] = params.mu[i];
        }
    }

    // Seed the dirty frontier from the input diff before snapping the new
    // observations in: `values` still holds the previous round here, so
    // the diff sees exactly how far each observation moved.
    let mut dirty = vec![false; graph.num_roads()];
    let mut frontier = 0usize;
    if !full_sweep {
        for &(r, v) in observations {
            if (v - values[r.index()]).abs() > solver.epsilon {
                for &(n, _) in graph.neighbors(r) {
                    if scheduled[n.index()] && !dirty[n.index()] {
                        dirty[n.index()] = true;
                        frontier += 1;
                    }
                }
            }
        }
        for &r in changed {
            if r.index() >= graph.num_roads() {
                continue;
            }
            if scheduled[r.index()] && !dirty[r.index()] {
                dirty[r.index()] = true;
                frontier += 1;
            }
            for &(n, _) in graph.neighbors(r) {
                if scheduled[n.index()] && !dirty[n.index()] {
                    dirty[n.index()] = true;
                    frontier += 1;
                }
            }
        }
    }
    for &(r, v) in observations {
        values[r.index()] = v;
    }

    let base = &solver.base;
    let mut trace = Vec::new();
    let mut rounds = 0usize;
    let mut evaluated = 0usize;
    let mut skipped = 0usize;
    let mut converged =
        sampled.is_empty() || scheduled_total == 0 || (!full_sweep && frontier == 0);
    while !converged && rounds < base.max_rounds {
        rounds += 1;
        let mut max_delta = 0.0_f64;
        let mut next_frontier = 0usize;
        for layer in schedule.layers() {
            for &r in layer {
                if !full_sweep && !dirty[r.index()] {
                    skipped += 1;
                    continue;
                }
                dirty[r.index()] = false;
                let next = optimal_update(graph, params, &values, r);
                let change = (next - values[r.index()]).abs();
                max_delta = max_delta.max(change);
                values[r.index()] = next;
                evaluated += 1;
                if !full_sweep && change >= base.epsilon {
                    // Residual expansion: the move invalidates every
                    // adjacent argmax, so the neighborhood re-enters the
                    // frontier for the next visit.
                    for &(n, _) in graph.neighbors(r) {
                        if scheduled[n.index()] && !dirty[n.index()] {
                            dirty[n.index()] = true;
                            next_frontier += 1;
                        }
                    }
                }
            }
        }
        if base.record_trace {
            trace.push(max_delta);
        }
        converged = max_delta < base.epsilon || (!full_sweep && next_frontier == 0);
    }
    obs.record(Stage::GspItersToConverge, rounds as u64);
    obs.record(Stage::GspDeltaFrontier, frontier as u64);
    obs.add(Stage::GspDeltaSkipped, skipped as u64);
    let result = DeltaResult {
        result: GspResult {
            values,
            rounds,
            converged,
            unreachable: schedule.unreachable().to_vec(),
            delta_trace: trace,
        },
        frontier,
        scheduled: scheduled_total,
        evaluated,
        skipped,
        full_sweep,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::propagate_warm;
    use rtse_graph::generators::{grid, path};

    fn params_for(graph: &Graph, mu: f64, sigma: f64, rho: f64) -> SlotParams {
        SlotParams {
            mu: vec![mu; graph.num_roads()],
            sigma: vec![sigma; graph.num_roads()],
            rho: vec![rho; graph.num_edges()],
        }
    }

    fn tight() -> GspSolver {
        GspSolver { epsilon: 1e-9, max_rounds: 10_000, record_trace: false }
    }

    #[test]
    fn full_sweep_mode_is_bit_identical_to_warm_propagation() {
        let g = grid(5, 5);
        let p = params_for(&g, 40.0, 2.5, 0.9);
        let solver = tight();
        let first = solver.propagate(&g, &p, &[(RoadId(0), 25.0)]);
        let obs2 = [(RoadId(0), 25.4), (RoadId(24), 49.0)];
        let warm = propagate_warm(&solver, &g, &p, &obs2, &first.values);
        let delta = propagate_delta(
            &DeltaGsp { base: solver, epsilon: 0.0 },
            &g,
            &p,
            &obs2,
            &first.values,
            &[],
        );
        assert!(delta.full_sweep);
        assert_eq!(delta.skipped, 0);
        assert_eq!(delta.result.rounds, warm.rounds);
        for r in g.road_ids() {
            assert_eq!(
                delta.result.speed(r).to_bits(),
                warm.speed(r).to_bits(),
                "road {r}: delta {} vs warm {}",
                delta.result.speed(r),
                warm.speed(r)
            );
        }
    }

    #[test]
    fn unchanged_inputs_skip_the_whole_sweep() {
        let g = grid(5, 5);
        let p = params_for(&g, 40.0, 2.5, 0.9);
        let solver = tight();
        let obs = [(RoadId(0), 25.0), (RoadId(24), 50.0)];
        let first = solver.propagate(&g, &p, &obs);
        assert!(first.converged);
        let delta = propagate_delta(
            &DeltaGsp { base: solver, epsilon: 1e-6 },
            &g,
            &p,
            &obs,
            &first.values,
            &[],
        );
        assert_eq!(delta.frontier, 0, "identical inputs must seed nothing");
        assert_eq!(delta.result.rounds, 0);
        assert_eq!(delta.evaluated, 0);
        assert!(delta.result.converged);
        for r in g.road_ids() {
            assert_eq!(delta.result.speed(r).to_bits(), first.speed(r).to_bits());
        }
    }

    #[test]
    fn single_moved_observation_relaxes_fewer_roads_than_full() {
        let g = grid(8, 8);
        let p = params_for(&g, 40.0, 2.5, 0.85);
        let solver = tight();
        let obs1 = [(RoadId(0), 25.0), (RoadId(63), 50.0)];
        let first = solver.propagate(&g, &p, &obs1);
        // One observation nudges; the far corner's reading is unchanged.
        let obs2 = [(RoadId(0), 25.01), (RoadId(63), 50.0)];
        let warm = propagate_warm(&solver, &g, &p, &obs2, &first.values);
        let delta = propagate_delta(
            &DeltaGsp { base: solver, epsilon: 1e-6 },
            &g,
            &p,
            &obs2,
            &first.values,
            &[],
        );
        assert!(delta.result.converged);
        assert!(delta.skipped > 0, "a localized change must skip visits");
        let full_relaxations = warm.rounds * delta.scheduled;
        assert!(
            delta.evaluated < full_relaxations,
            "delta evaluated {} vs full {}",
            delta.evaluated,
            full_relaxations
        );
        for r in g.road_ids() {
            assert!(
                (delta.result.speed(r) - warm.speed(r)).abs() < 1e-4,
                "road {r}: delta {} vs warm {}",
                delta.result.speed(r),
                warm.speed(r)
            );
        }
    }

    #[test]
    fn removed_observation_needs_the_changed_hint() {
        let g = path(6);
        let p = params_for(&g, 40.0, 2.5, 0.9);
        let solver = tight();
        let obs1 = [(RoadId(0), 20.0), (RoadId(5), 55.0)];
        let first = solver.propagate(&g, &p, &obs1);
        // RoadId(5)'s probe expired: without the hint the stored value
        // still equals the stale observation, so nothing looks moved.
        let obs2 = [(RoadId(0), 20.0)];
        let cfg = DeltaGsp { base: solver, epsilon: 1e-6 };
        let blind = propagate_delta(&cfg, &g, &p, &obs2, &first.values, &[]);
        assert_eq!(blind.frontier, 0, "the diff alone cannot see a removal");
        let hinted = propagate_delta(&cfg, &g, &p, &obs2, &first.values, &[RoadId(5)]);
        assert!(hinted.frontier > 0);
        let cold = solver.propagate(&g, &p, &obs2);
        assert!(hinted.result.converged && cold.converged);
        for r in g.road_ids() {
            assert!(
                (hinted.result.speed(r) - cold.speed(r)).abs() < 1e-3,
                "road {r}: hinted {} vs cold {}",
                hinted.result.speed(r),
                cold.speed(r)
            );
        }
    }

    #[test]
    fn out_of_range_changed_hints_are_ignored() {
        let g = path(4);
        let p = params_for(&g, 40.0, 2.0, 0.8);
        let solver = tight();
        let obs = [(RoadId(0), 30.0)];
        let first = solver.propagate(&g, &p, &obs);
        let delta = propagate_delta(
            &DeltaGsp { base: solver, epsilon: 1e-6 },
            &g,
            &p,
            &obs,
            &first.values,
            &[RoadId(999)],
        );
        assert!(delta.result.converged);
    }

    #[test]
    fn visit_accounting_holds() {
        let g = grid(6, 6);
        let p = params_for(&g, 40.0, 2.5, 0.9);
        let solver = tight();
        let obs1 = [(RoadId(0), 25.0)];
        let first = solver.propagate(&g, &p, &obs1);
        let obs2 = [(RoadId(0), 27.0), (RoadId(35), 44.0)];
        let delta = propagate_delta(
            &DeltaGsp { base: solver, epsilon: 1e-6 },
            &g,
            &p,
            &obs2,
            &first.values,
            &[],
        );
        assert_eq!(
            delta.evaluated + delta.skipped,
            delta.result.rounds * delta.scheduled,
            "every sweep visits every scheduled road exactly once"
        );
        assert!(rtse_check::Validate::validate(&delta).is_ok());
    }

    #[test]
    fn instrumented_run_records_delta_stages() {
        let g = grid(5, 5);
        let p = params_for(&g, 40.0, 2.5, 0.9);
        let solver = tight();
        let first = solver.propagate(&g, &p, &[(RoadId(0), 25.0)]);
        let reg = std::sync::Arc::new(rtse_obs::Registry::new());
        let handle = ObsHandle::from_registry(reg.clone());
        let delta = propagate_delta_observed(
            &DeltaGsp { base: solver, epsilon: 1e-6 },
            &g,
            &p,
            &[(RoadId(0), 26.0)],
            &first.values,
            &[],
            &handle,
        );
        if handle.is_enabled() {
            // Under obs-noop every registry stays at zero.
            assert_eq!(reg.count(Stage::GspDeltaFrontier), 1);
            assert_eq!(reg.count(Stage::GspDeltaSkipped), delta.skipped as u64);
        }
    }

    #[test]
    #[should_panic(expected = "previous round length mismatch")]
    fn wrong_previous_length_rejected() {
        let g = path(3);
        let p = params_for(&g, 40.0, 2.0, 0.8);
        propagate_delta(&DeltaGsp::default(), &g, &p, &[(RoadId(0), 30.0)], &[1.0, 2.0], &[]);
    }
}
