//! GSP — Graph-based Speed Propagation (Section VI, Alg. 5).
//!
//! Given crowdsourced speeds for the sampled roads, GSP infers the speed of
//! every other road by maximizing the RTF likelihood (Eq. 16):
//!
//! 1. **Initialization** — sampled roads take their crowdsourced values;
//!    all other roads take their slot means `μ_i^t`.
//! 2. **Iterative update** — roads are visited in BFS-layer order from the
//!    sampled set (1-hop ring first, then 2-hop, …) and each receives the
//!    closed-form coordinate argmax of Eq. (18). Rounds repeat until every
//!    change falls below `ε`.
//!
//! Each Eq. (18) update is the exact argmax of the joint configuration
//! likelihood in that coordinate, so the sweep is coordinate ascent: the
//! likelihood is non-decreasing and the iteration converges.
//!
//! One private sweep runs that recurrence for every entry point: the cold
//! [`GspSolver::propagate`] seeds from `μ`, [`propagate_warm`] from the
//! caller's values, and [`propagate_delta`] from the previous round with a
//! dirty frontier. All three share one observation contract and leave
//! unreachable roads at `μ`. The crate is single-threaded; the paper's
//! layer-parallel sweep (same-layer, non-adjacent roads updated
//! concurrently) is not shipped.

pub mod delta;
pub mod exact;
pub mod relax;
pub mod schedule;
pub mod solver;
mod sweep;
pub mod uncertainty;

pub use delta::{propagate_delta, propagate_delta_observed, DeltaGsp, DeltaResult};
pub use exact::exact_map_estimate;
pub use relax::{propagate_warm, propagate_warm_observed};
pub use schedule::UpdateSchedule;
pub use solver::{GspResult, GspSolver};
pub use uncertainty::{sample_posterior, PosteriorSummary};
