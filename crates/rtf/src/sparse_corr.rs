//! Sparse top-k/thresholded correlation table for large networks.
//!
//! The dense [`CorrelationTable`] stores all `n²` pairs, which caps it at a
//! few thousand roads (607 in the paper's Hong Kong network, 10⁵–10⁶ in
//! real cities). Correlation decays multiplicatively along paths (Eq. 8),
//! so almost all pairs sit near zero — and OCS/GSP decisions are driven by
//! the large values. [`SparseCorrelationTable`] keeps, per road, only the
//! neighbors whose correlation clears a floor `f` (optionally capped to the
//! top-k strongest), stored in a CSR layout mirroring
//! `crates/graph/src/csr.rs`.
//!
//! ## Early-exit soundness
//!
//! Under `MaxProduct` semantics the Eq. 9 transform is `w = −ln ρ`, so the
//! correlation floor `f` becomes the cost bound `−ln f`: Dijkstra settles
//! roads in nondecreasing cost order, so the moment the smallest unsettled
//! cost exceeds `−ln f`, every remaining road has `exp(−dist) < f` and the
//! per-source run can stop ([`rtse_graph::BoundedDijkstra`]). Costs of
//! roads within the bound are bit-identical to the unbounded run, so for
//! every pair whose dense value is ≥ `f` the sparse table stores the exact
//! dense bits; pairs below the floor read as `0.0`.
//!
//! The `ReciprocalSum` ablation semantics has **no** such bound: a chain of
//! ρ≈1 edges keeps `Π ρ ≥ f` while `Σ 1/ρ` grows without limit, so no
//! reciprocal-cost radius can prove a correlation floor. Sparse builds are
//! therefore `MaxProduct`-only; callers needing the ablation semantics use
//! the dense table (see `CorrSubstrate` in `crowd-rtse-core`).

use crate::corr_table::{clamped_edge_rho, path_weights, CorrelationTable, PathCorrelation};
use crate::params::{RtfModel, SlotParams};
use rtse_data::SlotOfDay;
use rtse_graph::{BoundedDijkstra, Graph, RoadId};
use rtse_obs::{ObsHandle, Stage};
use rtse_pool::ComputePool;

/// Read interface shared by the dense and sparse correlation tables.
///
/// `ocs`, `gsp`, `core`, and `serve` consume Γ through this trait (via
/// `&dyn CorrelationRead`), so the substrate is swappable without
/// call-site churn. The defaults implement Eqs. (11)–(12) on top of
/// [`corr`](Self::corr); implementations may override them with faster
/// layouts.
pub trait CorrelationRead: std::fmt::Debug + Send + Sync {
    /// Number of roads covered.
    fn num_roads(&self) -> usize;

    /// `corr^t(r_a, r_b)` (Eqs. 7/10); `0.0` for pairs the substrate
    /// pruned.
    fn corr(&self, a: RoadId, b: RoadId) -> f64;

    /// Road–set correlation, Eq. (11): max over the set; 0 for an empty
    /// set.
    fn road_set_corr(&self, r: RoadId, set: &[RoadId]) -> f64 {
        set.iter().map(|&s| self.corr(r, s)).fold(0.0, f64::max)
    }

    /// Set–set correlation, Eq. (12).
    fn set_set_corr(&self, queried: &[RoadId], crowdsourced: &[RoadId]) -> f64 {
        queried.iter().map(|&q| self.road_set_corr(q, crowdsourced)).sum()
    }
}

impl CorrelationRead for CorrelationTable {
    fn num_roads(&self) -> usize {
        CorrelationTable::num_roads(self)
    }

    fn corr(&self, a: RoadId, b: RoadId) -> f64 {
        CorrelationTable::corr(self, a, b)
    }

    fn road_set_corr(&self, r: RoadId, set: &[RoadId]) -> f64 {
        CorrelationTable::road_set_corr(self, r, set)
    }

    fn set_set_corr(&self, queried: &[RoadId], crowdsourced: &[RoadId]) -> f64 {
        CorrelationTable::set_set_corr(self, queried, crowdsourced)
    }
}

/// Pruning knobs for [`SparseCorrelationTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseCorrConfig {
    /// Correlation floor `f ∈ (0, 1)`: pairs with `corr < f` are pruned
    /// (read as `0.0`). Doubles as the early-exit bound `−ln f` on the
    /// per-source Dijkstra.
    pub floor: f64,
    /// Optional per-row cap: keep only the `k` strongest surviving
    /// entries (ties broken toward the smaller road id). `None` keeps
    /// every entry above the floor.
    pub top_k: Option<usize>,
}

impl Default for SparseCorrConfig {
    /// Floor 0.01: one 607-road Hong Kong table keeps ρ-chains down to
    /// products of 1%, far below where OCS utility differences matter,
    /// while cutting the stored pair count by orders of magnitude at
    /// city scale.
    fn default() -> Self {
        Self { floor: 0.01, top_k: None }
    }
}

impl SparseCorrConfig {
    /// The Dijkstra cost bound for this floor: `−ln f` plus a one-ulp-ish
    /// margin so a pair whose dense value rounds to exactly the floor is
    /// still *visited*; the exact `corr ≥ floor` filter is applied to the
    /// computed value afterwards, so presence in the table is decided by
    /// the value, never by the margin.
    pub fn cost_bound(&self) -> f64 {
        -self.floor.ln() + 1e-9
    }
}

/// CSR-stored sparse Γ for one slot: per-road neighbor lists holding only
/// correlations `≥ floor` (post top-k), columns sorted by road id, the
/// unit diagonal implicit. `MaxProduct` semantics only — see the module
/// docs for why `ReciprocalSum` cannot be pruned soundly.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCorrelationTable {
    n: usize,
    slot: SlotOfDay,
    config: SparseCorrConfig,
    /// `offsets[r]..offsets[r + 1]` bounds road `r`'s slice of
    /// `cols`/`vals` (mirrors `csr::Graph`).
    offsets: Vec<usize>,
    /// Neighbor road ids, strictly increasing within each row, never the
    /// row's own id.
    cols: Vec<u32>,
    /// Correlation per stored pair, each in `[floor, 1]`.
    vals: Vec<f64>,
}

/// One pruned row: `(road id, correlation)` pairs sorted by id.
type SparseRow = Vec<(u32, f64)>;

/// Sources per parallel build job. Fixed (not derived from the thread
/// count) so the row partition — and therefore every scratch reuse
/// sequence — is a property of the network size alone; results stay
/// bit-identical at every thread count because each row is an independent
/// single-source computation either way.
const BUILD_CHUNK: usize = 64;

/// Computes one pruned row: bounded Dijkstra from `src` on the slot's
/// Eq. 9 `weights` (one per edge), `exp(−cost)` per settled road, then the
/// Eq. (7) adjacency overrides, the floor filter, and the optional top-k
/// cut.
fn fill_sparse_row(
    graph: &Graph,
    params: &SlotParams,
    weights: &[f64],
    config: SparseCorrConfig,
    scratch: &mut BoundedDijkstra,
    src: RoadId,
) -> SparseRow {
    let mut row: SparseRow = Vec::new();
    scratch.run(
        graph,
        src,
        |e| weights[e.index()],
        config.cost_bound(),
        |road, cost| {
            if road != src {
                row.push((road.0, (-cost).exp()));
            }
        },
    );
    // Settle order is nondecreasing cost; re-sort by road id for the CSR
    // contract and the binary-search lookups.
    row.sort_unstable_by_key(|&(id, _)| id);
    // Eq. (7): adjacent pairs use the (clamped) edge ρ directly, replacing
    // any path-derived value.
    for &(nbr, e) in graph.neighbors(src) {
        let rho = clamped_edge_rho(params.rho[e.index()]);
        match row.binary_search_by_key(&nbr.0, |&(id, _)| id) {
            Ok(i) => row[i].1 = rho,
            Err(i) => row.insert(i, (nbr.0, rho)),
        }
    }
    row.retain(|&(_, v)| v >= config.floor);
    if let Some(k) = config.top_k {
        if row.len() > k {
            // Keep the k strongest (ties toward the smaller id), then
            // restore id order.
            row.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            row.truncate(k);
            row.sort_unstable_by_key(|&(id, _)| id);
        }
    }
    row
}

impl SparseCorrelationTable {
    /// Builds the sparse table on the `RTSE_THREADS`-sized default pool.
    /// See [`Self::build_observed`].
    pub fn build(
        graph: &Graph,
        model: &RtfModel,
        slot: SlotOfDay,
        config: SparseCorrConfig,
    ) -> Self {
        Self::build_observed(
            graph,
            model,
            slot,
            config,
            &ComputePool::from_env(),
            &ObsHandle::noop(),
        )
    }

    /// Builds from a full model: validates the model/graph dimensions and
    /// delegates to [`Self::build_from_params`] with the slot's parameters.
    /// Each per-source row fill records one `corr.dijkstra_row` span, like
    /// the dense build.
    pub fn build_observed(
        graph: &Graph,
        model: &RtfModel,
        slot: SlotOfDay,
        config: SparseCorrConfig,
        pool: &ComputePool,
        obs: &ObsHandle,
    ) -> Self {
        assert!(model.matches_graph(graph), "model/graph dimension mismatch");
        Self::build_from_params(graph, model.slot(slot), slot, config, pool, obs)
    }

    /// Builds from one slot's parameters directly. This is the scale
    /// entry point: a full [`RtfModel`] holds all `SLOTS_PER_DAY` slots
    /// (~1 GB at 100k roads), which a single-slot benchmark or an
    /// incremental trainer need not materialize.
    ///
    /// The row sweep is sharded across `pool` in fixed 64-source chunks;
    /// each chunk reuses one [`BoundedDijkstra`] scratch. Rows are
    /// independent single-source computations, so the assembled table is
    /// bit-identical at every thread count.
    pub fn build_from_params(
        graph: &Graph,
        params: &SlotParams,
        slot: SlotOfDay,
        config: SparseCorrConfig,
        pool: &ComputePool,
        obs: &ObsHandle,
    ) -> Self {
        assert!(
            params.rho.len() == graph.num_edges(),
            "params/graph edge-count mismatch: {} vs {}",
            params.rho.len(),
            graph.num_edges()
        );
        assert!(
            config.floor > 0.0 && config.floor < 1.0,
            "pruning floor {} outside (0, 1)",
            config.floor
        );
        let n = graph.num_roads();
        let weights = path_weights(&params.rho, PathCorrelation::MaxProduct);
        let chunks: Vec<(u32, u32)> = (0..n)
            .step_by(BUILD_CHUNK)
            .map(|lo| {
                let hi = (lo + BUILD_CHUNK).min(n);
                (RoadId::from(lo).0, RoadId::from(hi).0)
            })
            .collect();
        let chunk_rows: Vec<Vec<SparseRow>> = pool.map_observed(obs, chunks, |_, (lo, hi)| {
            let mut scratch = BoundedDijkstra::new(n);
            let mut out = Vec::with_capacity((hi - lo) as usize);
            for src in lo..hi {
                let _span = obs.span(Stage::CorrDijkstraRow);
                out.push(fill_sparse_row(
                    graph,
                    params,
                    &weights,
                    config,
                    &mut scratch,
                    RoadId(src),
                ));
            }
            out
        });
        let total: usize = chunk_rows.iter().flatten().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        offsets.push(0);
        for row in chunk_rows.iter().flatten() {
            for &(id, v) in row {
                cols.push(id);
                vals.push(v);
            }
            offsets.push(cols.len());
        }
        let table = Self { n, slot, config, offsets, cols, vals };
        #[cfg(feature = "validate")]
        if let Err(v) = rtse_check::Validate::validate(&table) {
            rtse_check::fail(&v);
        }
        table
    }

    /// The slot this table was built for.
    pub fn slot(&self) -> SlotOfDay {
        self.slot
    }

    /// Always [`PathCorrelation::MaxProduct`] — the only semantics with a
    /// sound pruning bound.
    pub fn semantics(&self) -> PathCorrelation {
        PathCorrelation::MaxProduct
    }

    /// The pruning configuration the table was built with.
    pub fn config(&self) -> SparseCorrConfig {
        self.config
    }

    /// Number of roads covered.
    pub fn num_roads(&self) -> usize {
        self.n
    }

    /// Stored (off-diagonal) pair count.
    pub fn num_entries(&self) -> usize {
        self.cols.len()
    }

    /// Heap bytes held by the CSR arrays — the scale metric BENCH_scale
    /// tracks as bytes/road.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }

    /// Road `r`'s stored neighbors as `(road, corr)`, ascending by id.
    pub fn row(&self, r: RoadId) -> impl Iterator<Item = (RoadId, f64)> + '_ {
        let lo = self.offsets[r.index()];
        let hi = self.offsets[r.index() + 1];
        self.cols[lo..hi].iter().zip(&self.vals[lo..hi]).map(|(&id, &v)| (RoadId(id), v))
    }

    /// `corr^t(r_a, r_b)`: the stored value, `1.0` on the diagonal, `0.0`
    /// for pruned pairs.
    #[inline]
    pub fn corr(&self, a: RoadId, b: RoadId) -> f64 {
        if a == b {
            return 1.0;
        }
        let lo = self.offsets[a.index()];
        let hi = self.offsets[a.index() + 1];
        match self.cols[lo..hi].binary_search(&b.0) {
            Ok(i) => self.vals[lo + i],
            Err(_) => 0.0,
        }
    }

    /// Road–set correlation, Eq. (11): max over the set; 0 for an empty
    /// set.
    pub fn road_set_corr(&self, r: RoadId, set: &[RoadId]) -> f64 {
        set.iter().map(|&s| self.corr(r, s)).fold(0.0, f64::max)
    }

    /// Set–set correlation, Eq. (12).
    pub fn set_set_corr(&self, queried: &[RoadId], crowdsourced: &[RoadId]) -> f64 {
        queried.iter().map(|&q| self.road_set_corr(q, crowdsourced)).sum()
    }
}

impl CorrelationRead for SparseCorrelationTable {
    fn num_roads(&self) -> usize {
        SparseCorrelationTable::num_roads(self)
    }

    fn corr(&self, a: RoadId, b: RoadId) -> f64 {
        SparseCorrelationTable::corr(self, a, b)
    }

    fn road_set_corr(&self, r: RoadId, set: &[RoadId]) -> f64 {
        SparseCorrelationTable::road_set_corr(self, r, set)
    }

    fn set_set_corr(&self, queried: &[RoadId], crowdsourced: &[RoadId]) -> f64 {
        SparseCorrelationTable::set_set_corr(self, queried, crowdsourced)
    }
}

/// Owned either-substrate table, for caches that hold Γ by value (the
/// core engine's per-slot cache). Dispatches the read API to whichever
/// substrate was built; both coerce to `&dyn CorrelationRead` for the
/// solvers.
#[derive(Debug)]
pub enum CorrTable {
    /// Dense all-pairs storage (any [`PathCorrelation`] semantics).
    Dense(CorrelationTable),
    /// Floor/top-k pruned CSR storage (`MaxProduct` only).
    Sparse(SparseCorrelationTable),
}

impl CorrTable {
    /// Number of roads covered.
    pub fn num_roads(&self) -> usize {
        match self {
            Self::Dense(t) => t.num_roads(),
            Self::Sparse(t) => t.num_roads(),
        }
    }

    /// The slot the table was built for.
    pub fn slot(&self) -> SlotOfDay {
        match self {
            Self::Dense(t) => t.slot(),
            Self::Sparse(t) => t.slot(),
        }
    }

    /// The path semantics used.
    pub fn semantics(&self) -> PathCorrelation {
        match self {
            Self::Dense(t) => t.semantics(),
            Self::Sparse(t) => t.semantics(),
        }
    }

    /// `corr^t(r_a, r_b)`.
    #[inline]
    pub fn corr(&self, a: RoadId, b: RoadId) -> f64 {
        match self {
            Self::Dense(t) => t.corr(a, b),
            Self::Sparse(t) => t.corr(a, b),
        }
    }

    /// Road–set correlation, Eq. (11).
    pub fn road_set_corr(&self, r: RoadId, set: &[RoadId]) -> f64 {
        match self {
            Self::Dense(t) => t.road_set_corr(r, set),
            Self::Sparse(t) => t.road_set_corr(r, set),
        }
    }

    /// Set–set correlation, Eq. (12).
    pub fn set_set_corr(&self, queried: &[RoadId], crowdsourced: &[RoadId]) -> f64 {
        match self {
            Self::Dense(t) => t.set_set_corr(queried, crowdsourced),
            Self::Sparse(t) => t.set_set_corr(queried, crowdsourced),
        }
    }
}

impl From<CorrelationTable> for CorrTable {
    fn from(t: CorrelationTable) -> Self {
        Self::Dense(t)
    }
}

impl From<SparseCorrelationTable> for CorrTable {
    fn from(t: SparseCorrelationTable) -> Self {
        Self::Sparse(t)
    }
}

impl CorrelationRead for CorrTable {
    fn num_roads(&self) -> usize {
        CorrTable::num_roads(self)
    }

    fn corr(&self, a: RoadId, b: RoadId) -> f64 {
        CorrTable::corr(self, a, b)
    }

    fn road_set_corr(&self, r: RoadId, set: &[RoadId]) -> f64 {
        CorrTable::road_set_corr(self, r, set)
    }

    fn set_set_corr(&self, queried: &[RoadId], crowdsourced: &[RoadId]) -> f64 {
        CorrTable::set_set_corr(self, queried, crowdsourced)
    }
}

impl rtse_check::Validate for CorrTable {
    fn validate(&self) -> Result<(), rtse_check::InvariantViolation> {
        match self {
            Self::Dense(t) => rtse_check::Validate::validate(t),
            Self::Sparse(t) => rtse_check::Validate::validate(t),
        }
    }
}

impl rtse_check::Validate for SparseCorrelationTable {
    /// CSR + correlation contract: well-formed offsets, strictly sorted
    /// in-bounds columns with no self-pairs, every value finite in
    /// `[floor, 1]`, and symmetry — a stored `(a, b, v)` must either
    /// mirror to within 1e-9 or be absent on the other side with `v`
    /// within tolerance of the floor (two independent Dijkstra runs can
    /// land a boundary value on opposite sides of the filter).
    fn validate(&self) -> Result<(), rtse_check::InvariantViolation> {
        use rtse_check::ensure;
        ensure(self.offsets.len() == self.n + 1, "sparse_corr.offsets_len", || {
            format!("{} offsets for {} roads", self.offsets.len(), self.n)
        })?;
        ensure(
            self.offsets.first() == Some(&0)
                && self.offsets.last() == Some(&self.cols.len())
                && self.cols.len() == self.vals.len(),
            "sparse_corr.csr_bounds",
            || {
                format!(
                    "offsets [{:?}..{:?}] vs {} cols / {} vals",
                    self.offsets.first(),
                    self.offsets.last(),
                    self.cols.len(),
                    self.vals.len()
                )
            },
        )?;
        ensure(
            self.config.floor > 0.0 && self.config.floor < 1.0,
            "sparse_corr.floor_range",
            || format!("floor {} outside (0, 1)", self.config.floor),
        )?;
        for a in 0..self.n {
            let (lo, hi) = (self.offsets[a], self.offsets[a + 1]);
            ensure(lo <= hi, "sparse_corr.offsets_monotone", || {
                format!("offsets[{a}] = {lo} > offsets[{}] = {hi}", a + 1)
            })?;
            if let Some(k) = self.config.top_k {
                ensure(hi - lo <= k, "sparse_corr.top_k", || {
                    format!("row {a} stores {} entries over the top-{k} cap", hi - lo)
                })?;
            }
            let row = &self.cols[lo..hi];
            for (i, &c) in row.iter().enumerate() {
                ensure((c as usize) < self.n, "sparse_corr.col_bounds", || {
                    format!("row {a} column {c} out of bounds for {} roads", self.n)
                })?;
                ensure(c as usize != a, "sparse_corr.no_diagonal", || {
                    format!("row {a} stores its own diagonal")
                })?;
                if i > 0 {
                    ensure(row[i - 1] < c, "sparse_corr.cols_sorted", || {
                        format!("row {a} columns not strictly increasing at {c}")
                    })?;
                }
                let v = self.vals[lo + i];
                ensure(
                    v.is_finite() && v >= self.config.floor && v <= 1.0,
                    "sparse_corr.value_range",
                    || format!("corr({a}, {c}) = {v} outside [{}, 1]", self.config.floor),
                )?;
                let a_id = RoadId::from(a);
                let mirror = self.corr(RoadId(c), a_id);
                let mirror_stored = mirror > 0.0;
                ensure(
                    if mirror_stored {
                        (v - mirror).abs() <= 1e-9
                    } else {
                        v <= self.config.floor + 1e-9 || self.config.top_k.is_some()
                    },
                    "sparse_corr.symmetric",
                    || format!("corr({a}, {c}) = {v} but corr({c}, {a}) = {mirror}"),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SlotParams;
    use rtse_data::SLOTS_PER_DAY;
    use rtse_graph::{GraphBuilder, RoadClass};

    fn fixture(n: usize, edges: &[(u32, u32, f64)]) -> (Graph, RtfModel) {
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
        (g, model)
    }

    #[test]
    fn matches_dense_above_floor() {
        let (g, m) = fixture(4, &[(0, 1, 0.9), (1, 3, 0.9), (0, 2, 0.99), (2, 3, 0.5)]);
        let config = SparseCorrConfig { floor: 0.05, top_k: None };
        let dense = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        let sparse = SparseCorrelationTable::build(&g, &m, SlotOfDay(0), config);
        for a in g.road_ids() {
            for b in g.road_ids() {
                let d = dense.corr(a, b);
                let s = sparse.corr(a, b);
                if d >= config.floor {
                    assert_eq!(d.to_bits(), s.to_bits(), "corr({a},{b}): dense {d} sparse {s}");
                } else {
                    assert_eq!(s, 0.0, "corr({a},{b}) below floor must read 0, got {s}");
                }
            }
        }
    }

    #[test]
    fn floor_prunes_weak_pairs() {
        // 0-1-2 chain with ρ = 0.3 each: corr(0,2) = 0.09 < floor 0.1 is
        // pruned; the adjacent pairs (0.3) survive.
        let (g, m) = fixture(3, &[(0, 1, 0.3), (1, 2, 0.3)]);
        let config = SparseCorrConfig { floor: 0.1, top_k: None };
        let t = SparseCorrelationTable::build(&g, &m, SlotOfDay(0), config);
        assert_eq!(t.corr(RoadId(0), RoadId(1)), 0.3);
        assert_eq!(t.corr(RoadId(0), RoadId(2)), 0.0);
        assert_eq!(t.num_entries(), 4);
    }

    #[test]
    fn top_k_keeps_strongest() {
        // Star around 0 with distinct spoke strengths; k = 2 keeps the two
        // strongest spokes.
        let (g, m) = fixture(4, &[(0, 1, 0.5), (0, 2, 0.9), (0, 3, 0.7)]);
        let config = SparseCorrConfig { floor: 0.01, top_k: Some(2) };
        let t = SparseCorrelationTable::build(&g, &m, SlotOfDay(0), config);
        assert_eq!(t.corr(RoadId(0), RoadId(2)), 0.9);
        assert_eq!(t.corr(RoadId(0), RoadId(3)), 0.7);
        assert_eq!(t.corr(RoadId(0), RoadId(1)), 0.0, "weakest spoke cut by top-2");
        let row: Vec<(RoadId, f64)> = t.row(RoadId(0)).collect();
        assert_eq!(row, vec![(RoadId(2), 0.9), (RoadId(3), 0.7)]);
    }

    #[test]
    fn diagonal_is_implicit_unit() {
        let (g, m) = fixture(2, &[(0, 1, 0.8)]);
        let t = SparseCorrelationTable::build(&g, &m, SlotOfDay(0), SparseCorrConfig::default());
        assert_eq!(t.corr(RoadId(0), RoadId(0)), 1.0);
        assert_eq!(t.corr(RoadId(1), RoadId(1)), 1.0);
    }

    #[test]
    fn set_queries_match_dense() {
        let (g, m) =
            fixture(5, &[(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (3, 4, 0.95), (0, 4, 0.2)]);
        let config = SparseCorrConfig { floor: 0.05, top_k: None };
        let dense = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        let sparse = SparseCorrelationTable::build(&g, &m, SlotOfDay(0), config);
        let set = [RoadId(1), RoadId(3)];
        for r in g.road_ids() {
            let d = dense.road_set_corr(r, &set);
            let s = sparse.road_set_corr(r, &set);
            assert!((d - s).abs() <= f64::EPSILON, "road_set_corr({r}): {d} vs {s}");
        }
        let queried = [RoadId(0), RoadId(2), RoadId(4)];
        let d = dense.set_set_corr(&queried, &set);
        let s = sparse.set_set_corr(&queried, &set);
        assert!((d - s).abs() <= 1e-12, "set_set_corr: {d} vs {s}");
    }

    #[test]
    fn negative_and_nan_rho_regressions() {
        // Same regressions as the dense table: the Eq. (7) override must
        // clamp ρ ≤ 0 / NaN to 0 (here: pruned entirely), and a NaN edge
        // must not poison the live alternate path.
        let (g, m) = fixture(4, &[(0, 1, f64::NAN), (1, 3, -0.4), (0, 2, 0.8), (2, 3, 0.5)]);
        let t = SparseCorrelationTable::build(&g, &m, SlotOfDay(0), SparseCorrConfig::default());
        assert_eq!(t.corr(RoadId(0), RoadId(1)), 0.0, "NaN edge pruned");
        assert_eq!(t.corr(RoadId(1), RoadId(3)), 0.0, "negative edge pruned");
        assert!((t.corr(RoadId(0), RoadId(3)) - 0.4).abs() < 1e-9, "live path kept");
        assert!(rtse_check::Validate::validate(&t).is_ok());
        // Road 1 is reachable only over dead edges: its row is empty.
        assert_eq!(t.row(RoadId(1)).count(), 0);
    }

    #[test]
    fn validate_accepts_build_and_rejects_corruption() {
        let (g, m) = fixture(3, &[(0, 1, 0.8), (1, 2, 0.6)]);
        let t = SparseCorrelationTable::build(&g, &m, SlotOfDay(0), SparseCorrConfig::default());
        assert!(rtse_check::Validate::validate(&t).is_ok());
        let mut bad = t.clone();
        bad.vals[0] = 1.5;
        assert_eq!(
            rtse_check::Validate::validate(&bad).expect_err("must fail").invariant,
            "sparse_corr.value_range"
        );
        let mut bad = t.clone();
        bad.cols[0] = 99;
        assert_eq!(
            rtse_check::Validate::validate(&bad).expect_err("must fail").invariant,
            "sparse_corr.col_bounds"
        );
        let mut bad = t;
        bad.offsets[1] = 0;
        assert!(rtse_check::Validate::validate(&bad).is_err());
    }
}
