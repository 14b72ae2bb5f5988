//! The offline correlation table `Γ_R` (Eqs. 7–12).
//!
//! Road–road correlation:
//! * adjacent roads: `corr(r_i, r_j) = ρ_ij` (Eq. 7);
//! * non-adjacent: the maximum cumulative product of edge correlations over
//!   any joining path (Eq. 8), found with Dijkstra on transformed weights.
//!
//! The paper's Eq. (9) claims the max-product path equals the path
//! minimizing `Σ 1/ρ`; that is not true in general (`−ln` is the correct
//! monotone transform of a product). Both semantics are implemented — see
//! [`PathCorrelation`] — and benched against each other
//! (`ablation_pathcorr`); `MaxProduct` is the default everywhere.
//!
//! Road–set correlation (Eq. 11) is the max over the set; set–set (Eq. 12)
//! sums road–set values over the queried roads.
//!
//! ## Rows on demand
//!
//! The paper fills `Γ` offline for every slot. An online round only reads
//! the rows of its queried roads and of the candidates OCS commits or
//! rejects at commit, a few dozen of `|R|`. [`CorrelationTable`] therefore
//! keeps one once-cell per row: [`CorrelationTable::new`] computes only the
//! slot's edge weights, and the first read of row `a` runs that row's
//! single-source Dijkstra. A row's bits do not depend on when, where or how
//! often it is asked for, so a table filled on demand and one filled up
//! front by [`CorrelationTable::fill`] answer every pair identically.

use crate::params::RtfModel;
use rtse_data::SlotOfDay;
use rtse_graph::{dijkstra_with_paths, BoundedDijkstra, Graph, RoadId};
use rtse_obs::{ObsHandle, Stage};
use rtse_pool::ComputePool;
use rtse_sync::OnceLock;

/// Which reading of Eqs. (8)–(10) to use for non-adjacent pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathCorrelation {
    /// Maximize `Π ρ` exactly: Dijkstra on `w = −ln ρ`, correlation
    /// `exp(−dist)`. The mathematically faithful reading of Eq. (8).
    #[default]
    MaxProduct,
    /// The paper's literal Eq. (9): take the path minimizing `Σ 1/ρ`, then
    /// report `Π ρ` along *that* path (Eq. 10). Generally ≤ the max-product
    /// value.
    ReciprocalSum,
}

/// All-pairs correlation table for one time slot, each row built on its
/// first read (see the module docs).
#[derive(Debug)]
pub struct CorrelationTable {
    slot: SlotOfDay,
    semantics: PathCorrelation,
    /// The network the row kernel walks (a table outlives the borrow it
    /// was created from, so it keeps its own adjacency).
    graph: Graph,
    /// Path weight per edge under `semantics`, computed once per slot.
    weights: Vec<f64>,
    /// Eq. (7) clamped ρ per edge: the adjacency override and the
    /// reciprocal-sum path product.
    rho: Vec<f64>,
    /// Row `a` holds `corr(a, ·)`: `n` values, diagonal 1, zeros for
    /// disconnected pairs.
    rows: Vec<OnceLock<Box<[f64]>>>,
    /// Where each row build records its `corr.dijkstra_row` span.
    obs: ObsHandle,
}

/// Path weight for the max-product semantics: `w = −ln ρ`. A non-positive
/// or NaN ρ carries no correlation (Eq. 8's product through it is 0), so
/// it is mapped to an explicitly infinite weight and can never sit on a
/// chosen path. The guard is written as `rho > 0.0` so that NaN — which
/// fails every comparison — lands on the infinite branch instead of
/// flowing through `ln` as NaN and corrupting Dijkstra distances.
#[inline]
pub(crate) fn max_product_weight(rho: f64) -> f64 {
    if rho > 0.0 {
        -rho.ln()
    } else {
        f64::INFINITY
    }
}

/// Path weight for the paper's literal Eq. (9) semantics: `w = 1/ρ`, with
/// the same explicit infinite-weight treatment for `ρ ≤ 0` and NaN
/// (avoiding the `1/0` division and keeping zero-correlation edges off
/// every path).
#[inline]
pub(crate) fn reciprocal_weight(rho: f64) -> f64 {
    if rho > 0.0 {
        1.0 / rho
    } else {
        f64::INFINITY
    }
}

/// The Eq. (7) adjacency override value for an edge's ρ: the path
/// semantics floor non-positive correlation at 0, and the override must
/// not reintroduce negative (or NaN) values that `road_set_corr`'s
/// `fold(0.0, max)` would silently clamp. `f64::max` returns the other
/// operand when one side is NaN, so a NaN ρ also lands on 0.
#[inline]
pub(crate) fn clamped_edge_rho(rho: f64) -> f64 {
    rho.max(0.0)
}

/// The slot's per-edge path weights under `semantics`: one transform per
/// edge per slot, shared by every row's relaxations (dense and sparse).
pub(crate) fn path_weights(rho: &[f64], semantics: PathCorrelation) -> Vec<f64> {
    let weight = match semantics {
        PathCorrelation::MaxProduct => max_product_weight,
        PathCorrelation::ReciprocalSum => reciprocal_weight,
    };
    rho.iter().map(|&r| weight(r)).collect()
}

impl CorrelationTable {
    /// An empty table for `slot`: computes the slot's edge weights and
    /// leaves every row to its first read. Each row build records one
    /// `corr.dijkstra_row` span on `obs`.
    pub fn new(
        graph: &Graph,
        model: &RtfModel,
        slot: SlotOfDay,
        semantics: PathCorrelation,
        obs: ObsHandle,
    ) -> Self {
        assert!(model.matches_graph(graph), "model/graph dimension mismatch");
        let params = model.slot(slot);
        Self {
            slot,
            semantics,
            graph: graph.clone(),
            weights: path_weights(&params.rho, semantics),
            rho: params.rho.iter().map(|&r| clamped_edge_rho(r)).collect(),
            rows: (0..graph.num_roads()).map(|_| OnceLock::new()).collect(),
            obs,
        }
    }

    /// Builds the full table, fanning the rows across the
    /// `RTSE_THREADS`-sized default pool. See [`Self::build_with_pool`].
    pub fn build(
        graph: &Graph,
        model: &RtfModel,
        slot: SlotOfDay,
        semantics: PathCorrelation,
    ) -> Self {
        Self::build_with_pool(graph, model, slot, semantics, &ComputePool::from_env())
    }

    /// Builds the full table on an explicit pool: the per-source Dijkstras
    /// are independent, so each worker fills whole rows. Results are
    /// bit-identical at every thread count (each row is produced by the
    /// same single-source computation).
    pub fn build_with_pool(
        graph: &Graph,
        model: &RtfModel,
        slot: SlotOfDay,
        semantics: PathCorrelation,
        pool: &ComputePool,
    ) -> Self {
        Self::build_observed(graph, model, slot, semantics, pool, &ObsHandle::noop())
    }

    /// [`build_with_pool`](Self::build_with_pool) with instrumentation:
    /// each row (one Dijkstra) is one `pool.jobs` job and one
    /// `corr.dijkstra_row` span, so a full build records exactly `n_roads`
    /// of each on `obs`. The table is bit-identical to the unobserved
    /// build.
    pub fn build_observed(
        graph: &Graph,
        model: &RtfModel,
        slot: SlotOfDay,
        semantics: PathCorrelation,
        pool: &ComputePool,
        obs: &ObsHandle,
    ) -> Self {
        let table = Self::new(graph, model, slot, semantics, obs.clone());
        table.fill(pool);
        table
    }

    /// Builds every row not built yet, one `pool` job per row. Rows read
    /// meanwhile on other threads are built once and shared: each row is a
    /// once-cell.
    pub fn fill(&self, pool: &ComputePool) {
        let missing: Vec<RoadId> =
            self.graph.road_ids().filter(|r| self.rows[r.index()].get().is_none()).collect();
        pool.map_observed(&self.obs, missing, |_, r| {
            self.row(r);
        });
    }

    /// The slot this table was built for.
    pub fn slot(&self) -> SlotOfDay {
        self.slot
    }

    /// The path semantics used.
    pub fn semantics(&self) -> PathCorrelation {
        self.semantics
    }

    /// Number of roads covered.
    pub fn num_roads(&self) -> usize {
        self.rows.len()
    }

    /// Rows built so far.
    pub fn rows_built(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// Row `a`, `corr(a, ·)` over every road, built on first use. With
    /// the `validate` feature a new row is checked against the table
    /// contract (and against every mirror row built before it) before
    /// anyone can read it.
    #[inline]
    pub fn row(&self, a: RoadId) -> &[f64] {
        self.rows[a.index()].get_or_init(|| {
            let row = self.build_row(a);
            #[cfg(feature = "validate")]
            if let Err(v) = self.validate_row(a.index(), &row) {
                rtse_check::fail(&v);
            }
            row
        })
    }

    /// `corr^t(r_a, r_b)` (Eqs. 7/10).
    #[inline]
    pub fn corr(&self, a: RoadId, b: RoadId) -> f64 {
        self.row(a)[b.index()]
    }

    /// Road–set correlation, Eq. (11): max over the set; 0 for an empty set.
    pub fn road_set_corr(&self, r: RoadId, set: &[RoadId]) -> f64 {
        let row = self.row(r);
        set.iter().map(|&s| row[s.index()]).fold(0.0, f64::max)
    }

    /// Set–set correlation, Eq. (12).
    pub fn set_set_corr(&self, queried: &[RoadId], crowdsourced: &[RoadId]) -> f64 {
        queried.iter().map(|&q| self.road_set_corr(q, crowdsourced)).sum()
    }

    /// The row kernel: correlations from `src` to every road under the
    /// table's path semantics, then the Eq. (7) overrides (unit diagonal,
    /// direct edge ρ for adjacent pairs).
    fn build_row(&self, src: RoadId) -> Box<[f64]> {
        let _span = self.obs.span(Stage::CorrDijkstraRow);
        let graph = &self.graph;
        let mut row = vec![0.0; graph.num_roads()];
        match self.semantics {
            PathCorrelation::MaxProduct => {
                // Unbounded, so every reachable road settles with the same
                // sums in the same order as a plain Dijkstra; unreachable
                // roads keep 0.
                BoundedDijkstra::new(graph.num_roads()).run(
                    graph,
                    src,
                    |e| self.weights[e.index()],
                    f64::INFINITY,
                    |t, cost| row[t.index()] = (-cost).exp(),
                );
            }
            PathCorrelation::ReciprocalSum => {
                let sp = dijkstra_with_paths(graph, src, |e| self.weights[e.index()]);
                for t in graph.road_ids() {
                    // Consecutive path roads are adjacent by construction;
                    // a missing edge would mean a broken shortest-path tree
                    // and maps to zero correlation rather than an abort.
                    // Every path edge has finite weight, so ρ > 0 there and
                    // the clamped ρ is the raw one.
                    if let Some(path) = sp.path_to(t) {
                        row[t.index()] = path
                            .windows(2)
                            .map(|w| {
                                graph.edge_between(w[0], w[1]).map_or(0.0, |e| self.rho[e.index()])
                            })
                            .product();
                    }
                }
            }
        }
        // Eq. (7): adjacent pairs use the edge weight directly (floored at 0
        // like the path semantics), and a road is perfectly correlated with
        // itself.
        row[src.index()] = 1.0;
        for &(nbr, e) in graph.neighbors(src) {
            row[nbr.index()] = self.rho[e.index()];
        }
        row.into_boxed_slice()
    }
}

impl CorrelationTable {
    /// Row `a`'s share of the table contract (Eqs. 7–12): `n` values in
    /// `[0, 1]`, unit diagonal, and symmetry against every mirror row
    /// already built. Two independent Dijkstra runs compute `corr(a, b)`
    /// and `corr(b, a)`, so symmetry is checked to a float tolerance rather
    /// than bit-for-bit.
    fn validate_row(&self, a: usize, row: &[f64]) -> Result<(), rtse_check::InvariantViolation> {
        use rtse_check::ensure;
        let n = self.rows.len();
        ensure(row.len() == n, "corr.square", || {
            format!("row {a} holds {} values for {n} roads", row.len())
        })?;
        for (b, &c) in row.iter().enumerate() {
            ensure(c.is_finite() && (0.0..=1.0).contains(&c), "corr.range", || {
                format!("corr({a}, {b}) = {c} outside [0, 1]")
            })?;
            if let Some(&mirror) = self.rows[b].get().and_then(|r| r.get(a)) {
                ensure((c - mirror).abs() <= 1e-9, "corr.symmetric", || {
                    format!("corr({a}, {b}) = {c} but corr({b}, {a}) = {mirror}")
                })?;
            }
        }
        let diag = row[a];
        ensure((diag - 1.0).abs() <= 1e-12, "corr.unit_diagonal", || {
            format!("corr({a}, {a}) = {diag}")
        })
    }
}

impl rtse_check::Validate for CorrelationTable {
    /// Table contract over the rows built so far: one row cell per road,
    /// and every built row honours the row contract (`validate_row`).
    fn validate(&self) -> Result<(), rtse_check::InvariantViolation> {
        let n = self.rows.len();
        rtse_check::ensure(n == self.graph.num_roads(), "corr.square", || {
            format!("{n} rows for {} roads", self.graph.num_roads())
        })?;
        for (a, cell) in self.rows.iter().enumerate() {
            if let Some(row) = cell.get() {
                self.validate_row(a, row)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{RtfModel, SlotParams};
    use rtse_data::SLOTS_PER_DAY;
    use rtse_graph::{GraphBuilder, RoadClass};

    /// Builds a graph plus model with explicit per-edge ρ for slot 0.
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

    /// Every value of a table, row-major, as bits.
    fn bits(t: &CorrelationTable) -> Vec<u64> {
        (0..t.num_roads()).flat_map(|a| t.row(RoadId::from(a)).to_vec()).map(f64::to_bits).collect()
    }

    #[test]
    fn rows_build_on_first_read_only() {
        let (g, m) =
            fixture(6, &[(0, 1, 0.52), (1, 5, 0.52), (0, 2, 0.7), (2, 3, 0.7), (3, 5, 0.7)]);
        let obs = ObsHandle::fresh();
        let t =
            CorrelationTable::new(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct, obs.clone());
        assert_eq!(t.rows_built(), 0, "a new table builds nothing");
        let c = t.corr(RoadId(0), RoadId(5));
        assert_eq!(t.corr(RoadId(0), RoadId(3)), t.row(RoadId(0))[3]);
        assert_eq!(t.rows_built(), 1, "reads of one row build that row once");
        t.fill(&ComputePool::new(2));
        assert_eq!(t.rows_built(), 6);
        t.fill(&ComputePool::new(2));
        let full = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        assert_eq!(bits(&t), bits(&full), "on-demand and full builds agree bit for bit");
        assert_eq!(c.to_bits(), full.corr(RoadId(0), RoadId(5)).to_bits());
        if let Some(reg) = obs.registry().filter(|_| obs.is_enabled()) {
            assert_eq!(reg.count(Stage::CorrDijkstraRow), 6, "one span per row, ever");
            assert_eq!(reg.count(Stage::PoolJobs), 5, "fill dispatches only missing rows");
        }
    }

    #[test]
    fn max_product_rows_match_plain_dijkstra_bit_for_bit() {
        // The row kernel runs BoundedDijkstra at an infinite bound; every
        // value must equal the plain Dijkstra's exp(−cost), Eq. (7)
        // overrides applied on top.
        let (g, m) = fixture(
            7,
            &[
                (0, 1, 0.9),
                (1, 2, 0.35),
                (2, 3, 0.77),
                (0, 3, 0.1),
                (3, 4, 0.0),
                (4, 5, 0.6),
                (1, 5, 0.83),
                (2, 5, f64::NAN),
            ],
        );
        let rho = &m.slot(SlotOfDay(0)).rho;
        let t = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        for src in g.road_ids() {
            let sp = rtse_graph::dijkstra(&g, src, |e| max_product_weight(rho[e.index()]));
            let mut want: Vec<f64> = sp
                .costs()
                .iter()
                .map(|&cost| if cost.is_finite() { (-cost).exp() } else { 0.0 })
                .collect();
            want[src.index()] = 1.0;
            for &(nbr, e) in g.neighbors(src) {
                want[nbr.index()] = clamped_edge_rho(rho[e.index()]);
            }
            let got: Vec<u64> = t.row(src).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {src}");
        }
    }

    #[test]
    fn adjacent_pairs_use_edge_rho() {
        let (g, m) = fixture(3, &[(0, 1, 0.8), (1, 2, 0.6)]);
        let t = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        assert_eq!(t.corr(RoadId(0), RoadId(1)), 0.8);
        assert_eq!(t.corr(RoadId(1), RoadId(2)), 0.6);
        assert_eq!(t.corr(RoadId(0), RoadId(0)), 1.0);
    }

    #[test]
    fn non_adjacent_max_product() {
        let (g, m) = fixture(3, &[(0, 1, 0.8), (1, 2, 0.6)]);
        let t = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        let c = t.corr(RoadId(0), RoadId(2));
        assert!((c - 0.48).abs() < 1e-9, "0.8 * 0.6 = 0.48, got {c}");
        // Symmetric.
        assert!((t.corr(RoadId(2), RoadId(0)) - c).abs() < 1e-12);
    }

    #[test]
    fn max_product_picks_better_path() {
        // Two routes 0→3: direct-ish 0-1-3 with ρ .9*.9=.81 vs 0-2-3 with
        // .99*.5=.495. MaxProduct must choose .81.
        let (g, m) = fixture(4, &[(0, 1, 0.9), (1, 3, 0.9), (0, 2, 0.99), (2, 3, 0.5)]);
        let t = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        assert!((t.corr(RoadId(0), RoadId(3)) - 0.81).abs() < 1e-9);
    }

    #[test]
    fn reciprocal_sum_can_differ_from_max_product() {
        // Path A: two edges of ρ=0.5 → product 0.25, Σ1/ρ = 4.
        // Path B: three edges of ρ=0.9 → product 0.729, Σ1/ρ = 3.33.
        // Both semantics pick B here; make A the reciprocal winner:
        // A: one edge ρ=0.26 → Σ1/ρ = 3.85, product .26.
        // B: three edges ρ=0.7 → Σ1/ρ = 4.29, product .343.
        // ReciprocalSum picks A (.26), MaxProduct picks B (.343)... but A is
        // a single edge, so Eq. (7) overrides. Use 2-edge A instead:
        // A: 0-1-5 with ρ=0.52 each → Σ=3.85, product .2704
        // B: 0-2-3-4-5? Use ρ=0.7 ×3 edges → Σ=4.29, product .343.
        let (g, m) =
            fixture(6, &[(0, 1, 0.52), (1, 5, 0.52), (0, 2, 0.7), (2, 3, 0.7), (3, 5, 0.7)]);
        let mp = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        let rs = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::ReciprocalSum);
        let via_b = 0.7_f64.powi(3);
        let via_a = 0.52_f64 * 0.52;
        assert!((mp.corr(RoadId(0), RoadId(5)) - via_b).abs() < 1e-9);
        assert!((rs.corr(RoadId(0), RoadId(5)) - via_a).abs() < 1e-9);
        assert!(mp.corr(RoadId(0), RoadId(5)) > rs.corr(RoadId(0), RoadId(5)));
    }

    #[test]
    fn disconnected_pairs_zero() {
        let (g, m) = fixture(4, &[(0, 1, 0.9)]);
        let t = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        assert_eq!(t.corr(RoadId(0), RoadId(3)), 0.0);
        assert_eq!(t.corr(RoadId(2), RoadId(3)), 0.0);
    }

    #[test]
    fn road_set_and_set_set() {
        let (g, m) = fixture(3, &[(0, 1, 0.8), (1, 2, 0.6)]);
        let t = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        // Eq. 11: max over the set.
        let rs = t.road_set_corr(RoadId(0), &[RoadId(1), RoadId(2)]);
        assert_eq!(rs, 0.8);
        assert_eq!(t.road_set_corr(RoadId(0), &[]), 0.0);
        // Eq. 12: sum over queried.
        let ss = t.set_set_corr(&[RoadId(0), RoadId(2)], &[RoadId(1)]);
        assert!((ss - (0.8 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn zero_rho_edges_yield_zero_correlation_both_semantics() {
        // Roads 0 and 2 are connected only through the ρ=0 edge (0,1): the
        // pair must read as uncorrelated, not inf/NaN from -ln(0) or 1/0.
        let (g, m) = fixture(3, &[(0, 1, 0.0), (1, 2, 0.8)]);
        for semantics in [PathCorrelation::MaxProduct, PathCorrelation::ReciprocalSum] {
            let t = CorrelationTable::build(&g, &m, SlotOfDay(0), semantics);
            // Adjacent pair: Eq. (7) uses the edge ρ directly.
            assert_eq!(t.corr(RoadId(0), RoadId(1)), 0.0, "{semantics:?}");
            // Pair reachable only via the zero-ρ edge.
            assert_eq!(t.corr(RoadId(0), RoadId(2)), 0.0, "{semantics:?}");
            assert_eq!(t.corr(RoadId(2), RoadId(0)), 0.0, "{semantics:?}");
            // The live edge is untouched.
            assert_eq!(t.corr(RoadId(1), RoadId(2)), 0.8, "{semantics:?}");
            for a in g.road_ids() {
                for b in g.road_ids() {
                    assert!(t.corr(a, b).is_finite(), "{semantics:?} corr({a},{b}) not finite");
                }
            }
        }
    }

    #[test]
    fn weight_functions_map_nan_and_nonpositive_to_infinite() {
        for bad in [f64::NAN, -0.3, 0.0, f64::NEG_INFINITY] {
            assert_eq!(max_product_weight(bad), f64::INFINITY, "max_product({bad})");
            assert_eq!(reciprocal_weight(bad), f64::INFINITY, "reciprocal({bad})");
        }
        assert!((max_product_weight(0.5) - std::f64::consts::LN_2).abs() < 1e-15);
        assert_eq!(reciprocal_weight(0.5), 2.0);
        assert_eq!(clamped_edge_rho(f64::NAN), 0.0);
        assert_eq!(clamped_edge_rho(-0.7), 0.0);
        assert_eq!(clamped_edge_rho(0.7), 0.7);
    }

    #[test]
    fn negative_rho_override_clamps_to_zero() {
        // Regression: the Eq. (7) override used to write raw ρ into the
        // row, so a negative edge correlation leaked into the table even
        // though the path semantics floor it at 0.
        let (g, m) = fixture(3, &[(0, 1, -0.4), (1, 2, 0.8)]);
        for semantics in [PathCorrelation::MaxProduct, PathCorrelation::ReciprocalSum] {
            let t = CorrelationTable::build(&g, &m, SlotOfDay(0), semantics);
            assert_eq!(t.corr(RoadId(0), RoadId(1)), 0.0, "{semantics:?}");
            assert_eq!(t.corr(RoadId(1), RoadId(0)), 0.0, "{semantics:?}");
            assert_eq!(t.corr(RoadId(0), RoadId(2)), 0.0, "{semantics:?}");
            assert_eq!(t.corr(RoadId(1), RoadId(2)), 0.8, "{semantics:?}");
            assert!(rtse_check::Validate::validate(&t).is_ok(), "{semantics:?}");
        }
    }

    #[test]
    fn nan_rho_is_contained_both_semantics() {
        // Regression: a NaN ρ used to fail the `rho <= 0.0` weight guard
        // (NaN fails every comparison) and flow through `-ln` / `1/ρ` as
        // NaN, silently corrupting release-build distances. The live
        // alternate path 0-2-3 must be unaffected.
        let (g, m) = fixture(4, &[(0, 1, f64::NAN), (1, 3, 0.9), (0, 2, 0.8), (2, 3, 0.5)]);
        for semantics in [PathCorrelation::MaxProduct, PathCorrelation::ReciprocalSum] {
            let t = CorrelationTable::build(&g, &m, SlotOfDay(0), semantics);
            assert_eq!(t.corr(RoadId(0), RoadId(1)), 0.0, "{semantics:?}");
            assert!((t.corr(RoadId(0), RoadId(3)) - 0.4).abs() < 1e-9, "{semantics:?}");
            for a in g.road_ids() {
                for b in g.road_ids() {
                    let c = t.corr(a, b);
                    assert!(
                        c.is_finite() && (0.0..=1.0).contains(&c),
                        "{semantics:?} corr({a},{b}) = {c}"
                    );
                }
            }
            assert!(rtse_check::Validate::validate(&t).is_ok(), "{semantics:?}");
        }
    }

    #[test]
    fn zero_rho_does_not_mask_alternate_path() {
        // 0-1-3 has a ρ=0 hop, but 0-2-3 is fully alive: the dead path must
        // not poison the live one (inf weight loses to any finite path).
        let (g, m) = fixture(4, &[(0, 1, 0.0), (1, 3, 0.9), (0, 2, 0.8), (2, 3, 0.5)]);
        let t = CorrelationTable::build(&g, &m, SlotOfDay(0), PathCorrelation::MaxProduct);
        assert!((t.corr(RoadId(0), RoadId(3)) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn build_with_pool_matches_serial_exactly() {
        let (g, m) =
            fixture(6, &[(0, 1, 0.52), (1, 5, 0.52), (0, 2, 0.7), (2, 3, 0.7), (3, 5, 0.7)]);
        for semantics in [PathCorrelation::MaxProduct, PathCorrelation::ReciprocalSum] {
            let serial = CorrelationTable::build_with_pool(
                &g,
                &m,
                SlotOfDay(0),
                semantics,
                &ComputePool::new(1),
            );
            for threads in 2..=4 {
                let par = CorrelationTable::build_with_pool(
                    &g,
                    &m,
                    SlotOfDay(0),
                    semantics,
                    &ComputePool::new(threads),
                );
                assert_eq!(bits(&serial), bits(&par), "{semantics:?} threads={threads}");
            }
        }
    }

    #[test]
    fn correlations_bounded_zero_one() {
        let (g, m) =
            fixture(5, &[(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (3, 4, 0.95), (0, 4, 0.2)]);
        for semantics in [PathCorrelation::MaxProduct, PathCorrelation::ReciprocalSum] {
            let t = CorrelationTable::build(&g, &m, SlotOfDay(0), semantics);
            for a in g.road_ids() {
                for b in g.road_ids() {
                    let c = t.corr(a, b);
                    assert!((0.0..=1.0).contains(&c), "corr({a},{b}) = {c}");
                }
            }
        }
    }
}
