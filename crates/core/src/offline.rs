//! Offline stage: RTF training and correlation-table caching.

use rtse_data::{HistoryStore, SlotOfDay, SLOTS_PER_DAY};
use rtse_graph::Graph;
use rtse_obs::ObsHandle;
use rtse_pool::ComputePool;
use rtse_rtf::{
    CorrTable, CorrelationTable, PathCorrelation, RtfModel, RtfTrainer, SparseCorrConfig,
    SparseCorrelationTable,
};
use rtse_sync::{Arc, OnceLock};

/// Which Γ substrate the offline stage materializes per slot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CorrSubstrate {
    /// Dense all-pairs table, O(n²) memory. The default, matching the
    /// paper.
    #[default]
    Dense,
    /// Floor/top-k pruned CSR table — city-scale memory.
    Sparse(SparseCorrConfig),
}

/// Everything the online stage needs from the offline stage.
///
/// The paper computes the full `Γ_R` for every slot offline; at 607 roads
/// × 288 slots that is ~100 GB of doubles, so (like any real deployment
/// would) the table is materialized lazily per slot and cached — the
/// computation is identical, only the schedule differs. A dense table is
/// lazy per row too: a round builds the rows it reads, and
/// [`Self::prewarm`] builds the rest.
pub struct OfflineArtifacts {
    model: RtfModel,
    substrate: CorrSubstrate,
    obs: ObsHandle,
    /// One lazily-initialized entry per slot of the day. A cold build
    /// blocks only callers of *that* slot (warm slots stay lock-free and
    /// wait-free), and concurrent cold callers coalesce into a single
    /// build. The previous design held one map-wide mutex across the whole
    /// `CorrelationTable::build`, so a cold slot head-of-line blocked every
    /// other slot's read for the duration of `|R|` Dijkstras.
    corr_cache: Vec<OnceLock<Arc<CorrTable>>>,
}

fn fresh_cache() -> Vec<OnceLock<Arc<CorrTable>>> {
    (0..SLOTS_PER_DAY).map(|_| OnceLock::new()).collect()
}

impl OfflineArtifacts {
    /// Runs the offline stage: trains the RTF with `trainer` on `history`.
    pub fn train(graph: &Graph, history: &HistoryStore, trainer: &RtfTrainer) -> Self {
        let (model, _stats) = trainer.train(graph, history);
        Self::from_model(model)
    }

    /// Wraps an already-trained (or loaded) model.
    pub fn from_model(model: RtfModel) -> Self {
        Self {
            model,
            substrate: CorrSubstrate::Dense,
            obs: ObsHandle::noop(),
            corr_cache: fresh_cache(),
        }
    }

    /// Selects the Γ substrate materialized per slot (default
    /// [`CorrSubstrate::Dense`]). Clears the cache so previously-built
    /// tables of the other substrate cannot be served.
    pub fn with_substrate(mut self, substrate: CorrSubstrate) -> Self {
        self.substrate = substrate;
        self.corr_cache = fresh_cache();
        self
    }

    /// The configured Γ substrate.
    pub fn substrate(&self) -> CorrSubstrate {
        self.substrate
    }

    /// Routes lazy correlation-table builds through `obs` (one
    /// `corr.dijkstra_row` span per row built). Cached tables created
    /// before the swap keep whatever instrumentation they were created
    /// under; the cache is deliberately left intact so the swap is cheap.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Builder form of [`Self::set_obs`].
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The trained model.
    pub fn model(&self) -> &RtfModel {
        &self.model
    }

    /// The slot's `MaxProduct` correlation table, creating it on first
    /// use.
    ///
    /// Per-slot once-initialization: a warm slot returns immediately even
    /// while another slot's table is mid-build, and duplicate concurrent
    /// builds of the same cold slot coalesce (exactly one build runs; the
    /// rest block on it and share the resulting `Arc`). A dense table is
    /// created empty and builds each row on its first read; a sparse table
    /// is built whole.
    pub fn corr_table(&self, graph: &Graph, slot: SlotOfDay) -> Arc<CorrTable> {
        self.corr_entry(slot, || match self.substrate {
            CorrSubstrate::Sparse(config) => {
                CorrTable::Sparse(SparseCorrelationTable::build_observed(
                    graph,
                    &self.model,
                    slot,
                    config,
                    &ComputePool::from_env(),
                    &self.obs,
                ))
            }
            CorrSubstrate::Dense => CorrTable::Dense(CorrelationTable::new(
                graph,
                &self.model,
                slot,
                PathCorrelation::MaxProduct,
                self.obs.clone(),
            )),
        })
    }

    /// The slot's table with every row built, fanned across the
    /// `RTSE_THREADS`-sized pool: what a serving layer runs before a slot
    /// takes traffic, so no round of that slot pays a row build. Rows
    /// already built are kept, so repeated prewarms of one slot build
    /// nothing.
    pub fn prewarm(&self, graph: &Graph, slot: SlotOfDay) -> Arc<CorrTable> {
        let table = self.corr_table(graph, slot);
        if let CorrTable::Dense(dense) = table.as_ref() {
            dense.fill(&ComputePool::from_env());
        }
        table
    }

    /// Per-slot get-or-init, separated from [`Self::corr_table`] so tests
    /// can drive the initialization with an instrumented build closure.
    fn corr_entry(&self, slot: SlotOfDay, build: impl FnOnce() -> CorrTable) -> Arc<CorrTable> {
        self.corr_cache[slot.index()].get_or_init(|| Arc::new(build())).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_data::{SynthConfig, TrafficGenerator};
    use rtse_graph::generators::grid;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn small_artifacts(seed: u64) -> (Graph, OfflineArtifacts) {
        let g = grid(3, 3);
        let cfg = SynthConfig { days: 8, seed, ..SynthConfig::small_test() };
        let ds = TrafficGenerator::new(&g, cfg).generate();
        let artifacts = OfflineArtifacts::train(&g, &ds.history, &RtfTrainer::default());
        (g, artifacts)
    }

    #[test]
    fn train_and_cache() {
        let (g, artifacts) = small_artifacts(1);
        assert!(artifacts.model().matches_graph(&g));
        let slot = SlotOfDay::from_hm(9, 0);
        let t1 = artifacts.corr_table(&g, slot);
        let t2 = artifacts.corr_table(&g, slot);
        // Same Arc returned from the cache.
        assert!(Arc::ptr_eq(&t1, &t2));
        let t3 = artifacts.corr_table(&g, SlotOfDay::from_hm(10, 0));
        assert!(!Arc::ptr_eq(&t1, &t3));
    }

    #[test]
    fn sparse_substrate_builds_sparse_tables_and_matches_dense() {
        let (g, artifacts) = small_artifacts(7);
        let slot = SlotOfDay::from_hm(9, 0);
        let config = SparseCorrConfig { floor: 0.01, top_k: None };
        let dense = artifacts.corr_table(&g, slot);
        let artifacts = artifacts.with_substrate(CorrSubstrate::Sparse(config));
        let sparse = artifacts.corr_table(&g, slot);
        assert!(matches!(dense.as_ref(), CorrTable::Dense(_)));
        assert!(matches!(sparse.as_ref(), CorrTable::Sparse(_)));
        for a in g.road_ids() {
            for b in g.road_ids() {
                let d = dense.corr(a, b);
                if d >= config.floor {
                    assert_eq!(d.to_bits(), sparse.corr(a, b).to_bits(), "corr({a},{b})");
                }
            }
        }
    }

    /// Regression test for the head-of-line blocking bug: a warm-slot read
    /// must complete while a cold-slot build is still in flight. Under the
    /// old map-wide mutex the cold build held the lock, so the warm read
    /// below would deadlock (the cold build only finishes after the warm
    /// read signals it) and the test would hang.
    #[test]
    fn warm_read_completes_during_cold_build() {
        let (g, artifacts) = small_artifacts(3);
        let warm = SlotOfDay(10);
        let cold = SlotOfDay(20);
        let warm_table = artifacts.corr_table(&g, warm);

        let build_started = Barrier::new(2);
        let warm_read_done = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                artifacts.corr_entry(cold, || {
                    build_started.wait();
                    // Hold the cold slot "mid-build" until the main thread
                    // has proven it can read the warm slot.
                    warm_read_done.wait();
                    CorrelationTable::build(
                        &g,
                        artifacts.model(),
                        cold,
                        PathCorrelation::MaxProduct,
                    )
                    .into()
                });
            });
            build_started.wait();
            let again = artifacts.corr_table(&g, warm);
            assert!(Arc::ptr_eq(&warm_table, &again));
            warm_read_done.wait();
        });
        // The cold build completed and is now cached.
        let cold_table = artifacts.corr_table(&g, cold);
        assert_eq!(cold_table.slot(), cold);
    }

    /// Duplicate concurrent builds of the same cold slot coalesce: exactly
    /// one build closure runs and every caller shares the resulting Arc.
    #[test]
    fn concurrent_cold_builds_coalesce() {
        let (g, artifacts) = small_artifacts(4);
        let slot = SlotOfDay(42);
        let builds = AtomicUsize::new(0);
        let racers = 4;
        let start = Barrier::new(racers);
        let tables: Vec<Arc<CorrTable>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..racers)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        artifacts.corr_entry(slot, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so late arrivals hit the
                            // in-flight path rather than the warm path.
                            std::thread::sleep(Duration::from_millis(20));
                            CorrelationTable::build(
                                &g,
                                artifacts.model(),
                                slot,
                                PathCorrelation::MaxProduct,
                            )
                            .into()
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "duplicate builds must coalesce");
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t));
        }
    }
}
