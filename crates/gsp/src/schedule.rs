//! BFS-layer update schedule (the `BFT` sort of Alg. 5, line 3).

use rtse_graph::{bfs_layers, Graph, RoadId};

/// The per-layer update order computed once per propagation run.
///
/// Roads in `layers[l]` are exactly the roads at hop distance `l + 1` from
/// the sampled set; `unreachable` roads have no path to any sampled road
/// and stay at their slot mean `μ` (their Eq. (18) update would never be
/// triggered — see the paper's discussion below Eq. (18)).
#[derive(Debug, Clone)]
pub struct UpdateSchedule {
    layers: Vec<Vec<RoadId>>,
    unreachable: Vec<RoadId>,
}

impl UpdateSchedule {
    /// Builds the schedule for a sampled-road set.
    pub fn new(graph: &Graph, sampled: &[RoadId]) -> Self {
        let (layers, unreachable) = bfs_layers(graph, sampled);
        Self { layers, unreachable }
    }

    /// The hop layers, nearest first.
    pub fn layers(&self) -> &[Vec<RoadId>] {
        &self.layers
    }

    /// Roads unreachable from the sampled set.
    pub fn unreachable(&self) -> &[RoadId] {
        &self.unreachable
    }

    /// Number of roads that will be updated each round.
    pub fn num_scheduled(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Iterator over all scheduled roads in update order.
    pub fn iter(&self) -> impl Iterator<Item = RoadId> + '_ {
        self.layers.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_graph::generators::path;

    #[test]
    fn layers_ordered_by_hops() {
        let g = path(5);
        let s = UpdateSchedule::new(&g, &[RoadId(0)]);
        assert_eq!(s.layers().len(), 4);
        assert_eq!(s.layers()[0], vec![RoadId(1)]);
        assert_eq!(s.layers()[3], vec![RoadId(4)]);
        assert_eq!(s.num_scheduled(), 4);
        assert!(s.unreachable().is_empty());
    }

    #[test]
    fn unreachable_reported() {
        let mut b = rtse_graph::GraphBuilder::new();
        for i in 0..4 {
            b.add_road(rtse_graph::RoadClass::Local, (i as f64, 0.0));
        }
        b.add_edge(RoadId(0), RoadId(1)); // 2, 3 isolated
        let g = b.build();
        let s = UpdateSchedule::new(&g, &[RoadId(0)]);
        assert_eq!(s.num_scheduled(), 1);
        assert_eq!(s.unreachable().len(), 2);
    }

    #[test]
    fn empty_sampled_set_schedules_nothing() {
        let g = path(3);
        let s = UpdateSchedule::new(&g, &[]);
        assert_eq!(s.num_scheduled(), 0);
        assert_eq!(s.unreachable().len(), 3);
    }
}
