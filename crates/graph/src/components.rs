//! Connected components.
//!
//! The gMission scenario (Section VII-A) selects "a mutually connected
//! sub-component" of the network as the query set; the Fig. 5 experiment
//! grows connected sub-networks of 150–600 roads. Both build on these
//! utilities.

use crate::csr::Graph;
use crate::road::RoadId;
use std::collections::VecDeque;

/// Labels every road with a component index (`0..num_components`) and
/// returns `(labels, num_components)`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.num_roads();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    let mut queue = VecDeque::new();
    for start in graph.road_ids() {
        if label[start.index()] != usize::MAX {
            continue;
        }
        label[start.index()] = next;
        queue.push_back(start);
        while let Some(r) = queue.pop_front() {
            for &(nbr, _) in graph.neighbors(r) {
                if label[nbr.index()] == usize::MAX {
                    label[nbr.index()] = next;
                    queue.push_back(nbr);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

/// Grows a connected sub-component of exactly `size` roads by BFS from
/// `seed`, or `None` when the seed's component is smaller than `size`.
///
/// The traversal order is deterministic (CSR adjacency order), so the same
/// seed always yields the same sub-network — required for reproducible
/// Fig. 5 sweeps.
pub fn grow_connected_subset(graph: &Graph, seed: RoadId, size: usize) -> Option<Vec<RoadId>> {
    let mut out = Vec::with_capacity(size);
    let mut seen = vec![false; graph.num_roads()];
    let mut queue = VecDeque::new();
    seen[seed.index()] = true;
    queue.push_back(seed);
    while let Some(r) = queue.pop_front() {
        out.push(r);
        if out.len() == size {
            return Some(out);
        }
        for &(nbr, _) in graph.neighbors(r) {
            if !seen[nbr.index()] {
                seen[nbr.index()] = true;
                queue.push_back(nbr);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::road::RoadClass;

    /// Two components: triangle {0,1,2} and edge {3,4}; isolated 5.
    fn fixture() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_road(RoadClass::Secondary, (i as f64, 0.0));
        }
        b.add_edge(RoadId(0), RoadId(1));
        b.add_edge(RoadId(1), RoadId(2));
        b.add_edge(RoadId(0), RoadId(2));
        b.add_edge(RoadId(3), RoadId(4));
        b.build()
    }

    #[test]
    fn component_count_and_labels() {
        let g = fixture();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn grow_connected_subset_exact_size() {
        let g = fixture();
        let sub = grow_connected_subset(&g, RoadId(0), 2).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0], RoadId(0));
        // Requesting more roads than the component holds fails.
        assert!(grow_connected_subset(&g, RoadId(3), 3).is_none());
    }

    #[test]
    fn grow_is_deterministic() {
        let g = fixture();
        let a = grow_connected_subset(&g, RoadId(1), 3).unwrap();
        let b = grow_connected_subset(&g, RoadId(1), 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = GraphBuilder::new().build();
        let (labels, count) = connected_components(&g);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
