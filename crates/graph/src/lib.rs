//! Traffic-network substrate for CrowdRTSE.
//!
//! The paper models a traffic network as an undirected graph `N(R, E)` where
//! each vertex is an atomic road segment and each edge is a physical
//! adjacency between roads (Section III-A). This crate provides that graph:
//!
//! * [`RoadId`] / [`Road`] — typed identifiers and per-road metadata;
//! * [`Graph`] — an immutable CSR (compressed sparse row) undirected graph
//!   with `f64` edge weights, built via [`GraphBuilder`];
//! * [`dijkstra`] — single-source shortest paths over arbitrary non-negative
//!   edge costs (used for the path-correlation table, Eqs. 8–10);
//! * [`bfs`] — multi-source BFS hop layering (the GSP update schedule,
//!   Alg. 5) plus plain traversal utilities;
//! * [`components`] — connected components (used by the gMission scenario
//!   builder, which needs a mutually connected sub-component);
//! * [`generators`] — deterministic synthetic road networks, including a
//!   "Hong-Kong-like" 607-road network matching the paper's test bed.

pub mod bfs;
pub mod builder;
pub mod components;
pub mod csr;
pub mod dijkstra;
pub mod generators;
pub mod metrics;
pub mod road;

pub use bfs::{bfs_layers, hop_distances};
pub use builder::GraphBuilder;
pub use components::connected_components;
pub use csr::{EdgeId, Graph};
pub use dijkstra::{dijkstra, dijkstra_with_paths, BoundedDijkstra, ShortestPaths};
pub use metrics::{average_degree, clustering_coefficient, degree_histogram, diameter_estimate};
pub use road::{Road, RoadClass, RoadId};
