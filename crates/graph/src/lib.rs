//! # ssor-graph
//!
//! Graph substrate for the `ssor` workspace — the Rust reproduction of
//! *Sparse Semi-Oblivious Routing: Few Random Paths Suffice* (Zuzic ⓡ
//! Haeupler ⓡ Roeyskoe, PODC 2023).
//!
//! This crate provides everything the routing layers need from a graph
//! library, implemented from scratch:
//!
//! * [`Graph`] — an undirected multigraph with stable edge ids (parallel
//!   edges model integer capacities, following Section 4 of the paper);
//! * [`Path`] — walks/simple paths carrying explicit edge ids, with
//!   [`Path::shortcut`] to reduce walks to simple paths;
//! * [`PathStore`] / [`PathId`] — the interning arena the whole stack
//!   shares paths through (`Path` stays the owned boundary type);
//! * [`PathSystem`] — the path system `P = {P(s, t)}` of Definition 2.1:
//!   an arena plus per-pair candidate ids, which samplers build and the
//!   restricted solvers read;
//! * [`Distributions`] — the one representation of per-pair path
//!   distributions `R(s, t)`, with the single weight normalizer
//!   [`normalize_run`];
//! * [`RouteTable`] — the immutable serving snapshot frozen from a
//!   [`Distributions`], with precomputed sampling CDFs;
//! * [`EdgeLoads`] — dense per-edge load accumulation (the congestion
//!   representation), with deterministic [`EdgeLoads::par_merge`];
//! * [`SubTopology`] — failure-masked view over a borrowed graph: `O(1)`
//!   edge knockouts with stable edge ids and no graph rebuild, exported
//!   as the [`EdgeView`] mask the masked traversals take;
//! * [`CsrLaplacian`] — the weighted graph Laplacian flattened for
//!   repeated applies, with a preconditioned, bit-stable CG solver and
//!   multi-RHS batching (the electrical-flow template's linear algebra);
//! * [`generators`] — hypercubes, grids, tori, expanders, Waxman WANs, the
//!   two-cliques bridge example, and friends;
//! * [`shortest_path`] — BFS and Dijkstra trees, walking [`Graph`]'s own
//!   adjacency;
//! * [`maxflow`] — Dinic max-flow for `cut_G(s, t)` (Definition 2.1);
//! * [`matching`] — Hopcroft–Karp, used by the Lemma 8.1 adversary;
//! * [`ksp`] — Yen's k-shortest simple paths (SMORE baseline) and
//!   exhaustive path enumeration for exact small-instance optima;
//! * [`obs`] — the one wall-clock read ([`obs::Stopwatch`]) and the one
//!   per-stage timing shape ([`obs::StageProfile`]).
//!
//! # Examples
//!
//! ```
//! use ssor_graph::{generators, maxflow, shortest_path};
//!
//! let g = generators::hypercube(4);
//! assert_eq!(shortest_path::hop_distance(&g, 0, 15), 4);
//! assert_eq!(maxflow::min_cut_value(&g, 0, 15), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dist;
pub mod generators;
mod graph;
pub mod ksp;
mod laplacian;
mod load;
pub mod matching;
pub mod maxflow;
pub mod obs;
mod par;
mod path;
mod path_system;
mod route_table;
pub mod shortest_path;
mod store;
mod subtopology;

pub use dist::{normalize_run, Distributions};
pub use graph::{Arc, EdgeId, Graph, VertexId};
pub use laplacian::{CsrLaplacian, LaplacianSolve};
pub use load::EdgeLoads;
pub use par::{derive_seed, par_ordered_map};
pub use path::{all_distinct, Path, ShortcutWalk};
pub use path_system::{push_new, PathSystem};
pub use route_table::RouteTable;
pub use store::{PathId, PathStore};
pub use subtopology::{EdgeView, FullTopology, SubTopology};
