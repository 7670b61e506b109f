//! # ssor-flow
//!
//! Multicommodity-flow substrate for the `ssor` workspace (reproduction of
//! *Sparse Semi-Oblivious Routing: Few Random Paths Suffice*, PODC 2023).
//!
//! Provides the objects of Section 4 of the paper and the LP machinery the
//! semi-oblivious Stage 4 needs:
//!
//! * [`Demand`] — demand matrices (Definition 2.2): arbitrary, integral,
//!   `{0,1}`, permutation; hypercube adversaries;
//! * [`Routing`] / [`IntegralRouting`] — per-pair path distributions
//!   (a [`Routing`] wraps one `ssor_graph::Distributions`, the workspace's
//!   single interned representation of `R(s, t)`) with congestion
//!   (`cong`) and dilation (`dil`) exactly as defined in the paper;
//! * [`solver`] — the one staged-smoothing Frank–Wolfe min-congestion
//!   core with dual certificates: cold one-shot entry points
//!   ([`min_congestion_restricted`], [`min_congestion_unrestricted`],
//!   [`min_congestion_masked`]) and the stateful [`Solver`], whose warm
//!   state is one `Distributions` of raw per-pair weights that
//!   warm-starts every [`Solver::resolve`];
//! * [`oracle`] — the pluggable best-response layer the solver consumes:
//!   the candidates of a `ssor_graph::PathSystem` (Stage-4 rate
//!   adaptation, read straight off its arena and per-pair id lists) or
//!   all simple paths, optionally failure-masked, with a rayon-parallel
//!   per-source Dijkstra fan-out that is bit-identical at any thread
//!   count;
//! * [`lp`] — a small dense two-phase simplex used to cross-validate the
//!   Frank–Wolfe solver exactly;
//! * [`rounding`] — the Lemma 6.3 randomized rounding plus local search;
//! * [`integral_opt`] — exact integral optima on tiny instances.
//!
//! # Examples
//!
//! ```
//! use ssor_flow::{solver, Demand};
//! use ssor_graph::generators;
//!
//! let g = generators::ring(6);
//! let d = Demand::from_pairs(&[(0, 3)]);
//! let sol = solver::min_congestion_unrestricted(&g, &d, &Default::default());
//! // One unit across a 6-cycle splits over both sides: congestion 1/2.
//! assert!((sol.congestion - 0.5).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decompose;
mod demand;
pub mod integral_opt;
pub mod lp;
pub mod oracle;
pub mod rounding;
mod routing;
pub mod solver;

pub use demand::Demand;
pub use oracle::{AllPathsOracle, CandidateOracle, PathOracle};
pub use routing::{IntegralRouting, Routing};
pub use solver::{
    min_congestion, min_congestion_masked, min_congestion_restricted, min_congestion_unrestricted,
    DemandDelta, MinCongSolution, SolveOptions, Solver, SolverStats,
};
