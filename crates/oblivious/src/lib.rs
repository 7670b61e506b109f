//! # ssor-oblivious
//!
//! Oblivious-routing substrate for the `ssor` workspace (reproduction of
//! *Sparse Semi-Oblivious Routing: Few Random Paths Suffice*, PODC 2023).
//!
//! The paper's construction (Definition 5.2) is "sample a few paths from
//! any good oblivious routing"; this crate supplies the oblivious routings
//! to sample from:
//!
//! * [`ValiantRouting`] — Valiant–Brebner randomized hypercube routing
//!   `[VB81]`, `O(1)`-congested on permutation demands;
//! * [`BitFixingRouting`] — the deterministic strawman hit by the
//!   `Ω̃(sqrt(n))` lower bound `[KKT91]` (experiment E4);
//! * [`RaeckeRouting`] — Räcke's `O(log n)`-competitive general-graph
//!   routing via multiplicative weights over [`frt`] tree embeddings
//!   `[Räc08]`, the scheme SMORE samples in production;
//! * [`HopConstrainedRouting`] — the GHZ21 hop-constrained interface
//!   (simulated; see DESIGN.md substitutions) consumed by Section 7;
//! * [`ElectricalRouting`] — routing along unit electrical currents from
//!   per-source preconditioned Laplacian solves (`O(n)` solves for an
//!   all-pairs template);
//! * [`RandomWalkRouting`] — oblivious routing via random walks
//!   `[SS14]` (Schapira–Shahaf), the cheap sampling baseline;
//! * [`ShortestPathRouting`] / [`EcmpRouting`] / [`KspRouting`] /
//!   [`VlbRouting`] — traffic-engineering baselines.
//!
//! All of them implement [`ObliviousRouting`], whose contract is checked by
//! [`validate_oblivious_routing`].
//!
//! # Examples
//!
//! ```
//! use ssor_oblivious::{ObliviousRouting, ValiantRouting};
//! use ssor_flow::Demand;
//!
//! let r = ValiantRouting::new(4);
//! let d = Demand::hypercube_bit_reversal(4);
//! // Valiant keeps permutation congestion constant-ish.
//! assert!(r.congestion(&d) < 4.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baselines;
pub mod electrical;
pub mod frt;
mod hop;
mod raecke;
mod randomwalk;
mod traits;
mod valiant;

pub use baselines::{EcmpRouting, KspRouting, ShortestPathRouting, VlbRouting};
pub use electrical::{ElectricalError, ElectricalRouting};
pub use frt::{sample_tree_routings_seeded, tree_seed, FrtTree, Metric, TreeRouting};
pub use hop::{HopConstrainedRouting, HopOptions};
pub use raecke::{RaeckeOptions, RaeckeRouting};
pub use randomwalk::RandomWalkRouting;
pub use traits::{validate_oblivious_routing, ObliviousRouting};
pub use valiant::{BitFixingRouting, ValiantRouting};
