//! # ssor-engine
//!
//! The batched, parallel routing pipeline for the `ssor` workspace
//! (reproduction of *Sparse Semi-Oblivious Routing: Few Random Paths
//! Suffice*, PODC 2023).
//!
//! The paper's construction decomposes into five stages that every
//! experiment repeats:
//!
//! 1. **Topology** — build the graph ([`TopologySpec`] →
//!    `ssor_graph::generators`);
//! 2. **Template** — build an oblivious routing over it ([`TemplateSpec`]
//!    → any `ssor_oblivious::ObliviousRouting`);
//! 3. **Sample** — draw `α` paths per pair (Definition 5.2), *in parallel
//!    across pairs* ([`sampling::par_alpha_sample`]) and *memoized* by
//!    `(topology, template, α, seed)` ([`PathSystemCache`]);
//! 4. **Adapt** — reveal a demand and optimize the rates within the
//!    candidates (`ssor_core::SemiObliviousRouter`), *in parallel across
//!    the demand batch*, with offline-OPT baselines memoized per
//!    `(topology, demand)`;
//! 5. **Simulate** — optionally round and packet-simulate the result
//!    (`ssor_sim`).
//!
//! A prepared pipeline also serves: [`PreparedPipeline::route_table`]
//! freezes the stage-3 path system into the `ssor_graph::RouteTable`
//! the `ssor-serve` query plane answers from.
//!
//! [`Pipeline`] chains the stages behind a builder; [`ScenarioSpec`]
//! names complete workloads (hypercube adversaries, random permutations,
//! gravity WAN traffic, the Section 8 lower-bound gadget) so that a new
//! experiment is a configuration value, not a new binary.
//!
//! # Examples
//!
//! An `α`-sweep that shares one cache — graphs, templates, and OPT
//! baselines are computed once, and only the `α`-dependent work repeats:
//!
//! ```
//! use ssor_engine::{PathSystemCache, Pipeline, ScenarioSpec};
//!
//! let cache = PathSystemCache::new();
//! let base = ScenarioSpec::HypercubeAdversarial { dim: 3 }.pipeline();
//! let mut last = f64::INFINITY;
//! for alpha in [1usize, 4] {
//!     let report = base.clone().alpha(alpha).run(&cache);
//!     let mean = report.mean_ratio().unwrap();
//!     assert!(mean <= last * 1.2 + 1e-9, "more paths should not hurt");
//!     last = mean;
//! }
//! assert!(cache.stats().hits > 0, "the sweep reused cached stages");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod gravity;
mod pipeline;
mod report_json;
pub mod sampling;
mod spec;
mod stream;
pub mod sweep;

pub use cache::{
    CacheStats, OptBounds, PathSystemCache, SharedTemplate, TemplateBuildStats, TemplateBuilder,
};
pub use pipeline::{EvalRecord, Objective, Pipeline, PreparedPipeline, RunReport};
pub use spec::{
    DemandSpec, Param, ResolveCtx, ScenarioSpec, StreamModel, TemplateSpec, TopologySpec,
};
pub use stream::{FailureSweepReport, FailureTrial, StreamReport, StreamStep};
pub use sweep::{run_sweep, CellRecord, SweepCell, SweepOptions, SweepOutcome};
