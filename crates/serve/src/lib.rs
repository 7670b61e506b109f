//! # ssor-serve
//!
//! Routing-as-a-service for the `ssor` workspace (reproduction of
//! *Sparse Semi-Oblivious Routing: Few Random Paths Suffice*, PODC
//! 2023): a sharded query plane over epoch-swapped
//! [`RouteTable`](ssor_graph::RouteTable) snapshots.
//!
//! The paper's headline — `α = O(log n)` random paths per pair suffice
//! for near-optimal congestion — means the *serving* side of
//! semi-oblivious routing is tiny: per pair, the at most `α` sampled
//! paths `P(s, t)` (Definition 5.2) and a sampling CDF over them. This
//! crate turns the engine's batch pipeline into something that answers
//! queries:
//!
//! * [`EpochCell`] — atomic snapshot publication: one brief slot lock
//!   per query batch to clone the current snapshot, which the batch then
//!   answers on however many swaps land meanwhile;
//! * [`QueryPlane`] / [`answer_on`] / [`answer_batch_on`] — the sharded
//!   front-end: `α` paths per request, fanned round-robin over OS
//!   threads and merged in request order;
//! * [`Rebuilder`] / [`churned_source`] / [`ChurnModel`] — the
//!   background loop constructing generation `g + 1` through
//!   `ssor_engine::Pipeline` under topology/seed churn, freezing its
//!   path system at equal rates (no demand is configured, so no rates
//!   are adapted), and swapping it in without stalling readers.
//!
//! **Determinism contract.** A reply is a pure function of
//! `(generation, request_id)`: its RNG stream is [`query_seed`]-derived,
//! the snapshot for each generation is itself a deterministic freeze of
//! a deterministic build, and a batch is answered against a single
//! snapshot. So replies are bit-identical at any shard count and under
//! any swap timing, and any logged reply can be audited offline by
//! rebuilding its generation and replaying its id.
//!
//! # Examples
//!
//! ```
//! use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};
//! use ssor_serve::{EpochCell, QueryPlane, Request};
//! use std::sync::Arc;
//!
//! let prepared = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
//!     .template(TemplateSpec::Valiant)
//!     .alpha(2)
//!     .prepare(&Default::default());
//! let cell = Arc::new(EpochCell::new(Arc::new(prepared.route_table(0).unwrap())));
//! let plane = QueryPlane::new(Arc::clone(&cell), 4, 2);
//! let batch = plane.answer_batch(&[Request { id: 1, s: 0, t: 7 }]);
//! assert_eq!(batch.replies[0].paths.len(), 4);
//! assert_eq!(batch.unroutable, 0);
//! // Publishing a new generation never stalls or perturbs readers:
//! cell.publish(Arc::new(prepared.route_table(1).unwrap()));
//! assert_eq!(plane.generation(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod epoch;
mod query;
mod rebuild;

pub use epoch::EpochCell;
pub use query::{
    answer_batch_on, answer_on, query_seed, BatchOutcome, QueryPlane, Reply, Request,
    QUERY_STREAM_TAG,
};
pub use rebuild::{churned_source, ChurnModel, Rebuilder};
