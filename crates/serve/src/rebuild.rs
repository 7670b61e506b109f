//! The background rebuilder: next-generation construction under churn.
//!
//! A [`Rebuilder`] owns one OS thread that repeatedly builds the next
//! [`RouteTable`] generation (through whatever source closure it was
//! given — typically [`churned_source`], which drives the engine's
//! [`Pipeline`] + [`PathSystemCache`] through a [`ChurnModel`] and
//! freezes each generation's sampled path system) and publishes it into
//! the shared [`EpochCell`]. Publication is the
//! epoch-swap from [`crate::epoch`]: readers keep answering on the old
//! snapshot mid-build and pick up the new generation on their next epoch
//! check — no stall, no torn state.
//!
//! Each generation's table is a deterministic function of `(base
//! configuration, generation)`, so any served reply can be verified
//! offline by rebuilding its generation and replaying the request.

use crate::epoch::EpochCell;
use ssor_engine::{PathSystemCache, Pipeline, TopologySpec};
use ssor_graph::{derive_seed, RouteTable};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What churns between generations.
#[derive(Debug, Clone)]
pub enum ChurnModel {
    /// Demand/template drift: generation `g` rebuilds the base pipeline
    /// under seed `derive_seed(master_seed, g)` — same topology, fresh
    /// template randomness (an FRT re-draw, a Räcke re-run).
    TemplateSeedDrift {
        /// Master seed the per-generation seeds derive from.
        master_seed: u64,
    },
    /// Topology churn: generation `g` runs on `topologies[g % len]` —
    /// link roll-outs, maintenance rotations.
    TopologyCycle {
        /// The rotation, applied round-robin by generation.
        topologies: Vec<TopologySpec>,
    },
}

/// A generation source driving `base` through `churn`: calling it with
/// generation `g` prepares the churned pipeline through `cache` and
/// freezes the sampled path system into a `RouteTable` stamped `g`
/// ([`PreparedPipeline::route_table`](ssor_engine::PreparedPipeline::route_table):
/// each pair's α-sampled paths at equal rates). Advances the
/// cache generation first, so a capacity-bounded cache evicts
/// oldest-generation entries as churn proceeds (the serving loop's memory
/// stays bounded).
///
/// The returned closure is deterministic per generation — the replay
/// anchor for every reply the plane serves.
///
/// # Panics
///
/// The closure panics if `base` uses an objective without a
/// semi-oblivious router (no path system to freeze), or if a
/// `TopologyCycle` rotation is empty.
///
/// # Examples
///
/// ```
/// use ssor_engine::{PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
/// use ssor_serve::{churned_source, ChurnModel};
/// use std::sync::Arc;
///
/// let cache = Arc::new(PathSystemCache::bounded(4));
/// let base = Pipeline::on(TopologySpec::Ring { n: 8 })
///     .template(TemplateSpec::FrtEnsemble { trees: 2 })
///     .alpha(2);
/// let mut source = churned_source(cache, base, ChurnModel::TemplateSeedDrift { master_seed: 7 });
/// let g1 = source(1);
/// assert_eq!(g1.generation(), 1);
/// assert_eq!(source(1).cdf(0, 4), g1.cdf(0, 4), "deterministic per generation");
/// ```
pub fn churned_source(
    cache: Arc<PathSystemCache>,
    base: Pipeline,
    churn: ChurnModel,
) -> impl FnMut(u64) -> RouteTable + Send + 'static {
    if let ChurnModel::TopologyCycle { topologies } = &churn {
        assert!(
            !topologies.is_empty(),
            "topology rotation must be non-empty"
        );
    }
    move |generation| {
        cache.advance_generation();
        let pipeline = match &churn {
            ChurnModel::TemplateSeedDrift { master_seed } => {
                base.clone().seed(derive_seed(*master_seed, generation))
            }
            ChurnModel::TopologyCycle { topologies } => base
                .clone()
                .with_topology(topologies[generation as usize % topologies.len()].clone()),
        };
        pipeline
            .prepare(&cache)
            .route_table(generation)
            .expect("churned pipeline must sample a path system")
    }
}

/// A background thread building and publishing successive generations.
#[derive(Debug)]
pub struct Rebuilder {
    handle: JoinHandle<()>,
    stop: Arc<AtomicBool>,
    built: Arc<AtomicU64>,
}

impl Rebuilder {
    /// Spawns the rebuild loop: starting after the cell's current
    /// generation, build generation `g` with `source(g)` and publish it,
    /// until [`Rebuilder::stop`] is called or `max_generations` tables
    /// have been published (`None` = only `stop` ends it).
    ///
    /// Readers are never stalled: construction happens entirely off the
    /// query path, and the publish itself is the epoch swap.
    pub fn spawn(
        cell: Arc<EpochCell<RouteTable>>,
        mut source: impl FnMut(u64) -> RouteTable + Send + 'static,
        max_generations: Option<u64>,
    ) -> Rebuilder {
        let stop = Arc::new(AtomicBool::new(false));
        let built = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let built = Arc::clone(&built);
            std::thread::spawn(move || {
                let mut generation = cell.load().generation();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(max) = max_generations {
                        if built.load(Ordering::Relaxed) >= max {
                            break;
                        }
                    }
                    generation += 1;
                    let table = source(generation);
                    assert_eq!(table.generation(), generation, "source must stamp g");
                    cell.publish(Arc::new(table));
                    built.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        Rebuilder {
            handle,
            stop,
            built,
        }
    }

    /// Generations published so far.
    pub fn generations_built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Signals the loop to end and joins it, returning how many
    /// generations it published.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rebuilder panicked");
        self.built.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{answer_batch_on, Request};
    use crate::QueryPlane;
    use ssor_engine::TemplateSpec;

    fn base() -> Pipeline {
        Pipeline::on(TopologySpec::Ring { n: 8 })
            .template(TemplateSpec::FrtEnsemble { trees: 2 })
            .alpha(2)
    }

    #[test]
    fn rebuilder_publishes_up_to_max_generations() {
        let cache = Arc::new(PathSystemCache::new());
        let mut source = churned_source(
            Arc::clone(&cache),
            base(),
            ChurnModel::TemplateSeedDrift { master_seed: 1 },
        );
        let cell = Arc::new(EpochCell::new(Arc::new(source(0))));
        let rb = Rebuilder::spawn(Arc::clone(&cell), source, Some(3));
        while rb.generations_built() < 3 {
            std::thread::yield_now();
        }
        assert_eq!(rb.stop(), 3);
        assert_eq!(cell.load().generation(), 3);
        assert_eq!(cell.epoch(), 3);
        assert!(cache.generation() >= 4, "each build advanced the cache");
    }

    #[test]
    fn topology_cycle_rotates_and_stays_replayable() {
        let cache = Arc::new(PathSystemCache::bounded(4));
        let churn = ChurnModel::TopologyCycle {
            topologies: vec![TopologySpec::Ring { n: 6 }, TopologySpec::Ring { n: 9 }],
        };
        let mut source = churned_source(Arc::clone(&cache), base(), churn.clone());
        let g1 = source(1);
        let g2 = source(2);
        assert_eq!(g1.n(), 9, "generation 1 runs on topologies[1]");
        assert_eq!(g2.n(), 6);
        // Replay from an independent source instance: bit-identical.
        let mut replay = churned_source(Arc::new(PathSystemCache::new()), base(), churn);
        let r1 = replay(1);
        assert_eq!(g1.path_ids(0, 5), r1.path_ids(0, 5));
        assert_eq!(g1.cdf(0, 5), r1.cdf(0, 5));
    }

    #[test]
    fn queries_replay_across_live_swaps() {
        let cache = Arc::new(PathSystemCache::bounded(8));
        let churn = ChurnModel::TemplateSeedDrift { master_seed: 9 };
        let mut source = churned_source(Arc::clone(&cache), base(), churn.clone());
        let cell = Arc::new(EpochCell::new(Arc::new(source(0))));
        let plane = QueryPlane::new(Arc::clone(&cell), 3, 2);
        let rb = Rebuilder::spawn(Arc::clone(&cell), source, Some(5));
        let reqs: Vec<Request> = (0..40)
            .map(|i| Request {
                id: i,
                s: (i % 8) as u32,
                t: ((i + 1) % 8) as u32,
            })
            .collect();
        let mut batches = Vec::new();
        for _ in 0..10 {
            batches.push(plane.answer_batch(&reqs));
        }
        rb.stop();
        // Every batch replays bit-exactly from its recorded generation,
        // no matter where the swaps landed: the source closure is pure
        // per generation, so an independent instance regenerates the
        // exact snapshot that answered.
        let mut replay = churned_source(Arc::new(PathSystemCache::new()), base(), churn);
        for batch in &batches {
            let g = batch.replies[0].generation;
            assert!(
                batch.replies.iter().all(|r| r.generation == g),
                "one snapshot per batch"
            );
            let reference = replay(g);
            assert_eq!(batch, &answer_batch_on(&reference, 3, 1, &reqs));
        }
    }
}
