//! Determinism suite for the serving plane.
//!
//! The query plane's contract: a reply is a pure function of
//! `(generation, request_id)` — independent of the shard count that
//! answered it and of where generation swaps landed in the query stream.
//! These tests pin that contract from three sides:
//!
//! 1. shard invariance — identical reply streams at 1, 2, and 8 query
//!    shards over the same snapshot;
//! 2. swap invariance — a stress run that swaps generations every `N`
//!    batches (for different `N`, and with a live background rebuilder)
//!    must produce replies that replay bit-exactly from each reply's
//!    recorded generation;
//! 3. freeze exactness — a proptest that a [`RouteTable`] frozen from a
//!    `Routing`'s distributions has CDFs equal *bitwise* to the prefix
//!    sums of the routing's normalized weights, and samples the same
//!    paths as a reference scan, on random graphs (the serving snapshot
//!    is the same distribution, only flattened).

use proptest::prelude::*;
use ssor::engine::{PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
use ssor::flow::Routing;
use ssor::graph::{generators, Path, RouteTable, VertexId};
use ssor::serve::{
    answer_batch_on, churned_source, BatchOutcome, ChurnModel, EpochCell, QueryPlane, Rebuilder,
    Request,
};
use std::sync::Arc;

const ALPHA: usize = 4;

fn base_pipeline() -> Pipeline {
    Pipeline::on(TopologySpec::Grid { rows: 3, cols: 3 })
        .template(TemplateSpec::FrtEnsemble { trees: 3 })
        .alpha(2)
}

fn churn() -> ChurnModel {
    ChurnModel::TemplateSeedDrift { master_seed: 2023 }
}

/// Generation `g`'s snapshot, rebuilt from scratch — the offline replay
/// anchor every stress test below compares against.
fn reference_table(g: u64) -> RouteTable {
    churned_source(Arc::new(PathSystemCache::new()), base_pipeline(), churn())(g)
}

fn requests(count: u64, n: u32) -> Vec<Request> {
    (0..count)
        .map(|i| Request {
            id: i,
            s: (i % n as u64) as VertexId,
            t: ((i + 1 + (i / n as u64)) % n as u64) as VertexId,
        })
        .map(|r| {
            if r.s == r.t {
                Request {
                    t: (r.t + 1) % n,
                    ..r
                }
            } else {
                r
            }
        })
        .collect()
}

#[test]
fn replies_identical_at_1_2_8_shards() {
    let table = Arc::new(reference_table(3));
    let reqs = requests(100, 9);
    let cell = Arc::new(EpochCell::new(Arc::clone(&table)));
    let reference = answer_batch_on(&table, ALPHA, 1, &reqs);
    for shards in [1usize, 2, 8] {
        let plane = QueryPlane::new(Arc::clone(&cell), ALPHA, shards);
        assert_eq!(
            plane.answer_batch(&reqs),
            reference,
            "reply stream differs at {shards} shards"
        );
    }
}

/// Drives `batches` query batches against a cell, publishing the next
/// generation every `swap_every` batches, and returns the reply stream.
fn run_with_swap_schedule(
    swap_every: usize,
    batches: usize,
    shards: usize,
    reqs: &[Request],
) -> Vec<BatchOutcome> {
    let mut source = churned_source(Arc::new(PathSystemCache::new()), base_pipeline(), churn());
    let cell = Arc::new(EpochCell::new(Arc::new(source(0))));
    let plane = QueryPlane::new(Arc::clone(&cell), ALPHA, shards);
    let mut generation = 0u64;
    let mut out = Vec::with_capacity(batches);
    for b in 0..batches {
        if b > 0 && b % swap_every == 0 {
            generation += 1;
            cell.publish(Arc::new(source(generation)));
        }
        out.push(plane.answer_batch(reqs));
    }
    out
}

#[test]
fn swap_timing_never_changes_a_generations_replies() {
    let reqs = requests(48, 9);
    // Two very different swap cadences (and shard counts) over the same
    // request stream.
    let fast = run_with_swap_schedule(2, 12, 8, &reqs);
    let slow = run_with_swap_schedule(5, 12, 2, &reqs);
    // Each batch replays bit-exactly from its recorded generation...
    let max_gen = 12 / 2;
    let tables: Vec<RouteTable> = (0..=max_gen).map(reference_table).collect();
    for stream in [&fast, &slow] {
        for batch in stream {
            let g = batch.replies[0].generation;
            assert!(batch.replies.iter().all(|r| r.generation == g));
            let reference = answer_batch_on(&tables[g as usize], ALPHA, 1, &reqs);
            assert_eq!(batch, &reference, "generation {g} does not replay");
        }
    }
    // ...so whenever the two schedules answered from the same generation,
    // their replies are identical even though swaps landed elsewhere.
    for (a, b) in fast.iter().zip(slow.iter()) {
        if a.replies[0].generation == b.replies[0].generation {
            assert_eq!(a, b);
        }
    }
    // Sanity: the cadences actually diverged at some point.
    assert!(
        fast.iter()
            .zip(slow.iter())
            .any(|(a, b)| a.replies[0].generation != b.replies[0].generation),
        "schedules never diverged; the cross-check above is vacuous"
    );
}

#[test]
fn live_rebuilder_stress_stays_replayable() {
    // A background rebuilder swapping as fast as it can build, while the
    // query plane answers batches — every reply must still replay from
    // its recorded generation.
    let mut source = churned_source(
        Arc::new(PathSystemCache::bounded(8)),
        base_pipeline(),
        churn(),
    );
    let cell = Arc::new(EpochCell::new(Arc::new(source(0))));
    let plane = QueryPlane::new(Arc::clone(&cell), ALPHA, 4);
    let max_generations = 6u64;
    let rb = Rebuilder::spawn(Arc::clone(&cell), source, Some(max_generations));
    let reqs = requests(64, 9);
    let mut batches = Vec::new();
    while cell.load().generation() < max_generations {
        batches.push(plane.answer_batch(&reqs));
    }
    batches.push(plane.answer_batch(&reqs));
    assert_eq!(rb.stop(), max_generations);
    let mut seen = std::collections::BTreeSet::new();
    for batch in &batches {
        let g = batch.replies[0].generation;
        seen.insert(g);
        assert_eq!(
            batch,
            &answer_batch_on(&reference_table(g), ALPHA, 1, &reqs),
            "generation {g} does not replay"
        );
    }
    assert!(seen.len() >= 2, "stress never observed a swap");
}

/// Reference selection over a run's normalized weights: `x` scaled by
/// the left-to-right weight total, first prefix reaching `x`, clamped
/// to the last entry.
fn reference_pick(weights: &[f64], u: f64) -> usize {
    let total: f64 = weights.iter().sum();
    let x = u * total;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if acc >= x {
            return i;
        }
    }
    weights.len() - 1
}

proptest! {
    /// On random connected-enough graphs, a [`RouteTable`] frozen from a
    /// [`Routing`]'s distributions must agree with the routing *bitwise*:
    /// same surviving support, CDF entries equal to the prefix sums of
    /// the normalized weights, and every sampled deviate selecting the
    /// same path as the reference scan.
    #[test]
    fn flattened_sampling_matches_routing_reference(
        n in 4usize..12,
        p in 0.3f64..0.9,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng);

        // Random per-pair distributions over up to 3 shortest paths,
        // including zero weights (dropped only after the total).
        let mut routing = Routing::new();
        let mut pushed = Vec::new();
        for s in 0..n as VertexId {
            for t in 0..n as VertexId {
                if s == t {
                    continue;
                }
                let paths: Vec<Path> = ssor::graph::ksp::k_shortest_paths(&g, s, t, 3, &|_| 1.0);
                if paths.is_empty() {
                    continue; // disconnected pair
                }
                let dist: Vec<(Path, f64)> = paths
                    .into_iter()
                    .enumerate()
                    .map(|(i, path)| {
                        let w = if i > 0 && rng.gen::<f64>() < 0.25 {
                            0.0
                        } else {
                            0.1 + rng.gen::<f64>() * 3.0
                        };
                        (path, w)
                    })
                    .collect();
                let kept = dist.iter().filter(|(_, w)| *w > 0.0).count();
                routing.set_distribution(s, t, dist);
                pushed.push((s, t, kept));
            }
        }
        prop_assume!(!pushed.is_empty());
        let table = RouteTable::freeze(n, 1, routing.distributions().clone());

        for &(s, t, kept) in &pushed {
            let reference = routing.distribution(s, t).unwrap();
            let ids = table.path_ids(s, t).unwrap();
            let cdf = table.cdf(s, t).unwrap();
            prop_assert_eq!(ids.len(), reference.len(), "support mismatch at ({}, {})", s, t);
            prop_assert_eq!(ids.len(), kept, "zero weights not dropped at ({}, {})", s, t);

            // CDF = prefix sums of the reference's normalized weights,
            // bitwise (same left-to-right order, same arithmetic).
            let mut acc = 0.0f64;
            for (k, &(id, w)) in reference.iter().enumerate() {
                acc += w;
                prop_assert_eq!(
                    cdf[k].to_bits(), acc.to_bits(),
                    "cdf[{}] diverges at ({}, {})", k, s, t
                );
                // The flattened entry is the same path.
                prop_assert_eq!(
                    table.store().materialize(ids[k]), routing.store().materialize(id),
                    "path {} diverges at ({}, {})", k, s, t
                );
            }

            // Sampling: random deviates plus the exact boundaries.
            let weights: Vec<f64> = reference.iter().map(|&(_, w)| w).collect();
            let mut deviates: Vec<f64> = (0..16).map(|_| rng.gen::<f64>()).collect();
            deviates.extend(cdf.iter().copied().filter(|u| *u < 1.0));
            deviates.push(0.0);
            for u in deviates {
                let picked = table.sample_with(s, t, u).unwrap();
                let expect = ids[reference_pick(&weights, u)];
                prop_assert_eq!(
                    picked, expect,
                    "deviate {} picks differently at ({}, {})", u, s, t
                );
            }
        }
    }
}
