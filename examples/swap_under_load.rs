//! Swap-under-load stress for the serving plane (ISSUE 7): a background
//! [`Rebuilder`] churns template generations and epoch-swaps them in
//! while query threads hammer the [`QueryPlane`] — and every reply must
//! still replay **bit-exactly** from the generation recorded in it.
//!
//! ```text
//! cargo run --release --example swap_under_load
//! ```
//!
//! The run reports per-query latency percentiles for a quiet phase (no
//! swaps) and a churn phase (rebuilder swapping continuously): the epoch
//! protocol promises the p99 of the churn phase stays in the same regime
//! — readers take one brief lock per *swap*, never per query.

use ssor::engine::{PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
use ssor::graph::obs::Stopwatch;
use ssor::graph::VertexId;
use ssor::serve::{
    answer_batch_on, churned_source, BatchOutcome, ChurnModel, EpochCell, QueryPlane, Rebuilder,
    Request,
};
use std::sync::Arc;

const ALPHA: usize = 4;
const BATCH: u64 = 256;
const QUIET_BATCHES: usize = 60;
const CHURN_GENERATIONS: u64 = 8;

fn base_pipeline() -> Pipeline {
    Pipeline::on(TopologySpec::Grid { rows: 4, cols: 4 })
        .template(TemplateSpec::FrtEnsemble { trees: 4 })
        .alpha(3)
}

fn churn() -> ChurnModel {
    ChurnModel::TemplateSeedDrift {
        master_seed: 0x10AD,
    }
}

fn requests(n: u32) -> Vec<Request> {
    (0..BATCH)
        .map(|i| {
            let s = (i * 7 % n as u64) as VertexId;
            let t = ((i * 7 + 1 + i / n as u64) % n as u64) as VertexId;
            Request {
                id: i,
                s,
                t: if t == s { (t + 1) % n } else { t },
            }
        })
        .collect()
}

/// Answers `batches` batches, returning every reply batch plus the
/// per-batch wall times in nanoseconds.
fn drive(plane: &QueryPlane, reqs: &[Request], batches: usize) -> (Vec<BatchOutcome>, Vec<u128>) {
    let mut replies = Vec::with_capacity(batches);
    let mut nanos = Vec::with_capacity(batches);
    for _ in 0..batches {
        let clock = Stopwatch::start();
        replies.push(plane.answer_batch(reqs));
        nanos.push(clock.elapsed().as_nanos());
    }
    (replies, nanos)
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i]
}

fn report(label: &str, mut nanos: Vec<u128>) -> (u128, u128) {
    nanos.sort_unstable();
    let (p50, p99) = (percentile(&nanos, 0.5), percentile(&nanos, 0.99));
    println!(
        "  {label:<14} batches={:<4} p50={:>9} ns  p99={:>9} ns  ({} queries/batch)",
        nanos.len(),
        p50,
        p99,
        BATCH
    );
    (p50, p99)
}

fn main() {
    println!("swap-under-load: sharded query plane vs live epoch swaps");
    let mut source = churned_source(
        Arc::new(PathSystemCache::bounded(8)),
        base_pipeline(),
        churn(),
    );
    let cell = Arc::new(EpochCell::new(Arc::new(source(0))));
    let plane = QueryPlane::new(Arc::clone(&cell), ALPHA, 4);
    let reqs = requests(16);

    // Phase 1 — quiet: no swaps in flight.
    let (quiet_replies, quiet_nanos) = drive(&plane, &reqs, QUIET_BATCHES);
    let (_, quiet_p99) = report("quiet", quiet_nanos);

    // Phase 2 — churn: the rebuilder swaps generations as fast as it can
    // construct them while the same plane keeps answering.
    let rb = Rebuilder::spawn(Arc::clone(&cell), source, Some(CHURN_GENERATIONS));
    let mut churn_replies = Vec::new();
    let mut churn_nanos = Vec::new();
    while cell.load().generation() < CHURN_GENERATIONS {
        let (mut r, mut t) = drive(&plane, &reqs, 5);
        churn_replies.append(&mut r);
        churn_nanos.append(&mut t);
    }
    let built = rb.stop();
    let (_, churn_p99) = report("under-churn", churn_nanos);
    println!("  generations swapped in while serving: {built}");

    // Verification — every batch from both phases replays bit-exactly
    // from the generation recorded in its replies.
    let mut replay = churned_source(Arc::new(PathSystemCache::new()), base_pipeline(), churn());
    let mut generations = std::collections::BTreeMap::new();
    let mut verified = 0usize;
    for batch in quiet_replies.iter().chain(churn_replies.iter()) {
        let g = batch.replies[0].generation;
        assert!(
            batch.replies.iter().all(|r| r.generation == g),
            "batch answered from mixed generations"
        );
        assert_eq!(batch.unroutable, 0, "all-pairs snapshots route everything");
        let reference = generations.entry(g).or_insert_with(|| replay(g));
        assert_eq!(
            batch,
            &answer_batch_on(reference, ALPHA, 1, &reqs),
            "generation {g} does not replay bit-exactly"
        );
        verified += batch.replies.len();
    }
    println!(
        "  verified {verified} replies across {} generations: all bit-exact",
        generations.len()
    );
    assert!(generations.len() >= 2, "churn phase never observed a swap");

    // The epoch protocol's promise, loosely checked: churn-phase p99 in
    // the same order of magnitude as quiet p99 (readers never block on a
    // swap; allow generous slack for CI noise and cold caches).
    assert!(
        churn_p99 < quiet_p99.max(1) * 50,
        "churn p99 ({churn_p99} ns) blew up vs quiet p99 ({quiet_p99} ns)"
    );
    println!("swap-under-load stress PASSED");
}
