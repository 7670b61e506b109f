//! Installed state is validated once and shared: a cache hit hands out
//! the same allocations, an invalid fill is rejected on insert, and
//! sharing never changes a reported bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssor_core::PathSystem;
use ssor_engine::{DemandSpec, PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
use ssor_flow::SolveOptions;
use ssor_graph::{generators, Path, VertexId};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn prepare_hits_share_the_cached_allocations() {
    let cache = PathSystemCache::new();
    let topo = TopologySpec::Hypercube { dim: 3 };
    let p = Pipeline::on(topo.clone())
        .template(TemplateSpec::Valiant)
        .alpha(2)
        .seed(9);
    let first = p.prepare(&cache);
    let second = p.prepare(&cache);
    let cached = cache.paths(&topo, &TemplateSpec::Valiant, 2, 9, || {
        unreachable!("prepare installed this key")
    });
    let graph = cache.graph(&topo);
    for prepared in [&first, &second] {
        let router = prepared.router().expect("congestion objective");
        assert!(Arc::ptr_eq(router.shared_paths(), &cached));
        assert!(Arc::ptr_eq(router.shared_graph(), &graph.0));
        assert!(std::ptr::eq(prepared.paths(), &*cached));
        assert!(std::ptr::eq(prepared.graph(), &*graph.0));
    }
}

#[test]
fn invalid_fill_is_rejected_on_insert() {
    let cache = PathSystemCache::new();
    let topo = TopologySpec::Ring { n: 4 };
    let t = TemplateSpec::ShortestPath;
    // A path of the 6-ring: vertex 5 does not exist on the 4-ring.
    let foreign = || {
        let ring6 = generators::ring(6);
        let mut ps = PathSystem::new();
        ps.insert(Path::from_vertices(&ring6, &[4, 5]).unwrap());
        Arc::new(ps)
    };
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.paths(&topo, &t, 1, 0, foreign)
    }));
    let message = caught.expect_err("an invalid fill must be rejected");
    let message = message
        .downcast_ref::<String>()
        .expect("expect() panics with a String");
    assert!(
        message.contains("InvalidPath { source: 4, target: 5 }"),
        "{message}"
    );
    // Nothing was inserted: the next lookup fills again, and a valid
    // system is accepted.
    let valid = cache.paths(&topo, &t, 1, 0, || Arc::new(PathSystem::new()));
    assert!(valid.is_empty());
}

/// A pipeline shaped like the `te_adapt` benchmark workload: Waxman-64,
/// Räcke, α = 6, one 256-pair traffic matrix, OPT off.
fn te_adapt_shaped(matrix_seed: u64) -> Pipeline {
    let n = 64;
    let mut rng = StdRng::seed_from_u64(matrix_seed);
    let mut pairs = BTreeSet::new();
    while pairs.len() < 256 {
        let s: VertexId = rng.gen_range(0..n);
        let t: VertexId = rng.gen_range(0..n);
        if s != t {
            pairs.insert((s, t));
        }
    }
    Pipeline::on(TopologySpec::Waxman {
        n: n as usize,
        a: 0.4.into(),
        b: 0.2.into(),
        seed: 4,
    })
    .template(TemplateSpec::raecke())
    .alpha(6)
    .seed(2023)
    .solve_options(SolveOptions::with_eps(0.05))
    .without_opt()
    .demand("matrix", DemandSpec::Pairs(pairs.into_iter().collect()))
}

#[test]
fn warm_cache_congestion_is_bit_identical_to_fresh() {
    let fresh = te_adapt_shaped(1).run(&PathSystemCache::new());
    let cache = PathSystemCache::new();
    te_adapt_shaped(2).run(&cache);
    let hits = cache.stats().hits;
    let warm = te_adapt_shaped(1).run(&cache);
    assert!(cache.stats().hits > hits, "the second run is a cache hit");
    assert_eq!(fresh.records.len(), 1);
    assert_eq!(
        fresh.records[0].congestion.to_bits(),
        warm.records[0].congestion.to_bits()
    );
}
