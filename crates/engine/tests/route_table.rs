//! `PreparedPipeline::route_table` serves the prepared α-path system: on
//! every pair exactly `P(s, t)`, in path-system order, at equal rates
//! through the one normalizer, over `P`'s own arena — and the same table
//! at any worker count.

use ssor_core::completion::ScaleGrowth;
use ssor_engine::{
    Objective, PathSystemCache, Pipeline, PreparedPipeline, TemplateSpec, TopologySpec,
};
use ssor_graph::{normalize_run, PathId, RouteTable};
use std::collections::BTreeSet;

/// FRT, Valiant and Räcke templates on small topologies.
fn pipelines() -> Vec<Pipeline> {
    vec![
        Pipeline::on(TopologySpec::Grid { rows: 4, cols: 4 })
            .template(TemplateSpec::FrtEnsemble { trees: 3 })
            .alpha(3)
            .seed(1),
        Pipeline::on(TopologySpec::Hypercube { dim: 3 })
            .template(TemplateSpec::Valiant)
            .alpha(4)
            .seed(2),
        Pipeline::on(TopologySpec::ErdosRenyi {
            n: 10,
            p: 0.4.into(),
            seed: 3,
        })
        .template(TemplateSpec::Raecke {
            iterations: 4,
            epsilon: 0.5.into(),
        })
        .alpha(2)
        .seed(3),
    ]
}

fn table(prepared: &PreparedPipeline, generation: u64) -> RouteTable {
    prepared
        .route_table(generation)
        .expect("the congestion objective has a router")
}

#[test]
fn route_table_freezes_the_sampled_path_system() {
    let cache = PathSystemCache::new();
    for pipeline in pipelines() {
        let prepared = pipeline.prepare(&cache);
        let paths = prepared.paths();
        let table = table(&prepared, 7);
        assert_eq!(table.generation(), 7);
        assert_eq!(table.n(), prepared.graph().n());
        assert_eq!(table.pair_count(), paths.len());
        let store = table.store();
        let mut served = BTreeSet::new();
        for (s, t) in paths.pairs() {
            let ids = table.path_ids(s, t).expect("every pair of P is served");
            let materialized: Vec<_> = ids.iter().map(|&id| store.materialize(id)).collect();
            assert_eq!(Some(materialized), paths.paths(s, t), "P({s}, {t})");
            // Equal rates: the normalizer over k ones, prefix-summed.
            let mut run: Vec<(PathId, f64)> = ids.iter().map(|&id| (id, 1.0)).collect();
            normalize_run(store, &mut run, s, t);
            let mut acc = 0.0f64;
            let prefix: Vec<u64> = run
                .iter()
                .map(|&(_, w)| {
                    acc += w;
                    acc.to_bits()
                })
                .collect();
            let cdf = table.cdf(s, t).expect("a served pair has a CDF");
            let bits: Vec<u64> = cdf.iter().map(|c| c.to_bits()).collect();
            assert_eq!(bits, prefix, "CDF bits at ({s}, {t})");
            served.extend(ids.iter().copied());
        }
        assert_eq!(table.total_path_refs(), paths.total_paths());
        let arena: BTreeSet<PathId> = store.ids().collect();
        assert_eq!(served, arena, "the arena holds exactly the paths of P");
    }
}

#[test]
fn route_table_needs_a_semi_oblivious_router() {
    let prepared = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
        .template(TemplateSpec::Valiant)
        .alpha(2)
        .objective(Objective::CompletionTime {
            growth: ScaleGrowth::Log,
        })
        .prepare(&PathSystemCache::new());
    assert!(prepared.route_table(0).is_none());
}

#[test]
fn tables_are_identical_at_1_2_8_workers() {
    let build = |threads: usize| -> Vec<RouteTable> {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        assert_eq!(rayon::current_num_threads(), threads, "override honored");
        let cache = PathSystemCache::new();
        let tables = pipelines()
            .iter()
            .map(|p| table(&p.prepare(&cache), 1))
            .collect();
        std::env::remove_var("RAYON_NUM_THREADS");
        tables
    };
    let one = build(1);
    for threads in [2, 8] {
        for (a, b) in one.iter().zip(build(threads)) {
            assert_eq!(a.store().len(), b.store().len());
            for id in a.store().ids() {
                assert_eq!(a.store().edges(id), b.store().edges(id), "arena id {id:?}");
            }
            for s in 0..a.n() as u32 {
                for t in 0..a.n() as u32 {
                    assert_eq!(a.path_ids(s, t), b.path_ids(s, t));
                    assert_eq!(a.cdf(s, t), b.cdf(s, t));
                }
            }
        }
    }
}
