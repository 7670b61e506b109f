//! Cross-template contract: every [`TemplateSpec`] variant, on random
//! connected multigraphs (hypercubes for the hypercube-only specs), must
//!
//! 1. pass [`validate_oblivious_routing`] on every ordered pair;
//! 2. draw `sample_path` results from the support of `path_distribution`;
//! 3. write, commit and freeze into an all-pairs [`RouteTable`] whose
//!    per-pair path ids materialize to `path_distribution`'s paths in
//!    order, with every CDF entry bitwise equal to the prefix sum of the
//!    weights normalized by their left-to-right total.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssor::core::sample::all_pairs;
use ssor::engine::{TemplateSpec, TopologySpec};
use ssor::graph::{Distributions, Graph, Preconditioner, RouteTable, VertexId};
use ssor::oblivious::{validate_oblivious_routing, ObliviousRouting};

/// One small instance of every variant.
fn every_spec() -> Vec<TemplateSpec> {
    vec![
        TemplateSpec::Valiant,
        TemplateSpec::BitFixing,
        TemplateSpec::Raecke {
            iterations: 4,
            epsilon: 0.5.into(),
        },
        TemplateSpec::FrtEnsemble { trees: 3 },
        TemplateSpec::Ksp { k: 3 },
        TemplateSpec::ShortestPath,
        TemplateSpec::Ecmp,
        TemplateSpec::Electrical {
            tolerance: 1e-10.into(),
            preconditioner: Preconditioner::Jacobi,
        },
        TemplateSpec::RandomWalk {
            walks: 6,
            max_len: 24,
        },
        TemplateSpec::Vlb,
    ]
}

/// Whether `spec` only builds on a hypercube.
fn hypercube_only(spec: &TemplateSpec) -> bool {
    matches!(spec, TemplateSpec::Valiant | TemplateSpec::BitFixing)
}

/// A connected Erdős–Rényi draw plus `extra` parallel copies of random
/// existing edges.
fn multigraph(topo: &TopologySpec, extra: usize, seed: u64) -> Graph {
    let base = topo.build_graph();
    let mut g = base.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..extra {
        let (u, v) = base.endpoints(rng.gen_range(0..base.m()) as u32);
        g.add_edge(u, v);
    }
    g
}

/// Every pair's distribution as the template writes it, committed
/// through the one normalizer and frozen into a table.
fn freeze_template(template: &dyn ObliviousRouting, pairs: &[(VertexId, VertexId)]) -> RouteTable {
    let mut dists = Distributions::new();
    for &(s, t) in pairs {
        template.write_distribution(s, t, &mut dists);
        dists.commit(s, t);
    }
    RouteTable::freeze(template.graph().n(), 1, dists)
}

/// Checks the three contract clauses for `spec` built on `(topo, g)`.
fn check_contract(
    spec: &TemplateSpec,
    topo: &TopologySpec,
    g: &Graph,
    seed: u64,
) -> Result<(), TestCaseError> {
    let template = spec.build(topo, g, seed);
    let pairs: Vec<(VertexId, VertexId)> = all_pairs(g.n());
    if let Err(e) = validate_oblivious_routing(template.as_ref(), &pairs) {
        return Err(TestCaseError::Fail(format!("{spec:?}: {e}")));
    }
    let table = freeze_template(template.as_ref(), &pairs);
    prop_assert_eq!(table.pair_count(), pairs.len());
    let mut rng = StdRng::seed_from_u64(seed);
    for &(s, t) in &pairs {
        let dist = template.path_distribution(s, t);
        for _ in 0..3 {
            let p = template.sample_path(s, t, &mut rng);
            prop_assert!(
                dist.iter().any(|(q, _)| *q == p),
                "{:?}: sample {:?} outside the support of ({}, {})",
                spec,
                p,
                s,
                t
            );
        }
        let (Some(ids), Some(cdf)) = (table.path_ids(s, t), table.cdf(s, t)) else {
            return Err(TestCaseError::Fail(format!("{spec:?}: ({s}, {t}) missing")));
        };
        prop_assert_eq!(
            ids.len(),
            dist.len(),
            "{:?}: support size at ({}, {})",
            spec,
            s,
            t
        );
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0f64;
        for ((id, c), (p, w)) in ids.iter().zip(cdf).zip(&dist) {
            acc += w / total;
            prop_assert_eq!(
                c.to_bits(),
                acc.to_bits(),
                "{:?}: CDF bits at ({}, {})",
                spec,
                s,
                t
            );
            prop_assert_eq!(
                &table.store().materialize(*id),
                p,
                "{:?}: path order at ({}, {})",
                spec,
                s,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    /// Every general-graph spec on a random connected multigraph.
    #[test]
    fn general_templates_honor_the_contract(
        n in 3usize..8,
        p in 0.2f64..0.7,
        extra in 1usize..6,
        seed in any::<u64>(),
    ) {
        let topo = TopologySpec::ErdosRenyi { n, p: p.into(), seed };
        let g = multigraph(&topo, extra, seed);
        prop_assert!(g.m() > topo.build_graph().m(), "no parallel edge was added");
        for spec in every_spec().iter().filter(|s| !hypercube_only(s)) {
            check_contract(spec, &topo, &g, seed)?;
        }
    }

    /// The hypercube-only specs on hypercubes of dimension 2–4.
    #[test]
    fn hypercube_templates_honor_the_contract(dim in 2u32..5, seed in any::<u64>()) {
        let topo = TopologySpec::Hypercube { dim };
        let g = topo.build_graph();
        for spec in every_spec().iter().filter(|s| hypercube_only(s)) {
            check_contract(spec, &topo, &g, seed)?;
        }
    }
}
