//! Failure-injection integration tests: the semi-oblivious story under
//! edge failures (the robustness SMORE values the construction for).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor::core::{sample, SemiObliviousRouter};
use ssor::flow::solver::min_congestion_restricted;
use ssor::flow::{Demand, SolveOptions};
use ssor::graph::{generators, Graph};
use ssor::oblivious::{ObliviousRouting, RaeckeRouting, ValiantRouting};

/// Failing one hypercube edge leaves most pairs with surviving candidate
/// paths when α > 1, and none when the single sampled path crossed it.
#[test]
fn diversity_survives_single_edge_failure() {
    let dim = 4;
    let valiant = ValiantRouting::new(dim);
    let d = Demand::hypercube_complement(dim);
    let mut rng = StdRng::seed_from_u64(2);

    for (alpha, min_coverage) in [(1usize, 0.5), (4, 0.9)] {
        let mut ps = sample::alpha_sample(&valiant, &d.support(), alpha, &mut rng);
        let before = ps.len();
        // Fail the busiest edge of the sample.
        let mut use_count = vec![0usize; valiant.graph().m()];
        for (s, t) in d.support() {
            for p in ps.paths(s, t).unwrap() {
                for &e in p.edges() {
                    use_count[e as usize] += 1;
                }
            }
        }
        let busiest = use_count
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(e, _)| e as u32)
            .unwrap();
        ps.remove_paths_through(busiest);
        let after = ps.len();
        let coverage = after as f64 / before as f64;
        assert!(
            coverage >= min_coverage,
            "alpha = {alpha}: coverage {coverage} below {min_coverage}"
        );
        if alpha == 4 {
            // The surviving system still routes the covered demand with
            // finite, reasonable congestion.
            let covered = d.filtered(|s, t, _| ps.paths(s, t).is_some());
            assert!(!covered.is_empty());
            let sol = min_congestion_restricted(
                valiant.graph(),
                &covered,
                &ps,
                &SolveOptions::with_eps(0.1),
            );
            assert!(sol.congestion <= 4.0 * d.size() / valiant.graph().m() as f64 * 8.0 + 8.0);
        }
    }
}

/// After deleting an edge from the *graph*, re-sampling on the damaged
/// graph restores a working router (the full re-provisioning drill).
#[test]
fn reprovision_after_graph_edge_removal() {
    let g = generators::torus(4, 4);
    let mut rng = StdRng::seed_from_u64(3);
    let d = Demand::random_permutation(16, &mut rng);

    // Remove one edge (torus stays connected).
    let kept: Vec<(u32, u32)> = g
        .edges()
        .filter(|&(e, _)| e != 0)
        .map(|(_, uv)| uv)
        .collect();
    let damaged = Graph::from_edges(g.n(), &kept);
    assert!(damaged.is_connected());

    let raecke = RaeckeRouting::build(&damaged, &Default::default(), &mut rng);
    let ps = sample::alpha_sample(&raecke, &d.support(), 4, &mut rng);
    let router = SemiObliviousRouter::new(damaged.clone(), ps);
    assert!(router.covers(&d));
    let rep = router.competitive_report(&d, &SolveOptions::with_eps(0.08));
    assert!(rep.ratio < 12.0, "re-provisioned ratio {}", rep.ratio);
}

/// Path systems never silently contain paths through removed edges.
#[test]
fn remove_paths_through_is_exhaustive() {
    let valiant = ValiantRouting::new(4);
    let d = Demand::hypercube_bit_reversal(4);
    let mut rng = StdRng::seed_from_u64(5);
    let mut ps = sample::alpha_sample(&valiant, &d.support(), 6, &mut rng);
    for dead in [0u32, 7, 13] {
        ps.remove_paths_through(dead);
        for (s, t) in ps.pairs().collect::<Vec<_>>() {
            for p in ps.paths(s, t).unwrap() {
                assert!(!p.contains_edge(dead), "survivor crosses dead edge {dead}");
            }
        }
    }
}
