//! Sampling path systems from oblivious routings (Definition 5.2) — the
//! paper's entire construction.
//!
//! * [`alpha_sample`] — `α` iid draws from `R(s, t)` per pair (Theorem 2.5
//!   / Corollary 6.2 setting);
//! * [`alpha_cut_sample`] — `α + cut_G(s, t)` draws per pair (Theorem 5.3
//!   setting, needed for arbitrary fractional demands: the two-cliques
//!   example of Section 2.1 shows `cut` many paths are necessary).
//!
//! Both draw a pair's paths in one [`PathSystem::insert_draws`] call, the
//! draw loop the engine's parallel sampler shares: the template's
//! [`ObliviousRouting::sample_into`] interns each distinct draw straight
//! into the arena (a tree mixture walks each distinct tree once; Valiant
//! streams each draw's bit-fixing walk with no owned path; KSP runs Yen
//! once per pair), with the RNG consumed exactly as `count`
//! [`ObliviousRouting::sample_path`] calls would.

use rand::Rng;
use ssor_graph::maxflow::min_cut_value;
use ssor_graph::{Graph, PathSystem, VertexId};
use ssor_oblivious::ObliviousRouting;
use std::collections::HashMap;

/// An `α`-sample of the oblivious routing on the given pairs
/// (Definition 5.2): for each pair, `α` paths sampled with replacement
/// from `R(s, t)` (duplicates collapse, so `|P(s, t)| <= α`).
///
/// # Panics
///
/// Panics if `alpha == 0` or some pair has `s == t`.
///
/// # Examples
///
/// ```
/// use ssor_core::sample::alpha_sample;
/// use ssor_oblivious::ValiantRouting;
/// use rand::SeedableRng;
///
/// let r = ValiantRouting::new(3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ps = alpha_sample(&r, &[(0, 7), (1, 6)], 4, &mut rng);
/// assert!(ps.sparsity() <= 4);
/// assert_eq!(ps.len(), 2);
/// ```
pub fn alpha_sample<O: ObliviousRouting + ?Sized, R: Rng>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    rng: &mut R,
) -> PathSystem {
    assert!(alpha >= 1, "alpha must be positive");
    let mut ps = PathSystem::new();
    for &(s, t) in pairs {
        assert_ne!(s, t, "pairs must have distinct endpoints");
        ps.insert_draws(s, t, |store, ids| {
            routing.sample_into(s, t, alpha, rng, store, ids);
        });
    }
    ps
}

/// An `(α + cut_G)`-sample (Definition 5.2): `α + cut_G(s, t)` draws per
/// pair, where `cut_G(s, t)` is the unit-capacity minimum cut computed by
/// Dinic. Cut values are memoized per unordered pair.
///
/// # Panics
///
/// Panics if `alpha == 0`, some pair has `s == t`, or the graph is
/// disconnected between a pair.
pub fn alpha_cut_sample<O: ObliviousRouting + ?Sized, R: Rng>(
    routing: &O,
    graph: &Graph,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    rng: &mut R,
) -> PathSystem {
    assert!(alpha >= 1, "alpha must be positive");
    let mut cut_cache: HashMap<(VertexId, VertexId), u64> = HashMap::new();
    let mut ps = PathSystem::new();
    for &(s, t) in pairs {
        assert_ne!(s, t, "pairs must have distinct endpoints");
        let key = (s.min(t), s.max(t));
        let cut = *cut_cache
            .entry(key)
            .or_insert_with(|| min_cut_value(graph, s, t));
        assert!(cut >= 1, "graph disconnected between {s} and {t}");
        ps.insert_draws(s, t, |store, ids| {
            routing.sample_into(s, t, alpha + cut as usize, rng, store, ids);
        });
    }
    ps
}

/// All ordered pairs `(s, t)`, `s != t`, of an `n`-vertex graph — the full
/// domain a semi-oblivious routing must pre-install paths for.
pub fn all_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let mut v = Vec::with_capacity(n * (n - 1));
    for s in 0..n as VertexId {
        for t in 0..n as VertexId {
            if s != t {
                v.push((s, t));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::generators;
    use ssor_oblivious::{KspRouting, ValiantRouting};

    #[test]
    fn alpha_sample_sparsity_bound() {
        let r = ValiantRouting::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = all_pairs(16);
        let ps = alpha_sample(&r, &pairs, 3, &mut rng);
        assert!(ps.sparsity() <= 3);
        assert_eq!(ps.len(), pairs.len());
        assert!(ps.is_valid(r.graph()));
    }

    #[test]
    fn alpha_sample_paths_come_from_support() {
        let r = ValiantRouting::new(3);
        let mut rng = StdRng::seed_from_u64(2);
        let ps = alpha_sample(&r, &[(0, 7)], 5, &mut rng);
        let support: Vec<Vec<u32>> = r
            .path_distribution(0, 7)
            .into_iter()
            .map(|(p, _)| p.edges().to_vec())
            .collect();
        for p in ps.paths(0, 7).unwrap() {
            assert!(support.contains(&p.edges().to_vec()));
        }
    }

    #[test]
    fn cut_sample_counts_include_cut() {
        // Two-cliques bridge: cut between opposite-side vertices is the
        // bridge count; sampling must request alpha + cut paths.
        let g = generators::two_cliques_bridge(5, 3);
        let r = KspRouting::new(&g, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = vec![(4u32, 9u32)]; // no bridge touches vertex 4 or 9
        let ps = alpha_cut_sample(&r, &g, &pairs, 2, &mut rng);
        // 2 + cut(=3) = 5 draws; dedup may reduce, but the KSP support has
        // 8 distinct paths so we expect close to 5 distinct ones.
        let got = ps.paths(4, 9).unwrap().len();
        assert!((2..=5).contains(&got), "got {got}");
        assert!(ps.is_cut_sparse(2, |s, t| min_cut_value(&g, s, t) as usize));
    }

    #[test]
    fn larger_alpha_never_reduces_coverage() {
        let r = ValiantRouting::new(3);
        let pairs = all_pairs(8);
        let mut r1 = StdRng::seed_from_u64(4);
        let mut r2 = StdRng::seed_from_u64(4);
        let small = alpha_sample(&r, &pairs, 1, &mut r1);
        let large = alpha_sample(&r, &pairs, 6, &mut r2);
        assert!(large.total_paths() >= small.total_paths());
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_zero_alpha() {
        let r = ValiantRouting::new(3);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = alpha_sample(&r, &[(0, 1)], 0, &mut rng);
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(all_pairs(5).len(), 20);
        assert!(all_pairs(3).iter().all(|&(s, t)| s != t));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let r = ValiantRouting::new(4);
        let pairs = all_pairs(16);
        let a = alpha_sample(&r, &pairs, 2, &mut StdRng::seed_from_u64(9));
        let b = alpha_sample(&r, &pairs, 2, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
