//! Oblivious routing via random walks (Schapira–Shahaf `[SS14]`).
//!
//! The scheme: to route `s -> t`, launch a uniform random walk at `s`
//! and follow it until it hits `t` (truncated at a length cap). Each
//! walk is demand-independent, so the empirical distribution of
//! shortcut walks is an oblivious routing — the cheapest general-graph
//! template in the workspace (no metric embedding, no Laplacian solve),
//! and the natural baseline the A1 bake-off measures the expensive
//! schemes against.
//!
//! Determinism: the per-pair walk ensemble is a pure function of
//! `(graph, walks, max_len, seed)`. Each pair gets its own RNG stream
//! via nested [`derive_seed`] over a scheme tag, the source, and the
//! target — never a thread-local entropy source — so
//! [`RandomWalkRouting::path_distribution`] is bit-stable across runs
//! and thread counts, and the engine can fingerprint builds the same
//! way it does for FRT ensembles.

use crate::traits::ObliviousRouting;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssor_graph::shortest_path::{bfs_trees_csr_batch, SpTree};
use ssor_graph::{derive_seed, Distributions, EdgeId, Graph, Path, VertexId};

/// Stream tag decorrelating random-walk seeds from every other consumer
/// of the same master seed (the engine's stream-tag discipline).
const RW_STREAM_TAG: u64 = 0x5257_4b53_5331_3465;

/// Oblivious routing via truncated uniform random walks `[SS14]`.
///
/// `walks` walks per pair, each at most `max_len` steps; walks that hit
/// the target are shortcut to simple paths, walks that do not fall back
/// to the BFS shortest path (so every pair's distribution has full
/// mass even on walk-hostile topologies).
///
/// # Examples
///
/// ```
/// use ssor_oblivious::{ObliviousRouting, RandomWalkRouting};
///
/// let g = ssor_graph::generators::ring(6);
/// let r = RandomWalkRouting::new(&g, 16, 64, 7);
/// let dist = r.path_distribution(0, 3);
/// let total: f64 = dist.iter().map(|(_, w)| w).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct RandomWalkRouting {
    graph: Graph,
    /// BFS trees for the truncated-walk fallback path, one per source.
    trees: Vec<SpTree>,
    walks: usize,
    max_len: usize,
    seed: u64,
}

impl RandomWalkRouting {
    /// Builds the routing: `walks` truncated walks per pair, each at
    /// most `max_len` steps, all streams derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `walks == 0`, `max_len == 0`, or `g` is disconnected
    /// (the BFS fallback needs every pair reachable).
    pub fn new(g: &Graph, walks: usize, max_len: usize, seed: u64) -> Self {
        assert!(walks >= 1, "need at least one walk per pair");
        assert!(max_len >= 1, "walks must be allowed at least one step");
        assert!(g.is_connected());
        let csr = g.csr();
        let sources: Vec<VertexId> = g.vertices().collect();
        RandomWalkRouting {
            graph: g.clone(),
            trees: bfs_trees_csr_batch(&csr, &sources),
            walks,
            max_len,
            seed,
        }
    }

    /// One uniform random walk `s -> t`, shortcut to a simple path, or
    /// `None` if it fails to hit `t` within `max_len` steps.
    fn walk(&self, s: VertexId, t: VertexId, rng: &mut StdRng) -> Option<Path> {
        let mut cur = s;
        let mut edges: Vec<EdgeId> = Vec::new();
        for _ in 0..self.max_len {
            let arcs = self.graph.neighbors(cur);
            let a = arcs[rng.gen_range(0..arcs.len())];
            edges.push(a.edge);
            cur = a.to;
            if cur == t {
                let p = Path::from_edges(&self.graph, s, &edges)
                    .expect("walk follows graph adjacency")
                    .shortcut();
                return Some(p);
            }
        }
        None
    }
}

impl ObliviousRouting for RandomWalkRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        // Per-pair stream: tag ^ master, then source, then target — the
        // same nested derive_seed discipline as the FRT tree ensemble.
        let pair_seed = derive_seed(derive_seed(self.seed ^ RW_STREAM_TAG, s as u64), t as u64);
        let mut rng = StdRng::seed_from_u64(pair_seed);
        let w = 1.0 / self.walks as f64;
        let mut fallback_mass = 0.0;
        for _ in 0..self.walks {
            match self.walk(s, t, &mut rng) {
                Some(p) => out.push(&p, w),
                None => fallback_mass += w,
            }
        }
        if fallback_mass > 0.0 {
            let p = self.trees[s as usize]
                .path_to(&self.graph, t)
                .expect("connected");
            out.push(&p, fallback_mass);
        }
        out.merge_open();
        // Renormalize the fp residue of summing `walks` copies of 1/walks.
        out.normalize_open(s, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_oblivious_routing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::generators;

    #[test]
    fn validates_as_oblivious_routing() {
        let g = generators::grid(3, 3);
        let r = RandomWalkRouting::new(&g, 16, 128, 11);
        validate_oblivious_routing(&r, &[(0, 8), (2, 6), (1, 5)])
            .expect("random-walk routing must validate");
    }

    #[test]
    fn distribution_is_reproducible() {
        let g = generators::torus(3, 3);
        let a = RandomWalkRouting::new(&g, 24, 64, 5);
        let b = RandomWalkRouting::new(&g, 24, 64, 5);
        for (s, t) in [(0u32, 4u32), (1, 8), (2, 6)] {
            let da = a.path_distribution(s, t);
            let db = b.path_distribution(s, t);
            assert_eq!(da.len(), db.len());
            for ((pa, wa), (pb, wb)) in da.iter().zip(&db) {
                assert_eq!(pa.edges(), pb.edges());
                assert_eq!(wa.to_bits(), wb.to_bits());
            }
        }
        // A different master seed gives a different ensemble (on a
        // topology with real branching).
        let c = RandomWalkRouting::new(&g, 24, 64, 6);
        let changed = [(0u32, 4u32), (1, 8), (2, 6)].iter().any(|&(s, t)| {
            let da = a.path_distribution(s, t);
            let dc = c.path_distribution(s, t);
            da.len() != dc.len()
                || da
                    .iter()
                    .zip(&dc)
                    .any(|((pa, wa), (pc, wc))| pa.edges() != pc.edges() || wa != wc)
        });
        assert!(changed, "seed must steer the walk ensemble");
    }

    #[test]
    fn truncated_walks_fall_back_to_shortest_paths() {
        // max_len 1 on a path graph: a walk from 0 can only ever reach
        // vertex 1, so routing 0 -> 3 relies entirely on the fallback.
        let g = ssor_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = RandomWalkRouting::new(&g, 8, 1, 3);
        let dist = r.path_distribution(0, 3);
        assert_eq!(dist.len(), 1);
        assert!((dist[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(dist[0].0.hop(), 3);
    }

    #[test]
    fn sample_path_draws_from_the_ensemble() {
        let g = generators::grid(3, 3);
        let r = RandomWalkRouting::new(&g, 8, 64, 2);
        let dist = r.path_distribution(0, 8);
        let support: Vec<_> = dist.iter().map(|(p, _)| p.edges().to_vec()).collect();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let p = r.sample_path(0, 8, &mut rng);
            assert!(support.contains(&p.edges().to_vec()));
        }
    }

    #[test]
    fn walks_spread_mass_on_rings() {
        // On a ring both directions are symmetric; with enough walks the
        // ensemble should discover both sides of 0 -> 3.
        let g = generators::ring(6);
        let r = RandomWalkRouting::new(&g, 64, 128, 13);
        let dist = r.path_distribution(0, 3);
        assert!(dist.len() >= 2, "walks found only one side of the ring");
    }
}
