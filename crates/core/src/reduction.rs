//! The Corollary 6.2 auxiliary-graph reduction, executable.
//!
//! Corollary 6.2 derives the `α`-sample result from the `(α + cut)`-sample
//! theorem by a graph surgery: attach two fresh degree-1 vertices
//! `a_{s,t}, b_{s,t}` to `s` and `t` for every pair; between the auxiliary
//! vertices the min cut is exactly 1, so an `(α - 1 + cut)`-sample on the
//! auxiliary graph draws exactly `α` paths, which map back to `(s, t)`-
//! paths in the original graph.
//!
//! We implement the surgery literally so tests can confirm the two
//! constructions coincide — the reduction is *executable*, not just
//! prose.

use crate::sample::alpha_cut_sample;
use rand::{Rng, RngCore};
use ssor_graph::{Distributions, EdgeId, Graph, Path, PathSystem, VertexId};
use ssor_oblivious::ObliviousRouting;

/// The auxiliary graph `G2` of Corollary 6.2, restricted to the pairs of
/// interest (the corollary uses all `n^2` pairs; building only the needed
/// ones keeps the surgery cheap).
#[derive(Debug)]
struct AuxGraph {
    /// The extended graph: original vertices, then `2 * pairs.len()`
    /// auxiliary vertices.
    graph: Graph,
    /// For pair index `i`: the auxiliary pair `(a_i, b_i)`.
    aux_pairs: Vec<(VertexId, VertexId)>,
    /// For pair index `i`: the two bridge edges `(a_i - s, t - b_i)`.
    bridges: Vec<(EdgeId, EdgeId)>,
    /// The original pairs, aligned with `aux_pairs`.
    pairs: Vec<(VertexId, VertexId)>,
}

impl AuxGraph {
    /// Performs the surgery on `g` for the given pairs.
    ///
    /// # Panics
    ///
    /// Panics if some pair has `s == t`.
    fn build(g: &Graph, pairs: &[(VertexId, VertexId)]) -> AuxGraph {
        let n = g.n();
        let mut g2 = Graph::new(n + 2 * pairs.len());
        for (_, (u, v)) in g.edges() {
            g2.add_edge(u, v);
        }
        let mut aux_pairs = Vec::with_capacity(pairs.len());
        let mut bridges = Vec::with_capacity(pairs.len());
        for (i, &(s, t)) in pairs.iter().enumerate() {
            assert_ne!(s, t);
            let a = (n + 2 * i) as VertexId;
            let b = (n + 2 * i + 1) as VertexId;
            let e1 = g2.add_edge(a, s);
            let e2 = g2.add_edge(t, b);
            aux_pairs.push((a, b));
            bridges.push((e1, e2));
        }
        AuxGraph {
            graph: g2,
            aux_pairs,
            bridges,
            pairs: pairs.to_vec(),
        }
    }

    /// Maps a path between auxiliary endpoints back to the original graph
    /// (strips the two bridge edges). Edge ids below the original `m` are
    /// shared between the graphs by construction.
    ///
    /// # Panics
    ///
    /// Panics if the path does not start and end at auxiliary vertices of
    /// this reduction.
    fn map_back(&self, g: &Graph, p: &Path) -> Path {
        assert!(
            p.hop() >= 2,
            "auxiliary paths have at least two bridge hops"
        );
        let inner = &p.edges()[1..p.edges().len() - 1];
        let start = p.vertices()[1];
        Path::from_edges(g, start, inner).expect("inner path lives in the original graph")
    }
}

/// The oblivious routing `R2` of Corollary 6.2: routes `(a_i, b_i)` by
/// bridging into `R(s_i, t_i)`.
#[derive(Debug)]
struct AuxRouting<'a, O: ObliviousRouting + ?Sized> {
    aux: &'a AuxGraph,
    base: &'a O,
    /// pair index by auxiliary source vertex.
    index_of: std::collections::HashMap<VertexId, usize>,
}

impl<'a, O: ObliviousRouting + ?Sized> AuxRouting<'a, O> {
    /// Wraps the base routing for the auxiliary graph.
    fn new(aux: &'a AuxGraph, base: &'a O) -> Self {
        let index_of = aux
            .aux_pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, _))| (a, i))
            .collect();
        AuxRouting {
            aux,
            base,
            index_of,
        }
    }

    fn extend(&self, i: usize, inner: Path) -> Path {
        let (a, _b) = self.aux.aux_pairs[i];
        let (e1, e2) = self.aux.bridges[i];
        let mut edges = Vec::with_capacity(inner.hop() + 2);
        edges.push(e1);
        edges.extend_from_slice(inner.edges());
        edges.push(e2);
        Path::from_edges(&self.aux.graph, a, &edges).expect("bridged path valid")
    }

    fn pair_index(&self, s: VertexId, t: VertexId) -> usize {
        let i = *self
            .index_of
            .get(&s)
            .unwrap_or_else(|| panic!("{s} is not an auxiliary source"));
        assert_eq!(self.aux.aux_pairs[i].1, t, "mismatched auxiliary pair");
        i
    }
}

impl<O: ObliviousRouting + ?Sized> ObliviousRouting for AuxRouting<'_, O> {
    fn graph(&self) -> &Graph {
        &self.aux.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        let i = self.pair_index(s, t);
        let (os, ot) = self.aux.pairs[i];
        self.extend(i, self.base.sample_path(os, ot, rng))
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        let i = self.pair_index(s, t);
        let (os, ot) = self.aux.pairs[i];
        for (p, w) in self.base.path_distribution(os, ot) {
            out.push(&self.extend(i, p), w);
        }
    }
}

/// The Corollary 6.2 construction end to end: `(α - 1 + cut)`-sample on
/// the auxiliary graph, mapped back — distributionally identical to a
/// direct `α`-sample, which tests assert structurally.
///
/// # Panics
///
/// Panics if `alpha < 2` (the corollary assumes `α >= 2`).
fn alpha_sample_via_reduction<O: ObliviousRouting + ?Sized, R: Rng>(
    base: &O,
    g: &Graph,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    rng: &mut R,
) -> PathSystem {
    assert!(alpha >= 2, "Corollary 6.2 assumes alpha >= 2");
    let aux = AuxGraph::build(g, pairs);
    let routing = AuxRouting::new(&aux, base);
    let sampled = alpha_cut_sample(&routing, &aux.graph, &aux.aux_pairs, alpha - 1, rng);
    let mut out = PathSystem::new();
    for (a, b) in aux.aux_pairs.iter().copied() {
        if let Some(paths) = sampled.paths(a, b) {
            for p in &paths {
                out.insert(aux.map_back(g, p));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{all_pairs, alpha_sample};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::maxflow::min_cut_value;
    use ssor_oblivious::ValiantRouting;

    #[test]
    fn aux_graph_has_unit_cuts_between_aux_pairs() {
        let g = ssor_graph::generators::hypercube(3);
        let pairs = vec![(0u32, 7u32), (1, 6)];
        let aux = AuxGraph::build(&g, &pairs);
        assert_eq!(aux.graph.n(), 8 + 4);
        assert_eq!(aux.graph.m(), g.m() + 4);
        for &(a, b) in &aux.aux_pairs {
            assert_eq!(
                min_cut_value(&aux.graph, a, b),
                1,
                "Corollary 6.2's key property"
            );
        }
    }

    #[test]
    fn reduction_sample_matches_direct_sample_shape() {
        let r = ValiantRouting::new(3);
        let g = r.graph().clone();
        let pairs = all_pairs(8);
        let alpha = 4;
        let mut rng1 = StdRng::seed_from_u64(1);
        let via = alpha_sample_via_reduction(&r, &g, &pairs, alpha, &mut rng1);
        assert!(via.is_valid(&g));
        assert!(via.sparsity() <= alpha, "(α-1) + cut(=1) = α draws");
        // Every mapped-back path is in the base support.
        for (s, t) in via.pairs() {
            let support: Vec<Vec<u32>> = r
                .path_distribution(s, t)
                .into_iter()
                .map(|(p, _)| p.edges().to_vec())
                .collect();
            for p in via.paths(s, t).unwrap() {
                assert!(support.contains(&p.edges().to_vec()));
            }
        }
        // Same sparsity profile as a direct sample (same number of draws).
        let mut rng2 = StdRng::seed_from_u64(1);
        let direct = alpha_sample(&r, &pairs, alpha, &mut rng2);
        assert_eq!(via.len(), direct.len());
    }

    #[test]
    fn map_back_strips_bridges_exactly() {
        let g = ssor_graph::generators::ring(5);
        let pairs = vec![(0u32, 2u32)];
        let aux = AuxGraph::build(&g, &pairs);
        let inner = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        let r = ssor_oblivious::ShortestPathRouting::new(&g);
        let routing = AuxRouting::new(&aux, &r);
        let bridged = routing.extend(0, inner.clone());
        assert_eq!(bridged.hop(), inner.hop() + 2);
        let back = aux.map_back(&g, &bridged);
        assert_eq!(back, inner);
    }

    #[test]
    #[should_panic(expected = "alpha >= 2")]
    fn rejects_alpha_one() {
        let r = ValiantRouting::new(2);
        let g = r.graph().clone();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = alpha_sample_via_reduction(&r, &g, &[(0, 3)], 1, &mut rng);
    }
}
