//! Baseline routings: deterministic shortest path, ECMP, k-shortest
//! paths, and generic-graph Valiant load balancing — the comparators
//! used by the traffic-engineering literature (SMORE `[KYY+18]`) and by
//! experiments E4/E7.

use crate::traits::ObliviousRouting;
use rand::{Rng, RngCore};
use ssor_graph::ksp::k_shortest_paths;
use ssor_graph::shortest_path::{bfs_trees_batch, SpTree};
use ssor_graph::{push_new, Distributions, EdgeId, Graph, Path, PathId, PathStore, VertexId};

/// One BFS tree per vertex, fanned out over rayon workers in
/// source-index order (see [`bfs_trees_batch`]); the shared
/// precompute of the per-source baselines.
fn all_source_bfs_trees(g: &Graph) -> Vec<SpTree> {
    let sources: Vec<VertexId> = g.vertices().collect();
    bfs_trees_batch(g, &sources)
}

/// Deterministic single shortest path per pair (BFS, lowest-edge-id
/// tie-breaking). The `1`-sparse deterministic strawman on general graphs.
#[derive(Debug)]
pub struct ShortestPathRouting {
    graph: Graph,
    trees: Vec<SpTree>,
}

impl ShortestPathRouting {
    /// Precomputes one BFS tree per source (rayon-parallel across
    /// sources, bit-identical at any thread count).
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected.
    pub fn new(g: &Graph) -> Self {
        assert!(g.is_connected());
        ShortestPathRouting {
            graph: g.clone(),
            trees: all_source_bfs_trees(g),
        }
    }

    /// The BFS-tree path `s -> t`.
    fn path(&self, s: VertexId, t: VertexId) -> Path {
        assert_ne!(s, t);
        self.trees[s as usize]
            .path_to(&self.graph, t)
            .expect("connected")
    }
}

impl ObliviousRouting for ShortestPathRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, _rng: &mut dyn RngCore) -> Path {
        self.path(s, t)
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        out.push(&self.path(s, t), 1.0);
    }
}

/// Uniform distribution over the `k` shortest simple paths (Yen), the
/// classic traffic-engineering candidate selector SMORE compares against.
#[derive(Debug)]
pub struct KspRouting {
    graph: Graph,
    k: usize,
}

impl KspRouting {
    /// Creates the routing; paths are computed per query (Yen is the
    /// expensive part, so callers should cache via `path_distribution`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `g` is disconnected.
    pub fn new(g: &Graph, k: usize) -> Self {
        assert!(k >= 1);
        assert!(g.is_connected());
        KspRouting {
            graph: g.clone(),
            k,
        }
    }
}

impl ObliviousRouting for KspRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t);
        let ps = k_shortest_paths(&self.graph, s, t, self.k, &|_| 1.0);
        let i = rng.gen_range(0..ps.len());
        ps.into_iter().nth(i).expect("index drawn from 0..len")
    }

    /// Yen once per pair, then one `gen_range(0..len)` per draw in draw
    /// order, each pick interned (a repeat finds its first draw's id).
    /// Yen takes no randomness, so the ids, the arena and the RNG state
    /// are those of the per-draw loop, which reruns Yen on every draw.
    fn sample_into(
        &self,
        s: VertexId,
        t: VertexId,
        draws: usize,
        rng: &mut dyn RngCore,
        store: &mut PathStore,
        out: &mut Vec<PathId>,
    ) {
        assert_ne!(s, t);
        let ps = k_shortest_paths(&self.graph, s, t, self.k, &|_| 1.0);
        for _ in 0..draws {
            let p = ps
                .get(rng.gen_range(0..ps.len()))
                .expect("index drawn from 0..len");
            push_new(out, store.intern(p));
        }
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        for p in &k_shortest_paths(&self.graph, s, t, self.k, &|_| 1.0) {
            out.push(p, 1.0);
        }
        // Unit weights over `k` paths normalize to exactly `1 / k`.
        out.normalize_open(s, t);
    }
}

/// ECMP: the uniform distribution over *all* shortest `(s, t)`-paths.
///
/// Sampling and edge marginals use shortest-path DAG counting (exact,
/// polynomial); `path_distribution` enumerates the support and therefore
/// caps it at [`EcmpRouting::MAX_SUPPORT`] paths (renormalized) — hypercube
/// pairs can have exponentially many shortest paths.
#[derive(Debug)]
pub struct EcmpRouting {
    graph: Graph,
    trees: Vec<SpTree>,
}

impl EcmpRouting {
    /// Cap on the explicit support returned by `path_distribution`.
    pub const MAX_SUPPORT: usize = 64;

    /// Precomputes BFS trees (distances) from every source
    /// (rayon-parallel across sources, bit-identical at any thread
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected.
    pub fn new(g: &Graph) -> Self {
        assert!(g.is_connected());
        EcmpRouting {
            graph: g.clone(),
            trees: all_source_bfs_trees(g),
        }
    }

    /// Number of shortest `s -> t` paths through each vertex-level DP.
    /// `counts[v]` = number of shortest `s -> v` paths (saturating).
    fn count_from(&self, s: VertexId) -> Vec<u128> {
        let dist = &self.trees[s as usize].dist;
        let n = self.graph.n();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        // `total_cmp`, not `partial_cmp().unwrap()`: a NaN distance (a
        // poisoned tree from a caller-supplied length function) must not
        // panic mid-build — NaNs order last and simply never extend a
        // shortest-path count.
        order.sort_by(|&a, &b| dist[a as usize].total_cmp(&dist[b as usize]));
        let mut counts = vec![0u128; n];
        counts[s as usize] = 1;
        for &v in &order {
            if counts[v as usize] == 0 {
                continue;
            }
            for a in self.graph.neighbors(v) {
                if dist[a.to as usize] == dist[v as usize] + 1.0 {
                    counts[a.to as usize] =
                        counts[a.to as usize].saturating_add(counts[v as usize]);
                }
            }
        }
        counts
    }

    /// One draw from `R(s, t)`: walks backwards from `t`, choosing each
    /// predecessor on the shortest-path DAG with probability proportional
    /// to its path count from `s` (`counts`, from `count_from(s)`), one
    /// `gen::<f64>()` per hop. Leaves the path, from `s`, in `walk`.
    fn draw(
        &self,
        s: VertexId,
        t: VertexId,
        counts: &[u128],
        rng: &mut dyn RngCore,
        walk: &mut DagWalk,
    ) {
        let dist = &self.trees[s as usize].dist;
        let DagWalk {
            preds,
            vertices,
            edges,
        } = walk;
        vertices.clear();
        edges.clear();
        vertices.push(t);
        let mut cur = t;
        while cur != s {
            preds.clear();
            preds.extend(
                self.graph
                    .neighbors(cur)
                    .iter()
                    .filter(|a| dist[a.to as usize] + 1.0 == dist[cur as usize])
                    .map(|a| (a.to, a.edge, counts[a.to as usize])),
            );
            let total: u128 = preds.iter().map(|&(_, _, c)| c).sum();
            let mut x = (rng.gen::<f64>() * total as f64) as u128;
            let mut chosen = preds.len() - 1;
            for (i, &(_, _, c)) in preds.iter().enumerate() {
                if x < c {
                    chosen = i;
                    break;
                }
                x -= c;
            }
            let (pv, pe, _) = preds[chosen];
            vertices.push(pv);
            edges.push(pe);
            cur = pv;
        }
        vertices.reverse();
        edges.reverse();
    }
}

/// Scratch of one ECMP draw: the current vertex's weighted predecessors
/// and the path walked so far.
#[derive(Default)]
struct DagWalk {
    preds: Vec<(VertexId, EdgeId, u128)>,
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
}

impl ObliviousRouting for EcmpRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t);
        let mut walk = DagWalk::default();
        self.draw(s, t, &self.count_from(s), rng, &mut walk);
        Path::from_edges(&self.graph, s, &walk.edges).expect("DAG walk is a valid path")
    }

    /// The path counts from `s` once per pair, then one predecessor walk
    /// per draw, each interned straight from the walk's buffers. The
    /// counts take no randomness, so the ids, the arena and the RNG state
    /// are those of the per-draw loop, which recounts on every draw.
    fn sample_into(
        &self,
        s: VertexId,
        t: VertexId,
        draws: usize,
        rng: &mut dyn RngCore,
        store: &mut PathStore,
        out: &mut Vec<PathId>,
    ) {
        assert_ne!(s, t);
        let counts = self.count_from(s);
        let mut walk = DagWalk::default();
        for _ in 0..draws {
            self.draw(s, t, &counts, rng, &mut walk);
            push_new(out, store.intern_parts(&walk.vertices, &walk.edges));
        }
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        // Enumerate shortest paths by DFS over the shortest-path DAG,
        // capped at MAX_SUPPORT, then weight them uniformly.
        let dist = &self.trees[s as usize].dist;
        fn dfs(
            g: &Graph,
            dist: &[f64],
            t: VertexId,
            stack_verts: &mut Vec<VertexId>,
            stack_edges: &mut Vec<EdgeId>,
            out: &mut Distributions,
        ) {
            if out.open().len() >= EcmpRouting::MAX_SUPPORT {
                return;
            }
            let cur = *stack_verts.last().expect("DFS stack seeded with s");
            if cur == t {
                out.push_parts(stack_verts, stack_edges, 1.0);
                return;
            }
            for a in g.neighbors(cur) {
                if dist[a.to as usize] == dist[cur as usize] + 1.0 {
                    stack_verts.push(a.to);
                    stack_edges.push(a.edge);
                    dfs(g, dist, t, stack_verts, stack_edges, out);
                    stack_verts.pop();
                    stack_edges.pop();
                }
            }
        }
        dfs(&self.graph, dist, t, &mut vec![s], &mut Vec::new(), out);
        // Unit weights over `k` paths normalize to exactly `1 / k`.
        out.normalize_open(s, t);
    }

    fn edge_marginals(&self, s: VertexId, t: VertexId) -> Vec<(EdgeId, f64)> {
        // Exact marginals via forward/backward counting:
        // P[e=(u,v) on path] = cnt_s(u) * cnt_t(v) / cnt_s(t) for DAG arcs.
        let dist_s = &self.trees[s as usize].dist;
        let cnt_s = self.count_from(s);
        let cnt_t = self.count_from(t);
        let total = cnt_s[t as usize] as f64;
        let mut out = Vec::new();
        for (e, (u, v)) in self.graph.edges() {
            // Orient along increasing distance from s.
            let (a, b) = if dist_s[u as usize] + 1.0 == dist_s[v as usize] {
                (u, v)
            } else if dist_s[v as usize] + 1.0 == dist_s[u as usize] {
                (v, u)
            } else {
                continue;
            };
            // On a shortest s-t path iff dist_s(a) + 1 + dist_t(b) = dist(s,t).
            let dist_t = &self.trees[t as usize].dist;
            if dist_s[a as usize] + 1.0 + dist_t[b as usize] == dist_s[t as usize] {
                let p = (cnt_s[a as usize] as f64) * (cnt_t[b as usize] as f64) / total;
                if p > 0.0 {
                    out.push((e, p));
                }
            }
        }
        out
    }
}

/// Generic-graph Valiant load balancing: route `s -> t` through a
/// uniformly random intermediate vertex `w` along shortest paths
/// (`s -> w -> t`, shortcut to a simple path).
///
/// The hypercube-native `ValiantRouting` exploits bit-fixing structure;
/// this is the topology-agnostic version the template bake-off runs on
/// WANs and Clos fabrics. Worst-case it doubles dilation in exchange
/// for spreading load over `n` intermediate hubs.
#[derive(Debug)]
pub struct VlbRouting {
    graph: Graph,
    trees: Vec<SpTree>,
}

impl VlbRouting {
    /// Precomputes one BFS tree per vertex (rayon-parallel across
    /// sources, bit-identical at any thread count).
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected.
    pub fn new(g: &Graph) -> Self {
        assert!(g.is_connected());
        VlbRouting {
            graph: g.clone(),
            trees: all_source_bfs_trees(g),
        }
    }

    /// The `s -> t` path through intermediate `w` (shortcut to simple).
    fn via(&self, s: VertexId, w: VertexId, t: VertexId) -> Path {
        if w == s || w == t {
            return self.trees[s as usize]
                .path_to(&self.graph, t)
                .expect("connected");
        }
        let first = self.trees[s as usize]
            .path_to(&self.graph, w)
            .expect("connected");
        let second = self.trees[w as usize]
            .path_to(&self.graph, t)
            .expect("connected");
        first.concat(&second).shortcut()
    }
}

impl ObliviousRouting for VlbRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t);
        // Uniform intermediate: exactly the distribution
        // `path_distribution` enumerates, sampled in O(1) draws.
        let w = rng.gen_range(0..self.graph.n()) as VertexId;
        self.via(s, w, t)
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        let n = self.graph.n();
        let w = 1.0 / n as f64;
        for mid in 0..n as VertexId {
            out.push(&self.via(s, mid, t), w);
        }
        out.merge_open();
        // Renormalize the fp residue of summing n copies of 1/n.
        out.normalize_open(s, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_oblivious_routing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_flow::Demand;
    use ssor_graph::generators;

    #[test]
    fn shortest_path_routing_is_shortest() {
        let g = generators::grid(3, 4);
        let r = ShortestPathRouting::new(&g);
        for (s, t) in [(0u32, 11u32), (2, 9)] {
            let p = r.path_distribution(s, t)[0].0.clone();
            assert_eq!(p.hop(), ssor_graph::shortest_path::hop_distance(&g, s, t));
        }
        validate_oblivious_routing(&r, &[(0, 11), (3, 8)])
            .expect("shortest-path routing must validate");
    }

    #[test]
    fn ksp_routing_has_k_paths_when_available() {
        let g = generators::torus(3, 3);
        let r = KspRouting::new(&g, 3);
        let dist = r.path_distribution(0, 4);
        assert_eq!(dist.len(), 3);
        validate_oblivious_routing(&r, &[(0, 4), (1, 8)]).expect("ksp routing must validate");
    }

    #[test]
    fn ecmp_marginals_sum_to_expected_path_length() {
        // Sum of edge marginals = expected hop count = shortest distance
        // (all shortest paths have equal length).
        let g = generators::hypercube(4);
        let r = EcmpRouting::new(&g);
        for (s, t) in [(0u32, 15u32), (1, 14), (3, 5)] {
            let sum: f64 = r.edge_marginals(s, t).iter().map(|&(_, p)| p).sum();
            let d = ssor_graph::shortest_path::hop_distance(&g, s, t) as f64;
            assert!((sum - d).abs() < 1e-9, "({s},{t}): {sum} vs {d}");
        }
    }

    #[test]
    fn ecmp_sampling_produces_shortest_paths() {
        let g = generators::hypercube(3);
        let r = EcmpRouting::new(&g);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..30 {
            let p = r.sample_path(0, 7, &mut rng);
            assert_eq!(p.hop(), 3);
            assert!(p.is_simple());
            assert!(p.is_valid(&g));
        }
    }

    #[test]
    fn ecmp_distribution_uniform_on_grid() {
        // 2x2 grid: exactly 2 shortest paths between opposite corners.
        let g = generators::grid(2, 2);
        let r = EcmpRouting::new(&g);
        let dist = r.path_distribution(0, 3);
        assert_eq!(dist.len(), 2);
        for (_, w) in &dist {
            assert!((w - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn ecmp_count_from_tolerates_nan_distances() {
        // Regression: the shortest-path DAG ordering used
        // `partial_cmp().unwrap()`, so a single NaN distance (a poisoned
        // tree) panicked mid-build. With `total_cmp` the NaN vertex
        // orders last and contributes no counts.
        let g = generators::grid(2, 2);
        let mut r = EcmpRouting::new(&g);
        r.trees[0].dist[3] = f64::NAN;
        let marginals = r.edge_marginals(0, 1);
        assert!(marginals.iter().all(|&(_, p)| p.is_finite()));
    }

    #[test]
    fn ecmp_beats_single_path_on_complement_demand() {
        let g = generators::hypercube(4);
        let ecmp = EcmpRouting::new(&g);
        let sp = ShortestPathRouting::new(&g);
        let d = Demand::hypercube_complement(4);
        assert!(ecmp.congestion(&d) <= sp.congestion(&d) + 1e-9);
    }

    #[test]
    fn vlb_validates_and_spreads_over_intermediates() {
        let g = generators::grid(3, 3);
        let r = VlbRouting::new(&g);
        validate_oblivious_routing(&r, &[(0, 8), (2, 6), (1, 5)])
            .expect("vlb routing must validate");
        // More than one distinct path: intermediates off the shortest
        // path produce genuinely different routes.
        assert!(r.path_distribution(0, 8).len() > 1);
    }

    #[test]
    fn vlb_samples_match_the_enumerated_support() {
        let g = generators::torus(3, 3);
        let r = VlbRouting::new(&g);
        let dist = r.path_distribution(0, 4);
        let support: Vec<_> = dist.iter().map(|(p, _)| p.edges().to_vec()).collect();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let p = r.sample_path(0, 4, &mut rng);
            assert!(support.contains(&p.edges().to_vec()));
        }
    }

    #[test]
    fn vlb_dilation_at_most_twice_shortest() {
        let g = generators::hypercube(3);
        let r = VlbRouting::new(&g);
        for (s, t) in [(0u32, 7u32), (1, 6), (2, 5)] {
            let d = ssor_graph::shortest_path::hop_distance(&g, s, t);
            for (p, _) in r.path_distribution(s, t) {
                assert!(p.hop() <= 2 * d, "detour {} vs shortest {d}", p.hop());
            }
        }
    }
}
