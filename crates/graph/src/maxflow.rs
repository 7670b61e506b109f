//! Dinic maximum flow / minimum cut on the undirected multigraph.
//!
//! The paper's `(α + cut_G)`-sparse samples (Definition 5.2) need the value
//! of the minimum `(s, t)`-cut, where every edge has unit capacity (parallel
//! edges carry capacity through multiplicity, per Section 4). Dinic with
//! unit capacities runs in `O(m * sqrt(m))`, more than fast enough for the
//! experiment scales.

use crate::graph::{Graph, VertexId};
use std::collections::VecDeque;

/// Internal residual arc.
#[derive(Debug, Clone)]
struct ResArc {
    to: u32,
    cap: i64,
    /// Index of the reverse arc in `to`'s list.
    rev: u32,
}

/// Dinic max-flow solver over a directed residual network (driven by
/// [`min_cut_value`]).
#[derive(Debug)]
struct Dinic {
    adj: Vec<Vec<ResArc>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(n: usize) -> Self {
        Dinic {
            adj: vec![Vec::new(); n],
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    /// The residual network of `g` with unit capacity on every edge (the
    /// paper's model): each undirected edge is a symmetric pair of arcs.
    fn unit(g: &Graph) -> Self {
        let mut d = Dinic::new(g.n());
        for (_, (u, v)) in g.edges() {
            d.add_arc(u, v, 1, 1);
        }
        d
    }

    fn add_arc(&mut self, u: u32, v: u32, cap: i64, cap_rev: i64) {
        let ulen = self.adj[u as usize].len() as u32;
        let vlen = self.adj[v as usize].len() as u32;
        self.adj[u as usize].push(ResArc {
            to: v,
            cap,
            rev: vlen,
        });
        self.adj[v as usize].push(ResArc {
            to: u,
            cap: cap_rev,
            rev: ulen,
        });
    }

    fn bfs(&mut self, s: u32, t: u32) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut q = VecDeque::new();
        self.level[s as usize] = 0;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for a in &self.adj[v as usize] {
                if a.cap > 0 && self.level[a.to as usize] < 0 {
                    self.level[a.to as usize] = self.level[v as usize] + 1;
                    q.push_back(a.to);
                }
            }
        }
        self.level[t as usize] >= 0
    }

    fn dfs(&mut self, v: u32, t: u32, f: i64) -> i64 {
        if v == t {
            return f;
        }
        while self.iter[v as usize] < self.adj[v as usize].len() {
            let i = self.iter[v as usize];
            let (to, cap, rev) = {
                let a = &self.adj[v as usize][i];
                (a.to, a.cap, a.rev)
            };
            if cap > 0 && self.level[to as usize] == self.level[v as usize] + 1 {
                let d = self.dfs(to, t, f.min(cap));
                if d > 0 {
                    self.adj[v as usize][i].cap -= d;
                    self.adj[to as usize][rev as usize].cap += d;
                    return d;
                }
            }
            self.iter[v as usize] += 1;
        }
        0
    }

    fn max_flow(&mut self, s: u32, t: u32) -> i64 {
        assert_ne!(s, t);
        let mut flow = 0;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, i64::MAX);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// `cut_G(s, t)`: size of the minimum cut with unit edge capacities, as used
/// by Definition 2.1 of the paper. Returns 0 when `s == t` (paper
/// convention: `cut_G(v, v) = 0`).
pub fn min_cut_value(g: &Graph, s: VertexId, t: VertexId) -> u64 {
    if s == t {
        return 0;
    }
    Dinic::unit(g).max_flow(s, t) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force min cut by enumerating all vertex bipartitions.
    fn brute_cut(g: &Graph, s: VertexId, t: VertexId) -> u64 {
        let n = g.n();
        assert!(n <= 16);
        let mut best = u64::MAX;
        for mask in 0u32..(1 << n) {
            if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
                continue;
            }
            let cut = g
                .edges()
                .filter(|&(_, (u, v))| (mask >> u) & 1 != (mask >> v) & 1)
                .count() as u64;
            best = best.min(cut);
        }
        best
    }

    #[test]
    fn line_graph_cut_is_one() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(min_cut_value(&g, 0, 3), 1);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(min_cut_value(&g, 0, 1), 3);
    }

    #[test]
    fn cut_of_equal_vertices_is_zero() {
        let g = generators::ring(4);
        assert_eq!(min_cut_value(&g, 2, 2), 0);
    }

    #[test]
    fn hypercube_cut_equals_degree() {
        // Vertex connectivity of the hypercube is d; min cut between any two
        // vertices is exactly d.
        for d in 2..=4u32 {
            let g = generators::hypercube(d);
            assert_eq!(min_cut_value(&g, 0, (1 << d) - 1), d as u64);
            assert_eq!(min_cut_value(&g, 0, 1), d as u64);
        }
    }

    #[test]
    fn two_cliques_cut_is_bridge_count() {
        let g = generators::two_cliques_bridge(6, 4);
        // s in clique A (vertex 5 has no bridge), t in clique B.
        assert_eq!(min_cut_value(&g, 5, 11), 4);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let g = generators::erdos_renyi(8, 0.4, &mut rng);
            let s = rng.gen_range(0..8) as VertexId;
            let mut t = rng.gen_range(0..8) as VertexId;
            if s == t {
                t = (t + 1) % 8;
            }
            assert_eq!(min_cut_value(&g, s, t), brute_cut(&g, s, t));
        }
    }
}
