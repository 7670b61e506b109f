//! Edge/vertex-masked graph views for failure scenarios.
//!
//! Dynamic scenarios (link-failure sweeps, maintenance drills) need to
//! knock elements out of a topology *cheaply* — thousands of times per
//! experiment — without rebuilding the graph or invalidating edge ids.
//! [`SubTopology`] is that view: it flattens the base graph's adjacency
//! into a [`Csr`] once, then tracks aliveness as two bit masks. Failing a
//! link is an `O(1)` mask flip, restoring the whole topology is a fill,
//! and every edge keeps the id it has in the base graph — so candidate
//! path systems, [`crate::EdgeLoads`] accumulators, and solver output
//! remain directly comparable across scenarios.
//!
//! An edge is *usable* iff the edge itself and both endpoints are alive;
//! [`SubTopology::usable_edges`] exports that combined mask for the
//! masked solver oracles in `ssor-flow`.

use crate::csr::Csr;
use crate::graph::{Arc, EdgeId, Graph, VertexId};

/// A failure-masked view over a base graph: the base adjacency (flattened
/// to CSR once) plus per-edge and per-vertex aliveness masks.
///
/// Edge ids are the base graph's ids throughout — nothing is renumbered,
/// so loads, path systems, and solutions computed against the base graph
/// stay valid on the view.
///
/// # Examples
///
/// ```
/// use ssor_graph::{generators, SubTopology};
///
/// let g = generators::ring(5);
/// let mut sub = SubTopology::new(&g);
/// assert!(sub.is_connected());
/// sub.fail_edge(0);
/// assert!(sub.is_connected(), "a ring survives one failure");
/// sub.fail_edge(2);
/// assert!(!sub.is_connected(), "two failures cut the ring");
/// sub.restore_all();
/// assert!(sub.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct SubTopology {
    csr: Csr,
    alive_edges: Vec<bool>,
    alive_vertices: Vec<bool>,
}

impl SubTopology {
    /// A fully-alive view of `g` (flattens the adjacency once, `O(n + m)`).
    pub fn new(g: &Graph) -> SubTopology {
        let csr = g.csr();
        let (n, m) = (csr.n(), csr.m());
        SubTopology {
            csr,
            alive_edges: vec![true; m],
            alive_vertices: vec![true; n],
        }
    }

    /// Number of vertices in the base graph.
    pub fn n(&self) -> usize {
        self.csr.n()
    }

    /// Number of edges in the base graph (alive or not).
    pub fn m(&self) -> usize {
        self.csr.m()
    }

    /// Fails edge `e`; returns whether it was alive before.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn fail_edge(&mut self, e: EdgeId) -> bool {
        std::mem::replace(&mut self.alive_edges[e as usize], false)
    }

    /// Fails vertex `v`. Its incident edges keep their own mask bit but
    /// become unusable (an edge is usable only with both endpoints alive).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn fail_vertex(&mut self, v: VertexId) {
        self.alive_vertices[v as usize] = false;
    }

    /// Restores every edge and vertex.
    pub fn restore_all(&mut self) {
        self.alive_edges.fill(true);
        self.alive_vertices.fill(true);
    }

    /// The combined usability mask, indexed by edge id: `true` iff the
    /// edge and both its endpoints are alive. This is the mask the masked
    /// solver oracles consume.
    pub fn usable_edges(&self) -> Vec<bool> {
        let mut usable = self.alive_edges.clone();
        for v in 0..self.n() as VertexId {
            if !self.alive_vertices[v as usize] {
                for a in self.csr.arcs(v) {
                    usable[a.edge as usize] = false;
                }
            }
        }
        usable
    }

    /// The usable incident arcs of `v` (empty if `v` itself is dead).
    fn alive_arcs(&self, v: VertexId) -> impl Iterator<Item = Arc> + '_ {
        let live = self.alive_vertices[v as usize];
        self.csr.arcs(v).iter().copied().filter(move |a| {
            live && self.alive_edges[a.edge as usize] && self.alive_vertices[a.to as usize]
        })
    }

    /// Whether every *alive* vertex can reach every other alive vertex
    /// through usable edges (vacuously true with at most one alive
    /// vertex).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        let alive_total = self.alive_vertices.iter().filter(|&&a| a).count();
        if alive_total <= 1 {
            return true;
        }
        let start = (0..n as VertexId)
            .find(|&v| self.alive_vertices[v as usize])
            .expect("at least one alive vertex");
        self.reached_from(start).iter().filter(|&&r| r).count() == alive_total
    }

    /// Whether `t` is reachable from `s` through usable edges.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn reaches(&self, s: VertexId, t: VertexId) -> bool {
        if !self.alive_vertices[s as usize] || !self.alive_vertices[t as usize] {
            return false;
        }
        if s == t {
            return true;
        }
        self.reached_from(s)[t as usize]
    }

    /// DFS over usable edges from `s`, returning the visited mask.
    fn reached_from(&self, s: VertexId) -> Vec<bool> {
        let mut seen = vec![false; self.n()];
        if !self.alive_vertices[s as usize] {
            return seen;
        }
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(v) = stack.pop() {
            for a in self.alive_arcs(v) {
                if !seen[a.to as usize] {
                    seen[a.to as usize] = true;
                    stack.push(a.to);
                }
            }
        }
        seen
    }
}

impl Graph {
    /// Builds a fully-alive [`SubTopology`] view of this graph.
    pub fn sub_topology(&self) -> SubTopology {
        SubTopology::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn fresh_view_is_fully_alive() {
        let g = generators::grid(3, 3);
        let sub = g.sub_topology();
        assert_eq!(sub.n(), 9);
        assert_eq!(sub.m(), g.m());
        assert!(sub.is_connected());
        assert!(sub.usable_edges().iter().all(|&u| u));
        for v in g.vertices() {
            assert_eq!(sub.alive_arcs(v).count(), g.degree(v));
        }
    }

    #[test]
    fn fail_and_restore_edges() {
        let g = generators::ring(6);
        let mut sub = g.sub_topology();
        assert!(sub.fail_edge(0));
        assert!(!sub.fail_edge(0), "already dead");
        assert!(!sub.usable_edges()[0]);
        assert!(sub.is_connected(), "ring minus one edge is a path");
        sub.fail_edge(3);
        assert!(!sub.is_connected());
        assert!(!sub.reaches(1, 4) || sub.reaches(1, 4) == sub.reaches(4, 1));
        sub.restore_all();
        assert!(sub.is_connected());
        assert!(sub.usable_edges().iter().all(|&u| u));
    }

    #[test]
    fn vertex_failure_kills_incident_edges() {
        let g = generators::star(4);
        let mut sub = g.sub_topology();
        sub.fail_vertex(0); // the center
        assert!(!sub.is_connected(), "leaves disconnect without the hub");
        let usable = sub.usable_edges();
        assert!(usable.iter().all(|&u| !u), "every edge touches the center");
        assert_eq!(sub.alive_arcs(1).count(), 0);
        // Edge mask bits themselves were never flipped.
        assert!(sub.alive_edges[0]);
        sub.restore_all();
        assert!(sub.is_connected());
    }

    #[test]
    fn reaches_respects_masks() {
        let g = generators::grid(2, 3);
        let mut sub = g.sub_topology();
        assert!(sub.reaches(0, 5));
        assert!(sub.reaches(2, 2));
        // Cut the middle column pair of edges around vertex 1/4.
        for (e, _) in g.edges() {
            sub.fail_edge(e);
        }
        assert!(!sub.reaches(0, 5));
        assert!(sub.reaches(0, 0), "self-reachability survives");
    }

    #[test]
    fn single_alive_vertex_counts_as_connected() {
        let g = generators::ring(4);
        let mut sub = g.sub_topology();
        for v in 1..4 {
            sub.fail_vertex(v);
        }
        assert!(sub.is_connected());
    }

    #[test]
    fn parallel_edges_fail_independently() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(0, 1);
        let mut sub = g.sub_topology();
        sub.fail_edge(e0);
        assert!(sub.is_connected(), "the parallel replica survives");
        assert_eq!(sub.alive_arcs(0).count(), 1);
        sub.fail_edge(e1);
        assert!(!sub.is_connected());
    }
}
