//! Edge-masked graph views for failure scenarios.
//!
//! Dynamic scenarios (link-failure sweeps, maintenance drills) need to
//! knock links out of a topology *cheaply* — thousands of times per
//! experiment — without rebuilding the graph or invalidating edge ids.
//! [`SubTopology`] is that view: it borrows the base graph and tracks
//! aliveness as one bit per edge. Failing a link is an `O(1)` mask flip,
//! restoring the whole topology is a fill, and every edge keeps the id it
//! has in the base graph — so candidate path systems,
//! [`crate::EdgeLoads`] accumulators, and solver output remain directly
//! comparable across scenarios.
//!
//! [`SubTopology::usable_edges`] exports the mask for the masked solver
//! oracles in `ssor-flow`, which read it through [`EdgeView`].

use crate::graph::{Arc, EdgeId, Graph, VertexId};

/// Which edges of a topology a traversal may use.
///
/// The graph says which arcs *exist*, the view says which of them are
/// currently *usable*. Shortest-path sweeps are written once, generic
/// over the view, so the intact topology ([`FullTopology`]) and a
/// failure-damaged one (a `&[bool]` mask from a [`SubTopology`]) share a
/// single implementation — edge ids, traversal order, and tie-breaking
/// are identical in every view.
///
/// # Examples
///
/// ```
/// use ssor_graph::{EdgeView, FullTopology};
///
/// assert!(FullTopology.usable(7));
/// let mask = [true, false];
/// assert!(mask[..].usable(0));
/// assert!(!mask[..].usable(1));
/// ```
pub trait EdgeView {
    /// Whether edge `e` may be traversed.
    fn usable(&self, e: EdgeId) -> bool;
}

/// The trivial [`EdgeView`]: every edge is usable (the intact topology).
#[derive(Debug, Clone, Copy, Default)]
pub struct FullTopology;

impl EdgeView for FullTopology {
    #[inline]
    fn usable(&self, _e: EdgeId) -> bool {
        true
    }
}

/// A usability bit per edge id — the mask form
/// [`SubTopology::usable_edges`] exports.
impl EdgeView for [bool] {
    #[inline]
    fn usable(&self, e: EdgeId) -> bool {
        self[e as usize]
    }
}

/// Owned mask variant of the `[bool]` view; unlike the slice it is
/// `Sized`, so `&Vec<bool>` coerces to `&dyn EdgeView` directly.
impl EdgeView for Vec<bool> {
    #[inline]
    fn usable(&self, e: EdgeId) -> bool {
        self[e as usize]
    }
}

/// A failure-masked view over a borrowed base graph: its adjacency plus
/// a per-edge aliveness mask.
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
pub struct SubTopology<'a> {
    graph: &'a Graph,
    alive_edges: Vec<bool>,
}

impl<'a> SubTopology<'a> {
    /// A fully-alive view of `g`.
    pub fn new(g: &'a Graph) -> SubTopology<'a> {
        SubTopology {
            graph: g,
            alive_edges: vec![true; g.m()],
        }
    }

    /// Number of vertices in the base graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of edges in the base graph (alive or not).
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Fails edge `e`; returns whether it was alive before.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn fail_edge(&mut self, e: EdgeId) -> bool {
        std::mem::replace(&mut self.alive_edges[e as usize], false)
    }

    /// Restores every edge.
    pub fn restore_all(&mut self) {
        self.alive_edges.fill(true);
    }

    /// The usability mask, indexed by edge id: `true` iff the edge is
    /// alive. This is the mask the masked solver oracles consume.
    pub fn usable_edges(&self) -> Vec<bool> {
        self.alive_edges.clone()
    }

    /// The alive incident arcs of `v`.
    fn alive_arcs(&self, v: VertexId) -> impl Iterator<Item = Arc> + '_ {
        self.graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(move |a| self.alive_edges[a.edge as usize])
    }

    /// Whether every vertex can reach every other vertex through usable
    /// edges (vacuously true with at most one vertex).
    pub fn is_connected(&self) -> bool {
        self.n() <= 1 || self.reached_from(0).iter().all(|&r| r)
    }

    /// Whether `t` is reachable from `s` through usable edges.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn reaches(&self, s: VertexId, t: VertexId) -> bool {
        self.reached_from(s)[t as usize]
    }

    /// DFS over usable edges from `s`, returning the visited mask.
    fn reached_from(&self, s: VertexId) -> Vec<bool> {
        let mut seen = vec![false; self.n()];
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
    pub fn sub_topology(&self) -> SubTopology<'_> {
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
