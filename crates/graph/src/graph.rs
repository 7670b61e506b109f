//! Undirected multigraph with stable edge identifiers.
//!
//! The paper (Section 4) works with undirected, connected graphs where
//! capacities are expressed through *parallel edges*. Congestion is therefore
//! tracked per edge identifier, never per vertex pair, and two parallel edges
//! between the same endpoints are distinct objects that each carry their own
//! load.

use std::fmt;

/// Identifier of a vertex (dense, `0..n`).
pub type VertexId = u32;

/// Identifier of an edge (dense, `0..m`); parallel edges get distinct ids.
pub type EdgeId = u32;

/// A half-edge stored in an adjacency list: the far endpoint and the edge id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arc {
    /// Vertex at the far end of the edge.
    pub to: VertexId,
    /// Identifier of the underlying undirected edge.
    pub edge: EdgeId,
}

/// An undirected multigraph with `n` vertices and `m` edges.
///
/// Vertices are `0..n`. Edges carry stable dense identifiers `0..m` in
/// insertion order; self-loops are rejected, parallel edges are allowed
/// (they model integer capacities, per Section 4 of the paper).
///
/// # Examples
///
/// ```
/// use ssor_graph::Graph;
///
/// let mut g = Graph::new(3);
/// let e0 = g.add_edge(0, 1);
/// let e1 = g.add_edge(1, 2);
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.endpoints(e0), (0, 1));
/// assert!(g.is_connected());
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Graph {
    endpoints: Vec<(VertexId, VertexId)>,
    adj: Vec<Vec<Arc>>,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            endpoints: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` vertices from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or if an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges (parallel edges counted individually).
    pub fn m(&self) -> usize {
        self.endpoints.len()
    }

    /// Adds an undirected edge between `u` and `v`, returning its id.
    ///
    /// Parallel edges are permitted and receive fresh ids.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop) or if either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> EdgeId {
        assert!(u != v, "self-loops are not allowed (got {u})");
        assert!(
            (u as usize) < self.n() && (v as usize) < self.n(),
            "edge ({u}, {v}) out of range for n = {}",
            self.n()
        );
        let id = self.endpoints.len() as EdgeId;
        self.endpoints.push((u, v));
        self.adj[u as usize].push(Arc { to: v, edge: id });
        self.adj[v as usize].push(Arc { to: u, edge: id });
        id
    }

    /// The two endpoints of edge `e`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e as usize]
    }

    /// The endpoint of edge `e` opposite `v`, or `None` if `e` is not
    /// incident to `v` — one hop of a walk given by edge ids.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn far_end(&self, e: EdgeId, v: VertexId) -> Option<VertexId> {
        match self.endpoints(e) {
            (a, b) if a == v => Some(b),
            (a, b) if b == v => Some(a),
            _ => None,
        }
    }

    /// Incident arcs of vertex `v` (one per incident edge).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[Arc] {
        &self.adj[v as usize]
    }

    /// Degree of `v`, counting parallel edges with multiplicity.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n() as VertexId
    }

    /// Iterator over `(edge id, (u, v))` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, (VertexId, VertexId))> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &uv)| (i as EdgeId, uv))
    }

    /// Whether some edge directly connects `u` and `v`.
    pub fn has_edge_between(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).iter().any(|a| a.to == v)
    }

    /// Ids of all edges between `u` and `v` (possibly several, if parallel).
    pub fn edges_between(&self, u: VertexId, v: VertexId) -> Vec<EdgeId> {
        self.neighbors(u)
            .iter()
            .filter(|a| a.to == v)
            .map(|a| a.edge)
            .collect()
    }

    /// Whether the graph is connected (the empty graph and `n = 1` count as
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.n() <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n()];
        let mut stack = vec![0 as VertexId];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for a in self.neighbors(v) {
                if !seen[a.to as usize] {
                    seen[a.to as usize] = true;
                    count += 1;
                    stack.push(a.to);
                }
            }
        }
        count == self.n()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn single_vertex_is_connected() {
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn add_edge_assigns_sequential_ids() {
        let mut g = Graph::new(4);
        assert_eq!(g.add_edge(0, 1), 0);
        assert_eq!(g.add_edge(1, 2), 1);
        assert_eq!(g.add_edge(2, 3), 2);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(0, 1);
        assert_ne!(e0, e1);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edges_between(0, 1), vec![e0, e1]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        Graph::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        Graph::new(2).add_edge(0, 2);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn debug_is_nonempty() {
        let g = Graph::new(2);
        assert!(!format!("{g:?}").is_empty());
    }
}
