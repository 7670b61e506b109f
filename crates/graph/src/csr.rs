//! Compressed sparse row (CSR) adjacency: the cache-friendly read-only
//! view the hot paths iterate instead of `Vec<Vec<Arc>>`.
//!
//! [`Graph`] keeps a per-vertex `Vec<Arc>` so edges can be appended in
//! `O(1)`; algorithms that sweep adjacency many times (one Dijkstra per
//! vertex when building an all-pairs metric, one BFS per source in the
//! baseline
//! routings, one Dijkstra per Frank–Wolfe iteration in the offline-OPT
//! oracle) pay for the pointer chase on every sweep. [`Csr`] flattens the
//! arcs into two dense arrays — `offsets` and `arcs` — built once in
//! `O(n + m)` and shared by every subsequent traversal.

use crate::graph::{Arc, EdgeId, Graph, VertexId};

/// Read-only adjacency, abstracting over [`Graph`] (vec-of-vecs) and
/// [`Csr`] (offset/arc arrays) so traversals are written once.
pub trait Adjacency {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Incident arcs of `v` (one per incident edge, parallel edges
    /// included with multiplicity).
    fn arcs(&self, v: VertexId) -> &[Arc];
}

/// Which edges of a topology a traversal may use.
///
/// Complements [`Adjacency`]: the adjacency says which arcs *exist*, the
/// view says which of them are currently *usable*. Shortest-path sweeps
/// are written once, generic over both, so the intact topology
/// ([`FullTopology`]) and a failure-damaged one (a `&[bool]` mask or a
/// [`crate::SubTopology`]) share a single implementation — edge ids,
/// traversal order, and tie-breaking are identical in every view.
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

/// A usability bit per edge id — the mask form `SubTopology::usable_edges`
/// exports.
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

impl Adjacency for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }

    #[inline]
    fn arcs(&self, v: VertexId) -> &[Arc] {
        self.neighbors(v)
    }
}

/// A compressed-sparse-row copy of a graph's adjacency.
///
/// `arcs[offsets[v] .. offsets[v + 1]]` are the incident arcs of `v`, in
/// the same (insertion) order `Graph::neighbors` reports them, so CSR and
/// vec-of-vecs traversals are step-for-step identical — including
/// deterministic tie-breaking.
///
/// # Examples
///
/// ```
/// use ssor_graph::{Adjacency, Graph};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let csr = g.csr();
/// assert_eq!(csr.n(), 3);
/// assert_eq!(csr.m(), 3);
/// assert_eq!(csr.arcs(1).len(), g.degree(1));
/// assert_eq!(csr.arcs(1), g.neighbors(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    arcs: Vec<Arc>,
}

impl Csr {
    /// Flattens `g`'s adjacency in `O(n + m)`.
    fn from_graph(g: &Graph) -> Csr {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * g.m());
        offsets.push(0);
        for v in g.vertices() {
            arcs.extend_from_slice(g.neighbors(v));
            offsets.push(arcs.len() as u32);
        }
        Csr { offsets, arcs }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges; each contributes two arcs.
    pub fn m(&self) -> usize {
        self.arcs.len() / 2
    }

    /// Incident arcs of `v`.
    #[inline]
    pub fn arcs(&self, v: VertexId) -> &[Arc] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.arcs[lo..hi]
    }

    /// Degree of `v`, counting parallel edges with multiplicity.
    pub fn degree(&self, v: VertexId) -> usize {
        self.arcs(v).len()
    }
}

impl Adjacency for Csr {
    #[inline]
    fn n(&self) -> usize {
        Csr::n(self)
    }

    #[inline]
    fn arcs(&self, v: VertexId) -> &[Arc] {
        Csr::arcs(self, v)
    }
}

impl Graph {
    /// Builds the CSR view of this graph's adjacency (see [`Csr`]).
    pub fn csr(&self) -> Csr {
        Csr::from_graph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn csr_mirrors_adjacency_exactly() {
        let g = generators::hypercube(4);
        let csr = g.csr();
        assert_eq!(csr.n(), g.n());
        assert_eq!(csr.m(), g.m());
        for v in g.vertices() {
            assert_eq!(csr.arcs(v), g.neighbors(v), "vertex {v}");
            assert_eq!(csr.degree(v), g.degree(v));
        }
    }

    #[test]
    fn csr_handles_parallel_edges_and_isolated_vertices() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(2, 0);
        let csr = g.csr();
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.degree(1), 2);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.m(), 3);
    }

    #[test]
    fn empty_graph_csr() {
        let g = Graph::new(0);
        let csr = g.csr();
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.m(), 0);
    }
}
