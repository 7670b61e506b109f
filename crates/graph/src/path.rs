//! Walks and simple paths over a [`Graph`].
//!
//! A [`Path`] stores both its vertex sequence and its edge-id sequence so
//! that parallel edges remain distinguishable — congestion in the paper is a
//! per-edge quantity, so "which of the parallel edges did the packet take"
//! matters.

use crate::graph::{EdgeId, Graph, VertexId};
use std::fmt;

/// Whether no vertex repeats in `vertices` — the one simplicity test
/// behind [`Path::is_simple`] and
/// [`PathStore::is_simple`](crate::PathStore::is_simple).
///
/// A quadratic scan that never allocates: paths are short, so it beats a
/// hash set on every slice a path system holds.
///
/// # Examples
///
/// ```
/// assert!(ssor_graph::all_distinct(&[0, 3, 1]));
/// assert!(!ssor_graph::all_distinct(&[0, 3, 0]));
/// ```
pub fn all_distinct(vertices: &[VertexId]) -> bool {
    let mut rest = vertices;
    while let Some((v, tail)) = rest.split_first() {
        if tail.contains(v) {
            return false;
        }
        rest = tail;
    }
    true
}

/// A walk in a graph: alternating vertices and edge ids.
///
/// Invariants (enforced by constructors):
/// * `vertices.len() == edges.len() + 1`,
/// * edge `edges[i]` connects `vertices[i]` and `vertices[i + 1]`.
///
/// A path may be non-simple (repeat vertices) when first constructed — e.g.
/// the concatenation of two Valiant half-paths — and can be made simple with
/// [`Path::shortcut`]. The paper's path systems contain simple paths only
/// (Definition 2.1), so constructors in `ssor-core` shortcut on ingestion.
///
/// # Examples
///
/// ```
/// use ssor_graph::{Graph, Path};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let p = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
/// assert_eq!(p.source(), 0);
/// assert_eq!(p.target(), 2);
/// assert_eq!(p.hop(), 2);
/// assert!(p.is_simple());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// Crate-internal constructor for callers that guarantee the invariants.
    pub(crate) fn raw(vertices: Vec<VertexId>, edges: Vec<EdgeId>) -> Self {
        debug_assert_eq!(vertices.len(), edges.len() + 1);
        Path { vertices, edges }
    }

    /// A zero-hop path sitting at `v`.
    pub fn trivial(v: VertexId) -> Self {
        Path {
            vertices: vec![v],
            edges: Vec::new(),
        }
    }

    /// Builds a path from a vertex sequence, choosing the lowest-id edge
    /// between each pair of consecutive vertices.
    ///
    /// Returns `None` if some consecutive pair is not adjacent in `g` or if
    /// the sequence is empty.
    pub fn from_vertices(g: &Graph, vertices: &[VertexId]) -> Option<Self> {
        if vertices.is_empty() {
            return None;
        }
        let mut edges = Vec::with_capacity(vertices.len() - 1);
        for w in vertices.windows(2) {
            let e = g
                .neighbors(w[0])
                .iter()
                .filter(|a| a.to == w[1])
                .map(|a| a.edge)
                .min()?;
            edges.push(e);
        }
        Some(Path {
            vertices: vertices.to_vec(),
            edges,
        })
    }

    /// Builds a path starting at `start` following the given edge ids.
    ///
    /// Returns `None` if some edge is not incident to the current vertex.
    pub fn from_edges(g: &Graph, start: VertexId, edges: &[EdgeId]) -> Option<Self> {
        let mut vertices = Vec::with_capacity(edges.len() + 1);
        vertices.push(start);
        let mut cur = start;
        for &e in edges {
            cur = g.far_end(e, cur)?;
            vertices.push(cur);
        }
        Some(Path {
            vertices,
            edges: edges.to_vec(),
        })
    }

    /// First vertex of the path.
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Last vertex of the path.
    pub fn target(&self) -> VertexId {
        *self.vertices.last().expect("paths are never empty")
    }

    /// Hop length: number of edges (`hop(p)` in the paper).
    pub fn hop(&self) -> usize {
        self.edges.len()
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The edge-id sequence.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether no vertex repeats.
    pub fn is_simple(&self) -> bool {
        all_distinct(&self.vertices)
    }

    /// Whether the path uses edge `e`.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Removes cycles, producing a vertex-simple path with the same
    /// endpoints. Each surviving edge was an edge of the original walk, so
    /// shortcutting can only decrease per-edge congestion.
    ///
    /// Feeds the walk hop by hop through a [`ShortcutWalk`], which cuts
    /// each loop as soon as the walk closes it.
    pub fn shortcut(&self) -> Path {
        let mut walk = ShortcutWalk::new();
        walk.start(self.source());
        for (&e, &v) in self.edges.iter().zip(self.vertices.iter().skip(1)) {
            walk.step(e, v);
        }
        let ShortcutWalk {
            vertices, edges, ..
        } = walk;
        Path { vertices, edges }
    }

    /// Concatenates `self` with `other`, which must start where `self` ends.
    ///
    /// The result may be non-simple; apply [`Path::shortcut`] if a simple
    /// path is required.
    ///
    /// # Panics
    ///
    /// Panics if `other.source() != self.target()`.
    pub fn concat(&self, other: &Path) -> Path {
        assert_eq!(
            self.target(),
            other.source(),
            "concat requires matching endpoints"
        );
        let mut vertices = self.vertices.clone();
        vertices.extend_from_slice(&other.vertices[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        Path { vertices, edges }
    }

    /// The reverse path (target to source).
    pub fn reversed(&self) -> Path {
        let mut vertices = self.vertices.clone();
        vertices.reverse();
        let mut edges = self.edges.clone();
        edges.reverse();
        Path { vertices, edges }
    }

    /// Validates the path against a graph: endpoints of each edge must match
    /// the vertex sequence.
    pub fn is_valid(&self, g: &Graph) -> bool {
        if self.vertices.len() != self.edges.len() + 1 {
            return false;
        }
        if self.vertices.iter().any(|&v| (v as usize) >= g.n()) {
            return false;
        }
        self.edges.iter().enumerate().all(|(i, &e)| {
            if (e as usize) >= g.m() {
                return false;
            }
            let (a, b) = g.endpoints(e);
            let (u, v) = (self.vertices[i], self.vertices[i + 1]);
            (a, b) == (u, v) || (a, b) == (v, u)
        })
    }
}

/// Stack position of a vertex that is not on a [`ShortcutWalk`].
const OFF_WALK: u32 = u32::MAX;

/// A walk made simple as it is fed, one hop at a time: the loop-removal
/// primitive behind [`Path::shortcut`], exposed so a caller can assemble
/// a path from pieces without building the raw walk first.
///
/// It keeps the current simple path as a vertex stack and an edge stack,
/// plus a dense vertex → stack-position index. A hop to a vertex already
/// on the stack pops back to that vertex's first occurrence, which cuts
/// the loop just closed; every other hop pushes. That is linear in the
/// walk length, and the result is exactly [`Path::shortcut`] of the whole
/// walk. The index grows to the largest vertex id seen and only the
/// entries the previous walk touched are reset, so one scratch can be
/// restarted cheaply for walk after walk.
///
/// # Examples
///
/// ```
/// use ssor_graph::ShortcutWalk;
///
/// // The walk 0 -e0- 1 -e1- 2 -e1- 1 -e2- 3 loses its 1-2-1 detour.
/// let mut walk = ShortcutWalk::new();
/// walk.start(0);
/// for (e, v) in [(0, 1), (1, 2), (1, 1), (2, 3)] {
///     walk.step(e, v);
/// }
/// assert_eq!(walk.vertices(), &[0, 1, 3]);
/// assert_eq!(walk.edges(), &[0, 2]);
/// ```
#[derive(Debug, Default)]
pub struct ShortcutWalk {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
    /// Stack position per vertex id; [`OFF_WALK`] for vertices not on it.
    pos: Vec<u32>,
}

impl ShortcutWalk {
    /// An empty scratch; call [`start`](Self::start) before stepping.
    pub fn new() -> Self {
        ShortcutWalk::default()
    }

    /// Starts a new walk at `v`, discarding the previous one.
    pub fn start(&mut self, v: VertexId) {
        for &u in &self.vertices {
            if let Some(p) = self.pos.get_mut(u as usize) {
                *p = OFF_WALK;
            }
        }
        self.vertices.clear();
        self.edges.clear();
        self.place(v);
    }

    /// Extends the walk along edge `e` to vertex `v`. If `v` is already
    /// on the path, the loop back to it is cut instead.
    pub fn step(&mut self, e: EdgeId, v: VertexId) {
        match self.pos.get(v as usize) {
            Some(&j) if j != OFF_WALK => {
                let keep = j as usize + 1;
                for u in self.vertices.drain(keep..) {
                    if let Some(p) = self.pos.get_mut(u as usize) {
                        *p = OFF_WALK;
                    }
                }
                self.edges.truncate(keep - 1);
            }
            _ => {
                self.place(v);
                self.edges.push(e);
            }
        }
    }

    /// Pushes `v`, recording its stack position.
    fn place(&mut self, v: VertexId) {
        let i = v as usize;
        if i >= self.pos.len() {
            self.pos.resize(i + 1, OFF_WALK);
        }
        if let Some(p) = self.pos.get_mut(i) {
            *p = self.vertices.len() as u32;
        }
        self.vertices.push(v);
    }

    /// The current simple path's vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The current simple path's edge-id sequence.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The current simple path as an exact-size owned [`Path`]; the
    /// scratch stays reusable.
    pub fn to_path(&self) -> Path {
        Path::raw(self.vertices.clone(), self.edges.clone())
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path(")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(5);
        assert_eq!(p.source(), 5);
        assert_eq!(p.target(), 5);
        assert_eq!(p.hop(), 0);
        assert!(p.is_simple());
    }

    #[test]
    fn from_vertices_roundtrip() {
        let g = line(5);
        let p = Path::from_vertices(&g, &[1, 2, 3, 4]).unwrap();
        assert_eq!(p.edges(), &[1, 2, 3]);
        assert!(p.is_valid(&g));
    }

    #[test]
    fn from_vertices_rejects_non_adjacent() {
        let g = line(5);
        assert!(Path::from_vertices(&g, &[0, 2]).is_none());
    }

    #[test]
    fn from_edges_roundtrip() {
        let g = line(4);
        let p = Path::from_edges(&g, 3, &[2, 1, 0]).unwrap();
        assert_eq!(p.vertices(), &[3, 2, 1, 0]);
        assert!(p.is_valid(&g));
    }

    #[test]
    fn from_edges_rejects_detached_edge() {
        let g = line(4);
        assert!(Path::from_edges(&g, 0, &[2]).is_none());
    }

    #[test]
    fn shortcut_removes_cycle() {
        // Walk 0-1-2-1-0-1-2-3 on a line graph; shortcut should give 0-1-2-3.
        let g = line(4);
        let walk = Path::from_vertices(&g, &[0, 1, 2, 1, 0, 1, 2, 3]).unwrap();
        assert!(!walk.is_simple());
        let p = walk.shortcut();
        assert!(p.is_simple());
        assert_eq!(p.vertices(), &[0, 1, 2, 3]);
        assert!(p.is_valid(&g));
    }

    #[test]
    fn shortcut_preserves_simple_paths() {
        let g = line(4);
        let p = Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap();
        assert_eq!(p.shortcut(), p);
    }

    #[test]
    fn shortcut_collapses_to_trivial_when_endpoints_equal() {
        let g = line(3);
        let walk = Path::from_vertices(&g, &[0, 1, 0]).unwrap();
        let p = walk.shortcut();
        assert_eq!(p.hop(), 0);
        assert_eq!(p.source(), 0);
        assert_eq!(p.target(), 0);
    }

    #[test]
    fn concat_and_reverse() {
        let g = line(5);
        let a = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        let b = Path::from_vertices(&g, &[2, 3, 4]).unwrap();
        let c = a.concat(&b);
        assert_eq!(c.vertices(), &[0, 1, 2, 3, 4]);
        let r = c.reversed();
        assert_eq!(r.source(), 4);
        assert_eq!(r.target(), 0);
        assert!(r.is_valid(&g));
    }

    #[test]
    fn parallel_edge_choice_is_lowest_id() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(0, 1);
        let _e1 = g.add_edge(0, 1);
        let p = Path::from_vertices(&g, &[0, 1]).unwrap();
        assert_eq!(p.edges(), &[e0]);
    }

    #[test]
    fn validity_detects_wrong_edges() {
        let g = line(4);
        // Edge 2 connects 2-3, not 0-1.
        let p = Path::from_edges(&g, 2, &[2]).unwrap();
        assert!(p.is_valid(&g));
        let bogus = Path::from_vertices(&g, &[0, 1]).unwrap();
        assert!(bogus.is_valid(&g));
    }
}
