//! A path arena: interns paths into copyable [`PathId`]s with hash-based
//! deduplication.
//!
//! Every layer of the pipeline shares and compares paths constantly — the
//! α-sampler collapses duplicate draws (Definition 5.2 samples *with
//! replacement* into a *set*), the template distributions merge identical
//! tree paths, and the Frank–Wolfe solver re-discovers the same best
//! responses round after round. Storing each of those as an owned
//! `Vec<VertexId>` + `Vec<EdgeId>` pair and comparing edge vectors is the
//! dominant allocation pattern of the whole system. A [`PathStore`] holds
//! each distinct path once in two flat arrays; a path becomes a 4-byte
//! [`PathId`] that is `Copy`, `Eq`, and `O(1)` to compare. [`Path`] remains
//! the boundary/debug type — materialize with [`PathStore::materialize`]
//! when an owned path must leave the arena.
//!
//! The arena is append-only: ids stay valid for the lifetime of the store,
//! and interning the same vertex/edge sequence always returns the same id.
//! Two paths are considered identical when they have the same source vertex
//! and edge-id sequence (which, on a fixed graph, determines the vertex
//! sequence) — the same equivalence `PathSystem` has always deduplicated
//! by.
//!
//! Deduplication hashes each path once, with a deterministic FNV-1a over
//! its source and edge ids, and looks the hash up in an open-addressing
//! table of `PathId`s kept at most half full. The table stores ids only;
//! each path's hash sits next to its span, so a probe compares hashes
//! before slices and growing the table never re-reads a path. No
//! per-path heap allocation and no second hash.

use crate::graph::{EdgeId, Graph, VertexId};
use crate::path::Path;

/// Identifier of an interned path within one [`PathStore`] (dense,
/// `0..store.len()`, in first-interning order).
///
/// Ids from different stores are unrelated; never mix them.
// The derived `PartialOrd` orders integers, not floats.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

impl PathId {
    /// The dense index of this id (`0..store.len()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    vstart: u32,
    estart: u32,
    hops: u32,
}

/// An arena interning paths into [`PathId`]s (see the module docs).
///
/// # Examples
///
/// ```
/// use ssor_graph::{Graph, Path, PathStore};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let p = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
/// let mut store = PathStore::new();
/// let id = store.intern(&p);
/// assert_eq!(store.intern(&p), id, "re-interning dedups");
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.vertices(id), &[0, 1, 2]);
/// assert_eq!(store.edges(id), &[0, 1]);
/// assert_eq!(store.materialize(id), p);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathStore {
    verts: Vec<VertexId>,
    edges: Vec<EdgeId>,
    spans: Vec<Span>,
    /// [`fnv1a`] of each path, indexed by id.
    hashes: Vec<u64>,
    /// Open-addressing dedup table: `id + 1` per occupied slot, 0 for an
    /// empty one. Its length is zero or a power of two at least twice
    /// [`len`](Self::len); lookups probe linearly from the slot the hash
    /// selects.
    slots: Vec<u32>,
}

/// FNV-1a over the source vertex and edge-id sequence. Deterministic
/// across runs and platforms (unlike `RandomState`), so interning order —
/// and with it every downstream id — is reproducible.
fn fnv1a(source: VertexId, edges: &[EdgeId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut step = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    step(source);
    for &e in edges {
        step(e);
    }
    h
}

impl PathStore {
    /// An empty arena.
    pub fn new() -> Self {
        PathStore::default()
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Interns `path`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, path: &Path) -> PathId {
        self.intern_parts(path.vertices(), path.edges())
    }

    /// Interns a path given as raw vertex/edge slices.
    ///
    /// Interns without materializing an owned [`Path`]; a path that
    /// already sits in another arena moves cheaper through
    /// [`intern_from`](Self::intern_from). The path is hashed once and
    /// probed in the open-addressing table (see the module docs); a new
    /// path is appended to the flat arrays and gets the next id.
    ///
    /// # Panics
    ///
    /// Panics if `vertices.len() != edges.len() + 1`.
    pub fn intern_parts(&mut self, vertices: &[VertexId], edges: &[EdgeId]) -> PathId {
        assert_eq!(
            vertices.len(),
            edges.len() + 1,
            "a path has one more vertex than edges"
        );
        let source = vertices[0];
        self.intern_hashed(fnv1a(source, edges), source, vertices, edges)
    }

    /// Interns path `id` of `other` here, reusing the hash `other`
    /// stored for it: moving a path between arenas copies it but never
    /// hashes it again.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `other`.
    pub fn intern_from(&mut self, other: &PathStore, id: PathId) -> PathId {
        let h = other.hashes[id.index()];
        self.intern_hashed(h, other.source(id), other.vertices(id), other.edges(id))
    }

    /// Whether `id` is a path of this arena equal to path `other_id` of
    /// `other` — exactly when [`intern_from`](Self::intern_from) would
    /// return `id` for it, since the arena holds each path once. Lets a
    /// caller that remembers where it interned a path skip the hash
    /// probe, yet never trust an id from another arena.
    ///
    /// # Panics
    ///
    /// Panics if `other_id` is not in `other`.
    pub fn is_copy_of(&self, id: PathId, other: &PathStore, other_id: PathId) -> bool {
        id.index() < self.len()
            && self.edges(id) == other.edges(other_id)
            && self.source(id) == other.source(other_id)
    }

    /// [`intern_parts`](Self::intern_parts) past the hash: probe for `h`,
    /// and append the path under the next id if it is new.
    fn intern_hashed(
        &mut self,
        h: u64,
        source: VertexId,
        vertices: &[VertexId],
        edges: &[EdgeId],
    ) -> PathId {
        let slot = match self.probe(h, source, edges) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = PathId(self.spans.len() as u32);
        self.spans.push(Span {
            vstart: self.verts.len() as u32,
            estart: self.edges.len() as u32,
            hops: edges.len() as u32,
        });
        self.verts.extend_from_slice(vertices);
        self.edges.extend_from_slice(edges);
        self.hashes.push(h);
        if 2 * self.spans.len() > self.slots.len() {
            self.grow();
        } else if let Some(s) = self.slots.get_mut(slot) {
            *s = id.0 + 1;
        }
        id
    }

    /// Looks up a path without interning it; `None` if it is not stored.
    pub fn find(&self, vertices: &[VertexId], edges: &[EdgeId]) -> Option<PathId> {
        self.probe(fnv1a(vertices[0], edges), vertices[0], edges)
            .ok()
    }

    /// The id stored for `(source, edges)` with hash `h`, or the empty
    /// slot where it would go (`usize::MAX` while the table is empty).
    fn probe(&self, h: u64, source: VertexId, edges: &[EdgeId]) -> Result<PathId, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut slot = h as usize & mask;
        while let Some(&entry) = self.slots.get(slot) {
            let Some(id) = entry.checked_sub(1).map(PathId) else {
                return Err(slot);
            };
            if self.hashes.get(id.index()) == Some(&h)
                && self.source(id) == source
                && self.edges(id) == edges
            {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
        Err(usize::MAX)
    }

    /// Doubles the table (16 slots at first) and re-inserts every id in
    /// id order from the stored hashes.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let mask = len - 1;
        let mut slots = vec![0u32; len];
        for (id, &h) in (1u32..).zip(&self.hashes) {
            let mut slot = h as usize & mask;
            while let Some(s) = slots.get_mut(slot) {
                if *s == 0 {
                    *s = id;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        self.slots = slots;
    }

    /// The vertex sequence of `id`.
    pub fn vertices(&self, id: PathId) -> &[VertexId] {
        let s = self.spans[id.index()];
        &self.verts[s.vstart as usize..s.vstart as usize + s.hops as usize + 1]
    }

    /// The edge-id sequence of `id`.
    pub fn edges(&self, id: PathId) -> &[EdgeId] {
        let s = self.spans[id.index()];
        &self.edges[s.estart as usize..s.estart as usize + s.hops as usize]
    }

    /// First vertex of `id`.
    pub fn source(&self, id: PathId) -> VertexId {
        self.verts[self.spans[id.index()].vstart as usize]
    }

    /// Last vertex of `id`.
    pub fn target(&self, id: PathId) -> VertexId {
        let s = self.spans[id.index()];
        self.verts[s.vstart as usize + s.hops as usize]
    }

    /// Hop length of `id` (number of edges).
    pub fn hop(&self, id: PathId) -> usize {
        self.spans[id.index()].hops as usize
    }

    /// Whether `id` uses edge `e`.
    pub fn contains_edge(&self, id: PathId, e: EdgeId) -> bool {
        self.edges(id).contains(&e)
    }

    /// Total weight of `id` under per-edge weights `w` (indexed by edge
    /// id) — the oracle-facing "path cost" primitive.
    pub fn weight(&self, id: PathId, w: &[f64]) -> f64 {
        self.edges(id).iter().map(|&e| w[e as usize]).sum()
    }

    /// Whether no vertex repeats along `id`.
    pub fn is_simple(&self, id: PathId) -> bool {
        crate::path::all_distinct(self.vertices(id))
    }

    /// Whether `id` is a valid walk in `g`: every edge exists and connects
    /// the consecutive vertex pair (same contract as [`Path::is_valid`],
    /// without materializing).
    pub fn is_valid(&self, id: PathId, g: &Graph) -> bool {
        let vs = self.vertices(id);
        if vs.iter().any(|&v| (v as usize) >= g.n()) {
            return false;
        }
        self.edges(id).iter().enumerate().all(|(i, &e)| {
            if (e as usize) >= g.m() {
                return false;
            }
            let (a, b) = g.endpoints(e);
            let (u, v) = (vs[i], vs[i + 1]);
            (a, b) == (u, v) || (a, b) == (v, u)
        })
    }

    /// Materializes `id` as an owned [`Path`] (the boundary type).
    pub fn materialize(&self, id: PathId) -> Path {
        Path::raw(self.vertices(id).to_vec(), self.edges(id).to_vec())
    }

    /// Iterator over all interned ids, in interning order.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.spans.len() as u32).map(PathId)
    }

    /// Heap bytes of the arena, counted from the lengths of its flat
    /// arrays: the vertex and edge ids, one span and one hash per path,
    /// and the dedup table's slots. Spare capacity is not counted. The
    /// arena share of `PathSystem::heap_bytes` and
    /// [`RouteTable::heap_bytes`](crate::RouteTable::heap_bytes).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.verts.len() * size_of::<VertexId>()
            + self.edges.len() * size_of::<EdgeId>()
            + self.spans.len() * size_of::<Span>()
            + self.hashes.len() * size_of::<u64>()
            + self.slots.len() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn heap_bytes_counts_every_array() {
        let g = generators::ring(6);
        let mut store = PathStore::new();
        assert_eq!(store.heap_bytes(), 0);
        let walks: [&[VertexId]; 2] = [&[0, 1, 2, 3], &[0, 5, 4, 3]];
        let paths: Vec<Path> = walks
            .iter()
            .filter_map(|vs| Path::from_vertices(&g, vs))
            .collect();
        for p in &paths {
            store.intern(p);
        }
        // 8 vertex ids and 6 edge ids (4 B each), 2 spans (12 B), 2
        // hashes (8 B), and the first table of 16 slots (4 B).
        let two = 8 * 4 + 6 * 4 + 2 * 12 + 2 * 8 + 16 * 4;
        assert_eq!(store.heap_bytes(), two);
        for p in &paths {
            store.intern(p);
        }
        assert_eq!(store.heap_bytes(), two, "repeats add nothing");
    }

    #[test]
    fn interning_roundtrips_and_dedups() {
        let g = generators::ring(6);
        let a = Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap();
        let b = Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap();
        let mut store = PathStore::new();
        let ia = store.intern(&a);
        let ib = store.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(store.intern(&a), ia);
        assert_eq!(store.len(), 2);
        assert_eq!(store.materialize(ia), a);
        assert_eq!(store.materialize(ib), b);
        assert_eq!(store.source(ib), 0);
        assert_eq!(store.target(ib), 3);
        assert_eq!(store.hop(ia), 3);
    }

    #[test]
    fn intern_from_matches_intern_parts() {
        let (a, b) = ((&[0, 1, 2, 3], &[0, 1, 2]), (&[0, 5, 4, 3], &[5, 4, 3]));
        let mut src = PathStore::new();
        let (ia, ib) = (src.intern_parts(a.0, a.1), src.intern_parts(b.0, b.1));
        let mut dst = PathStore::new();
        let jb = dst.intern_parts(b.0, b.1);
        assert_eq!(
            dst.intern_from(&src, ib),
            jb,
            "a path already here keeps its id"
        );
        let ja = dst.intern_from(&src, ia);
        assert_eq!(
            (dst.vertices(ja), dst.edges(ja)),
            (a.0.as_slice(), a.1.as_slice())
        );
        assert_eq!(dst.find(a.0, a.1), Some(ja));
        assert_eq!(dst.intern_parts(a.0, a.1), ja);
        assert_eq!(dst.len(), 2);
    }

    #[test]
    fn is_copy_of_holds_exactly_where_intern_from_lands() {
        let mut src = PathStore::new();
        let ia = src.intern_parts(&[0, 1, 2, 3], &[0, 1, 2]);
        let ib = src.intern_parts(&[0, 5, 4, 3], &[5, 4, 3]);
        // One edge walked from either end: equal edges, other source.
        let (fwd, back) = (
            src.intern_parts(&[0, 1], &[0]),
            src.intern_parts(&[1, 0], &[0]),
        );
        let mut dst = PathStore::new();
        assert!(
            !dst.is_copy_of(ia, &src, ia),
            "an empty arena holds nothing"
        );
        let (jb, ja, jf) = (
            dst.intern_from(&src, ib),
            dst.intern_from(&src, ia),
            dst.intern_from(&src, fwd),
        );
        assert!(dst.is_copy_of(ja, &src, ia) && dst.is_copy_of(jb, &src, ib));
        assert!(!dst.is_copy_of(ja, &src, ib), "another path under the id");
        assert!(dst.is_copy_of(jf, &src, fwd) && !dst.is_copy_of(jf, &src, back));
        assert!(
            !dst.is_copy_of(back, &src, back),
            "an id past the arena's end"
        );
    }

    #[test]
    fn parallel_edges_distinguish_paths() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(0, 1);
        let p0 = Path::from_edges(&g, 0, &[e0]).unwrap();
        let p1 = Path::from_edges(&g, 0, &[e1]).unwrap();
        let mut store = PathStore::new();
        assert_ne!(store.intern(&p0), store.intern(&p1));
    }

    #[test]
    fn trivial_paths_keyed_by_source() {
        let mut store = PathStore::new();
        let a = store.intern(&Path::trivial(3));
        let b = store.intern(&Path::trivial(4));
        assert_ne!(a, b);
        assert_eq!(store.hop(a), 0);
        assert_eq!(store.vertices(a), &[3]);
        assert!(store.edges(a).is_empty());
    }

    #[test]
    fn find_does_not_intern() {
        let g = generators::ring(4);
        let p = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        let mut store = PathStore::new();
        assert!(store.find(p.vertices(), p.edges()).is_none());
        let id = store.intern(&p);
        assert_eq!(store.find(p.vertices(), p.edges()), Some(id));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn validity_and_simplicity_match_path() {
        let g = generators::ring(5);
        let walk = Path::from_vertices(&g, &[0, 1, 2, 1]).unwrap();
        let simple = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        let mut store = PathStore::new();
        let iw = store.intern(&walk);
        let is = store.intern(&simple);
        assert!(!store.is_simple(iw));
        assert!(store.is_simple(is));
        assert!(store.is_valid(iw, &g));
        assert!(store.is_valid(is, &g));
        // An edge id out of range is invalid.
        let bogus = store.intern_parts(&[0, 1], &[99]);
        assert!(!store.is_valid(bogus, &g));
    }

    #[test]
    fn weight_sums_edge_weights() {
        let g = generators::ring(6);
        let p = Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap();
        let mut store = PathStore::new();
        let id = store.intern(&p);
        let w: Vec<f64> = (0..g.m()).map(|e| e as f64).collect();
        assert_eq!(store.weight(id, &w), 0.0 + 1.0 + 2.0);
    }
}
