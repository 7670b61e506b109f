//! Shortest paths: BFS (hop metric), Dijkstra (arbitrary edge lengths), and
//! single-source trees reusable across many queries.
//!
//! Every traversal walks [`Graph`]'s own adjacency ([`Graph::neighbors`])
//! in insertion order, so tie-breaking is deterministic and identical
//! across entry points.
//!
//! There is one Dijkstra core. It is generic over an [`EdgeView`]
//! restricting which edges may be traversed ([`dijkstra_tree`] is the
//! [`FullTopology`] instantiation, [`dijkstra_tree_view`] accepts any
//! view, e.g. the mask a `SubTopology` exports), so damaged-topology
//! solves cannot drift from intact ones. It also takes an optional stop
//! set and a caller-owned [`DijkstraWorkspace`]: [`dijkstra_targets`]
//! returns as soon as its targets are settled and allocates nothing once
//! the workspace has grown, while a full tree is the no-stop-set case of
//! the same core. Pops follow the total `(dist, vertex)` order, so a
//! truncated sweep reports bit-identical paths and costs for its targets.
//! The offline-OPT oracle runs one target-bounded sweep per source.
//!
//! Multi-source tree sweeps (all-pairs metrics, per-source baselines)
//! should use the *batch* helpers — [`bfs_trees_batch`] and
//! [`dijkstra_trees_batch`] — which fan the per-source trees out over
//! rayon workers and return them in source-index order, so results are
//! bit-identical to a serial sweep at any thread count. Small batches
//! stay serial (the cutoff moves wall-clock only, never bits).

use crate::graph::{EdgeId, Graph, VertexId};
use crate::path::Path;
use crate::subtopology::{EdgeView, FullTopology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Single-source shortest-path tree: for each vertex, the distance from the
/// source and the (parent vertex, edge) used to reach it.
///
/// Distances are hop counts for [`bfs_tree`] or length sums for
/// [`dijkstra_tree`]; unreachable vertices have `dist == f64::INFINITY`.
#[derive(Debug, Clone)]
pub struct SpTree {
    /// Source vertex of the tree.
    pub source: VertexId,
    /// Distance from source per vertex.
    pub dist: Vec<f64>,
    /// `(parent vertex, connecting edge)` per vertex; `None` at the source
    /// and at unreachable vertices.
    pub parent: Vec<Option<(VertexId, EdgeId)>>,
}

impl SpTree {
    /// Extracts the tree path from the source to `t`, or `None` if `t` is
    /// unreachable.
    pub fn path_to(&self, g: &Graph, t: VertexId) -> Option<Path> {
        if self.dist[t as usize].is_infinite() {
            return None;
        }
        let mut edges_rev: Vec<EdgeId> = Vec::new();
        let mut cur = t;
        while cur != self.source {
            let (p, e) = self.parent[cur as usize]?;
            edges_rev.push(e);
            cur = p;
        }
        edges_rev.reverse();
        Path::from_edges(g, self.source, &edges_rev)
    }

    /// Distance to `t` (`f64::INFINITY` if unreachable).
    pub fn dist_to(&self, t: VertexId) -> f64 {
        self.dist[t as usize]
    }
}

/// Breadth-first shortest-path tree from `s` (each edge has length 1).
/// Ties are broken toward lower edge ids, deterministically.
pub fn bfs_tree(g: &Graph, s: VertexId) -> SpTree {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut q = VecDeque::new();
    dist[s as usize] = 0.0;
    q.push_back(s);
    while let Some(v) = q.pop_front() {
        for a in g.neighbors(v) {
            if dist[a.to as usize].is_infinite() {
                dist[a.to as usize] = dist[v as usize] + 1.0;
                parent[a.to as usize] = Some((v, a.edge));
                q.push_back(a.to);
            }
        }
    }
    SpTree {
        source: s,
        dist,
        parent,
    }
}

/// Shortest hop-path between `s` and `t`, or `None` if disconnected.
pub fn bfs_path(g: &Graph, s: VertexId, t: VertexId) -> Option<Path> {
    if s == t {
        return Some(Path::trivial(s));
    }
    bfs_tree(g, s).path_to(g, t)
}

/// Hop distance between `s` and `t` (`usize::MAX` if disconnected).
pub fn hop_distance(g: &Graph, s: VertexId, t: VertexId) -> usize {
    let d = bfs_tree(g, s).dist[t as usize];
    if d.is_infinite() {
        usize::MAX
    } else {
        d as usize
    }
}

/// A Dijkstra heap entry packed into one integer: the distance's
/// [`f64::total_cmp`] order key in the high 64 bits, the vertex in the
/// low ones. Integer order on the key is exactly the `(dist, vertex)`
/// order the core pops in — `total_cmp`, not `partial_cmp`, so a NaN
/// distance has a fixed place instead of making the order depend on
/// push order — and each heap comparison is a single integer compare.
fn heap_key(dist: f64, vertex: VertexId) -> Reverse<u128> {
    let bits = dist.to_bits();
    // Negative values (sign bit set) reverse their order with every
    // bit flipped; the rest move above them with the sign bit set.
    let order = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    Reverse(u128::from(order) << 64 | u128::from(vertex))
}

/// The distance and vertex [`heap_key`] packed, bit for bit.
fn heap_entry(Reverse(key): Reverse<u128>) -> (f64, VertexId) {
    let order = (key >> 64) as u64;
    let bits = if order >> 63 == 1 {
        order & !(1 << 63)
    } else {
        !order
    };
    (f64::from_bits(bits), key as VertexId)
}

/// Reusable scratch for the Dijkstra core: distances, parents, the heap
/// and the stop-set marks of the last sweep.
///
/// A caller running many single-source sweeps over one graph keeps one
/// workspace and hands it to every [`dijkstra_targets`] call, so no
/// sweep allocates once the buffers have grown to the graph's size. After
/// a sweep the workspace answers [`DijkstraWorkspace::dist`] and
/// [`DijkstraWorkspace::path_parts`] for every target of that sweep.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<f64>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
    heap: BinaryHeap<Reverse<u128>>,
    stop: Vec<bool>,
}

impl DijkstraWorkspace {
    /// An empty workspace; buffers grow on the first sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distance from the last sweep's source to `t` (`f64::INFINITY` if
    /// unreachable). Exact for the source, every target and every vertex
    /// on a target's path.
    pub fn dist(&self, t: VertexId) -> f64 {
        self.dist[t as usize]
    }

    /// Writes the last sweep's shortest path from its source to `t` into
    /// `vertices` and `edges` (cleared first), in the layout
    /// [`crate::PathStore::intern_parts`] takes; returns `false`, with
    /// both left empty, if `t` is unreachable.
    pub fn path_parts(
        &self,
        t: VertexId,
        vertices: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
    ) -> bool {
        vertices.clear();
        edges.clear();
        if self.dist(t).is_infinite() {
            return false;
        }
        let mut cur = t;
        vertices.push(cur);
        while let Some(&Some((p, e))) = self.parent.get(cur as usize) {
            edges.push(e);
            vertices.push(p);
            cur = p;
        }
        vertices.reverse();
        edges.reverse();
        true
    }
}

/// The single Dijkstra implementation of the workspace, generic over the
/// length function and an [`EdgeView`] restricting which edges may be
/// traversed.
///
/// Kept private and wrapped in concrete functions on purpose: the
/// monomorphic wrappers are compiled (and fully optimized) inside this
/// crate, which measures ~20% faster on the Dijkstra-heavy oracles than
/// letting downstream crates instantiate the generic from exported MIR.
///
/// Unusable edges are treated as infinitely long: a relaxation through
/// one can never improve a distance, so they are effectively absent while
/// edge ids, traversal order, and tie-breaking stay identical to the
/// unmasked sweep. Vertices cut off by the view end with
/// `dist == f64::INFINITY`, exactly like genuinely unreachable ones.
///
/// With `stop = Some(targets)` the sweep returns as soon as every target
/// is settled; `None` builds the full tree. Pops follow the total
/// `(dist, vertex)` order, and under nonnegative lengths a settled
/// vertex's distance and parent chain are final, so a truncated sweep
/// reports bit-identical paths and costs for its targets.
fn dijkstra_in<L, V>(
    g: &Graph,
    s: VertexId,
    len: &L,
    view: &V,
    stop: Option<&[VertexId]>,
    ws: &mut DijkstraWorkspace,
) where
    L: Fn(EdgeId) -> f64 + ?Sized,
    V: EdgeView + ?Sized,
{
    let n = g.n();
    ws.dist.clear();
    ws.dist.resize(n, f64::INFINITY);
    ws.parent.clear();
    ws.parent.resize(n, None);
    ws.heap.clear();
    ws.dist[s as usize] = 0.0;
    // Stop-set marks, left empty for a full tree; the targets still
    // unsettled (`usize::MAX`, never reached, for a full tree).
    ws.stop.clear();
    let mut pending = usize::MAX;
    if let Some(targets) = stop {
        ws.stop.resize(n, false);
        pending = 0;
        for &t in targets {
            let mark = &mut ws.stop[t as usize];
            pending += usize::from(!*mark);
            *mark = true;
        }
        if pending == 0 {
            return;
        }
    }
    ws.heap.push(heap_key(0.0, s));
    while let Some((d, v)) = ws.heap.pop().map(heap_entry) {
        if d > ws.dist[v as usize] {
            continue;
        }
        if ws.stop.get(v as usize) == Some(&true) {
            pending -= 1;
            if pending == 0 {
                return;
            }
        }
        for a in g.neighbors(v) {
            let w = if view.usable(a.edge) {
                len(a.edge)
            } else {
                f64::INFINITY
            };
            // Sentinel at the source: a negative length breaks Dijkstra's
            // invariant outright, and a NaN (`w >= 0.0` is false for NaN)
            // would otherwise make the edge silently unusable — fail here,
            // naming the edge, not three layers downstream.
            debug_assert!(w >= 0.0, "negative or NaN length {w} on edge {}", a.edge);
            let nd = d + w;
            let best = &mut ws.dist[a.to as usize];
            if nd < *best {
                *best = nd;
                ws.parent[a.to as usize] = Some((v, a.edge));
                ws.heap.push(heap_key(nd, a.to));
            }
        }
    }
}

/// The no-stop-set case of [`dijkstra_in`]: the full tree from `s`.
fn dijkstra_tree_in<V: EdgeView + ?Sized>(
    g: &Graph,
    s: VertexId,
    len: &dyn Fn(EdgeId) -> f64,
    view: &V,
) -> SpTree {
    let mut ws = DijkstraWorkspace::new();
    dijkstra_in(g, s, len, view, None, &mut ws);
    SpTree {
        source: s,
        dist: ws.dist,
        parent: ws.parent,
    }
}

/// Dijkstra shortest-path tree from `s` under per-edge lengths `len`.
///
/// # Panics
///
/// Panics (in debug builds) if a negative length is encountered.
pub fn dijkstra_tree(g: &Graph, s: VertexId, len: &dyn Fn(EdgeId) -> f64) -> SpTree {
    dijkstra_tree_in(g, s, len, &FullTopology)
}

/// [`dijkstra_tree`] restricted to the edges an [`EdgeView`] marks
/// usable — the traversal failure scenarios run against a
/// [`crate::SubTopology`] mask (`&sub.usable_edges()[..]`) without
/// rebuilding a graph. With [`FullTopology`] this is exactly
/// [`dijkstra_tree`]; both wrap the one generic Dijkstra core, so every
/// view traverses in the identical deterministic order over identical
/// edge ids.
pub fn dijkstra_tree_view(
    g: &Graph,
    s: VertexId,
    len: &dyn Fn(EdgeId) -> f64,
    view: &dyn EdgeView,
) -> SpTree {
    dijkstra_tree_in(g, s, len, view)
}

/// Settles every vertex of `targets` from `s` under per-edge lengths
/// `w` (indexed by edge id), reusing `ws`, and stops at the last one; read
/// the answers from [`DijkstraWorkspace::dist`] and
/// [`DijkstraWorkspace::path_parts`]. `mask`, when given, marks the
/// usable edges (one bit per edge id). Paths and costs are bit-identical
/// to the full tree's ([`dijkstra_tree`] / [`dijkstra_tree_view`]) — the
/// same core, truncated — and the offline-OPT oracle runs one such sweep
/// per source per Frank–Wolfe iteration.
pub fn dijkstra_targets(
    g: &Graph,
    s: VertexId,
    targets: &[VertexId],
    w: &[f64],
    mask: Option<&[bool]>,
    ws: &mut DijkstraWorkspace,
) {
    let len = |e: EdgeId| w[e as usize];
    match mask {
        None => dijkstra_in(g, s, &len, &FullTopology, Some(targets), ws),
        Some(mask) => dijkstra_in(g, s, &len, mask, Some(targets), ws),
    }
}

/// Below this many sources a batch tree sweep stays serial: a single
/// tree on the experiment-scale graphs costs a few microseconds, while
/// the vendored rayon shim spawns threads per call. The cutoff affects
/// wall-clock only — results are index-ordered either way.
const BATCH_PAR_MIN_SOURCES: usize = 4;

/// Maps `sources` through `tree` via [`crate::par_ordered_map`]: output
/// in source-index order, serial below the cutoff.
fn batch_trees(sources: &[VertexId], tree: impl Fn(VertexId) -> SpTree + Sync) -> Vec<SpTree> {
    crate::par_ordered_map(sources, BATCH_PAR_MIN_SOURCES, |&s| tree(s))
}

/// One [`bfs_tree`] per source, fanned out over rayon workers and
/// returned in source-index order — bit-identical to a serial sweep at
/// any thread count. The per-source tree builders (`ShortestPathRouting`,
/// ECMP, hop-constrained landmarks) sweep through this.
pub fn bfs_trees_batch(g: &Graph, sources: &[VertexId]) -> Vec<SpTree> {
    batch_trees(sources, |s| bfs_tree(g, s))
}

/// One [`dijkstra_tree`] per source, fanned out over rayon workers and
/// returned in source-index order — bit-identical to a serial sweep at
/// any thread count. The all-pairs template metric is built on this.
pub fn dijkstra_trees_batch(
    g: &Graph,
    sources: &[VertexId],
    len: &(dyn Fn(EdgeId) -> f64 + Sync),
) -> Vec<SpTree> {
    batch_trees(sources, |s| dijkstra_tree_in(g, s, len, &FullTopology))
}

/// Shortest path between `s` and `t` under per-edge lengths.
pub fn dijkstra_path(
    g: &Graph,
    s: VertexId,
    t: VertexId,
    len: &dyn Fn(EdgeId) -> f64,
) -> Option<Path> {
    if s == t {
        return Some(Path::trivial(s));
    }
    dijkstra_tree(g, s, len).path_to(g, t)
}

/// Eccentricity-based diameter (exact, all-sources BFS). Intended for the
/// modest graph sizes of the experiments; `O(n * m)`.
pub fn diameter(g: &Graph) -> usize {
    let mut best = 0usize;
    for s in g.vertices() {
        let t = bfs_tree(g, s);
        for v in g.vertices() {
            let d = t.dist[v as usize];
            if d.is_finite() {
                best = best.max(d as usize);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_line() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = bfs_path(&g, 0, 3).unwrap();
        assert_eq!(p.hop(), 3);
        assert_eq!(hop_distance(&g, 0, 3), 3);
    }

    #[test]
    fn bfs_trivial_when_equal() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert_eq!(bfs_path(&g, 1, 1).unwrap().hop(), 0);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert!(bfs_path(&g, 0, 2).is_none());
        assert_eq!(hop_distance(&g, 0, 2), usize::MAX);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        // 0-1 has length 10; 0-2-1 has total length 2.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
        let lens = [10.0, 1.0, 1.0];
        let p = dijkstra_path(&g, 0, 1, &|e| lens[e as usize]).unwrap();
        assert_eq!(p.vertices(), &[0, 2, 1]);
    }

    #[test]
    fn dijkstra_matches_bfs_with_unit_lengths() {
        let g = generators::hypercube(4);
        for (s, t) in [(0u32, 15u32), (3, 12), (5, 10)] {
            let b = bfs_path(&g, s, t).unwrap();
            let d = dijkstra_path(&g, s, t, &|_| 1.0).unwrap();
            assert_eq!(b.hop(), d.hop());
        }
    }

    #[test]
    fn dijkstra_on_parallel_edges_picks_cheapest() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(0, 1);
        let len = move |e: EdgeId| if e == e0 { 5.0 } else { 1.0 };
        let p = dijkstra_path(&g, 0, 1, &len).unwrap();
        assert_eq!(p.edges(), &[e1]);
    }

    #[test]
    fn hypercube_distance_is_hamming() {
        let g = generators::hypercube(5);
        for (s, t) in [(0u32, 31u32), (1, 2), (7, 24)] {
            assert_eq!(hop_distance(&g, s, t), (s ^ t).count_ones() as usize);
        }
    }

    #[test]
    fn diameter_of_families() {
        assert_eq!(diameter(&generators::hypercube(4)), 4);
        assert_eq!(diameter(&generators::ring(8)), 4);
        assert_eq!(diameter(&generators::complete(5)), 1);
        assert_eq!(diameter(&generators::grid(3, 3)), 4);
    }

    #[test]
    fn full_view_matches_unmasked_exactly() {
        let g = generators::grid(4, 5);
        let lens: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 5) as f64 * 0.5).collect();
        let all = vec![true; g.m()];
        for s in g.vertices() {
            let a = dijkstra_tree(&g, s, &|e| lens[e as usize]);
            let b = dijkstra_tree_view(&g, s, &|e| lens[e as usize], &FullTopology);
            let c = dijkstra_tree_view(&g, s, &|e| lens[e as usize], &all);
            assert_eq!(a.dist, b.dist);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.dist, c.dist);
            assert_eq!(a.parent, c.parent);
        }
    }

    #[test]
    fn masked_view_matches_rebuilt_graph() {
        // Masking edges must yield the same distances as physically
        // removing them (on the surviving edge set).
        let g = generators::grid(4, 4);
        let mut usable = vec![true; g.m()];
        for e in [1usize, 5, 10] {
            usable[e] = false;
        }
        let kept: Vec<(VertexId, VertexId)> = g
            .edges()
            .filter(|(e, _)| usable[*e as usize])
            .map(|(_, uv)| uv)
            .collect();
        let rebuilt = Graph::from_edges(g.n(), &kept);
        for s in g.vertices() {
            let masked = dijkstra_tree_view(&g, s, &|_| 1.0, &usable);
            let reference = dijkstra_tree(&rebuilt, s, &|_| 1.0);
            assert_eq!(masked.dist, reference.dist, "source {s}");
        }
    }

    #[test]
    fn masked_view_cuts_off_unreachable_vertices() {
        // Ring of 4 with two opposite edges dead: 0 and 2 are separated.
        let g = generators::ring(4);
        let usable = vec![false, true, false, true];
        let t = dijkstra_tree_view(&g, 0, &|_| 1.0, &usable);
        assert!(t.dist[2].is_infinite());
        assert!(t.path_to(&g, 2).is_none());
        assert_eq!(t.dist[3], 1.0);
    }

    #[test]
    fn batch_trees_match_per_source_calls() {
        let g = generators::grid(4, 5);
        let lens: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 4) as f64 * 0.25).collect();
        let sources: Vec<VertexId> = g.vertices().collect();
        let bfs_batch = bfs_trees_batch(&g, &sources);
        let dij_batch = dijkstra_trees_batch(&g, &sources, &|e| lens[e as usize]);
        for (i, &s) in sources.iter().enumerate() {
            let b = bfs_tree(&g, s);
            assert_eq!(bfs_batch[i].dist, b.dist);
            assert_eq!(bfs_batch[i].parent, b.parent);
            let d = dijkstra_tree(&g, s, &|e| lens[e as usize]);
            assert_eq!(dij_batch[i].dist, d.dist);
            assert_eq!(dij_batch[i].parent, d.parent);
        }
    }

    /// Every target of a stopped sweep reads the full tree's cost and
    /// path, masked or not, under zero-length edges and length ties, with
    /// one workspace reused across sources and target sets.
    #[test]
    fn target_sweeps_match_full_trees() {
        let g = generators::grid(4, 5);
        let lens: Vec<f64> = (0..g.m()).map(|e| (e % 3) as f64).collect();
        let len = |e: EdgeId| lens[e as usize];
        let usable: Vec<bool> = (0..g.m()).map(|e| !matches!(e, 2 | 9 | 14)).collect();
        let mut ws = DijkstraWorkspace::new();
        let (mut vs, mut es) = (Vec::new(), Vec::new());
        for mask in [None, Some(usable.as_slice())] {
            for s in g.vertices() {
                let full = match mask {
                    None => dijkstra_tree(&g, s, &len),
                    Some(_) => dijkstra_tree_view(&g, s, &len, &usable),
                };
                let far = (s + 7) % g.n() as VertexId;
                for targets in [vec![s], vec![far], vec![far, s, 19, far, 0]] {
                    dijkstra_targets(&g, s, &targets, &lens, mask, &mut ws);
                    for &t in &targets {
                        assert_eq!(ws.dist(t).to_bits(), full.dist_to(t).to_bits());
                        let want = full.path_to(&g, t);
                        assert_eq!(ws.path_parts(t, &mut vs, &mut es), want.is_some());
                        if let Some(p) = want {
                            assert_eq!((vs.as_slice(), es.as_slice()), (p.vertices(), p.edges()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sp_tree_paths_are_valid_and_simple() {
        let g = generators::grid(4, 5);
        let t = bfs_tree(&g, 0);
        for v in g.vertices() {
            let p = t.path_to(&g, v).unwrap();
            assert!(p.is_valid(&g));
            assert!(p.is_simple());
            assert_eq!(p.hop() as f64, t.dist[v as usize]);
        }
    }
}
