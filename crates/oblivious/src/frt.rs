//! FRT random hierarchical tree embeddings, and the tree-based routing that
//! maps tree paths back to graph paths.
//!
//! Räcke's 2008 construction of `O(log n)`-competitive oblivious routing
//! reduces to low-distortion probabilistic tree embeddings; FRT supplies
//! those (`O(log n)` expected distortion). A single FRT tree gives a
//! deterministic path map; a *distribution* over trees (built in
//! [`RaeckeRouting`](crate::RaeckeRouting)) gives the oblivious routing.
//!
//! Construction is rayon-parallel and seed-derived: [`Metric::build`]
//! fans its per-source Dijkstra trees over workers in index order, and
//! tree *ensembles* draw each tree from its own [`tree_seed`]-derived
//! RNG stream ([`sample_tree_routings_seeded`]), so outputs are
//! bit-identical at any thread count. The one remaining threaded-RNG
//! entry point is crate-private: the Räcke multiplicative-weights loop
//! threads a single RNG through its inherently sequential iterations to
//! keep its historical byte-stable stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ssor_graph::generators::mix_seed;
use ssor_graph::shortest_path::{dijkstra_trees_batch, SpTree};
use ssor_graph::{par_ordered_map, EdgeId, Graph, Path, ShortcutWalk, VertexId};
use std::cell::RefCell;
use std::sync::Arc;

/// All-pairs shortest-path structure under a fixed length function: one
/// Dijkstra tree per source. `O(n^2)` memory — intended for the paper's
/// experiment scales (n up to a few thousand).
#[derive(Debug)]
pub struct Metric {
    trees: Vec<SpTree>,
}

impl Metric {
    /// Builds the metric with one Dijkstra per vertex. The per-source
    /// trees fan out over rayon workers (via [`dijkstra_trees_batch`])
    /// and come back in source-index order, so the metric is
    /// bit-identical at any thread count.
    pub fn build(g: &Graph, len: &(dyn Fn(EdgeId) -> f64 + Sync)) -> Self {
        let sources: Vec<VertexId> = g.vertices().collect();
        let trees = dijkstra_trees_batch(g, &sources, len);
        Metric { trees }
    }

    /// Unit-length (hop) metric.
    pub fn hops(g: &Graph) -> Self {
        Metric::build(g, &|_| 1.0)
    }

    /// Distance from `u` to `v`.
    pub fn dist(&self, u: VertexId, v: VertexId) -> f64 {
        self.trees[u as usize].dist_to(v)
    }

    /// The shortest-path tree rooted at `u`.
    fn tree(&self, u: VertexId) -> &SpTree {
        &self.trees[u as usize]
    }

    /// Largest finite pairwise distance.
    pub fn diameter(&self) -> f64 {
        let mut best: f64 = 0.0;
        for t in &self.trees {
            for &d in &t.dist {
                if d.is_finite() {
                    best = best.max(d);
                }
            }
        }
        best
    }
}

/// One FRT hierarchical decomposition tree.
///
/// `chains[v][i]` is the cluster center of vertex `v` at level `i`
/// (level 0 = the vertex itself, top level = one cluster for the whole
/// graph). Two vertices share the level-`i` cluster iff their chains agree
/// at every level `>= i` — chain-prefix comparison keeps the family
/// laminar.
#[derive(Debug, Clone)]
pub struct FrtTree {
    levels: usize,
    chains: Vec<Vec<VertexId>>,
}

/// Tag mixed into per-tree seeds by [`FrtTree::sample_seeded`] callers
/// (see [`sample_tree_routings_seeded`]), decorrelating tree streams from
/// every other derived-seed stream in the workspace.
const FRT_TREE_STREAM_TAG: u64 = 0xF27E_E5EE_DF12_7AB1;

/// The derived seed for tree `index` of an ensemble built from `seed` —
/// public so a single tree of a parallel ensemble can be reproduced in
/// isolation.
///
/// # Examples
///
/// ```
/// use ssor_oblivious::frt::tree_seed;
/// assert_eq!(tree_seed(7, 3), tree_seed(7, 3));
/// assert_ne!(tree_seed(7, 3), tree_seed(7, 4));
/// assert_ne!(tree_seed(7, 3), tree_seed(8, 3));
/// ```
pub fn tree_seed(seed: u64, index: usize) -> u64 {
    mix_seed(seed ^ FRT_TREE_STREAM_TAG ^ mix_seed(index as u64))
}

impl FrtTree {
    /// Samples an FRT tree for the given metric: random permutation `pi`,
    /// random `beta in [1, 2)`, level-`i` radius `beta * 2^{i-2}`.
    ///
    /// This is the crate-private *serial path*: it consumes randomness
    /// from a caller-threaded RNG, so consecutive samples are
    /// order-dependent and cannot fan out over threads. Ensemble code
    /// uses [`FrtTree::sample_seeded`] with [`tree_seed`]-derived
    /// per-tree streams (see [`sample_tree_routings_seeded`]); the only
    /// threaded caller left is the Räcke multiplicative-weights loop,
    /// whose iterations are inherently sequential and whose byte-stable
    /// output stream is pinned to this path.
    pub(crate) fn sample<R: Rng + ?Sized>(metric: &Metric, n: usize, rng: &mut R) -> Self {
        assert!(n >= 1);
        let mut pi: Vec<VertexId> = (0..n as VertexId).collect();
        pi.shuffle(rng);
        // FRT samples beta with density 1/(beta ln 2) on [1, 2); inverse
        // CDF sampling: beta = 2^u for u uniform in [0, 1).
        let beta = 2f64.powf(rng.gen::<f64>());

        let diam = metric.diameter().max(1.0);
        // Smallest L with beta * 2^{L-2} >= diam (so the top level is a
        // single cluster regardless of beta >= 1). Computed in f64: for
        // ordinary diameters this selects the identical level count as
        // the former `1u64 << (L-2)` comparison (both sides are exact
        // below 2^52), and for extreme but finite diameters — e.g. a
        // length function spanning the full clamped ratio range — the
        // loop keeps growing until the top radius genuinely covers the
        // graph instead of overflowing a 64-bit shift.
        let target = diam.ceil() * 2.0;
        let mut levels = 2usize;
        while 2f64.powi((levels - 2) as i32) < target {
            levels += 1;
        }

        let mut chains = vec![Vec::with_capacity(levels + 1); n];
        for (v, chain) in chains.iter_mut().enumerate() {
            chain.push(v as VertexId); // level 0: singleton
        }
        for i in 1..=levels {
            let r = beta * 2f64.powi(i as i32 - 2);
            for (v, chain) in chains.iter_mut().enumerate() {
                let c = pi
                    .iter()
                    .copied()
                    .find(|&c| metric.dist(c, v as VertexId) <= r)
                    .expect("top radius covers the whole graph");
                chain.push(c);
            }
        }
        FrtTree { levels, chains }
    }

    /// Samples an FRT tree from its own derived RNG stream: a pure
    /// function of `(metric, n, seed)`, independent of whatever other
    /// trees are being sampled around it — which is what lets ensemble
    /// builders fan tree sampling out over rayon workers with
    /// thread-count-invariant output (each tree's stream never depends
    /// on sampling order).
    pub fn sample_seeded(metric: &Metric, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        FrtTree::sample(metric, n, &mut rng)
    }

    /// The center chain of `v` (level 0 through the top).
    pub fn chain(&self, v: VertexId) -> &[VertexId] {
        &self.chains[v as usize]
    }

    /// The meeting level of `s` and `t`: the smallest `i` such that the
    /// chains agree at every level `>= i` (0 iff `s == t`).
    fn meeting_level(&self, s: VertexId, t: VertexId) -> usize {
        let (cs, ct) = (&self.chains[s as usize], &self.chains[t as usize]);
        let mut level = self.levels + 1;
        for i in (0..=self.levels).rev() {
            if cs[i] != ct[i] {
                break;
            }
            level = i;
        }
        level.min(self.levels)
    }

    /// The tree-path waypoints from `s` to `t`: centers going up `s`'s
    /// chain to the meeting cluster, then down `t`'s chain. Consecutive
    /// duplicates are removed.
    fn waypoints(&self, s: VertexId, t: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let j = self.meeting_level(s, t);
        let up = self.chain(s).iter().take(j + 1);
        let down = self.chain(t).iter().take(j).rev();
        let mut last = None;
        up.chain(down)
            .copied()
            .filter(move |&w| last.replace(w) != Some(w))
    }
}

/// Deterministic path map derived from one FRT tree: the `s -> t` path is
/// the concatenation of shortest paths between consecutive tree waypoints,
/// shortcut to a simple path.
///
/// The concatenation is never built. Each waypoint segment is read off
/// the metric's shortest-path tree rooted at its start (the `parent`
/// chain, with each edge checked for incidence as it is followed) and
/// streamed hop by hop into a [`ShortcutWalk`], which removes loops as
/// they close; the result is exactly the shortcut concatenation. The
/// walk and segment buffers live in a per-thread scratch reused by every
/// path assembled on that thread, so a path costs no allocation beyond
/// the owned [`Path`] that [`path`](Self::path) returns.
#[derive(Debug, Clone)]
pub struct TreeRouting {
    metric: Arc<Metric>,
    tree: Arc<FrtTree>,
}

/// The buffers behind [`TreeRouting::with_walk`]: the shortcut walk and
/// one waypoint segment's edges, collected target-first off the parent
/// chain.
#[derive(Debug, Default)]
struct TreePathScratch {
    walk: ShortcutWalk,
    segment: Vec<EdgeId>,
}

thread_local! {
    static SCRATCH: RefCell<TreePathScratch> = RefCell::new(TreePathScratch::default());
}

impl TreeRouting {
    /// Wraps a tree with the metric used to map its segments.
    pub fn new(metric: Arc<Metric>, tree: Arc<FrtTree>) -> Self {
        TreeRouting { metric, tree }
    }

    /// The (deterministic, simple) routed path for `(s, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn path(&self, g: &Graph, s: VertexId, t: VertexId) -> Path {
        self.with_walk(g, s, t, ShortcutWalk::to_path)
    }

    /// Assembles the routed `(s, t)` path in this thread's scratch and
    /// hands the finished walk, whose slices are the path
    /// [`path`](Self::path) returns, to `f`. `f` runs while the scratch
    /// is borrowed, so it must not assemble another tree path.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, or if a segment's parent chain is broken: an
    /// unreachable waypoint, or a parent edge not incident to the walk's
    /// head.
    pub(crate) fn with_walk<R>(
        &self,
        g: &Graph,
        s: VertexId,
        t: VertexId,
        f: impl FnOnce(&ShortcutWalk) -> R,
    ) -> R {
        assert_ne!(s, t, "tree routing needs distinct endpoints");
        SCRATCH.with(|scratch| {
            let TreePathScratch { walk, segment } = &mut *scratch.borrow_mut();
            walk.start(s);
            let mut head = s;
            let mut waypoints = self.tree.waypoints(s, t);
            let mut u = waypoints.next().unwrap_or(s);
            for v in waypoints {
                let sp = self.metric.tree(u);
                segment.clear();
                let mut x = v;
                while x != u {
                    let (p, e) = sp
                        .parent
                        .get(x as usize)
                        .copied()
                        .flatten()
                        .expect("metric requires a connected graph");
                    segment.push(e);
                    x = p;
                }
                for &e in segment.iter().rev() {
                    head = g
                        .far_end(e, head)
                        .expect("shortest-path tree edges chain from the segment start");
                    walk.step(e, head);
                }
                u = v;
            }
            debug_assert_eq!(walk.vertices().last(), Some(&t));
            f(walk)
        })
    }
}

/// Samples `count` hop-metric [`TreeRouting`]s in parallel, each from its
/// own [`tree_seed`]-derived RNG stream — the plain "FRT ensemble"
/// baseline. (A routing that sampled a *fresh* tree per path draw would
/// be wasteful; [`RaeckeRouting`](crate::RaeckeRouting) instead holds a
/// fixed mixture of [`TreeRouting`]s.)
///
/// Tree `i`'s randomness is a pure function of `(seed, i)`, so the trees
/// fan out over rayon workers (index-ordered collect) and the ensemble is
/// bit-identical at any thread count.
///
/// # Examples
///
/// ```
/// use ssor_oblivious::frt::sample_tree_routings_seeded;
///
/// let g = ssor_graph::generators::ring(8);
/// let trees = sample_tree_routings_seeded(&g, 4, 7);
/// assert_eq!(trees.len(), 4);
/// // Deterministic per seed:
/// let again = sample_tree_routings_seeded(&g, 4, 7);
/// assert_eq!(trees[2].path(&g, 0, 5), again[2].path(&g, 0, 5));
/// ```
pub fn sample_tree_routings_seeded(g: &Graph, count: usize, seed: u64) -> Vec<TreeRouting> {
    let metric = Arc::new(Metric::hops(g));
    sample_trees_for_metric(g, &metric, count, seed)
}

/// Below this many trees the ensemble sampling stays serial (the
/// vendored rayon shim spawns threads per call); wall-clock only, the
/// derived seed streams make results identical either way.
const ENSEMBLE_PAR_MIN_TREES: usize = 2;

/// The seeded parallel ensemble core: `count` trees over a shared
/// prebuilt metric, tree `i` drawn from [`tree_seed`]`(seed, i)`.
pub(crate) fn sample_trees_for_metric(
    g: &Graph,
    metric: &Arc<Metric>,
    count: usize,
    seed: u64,
) -> Vec<TreeRouting> {
    let indices: Vec<usize> = (0..count).collect();
    par_ordered_map(&indices, ENSEMBLE_PAR_MIN_TREES, |&i| {
        let tree = Arc::new(FrtTree::sample_seeded(metric, g.n(), tree_seed(seed, i)));
        TreeRouting::new(Arc::clone(metric), tree)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::generators;

    /// Distance between `s` and `t` in the (virtual) tree, using level
    /// radii as edge lengths — an upper bound proxy for the embedding
    /// distortion.
    fn tree_distance(tree: &FrtTree, s: VertexId, t: VertexId) -> f64 {
        let j = tree.meeting_level(s, t);
        // Edge from level i-1 to i costs 2^i; both sides climb to level j.
        2.0 * (0..=j).map(|i| 2f64.powi(i as i32)).sum::<f64>()
    }

    #[test]
    fn metric_matches_bfs_on_unit_lengths() {
        let g = generators::grid(3, 4);
        let m = Metric::hops(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                let hop = ssor_graph::shortest_path::hop_distance(&g, s, t);
                assert_eq!(m.dist(s, t) as usize, hop);
            }
        }
        assert_eq!(m.diameter() as usize, 5);
    }

    #[test]
    fn chains_start_at_self_and_end_together() {
        let g = generators::ring(10);
        let metric = Metric::hops(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let tree = FrtTree::sample(&metric, g.n(), &mut rng);
        let top = tree.levels;
        let root = tree.chain(0)[top];
        for v in g.vertices() {
            assert_eq!(tree.chain(v)[0], v);
            assert_eq!(tree.chain(v)[top], root, "single top cluster");
        }
    }

    #[test]
    fn meeting_level_is_symmetric_and_zero_iff_equal() {
        let g = generators::grid(4, 4);
        let metric = Metric::hops(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let tree = FrtTree::sample(&metric, g.n(), &mut rng);
        for s in g.vertices() {
            assert_eq!(tree.meeting_level(s, s), 0);
            for t in g.vertices() {
                assert_eq!(tree.meeting_level(s, t), tree.meeting_level(t, s));
                if s != t {
                    assert!(tree.meeting_level(s, t) >= 1);
                }
            }
        }
    }

    #[test]
    fn tree_paths_are_simple_valid_and_connect() {
        let g = generators::hypercube(4);
        let metric = Arc::new(Metric::hops(&g));
        let mut rng = StdRng::seed_from_u64(11);
        let tree = Arc::new(FrtTree::sample(&metric, g.n(), &mut rng));
        let tr = TreeRouting::new(metric, tree);
        for s in [0u32, 3, 7] {
            for t in g.vertices() {
                if s == t {
                    continue;
                }
                let p = tr.path(&g, s, t);
                assert_eq!(p.source(), s);
                assert_eq!(p.target(), t);
                assert!(p.is_simple());
                assert!(p.is_valid(&g));
            }
        }
    }

    #[test]
    fn expected_stretch_is_logarithmic_ish() {
        // FRT guarantees E[tree dist] <= O(log n) * dist. Check the routed
        // path stretch averaged over trees stays well below the diameter
        // blowup a bad embedding would give.
        let g = generators::ring(16);
        let routings = sample_tree_routings_seeded(&g, 24, 17);
        let mut total_stretch = 0.0;
        let mut count = 0;
        for (s, t) in [(0u32, 1u32), (2, 3), (10, 11), (15, 0)] {
            for tr in &routings {
                let p = tr.path(&g, s, t);
                total_stretch += p.hop() as f64 / 1.0; // dist = 1
                count += 1;
            }
        }
        let avg = total_stretch / count as f64;
        // log2(16) = 4; allow generous slack, but far below diameter 8.
        assert!(avg <= 6.0, "average stretch {avg} too large");
    }

    #[test]
    fn seeded_ensemble_is_deterministic_and_order_independent() {
        // Tree i is a pure function of (seed, i): the whole ensemble is
        // reproducible, sensitive to the seed, and a larger ensemble is
        // an extension of a smaller one (per-tree streams cannot shift).
        let g = generators::grid(4, 4);
        let a = sample_tree_routings_seeded(&g, 6, 3);
        let b = sample_tree_routings_seeded(&g, 6, 3);
        let c = sample_tree_routings_seeded(&g, 6, 4);
        let prefix = sample_tree_routings_seeded(&g, 3, 3);
        let pairs = [(0u32, 15u32), (3, 12), (5, 10)];
        for (i, (ta, tb)) in a.iter().zip(b.iter()).enumerate() {
            for &(s, t) in &pairs {
                assert_eq!(ta.path(&g, s, t), tb.path(&g, s, t), "tree {i}");
            }
        }
        for (i, tp) in prefix.iter().enumerate() {
            for &(s, t) in &pairs {
                assert_eq!(a[i].path(&g, s, t), tp.path(&g, s, t), "prefix tree {i}");
            }
        }
        assert!(
            pairs
                .iter()
                .any(|&(s, t)| { (0..6).any(|i| a[i].path(&g, s, t) != c[i].path(&g, s, t)) }),
            "different seeds should differ somewhere"
        );
        for tr in &a {
            for &(s, t) in &pairs {
                let p = tr.path(&g, s, t);
                assert!(p.is_simple() && p.is_valid(&g));
            }
        }
    }

    #[test]
    fn extreme_but_finite_metrics_sample_without_overflow() {
        // Huge length functions used to push the levels loop into a
        // `1 << 64` overflow (or, with a capped shift, into a top radius
        // that failed to cover the graph). The f64 loop must keep
        // growing levels until the top cluster genuinely covers every
        // vertex, for any finite diameter.
        let g = generators::ring(6);
        for big in [
            1.099511627776e12, /* 2^40, the Raecke ratio clamp */
            1e18,
        ] {
            let metric = Metric::build(&g, &move |e| if e == 0 { big } else { 1.0 });
            let tree = FrtTree::sample_seeded(&metric, g.n(), 9);
            assert!(tree.levels >= 2);
            let top = tree.levels;
            let root = tree.chain(0)[top];
            for v in g.vertices() {
                assert_eq!(tree.chain(v)[top], root, "single top cluster (len {big})");
            }
        }
    }

    #[test]
    fn waypoints_start_and_end_correctly() {
        let g = generators::grid(3, 3);
        let metric = Metric::hops(&g);
        let mut rng = StdRng::seed_from_u64(23);
        let tree = FrtTree::sample(&metric, g.n(), &mut rng);
        let w: Vec<VertexId> = tree.waypoints(0, 8).collect();
        assert_eq!(*w.first().unwrap(), 0);
        assert_eq!(*w.last().unwrap(), 8);
        // No consecutive duplicates.
        for pair in w.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn tree_distance_dominates_metric_distance() {
        // The FRT guarantee "tree distance >= true distance" holds per
        // sample (not just in expectation).
        let g = generators::grid(4, 4);
        let metric = Metric::hops(&g);
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..5 {
            let tree = FrtTree::sample(&metric, g.n(), &mut rng);
            for s in g.vertices() {
                for t in g.vertices() {
                    if s != t {
                        assert!(
                            tree_distance(&tree, s, t) + 1e-9 >= metric.dist(s, t),
                            "tree distance must dominate"
                        );
                    }
                }
            }
        }
    }
}
