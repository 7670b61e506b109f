//! Hypercube routings: Valiant–Brebner randomized routing `[VB81]` and the
//! deterministic greedy bit-fixing strawman it repairs.
//!
//! Valiant's trick (Section 3 / Section 5.1 of the paper): route `s -> t`
//! by greedily bit-fixing `s -> w` for a uniformly random intermediate `w`,
//! then `w -> t`. For any permutation demand the expected congestion of any
//! edge is `O(1)`.
//!
//! A Valiant path is never built as a vertex list. Both legs stream hop
//! by hop, in ascending bit order, into a per-thread [`ShortcutWalk`];
//! each hop's edge comes from a `(vertex, bit)` table built once per
//! routing. Sampling draws the intermediates, walks each one and interns
//! the walk straight into the caller's arena, and the exact distribution
//! pushes its `2^dim` walks the same way, so neither allocates per path.
//!
//! Deterministic bit-fixing alone is the classic negative example: on the
//! bit-reversal or transpose permutations its congestion is `Θ(sqrt(n))`
//! `[KKT91]`, which experiment E4 regenerates. It is the same walk with
//! `w = s`.

use crate::traits::ObliviousRouting;
use rand::{Rng, RngCore};
use std::cell::RefCell;

use ssor_graph::{
    generators, push_new, Distributions, EdgeId, Graph, Path, PathId, PathStore, ShortcutWalk,
    VertexId,
};

thread_local! {
    /// The walk behind [`ValiantRouting::with_walk`], reused by every
    /// Valiant path assembled on this thread.
    static WALK: RefCell<ShortcutWalk> = RefCell::new(ShortcutWalk::new());
}

/// The Valiant–Brebner oblivious routing on the `dim`-dimensional
/// hypercube: uniform random intermediate, greedy bit-fixing on both legs,
/// with the concatenation shortcut to a simple path.
///
/// # Examples
///
/// ```
/// use ssor_oblivious::{ObliviousRouting, ValiantRouting};
/// use rand::SeedableRng;
///
/// let r = ValiantRouting::new(4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let p = r.sample_path(0, 15, &mut rng);
/// assert_eq!(p.source(), 0);
/// assert_eq!(p.target(), 15);
/// assert!(p.is_simple());
/// ```
#[derive(Debug)]
pub struct ValiantRouting {
    dim: u32,
    graph: Graph,
    /// The edge from `v` across bit `b` at index `v * dim + b`: the
    /// lowest-id edge between `v` and `v ^ (1 << b)`, the one
    /// [`Path::from_vertices`] picks.
    bit_edges: Vec<EdgeId>,
}

impl ValiantRouting {
    /// Creates the routing on a fresh `dim`-dimensional hypercube.
    pub fn new(dim: u32) -> Self {
        let graph = generators::hypercube(dim);
        let bit_edges = graph
            .vertices()
            .flat_map(|v| (0..dim).map(move |b| (v, v ^ (1 << b))))
            .map(|(v, w)| {
                graph
                    .neighbors(v)
                    .iter()
                    .filter(|a| a.to == w)
                    .map(|a| a.edge)
                    .min()
                    .expect("bit flips are hypercube edges")
            })
            .collect();
        ValiantRouting {
            dim,
            graph,
            bit_edges,
        }
    }

    /// The hypercube dimension.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The (simple) two-leg path through intermediate `w`.
    pub fn path_via(&self, s: VertexId, t: VertexId, w: VertexId) -> Path {
        self.with_walk(s, t, w, ShortcutWalk::to_path)
    }

    /// Streams the bit-fixing legs `s -> w` and `w -> t` into this
    /// thread's walk and hands the shortcut result, whose slices are the
    /// path [`path_via`](Self::path_via) returns, to `f`. `f` runs while
    /// the walk is borrowed, so it must not assemble another Valiant
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if a vertex is outside the hypercube.
    pub(crate) fn with_walk<R>(
        &self,
        s: VertexId,
        t: VertexId,
        w: VertexId,
        f: impl FnOnce(&ShortcutWalk) -> R,
    ) -> R {
        // A bit at or above `dim` would index another vertex's row.
        assert!(
            (s | t | w) >> self.dim == 0,
            "vertex outside the {}-cube",
            self.dim
        );
        WALK.with(|walk| {
            let walk = &mut *walk.borrow_mut();
            walk.start(s);
            let mut cur = s;
            for target in [w, t] {
                let mut diff = cur ^ target;
                while diff != 0 {
                    let b = diff.trailing_zeros();
                    let e = self
                        .bit_edges
                        .get(cur as usize * self.dim as usize + b as usize)
                        .copied()
                        .expect("vertex ids were checked against dim");
                    cur ^= 1 << b;
                    walk.step(e, cur);
                    diff &= diff - 1;
                }
            }
            f(walk)
        })
    }
}

impl ObliviousRouting for ValiantRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t, "no path needed for s == t");
        let n = 1u32 << self.dim;
        let w = rng.gen_range(0..n);
        self.path_via(s, t, w)
    }

    /// One `gen_range(0..n)` intermediate per draw, in draw order, each
    /// walked and its walk interned straight from the scratch: the ids,
    /// the arena and the RNG state of the per-draw loop, without an owned
    /// path per draw.
    fn sample_into(
        &self,
        s: VertexId,
        t: VertexId,
        draws: usize,
        rng: &mut dyn RngCore,
        store: &mut PathStore,
        out: &mut Vec<PathId>,
    ) {
        assert_ne!(s, t, "no path needed for s == t");
        let n = 1u32 << self.dim;
        for _ in 0..draws {
            let w = rng.gen_range(0..n);
            let id = self.with_walk(s, t, w, |walk| {
                store.intern_parts(walk.vertices(), walk.edges())
            });
            push_new(out, id);
        }
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        let n = 1u32 << self.dim;
        let w_prob = 1.0 / n as f64;
        for w in 0..n {
            self.with_walk(s, t, w, |walk| {
                out.push_parts(walk.vertices(), walk.edges(), w_prob);
            });
        }
        out.merge_open();
    }
}

/// Deterministic greedy bit-fixing: the unique ascending-bit path. This is
/// a 1-sparse *deterministic* oblivious routing — exactly the object the
/// `Ω̃(sqrt(n))` lower bound of `[KKT91]` applies to.
#[derive(Debug)]
pub struct BitFixingRouting {
    /// Bit-fixing `s -> t` is Valiant's walk through intermediate `s`:
    /// an empty first leg, then the ascending-bit leg, already simple.
    valiant: ValiantRouting,
}

impl BitFixingRouting {
    /// Creates the routing on a fresh `dim`-dimensional hypercube.
    pub fn new(dim: u32) -> Self {
        BitFixingRouting {
            valiant: ValiantRouting::new(dim),
        }
    }

    /// The deterministic path for `(s, t)`.
    pub fn path(&self, s: VertexId, t: VertexId) -> Path {
        self.valiant.path_via(s, t, s)
    }
}

impl ObliviousRouting for BitFixingRouting {
    fn graph(&self) -> &Graph {
        self.valiant.graph()
    }

    fn sample_path(&self, s: VertexId, t: VertexId, _rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t);
        self.path(s, t)
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        self.valiant.with_walk(s, t, s, |walk| {
            out.push_parts(walk.vertices(), walk.edges(), 1.0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_oblivious_routing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_flow::Demand;
    use std::collections::HashMap;

    #[test]
    fn bit_fixing_path_is_shortest() {
        let r = BitFixingRouting::new(4);
        for (s, t) in [(0u32, 15u32), (3, 9), (5, 6)] {
            let p = r.path(s, t);
            assert_eq!(p.hop(), (s ^ t).count_ones() as usize);
            assert!(p.is_simple());
        }
    }

    #[test]
    #[should_panic(expected = "vertex outside the 3-cube")]
    fn out_of_range_vertices_panic() {
        // Without the check, bit 3 of target 8 would read vertex 1's
        // bit-0 edge and return an invalid path.
        ValiantRouting::new(3).path_via(0, 8, 0);
    }

    #[test]
    fn valiant_paths_are_simple_and_correct() {
        let r = ValiantRouting::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            use rand::Rng;
            let s = rng.gen_range(0..16);
            let mut t = rng.gen_range(0..16);
            if s == t {
                t = (t + 1) % 16;
            }
            let p = r.sample_path(s, t, &mut rng);
            assert_eq!(p.source(), s);
            assert_eq!(p.target(), t);
            assert!(p.is_simple());
            assert!(p.is_valid(r.graph()));
            assert!(p.hop() <= 2 * 4);
        }
    }

    #[test]
    fn distributions_validate() {
        let v = ValiantRouting::new(3);
        let b = BitFixingRouting::new(3);
        let pairs: Vec<(u32, u32)> = (0..8)
            .flat_map(|s| (0..8).filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        validate_oblivious_routing(&v, &pairs).unwrap();
        validate_oblivious_routing(&b, &pairs).unwrap();
    }

    #[test]
    fn valiant_congestion_on_permutation_is_constant_like() {
        // cong(R, d) for a random permutation should be O(1) (small),
        // while deterministic bit-fixing on bit-reversal is much larger.
        let dim = 5;
        let v = ValiantRouting::new(dim);
        let d = Demand::hypercube_bit_reversal(dim);
        let cv = v.congestion(&d);
        let b = BitFixingRouting::new(dim);
        let cb = b.congestion(&d);
        assert!(cv < cb, "valiant {cv} should beat bit-fixing {cb}");
        assert!(
            cb >= (1u64 << (dim / 2)) as f64 / 2.0,
            "bit-reversal forces sqrt(n)-ish congestion, got {cb}"
        );
    }

    #[test]
    fn path_via_matches_distribution_mass() {
        let v = ValiantRouting::new(3);
        let dist = v.path_distribution(0, 7);
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The direct path s->t appears whenever w lies on it; mass of each
        // merged path is a multiple of 1/8.
        for (_, w) in &dist {
            let k = w * 8.0;
            assert!((k - k.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_frequencies_match_distribution() {
        let v = ValiantRouting::new(3);
        let dist = v.path_distribution(1, 6);
        let mut counts: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 4000;
        for _ in 0..trials {
            let p = v.sample_path(1, 6, &mut rng);
            *counts.entry(p.edges().to_vec()).or_insert(0) += 1;
        }
        for (p, w) in &dist {
            let f = *counts.get(p.edges()).unwrap_or(&0) as f64 / trials as f64;
            assert!(
                (f - w).abs() < 0.05,
                "path {:?}: empirical {f} vs exact {w}",
                p
            );
        }
    }
}
