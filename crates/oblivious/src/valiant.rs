//! Hypercube routings: Valiant–Brebner randomized routing `[VB81]` and the
//! deterministic greedy bit-fixing strawman it repairs.
//!
//! Valiant's trick (Section 3 / Section 5.1 of the paper): route `s -> t`
//! by greedily bit-fixing `s -> w` for a uniformly random intermediate `w`,
//! then `w -> t`. For any permutation demand the expected congestion of any
//! edge is `O(1)`.
//!
//! Deterministic bit-fixing alone is the classic negative example: on the
//! bit-reversal or transpose permutations its congestion is `Θ(sqrt(n))`
//! `[KKT91]`, which experiment E4 regenerates.

use crate::traits::ObliviousRouting;
use rand::{Rng, RngCore};

use ssor_graph::{generators, Distributions, Graph, Path, VertexId};

/// Greedy bit-fixing vertex sequence from `s` to `t` (ascending bit order).
fn bit_fix_vertices(s: VertexId, t: VertexId, dim: u32) -> Vec<VertexId> {
    let mut verts = vec![s];
    let mut cur = s;
    for b in 0..dim {
        if (cur ^ t) & (1 << b) != 0 {
            cur ^= 1 << b;
            verts.push(cur);
        }
    }
    verts
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
}

impl ValiantRouting {
    /// Creates the routing on a fresh `dim`-dimensional hypercube.
    pub fn new(dim: u32) -> Self {
        ValiantRouting {
            dim,
            graph: generators::hypercube(dim),
        }
    }

    /// The hypercube dimension.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The (simple) two-leg path through intermediate `w`.
    pub fn path_via(&self, s: VertexId, t: VertexId, w: VertexId) -> Path {
        let mut verts = bit_fix_vertices(s, w, self.dim);
        verts.extend_from_slice(&bit_fix_vertices(w, t, self.dim)[1..]);
        Path::from_vertices(&self.graph, &verts)
            .expect("bit-fixing steps are hypercube edges")
            .shortcut()
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

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        let n = 1u32 << self.dim;
        let w_prob = 1.0 / n as f64;
        for w in 0..n {
            out.push(&self.path_via(s, t, w), w_prob);
        }
        out.merge_open();
    }
}

/// Deterministic greedy bit-fixing: the unique ascending-bit path. This is
/// a 1-sparse *deterministic* oblivious routing — exactly the object the
/// `Ω̃(sqrt(n))` lower bound of `[KKT91]` applies to.
#[derive(Debug)]
pub struct BitFixingRouting {
    dim: u32,
    graph: Graph,
}

impl BitFixingRouting {
    /// Creates the routing on a fresh `dim`-dimensional hypercube.
    pub fn new(dim: u32) -> Self {
        BitFixingRouting {
            dim,
            graph: generators::hypercube(dim),
        }
    }

    /// The deterministic path for `(s, t)`.
    pub fn path(&self, s: VertexId, t: VertexId) -> Path {
        Path::from_vertices(&self.graph, &bit_fix_vertices(s, t, self.dim))
            .expect("bit-fixing steps are hypercube edges")
    }
}

impl ObliviousRouting for BitFixingRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, _rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t);
        self.path(s, t)
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        out.push(&self.path(s, t), 1.0);
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
