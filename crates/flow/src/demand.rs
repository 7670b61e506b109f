//! Demand matrices (Definition 2.2 of the paper).
//!
//! A demand is a map `d : V x V -> R_{>=0}` with `d(v, v) = 0`. We keep the
//! support in a sorted map so that iteration — and therefore every
//! downstream randomized algorithm seeded from a fixed RNG — is
//! deterministic.

use rand::seq::SliceRandom;
use rand::Rng;
use ssor_graph::VertexId;
use std::collections::BTreeMap;

/// A demand matrix: nonnegative weight per ordered vertex pair.
///
/// Demands are *directed* pairs `(s, t)` as in the paper (packets have a
/// source and a destination), although routing happens on undirected paths.
///
/// # Examples
///
/// ```
/// use ssor_flow::Demand;
///
/// let mut d = Demand::new();
/// d.set(0, 3, 2.0);
/// d.add(0, 3, 1.0);
/// assert_eq!(d.get(0, 3), 3.0);
/// assert_eq!(d.size(), 3.0); // siz(d) = sum of entries
/// assert!(d.is_integral());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Demand {
    entries: BTreeMap<(VertexId, VertexId), f64>,
}

impl Demand {
    /// The empty demand.
    pub fn new() -> Self {
        Demand::default()
    }

    /// Demand with `d(s, t) = 1` for each listed pair (duplicates
    /// accumulate).
    ///
    /// # Panics
    ///
    /// Panics if any pair has `s == t`.
    pub fn from_pairs(pairs: &[(VertexId, VertexId)]) -> Self {
        let mut d = Demand::new();
        for &(s, t) in pairs {
            d.add(s, t, 1.0);
        }
        d
    }

    /// Sets `d(s, t) = w`. Setting `w = 0` removes the entry.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` with `w > 0`, or if `w` is negative/NaN.
    pub fn set(&mut self, s: VertexId, t: VertexId, w: f64) {
        assert!(
            w >= 0.0 && w.is_finite(),
            "demand must be finite and nonnegative"
        );
        if w == 0.0 {
            self.entries.remove(&(s, t));
        } else {
            assert!(s != t, "d(v, v) must be 0 (Definition 2.2)");
            self.entries.insert((s, t), w);
        }
    }

    /// Adds `w` to `d(s, t)`.
    pub fn add(&mut self, s: VertexId, t: VertexId, w: f64) {
        let cur = self.get(s, t);
        self.set(s, t, cur + w);
    }

    /// Current value of `d(s, t)` (0 outside the support).
    pub fn get(&self, s: VertexId, t: VertexId) -> f64 {
        self.entries.get(&(s, t)).copied().unwrap_or(0.0)
    }

    /// `siz(d) = sum_{s != t} d(s, t)`.
    pub fn size(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Number of pairs in the support.
    pub fn support_len(&self) -> usize {
        self.entries.len()
    }

    /// Iterator over `((s, t), d(s, t))` in sorted pair order.
    pub fn iter(&self) -> impl Iterator<Item = ((VertexId, VertexId), f64)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }

    /// The support as a sorted list of pairs.
    pub fn support(&self) -> Vec<(VertexId, VertexId)> {
        self.entries.keys().copied().collect()
    }

    /// Whether every entry is (numerically) a nonnegative integer.
    pub fn is_integral(&self) -> bool {
        self.entries.values().all(|&v| (v - v.round()).abs() < 1e-9)
    }

    /// Whether every entry is exactly 1 (a `{0, 1}`-demand).
    fn is_zero_one(&self) -> bool {
        self.entries.values().all(|&v| (v - 1.0).abs() < 1e-9)
    }

    /// Whether this is a permutation demand: a `{0, 1}`-demand where every
    /// vertex appears at most once as a source and at most once as a target.
    pub fn is_permutation(&self) -> bool {
        if !self.is_zero_one() {
            return false;
        }
        let mut sources = std::collections::HashSet::new();
        let mut targets = std::collections::HashSet::new();
        self.entries
            .keys()
            .all(|&(s, t)| sources.insert(s) && targets.insert(t))
    }

    /// Whether the demand is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `c * d` (scaling every entry).
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or non-finite.
    pub fn scaled(&self, c: f64) -> Demand {
        assert!(c >= 0.0 && c.is_finite());
        let mut out = Demand::new();
        for (&k, &v) in &self.entries {
            if c * v > 0.0 {
                out.entries.insert(k, c * v);
            }
        }
        out
    }

    /// Pointwise sum of two demands (Lemma 5.15's `d = d1 + d2`).
    pub fn plus(&self, other: &Demand) -> Demand {
        let mut out = self.clone();
        for (&(s, t), &v) in &other.entries {
            out.add(s, t, v);
        }
        out
    }

    /// Pointwise difference `self - other`, clamped at zero.
    pub fn minus_clamped(&self, other: &Demand) -> Demand {
        let mut out = Demand::new();
        for (&(s, t), &v) in &self.entries {
            let w = (v - other.get(s, t)).max(0.0);
            if w > 1e-12 {
                out.set(s, t, w);
            }
        }
        out
    }

    /// The restriction of the demand to pairs satisfying `keep`.
    pub fn filtered(&self, mut keep: impl FnMut(VertexId, VertexId, f64) -> bool) -> Demand {
        let mut out = Demand::new();
        for (&(s, t), &v) in &self.entries {
            if keep(s, t, v) {
                out.entries.insert((s, t), v);
            }
        }
        out
    }

    /// A uniformly random permutation demand on vertices `0..n` with no
    /// fixed points (a random derangement-ish matching: fixed points are
    /// simply dropped, so the size may be slightly below `n`).
    pub fn random_permutation<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Demand {
        let mut targets: Vec<VertexId> = (0..n as VertexId).collect();
        targets.shuffle(rng);
        let mut d = Demand::new();
        for (s, &t) in targets.iter().enumerate() {
            if s as VertexId != t {
                d.set(s as VertexId, t, 1.0);
            }
        }
        d
    }

    /// A `{0, 1}`-demand on `pairs` random distinct pairs from `0..n`.
    pub fn random_pairs<R: Rng + ?Sized>(n: usize, pairs: usize, rng: &mut R) -> Demand {
        let mut d = Demand::new();
        let mut guard = 0;
        while d.support_len() < pairs && guard < 100 * pairs + 100 {
            let s = rng.gen_range(0..n) as VertexId;
            let t = rng.gen_range(0..n) as VertexId;
            if s != t {
                d.set(s, t, 1.0);
            }
            guard += 1;
        }
        d
    }

    /// The bit-complement permutation on the `d`-dimensional hypercube:
    /// every vertex sends to its bitwise complement. A classic hard
    /// instance for deterministic oblivious routing `[KKT91]`.
    pub fn hypercube_complement(dim: u32) -> Demand {
        let n = 1u32 << dim;
        let mask = n - 1;
        Demand::from_pairs(
            &(0..n)
                .filter(|&v| v != (v ^ mask))
                .map(|v| (v, v ^ mask))
                .collect::<Vec<_>>(),
        )
    }

    /// The bit-reversal permutation on the `d`-dimensional hypercube:
    /// vertex `b_{d-1}..b_0` sends to `b_0..b_{d-1}`. The canonical
    /// `Ω(sqrt(n))` adversary for single-path greedy bit-fixing routing.
    pub fn hypercube_bit_reversal(dim: u32) -> Demand {
        let n = 1u32 << dim;
        let rev = |v: u32| {
            let mut r = 0u32;
            for b in 0..dim {
                if v & (1 << b) != 0 {
                    r |= 1 << (dim - 1 - b);
                }
            }
            r
        };
        Demand::from_pairs(
            &(0..n)
                .filter(|&v| v != rev(v))
                .map(|v| (v, rev(v)))
                .collect::<Vec<_>>(),
        )
    }

    /// The transpose permutation on the hypercube (requires even `dim`):
    /// the high half of bits and the low half swap. Another classic hard
    /// instance for deterministic bit-fixing.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is odd.
    pub fn hypercube_transpose(dim: u32) -> Demand {
        assert!(
            dim.is_multiple_of(2),
            "transpose permutation needs even dimension"
        );
        let half = dim / 2;
        let n = 1u32 << dim;
        let tr = |v: u32| {
            let lo = v & ((1 << half) - 1);
            let hi = v >> half;
            (lo << half) | hi
        };
        Demand::from_pairs(
            &(0..n)
                .filter(|&v| v != tr(v))
                .map(|v| (v, tr(v)))
                .collect::<Vec<_>>(),
        )
    }
}

impl FromIterator<((VertexId, VertexId), f64)> for Demand {
    fn from_iter<I: IntoIterator<Item = ((VertexId, VertexId), f64)>>(iter: I) -> Self {
        let mut d = Demand::new();
        for ((s, t), w) in iter {
            d.add(s, t, w);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn set_get_add() {
        let mut d = Demand::new();
        d.set(1, 2, 0.5);
        d.add(1, 2, 0.25);
        assert!((d.get(1, 2) - 0.75).abs() < 1e-12);
        assert_eq!(d.get(2, 1), 0.0);
        d.set(1, 2, 0.0);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "Definition 2.2")]
    fn rejects_diagonal() {
        Demand::new().set(3, 3, 1.0);
    }

    #[test]
    fn size_and_support() {
        let d = Demand::from_pairs(&[(0, 1), (2, 3), (0, 1)]);
        assert_eq!(d.size(), 3.0);
        assert_eq!(d.support(), vec![(0, 1), (2, 3)]);
        assert!(d.is_integral());
        assert!(!d.is_zero_one()); // (0,1) has weight 2
    }

    #[test]
    fn permutation_detection() {
        let d = Demand::from_pairs(&[(0, 1), (1, 2), (2, 0)]);
        assert!(d.is_permutation());
        let d2 = Demand::from_pairs(&[(0, 1), (0, 2)]);
        assert!(!d2.is_permutation(), "source 0 repeats");
        let d3 = Demand::from_pairs(&[(0, 1), (2, 1)]);
        assert!(!d3.is_permutation(), "target 1 repeats");
    }

    #[test]
    fn arithmetic() {
        let a = Demand::from_pairs(&[(0, 1)]);
        let b = Demand::from_pairs(&[(0, 1), (1, 2)]);
        let sum = a.plus(&b);
        assert_eq!(sum.get(0, 1), 2.0);
        assert_eq!(sum.get(1, 2), 1.0);
        let diff = b.minus_clamped(&a);
        assert_eq!(diff.get(0, 1), 0.0);
        assert_eq!(diff.get(1, 2), 1.0);
        let sc = b.scaled(2.5);
        assert_eq!(sc.get(1, 2), 2.5);
    }

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let d = Demand::random_permutation(20, &mut rng);
            assert!(d.is_permutation());
            assert!(d.size() <= 20.0);
        }
    }

    #[test]
    fn hypercube_permutations() {
        let c = Demand::hypercube_complement(3);
        assert!(c.is_permutation());
        assert_eq!(c.size(), 8.0);

        let r = Demand::hypercube_bit_reversal(4);
        assert!(r.is_permutation());
        // Palindromic labels are fixed points: for dim 4 there are 4.
        assert_eq!(r.size(), 12.0);

        let t = Demand::hypercube_transpose(4);
        assert!(t.is_permutation());
        assert_eq!(t.get(0b0001, 0b0100), 1.0);
    }

    #[test]
    fn filtered_keeps_predicate() {
        let d = Demand::from_pairs(&[(0, 1), (5, 2), (3, 4)]);
        let f = d.filtered(|s, _, _| s < 4);
        assert_eq!(f.support(), vec![(0, 1), (3, 4)]);
    }

    #[test]
    fn from_iterator_accumulates() {
        let d: Demand = vec![((0u32, 1u32), 1.0), ((0, 1), 2.0)]
            .into_iter()
            .collect();
        assert_eq!(d.get(0, 1), 3.0);
    }
}
