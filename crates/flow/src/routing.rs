//! Routings: per-pair distributions over paths, plus congestion and
//! dilation (Section 4 of the paper).

use crate::demand::Demand;
use ssor_graph::{
    par_ordered_map, Distributions, EdgeLoads, Graph, Path, PathId, PathStore, VertexId,
};
use std::collections::BTreeMap;

/// A routing `R = {R(s, t)}`: for each pair in its domain, a distribution
/// over `(s, t)`-paths (Section 4). Routing a demand `d` assigns flow
/// `d(s, t) * weight(p)` to each path `p` in `R(s, t)`.
///
/// The state is one [`Distributions`].
///
/// # Examples
///
/// ```
/// use ssor_flow::{Demand, Routing};
/// use ssor_graph::{Graph, Path};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let mut r = Routing::new();
/// r.set_distribution(
///     0,
///     2,
///     vec![
///         (Path::from_vertices(&g, &[0, 1, 2]).unwrap(), 0.5),
///         (Path::from_vertices(&g, &[0, 2]).unwrap(), 0.5),
///     ],
/// );
/// let d = Demand::from_pairs(&[(0, 2)]);
/// assert_eq!(r.congestion(&g, &d), 0.5);
/// assert_eq!(r.dilation(&d), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Routing {
    dists: Distributions,
}

impl From<Distributions> for Routing {
    /// Wraps already-committed distributions (no re-normalization).
    fn from(dists: Distributions) -> Self {
        Routing { dists }
    }
}

impl Routing {
    /// The empty routing (no pairs).
    pub fn new() -> Self {
        Routing::default()
    }

    /// Sets the distribution for pair `(s, t)` from owned boundary paths,
    /// normalizing the weights with [`ssor_graph::normalize_run`].
    ///
    /// # Panics
    ///
    /// Panics if any kept path does not run from `s` to `t`, if any
    /// weight is negative or non-finite (NaN/∞), or if the weights sum
    /// to zero or to a non-finite total.
    pub fn set_distribution(&mut self, s: VertexId, t: VertexId, paths: Vec<(Path, f64)>) {
        for (path, w) in &paths {
            self.dists.push(path, *w);
        }
        self.dists.commit(s, t);
    }

    /// Routes the whole pair on a single path.
    pub fn set_single_path(&mut self, path: Path) {
        let (s, t) = (path.source(), path.target());
        self.set_distribution(s, t, vec![(path, 1.0)]);
    }

    /// The per-pair distributions.
    pub fn distributions(&self) -> &Distributions {
        &self.dists
    }

    /// The arena the distributions' path ids refer into.
    pub fn store(&self) -> &PathStore {
        self.dists.store()
    }

    /// The normalized distribution for `(s, t)`, if defined.
    pub fn distribution(&self, s: VertexId, t: VertexId) -> Option<&[(PathId, f64)]> {
        self.dists.get(s, t)
    }

    /// Whether no pair is defined.
    pub fn is_empty(&self) -> bool {
        self.dists.is_empty()
    }

    /// Whether the routing covers the support of `d`.
    pub fn covers(&self, d: &Demand) -> bool {
        d.support()
            .iter()
            .all(|&(s, t)| self.dists.get(s, t).is_some())
    }

    /// Per-edge load when routing `d` (`cong(R, d, e)` for every `e`),
    /// accumulated in the workspace's dense [`EdgeLoads`] representation.
    ///
    /// Demands with many pairs accumulate in parallel: the support is cut
    /// into *fixed-size* blocks (so the partials — and with them every
    /// floating-point rounding — are independent of the rayon thread
    /// count) and the per-block partials reduce through
    /// [`EdgeLoads::par_merge`].
    ///
    /// Pairs of `d` without a distribution contribute nothing; use
    /// [`Routing::covers`] to check coverage first.
    pub fn edge_loads(&self, g: &Graph, d: &Demand) -> EdgeLoads {
        // Fixed block size: partials must not depend on the thread count,
        // or congestion numbers would drift across machines.
        const PAR_MIN_PAIRS: usize = 256;
        const BLOCK: usize = 64;
        let support = d.support();
        if support.len() < PAR_MIN_PAIRS {
            let mut load = EdgeLoads::for_graph(g);
            self.accumulate_pairs(d, &support, &mut load);
            return load;
        }
        let blocks: Vec<&[(VertexId, VertexId)]> = support.chunks(BLOCK).collect();
        // Fan out over the workspace's ordered primitive (the serial
        // small-support path already returned above, so min_par is moot).
        let partials: Vec<EdgeLoads> = par_ordered_map(&blocks, 2, |chunk| {
            let mut load = EdgeLoads::for_graph(g);
            self.accumulate_pairs(d, chunk, &mut load);
            load
        });
        EdgeLoads::par_merge(&partials)
    }

    /// Accumulates the load of `pairs` (a slice of `d`'s support) into
    /// `load`.
    fn accumulate_pairs(&self, d: &Demand, pairs: &[(VertexId, VertexId)], load: &mut EdgeLoads) {
        for &(s, t) in pairs {
            let w = d.get(s, t);
            for &(id, p) in self.dists.get(s, t).unwrap_or_default() {
                load.add_path(self.store(), id, w * p);
            }
        }
    }

    /// `cong(R, d) = max_e cong(R, d, e)` (0 for an empty demand).
    pub fn congestion(&self, g: &Graph, d: &Demand) -> f64 {
        self.edge_loads(g, d).max()
    }

    /// `dil(R, d)`: maximum hop length over paths receiving positive weight
    /// on the support of `d` (0 for an empty demand).
    pub fn dilation(&self, d: &Demand) -> usize {
        let mut best = 0;
        for ((s, t), _) in d.iter() {
            for &(id, w) in self.dists.get(s, t).unwrap_or_default() {
                if w > 0.0 {
                    best = best.max(self.store().hop(id));
                }
            }
        }
        best
    }

    /// Checks structural validity against a graph: every path valid and
    /// simple, per-pair weights summing to 1.
    pub fn is_valid(&self, g: &Graph) -> bool {
        let store = self.store();
        self.dists.iter().all(|((s, t), dist)| {
            let total: f64 = dist.iter().map(|&(_, w)| w).sum();
            (total - 1.0).abs() < 1e-6
                && dist.iter().all(|&(id, _)| {
                    store.source(id) == s
                        && store.target(id) == t
                        && store.is_valid(id, g)
                        && store.is_simple(id)
                })
        })
    }

    /// Merges two routings on *disjoint* demands `d1`, `d2` into a routing
    /// for `d1 + d2` (Lemma 5.15, the demand-sum lemma): on a pair carried
    /// by both, the distributions are mixed proportionally to the demands.
    pub fn demand_weighted_merge(r1: &Routing, d1: &Demand, r2: &Routing, d2: &Demand) -> Routing {
        let mut out = Distributions::new();
        let d = d1.plus(d2);
        for ((s, t), total) in d.iter() {
            for (r, w) in [(r1, d1.get(s, t)), (r2, d2.get(s, t))] {
                let store = r.store();
                if w > 0.0 {
                    for &(id, p) in r.dists.get(s, t).unwrap_or_default() {
                        out.push_parts(store.vertices(id), store.edges(id), p * w / total);
                    }
                }
            }
            if !out.open().is_empty() {
                out.commit(s, t);
            }
        }
        Routing::from(out)
    }
}

/// An *integral* routing on a demand `d`: for each pair, a multiset of
/// paths, one per unit of (integer) demand. This realizes "R is integral on
/// d" from Section 4 without fractional bookkeeping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntegralRouting {
    per_pair: BTreeMap<(VertexId, VertexId), Vec<Path>>,
}

impl IntegralRouting {
    /// Empty integral routing.
    pub fn new() -> Self {
        IntegralRouting::default()
    }

    /// Assigns the list of unit-demand paths for pair `(s, t)`; the list
    /// length must equal `d(s, t)` when routing demand `d`.
    ///
    /// # Panics
    ///
    /// Panics if any path has wrong endpoints.
    pub fn set_paths(&mut self, s: VertexId, t: VertexId, paths: Vec<Path>) {
        for p in &paths {
            assert_eq!(p.source(), s);
            assert_eq!(p.target(), t);
        }
        self.per_pair.insert((s, t), paths);
    }

    /// The unit paths for `(s, t)`.
    pub fn paths(&self, s: VertexId, t: VertexId) -> Option<&[Path]> {
        self.per_pair.get(&(s, t)).map(|v| v.as_slice())
    }

    /// Pairs covered.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.per_pair.keys().copied()
    }

    /// Per-edge integer load.
    pub fn edge_loads(&self, g: &Graph) -> Vec<u64> {
        let mut load = vec![0u64; g.m()];
        for paths in self.per_pair.values() {
            for p in paths {
                for &e in p.edges() {
                    load[e as usize] += 1;
                }
            }
        }
        load
    }

    /// Maximum edge congestion.
    pub fn congestion(&self, g: &Graph) -> u64 {
        self.edge_loads(g).into_iter().max().unwrap_or(0)
    }

    /// Maximum hop length over all paths.
    pub fn dilation(&self) -> usize {
        self.per_pair
            .values()
            .flat_map(|ps| ps.iter().map(|p| p.hop()))
            .max()
            .unwrap_or(0)
    }

    /// Whether this integrally routes `d`: the path count of each pair
    /// equals its (integer) demand.
    pub fn routes(&self, d: &Demand) -> bool {
        if !d.is_integral() {
            return false;
        }
        d.iter().all(|((s, t), w)| {
            let cnt = self.paths(s, t).map_or(0, |p| p.len());
            cnt as f64 == w.round()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_graph::generators;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn congestion_of_split_routing() {
        let g = triangle();
        let mut r = Routing::new();
        r.set_distribution(
            0,
            2,
            vec![
                (Path::from_vertices(&g, &[0, 1, 2]).unwrap(), 1.0),
                (Path::from_vertices(&g, &[0, 2]).unwrap(), 3.0),
            ],
        );
        let d = Demand::from_pairs(&[(0, 2)]);
        // Weights normalize to 0.25 / 0.75.
        let loads = r.edge_loads(&g, &d);
        assert!((loads.get(0) - 0.25).abs() < 1e-12);
        assert!((loads.get(1) - 0.25).abs() < 1e-12);
        assert!((loads.get(2) - 0.75).abs() < 1e-12);
        assert!((r.congestion(&g, &d) - 0.75).abs() < 1e-12);
        assert_eq!(r.dilation(&d), 2);
        assert!(r.is_valid(&g));
    }

    #[test]
    fn congestion_scales_linearly_with_demand() {
        let g = triangle();
        let mut r = Routing::new();
        r.set_single_path(Path::from_vertices(&g, &[0, 1, 2]).unwrap());
        let d = Demand::from_pairs(&[(0, 2)]);
        let c1 = r.congestion(&g, &d);
        let c3 = r.congestion(&g, &d.scaled(3.0));
        assert!((c3 - 3.0 * c1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "path source mismatch")]
    fn set_distribution_validates_endpoints() {
        let g = triangle();
        let mut r = Routing::new();
        r.set_distribution(1, 2, vec![(Path::from_vertices(&g, &[0, 2]).unwrap(), 1.0)]);
    }

    // Regression: a negative weight used to be filtered out *after*
    // entering the normalizing total, so `[2.0, -1.0]` normalized the
    // kept path by 1.0 and produced a "distribution" of total mass 2 —
    // silently doubling every congestion number downstream. It must be
    // rejected loudly instead.
    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn set_distribution_rejects_negative_weight() {
        let g = triangle();
        let mut r = Routing::new();
        r.set_distribution(
            0,
            2,
            vec![
                (Path::from_vertices(&g, &[0, 1, 2]).unwrap(), 2.0),
                (Path::from_vertices(&g, &[0, 2]).unwrap(), -1.0),
            ],
        );
    }

    // Regression: a NaN weight used to surface (if at all) as the
    // misleading "weights must not all be zero"; now it is named.
    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn set_distribution_rejects_nan_weight() {
        let g = triangle();
        let mut r = Routing::new();
        r.set_distribution(
            0,
            2,
            vec![
                (Path::from_vertices(&g, &[0, 1, 2]).unwrap(), 1.0),
                (Path::from_vertices(&g, &[0, 2]).unwrap(), f64::NAN),
            ],
        );
    }

    // Regression: an infinite weight used to normalize every path to
    // 0/NaN silently.
    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn set_distribution_rejects_infinite_weight() {
        let g = triangle();
        let mut r = Routing::new();
        r.set_distribution(
            0,
            2,
            vec![(Path::from_vertices(&g, &[0, 2]).unwrap(), f64::INFINITY)],
        );
    }

    #[test]
    fn merge_matches_demand_sum_lemma() {
        // Lemma 5.15: cong(R, d1 + d2) <= cong(R1, d1) + cong(R2, d2).
        let g = generators::ring(6);
        let mut r1 = Routing::new();
        r1.set_single_path(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        let mut r2 = Routing::new();
        r2.set_single_path(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let d1 = Demand::from_pairs(&[(0, 3)]);
        let d2 = Demand::from_pairs(&[(0, 3)]).scaled(2.0);
        let merged = Routing::demand_weighted_merge(&r1, &d1, &r2, &d2);
        let d = d1.plus(&d2);
        let c = merged.congestion(&g, &d);
        let bound = r1.congestion(&g, &d1) + r2.congestion(&g, &d2);
        assert!(c <= bound + 1e-9, "c = {c}, bound = {bound}");
        assert!(merged.is_valid(&g));
    }

    #[test]
    fn covers_checks_support() {
        let g = triangle();
        let mut r = Routing::new();
        r.set_single_path(Path::from_vertices(&g, &[0, 2]).unwrap());
        assert!(r.covers(&Demand::from_pairs(&[(0, 2)])));
        assert!(!r.covers(&Demand::from_pairs(&[(1, 2)])));
    }

    #[test]
    fn integral_routing_roundtrip() {
        let g = triangle();
        let mut ir = IntegralRouting::new();
        ir.set_paths(
            0,
            2,
            vec![
                Path::from_vertices(&g, &[0, 2]).unwrap(),
                Path::from_vertices(&g, &[0, 1, 2]).unwrap(),
            ],
        );
        let d = Demand::new().plus(&Demand::from_pairs(&[(0, 2)]).scaled(2.0));
        assert!(ir.routes(&d));
        assert_eq!(ir.congestion(&g), 1);
        assert_eq!(ir.dilation(), 2);
    }

    #[test]
    fn empty_routing_properties() {
        let g = triangle();
        let r = Routing::new();
        assert!(r.is_empty());
        assert_eq!(r.congestion(&g, &Demand::new()), 0.0);
        assert_eq!(r.dilation(&Demand::new()), 0);
        let ir = IntegralRouting::new();
        assert_eq!(ir.congestion(&g), 0);
    }
}
