//! Special demands and the reduction pipeline of Section 5.4.
//!
//! * [`is_special`] — Definition 5.5:
//!   `d(s, t) ∈ {0, α + cut_G(s, t)}`;
//! * [`bucket_decompose`] — the Lemma 5.9 bucketing that reduces arbitrary
//!   demands to special ones at a `O(log m)` factor;
//! * [`weak_to_strong`] — the Lemma 5.8 loop that turns a weakly-
//!   competitive router (routes half the demand) into a fully competitive
//!   one at a `O(log m)` factor.

use crate::weak::{weak_route, SampleMultiset, WeakRouteResult};
use ssor_flow::{Demand, Routing};
use ssor_graph::maxflow::min_cut_value;
use ssor_graph::{Distributions, Graph, PathSystem, VertexId};
use std::collections::HashMap;

/// Memoizing wrapper around Dinic for `cnt_G(s, t) = α + cut_G(s, t)`.
#[derive(Debug)]
pub struct CutCache<'a> {
    graph: &'a Graph,
    cache: HashMap<(VertexId, VertexId), u64>,
}

impl<'a> CutCache<'a> {
    /// Creates an empty cache for `graph`.
    pub fn new(graph: &'a Graph) -> Self {
        CutCache {
            graph,
            cache: HashMap::new(),
        }
    }

    /// `cut_G(s, t)`, memoized per unordered pair.
    pub fn cut(&mut self, s: VertexId, t: VertexId) -> u64 {
        if s == t {
            return 0;
        }
        let key = (s.min(t), s.max(t));
        *self
            .cache
            .entry(key)
            .or_insert_with(|| min_cut_value(self.graph, s, t))
    }

    /// `cnt_G(s, t) = alpha + cut_G(s, t)` (Section 5.3 notation).
    pub fn cnt(&mut self, alpha: usize, s: VertexId, t: VertexId) -> u64 {
        alpha as u64 + self.cut(s, t)
    }
}

/// Whether `d` is `α`-special (Definition 5.5): every entry is 0 or
/// exactly `α + cut_G(s, t)`.
pub fn is_special(g: &Graph, d: &Demand, alpha: usize) -> bool {
    let mut cuts = CutCache::new(g);
    d.iter()
        .all(|((s, t), w)| (w - cuts.cnt(alpha, s, t) as f64).abs() < 1e-9)
}

/// One bucket of the Lemma 5.9 decomposition.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// The sub-demand `d_i` (actual demand mass in this ratio range).
    pub part: Demand,
    /// The dominating special demand `d'_i` on the same support.
    pub special: Demand,
    /// The scale `2^{i-l}` with `2^{i-l-1} d'_i <= d_i < 2^{i-l} d'_i`.
    pub scale: f64,
}

/// Splits `d` into `O(log(n^2 m))` buckets by the ratio
/// `d(s, t) / cnt_G(s, t)` (powers of two), each dominated by a scaled
/// special demand — the constructive content of Lemma 5.9.
///
/// The parts sum back to `d` exactly, and for every bucket
/// `part <= scale * special` pointwise with `part > (scale / 2) * special`.
pub fn bucket_decompose(g: &Graph, d: &Demand, alpha: usize) -> Vec<Bucket> {
    let mut cuts = CutCache::new(g);
    // Group support pairs by floor(log2(ratio)).
    let mut groups: HashMap<i32, Vec<(VertexId, VertexId)>> = HashMap::new();
    for ((s, t), w) in d.iter() {
        let cnt = cuts.cnt(alpha, s, t) as f64;
        let ratio = w / cnt;
        let bucket = ratio.log2().floor() as i32;
        groups.entry(bucket).or_default().push((s, t));
    }
    let mut keys: Vec<i32> = groups.keys().copied().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|b| {
            let pairs = &groups[&b];
            let mut part = Demand::new();
            let mut special = Demand::new();
            for &(s, t) in pairs {
                part.set(s, t, d.get(s, t));
                special.set(s, t, cuts.cnt(alpha, s, t) as f64);
            }
            // ratio in [2^b, 2^{b+1}) => part <= 2^{b+1} * special.
            Bucket {
                part,
                special,
                scale: 2f64.powi(b + 1),
            }
        })
        .collect()
}

/// A weak router: given a demand, returns a routing of *at least half* of
/// it (Definition 5.4). The closure form lets tests plug in either the
/// real sampling process or synthetic ones.
pub type WeakRouter<'a> = dyn FnMut(&Demand) -> WeakRouteResult + 'a;

/// Outcome of the Lemma 5.8 weak-to-strong loop.
#[derive(Debug, Clone)]
pub struct StrongRouteResult {
    /// Combined routing for (almost) all of the demand.
    pub routing: Routing,
    /// Demand actually covered by `routing` (equal to the input except for
    /// an `O(siz(d)/m)` remainder routed arbitrarily).
    pub covered: Demand,
    /// Rounds of weak routing used.
    pub rounds: usize,
    /// Final congestion of the combined routing on `covered`.
    pub congestion: f64,
}

/// Lemma 5.8, constructively: repeatedly weak-route the remaining demand,
/// keep the pairs that got at least a quarter of their demand through
/// (rescaled to carry them fully), and recurse on the rest; after
/// `O(log m)` rounds the leftovers are negligible and are routed on
/// arbitrary candidate paths.
///
/// # Panics
///
/// Panics if `paths` misses a support pair of `d` (needed for the
/// final arbitrary-path step).
pub fn weak_to_strong(
    g: &Graph,
    d: &Demand,
    paths: &PathSystem,
    weak: &mut WeakRouter<'_>,
) -> StrongRouteResult {
    let m = g.m() as f64;
    let target = d.size() / m;
    let max_rounds = (2.0 * m.ln().max(1.0)).ceil() as usize + 2;

    let mut remaining = d.clone();
    let mut covered = Demand::new();
    let mut combined: Option<Routing> = None;
    let mut rounds = 0;

    while remaining.size() > target && rounds < max_rounds && !remaining.is_empty() {
        rounds += 1;
        let out = weak(&remaining);
        // d'': pairs where at least a quarter of the remaining demand was
        // routed, taken in full.
        let quarter = remaining.filtered(|s, t, w| out.routed.get(s, t) >= w / 4.0);
        if quarter.is_empty() {
            break; // weak router made no usable progress
        }
        // Route d'' by reusing R' (scaling weights per pair is free since
        // Routing stores distributions; congestion scales by <= 4).
        let piece_routing = out.routing;
        let new_covered = covered.plus(&quarter);
        combined = Some(match combined {
            None => piece_routing,
            Some(prev) => Routing::demand_weighted_merge(&prev, &covered, &piece_routing, &quarter),
        });
        covered = new_covered;
        remaining = remaining.minus_clamped(&quarter);
    }

    // Route the remainder on arbitrary candidate paths (Lemma 5.16 keeps
    // this term below siz(d)/m <= cong(R, d) when the loop ran to target).
    if !remaining.is_empty() {
        let mut arb = Distributions::new();
        let store = paths.store();
        for ((s, t), _) in remaining.iter() {
            let &cand = paths
                .path_ids(s, t)
                .and_then(|ids| ids.first())
                .unwrap_or_else(|| panic!("no candidate paths for ({s}, {t})"));
            arb.push_parts(store.vertices(cand), store.edges(cand), 1.0);
            arb.commit(s, t);
        }
        let arb = Routing::from(arb);
        let new_covered = covered.plus(&remaining);
        combined = Some(match combined {
            None => arb,
            Some(prev) => Routing::demand_weighted_merge(&prev, &covered, &arb, &remaining),
        });
        covered = new_covered;
    }

    let routing = combined.unwrap_or_default();
    let congestion = routing.congestion(g, &covered);
    StrongRouteResult {
        routing,
        covered,
        rounds,
        congestion,
    }
}

/// Convenience: a weak router backed by the Section 5.3 process over a
/// fixed sample multiset and allowance `gamma`.
pub fn process_weak_router<'a>(
    g: &'a Graph,
    samples: &'a SampleMultiset,
    gamma: f64,
) -> impl FnMut(&Demand) -> WeakRouteResult + 'a {
    move |d: &Demand| weak_route(g, samples, d, gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weak::sample_multiset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::generators;
    use ssor_oblivious::{ObliviousRouting, ValiantRouting};

    #[test]
    fn special_demand_roundtrip() {
        let g = generators::hypercube(3);
        // The unique 2-special demand on the support {(0, 7), (1, 6)}.
        let mut cuts = CutCache::new(&g);
        let mut d = Demand::new();
        for (s, t) in [(0u32, 7u32), (1, 6)] {
            d.set(s, t, cuts.cnt(2, s, t) as f64);
        }
        assert!(is_special(&g, &d, 2));
        // Hypercube cut = 3, so entries are 2 + 3 = 5.
        assert_eq!(d.get(0, 7), 5.0);
        assert!(!is_special(&g, &d, 1));
    }

    #[test]
    fn buckets_partition_the_demand() {
        let g = generators::hypercube(3);
        let mut d = Demand::new();
        d.set(0, 7, 1.0);
        d.set(1, 6, 10.0);
        d.set(2, 5, 100.0);
        let buckets = bucket_decompose(&g, &d, 2);
        assert!(
            buckets.len() >= 2,
            "widely-spread ratios need multiple buckets"
        );
        let mut sum = Demand::new();
        for b in &buckets {
            sum = sum.plus(&b.part);
            assert!(is_special(&g, &b.special, 2));
            // part <= scale * special pointwise, and > scale/2 * special.
            for ((s, t), w) in b.part.iter() {
                let cap = b.scale * b.special.get(s, t);
                assert!(w <= cap + 1e-9, "part {w} exceeds scale*special {cap}");
                assert!(w > cap / 2.0 - 1e-9, "bucket too coarse");
            }
        }
        for ((s, t), w) in d.iter() {
            assert!((sum.get(s, t) - w).abs() < 1e-9);
        }
    }

    #[test]
    fn weak_to_strong_covers_everything() {
        let dim = 4;
        let r = ValiantRouting::new(dim);
        let d = Demand::hypercube_complement(dim);
        let pairs = d.support();
        let mut rng = StdRng::seed_from_u64(11);
        let samples = sample_multiset(&r, &pairs, |_, _| 6, &mut rng);
        // Build the PathSystem view for the arbitrary-path fallback.
        let mut ps = PathSystem::new();
        for paths in samples.values() {
            for p in paths {
                ps.insert(p.clone());
            }
        }
        let gamma = 10.0;
        let mut weak = process_weak_router(r.graph(), &samples, gamma);
        let out = weak_to_strong(r.graph(), &d, &ps, &mut weak);
        // Everything covered.
        for ((s, t), w) in d.iter() {
            assert!((out.covered.get(s, t) - w).abs() < 1e-6, "pair ({s},{t})");
        }
        // Congestion within the Lemma 5.8 budget: O(gamma log m) plus the
        // remainder term.
        let bound =
            4.0 * gamma * (r.graph().m() as f64).ln() + d.size() / r.graph().m() as f64 + gamma;
        assert!(
            out.congestion <= bound,
            "cong {} vs bound {bound}",
            out.congestion
        );
        assert!(out.rounds >= 1);
    }

    #[test]
    fn cut_cache_memoizes_and_matches_dinic() {
        let g = generators::two_cliques_bridge(4, 2);
        let mut cc = CutCache::new(&g);
        let direct = min_cut_value(&g, 3, 7);
        assert_eq!(cc.cut(3, 7), direct);
        assert_eq!(cc.cut(7, 3), direct, "unordered memoization");
        assert_eq!(cc.cnt(5, 3, 7), 5 + direct);
        assert_eq!(cc.cut(2, 2), 0);
    }
}
