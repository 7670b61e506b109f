//! Räcke-style oblivious routing: a multiplicative-weights-built mixture of
//! FRT tree routings `[Räc08]`.
//!
//! Räcke's `O(log n)`-competitive construction finds a distribution over
//! decomposition trees minimizing the maximum *relative load* any edge
//! suffers when the whole graph ("each edge routes its own capacity") is
//! routed through a tree. His reduction is exactly a multiplicative-weights
//! game whose oracle is a low-distortion tree embedding; we instantiate the
//! oracle with FRT trees over the adaptively re-weighted length metric.
//! This is also precisely the construction SMORE `[KYY+18]` samples from in
//! production traffic engineering.
//!
//! The multiplicative-weights *iterations* are inherently sequential (each
//! metric depends on the previous loads), but everything inside one
//! iteration is rayon-parallel with thread-count-invariant output: the
//! all-pairs metric fans its Dijkstra trees over workers
//! ([`Metric::build`]), and the canonical-load accumulation walks its `m`
//! tree paths in fixed edge blocks merged through
//! [`EdgeLoads::par_merge`]. Where the build time went is recorded as a
//! [`StageProfile`] with `"metric"`, `"tree"` and `"load"` stages (see
//! [`ObliviousRouting::build_profile`]); the FRT ensemble has no load
//! stage.

use crate::frt::{sample_trees_for_metric, FrtTree, Metric, TreeRouting};
use crate::traits::ObliviousRouting;
use rand::{Rng, RngCore};
use ssor_graph::obs::{StageProfile, Stopwatch};
use ssor_graph::{
    par_ordered_map, push_new, Distributions, EdgeLoads, Graph, Path, PathId, PathStore, VertexId,
};
use std::cell::RefCell;
use std::sync::Arc;

/// Options for [`RaeckeRouting::build`].
#[derive(Debug, Clone)]
pub struct RaeckeOptions {
    /// Number of trees in the mixture.
    pub iterations: usize,
    /// Multiplicative-weights learning rate.
    pub epsilon: f64,
}

impl Default for RaeckeOptions {
    fn default() -> Self {
        RaeckeOptions {
            iterations: 12,
            epsilon: 0.5,
        }
    }
}

/// Canonical demands are walked in fixed blocks of this many edges; the
/// block structure is part of the deterministic contract (every partial
/// is a sum of unit loads, so the merged result equals the serial sweep
/// bit for bit at any thread count).
const LOAD_BLOCK_EDGES: usize = 64;

/// Cap on the multiplicative penalty exponent. Out-of-range learning
/// rates (or a NaN load ratio) would otherwise push `exp` to infinity in
/// a single step; `0.5 * ld / rho <= 0.5` in any sane configuration, so
/// the clamp is bit-invisible there.
const MAX_PENALTY_EXPONENT: f64 = 600.0;

/// Cap on the max/min length ratio after renormalization (`2^40`).
/// Repeated `exp` scaling grows the ratio by up to `e^epsilon` per
/// iteration, which overflows to infinity (and then `inf/inf = NaN` once
/// every edge is loaded) on long runs; relative lengths beyond this cap
/// cannot meaningfully change a shortest path, so they saturate instead.
/// Normal runs stay far below it and are bitwise unaffected.
const MAX_LENGTH_RATIO: f64 = 1.099511627776e12;

/// A mixture of FRT tree routings built by multiplicative weights.
///
/// # Examples
///
/// ```
/// use ssor_oblivious::{ObliviousRouting, RaeckeRouting};
/// use rand::SeedableRng;
///
/// let g = ssor_graph::generators::grid(3, 3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let r = RaeckeRouting::build(&g, &Default::default(), &mut rng);
/// let mut rng2 = rand::rngs::StdRng::seed_from_u64(2);
/// let p = r.sample_path(0, 8, &mut rng2);
/// assert_eq!((p.source(), p.target()), (0, 8));
/// ```
#[derive(Debug)]
pub struct RaeckeRouting {
    graph: Graph,
    trees: Vec<TreeRouting>,
    /// Mixture weights, summing to 1.
    weights: Vec<f64>,
    /// Max relative load per iteration (diagnostic; Räcke's objective).
    relative_loads: Vec<f64>,
    /// Where the construction spent its wall-clock.
    profile: StageProfile,
}

thread_local! {
    /// The distinct tree indices of one pair's draws, in first-draw
    /// order: [`RaeckeRouting::sample_into`]'s per-thread scratch, so a
    /// pair costs no allocation.
    static PICKS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The canonical "every edge ships one unit between its endpoints" load
/// of one tree routing: `canonical` lists the endpoint pairs (with
/// multiplicity for parallel edges), walked in fixed
/// [`LOAD_BLOCK_EDGES`]-sized blocks fanned over rayon workers and merged
/// in block order. All contributions are exact unit sums, so the result
/// is bit-identical to the serial edge-order sweep at any thread count.
fn canonical_loads(g: &Graph, tr: &TreeRouting, canonical: &[(VertexId, VertexId)]) -> EdgeLoads {
    let m = g.m();
    let block_load = |chunk: &[(VertexId, VertexId)]| {
        let mut load = EdgeLoads::zeros(m);
        for &(u, v) in chunk {
            tr.with_walk(g, u, v, |walk| load.add_edges(walk.edges(), 1.0));
        }
        load
    };
    let blocks: Vec<&[(VertexId, VertexId)]> = canonical.chunks(LOAD_BLOCK_EDGES).collect();
    // One worker (or one block): a single accumulation pass, no partials
    // to materialize. Unit sums are exact, so both paths agree bit for
    // bit.
    if blocks.len() == 1 || rayon::current_num_threads() == 1 {
        return block_load(canonical);
    }
    let partials = par_ordered_map(&blocks, 2, |chunk| block_load(chunk));
    EdgeLoads::par_merge(&partials)
}

impl RaeckeRouting {
    /// Builds the mixture on `g`.
    ///
    /// Each iteration: (1) build the length metric from the current edge
    /// weights, (2) sample an FRT tree for it, (3) route the canonical
    /// "every edge ships one unit between its endpoints" demand through the
    /// tree and record each edge's load, (4) multiplicatively penalize
    /// loaded edges so the next tree avoids them.
    ///
    /// Steps (1) and (3) run rayon-parallel with thread-count-invariant
    /// output; step (2) deliberately stays on the caller's threaded RNG
    /// (the crate-private serial path, `FrtTree::sample`) because the
    /// iterations are sequential anyway, and the mixture's byte-stable
    /// output stream is pinned to it.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected or has no edges.
    pub fn build<R: Rng + ?Sized>(g: &Graph, opts: &RaeckeOptions, rng: &mut R) -> Self {
        assert!(g.m() > 0, "graph must have edges");
        assert!(g.is_connected(), "Raecke routing needs a connected graph");
        assert!(opts.iterations > 0);
        let clock = Stopwatch::start();
        let m = g.m();
        let canonical: Vec<(VertexId, VertexId)> = g.edges().map(|(_, uv)| uv).collect();
        let mut lengths = vec![1.0f64; m];
        let mut trees = Vec::with_capacity(opts.iterations);
        let mut relative_loads = Vec::with_capacity(opts.iterations);
        let mut profile = StageProfile::default();

        for _ in 0..opts.iterations {
            let lens = lengths.clone();
            let metric = profile.time("metric", || {
                Arc::new(Metric::build(g, &move |e| lens[e as usize]))
            });
            let tr = profile.time("tree", || {
                let tree = Arc::new(FrtTree::sample(&metric, g.n(), rng));
                TreeRouting::new(Arc::clone(&metric), tree)
            });
            let load = profile.time("load", || canonical_loads(g, &tr, &canonical));
            let rho = load.max().max(1.0);
            relative_loads.push(rho);

            // Multiplicative penalty, then renormalize to keep lengths
            // bounded. The exponent and ratio clamps only bite in
            // degenerate regimes (huge learning rates, very long runs)
            // where the unclamped update overflows to inf/NaN.
            for (l, ld) in lengths.iter_mut().zip(load.iter()) {
                *l *= (opts.epsilon * ld / rho).min(MAX_PENALTY_EXPONENT).exp();
            }
            let min_len = lengths.iter().cloned().fold(f64::INFINITY, f64::min);
            for l in lengths.iter_mut() {
                *l = (*l / min_len).min(MAX_LENGTH_RATIO);
            }

            trees.push(tr);
        }
        profile.add_total(clock.elapsed());
        let w = 1.0 / trees.len() as f64;
        RaeckeRouting {
            graph: g.clone(),
            weights: vec![w; trees.len()],
            relative_loads,
            trees,
            profile,
        }
    }

    /// A uniform mixture over explicitly-provided tree routings (no
    /// multiplicative-weights adaptation) — the carrier for the plain
    /// "FRT ensemble" template built by [`RaeckeRouting::frt_ensemble`].
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty.
    fn uniform_mixture(g: &Graph, trees: Vec<TreeRouting>, profile: StageProfile) -> Self {
        assert!(!trees.is_empty(), "a mixture needs at least one tree");
        let w = 1.0 / trees.len() as f64;
        RaeckeRouting {
            graph: g.clone(),
            weights: vec![w; trees.len()],
            relative_loads: Vec::new(),
            trees,
            profile,
        }
    }

    /// The plain FRT-ensemble template: `count` hop-metric trees, each
    /// sampled from its own derived seed stream
    /// ([`crate::frt::tree_seed`]), mixed uniformly.
    ///
    /// Unlike [`RaeckeRouting::build`], every tree here is independent of
    /// the others, so the whole ensemble fans out over rayon workers —
    /// the construction is a pure, thread-count-invariant function of
    /// `(g, count, seed)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_oblivious::{ObliviousRouting, RaeckeRouting};
    ///
    /// let g = ssor_graph::generators::grid(3, 3);
    /// let r = RaeckeRouting::frt_ensemble(&g, 8, 42);
    /// assert_eq!(r.trees().len(), 8);
    /// let dist = r.path_distribution(0, 8);
    /// let total: f64 = dist.iter().map(|(_, w)| w).sum();
    /// assert!((total - 1.0).abs() < 1e-9);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `g` has no edges, or `g` is disconnected.
    pub fn frt_ensemble(g: &Graph, count: usize, seed: u64) -> Self {
        assert!(count > 0, "ensemble needs at least one tree");
        assert!(g.m() > 0, "graph must have edges");
        assert!(g.is_connected(), "FRT ensemble needs a connected graph");
        let clock = Stopwatch::start();
        let mut profile = StageProfile::default();
        let metric = profile.time("metric", || Arc::new(Metric::hops(g)));
        let trees = profile.time("tree", || sample_trees_for_metric(g, &metric, count, seed));
        profile.add_total(clock.elapsed());
        RaeckeRouting::uniform_mixture(g, trees, profile)
    }

    /// The trees in the mixture.
    pub fn trees(&self) -> &[TreeRouting] {
        &self.trees
    }

    /// Max relative load observed at each iteration (diagnostic; empty
    /// for mixtures not built by multiplicative weights).
    pub fn relative_loads(&self) -> &[f64] {
        &self.relative_loads
    }

    /// The sum of the mixture weights: the scale of every tree draw.
    fn weight_total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Draws one tree index with one deviate over the renormalized CDF:
    /// the uniform draw is scaled by the actual weight sum `total`, so
    /// floating-point shortfall (weights summing to slightly under 1)
    /// cannot silently shift residual mass onto the last tree — tree `i`
    /// is drawn with probability `w_i / total`, matching
    /// `path_distribution` exactly. The last index is a safe landing for
    /// an all-zero-weight mixture; for positive weights the subtractions
    /// telescope to `(u - 1) * total <= 0` before it.
    fn pick_tree(&self, total: f64, rng: &mut dyn RngCore) -> usize {
        let mut x = rng.gen::<f64>() * total;
        let last = self.weights.len().saturating_sub(1);
        self.weights
            .iter()
            .position(|&w| {
                x -= w;
                x <= 0.0
            })
            .unwrap_or(last)
    }
}

impl ObliviousRouting for RaeckeRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t);
        let i = self.pick_tree(self.weight_total(), rng);
        let tree = self
            .trees
            .get(i)
            .expect("a mixture holds at least one tree");
        tree.path(&self.graph, s, t)
    }

    /// All `draws` tree indices first, one `pick_tree` deviate each in
    /// draw order (the walk takes no randomness, so the RNG ends where
    /// `draws` [`sample_path`](Self::sample_path) calls leave it); then
    /// each distinct tree, in first-draw order, is walked once and its
    /// walk interned straight from the scratch. A repeated tree repeats a
    /// path, which the set `P(s, t)` drops anyway, so the ids and the
    /// arena match the per-draw loop exactly.
    fn sample_into(
        &self,
        s: VertexId,
        t: VertexId,
        draws: usize,
        rng: &mut dyn RngCore,
        store: &mut PathStore,
        out: &mut Vec<PathId>,
    ) {
        assert_ne!(s, t);
        let total = self.weight_total();
        PICKS.with(|picks| {
            let picks = &mut *picks.borrow_mut();
            picks.clear();
            for _ in 0..draws {
                let i = self.pick_tree(total, rng);
                if !picks.contains(&i) {
                    picks.push(i);
                }
            }
            for tree in picks.iter().filter_map(|&i| self.trees.get(i)) {
                let id = tree.with_walk(&self.graph, s, t, |walk| {
                    store.intern_parts(walk.vertices(), walk.edges())
                });
                push_new(out, id);
            }
        });
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        for (tr, &w) in self.trees.iter().zip(self.weights.iter()) {
            tr.with_walk(&self.graph, s, t, |walk| {
                out.push_parts(walk.vertices(), walk.edges(), w);
            });
        }
        out.merge_open();
    }

    fn build_profile(&self) -> Option<&StageProfile> {
        Some(&self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_oblivious_routing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_flow::solver::{min_congestion_unrestricted, SolveOptions};
    use ssor_flow::Demand;
    use ssor_graph::generators;
    use std::time::Duration;

    /// The build's stages are exactly `names`, in order, and sum to at
    /// most the total: they are disjoint intervals inside the build,
    /// read off one monotonic clock.
    fn assert_stages_fit(profile: &StageProfile, names: &[&str]) {
        let got: Vec<&str> = profile.stages().iter().map(|&(name, _)| name).collect();
        assert_eq!(got, names);
        let sum: Duration = profile.stages().iter().map(|&(_, wall)| wall).sum();
        assert!(sum <= profile.total(), "{sum:?} > {:?}", profile.total());
    }

    #[test]
    fn builds_and_validates_on_grid() {
        let g = generators::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let r = RaeckeRouting::build(&g, &Default::default(), &mut rng);
        let pairs: Vec<(u32, u32)> = vec![(0, 8), (2, 6), (1, 7), (3, 5)];
        validate_oblivious_routing(&r, &pairs).unwrap();
        assert_eq!(r.trees().len(), 12);
        let profile = r.build_profile().expect("raecke tracks build stages");
        assert!(profile.total().as_nanos() > 0);
        assert_stages_fit(profile, &["metric", "tree", "load"]);
    }

    #[test]
    fn competitive_on_random_demands() {
        // The mixture should be within a polylog factor of OPT on random
        // permutation demands; we assert a loose factor.
        let g = generators::random_regular(24, 3, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(2);
        let r = RaeckeRouting::build(
            &g,
            &RaeckeOptions {
                iterations: 16,
                epsilon: 0.5,
            },
            &mut rng,
        );
        let d = Demand::random_permutation(24, &mut rng);
        let cong = r.congestion(&d);
        let opt = min_congestion_unrestricted(&g, &d, &SolveOptions::default());
        let ratio = cong / opt.lower_bound.max(1e-9);
        assert!(
            ratio < 20.0,
            "Raecke ratio {ratio} too large (cong {cong}, opt lb {})",
            opt.lower_bound
        );
    }

    #[test]
    fn relative_loads_trend_reasonably() {
        let g = generators::ring(12);
        let mut rng = StdRng::seed_from_u64(3);
        let r = RaeckeRouting::build(
            &g,
            &RaeckeOptions {
                iterations: 10,
                epsilon: 0.5,
            },
            &mut rng,
        );
        assert_eq!(r.relative_loads().len(), 10);
        for &rho in r.relative_loads() {
            assert!(rho >= 1.0);
            // A ring has 12 edges; no tree should overload an edge by more
            // than the total canonical demand.
            assert!(rho <= 12.0);
        }
    }

    #[test]
    fn extreme_learning_rates_survive_without_nan() {
        // Regression: repeated `exp` scaling used to drive length ratios
        // to inf (then `inf/inf = NaN` once every edge was loaded), which
        // poisoned the metric and eventually overflowed the FRT levels
        // loop. The exponent/ratio clamps must keep long, hot runs finite
        // and the resulting mixture valid.
        let g = generators::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let r = RaeckeRouting::build(
            &g,
            &RaeckeOptions {
                iterations: 40,
                epsilon: 50.0,
            },
            &mut rng,
        );
        assert_eq!(r.relative_loads().len(), 40);
        for &rho in r.relative_loads() {
            assert!(rho.is_finite() && rho >= 1.0, "rho = {rho}");
        }
        validate_oblivious_routing(&r, &[(0, 8), (2, 6)]).unwrap();
    }

    #[test]
    fn high_iteration_runs_stay_finite() {
        // The same overflow reached via many mild steps instead of a few
        // huge ones: 600 iterations at epsilon 2.0 pushes the unclamped
        // ratio toward e^1200 >> f64::MAX.
        let g = generators::ring(6);
        let mut rng = StdRng::seed_from_u64(8);
        let r = RaeckeRouting::build(
            &g,
            &RaeckeOptions {
                iterations: 600,
                epsilon: 2.0,
            },
            &mut rng,
        );
        for &rho in r.relative_loads() {
            assert!(rho.is_finite(), "rho = {rho}");
        }
        validate_oblivious_routing(&r, &[(0, 3), (1, 4)]).unwrap();
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_graphs() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = RaeckeRouting::build(&g, &Default::default(), &mut rng);
    }

    #[test]
    fn sampling_matches_mixture() {
        let g = generators::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let r = RaeckeRouting::build(
            &g,
            &RaeckeOptions {
                iterations: 6,
                epsilon: 0.5,
            },
            &mut rng,
        );
        let dist = r.path_distribution(0, 8);
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Sampled paths always come from the distribution's support.
        let support: Vec<Vec<u32>> = dist.iter().map(|(p, _)| p.edges().to_vec()).collect();
        for seed in 0..20 {
            let mut rng2 = StdRng::seed_from_u64(seed);
            let p = r.sample_path(0, 8, &mut rng2);
            assert!(support.contains(&p.edges().to_vec()));
        }
    }

    #[test]
    fn sampling_renormalizes_short_weight_sums() {
        // Regression: when floating-point weights sum to less than 1, the
        // shortfall used to land entirely on the last tree. The CDF is
        // now renormalized, so empirical frequencies must match
        // `path_distribution` weights *renormalized by their sum*.
        let g = generators::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(12);
        let mut r = RaeckeRouting::build(
            &g,
            &RaeckeOptions {
                iterations: 2,
                epsilon: 0.5,
            },
            &mut rng,
        );
        // Deliberately short weight sum: 0.25 + 0.375 = 0.625.
        r.weights = vec![0.25, 0.375];
        let dist = r.path_distribution(0, 8);
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((total - 0.625).abs() < 1e-12);

        let mut counts = vec![0usize; dist.len()];
        let draws = 4000u64;
        for seed in 0..draws {
            let mut rng2 = StdRng::seed_from_u64(seed);
            let p = r.sample_path(0, 8, &mut rng2);
            let i = dist
                .iter()
                .position(|(q, _)| q.edges() == p.edges())
                .expect("sampled path must come from the distribution");
            counts[i] += 1;
        }
        for (i, (_, w)) in dist.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.05,
                "path {i}: sampled {got:.3}, mixture says {expect:.3}"
            );
        }
    }

    #[test]
    fn sample_into_draws_like_sample_path_on_uneven_weights() {
        // `build` and `frt_ensemble` mix uniformly; skewed, short-summing
        // weights with a zero entry exercise the renormalized CDF scan.
        let g = generators::grid(3, 4);
        let mut r = RaeckeRouting::frt_ensemble(&g, 5, 3);
        r.weights = vec![0.05, 0.4, 0.0, 0.3, 0.125];
        let (mut want_store, mut got_store) = (PathStore::new(), PathStore::new());
        let mut want_rng = StdRng::seed_from_u64(17);
        let mut got_rng = StdRng::seed_from_u64(17);
        for (s, t) in [(0u32, 11u32), (3, 8), (5, 6), (0, 11)] {
            for draws in [1, 4, 9, 30] {
                let mut want: Vec<PathId> = Vec::new();
                for _ in 0..draws {
                    let id = want_store.intern(&r.sample_path(s, t, &mut want_rng));
                    push_new(&mut want, id);
                }
                let mut got = Vec::new();
                r.sample_into(s, t, draws, &mut got_rng, &mut got_store, &mut got);
                assert_eq!(got, want, "({s}, {t}) x{draws}");
            }
        }
        assert_eq!(got_store.len(), want_store.len());
        for id in want_store.ids() {
            assert_eq!(got_store.vertices(id), want_store.vertices(id));
        }
        assert_eq!(
            got_rng.gen::<u64>(),
            want_rng.gen::<u64>(),
            "same RNG state"
        );
    }

    #[test]
    fn frt_ensemble_is_deterministic_and_valid() {
        let g = generators::grid(3, 4);
        let a = RaeckeRouting::frt_ensemble(&g, 6, 21);
        let b = RaeckeRouting::frt_ensemble(&g, 6, 21);
        validate_oblivious_routing(&a, &[(0, 11), (3, 8), (1, 10)]).unwrap();
        for (s, t) in [(0u32, 11u32), (2, 9)] {
            assert_eq!(a.path_distribution(s, t), b.path_distribution(s, t));
        }
        assert!(a.relative_loads().is_empty(), "no MW adaptation ran");
        let profile = a.build_profile().expect("ensemble tracks build stages");
        assert_stages_fit(profile, &["metric", "tree"]);
    }
}
