//! Memoization across pipeline runs.
//!
//! Sweeps (over `α`, over demands, over schedulers) repeat expensive
//! sub-computations: building a Räcke template is a multiplicative-weights
//! loop, sampling a path system touches every pair, and the unrestricted
//! OPT solve — the denominator of every competitive report — depends only
//! on `(topology, demand)`, not on `α` at all. [`PathSystemCache`] memoizes
//! all four stages behind hashable spec keys, so an 8-point `α`-sweep pays
//! for its graphs, templates, and OPT baselines exactly once.
//!
//! Sampled path systems are stored as validated
//! [`SemiObliviousRouter`]s: a path system is checked against its graph
//! once, when it is inserted, and every hit hands out the same `Arc`s.

use crate::spec::{DemandSpec, TemplateSpec, TopologySpec};
use ssor_core::{PathSystem, SemiObliviousRouter};
use ssor_graph::obs::StageProfile;
use ssor_graph::Graph;
use ssor_lowerbound::graphs::CGraphMeta;
use ssor_oblivious::ObliviousRouting;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A shared oblivious-routing template.
pub type SharedTemplate = Arc<dyn ObliviousRouting + Send + Sync>;

/// A built graph together with its lower-bound gadget metadata (when the
/// topology has any). The graph is itself shared, so the routers built
/// on it point at the same allocation.
pub type SharedGraph = Arc<(Arc<Graph>, Option<CGraphMeta>)>;

/// The issue's cache key for a sampled path system:
/// `(topology, template, α, seed)`.
type PathKey = (TopologySpec, TemplateSpec, usize, u64);

/// Cache key for OPT bounds: `(topology, demand, eps bits, max_iters)` —
/// the full provenance of a certified bound.
type OptKey = (TopologySpec, DemandSpec, u64, usize);

/// Certified bounds from an unrestricted min-congestion solve (the parts
/// of a `MinCongSolution` worth memoizing).
#[derive(Debug, Clone, Copy)]
pub struct OptBounds {
    /// Primal value: an upper bound on the offline optimum.
    pub congestion: f64,
    /// Certified dual lower bound on the offline optimum.
    pub lower_bound: f64,
}

/// Cache hit/miss/eviction counters, aggregated over all stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to compute.
    pub misses: usize,
    /// Entries dropped by the capacity bound (0 for unbounded caches).
    pub evictions: usize,
}

/// Memoizes built graphs, templates, sampled path systems, and OPT
/// bounds behind the crate's hashable spec keys.
///
/// Path systems are keyed by `(topology, template, α, seed)` — the
/// complete provenance of a Definition 5.2 sample — so sweeps over `α` or
/// demands never re-sample, and repeated runs of the same configuration
/// are free. Each one is validated against its topology's graph once,
/// on insert, and stored as a [`SemiObliviousRouter`]; a hit is pointer
/// copies.
///
/// The cache is internally synchronized: share one instance (by reference
/// or `Arc`) across every pipeline of a sweep.
///
/// # Examples
///
/// ```
/// use ssor_engine::{PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
///
/// let cache = PathSystemCache::new();
/// let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
///     .template(TemplateSpec::Valiant)
///     .alpha(2);
/// let first = p.prepare(&cache);
/// let again = p.prepare(&cache);
/// // Same key -> the identical cached path system, not a re-sample.
/// assert!(std::ptr::eq(first.paths(), again.paths()));
/// assert!(cache.stats().hits > 0);
/// ```
pub struct PathSystemCache {
    graphs: Mutex<HashMap<TopologySpec, Entry<SharedGraph>>>,
    templates: Mutex<HashMap<(TopologySpec, TemplateSpec, u64), Entry<SharedTemplate>>>,
    routers: Mutex<HashMap<PathKey, Entry<SemiObliviousRouter>>>,
    opt: Mutex<HashMap<OptKey, Entry<OptBounds>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    /// Monotone access clock stamping entries for LRU-within-generation.
    clock: AtomicU64,
    /// The cache generation (bumped by [`PathSystemCache::advance_generation`]);
    /// entries remember the generation of their last access, and eviction
    /// drops the oldest generation first.
    generation: AtomicU64,
    /// Per-store capacity for the churn-sensitive stores (templates and
    /// path systems); `usize::MAX` means unbounded.
    capacity: usize,
}

/// A cached value stamped with its last-access provenance: the cache
/// generation and the access-clock tick. Eviction drops the minimum
/// `(gen, tick)` — oldest generation first, least-recently-used within it.
struct Entry<V> {
    value: V,
    gen: u64,
    tick: u64,
}

impl Default for PathSystemCache {
    fn default() -> Self {
        PathSystemCache {
            graphs: Mutex::new(HashMap::new()),
            templates: Mutex::new(HashMap::new()),
            routers: Mutex::new(HashMap::new()),
            opt: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            capacity: usize::MAX,
        }
    }
}

impl std::fmt::Debug for PathSystemCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathSystemCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Double-checked get-or-compute: the lock is released during `compute`,
/// so concurrent pipeline stages never serialize on each other's solves.
/// Two threads may race to compute the same key; the first insert wins
/// (all computations here are deterministic, so both results agree).
///
/// A fresh insert into a store at `capacity` first evicts the entry with
/// the minimum `(generation, tick)` stamp — the least-recently-touched
/// entry of the oldest cache generation — and counts it in `evictions`.
///
/// Returns `(value, hit)`; `hit` reflects the atomic first check, so a
/// caller timing the call sees `hit == false` exactly when `compute` ran
/// on its own thread (a racing loser still did the work it reports).
#[allow(clippy::too_many_arguments)]
fn get_or_compute<K: std::hash::Hash + Eq + Clone, V: Clone>(
    map: &Mutex<HashMap<K, Entry<V>>>,
    hits: &AtomicUsize,
    misses: &AtomicUsize,
    evictions: &AtomicUsize,
    clock: &AtomicU64,
    generation: &AtomicU64,
    capacity: usize,
    key: K,
    compute: impl FnOnce() -> V,
) -> (V, bool) {
    let gen = generation.load(Ordering::Relaxed);
    let touch = |e: &mut Entry<V>| {
        e.gen = gen;
        e.tick = clock.fetch_add(1, Ordering::Relaxed);
    };
    if let Some(e) = map.lock().expect("cache lock").get_mut(&key) {
        touch(e);
        hits.fetch_add(1, Ordering::Relaxed);
        return (e.value.clone(), true);
    }
    misses.fetch_add(1, Ordering::Relaxed);
    let v = compute();
    let mut m = map.lock().expect("cache lock");
    if let Some(e) = m.get_mut(&key) {
        // A racer inserted the same key while we computed; share its
        // value (both computations agree) — no insert, no eviction.
        touch(e);
        return (e.value.clone(), false);
    }
    while m.len() >= capacity.max(1) {
        let victim = m
            .iter()
            .min_by_key(|(_, e)| (e.gen, e.tick))
            .map(|(k, _)| k.clone());
        match victim {
            Some(k) => {
                m.remove(&k);
                evictions.fetch_add(1, Ordering::Relaxed);
            }
            None => break,
        }
    }
    let tick = clock.fetch_add(1, Ordering::Relaxed);
    m.insert(
        key,
        Entry {
            value: v.clone(),
            gen,
            tick,
        },
    );
    (v, false)
}

impl PathSystemCache {
    /// An empty cache.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::PathSystemCache;
    /// let cache = PathSystemCache::new();
    /// assert_eq!(cache.stats().hits, 0);
    /// ```
    pub fn new() -> Self {
        PathSystemCache::default()
    }

    /// A cache whose churn-sensitive stores (templates and sampled path
    /// systems) hold at most `capacity` entries each; inserting past the
    /// bound evicts the least-recently-touched entry of the **oldest
    /// cache generation** first (see
    /// [`advance_generation`](PathSystemCache::advance_generation)).
    /// The graph and OPT-bound stores stay unbounded — their entries are
    /// small and topology-keyed, not churn-keyed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{PathSystemCache, TemplateSpec, TopologySpec};
    ///
    /// let cache = PathSystemCache::bounded(2);
    /// let topo = TopologySpec::Ring { n: 6 };
    /// for seed in 0..4 {
    ///     cache.template(&topo, &TemplateSpec::ShortestPath, seed);
    /// }
    /// assert_eq!(cache.stats().evictions, 2, "capacity 2, four inserts");
    /// ```
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        PathSystemCache {
            capacity,
            ..PathSystemCache::default()
        }
    }

    /// Bumps the cache generation. Entries remember the generation of
    /// their last access; under a capacity bound, eviction drops oldest
    /// generations first, so a serving rebuild loop that advances the
    /// generation once per template swap keeps the current generation's
    /// working set resident while prior generations age out.
    ///
    /// Returns the new generation.
    pub fn advance_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current cache generation (0 until the first
    /// [`advance_generation`](PathSystemCache::advance_generation)).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The built graph (plus lower-bound gadget metadata, when the
    /// topology has any) for `topo`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{PathSystemCache, TopologySpec};
    /// let cache = PathSystemCache::new();
    /// let g = cache.graph(&TopologySpec::Ring { n: 7 });
    /// assert_eq!(g.0.n(), 7);
    /// ```
    pub fn graph(&self, topo: &TopologySpec) -> SharedGraph {
        get_or_compute(
            &self.graphs,
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.clock,
            &self.generation,
            usize::MAX,
            topo.clone(),
            || {
                let (graph, meta) = topo.build();
                Arc::new((Arc::new(graph), meta))
            },
        )
        .0
    }

    /// The built oblivious template for `(topo, template, seed)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{PathSystemCache, TemplateSpec, TopologySpec};
    /// let cache = PathSystemCache::new();
    /// let topo = TopologySpec::Hypercube { dim: 3 };
    /// let t = cache.template(&topo, &TemplateSpec::Valiant, 1);
    /// assert_eq!(t.graph().n(), 8);
    /// ```
    pub fn template(
        &self,
        topo: &TopologySpec,
        template: &TemplateSpec,
        seed: u64,
    ) -> SharedTemplate {
        self.template_with_hit(topo, template, seed).0
    }

    /// [`PathSystemCache::template`] plus whether the atomic cache
    /// lookup answered it (`true` = shared, no construction ran on this
    /// thread) — the flag [`TemplateBuilder`] reports as `cached`.
    fn template_with_hit(
        &self,
        topo: &TopologySpec,
        template: &TemplateSpec,
        seed: u64,
    ) -> (SharedTemplate, bool) {
        let key = (topo.clone(), template.clone(), seed);
        get_or_compute(
            &self.templates,
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.clock,
            &self.generation,
            self.capacity,
            key,
            || {
                let g = self.graph(topo);
                template.build(topo, &g.0, seed)
            },
        )
    }

    /// The sampled path system for `(topo, template, alpha, seed)`,
    /// computing it with `sample` on a miss.
    ///
    /// # Panics
    ///
    /// Panics if `sample` returns a path system invalid for the
    /// topology's graph; the invalid system is never inserted.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_core::PathSystem;
    /// use ssor_engine::{PathSystemCache, TemplateSpec, TopologySpec};
    /// use std::sync::Arc;
    ///
    /// let cache = PathSystemCache::new();
    /// let topo = TopologySpec::Ring { n: 4 };
    /// let key_template = TemplateSpec::ShortestPath;
    /// let a = cache.paths(&topo, &key_template, 2, 0, || Arc::new(PathSystem::new()));
    /// let b = cache.paths(&topo, &key_template, 2, 0, || panic!("cached"));
    /// assert!(Arc::ptr_eq(&a, &b));
    /// ```
    pub fn paths(
        &self,
        topo: &TopologySpec,
        template: &TemplateSpec,
        alpha: usize,
        seed: u64,
        sample: impl FnOnce() -> Arc<PathSystem>,
    ) -> Arc<PathSystem> {
        Arc::clone(
            self.router(topo, template, alpha, seed, sample)
                .shared_paths(),
        )
    }

    /// The validated router over the sampled path system for
    /// `(topo, template, alpha, seed)`: the store behind
    /// [`PathSystemCache::paths`]. On a miss, `sample` runs and its
    /// result is validated against the topology's graph, once, before
    /// it is inserted.
    pub(crate) fn router(
        &self,
        topo: &TopologySpec,
        template: &TemplateSpec,
        alpha: usize,
        seed: u64,
        sample: impl FnOnce() -> Arc<PathSystem>,
    ) -> SemiObliviousRouter {
        let key = (topo.clone(), template.clone(), alpha, seed);
        get_or_compute(
            &self.routers,
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.clock,
            &self.generation,
            self.capacity,
            key,
            || {
                let graph = self.graph(topo);
                SemiObliviousRouter::try_new(Arc::clone(&graph.0), sample())
                    .expect("cache fill returned a path system invalid for its topology")
            },
        )
        .0
    }

    /// Certified OPT bounds for `(topo, demand, solver options)`,
    /// computing with `solve` on a miss. Both `eps` (bit-exact) and
    /// `max_iters` enter the key, because a looser or shorter solve
    /// certifies looser bounds.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, OptBounds, PathSystemCache, TopologySpec};
    /// use ssor_flow::SolveOptions;
    ///
    /// let cache = PathSystemCache::new();
    /// let topo = TopologySpec::Ring { n: 6 };
    /// let spec = DemandSpec::Pairs(vec![(0, 3)]);
    /// let opts = SolveOptions::with_eps(0.1);
    /// let solve = || OptBounds { congestion: 0.5, lower_bound: 0.5 };
    /// let first = cache.opt_bounds(&topo, &spec, &opts, solve);
    /// let cached = cache.opt_bounds(&topo, &spec, &opts, || unreachable!());
    /// assert_eq!(first.congestion, cached.congestion);
    /// ```
    pub fn opt_bounds(
        &self,
        topo: &TopologySpec,
        demand: &DemandSpec,
        opts: &ssor_flow::SolveOptions,
        solve: impl FnOnce() -> OptBounds,
    ) -> OptBounds {
        let key = (
            topo.clone(),
            demand.clone(),
            opts.eps.to_bits(),
            opts.max_iters,
        );
        get_or_compute(
            &self.opt,
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.clock,
            &self.generation,
            usize::MAX,
            key,
            solve,
        )
        .0
    }

    /// Aggregate hit/miss/eviction counters over all four stores.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{CacheStats, PathSystemCache, TopologySpec};
    /// let cache = PathSystemCache::new();
    /// let topo = TopologySpec::Ring { n: 5 };
    /// cache.graph(&topo);
    /// cache.graph(&topo);
    /// let expect = CacheStats { hits: 1, misses: 1, evictions: 0 };
    /// assert_eq!(cache.stats(), expect);
    /// ```
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// What one template construction cost, as observed by a
/// [`TemplateBuilder`]: whether the cache answered it (a *shared*
/// template — e.g. the intact-topology template every failure-sweep
/// trial re-routes against) and the template's per-stage build profile.
#[derive(Debug, Clone, Default)]
pub struct TemplateBuildStats {
    /// `true` when the cache already held the template — no construction
    /// ran.
    pub cached: bool,
    /// Where the template's construction spent its wall-clock (on a
    /// cache hit, the original build's); empty for templates that track
    /// no stages (the Räcke/FRT and electrical builders do).
    pub profile: StageProfile,
}

/// Constructs oblivious templates through a [`PathSystemCache`],
/// reporting each build's stage profile and whether the cache shared it.
///
/// A single template build is already internally parallel (metric
/// Dijkstras, canonical-load blocks). The double-checked cache never
/// serializes concurrent builds of *different* keys.
///
/// # Examples
///
/// ```
/// use ssor_engine::{PathSystemCache, TemplateBuilder, TemplateSpec, TopologySpec};
///
/// let cache = PathSystemCache::new();
/// let builder = TemplateBuilder::new(&cache);
/// let topo = TopologySpec::Grid { rows: 3, cols: 3 };
/// let (template, stats) = builder.build(&topo, &TemplateSpec::raecke(), 1);
/// assert_eq!(template.graph().n(), 9);
/// assert!(!stats.cached, "first build constructs");
/// let (_, again) = builder.build(&topo, &TemplateSpec::raecke(), 1);
/// assert!(again.cached, "second build is shared from the cache");
/// ```
#[derive(Debug)]
pub struct TemplateBuilder<'a> {
    cache: &'a PathSystemCache,
}

impl<'a> TemplateBuilder<'a> {
    /// A builder constructing through (and memoizing into) `cache`.
    pub fn new(cache: &'a PathSystemCache) -> Self {
        TemplateBuilder { cache }
    }

    /// Builds (or fetches) one template, reporting what it cost and
    /// whether it was shared from the cache. The `cached` flag comes out
    /// of the cache's own atomic lookup, so even when another thread
    /// races the same key the flag matches what *this* call actually did
    /// (fetched vs constructed).
    pub fn build(
        &self,
        topo: &TopologySpec,
        template: &TemplateSpec,
        seed: u64,
    ) -> (SharedTemplate, TemplateBuildStats) {
        let (t, cached) = self.cache.template_with_hit(topo, template, seed);
        let profile = t.build_profile().cloned().unwrap_or_default();
        (t, TemplateBuildStats { cached, profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{TemplateSpec, TopologySpec};

    #[test]
    fn graphs_are_cached_per_spec() {
        let cache = PathSystemCache::new();
        let a = cache.graph(&TopologySpec::Hypercube { dim: 3 });
        let b = cache.graph(&TopologySpec::Hypercube { dim: 3 });
        assert!(Arc::ptr_eq(&a, &b), "same Arc returned");
        let c = cache.graph(&TopologySpec::Hypercube { dim: 4 });
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn template_seed_is_part_of_the_key() {
        let cache = PathSystemCache::new();
        let topo = TopologySpec::Grid { rows: 2, cols: 3 };
        let a = cache.template(&topo, &TemplateSpec::raecke(), 1);
        let b = cache.template(&topo, &TemplateSpec::raecke(), 2);
        let a2 = cache.template(&topo, &TemplateSpec::raecke(), 1);
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn alpha_distinguishes_path_keys() {
        let cache = PathSystemCache::new();
        let topo = TopologySpec::Ring { n: 4 };
        let t = TemplateSpec::ShortestPath;
        let mk = |n: usize| {
            move || {
                let mut ps = PathSystem::new();
                let g = ssor_graph::generators::ring(4);
                for i in 0..n as u32 {
                    ps.insert(ssor_graph::Path::from_vertices(&g, &[i, i + 1]).unwrap());
                }
                Arc::new(ps)
            }
        };
        let one = cache.paths(&topo, &t, 1, 0, mk(1));
        let two = cache.paths(&topo, &t, 2, 0, mk(2));
        assert_eq!(one.total_paths(), 1);
        assert_eq!(two.total_paths(), 2);
    }

    #[test]
    fn opt_bounds_key_on_eps_bits() {
        let cache = PathSystemCache::new();
        let topo = TopologySpec::Ring { n: 6 };
        let d = DemandSpec::Pairs(vec![(0, 2)]);
        let loose = ssor_flow::SolveOptions::with_eps(0.1);
        let tight = ssor_flow::SolveOptions::with_eps(0.05);
        let a = cache.opt_bounds(&topo, &d, &loose, || OptBounds {
            congestion: 1.0,
            lower_bound: 0.9,
        });
        let b = cache.opt_bounds(&topo, &d, &tight, || OptBounds {
            congestion: 1.0,
            lower_bound: 0.97,
        });
        assert!(a.lower_bound < b.lower_bound);
        let a2 = cache.opt_bounds(&topo, &d, &loose, || unreachable!("cached"));
        assert_eq!(a2.lower_bound, a.lower_bound);
        // Same eps but a longer solve is a different certificate.
        let longer = ssor_flow::SolveOptions {
            max_iters: loose.max_iters * 10,
            ..loose.clone()
        };
        let c = cache.opt_bounds(&topo, &d, &longer, || OptBounds {
            congestion: 1.0,
            lower_bound: 0.95,
        });
        assert!(c.lower_bound > a.lower_bound);
    }

    #[test]
    fn template_builder_reports_shared_builds() {
        let cache = PathSystemCache::new();
        let builder = TemplateBuilder::new(&cache);
        let topo = TopologySpec::Grid { rows: 3, cols: 3 };
        let (a, first) = builder.build(&topo, &TemplateSpec::raecke(), 5);
        assert!(!first.cached);
        assert!(
            !first.profile.stages().is_empty(),
            "raecke reports per-stage timings"
        );
        let (b, second) = builder.build(&topo, &TemplateSpec::raecke(), 5);
        assert!(second.cached, "second build shares the cached template");
        assert_eq!(
            second.profile, first.profile,
            "a hit reports the original build"
        );
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn bounded_cache_evicts_oldest_generation_first() {
        let cache = PathSystemCache::bounded(2);
        let topo = TopologySpec::Ring { n: 6 };
        // Generation 0: two templates fill the store.
        let a = cache.template(&topo, &TemplateSpec::ShortestPath, 0);
        cache.template(&topo, &TemplateSpec::ShortestPath, 1);
        // Touch seed 0 so it is the *most* recently used of generation 0.
        cache.template(&topo, &TemplateSpec::ShortestPath, 0);
        assert_eq!(cache.stats().evictions, 0);

        // Generation 1: a third insert must evict — and the victim is the
        // least-recently-touched entry of the oldest generation (seed 1),
        // not the recently-touched seed 0.
        assert_eq!(cache.advance_generation(), 1);
        cache.template(&topo, &TemplateSpec::ShortestPath, 2);
        assert_eq!(cache.stats().evictions, 1);
        let a2 = cache.template(&topo, &TemplateSpec::ShortestPath, 0);
        assert!(Arc::ptr_eq(&a, &a2), "seed 0 survived the eviction");
        // Seed 1 was evicted: fetching it again is a miss (recomputes).
        let before = cache.stats().misses;
        cache.template(&topo, &TemplateSpec::ShortestPath, 1);
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn current_generation_entries_survive_churn() {
        let cache = PathSystemCache::bounded(1);
        let topo = TopologySpec::Ring { n: 5 };
        for g in 0..4u64 {
            cache.advance_generation();
            assert_eq!(cache.generation(), g + 1);
            let t = cache.template(&topo, &TemplateSpec::ShortestPath, g);
            // The entry just built this generation is resident.
            let t2 = cache.template(&topo, &TemplateSpec::ShortestPath, g);
            assert!(Arc::ptr_eq(&t, &t2));
        }
        // Capacity 1, four generations of inserts: three evictions.
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn unbounded_stores_never_evict() {
        let cache = PathSystemCache::bounded(1);
        let a = cache.graph(&TopologySpec::Ring { n: 4 });
        cache.graph(&TopologySpec::Ring { n: 5 });
        cache.graph(&TopologySpec::Ring { n: 6 });
        // Graph store ignores the bound (only templates/paths churn).
        let a2 = cache.graph(&TopologySpec::Ring { n: 4 });
        assert!(Arc::ptr_eq(&a, &a2));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = PathSystemCache::bounded(0);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = PathSystemCache::new();
        let topo = TopologySpec::Ring { n: 3 };
        cache.graph(&topo);
        cache.graph(&topo);
        cache.graph(&topo);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }
}
