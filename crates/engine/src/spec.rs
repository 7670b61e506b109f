//! Declarative specifications for every pipeline stage.
//!
//! The engine's caching story depends on stages being described by small,
//! hashable *specs* rather than by live objects: a [`TopologySpec`] names a
//! graph, a [`TemplateSpec`] names an oblivious routing over it, and a
//! [`DemandSpec`] names a workload — so `(topology, template, α, seed)` is
//! a complete, comparable key for a sampled path system.

use crate::gravity::GravityModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssor_flow::Demand;
use ssor_graph::{generators, Graph, VertexId};
use ssor_lowerbound::adversary::find_adversarial_demand;
use ssor_lowerbound::graphs::{c_graph, CGraphMeta};
use ssor_oblivious::{
    BitFixingRouting, EcmpRouting, ElectricalRouting, KspRouting, ObliviousRouting, RaeckeOptions,
    RaeckeRouting, RandomWalkRouting, ShortestPathRouting, ValiantRouting, VlbRouting,
};
use std::sync::Arc;

/// A hashable `f64` parameter (bit-exact equality), so specs containing
/// real-valued knobs can key caches.
///
/// # Examples
///
/// ```
/// use ssor_engine::Param;
/// assert_eq!(Param::from(0.3), Param::from(0.3));
/// assert_ne!(Param::from(0.3), Param::from(0.4));
/// assert_eq!(Param::from(2.5).value(), 2.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Param(f64);

impl Param {
    /// The wrapped value.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(ssor_engine::Param::from(1.5).value(), 1.5);
    /// ```
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl From<f64> for Param {
    fn from(x: f64) -> Self {
        Param(x)
    }
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Param {}

impl std::hash::Hash for Param {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

/// Stage 1: which graph the pipeline routes on.
///
/// Random families carry their seed, so a spec names one concrete graph
/// and can key the engine's caches.
///
/// # Examples
///
/// ```
/// use ssor_engine::TopologySpec;
///
/// let g = TopologySpec::Hypercube { dim: 3 }.build_graph();
/// assert_eq!(g.n(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TopologySpec {
    /// The `dim`-dimensional hypercube (`n = 2^dim`).
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// A `rows × cols` grid.
    Grid {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// A `rows × cols` torus.
    Torus {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// An `n`-cycle.
    Ring {
        /// Vertex count.
        n: usize,
    },
    /// The complete graph on `n` vertices.
    Complete {
        /// Vertex count.
        n: usize,
    },
    /// Two `size`-cliques joined by a path of `path_len` edges.
    Barbell {
        /// Clique size.
        size: usize,
        /// Connecting path length.
        path_len: usize,
    },
    /// Two `size`-cliques joined by `bridges` parallel bridge edges — the
    /// Section 2.1 example showing `cut` many paths are necessary.
    TwoCliquesBridge {
        /// Clique size.
        size: usize,
        /// Bridge count.
        bridges: usize,
    },
    /// A random `degree`-regular graph (configuration model).
    RandomRegular {
        /// Vertex count.
        n: usize,
        /// Degree.
        degree: usize,
        /// Generator seed.
        seed: u64,
    },
    /// An Erdős–Rényi `G(n, p)` draw stitched to connectivity.
    ErdosRenyi {
        /// Vertex count.
        n: usize,
        /// Edge probability.
        p: Param,
        /// Generator seed.
        seed: u64,
    },
    /// A Waxman random WAN (the SMORE-style topology).
    Waxman {
        /// Vertex count.
        n: usize,
        /// Waxman `a` parameter.
        a: Param,
        /// Waxman `b` parameter.
        b: Param,
        /// Generator seed.
        seed: u64,
    },
    /// The Section 8 lower-bound gadget `C(n, k)` with
    /// `k = floor(n^{1/(2α)})` chosen for the given sparsity budget.
    LowerBoundC {
        /// Leaves per star.
        n: usize,
        /// Sparsity budget the gadget is sized against.
        alpha: usize,
    },
    /// A binary fat-tree of the given depth (edge multiplicity doubles
    /// toward the root, modelling the fattened core).
    FatTree {
        /// Tree depth; leaves = `2^depth`.
        depth: u32,
    },
    /// A two-tier leaf–spine Clos fabric: every leaf uplinks to every
    /// spine (`uplink_mult` parallel edges each), hosts hang off leaves.
    /// The datacenter topology the failure sweeps exercise — any single
    /// spine or uplink can die without disconnecting it when
    /// `spines >= 2`.
    LeafSpine {
        /// Spine switches.
        spines: usize,
        /// Leaf switches.
        leaves: usize,
        /// Hosts per leaf switch.
        hosts_per_leaf: usize,
        /// Parallel edges per leaf–spine uplink (capacity).
        uplink_mult: u32,
    },
}

/// Bounded derived-seed retries before a Waxman draw falls back to
/// stitching (see `ssor_graph::generators::waxman_connected`).
const WAXMAN_MAX_ATTEMPTS: usize = 16;

impl TopologySpec {
    /// Builds the graph (deterministic: random families use their stored
    /// seed).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::TopologySpec;
    /// assert_eq!(TopologySpec::Grid { rows: 2, cols: 3 }.build_graph().n(), 6);
    /// ```
    pub fn build_graph(&self) -> Graph {
        self.build().0
    }

    /// Builds the graph plus the lower-bound gadget metadata when the
    /// topology is [`TopologySpec::LowerBoundC`].
    pub(crate) fn build(&self) -> (Graph, Option<CGraphMeta>) {
        match *self {
            TopologySpec::Hypercube { dim } => (generators::hypercube(dim), None),
            TopologySpec::Grid { rows, cols } => (generators::grid(rows, cols), None),
            TopologySpec::Torus { rows, cols } => (generators::torus(rows, cols), None),
            TopologySpec::Ring { n } => (generators::ring(n), None),
            TopologySpec::Complete { n } => (generators::complete(n), None),
            TopologySpec::Barbell { size, path_len } => (generators::barbell(size, path_len), None),
            TopologySpec::TwoCliquesBridge { size, bridges } => {
                (generators::two_cliques_bridge(size, bridges), None)
            }
            TopologySpec::RandomRegular { n, degree, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (generators::random_regular(n, degree, &mut rng), None)
            }
            TopologySpec::ErdosRenyi { n, p, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (generators::erdos_renyi(n, p.value(), &mut rng), None)
            }
            TopologySpec::Waxman { n, a, b, seed } => {
                // A raw Waxman draw can be disconnected (unlucky seeds
                // strand routers), which used to surface only as a panic
                // deep inside path sampling. Detect it here and retry
                // with derived seeds, deterministically and bounded.
                let (g, _, _) = generators::waxman_connected(
                    n,
                    a.value(),
                    b.value(),
                    seed,
                    WAXMAN_MAX_ATTEMPTS,
                );
                (g, None)
            }
            TopologySpec::LowerBoundC { n, alpha } => {
                let k = ssor_lowerbound::graphs::k_for_alpha(n, alpha);
                let (g, meta) = c_graph(n, k);
                (g, Some(meta))
            }
            TopologySpec::FatTree { depth } => (generators::fat_tree(depth), None),
            TopologySpec::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
                uplink_mult,
            } => (
                generators::leaf_spine(spines, leaves, hosts_per_leaf, uplink_mult),
                None,
            ),
        }
    }

    /// The hypercube dimension, if this is a hypercube (needed by the
    /// hypercube-only templates and demands).
    fn hypercube_dim(&self) -> Option<u32> {
        match *self {
            TopologySpec::Hypercube { dim } => Some(dim),
            _ => None,
        }
    }
}

/// Stage 2: which oblivious routing supplies the sampling distribution
/// `R(s, t)` (Definition 5.2 samples from any competitive template).
///
/// # Examples
///
/// ```
/// use ssor_engine::{TemplateSpec, TopologySpec};
///
/// let topo = TopologySpec::Hypercube { dim: 3 };
/// let g = topo.build_graph();
/// let template = TemplateSpec::Valiant.build(&topo, &g, 7);
/// assert_eq!(template.graph().n(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TemplateSpec {
    /// Valiant–Brebner randomized hypercube routing (hypercubes only).
    Valiant,
    /// Deterministic greedy bit-fixing (hypercubes only; the `[KKT91]`
    /// strawman).
    BitFixing,
    /// Räcke's `O(log n)`-competitive tree-mixture routing (any graph).
    Raecke {
        /// Multiplicative-weights iterations (tree count).
        iterations: usize,
        /// Learning rate.
        epsilon: Param,
    },
    /// A uniform mixture of hop-metric FRT trees with *no*
    /// multiplicative-weights adaptation (Räcke's ensemble minus the
    /// reweighting) — built fully in parallel from derived per-tree seed
    /// streams, so it is the cheapest tree-based template at scale.
    FrtEnsemble {
        /// Number of trees in the mixture.
        trees: usize,
    },
    /// Uniform over the `k` shortest simple paths (the SMORE baseline).
    Ksp {
        /// Number of candidate paths.
        k: usize,
    },
    /// A single shortest path per pair.
    ShortestPath,
    /// Equal-cost multi-path over shortest-path DAGs.
    Ecmp,
    /// Electrical-flow (effective-resistance) routing: all per-source
    /// potentials precomputed at build time via Jacobi-preconditioned CG
    /// (`O(n)` Laplacian solves, rayon-batched, bit-stable).
    Electrical,
    /// Oblivious routing via truncated uniform random walks
    /// (Schapira–Shahaf), the cheap sampling baseline.
    RandomWalk {
        /// Walks per pair.
        walks: usize,
        /// Walk length cap before the BFS fallback takes the mass.
        max_len: usize,
    },
    /// Generic-graph Valiant load balancing: shortest paths through a
    /// uniformly random intermediate vertex.
    Vlb,
}

impl TemplateSpec {
    /// Räcke with its default options.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::TemplateSpec;
    /// assert!(matches!(TemplateSpec::raecke(), TemplateSpec::Raecke { .. }));
    /// ```
    pub fn raecke() -> TemplateSpec {
        let d = RaeckeOptions::default();
        TemplateSpec::Raecke {
            iterations: d.iterations,
            epsilon: d.epsilon.into(),
        }
    }

    /// Builds the oblivious routing for `topology`'s graph `g`, seeding
    /// any randomized construction from `seed`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{TemplateSpec, TopologySpec};
    /// let topo = TopologySpec::Ring { n: 5 };
    /// let g = topo.build_graph();
    /// let t = TemplateSpec::ShortestPath.build(&topo, &g, 0);
    /// assert_eq!(t.graph().n(), 5);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a hypercube-only template is paired with a non-hypercube
    /// topology.
    pub fn build(
        &self,
        topology: &TopologySpec,
        g: &Graph,
        seed: u64,
    ) -> Arc<dyn ObliviousRouting + Send + Sync> {
        let need_dim = || {
            topology.hypercube_dim().unwrap_or_else(|| {
                panic!("{self:?} requires a hypercube topology, got {topology:?}")
            })
        };
        match *self {
            TemplateSpec::Valiant => Arc::new(ValiantRouting::new(need_dim())),
            TemplateSpec::BitFixing => Arc::new(BitFixingRouting::new(need_dim())),
            TemplateSpec::Raecke {
                iterations,
                epsilon,
            } => {
                let opts = RaeckeOptions {
                    iterations,
                    epsilon: epsilon.value(),
                };
                let mut rng = StdRng::seed_from_u64(seed);
                Arc::new(RaeckeRouting::build(g, &opts, &mut rng))
            }
            TemplateSpec::FrtEnsemble { trees } => {
                Arc::new(RaeckeRouting::frt_ensemble(g, trees, seed))
            }
            TemplateSpec::Ksp { k } => Arc::new(KspRouting::new(g, k)),
            TemplateSpec::ShortestPath => Arc::new(ShortestPathRouting::new(g)),
            TemplateSpec::Ecmp => Arc::new(EcmpRouting::new(g)),
            // Eager all-source precompute: the engine treats templates as
            // all-pairs objects, and the batched build records a stage
            // profile like the tree templates.
            TemplateSpec::Electrical => Arc::new(ElectricalRouting::new(g).precomputed()),
            TemplateSpec::RandomWalk { walks, max_len } => {
                // `RandomWalkRouting` derives its per-pair streams from
                // `seed` through `derive_seed` under a scheme tag.
                Arc::new(RandomWalkRouting::new(g, walks, max_len, seed))
            }
            TemplateSpec::Vlb => Arc::new(VlbRouting::new(g)),
        }
    }
}

/// Stage 3: which demand arrives once the path system is installed.
///
/// Resolved against a [`ResolveCtx`] because some workloads depend on
/// earlier stages: the adversarial demand inspects the sampled path
/// system, and the hypercube permutations need the dimension.
///
/// # Examples
///
/// ```
/// use ssor_engine::{DemandSpec, TopologySpec};
/// use ssor_engine::ResolveCtx;
///
/// let topo = TopologySpec::Hypercube { dim: 3 };
/// let g = topo.build_graph();
/// let ctx = ResolveCtx::new(&topo, &g);
/// let d = DemandSpec::BitReversal.resolve(&ctx);
/// assert!(d.is_permutation());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DemandSpec {
    /// The hypercube bit-reversal permutation (hypercubes only) — the
    /// classic hard case for deterministic routing.
    BitReversal,
    /// The hypercube complement permutation (hypercubes only).
    Complement,
    /// The hypercube transpose permutation (hypercubes only).
    Transpose,
    /// A uniformly random permutation demand.
    RandomPermutation {
        /// Demand seed.
        seed: u64,
    },
    /// `pairs` random unit-demand pairs.
    RandomPairs {
        /// Number of pairs.
        pairs: usize,
        /// Demand seed.
        seed: u64,
    },
    /// A gravity-model traffic snapshot (the SMORE WAN workload).
    Gravity {
        /// Total traffic volume of the model.
        total: Param,
        /// Demand seed.
        seed: u64,
    },
    /// Unit demand on an explicit pair list.
    Pairs(
        /// The `(source, target)` pairs.
        Vec<(VertexId, VertexId)>,
    ),
    /// The Lemma 8.1 adversary's worst demand against the pipeline's own
    /// sampled path system (requires [`TopologySpec::LowerBoundC`]).
    AdversarialLowerBound,
}

/// Everything a [`DemandSpec`] may need to resolve: the topology, the
/// graph, and (for the adversary) the sampled path system plus gadget
/// metadata.
///
/// # Examples
///
/// ```
/// use ssor_engine::{DemandSpec, ResolveCtx, TopologySpec};
///
/// let topo = TopologySpec::Ring { n: 6 };
/// let g = topo.build_graph();
/// let d = DemandSpec::Pairs(vec![(0, 3)]).resolve(&ResolveCtx::new(&topo, &g));
/// assert_eq!(d.size(), 1.0);
/// ```
pub struct ResolveCtx<'a> {
    pub(crate) topology: &'a TopologySpec,
    pub(crate) graph: &'a Graph,
    pub(crate) meta: Option<&'a CGraphMeta>,
    pub(crate) paths: Option<&'a ssor_core::PathSystem>,
    pub(crate) alpha: usize,
}

impl<'a> ResolveCtx<'a> {
    /// A context with no sampled paths (enough for every spec except
    /// [`DemandSpec::AdversarialLowerBound`]).
    pub fn new(topology: &'a TopologySpec, graph: &'a Graph) -> Self {
        ResolveCtx {
            topology,
            graph,
            meta: None,
            paths: None,
            alpha: 0,
        }
    }

    pub(crate) fn with_paths(
        mut self,
        meta: Option<&'a CGraphMeta>,
        paths: &'a ssor_core::PathSystem,
        alpha: usize,
    ) -> Self {
        self.meta = meta;
        self.paths = Some(paths);
        self.alpha = alpha;
        self
    }
}

/// Tag XOR-ed into demand seeds before seeding their RNG, so a demand
/// stream can never collide with a template-construction stream started
/// from the same numeric seed (e.g. a "random" permutation that would
/// otherwise be bit-identical to the first FRT tree's center
/// permutation, both being a Fisher-Yates shuffle of `0..n`).
const DEMAND_STREAM_TAG: u64 = 0xDE3A_4D5E_ED00_7A61;

impl DemandSpec {
    /// The RNG for a demand with the given numeric seed.
    fn demand_rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed ^ DEMAND_STREAM_TAG)
    }

    /// Materializes the demand.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, ResolveCtx, TopologySpec};
    /// let topo = TopologySpec::Ring { n: 6 };
    /// let g = topo.build_graph();
    /// let d = DemandSpec::RandomPairs { pairs: 3, seed: 1 }
    ///     .resolve(&ResolveCtx::new(&topo, &g));
    /// assert!(d.size() > 0.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a hypercube-only demand is used off-hypercube, or
    /// [`DemandSpec::AdversarialLowerBound`] is resolved without gadget
    /// metadata and sampled paths in the context.
    pub fn resolve(&self, ctx: &ResolveCtx<'_>) -> Demand {
        let need_dim = || {
            ctx.topology.hypercube_dim().unwrap_or_else(|| {
                panic!(
                    "{self:?} requires a hypercube topology, got {:?}",
                    ctx.topology
                )
            })
        };
        match self {
            DemandSpec::BitReversal => Demand::hypercube_bit_reversal(need_dim()),
            DemandSpec::Complement => Demand::hypercube_complement(need_dim()),
            DemandSpec::Transpose => Demand::hypercube_transpose(need_dim()),
            DemandSpec::RandomPermutation { seed } => {
                let mut rng = Self::demand_rng(*seed);
                Demand::random_permutation(ctx.graph.n(), &mut rng)
            }
            DemandSpec::RandomPairs { pairs, seed } => {
                let mut rng = Self::demand_rng(*seed);
                Demand::random_pairs(ctx.graph.n(), *pairs, &mut rng)
            }
            DemandSpec::Gravity { total, seed } => {
                let mut rng = Self::demand_rng(*seed);
                let model = GravityModel::sample(ctx.graph.n(), total.value(), &mut rng);
                model.snapshot(0, 8, &mut rng)
            }
            DemandSpec::Pairs(pairs) => Demand::from_pairs(pairs),
            DemandSpec::AdversarialLowerBound => {
                let meta = ctx
                    .meta
                    .expect("AdversarialLowerBound needs a LowerBoundC topology");
                let paths = ctx
                    .paths
                    .expect("AdversarialLowerBound resolves after sampling");
                find_adversarial_demand(meta, paths, ctx.alpha.max(1)).demand
            }
        }
    }
}

/// Tag XOR-ed into stream-model seeds, decorrelating the demand-stream
/// RNG from template construction, sampling, and one-shot demand streams
/// started from the same numeric seed.
const STREAM_MODEL_TAG: u64 = 0x57E4_3A11_D00D_FEED;

/// How a [`ScenarioSpec::DemandStream`] evolves its demand over time.
///
/// A model is a pure function of `(n, steps)` plus its stored seed, so
/// the whole sequence is reproducible and hashable — a stream is a spec,
/// not a side effect.
///
/// # Examples
///
/// ```
/// use ssor_engine::StreamModel;
///
/// let model = StreamModel::DiurnalGravity {
///     total: 20.0.into(),
///     period: 8,
///     seed: 1,
/// };
/// let demands = model.sequence(10, 5);
/// assert_eq!(demands.len(), 5);
/// assert!(demands.iter().all(|d| d.size() > 0.0));
/// // Deterministic per seed.
/// assert_eq!(demands, model.sequence(10, 5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StreamModel {
    /// Gravity traffic with sinusoidal diurnal drift: one gravity
    /// model sampled per stream, one snapshot per step (hour
    /// `t` of `period`). The SMORE-style slowly-drifting WAN workload —
    /// the regime where warm starts shine.
    DiurnalGravity {
        /// Total traffic volume of the model (before modulation).
        total: Param,
        /// Steps per diurnal cycle.
        period: usize,
        /// Model seed.
        seed: u64,
    },
    /// `pairs` bursty flows, each flipping between OFF and ON (at
    /// `rate`) through a two-state Markov chain: OFF→ON with probability
    /// `p_on` per step, ON→OFF with `p_off`. Initial states draw from
    /// the stationary distribution. Support churn stresses the warm
    /// solver's pair bookkeeping (leaving pairs keep their carried
    /// distribution for when they return).
    BurstyOnOff {
        /// Number of (distinct, directed) flows.
        pairs: usize,
        /// Demand of a flow while ON.
        rate: Param,
        /// OFF → ON transition probability per step.
        p_on: Param,
        /// ON → OFF transition probability per step.
        p_off: Param,
        /// Model seed.
        seed: u64,
    },
}

impl StreamModel {
    /// Materializes the demand sequence for an `n`-vertex graph.
    ///
    /// # Panics
    ///
    /// Panics if the model's parameters are out of range (non-positive
    /// total/rate, probabilities outside `[0, 1]`, `period == 0`, or
    /// more pairs than an `n`-vertex graph has).
    pub fn sequence(&self, n: usize, steps: usize) -> Vec<Demand> {
        match *self {
            StreamModel::DiurnalGravity {
                total,
                period,
                seed,
            } => {
                assert!(total.value() > 0.0 && total.value().is_finite());
                assert!(period >= 1, "diurnal period must be positive");
                let mut rng = StdRng::seed_from_u64(seed ^ STREAM_MODEL_TAG);
                let model = GravityModel::sample(n, total.value(), &mut rng);
                (0..steps)
                    .map(|t| model.snapshot(t % period, period, &mut rng))
                    .collect()
            }
            StreamModel::BurstyOnOff {
                pairs,
                rate,
                p_on,
                p_off,
                seed,
            } => {
                assert!(rate.value() > 0.0 && rate.value().is_finite());
                let (p_on, p_off) = (p_on.value(), p_off.value());
                assert!((0.0..=1.0).contains(&p_on) && (0.0..=1.0).contains(&p_off));
                assert!(
                    pairs <= n.saturating_mul(n.saturating_sub(1)),
                    "more flows than ordered pairs"
                );
                let mut rng = StdRng::seed_from_u64(seed ^ STREAM_MODEL_TAG);
                let mut flows: Vec<(VertexId, VertexId)> = Vec::with_capacity(pairs);
                let mut guard = 0usize;
                while flows.len() < pairs && guard < 100 * pairs + 100 {
                    let s = rng.gen_range(0..n) as VertexId;
                    let t = rng.gen_range(0..n) as VertexId;
                    if s != t && !flows.contains(&(s, t)) {
                        flows.push((s, t));
                    }
                    guard += 1;
                }
                // Stationary initial states keep short streams unbiased.
                let p_stat = if p_on + p_off > 0.0 {
                    p_on / (p_on + p_off)
                } else {
                    0.0
                };
                let mut on: Vec<bool> = (0..flows.len()).map(|_| rng.gen_bool(p_stat)).collect();
                (0..steps)
                    .map(|step| {
                        if step > 0 {
                            for state in on.iter_mut() {
                                *state = if *state {
                                    !rng.gen_bool(p_off)
                                } else {
                                    rng.gen_bool(p_on)
                                };
                            }
                        }
                        let mut d = Demand::new();
                        for (&(s, t), &is_on) in flows.iter().zip(on.iter()) {
                            if is_on {
                                d.set(s, t, rate.value());
                            }
                        }
                        d
                    })
                    .collect()
            }
        }
    }
}

/// A named end-to-end workload: topology + recommended template + demand
/// batch, so a new experiment is a config value rather than a new binary.
///
/// # Examples
///
/// ```
/// use ssor_engine::ScenarioSpec;
///
/// let s = ScenarioSpec::HypercubeAdversarial { dim: 4 };
/// assert_eq!(s.demands().len(), 3);
/// let report = s.pipeline().alpha(2).run(&Default::default());
/// assert_eq!(report.records.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ScenarioSpec {
    /// Hypercube with the three classic adversarial permutations
    /// (bit-reversal, complement, transpose) under Valiant sampling.
    HypercubeAdversarial {
        /// Hypercube dimension.
        dim: u32,
    },
    /// Hypercube with `count` random permutations under Valiant sampling.
    HypercubePermutations {
        /// Hypercube dimension.
        dim: u32,
        /// Number of permutations.
        count: usize,
        /// Base demand seed.
        seed: u64,
    },
    /// A random permutation on any topology under Räcke sampling.
    Permutation {
        /// The graph family.
        topology: TopologySpec,
        /// Demand seed.
        seed: u64,
    },
    /// Gravity-model traffic on a Waxman WAN under Räcke sampling (the
    /// SMORE setting).
    GravityWan {
        /// WAN size.
        n: usize,
        /// Total traffic volume.
        total: Param,
        /// Seed for the WAN, the model, and the snapshot.
        seed: u64,
    },
    /// The Section 8 lower-bound instance: the gadget `C(n, k)` with the
    /// Lemma 8.1 adversary responding to the sampled system.
    LowerBound {
        /// Leaves per star.
        n: usize,
        /// Sparsity budget.
        alpha: usize,
    },
    /// A random-link-failure sweep over a (static) base scenario: per
    /// trial, `k_failures` edges are knocked out through a
    /// `ssor_graph::SubTopology` mask (derived-seed retries keep the
    /// damaged topology connected when possible), candidate paths
    /// crossing dead edges are dropped, and the base demands re-route on
    /// the survivors with a warm-started solve. Run with
    /// [`ScenarioSpec::run_dynamic`] or
    /// [`crate::Pipeline::failure_sweep`].
    FailureSweep {
        /// The scenario whose topology, template, and demands are swept.
        base: Box<ScenarioSpec>,
        /// Edges knocked out per trial.
        k_failures: usize,
        /// Number of independent trials.
        trials: usize,
    },
    /// A time-evolving demand stream over a (static) base scenario's
    /// topology and sampled path system: `steps` demands from `model`
    /// are routed in sequence with warm-started incremental solves,
    /// reported against a per-step cold-solve oracle. Run with
    /// [`ScenarioSpec::run_dynamic`] or [`crate::Pipeline::stream`].
    DemandStream {
        /// The scenario whose topology and template serve the stream.
        base: Box<ScenarioSpec>,
        /// Number of stream steps.
        steps: usize,
        /// The demand evolution model.
        model: StreamModel,
    },
}

impl ScenarioSpec {
    /// The topology this scenario routes on.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{ScenarioSpec, TopologySpec};
    /// let s = ScenarioSpec::HypercubeAdversarial { dim: 4 };
    /// assert_eq!(s.topology(), TopologySpec::Hypercube { dim: 4 });
    /// ```
    pub fn topology(&self) -> TopologySpec {
        match self {
            ScenarioSpec::HypercubeAdversarial { dim }
            | ScenarioSpec::HypercubePermutations { dim, .. } => {
                TopologySpec::Hypercube { dim: *dim }
            }
            ScenarioSpec::Permutation { topology, .. } => topology.clone(),
            ScenarioSpec::GravityWan { n, seed, .. } => TopologySpec::Waxman {
                n: *n,
                a: 0.4.into(),
                b: 0.25.into(),
                seed: *seed,
            },
            ScenarioSpec::LowerBound { n, alpha } => TopologySpec::LowerBoundC {
                n: *n,
                alpha: *alpha,
            },
            ScenarioSpec::FailureSweep { base, .. } | ScenarioSpec::DemandStream { base, .. } => {
                base.topology()
            }
        }
    }

    /// The template the seed experiments pair with this workload.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{ScenarioSpec, TemplateSpec};
    /// let s = ScenarioSpec::HypercubeAdversarial { dim: 4 };
    /// assert_eq!(s.template(), TemplateSpec::Valiant);
    /// ```
    pub fn template(&self) -> TemplateSpec {
        match self {
            ScenarioSpec::HypercubeAdversarial { .. }
            | ScenarioSpec::HypercubePermutations { .. } => TemplateSpec::Valiant,
            ScenarioSpec::Permutation { .. } | ScenarioSpec::GravityWan { .. } => {
                TemplateSpec::raecke()
            }
            // The lower bound is stated against any sparse system; KSP
            // gives the adversary a deterministic, inspectable support.
            ScenarioSpec::LowerBound { alpha, .. } => TemplateSpec::Ksp { k: (alpha + 1) * 2 },
            ScenarioSpec::FailureSweep { base, .. } | ScenarioSpec::DemandStream { base, .. } => {
                base.template()
            }
        }
    }

    /// The named demand batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::ScenarioSpec;
    /// let s = ScenarioSpec::HypercubePermutations { dim: 3, count: 2, seed: 1 };
    /// assert_eq!(s.demands().len(), 2);
    /// ```
    pub fn demands(&self) -> Vec<(String, DemandSpec)> {
        match self {
            ScenarioSpec::HypercubeAdversarial { dim } => {
                let mut v = vec![
                    ("bit-reversal".into(), DemandSpec::BitReversal),
                    ("complement".into(), DemandSpec::Complement),
                ];
                // The transpose permutation only exists in even dimension.
                if dim % 2 == 0 {
                    v.push(("transpose".into(), DemandSpec::Transpose));
                }
                v
            }
            ScenarioSpec::HypercubePermutations { count, seed, .. } => (0..*count)
                .map(|i| {
                    (
                        format!("random-{i}"),
                        DemandSpec::RandomPermutation {
                            seed: seed.wrapping_add(i as u64),
                        },
                    )
                })
                .collect(),
            ScenarioSpec::Permutation { seed, .. } => vec![(
                "random-perm".into(),
                DemandSpec::RandomPermutation { seed: *seed },
            )],
            ScenarioSpec::GravityWan { total, seed, .. } => vec![(
                "gravity".into(),
                DemandSpec::Gravity {
                    total: *total,
                    seed: *seed,
                },
            )],
            ScenarioSpec::LowerBound { .. } => {
                vec![("adversarial".into(), DemandSpec::AdversarialLowerBound)]
            }
            // The sweep re-routes the base demands per trial; the stream
            // generates its own sequence and ignores the batch.
            ScenarioSpec::FailureSweep { base, .. } | ScenarioSpec::DemandStream { base, .. } => {
                base.demands()
            }
        }
    }

    /// Assembles the full pipeline (topology + template + demands) with
    /// engine defaults; tune `alpha`, `seed`, and solve options on the
    /// returned builder.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::ScenarioSpec;
    /// let p = ScenarioSpec::HypercubeAdversarial { dim: 3 }.pipeline();
    /// assert_eq!(p.demand_count(), 2);
    /// ```
    pub fn pipeline(&self) -> crate::Pipeline {
        let p = crate::Pipeline::on(self.topology())
            .template(self.template())
            .demands(self.demands());
        // The lower-bound gadget is sized against a specific sparsity
        // budget; sampling at any other alpha would make the certified
        // k/alpha bound vacuous.
        match self {
            ScenarioSpec::LowerBound { alpha, .. } => p.alpha(*alpha),
            _ => p,
        }
    }

    /// Runs a dynamic scenario ([`ScenarioSpec::FailureSweep`] or
    /// [`ScenarioSpec::DemandStream`]) end to end through `cache`;
    /// returns `None` for static scenarios (use
    /// [`ScenarioSpec::pipeline`] + `run` for those).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{ScenarioSpec, StreamModel};
    ///
    /// let stream = ScenarioSpec::DemandStream {
    ///     base: Box::new(ScenarioSpec::HypercubeAdversarial { dim: 3 }),
    ///     steps: 3,
    ///     model: StreamModel::BurstyOnOff {
    ///         pairs: 4,
    ///         rate: 1.0.into(),
    ///         p_on: 0.6.into(),
    ///         p_off: 0.3.into(),
    ///         seed: 1,
    ///     },
    /// };
    /// let report = stream.run_dynamic(&Default::default()).unwrap();
    /// match report {
    ///     ssor_engine::DynamicReport::Stream(s) => assert_eq!(s.steps.len(), 3),
    ///     _ => unreachable!(),
    /// }
    /// ```
    pub fn run_dynamic(&self, cache: &crate::PathSystemCache) -> Option<crate::DynamicReport> {
        match self {
            ScenarioSpec::FailureSweep {
                base,
                k_failures,
                trials,
            } => Some(crate::DynamicReport::Failures(
                base.pipeline().failure_sweep(cache, *k_failures, *trials),
            )),
            ScenarioSpec::DemandStream { base, steps, model } => Some(
                crate::DynamicReport::Stream(base.pipeline().stream(cache, *steps, model)),
            ),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_build_expected_sizes() {
        assert_eq!(TopologySpec::Hypercube { dim: 4 }.build_graph().n(), 16);
        assert_eq!(
            TopologySpec::Grid { rows: 3, cols: 5 }.build_graph().n(),
            15
        );
        assert_eq!(TopologySpec::Ring { n: 9 }.build_graph().n(), 9);
        let (g, meta) = TopologySpec::LowerBoundC { n: 9, alpha: 1 }.build();
        let meta = meta.expect("gadget meta");
        assert_eq!(g.n(), 2 * meta.n + 2 + meta.k);
    }

    #[test]
    fn random_topologies_are_deterministic_per_seed() {
        let spec = TopologySpec::RandomRegular {
            n: 16,
            degree: 4,
            seed: 5,
        };
        let a = spec.build_graph();
        let b = spec.build_graph();
        assert_eq!(a.m(), b.m());
        for v in 0..16u32 {
            assert_eq!(a.degree(v), b.degree(v));
        }
    }

    #[test]
    #[should_panic(expected = "requires a hypercube")]
    fn valiant_rejects_non_hypercube() {
        let topo = TopologySpec::Ring { n: 8 };
        let g = topo.build_graph();
        TemplateSpec::Valiant.build(&topo, &g, 0);
    }

    #[test]
    fn templates_build_on_their_graphs() {
        let topo = TopologySpec::Grid { rows: 3, cols: 3 };
        let g = topo.build_graph();
        for spec in [
            TemplateSpec::raecke(),
            TemplateSpec::FrtEnsemble { trees: 4 },
            TemplateSpec::Ksp { k: 3 },
            TemplateSpec::ShortestPath,
            TemplateSpec::Ecmp,
            TemplateSpec::Electrical,
            TemplateSpec::RandomWalk {
                walks: 8,
                max_len: 64,
            },
            TemplateSpec::Vlb,
        ] {
            let t = spec.build(&topo, &g, 3);
            assert_eq!(t.graph().n(), 9, "{spec:?}");
        }
    }

    #[test]
    fn frt_ensemble_spec_is_deterministic_per_seed() {
        let topo = TopologySpec::Grid { rows: 3, cols: 3 };
        let g = topo.build_graph();
        let spec = TemplateSpec::FrtEnsemble { trees: 5 };
        let a = spec.build(&topo, &g, 9);
        let b = spec.build(&topo, &g, 9);
        let c = spec.build(&topo, &g, 10);
        assert_eq!(a.path_distribution(0, 8), b.path_distribution(0, 8));
        assert!(
            [(0u32, 8u32), (2, 6), (1, 7)]
                .iter()
                .any(|&(s, t)| a.path_distribution(s, t) != c.path_distribution(s, t)),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn demand_specs_resolve() {
        let topo = TopologySpec::Hypercube { dim: 3 };
        let g = topo.build_graph();
        let ctx = ResolveCtx::new(&topo, &g);
        assert!(DemandSpec::BitReversal.resolve(&ctx).is_permutation());
        assert!(DemandSpec::Complement.resolve(&ctx).is_permutation());
        let d = DemandSpec::RandomPermutation { seed: 3 }.resolve(&ctx);
        assert_eq!(d, DemandSpec::RandomPermutation { seed: 3 }.resolve(&ctx));
        let gvy = DemandSpec::Gravity {
            total: 10.0.into(),
            seed: 1,
        }
        .resolve(&ctx);
        assert!(gvy.size() > 0.0);
    }

    #[test]
    fn scenarios_expand_to_pipelines() {
        let s = ScenarioSpec::HypercubePermutations {
            dim: 3,
            count: 2,
            seed: 9,
        };
        assert_eq!(s.demands().len(), 2);
        assert_eq!(s.topology(), TopologySpec::Hypercube { dim: 3 });
        assert_eq!(s.template(), TemplateSpec::Valiant);
        let lb = ScenarioSpec::LowerBound { n: 9, alpha: 1 };
        assert!(matches!(lb.template(), TemplateSpec::Ksp { .. }));
    }

    #[test]
    fn param_hash_and_eq_are_bitwise() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Param::from(0.5));
        assert!(set.contains(&Param::from(0.5)));
        assert!(!set.contains(&Param::from(0.25)));
    }

    fn spec_hash(spec: &TemplateSpec) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        spec.hash(&mut h);
        h.finish()
    }

    #[test]
    fn electrical_and_random_walk_spec_hashes_are_stable() {
        // Specs key the engine's caches: equal specs must hash equal,
        // and every knob must reach the hash (a knob outside the hash
        // silently aliases cache entries).
        assert_eq!(
            spec_hash(&TemplateSpec::Electrical),
            spec_hash(&TemplateSpec::Electrical)
        );
        assert_ne!(
            spec_hash(&TemplateSpec::Electrical),
            spec_hash(&TemplateSpec::Ecmp)
        );
        let rw = TemplateSpec::RandomWalk {
            walks: 16,
            max_len: 64,
        };
        assert_eq!(spec_hash(&rw), spec_hash(&rw.clone()));
        let more_walks = TemplateSpec::RandomWalk {
            walks: 32,
            max_len: 64,
        };
        let longer = TemplateSpec::RandomWalk {
            walks: 16,
            max_len: 128,
        };
        assert_ne!(spec_hash(&rw), spec_hash(&more_walks));
        assert_ne!(spec_hash(&rw), spec_hash(&longer));
    }

    #[test]
    fn random_walk_spec_is_deterministic_per_seed() {
        let topo = TopologySpec::Grid { rows: 3, cols: 3 };
        let g = topo.build_graph();
        let spec = TemplateSpec::RandomWalk {
            walks: 16,
            max_len: 64,
        };
        let a = spec.build(&topo, &g, 9);
        let b = spec.build(&topo, &g, 9);
        let c = spec.build(&topo, &g, 10);
        assert_eq!(a.path_distribution(0, 8), b.path_distribution(0, 8));
        assert!(
            [(0u32, 8u32), (2, 6), (1, 7)]
                .iter()
                .any(|&(s, t)| a.path_distribution(s, t) != c.path_distribution(s, t)),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn electrical_spec_build_precomputes_and_reports_stats() {
        let topo = TopologySpec::Grid { rows: 3, cols: 3 };
        let g = topo.build_graph();
        let t = TemplateSpec::Electrical.build(&topo, &g, 0);
        let profile = t.build_profile().expect("electrical build records stages");
        assert_eq!(profile.stages(), [("metric", profile.total())]);
    }
}
