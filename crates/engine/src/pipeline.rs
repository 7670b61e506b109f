//! The five-stage pipeline, as one builder.
//!
//! Stage 1 builds the topology, stage 2 builds the oblivious template,
//! stage 3 `α`-samples a path system (parallel across pairs, memoized in a
//! [`PathSystemCache`]), stage 4 adapts rates per demand (parallel across
//! the demand batch), and stage 5 optionally rounds and packet-simulates
//! the result. Every experiment in `crates/bench` is a configuration of
//! this type; none of them hand-roll the stage plumbing anymore.

use crate::cache::{
    OptBounds, PathSystemCache, SharedGraph, SharedTemplate, TemplateBuildStats, TemplateBuilder,
};
use crate::sampling::{mix, par_alpha_sample};
use crate::spec::{DemandSpec, ResolveCtx, StreamModel, TemplateSpec, TopologySpec};
use crate::stream::{FailureSweepReport, FailureTrial, StreamReport, StreamStep};
use crate::sweep::{self, SweepOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssor_core::completion::{CompletionOptions, CompletionTimeRouter, ScaleGrowth};
use ssor_core::sample::all_pairs;
use ssor_core::{PathSystem, SemiObliviousRouter};
use ssor_flow::oracle::CandidateOracle;
use ssor_flow::rounding::round_routing;
use ssor_flow::solver::{
    min_congestion_masked, min_congestion_restricted, min_congestion_unrestricted, DemandDelta,
    Solver,
};
use ssor_flow::{Demand, SolveOptions};
use ssor_graph::obs::Stopwatch;
use ssor_graph::{
    derive_seed, par_ordered_map, Distributions, EdgeId, Graph, RouteTable, SubTopology,
};
use ssor_sim::{simulate_routing, SimConfig};
use std::sync::Arc;

/// What stage 4 optimizes.
///
/// # Examples
///
/// ```
/// use ssor_core::completion::ScaleGrowth;
/// use ssor_engine::Objective;
///
/// let a = Objective::Congestion;
/// let b = Objective::CompletionTime { growth: ScaleGrowth::Log };
/// assert_ne!(format!("{a:?}"), format!("{b:?}"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize congestion only (the paper's main setting, Sections 5–6).
    Congestion,
    /// Minimize `congestion + dilation` via the Section 7 hop-scale
    /// ladder. The ladder samples its own hop-constrained routings, so
    /// the pipeline's [`crate::TemplateSpec`] is not consulted under
    /// this objective.
    CompletionTime {
        /// How the hop-scale ladder grows.
        growth: ScaleGrowth,
    },
}

/// One demand's evaluation (one row of a [`RunReport`]).
///
/// # Examples
///
/// ```
/// use ssor_engine::{Pipeline, ScenarioSpec};
///
/// let report = ScenarioSpec::HypercubeAdversarial { dim: 3 }
///     .pipeline()
///     .alpha(2)
///     .run(&Default::default());
/// let rec = &report.records[0];
/// assert_eq!(rec.name, "bit-reversal");
/// assert!(rec.congestion > 0.0);
/// assert!(rec.ratio.unwrap() >= 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The demand's name in the batch.
    pub name: String,
    /// The sparsity budget the path system was sampled at.
    pub alpha: usize,
    /// Congestion achieved by the pipeline's routing.
    pub congestion: f64,
    /// Dilation (max hops) of the routing on this demand.
    pub dilation: usize,
    /// Certified lower bound on the offline optimum (congestion
    /// objective only).
    pub opt_lower_bound: Option<f64>,
    /// Primal offline-optimum value (upper bound on OPT).
    pub opt_upper_bound: Option<f64>,
    /// `congestion / opt_lower_bound`: an upper bound on the true
    /// competitive ratio.
    pub ratio: Option<f64>,
    /// Makespan of the packet simulation, when stage 5 ran.
    pub makespan: Option<usize>,
    /// Whether the stage-4 solve certified its target gap (`None` under
    /// [`Objective::CompletionTime`], which aggregates many solves).
    pub converged: Option<bool>,
    /// Where the stage-4 solve spent its work (`None` under
    /// [`Objective::CompletionTime`]).
    pub stats: Option<ssor_flow::SolverStats>,
}

impl EvalRecord {
    /// The `congestion + dilation` objective value.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::EvalRecord;
    /// let rec = EvalRecord {
    ///     name: "x".into(), alpha: 2, congestion: 1.5, dilation: 3,
    ///     opt_lower_bound: None, opt_upper_bound: None, ratio: None,
    ///     makespan: None, converged: None, stats: None,
    /// };
    /// assert_eq!(rec.objective(), 4.5);
    /// ```
    pub fn objective(&self) -> f64 {
        self.congestion + self.dilation as f64
    }
}

/// The result of [`Pipeline::run`]: one [`EvalRecord`] per demand, in
/// batch order, plus the wall-clock the run took.
///
/// # Examples
///
/// ```
/// use ssor_engine::{Pipeline, ScenarioSpec};
///
/// let report = ScenarioSpec::HypercubeAdversarial { dim: 3 }
///     .pipeline()
///     .alpha(2)
///     .run(&Default::default());
/// assert_eq!(report.records.len(), 2);
/// assert!(report.wall.as_nanos() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-demand evaluations, in the order the demands were added.
    pub records: Vec<EvalRecord>,
    /// Wall-clock duration of the whole run.
    pub wall: std::time::Duration,
    /// What the stage-2 template build cost (and whether the cache
    /// shared it); `None` under [`Objective::CompletionTime`], which
    /// builds no template.
    pub template: Option<TemplateBuildStats>,
}

impl RunReport {
    /// Geometric mean of the competitive ratios (demands without a ratio
    /// are skipped); `None` if no record has one.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, ScenarioSpec};
    ///
    /// let report = ScenarioSpec::HypercubeAdversarial { dim: 3 }
    ///     .pipeline()
    ///     .alpha(3)
    ///     .run(&Default::default());
    /// assert!(report.mean_ratio().unwrap() >= 0.9);
    /// ```
    pub fn mean_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self.records.iter().filter_map(|r| r.ratio).collect();
        if ratios.is_empty() {
            None
        } else {
            Some((ratios.iter().map(|x| x.ln()).sum::<f64>() / ratios.len() as f64).exp())
        }
    }

    /// Worst (largest) competitive ratio; `None` if no record has one.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, ScenarioSpec};
    ///
    /// let report = ScenarioSpec::HypercubeAdversarial { dim: 3 }
    ///     .pipeline()
    ///     .alpha(3)
    ///     .run(&Default::default());
    /// assert!(report.worst_ratio() >= report.mean_ratio());
    /// ```
    pub fn worst_ratio(&self) -> Option<f64> {
        self.records
            .iter()
            .filter_map(|r| r.ratio)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

/// The five-stage pipeline builder.
///
/// A `Pipeline` is a pure description — building one does no work.
/// [`Pipeline::prepare`] executes stages 1–3 (graph, template, sampling)
/// through the cache; [`Pipeline::run`] additionally evaluates the demand
/// batch (stages 4–5) with rayon parallelism across demands.
///
/// # Examples
///
/// ```
/// use ssor_engine::{DemandSpec, PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
///
/// let cache = PathSystemCache::new();
/// let report = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
///     .template(TemplateSpec::Valiant)
///     .alpha(3)
///     .seed(2023)
///     .demand("bit-reversal", DemandSpec::BitReversal)
///     .run(&cache);
/// let rec = &report.records[0];
/// assert!(rec.ratio.unwrap() < 8.0, "a few random paths already do well");
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    topology: TopologySpec,
    template: TemplateSpec,
    alpha: usize,
    seed: u64,
    solve: SolveOptions,
    demands: Vec<(String, DemandSpec)>,
    objective: Objective,
    simulate: Option<SimConfig>,
    compute_opt: bool,
}

impl Pipeline {
    /// Starts a pipeline on the given topology, with engine defaults:
    /// Räcke template, `α = 4`, seed 0, solver `eps = 0.05`, congestion
    /// objective, OPT baselines on, no simulation, empty demand batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Grid { rows: 3, cols: 3 });
    /// assert!(format!("{p:?}").contains("alpha: 4"));
    /// ```
    pub fn on(topology: TopologySpec) -> Pipeline {
        Pipeline {
            topology,
            template: TemplateSpec::raecke(),
            alpha: 4,
            seed: 0,
            solve: SolveOptions::with_eps(0.05),
            demands: Vec::new(),
            objective: Objective::Congestion,
            simulate: None,
            compute_opt: true,
        }
    }

    /// Sets the oblivious template (stage 2).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Hypercube { dim: 4 })
    ///     .template(TemplateSpec::Valiant);
    /// assert!(format!("{p:?}").contains("Valiant"));
    /// ```
    pub fn template(mut self, template: TemplateSpec) -> Pipeline {
        self.template = template;
        self
    }

    /// Replaces the topology (stage 1) on an existing description — the
    /// churn hook: a serving rebuild loop holds one base pipeline and
    /// rotates topologies (or seeds) across generations without
    /// re-stating the rest of the configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TopologySpec};
    /// let base = Pipeline::on(TopologySpec::Ring { n: 8 }).alpha(3);
    /// let p = base.clone().with_topology(TopologySpec::Ring { n: 10 });
    /// assert_eq!(p.prepare(&Default::default()).graph().n(), 10);
    /// ```
    pub fn with_topology(mut self, topology: TopologySpec) -> Pipeline {
        self.topology = topology;
        self
    }

    /// Sets the sparsity budget `α` (stage 3).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Ring { n: 8 }).alpha(7);
    /// assert!(format!("{p:?}").contains("alpha: 7"));
    /// ```
    pub fn alpha(mut self, alpha: usize) -> Pipeline {
        self.alpha = alpha;
        self
    }

    /// Sets the run seed (drives template construction and sampling).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TopologySpec};
    /// let _p = Pipeline::on(TopologySpec::Ring { n: 8 }).seed(99);
    /// ```
    pub fn seed(mut self, seed: u64) -> Pipeline {
        self.seed = seed;
        self
    }

    /// Sets the stage-4 solver options.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TopologySpec};
    /// use ssor_flow::SolveOptions;
    /// let _p = Pipeline::on(TopologySpec::Ring { n: 8 })
    ///     .solve_options(SolveOptions::with_eps(0.1));
    /// ```
    pub fn solve_options(mut self, solve: SolveOptions) -> Pipeline {
        self.solve = solve;
        self
    }

    /// Appends one named demand to the batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, Pipeline, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Ring { n: 8 })
    ///     .demand("a", DemandSpec::Pairs(vec![(0, 4)]))
    ///     .demand("b", DemandSpec::Pairs(vec![(1, 5)]));
    /// assert_eq!(p.demand_count(), 2);
    /// ```
    pub fn demand(mut self, name: impl Into<String>, spec: DemandSpec) -> Pipeline {
        self.demands.push((name.into(), spec));
        self
    }

    /// Replaces the demand batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, Pipeline, TopologySpec};
    /// let batch = vec![("x".to_string(), DemandSpec::Pairs(vec![(0, 3)]))];
    /// let p = Pipeline::on(TopologySpec::Ring { n: 8 }).demands(batch);
    /// assert_eq!(p.demand_count(), 1);
    /// ```
    pub fn demands(mut self, demands: Vec<(String, DemandSpec)>) -> Pipeline {
        self.demands = demands;
        self
    }

    /// Switches the stage-4 objective.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_core::completion::ScaleGrowth;
    /// use ssor_engine::{Objective, Pipeline, TopologySpec};
    /// let _p = Pipeline::on(TopologySpec::Ring { n: 8 })
    ///     .objective(Objective::CompletionTime { growth: ScaleGrowth::Log });
    /// ```
    pub fn objective(mut self, objective: Objective) -> Pipeline {
        self.objective = objective;
        self
    }

    /// Enables stage 5: round each demand's routing and packet-simulate
    /// it (integral demands only; non-integral demands skip simulation).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, Pipeline, TopologySpec};
    /// use ssor_sim::SimConfig;
    ///
    /// let report = Pipeline::on(TopologySpec::Ring { n: 6 })
    ///     .alpha(2)
    ///     .demand("one-pair", DemandSpec::Pairs(vec![(0, 3)]))
    ///     .simulate(SimConfig::default())
    ///     .run(&Default::default());
    /// assert!(report.records[0].makespan.unwrap() >= 3);
    /// ```
    pub fn simulate(mut self, config: SimConfig) -> Pipeline {
        self.simulate = Some(config);
        self
    }

    /// Disables the unrestricted-OPT baseline (records get no `ratio`);
    /// useful when only absolute congestion matters.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, Pipeline, TemplateSpec, TopologySpec};
    ///
    /// let report = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(2)
    ///     .demand("d", DemandSpec::BitReversal)
    ///     .without_opt()
    ///     .run(&Default::default());
    /// assert!(report.records[0].ratio.is_none());
    /// ```
    pub fn without_opt(mut self) -> Pipeline {
        self.compute_opt = false;
        self
    }

    /// The number of demands currently in the batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TopologySpec};
    /// assert_eq!(Pipeline::on(TopologySpec::Ring { n: 4 }).demand_count(), 0);
    /// ```
    pub fn demand_count(&self) -> usize {
        self.demands.len()
    }

    /// Executes stages 1–3 through `cache`: builds (or fetches) the
    /// graph and template, samples (or fetches) the path system, and
    /// wraps them in a ready-to-route [`PreparedPipeline`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
    ///
    /// let cache = PathSystemCache::new();
    /// let prepared = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(2)
    ///     .prepare(&cache);
    /// assert_eq!(prepared.paths().len(), 56, "all ordered pairs covered");
    /// ```
    pub fn prepare(&self, cache: &PathSystemCache) -> PreparedPipeline {
        let graph_and_meta = cache.graph(&self.topology);
        match self.objective {
            Objective::Congestion => {
                let (template, template_stats) =
                    TemplateBuilder::new(cache).build(&self.topology, &self.template, self.seed);
                // A hit clones the cached, already-validated router: two
                // pointer copies, no path is re-checked.
                let router = cache.router(
                    &self.topology,
                    &self.template,
                    self.alpha,
                    self.seed,
                    || {
                        let n = graph_and_meta.0.n();
                        Arc::new(par_alpha_sample(
                            template.as_ref(),
                            &all_pairs(n),
                            self.alpha,
                            self.seed,
                        ))
                    },
                );
                PreparedPipeline {
                    pipeline: self.clone(),
                    graph_and_meta,
                    template: Some(template),
                    template_stats: Some(template_stats),
                    router: PreparedRouter::Semi(router),
                }
            }
            // The Section 7 ladder builds its own per-hop-scale routings
            // and samples internally, so the configured template and the
            // congestion-objective path sample are not consulted at all —
            // skip both rather than compute and discard them.
            Objective::CompletionTime { growth } => {
                let opts = CompletionOptions {
                    alpha: self.alpha,
                    growth,
                    ..Default::default()
                };
                let mut rng = StdRng::seed_from_u64(self.seed);
                let n = graph_and_meta.0.n();
                let comp =
                    CompletionTimeRouter::build(&graph_and_meta.0, &all_pairs(n), &opts, &mut rng);
                PreparedPipeline {
                    pipeline: self.clone(),
                    graph_and_meta,
                    template: None,
                    template_stats: None,
                    router: PreparedRouter::Completion(Box::new(comp)),
                }
            }
        }
    }

    /// Runs the whole pipeline: stages 1–3 via [`Pipeline::prepare`],
    /// then stages 4–5 for every demand in the batch, in parallel across
    /// demands.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
    ///
    /// let cache = PathSystemCache::new();
    /// let base = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .demand("bit-reversal", DemandSpec::BitReversal);
    /// // Sweeping alpha reuses the cached graph, template, and OPT.
    /// let r1 = base.clone().alpha(1).run(&cache);
    /// let r4 = base.clone().alpha(4).run(&cache);
    /// assert!(r4.records[0].congestion <= r1.records[0].congestion * 1.1 + 1e-6);
    /// ```
    pub fn run(&self, cache: &PathSystemCache) -> RunReport {
        let clock = Stopwatch::start();
        let prepared = self.prepare(cache);
        // Stages 4–5 fan out over the demand batch; records come back in
        // batch order at any thread count (evaluations are independent;
        // the cache handles concurrent fills).
        let records = par_ordered_map(&self.demands, 2, |(name, spec)| {
            prepared.evaluate(cache, name, spec)
        });
        RunReport {
            records,
            wall: clock.elapsed(),
            template: prepared.template_stats,
        }
    }

    /// The stream stage: routes a `steps`-long demand sequence from
    /// `model` through the pipeline's (cached) path system with
    /// **warm-started** incremental solves — each step re-solves from the
    /// previous step's flow instead of from scratch. Unless
    /// [`Pipeline::without_opt`] was set, every step also runs the
    /// cold-solve oracle on the same restricted problem and reports the
    /// warm/cold congestion ratio (≈1 certifies that warm starts lose no
    /// quality).
    ///
    /// When [`Pipeline::simulate`] is enabled, integral steps are
    /// additionally rounded and packet-simulated.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, StreamModel, TemplateSpec, TopologySpec};
    ///
    /// let model = StreamModel::BurstyOnOff {
    ///     pairs: 5,
    ///     rate: 1.0.into(),
    ///     p_on: 0.5.into(),
    ///     p_off: 0.3.into(),
    ///     seed: 2,
    /// };
    /// let report = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(2)
    ///     .stream(&Default::default(), 4, &model);
    /// assert_eq!(report.steps.len(), 4);
    /// assert!(report.worst_vs_cold().unwrap() < 1.2);
    /// ```
    pub fn stream(
        &self,
        cache: &PathSystemCache,
        steps: usize,
        model: &StreamModel,
    ) -> StreamReport {
        let prepared = self.prepare(cache);
        let g = prepared.graph();
        let demands = model.sequence(g.n(), steps);
        let clock = Stopwatch::start();
        let mut warm_sol = Solver::new(g);
        let mut records = Vec::with_capacity(steps);
        for (step, d) in demands.into_iter().enumerate() {
            let mut oracle = CandidateOracle::new(prepared.paths());
            let sol =
                warm_sol.resolve(g, DemandDelta::Replace(d.clone()), &mut oracle, &self.solve);
            let cold = self
                .compute_opt
                .then(|| min_congestion_restricted(g, &d, prepared.paths(), &self.solve));
            let vs_cold = cold.as_ref().map(|c| {
                if c.congestion > 0.0 {
                    sol.congestion / c.congestion
                } else {
                    1.0
                }
            });
            let makespan = self.simulate.as_ref().and_then(|cfg| {
                if d.is_empty() || !d.is_integral() {
                    return None;
                }
                // Per-step streams via the shared `derive_seed` helper —
                // the same derivation the failure sweep and the sweep
                // scheduler use. Stream-compat note: this replaced an
                // ad-hoc `seed ^ TAG ^ mix(step)` XOR composition, so
                // makespans differ from pre-sweep-layer runs; nothing
                // golden pins the old stream (makespans are seed-local
                // quantities), and congestion records are unaffected.
                let mut rng =
                    StdRng::seed_from_u64(derive_seed(self.seed ^ SIM_STREAM_TAG, step as u64));
                let rounded = round_routing(g, &sol.routing, &d, 16, &mut rng);
                let cfg = cfg.with_seed(derive_seed(cfg.seed, step as u64));
                Some(simulate_routing(g, &rounded.routing, &cfg).makespan)
            });
            records.push(StreamStep {
                step,
                size: d.size(),
                congestion: sol.congestion,
                lower_bound: sol.lower_bound,
                iterations: sol.iterations,
                converged: sol.converged,
                cold_congestion: cold.as_ref().map(|c| c.congestion),
                cold_iterations: cold.as_ref().map(|c| c.iterations),
                vs_cold,
                makespan,
            });
        }
        StreamReport {
            steps: records,
            wall: clock.elapsed(),
            template: prepared.template_stats,
        }
    }

    /// The failure-sweep stage: `trials` independent trials, each
    /// knocking `k_failures` random edges out of the topology through a
    /// [`SubTopology`] mask (derived-seed retries keep the damaged
    /// topology connected when possible), dropping candidate paths that
    /// cross dead edges, and re-routing every base demand on the
    /// survivors with a **warm-started** solve seeded from the intact
    /// topology's solution. Unless [`Pipeline::without_opt`] was set,
    /// each record also carries a cold restricted solve on the same
    /// survivors plus the certified optimum of the *damaged* topology
    /// (masked all-paths solve) and the resulting ratio.
    ///
    /// The intact-topology template (and its sampled path system) is
    /// built **once** through the cache and shared by every trial —
    /// failures mask edges and drop candidate paths, they never rebuild
    /// templates. The report's
    /// [`template`](crate::FailureSweepReport::template) stats record
    /// that single build (or cache share).
    ///
    /// # Panics
    ///
    /// Panics if the demand batch is empty or `k_failures >= m`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, Pipeline, TemplateSpec, TopologySpec};
    ///
    /// let report = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(3)
    ///     .demand("complement", DemandSpec::Complement)
    ///     .failure_sweep(&Default::default(), 2, 3);
    /// assert_eq!(report.trials.len(), 3);
    /// assert!(report.mean_coverage() > 0.5);
    /// ```
    pub fn failure_sweep(
        &self,
        cache: &PathSystemCache,
        k_failures: usize,
        trials: usize,
    ) -> FailureSweepReport {
        self.failure_sweep_sharded(cache, k_failures, trials, None)
    }

    /// [`Pipeline::failure_sweep`] with an explicit worker count: the
    /// trials are sharded across the [`crate::sweep`] scheduler (each
    /// trial is one cell), `threads = None` follows the ambient rayon
    /// setting and `Some(n)` pins it for this sweep. Because every
    /// trial's RNG stream is derived from `(seed, trial, attempt)` alone
    /// and records are assembled in trial order, the report is
    /// bit-identical at every worker count — and to the serial
    /// implementation this rewires.
    pub fn failure_sweep_sharded(
        &self,
        cache: &PathSystemCache,
        k_failures: usize,
        trials: usize,
        threads: Option<usize>,
    ) -> FailureSweepReport {
        let clock = Stopwatch::start();
        let prepared = self.prepare(cache);
        let g = prepared.graph();
        assert!(
            k_failures < g.m(),
            "cannot fail {k_failures} of {} edges",
            g.m()
        );
        assert!(
            !self.demands.is_empty(),
            "failure sweep needs at least one demand in the batch"
        );
        let demands: Vec<(String, Demand)> = self
            .demands
            .iter()
            .map(|(name, spec)| (name.clone(), prepared.resolve(spec)))
            .collect();
        // One warm base solver per demand on the intact topology; every
        // trial clones it, invalidates the dead edges, and re-solves.
        let base_warm: Vec<Solver> = demands
            .iter()
            .map(|(_, d)| {
                let mut oracle = CandidateOracle::new(prepared.paths());
                Solver::solve(g, d, &mut oracle, &self.solve)
            })
            .collect();
        // Each trial is one sweep cell over the shared read-only context
        // (path system, resolved demands, warm base solvers). The cell
        // seed the scheduler derives is unused: the trial streams keep
        // their own `derive_seed`-based derivation (see
        // `draw_failures`), unchanged from the serial implementation.
        let cells = sweep::cells(0..trials);
        let opts = SweepOptions {
            master_seed: self.seed,
            threads,
            ..SweepOptions::default()
        };
        let outcome = sweep::run_sweep(&cells, &opts, |cell, _cell_seed| {
            let trial = cell.payload;
            let mut sub = g.sub_topology();
            let (dead, attempts) = self.draw_failures(&mut sub, k_failures, trial);
            let mut survivors = prepared.paths().clone();
            for &e in &dead {
                survivors.remove_paths_through(e);
            }
            let usable = sub.usable_edges();
            let mut records = Vec::with_capacity(demands.len());
            for ((name, d), warm0) in demands.iter().zip(base_warm.iter()) {
                let covered = d.filtered(|s, t, _| survivors.covers_pair(s, t));
                let coverage = if d.support_len() == 0 {
                    1.0
                } else {
                    covered.support_len() as f64 / d.support_len() as f64
                };
                // Demand mass with no surviving candidate path; solves
                // below may add to it (a pair the mask itself
                // disconnects is dropped by the solver and reported
                // rather than panicking mid-trial).
                let mut stranded = d.size() - covered.size();
                let (congestion, iterations, cold_congestion) = if covered.is_empty() {
                    (None, 0, None)
                } else {
                    let mut warm = warm0.clone();
                    warm.invalidate_edges(&dead);
                    let mut oracle = CandidateOracle::new(&survivors);
                    let sol = warm.resolve(
                        g,
                        DemandDelta::Replace(covered.clone()),
                        &mut oracle,
                        &self.solve,
                    );
                    stranded += sol.stranded;
                    // The cold restricted baseline is a quality oracle
                    // like the stream's — skipped under `without_opt`.
                    let cold = self.compute_opt.then(|| {
                        min_congestion_restricted(g, &covered, &survivors, &self.solve).congestion
                    });
                    (Some(sol.congestion), sol.iterations, cold)
                };
                // Covered pairs stay reachable through the mask (their
                // surviving candidate path lies inside it), so the
                // masked OPT normally strands nothing; if a draw that
                // exhausted its connectivity retries ever does, the
                // mass lands in `stranded` instead of aborting.
                let opt_lower_bound = (self.compute_opt && !covered.is_empty()).then(|| {
                    let opt = min_congestion_masked(g, &covered, &usable, &self.solve);
                    stranded += opt.stranded;
                    opt.lower_bound
                });
                let ratio = match (congestion, opt_lower_bound) {
                    (Some(c), Some(lb)) => Some(c / lb.max(f64::MIN_POSITIVE)),
                    _ => None,
                };
                records.push(FailureTrial {
                    trial,
                    demand: name.clone(),
                    failed_edges: dead.clone(),
                    attempts,
                    coverage,
                    stranded,
                    congestion,
                    iterations,
                    cold_congestion,
                    opt_lower_bound,
                    ratio,
                });
            }
            records
        });
        // Records come back in ascending cell id = trial order, demands
        // inner — the exact order the serial loop produced.
        let trials_flat: Vec<FailureTrial> = outcome
            .records
            .into_iter()
            .flat_map(|r| {
                r.result
                    .expect("no journal configured: every cell is fresh")
            })
            .collect();
        FailureSweepReport {
            trials: trials_flat,
            wall: clock.elapsed(),
            template: prepared.template_stats,
        }
    }

    /// Draws `k` distinct dead edges for `trial` into `sub` (left failed
    /// on return), retrying with derived seeds — bounded and
    /// deterministic — when the knockout disconnects the topology.
    /// Returns the sorted dead edges and the number of rejected draws.
    fn draw_failures(&self, sub: &mut SubTopology, k: usize, trial: usize) -> (Vec<EdgeId>, usize) {
        const MAX_ATTEMPTS: usize = 8;
        let m = sub.m();
        let mut dead: Vec<EdgeId> = Vec::new();
        for attempt in 0..MAX_ATTEMPTS {
            sub.restore_all();
            // One source of truth for per-item streams: the retry layer
            // is `derive_seed(trial_master, attempt)`, whose nested
            // mixing keeps distinct (trial, attempt) pairs on distinct
            // streams (an XOR of finalized values would be symmetric
            // and collide them). `derive_seed(m, i)` expands to
            // `mix(mix(m) ^ i)` — byte-identical to the derivation this
            // replaced, so historical failure draws are preserved.
            let trial_master = self.seed ^ FAILURE_STREAM_TAG ^ mix(trial as u64);
            let mut rng = StdRng::seed_from_u64(derive_seed(trial_master, attempt as u64));
            // Partial Fisher–Yates: k distinct edge ids.
            let mut ids: Vec<EdgeId> = (0..m as EdgeId).collect();
            for i in 0..k {
                let j = rng.gen_range(i..m);
                ids.swap(i, j);
            }
            dead = ids[..k].to_vec();
            dead.sort_unstable();
            for &e in &dead {
                sub.fail_edge(e);
            }
            if sub.is_connected() {
                return (dead, attempt);
            }
        }
        // Retries exhausted: keep the last draw. Re-routes and the masked
        // OPT act on covered pairs only, which remain reachable, so a
        // disconnected trial degrades coverage instead of panicking.
        (dead, MAX_ATTEMPTS)
    }
}

/// Which router stage 4 uses.
enum PreparedRouter {
    Semi(SemiObliviousRouter),
    Completion(Box<CompletionTimeRouter>),
}

/// Stages 1–3, executed: graph + template + sampled path system, ready
/// to route demands (see [`Pipeline::prepare`]).
///
/// # Examples
///
/// ```
/// use ssor_engine::{PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
///
/// let cache = PathSystemCache::new();
/// let prepared = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
///     .template(TemplateSpec::Valiant)
///     .alpha(2)
///     .prepare(&cache);
/// assert_eq!(prepared.graph().n(), 8);
/// assert!(prepared.paths().sparsity() <= 2);
/// ```
pub struct PreparedPipeline {
    pipeline: Pipeline,
    graph_and_meta: SharedGraph,
    /// `None` under [`Objective::CompletionTime`], which builds its own
    /// hop-ladder routings instead of sampling a template.
    template: Option<SharedTemplate>,
    /// What the stage-2 build cost (`None` when no template was built).
    template_stats: Option<TemplateBuildStats>,
    /// Stage 4, which also owns the stage-3 path system.
    router: PreparedRouter,
}

impl PreparedPipeline {
    /// The routed graph.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Ring { n: 6 }).alpha(1)
    ///     .prepare(&Default::default());
    /// assert_eq!(p.graph().n(), 6);
    /// ```
    pub fn graph(&self) -> &Graph {
        &self.graph_and_meta.0
    }

    /// The oblivious template the paths were sampled from (stage 2) —
    /// useful for comparing against the un-adapted oblivious routing.
    /// `None` under [`Objective::CompletionTime`], whose hop-ladder
    /// builds its own routings and consults no template.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};
    /// use ssor_flow::Demand;
    ///
    /// let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(2)
    ///     .prepare(&Default::default());
    /// let template = p.template().expect("congestion objective has one");
    /// let oblivious_cong = template.congestion(&Demand::hypercube_bit_reversal(3));
    /// assert!(oblivious_cong > 0.0);
    /// ```
    pub fn template(&self) -> Option<&dyn ssor_oblivious::ObliviousRouting> {
        self.template
            .as_deref()
            .map(|t| t as &dyn ssor_oblivious::ObliviousRouting)
    }

    /// Freezes the stage-3 path system into an immutable [`RouteTable`]
    /// serving snapshot stamped with `generation` — what a `ssor-serve`
    /// rebuilder publishes after each churn step. Each pair serves its
    /// sampled `P(s, t)` (at most `α` distinct paths, in
    /// [`paths`](Self::paths) order) at equal rates: one raw weight per
    /// path through the one normalizer. The table's arena is a clone of
    /// the path system's, so its ids are the system's and no path is
    /// hashed again. `None` under [`Objective::CompletionTime`] (no
    /// semi-oblivious router).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(2)
    ///     .prepare(&Default::default());
    /// let table = p.route_table(1).expect("congestion objective");
    /// assert_eq!(table.pair_count(), 56);
    /// ```
    pub fn route_table(&self, generation: u64) -> Option<RouteTable> {
        let paths = self.router()?.paths();
        let runs = paths.pairs().map(|(s, t)| {
            let ids = paths.path_ids(s, t).unwrap_or_default();
            ((s, t), ids.iter().map(|&id| (id, 1.0)))
        });
        let dists = Distributions::from_runs(paths.store().clone(), runs);
        Some(RouteTable::freeze(self.graph().n(), generation, dists))
    }

    /// The sampled path system (stage 3): the router's own, or the
    /// completion-time ladder's union.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(3)
    ///     .prepare(&Default::default());
    /// assert_eq!(p.paths().len(), 56);
    /// ```
    pub fn paths(&self) -> &PathSystem {
        match &self.router {
            PreparedRouter::Semi(r) => r.paths(),
            PreparedRouter::Completion(comp) => comp.path_system(),
        }
    }

    /// The stage-4 semi-oblivious router (congestion objective only).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{Pipeline, TemplateSpec, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(2)
    ///     .prepare(&Default::default());
    /// assert!(p.router().is_some());
    /// ```
    pub fn router(&self) -> Option<&SemiObliviousRouter> {
        match &self.router {
            PreparedRouter::Semi(r) => Some(r),
            PreparedRouter::Completion(_) => None,
        }
    }

    /// Resolves one demand spec against this pipeline's graph and paths
    /// (so [`DemandSpec::AdversarialLowerBound`] sees the sampled
    /// system).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_engine::{DemandSpec, Pipeline, TemplateSpec, TopologySpec};
    /// let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
    ///     .template(TemplateSpec::Valiant)
    ///     .alpha(2)
    ///     .prepare(&Default::default());
    /// let d = p.resolve(&DemandSpec::BitReversal);
    /// assert!(d.is_permutation());
    /// ```
    pub fn resolve(&self, spec: &DemandSpec) -> Demand {
        let ctx = ResolveCtx::new(&self.pipeline.topology, &self.graph_and_meta.0).with_paths(
            self.graph_and_meta.1.as_ref(),
            self.paths(),
            self.pipeline.alpha,
        );
        spec.resolve(&ctx)
    }

    /// Stages 4–5 for one named demand.
    fn evaluate(&self, cache: &PathSystemCache, name: &str, spec: &DemandSpec) -> EvalRecord {
        let d = self.resolve(spec);
        let opts = &self.pipeline.solve;
        let (routing, congestion, dilation, converged, stats) = match &self.router {
            PreparedRouter::Semi(router) => {
                let sol = router.route_fractional(&d, opts);
                let dil = sol.routing.dilation(&d);
                (
                    sol.routing,
                    sol.congestion,
                    dil,
                    Some(sol.converged),
                    Some(sol.stats),
                )
            }
            // The completion objective aggregates one solve per hop
            // scale; a single converged/stats pair would misattribute.
            PreparedRouter::Completion(comp) => {
                let route = comp.route(&d, opts);
                (route.routing, route.congestion, route.dilation, None, None)
            }
        };

        let opt = if self.pipeline.compute_opt && !d.is_empty() {
            let solve = || {
                let sol = min_congestion_unrestricted(&self.graph_and_meta.0, &d, opts);
                OptBounds {
                    congestion: sol.congestion,
                    lower_bound: sol.lower_bound,
                }
            };
            // The adversarial demand depends on the sampled paths, so its
            // identity is not captured by (topology, spec, eps) — solve it
            // uncached rather than risk a stale hit across alphas.
            Some(if matches!(spec, DemandSpec::AdversarialLowerBound) {
                solve()
            } else {
                cache.opt_bounds(&self.pipeline.topology, spec, opts, solve)
            })
        } else {
            None
        };
        let ratio = opt.map(|o| congestion / o.lower_bound.max(f64::MIN_POSITIVE));

        let makespan = self.pipeline.simulate.as_ref().and_then(|cfg| {
            if d.is_empty() || !d.is_integral() {
                return None;
            }
            let mut rng = StdRng::seed_from_u64(self.pipeline.seed ^ SIM_STREAM_TAG);
            let rounded = round_routing(&self.graph_and_meta.0, &routing, &d, 16, &mut rng);
            Some(simulate_routing(&self.graph_and_meta.0, &rounded.routing, cfg).makespan)
        });

        EvalRecord {
            name: name.to_string(),
            alpha: self.pipeline.alpha,
            congestion,
            dilation,
            opt_lower_bound: opt.map(|o| o.lower_bound),
            opt_upper_bound: opt.map(|o| o.congestion),
            ratio,
            makespan,
            converged,
            stats,
        }
    }
}

/// Tag XOR-ed into the run seed for the rounding/simulation RNG stream,
/// keeping it decorrelated from the sampling stream.
const SIM_STREAM_TAG: u64 = 0x51D3_4D31_7261_C0DE;

/// Tag XOR-ed into the run seed for the failure-sweep trial stream.
const FAILURE_STREAM_TAG: u64 = 0xFA11_0E4E_D15A_57E4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn quick_opts() -> SolveOptions {
        SolveOptions::with_eps(0.1)
    }

    #[test]
    fn run_report_matches_seed_router_semantics() {
        // The pipeline's numbers must agree with driving the stages by
        // hand through the same path system.
        let cache = PathSystemCache::new();
        let p = Pipeline::on(TopologySpec::Hypercube { dim: 4 })
            .template(TemplateSpec::Valiant)
            .alpha(4)
            .seed(7)
            .solve_options(quick_opts())
            .demand("bit-reversal", DemandSpec::BitReversal);
        let report = p.run(&cache);
        let rec = &report.records[0];

        let prepared = p.prepare(&cache);
        let router = prepared.router().unwrap();
        let manual = router.competitive_report(&Demand::hypercube_bit_reversal(4), &quick_opts());
        assert!((rec.congestion - manual.semi_oblivious).abs() < 1e-9);
        assert!(rec.ratio.unwrap() >= 0.9);
    }

    #[test]
    fn alpha_sweep_hits_opt_cache() {
        let cache = PathSystemCache::new();
        let base = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
            .template(TemplateSpec::Valiant)
            .solve_options(quick_opts())
            .demand("d", DemandSpec::BitReversal);
        base.clone().alpha(1).run(&cache);
        let before = cache.stats();
        base.clone().alpha(2).run(&cache);
        let after = cache.stats();
        // Second alpha reuses graph, template, and the OPT bound; only
        // the alpha=2 path system is a new miss.
        assert_eq!(after.misses, before.misses + 1);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn larger_alpha_does_not_hurt() {
        let cache = PathSystemCache::new();
        let base = Pipeline::on(TopologySpec::Hypercube { dim: 4 })
            .template(TemplateSpec::Valiant)
            .seed(3)
            .solve_options(quick_opts())
            .demand("d", DemandSpec::BitReversal);
        let r1 = base.clone().alpha(1).run(&cache);
        let r6 = base.clone().alpha(6).run(&cache);
        assert!(
            r6.records[0].congestion <= r1.records[0].congestion * 1.15 + 1e-6,
            "alpha=6 {} vs alpha=1 {}",
            r6.records[0].congestion,
            r1.records[0].congestion
        );
    }

    #[test]
    fn completion_objective_reports_dilation() {
        let cache = PathSystemCache::new();
        let report = Pipeline::on(TopologySpec::Ring { n: 8 })
            .objective(Objective::CompletionTime {
                growth: ScaleGrowth::Log,
            })
            .alpha(2)
            .solve_options(quick_opts())
            .without_opt()
            .demand("pairs", DemandSpec::Pairs(vec![(0, 4), (1, 5)]))
            .run(&cache);
        let rec = &report.records[0];
        assert!(rec.dilation >= 1);
        assert!(rec.objective() > rec.congestion);
    }

    #[test]
    fn simulation_stage_produces_makespans() {
        let cache = PathSystemCache::new();
        let report = Pipeline::on(TopologySpec::Ring { n: 6 })
            .alpha(2)
            .solve_options(quick_opts())
            .demand("p", DemandSpec::Pairs(vec![(0, 3), (1, 4)]))
            .simulate(SimConfig::default())
            .run(&cache);
        let rec = &report.records[0];
        // A 6-ring pair is >= 2 hops away; makespan at least that.
        assert!(rec.makespan.unwrap() >= 2);
    }

    #[test]
    fn gravity_demand_skips_simulation_but_routes() {
        let cache = PathSystemCache::new();
        let report = ScenarioSpec::GravityWan {
            n: 12,
            total: 20.0.into(),
            seed: 4,
        }
        .pipeline()
        .alpha(2)
        .solve_options(quick_opts())
        .simulate(SimConfig::default())
        .run(&cache);
        let rec = &report.records[0];
        assert!(rec.congestion > 0.0);
        assert!(rec.makespan.is_none(), "fractional demand cannot simulate");
    }

    #[test]
    fn lower_bound_scenario_finds_hard_demand() {
        let cache = PathSystemCache::new();
        let report = ScenarioSpec::LowerBound { n: 16, alpha: 1 }
            .pipeline()
            .alpha(1)
            .solve_options(quick_opts())
            .run(&cache);
        let rec = &report.records[0];
        // Lemma 8.1: the adversary forces a ratio strictly above 1
        // against a 1-sparse system (OPT routes it with congestion ~1).
        assert!(
            rec.ratio.unwrap() > 1.2,
            "adversary too weak: ratio {}",
            rec.ratio.unwrap()
        );
    }

    #[test]
    fn reports_surface_template_build_stats() {
        let cache = PathSystemCache::new();
        let p = Pipeline::on(TopologySpec::Grid { rows: 3, cols: 3 })
            .alpha(2)
            .solve_options(quick_opts())
            .without_opt()
            .demand("d", DemandSpec::Pairs(vec![(0, 8)]));
        let first = p.run(&cache);
        let t1 = first
            .template
            .expect("congestion objective builds a template");
        assert!(!t1.cached);
        assert!(
            !t1.profile.stages().is_empty(),
            "default Raecke template reports stages"
        );
        let second = p.run(&cache);
        assert!(
            second.template.unwrap().cached,
            "re-run shares the template"
        );
    }

    #[test]
    fn failure_sweep_shares_intact_template_across_trials() {
        let cache = PathSystemCache::new();
        let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
            .template(TemplateSpec::Valiant)
            .alpha(2)
            .solve_options(quick_opts())
            .without_opt()
            .demand("complement", DemandSpec::Complement);
        let report = p.failure_sweep(&cache, 1, 3);
        let stats = report.template.expect("sweep records its one build");
        assert!(!stats.cached, "one construction serves all trials");
        // A second sweep over the same cache shares the template outright.
        let again = p.failure_sweep(&cache, 1, 2);
        assert!(again.template.unwrap().cached);
    }

    #[test]
    fn batch_order_is_preserved_under_parallel_eval() {
        let cache = PathSystemCache::new();
        let names: Vec<String> = (0..8).map(|i| format!("perm-{i}")).collect();
        let batch: Vec<(String, DemandSpec)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), DemandSpec::RandomPermutation { seed: i as u64 }))
            .collect();
        let report = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
            .template(TemplateSpec::Valiant)
            .alpha(2)
            .solve_options(quick_opts())
            .demands(batch)
            .run(&cache);
        let got: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(got, names.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    }
}
