//! Reports for the dynamic-scenario runners ([`crate::Pipeline::stream`]
//! and [`crate::Pipeline::failure_sweep`]).
//!
//! A *stream* run routes a time-evolving demand sequence through the
//! pipeline's fixed sampled path system with warm-started incremental
//! solves (a kept `ssor_flow::Solver`), optionally checking every step
//! against a cold-solve oracle of the same restricted problem. A
//! *failure sweep* knocks random edge sets out through a
//! `ssor_graph::SubTopology` mask, drops the candidate paths crossing
//! them, and re-routes the base demands on the survivors — comparing
//! against the offline optimum of the damaged topology.

use crate::cache::TemplateBuildStats;
use ssor_graph::EdgeId;
use std::time::Duration;

/// One step of a [`StreamReport`].
#[derive(Debug, Clone)]
pub struct StreamStep {
    /// Step index in the stream.
    pub step: usize,
    /// `siz(d)` of the step's demand.
    pub size: f64,
    /// Congestion of the (warm-started) solve.
    pub congestion: f64,
    /// Certified dual lower bound of the solve.
    pub lower_bound: f64,
    /// Frank–Wolfe iterations the solve took.
    pub iterations: usize,
    /// Whether the solve certified its target gap (see
    /// `ssor_flow::MinCongSolution::converged`).
    pub converged: bool,
    /// Congestion of the cold-solve oracle on the same step (absent when
    /// the baseline is disabled or this is itself a cold run).
    pub cold_congestion: Option<f64>,
    /// Iterations the cold-solve oracle took.
    pub cold_iterations: Option<usize>,
    /// `congestion / cold_congestion` — the warm solve's quality relative
    /// to solving from scratch (1.0 when both are zero).
    pub vs_cold: Option<f64>,
    /// Makespan of the packet simulation, when stage 5 is enabled and
    /// the step's demand is integral.
    pub makespan: Option<usize>,
}

/// The result of a stream run: one [`StreamStep`] per demand, in order.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-step records.
    pub steps: Vec<StreamStep>,
    /// Wall-clock duration of the whole run (excluding stage 1–3
    /// preparation answered by the cache).
    pub wall: Duration,
    /// What the single stage-2 template build behind the whole stream
    /// cost (`cached` when a shared cache had already built it).
    pub template: Option<TemplateBuildStats>,
}

impl StreamReport {
    /// Total solver iterations across the stream.
    pub fn total_iterations(&self) -> usize {
        self.steps.iter().map(|s| s.iterations).sum()
    }

    /// Total cold-oracle iterations, if the baseline ran on every step.
    pub fn cold_total_iterations(&self) -> Option<usize> {
        self.steps.iter().map(|s| s.cold_iterations).sum()
    }

    /// Whether every step's solve certified its target gap.
    pub fn all_converged(&self) -> bool {
        self.steps.iter().all(|s| s.converged)
    }

    /// Worst (largest) per-step `vs_cold` ratio; `None` without a
    /// baseline.
    pub fn worst_vs_cold(&self) -> Option<f64> {
        self.steps
            .iter()
            .filter_map(|s| s.vs_cold)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Geometric mean of the per-step `vs_cold` ratios; `None` without a
    /// baseline.
    pub fn mean_vs_cold(&self) -> Option<f64> {
        let ratios: Vec<f64> = self.steps.iter().filter_map(|s| s.vs_cold).collect();
        if ratios.is_empty() {
            None
        } else {
            Some((ratios.iter().map(|x| x.ln()).sum::<f64>() / ratios.len() as f64).exp())
        }
    }
}

/// One `(trial, demand)` record of a [`FailureSweepReport`].
#[derive(Debug, Clone)]
pub struct FailureTrial {
    /// Trial index.
    pub trial: usize,
    /// Name of the base demand this record re-routes.
    pub demand: String,
    /// The knocked-out edge ids (base-graph ids), sorted.
    pub failed_edges: Vec<EdgeId>,
    /// Derived-seed draws *rejected* because they disconnected the
    /// topology (0 = first draw accepted; the bound reached means the
    /// last draw was kept even though it disconnects).
    pub attempts: usize,
    /// Fraction of the demand's pairs with at least one surviving
    /// candidate path.
    pub coverage: f64,
    /// Stranded demand *mass*: demand with no surviving candidate path,
    /// plus anything the solves themselves had to drop as unroutable
    /// (e.g. a pair the damage physically disconnected). The
    /// mass-weighted complement of `coverage`.
    pub stranded: f64,
    /// Congestion of the warm-started re-route on the covered
    /// sub-demand (`None` if nothing survived).
    pub congestion: Option<f64>,
    /// Iterations the warm re-route took.
    pub iterations: usize,
    /// Congestion of a cold restricted solve on the same survivors.
    pub cold_congestion: Option<f64>,
    /// Certified lower bound on the optimum over the *damaged* topology
    /// (masked all-paths solve on the covered sub-demand).
    pub opt_lower_bound: Option<f64>,
    /// `congestion / opt_lower_bound` — competitiveness after failures.
    pub ratio: Option<f64>,
}

/// The result of a failure sweep: `trials × demands` records, trials
/// outermost, in order.
#[derive(Debug, Clone)]
pub struct FailureSweepReport {
    /// Per-(trial, demand) records.
    pub trials: Vec<FailureTrial>,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
    /// What the *single* intact-topology template build behind the whole
    /// sweep cost: the template is constructed once (or shared from the
    /// cache) and every trial re-routes against it — trials never
    /// rebuild templates.
    pub template: Option<TemplateBuildStats>,
}

impl FailureSweepReport {
    /// Mean coverage across all records (1.0 if there are none).
    pub fn mean_coverage(&self) -> f64 {
        if self.trials.is_empty() {
            return 1.0;
        }
        self.trials.iter().map(|t| t.coverage).sum::<f64>() / self.trials.len() as f64
    }

    /// Worst (largest) post-failure competitive ratio; `None` if no
    /// record has one.
    pub fn worst_ratio(&self) -> Option<f64> {
        self.trials
            .iter()
            .filter_map(|t| t.ratio)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Total stranded demand mass across all records (0.0 when every
    /// trial kept full coverage).
    pub fn total_stranded(&self) -> f64 {
        self.trials.iter().map(|t| t.stranded).sum()
    }
}
