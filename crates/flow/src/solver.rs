//! The workspace's single min-congestion solver core.
//!
//! Two uses in the reproduction:
//!
//! 1. **Stage-4 rate adaptation** (Definition 5.1): given the sparse path
//!    system `P` and the revealed demand, compute
//!    `cong_R(P, d) = min_{R on P} cong(R, d)` — a packing LP over the
//!    candidate paths.
//! 2. **Offline OPT** (`opt_{G,R}(d)`, Section 4): the same LP over *all*
//!    simple paths (optionally failure-masked), solved with a
//!    shortest-path (column-generation) oracle.
//!
//! Everything is one staged-smoothing Frank–Wolfe loop on the softmax
//! (log-sum-exp) smoothing of the max-congestion objective, driven by a
//! pluggable [`PathOracle`] (see [`crate::oracle`]). What used to be
//! separate entry points — restricted, unrestricted, failure-masked,
//! warm-started — are all configurations of the one [`Solver`]:
//!
//! * the **oracle** picks the path space (candidate sets, all paths, all
//!   paths under an edge mask);
//! * the **carried state** picks cold vs warm: a fresh [`Solver`] solves
//!   from the min-hop initialization, a kept one restarts every
//!   [`Solver::resolve`] from the previous optimum ([`DemandDelta`]
//!   describes how the demand moved);
//! * [`SolveOptions`] picks the certified accuracy.
//!
//! The cold convenience wrappers ([`min_congestion`],
//! [`min_congestion_restricted`], [`min_congestion_unrestricted`],
//! [`min_congestion_masked`]) run the same solve as a fresh `Solver` —
//! there is no second loop — but one-shot: they borrow the demand
//! instead of cloning it into a `Solver`, and their fresh arena moves
//! into the returned routing. A kept `Solver` clones that arena back
//! into its warm state on every [`Solver::resolve`], so its next solve
//! can start from it.
//!
//! An oracle sees the same pair list on every iteration of a solve (a
//! cold solve's initialization call asks about it too, unless a pair is
//! stranded), which lets [`CandidateOracle`] resolve the pairs'
//! candidates once per solve instead of once per call (see
//! [`crate::oracle`]).
//!
//! Every run produces a *dual certificate*: for any nonnegative edge
//! weights `w`,
//!
//! ```text
//! OPT >= sum_{s,t} d(s,t) * min_{p in paths(s,t)} w(p) / sum_e w_e ,
//! ```
//!
//! because a congestion-λ routing satisfies
//! `sum_e w_e * load_e <= λ * sum_e w_e` while every unit of demand pays
//! at least the min-weight path. The solver reports the best such bound
//! seen — and whether the target gap was actually certified
//! ([`MinCongSolution::converged`]) — so callers can verify the
//! optimality gap of every number we report. [`SolverStats`] additionally
//! reports where the time went (oracle calls, line searches, the rest of
//! the loop) and how the staged smoothing progressed.
//!
//! Pairs the oracle cannot route at all (a failure sweep can legitimately
//! disconnect a demanded pair) are dropped at initialization and their
//! demand mass reported as [`MinCongSolution::stranded`] instead of
//! panicking mid-solve. The check runs where pairs enter the solve:
//! carried warm state is assumed routable by the oracle it resolves
//! against (see [`Solver::resolve`] for the exact contract).
//!
//! Internally the solver works on the workspace's shared representation
//! layer: edge loads accumulate in a dense [`EdgeLoads`], and every
//! discovered path is interned into the solve's [`PathStore`] arena (a
//! kept `Solver`'s warm [`Distributions`] arena, or a fresh one) so path
//! identity is a `Copy`-able [`PathId`] comparison instead of an
//! edge-vector scan. The returned [`Routing`] adopts that arena through
//! [`Distributions::from_runs`]: no path is re-interned and no owned
//! `Path` is built on the way out.
//!
//! # Examples
//!
//! Warm-started incremental re-solves for a drifting demand:
//!
//! ```
//! use ssor_flow::oracle::AllPathsOracle;
//! use ssor_flow::solver::{DemandDelta, Solver};
//! use ssor_flow::{Demand, SolveOptions};
//! use ssor_graph::generators;
//!
//! let g = generators::ring(6);
//! let opts = SolveOptions::with_eps(0.05);
//! let mut oracle = AllPathsOracle::new(&g);
//! let mut warm = Solver::new(&g);
//! let d = Demand::from_pairs(&[(0, 3)]);
//! let first = warm.resolve(&g, DemandDelta::Replace(d.clone()), &mut oracle, &opts);
//! assert!((first.congestion - 0.5).abs() < 0.05, "splits both ways");
//! // A 10% demand bump re-solves in very few iterations.
//! let again = warm.resolve(&g, DemandDelta::Scale(1.1), &mut oracle, &opts);
//! assert!((again.congestion - 0.55).abs() < 0.06);
//! assert!(again.iterations <= first.iterations);
//! ```

use crate::demand::Demand;
use crate::oracle::{AllPathsOracle, CandidateOracle, PathOracle};
use crate::routing::Routing;
use ssor_graph::obs::{StageProfile, Stopwatch};
use ssor_graph::{
    Distributions, EdgeId, EdgeLoads, Graph, PathId, PathStore, PathSystem, VertexId,
};

/// Per-pair weights at or below this fraction of the pair's probability
/// mass are dropped when a routing is materialized. Each pair's weights
/// sum to 1 and the solver normalizes demands to unit size internally
/// (see [`Solver::resolve`]), so this threshold — like every other solver
/// tolerance — is *relative* to the demand's scale, never absolute flow.
const WEIGHT_PRUNE: f64 = 1e-15;

/// Line-search steps at or below this count as "no progress at the
/// current smoothing". The line search returns exactly 0 when the
/// potential does not descend along the best response (`φ′(0) >= 0`,
/// e.g. a best response that equals the current routing), so this
/// branch is what cascades a stationary point's smoothing down to the
/// accuracy floor. `gamma` is a convex-combination coefficient in
/// `[0, 1]` — dimensionless — so the cutoff is scale-free by
/// construction.
const GAMMA_MIN: f64 = 1e-12;

/// The line search stops once a Newton step or its bracket is this
/// short (in `gamma`, so scale-free like [`GAMMA_MIN`]).
const LINE_SEARCH_TOL: f64 = 1e-10;

/// Derivative passes one line search may spend. Bisection alone
/// shrinks `[0, 1]` to [`LINE_SEARCH_TOL`] in 34, so the cap only
/// bounds a pathological mix of Newton steps and bisections.
const LINE_SEARCH_PASSES: usize = 64;

/// Options for the Frank–Wolfe solver.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Target multiplicative optimality gap (stop when `gap <= 1 + eps`).
    pub eps: f64,
    /// Hard cap on iterations. Solves that hit it come back with
    /// `converged == false`.
    pub max_iters: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            eps: 0.05,
            max_iters: 600,
        }
    }
}

impl SolveOptions {
    /// Preset with a custom gap target.
    pub fn with_eps(eps: f64) -> Self {
        SolveOptions {
            eps,
            ..Default::default()
        }
    }
}

/// Iterations spent at one smoothing stage (see [`SolverStats::stages`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageIters {
    /// The stage's smoothing accuracy `eps` (softmax error budget as a
    /// fraction of the current congestion).
    pub eps: f64,
    /// Frank–Wolfe iterations performed at this stage.
    pub iterations: usize,
}

/// Where a solve spent its work: iteration counts per smoothing stage and
/// the oracle's and the line search's shares of the wall-clock.
///
/// The oracle is the solver's embarrassingly parallel layer (the
/// per-source Dijkstra fan-out in `AllPathsOracle`), so
/// `profile.share("oracle")` bounds how much a multi-core run can gain;
/// the line search is serial over the edges. These numbers make solver
/// speedups measurable instead of anecdotal (see the
/// `a2_solver_ablation` bench bin).
#[derive(Debug, Clone, Default)]
pub struct SolverStats {
    /// Total Frank–Wolfe iterations.
    pub iterations: usize,
    /// Oracle batch calls (one per iteration plus one per cold/fresh
    /// initialization).
    pub oracle_calls: usize,
    /// Wall-clock of the whole solve, with the time spent inside oracle
    /// calls as its `"oracle"` stage and the step-size searches as its
    /// `"line_search"` stage.
    pub profile: StageProfile,
    /// Iterations per smoothing stage, in the order the stages ran;
    /// `eps` only ever halves, so entries sharpen strictly.
    pub stages: Vec<StageIters>,
}

/// Accumulates [`SolverStats`] across the init call and the loop.
struct StatsAcc {
    clock: Stopwatch,
    oracle_calls: usize,
    profile: StageProfile,
    stages: Vec<StageIters>,
}

impl StatsAcc {
    fn new() -> StatsAcc {
        StatsAcc {
            clock: Stopwatch::start(),
            oracle_calls: 0,
            profile: StageProfile::default(),
            stages: Vec::new(),
        }
    }

    /// Times one oracle batch call.
    fn time_oracle<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.oracle_calls += 1;
        self.profile.time("oracle", f)
    }

    /// Counts one iteration at smoothing stage `eps`.
    fn count_stage_iter(&mut self, eps: f64) {
        match self.stages.last_mut() {
            Some(last) if last.eps == eps => last.iterations += 1,
            _ => self.stages.push(StageIters { eps, iterations: 1 }),
        }
    }

    fn finish(mut self, iterations: usize) -> SolverStats {
        self.profile.add_total(self.clock.elapsed());
        SolverStats {
            iterations,
            oracle_calls: self.oracle_calls,
            profile: self.profile,
            stages: self.stages,
        }
    }
}

/// Result of a min-congestion solve.
#[derive(Debug, Clone)]
pub struct MinCongSolution {
    /// The (fractional) routing achieving `congestion`.
    pub routing: Routing,
    /// Primal value: max edge load of `routing` on the demand.
    pub congestion: f64,
    /// Best dual lower bound on the optimum over the oracle's path space.
    pub lower_bound: f64,
    /// Frank–Wolfe iterations performed.
    pub iterations: usize,
    /// Whether the solve stopped because the certified gap reached
    /// `1 + eps` (or the congestion was trivially zero). `false` means
    /// the solve was iteration-capped or stalled at the accuracy floor —
    /// the numbers are still valid bounds, but the target gap is not
    /// certified.
    pub converged: bool,
    /// Demand mass of pairs the oracle could not route at all (no
    /// candidate path, or disconnected through usable edges), in the
    /// demand's original units. Such pairs are dropped from the solve —
    /// `congestion` and `lower_bound` describe the routed remainder —
    /// and listed in `dropped_pairs`.
    pub stranded: f64,
    /// The dropped pairs, in demand-support order (empty normally).
    pub dropped_pairs: Vec<(VertexId, VertexId)>,
    /// Where the solve spent its work.
    pub stats: SolverStats,
}

impl MinCongSolution {
    /// Multiplicative optimality gap `congestion / lower_bound`
    /// (`1.0` means provably optimal, also when both are zero; `inf` if
    /// only the bound is zero).
    pub fn gap(&self) -> f64 {
        if self.lower_bound <= 0.0 {
            if self.congestion <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.congestion / self.lower_bound
        }
    }
}

/// How the demand changes between two [`Solver::resolve`] calls.
#[derive(Debug, Clone)]
pub enum DemandDelta {
    /// Replace the demand wholesale (the demand-stream case: each step
    /// reveals a fresh traffic snapshot).
    Replace(Demand),
    /// Scale the current demand by a positive finite factor.
    Scale(f64),
    /// Set individual pair entries (`0` removes a pair), leaving the rest
    /// of the demand untouched.
    Set(Vec<((VertexId, VertexId), f64)>),
}

/// Per-pair convex combination over discovered paths (interned in the
/// solve's arena; membership is an id scan, never an edge-vector
/// comparison).
struct PairState {
    pair: (VertexId, VertexId),
    /// The pair's demand, normalized by the total demand size.
    demand: f64,
    ids: Vec<PathId>,
    weights: Vec<f64>,
}

impl PairState {
    fn ensure(&mut self, id: PathId) -> usize {
        if let Some(i) = self.ids.iter().position(|&x| x == id) {
            i
        } else {
            self.ids.push(id);
            self.weights.push(0.0);
            self.ids.len() - 1
        }
    }

    /// The raw run with weights at or below [`WEIGHT_PRUNE`] dropped.
    fn kept(&self) -> impl Iterator<Item = (PathId, f64)> + '_ {
        let run = self.ids.iter().copied().zip(self.weights.iter().copied());
        run.filter(|&(_, w)| w > WEIGHT_PRUNE)
    }
}

/// The solution routing over the solve's arena: every state's
/// [`kept`](PairState::kept) run, normalized.
fn routing_of(store: PathStore, states: &[PairState]) -> Routing {
    let runs = states.iter().map(|st| (st.pair, st.kept()));
    Routing::from(Distributions::from_runs(store, runs))
}

/// `(φ′, φ″)` from the softmax moments `s0 = Σ p_e`, `s1 = Σ p_e d_e`
/// and `s2 = Σ p_e d_e²` of the direction `d` (any common scale of `p`).
fn slope_and_curvature(s0: f64, s1: f64, s2: f64, beta: f64) -> (f64, f64) {
    let slope = s1 / s0;
    (slope, beta * (s2 / s0 - slope * slope))
}

/// `(φ′(γ), φ″(γ))` of the softmax potential
/// `φ(γ) = smoothmax_β((1 − γ)a + γb)`, from one `exp` pass over the
/// mixed loads (shifted by their max, so no term overflows).
fn potential_derivatives(a: &[f64], b: &[f64], gamma: f64, beta: f64) -> (f64, f64) {
    let mixed = a
        .iter()
        .zip(b)
        .map(|(a, b)| ((1.0 - gamma) * a + gamma * b, b - a));
    let mx = mixed.clone().fold(f64::NEG_INFINITY, |m, (l, _)| m.max(l));
    let (s0, s1, s2) = mixed.fold((0.0, 0.0, 0.0), |(s0, s1, s2), (l, d)| {
        let p = ((l - mx) * beta).exp();
        (s0 + p, s1 + p * d, s2 + p * d * d)
    });
    slope_and_curvature(s0, s1, s2, beta)
}

/// The Frank–Wolfe step: the minimizer over `γ ∈ [0, 1]` of the convex
/// potential `φ(γ) = smoothmax_β((1 − γ)a + γb)` from the current loads
/// `a` towards the best-response loads `b`.
///
/// With `d = b − a` and `p` the softmax of the mixed loads,
/// `φ′ = Σ p_e d_e` and `φ″ = β(Σ p_e d_e² − φ′²)`. At `γ = 0` the
/// softmax is the oracle's weights `w / wsum`, so that end costs no
/// `exp`. Returns exactly 0 when `φ′(0) >= 0` (no descent) and exactly 1
/// when `φ′(1) <= 0`; otherwise the root of `φ′` lies inside `[0, 1]`
/// and safeguarded Newton steps close in on it, each step shrinking the
/// bracket `[lo, hi]` around the root and falling back to bisection when
/// a step leaves the bracket or `φ″ <= 0`.
fn line_search(a: &[f64], b: &[f64], w: &[f64], wsum: f64, beta: f64) -> f64 {
    let (s1, s2) = a
        .iter()
        .zip(b)
        .zip(w)
        .fold((0.0, 0.0), |(s1, s2), ((a, b), w)| {
            let d = b - a;
            (s1 + w * d, s2 + w * d * d)
        });
    let (mut slope, mut curvature) = slope_and_curvature(wsum, s1, s2, beta);
    if slope >= 0.0 {
        return 0.0;
    }
    if potential_derivatives(a, b, 1.0, beta).0 <= 0.0 {
        return 1.0;
    }
    let (mut lo, mut hi, mut gamma) = (0.0f64, 1.0f64, 0.0f64);
    for _ in 0..LINE_SEARCH_PASSES {
        let newton = gamma - slope / curvature;
        let next = if curvature > 0.0 && lo < newton && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        let step = (next - gamma).abs();
        gamma = next;
        if step <= LINE_SEARCH_TOL || hi - lo <= LINE_SEARCH_TOL {
            break;
        }
        (slope, curvature) = potential_derivatives(a, b, gamma, beta);
        if slope < 0.0 {
            lo = gamma;
        } else if slope > 0.0 {
            hi = gamma;
        } else {
            break;
        }
    }
    gamma
}

/// The workspace's one staged-smoothing Frank–Wolfe loop.
///
/// `states` holds the starting per-pair convex combinations (weights
/// summing to 1 per pair, demands normalized to unit total size) and
/// `loads` the matching edge-load accumulation. `stage_eps0` is the
/// initial smoothing stage; every entry point starts coarse (0.5).
/// Wherever the best response offers no descent at the current
/// smoothing ([`line_search`] returns 0), the no-progress branch halves
/// the smoothing at once instead of waiting out the 15-iteration stall
/// rule, so a stationary start cascades to the accuracy floor in one
/// iteration per stage and no special schedule is needed.
///
/// Every routed pair is reachable (the caller dropped stranded pairs at
/// initialization), and reachability under the finite positive weights
/// this loop produces is weight-independent — so an oracle `None` here
/// is a contract violation and panics.
///
/// Returns the best dual lower bound seen (at unit demand scale), the
/// number of iterations performed, and whether the target gap was
/// certified.
#[allow(clippy::too_many_arguments)]
fn frank_wolfe(
    m: usize,
    states: &mut [PairState],
    loads: &mut EdgeLoads,
    store: &mut PathStore,
    oracle: &mut dyn PathOracle,
    opts: &SolveOptions,
    stage_eps0: f64,
    mut lower_bound: f64,
    acc: &mut StatsAcc,
) -> (f64, usize, bool) {
    let pairs: Vec<(VertexId, VertexId)> = states.iter().map(|st| st.pair).collect();
    let demands: Vec<f64> = states.iter().map(|st| st.demand).collect();

    // Staged smoothing: start with a coarse softmax (fast global progress)
    // and sharpen whenever the primal stalls, down to the target accuracy.
    // A sharp softmax from the start makes Frank–Wolfe crawl: the gradient
    // concentrates on the single most-congested edge and only one path
    // shifts per iteration.
    let eps_floor = (opts.eps * 0.25).min(0.5);
    let mut stage_eps = stage_eps0.clamp(eps_floor, 0.5);
    let mut stall = 0usize;
    let mut prev_ub = f64::INFINITY;
    let mut converged = false;

    let mut loads_y = EdgeLoads::zeros(m);
    let mut w: Vec<f64> = Vec::with_capacity(m);
    let mut iterations = 0;
    for it in 0..opts.max_iters {
        iterations = it + 1;
        let ub = loads.max();
        if ub <= 0.0 {
            converged = true;
            break;
        }
        // Stall detection: sharpen the smoothing when the primal stops
        // improving at the current stage.
        if ub > prev_ub * 0.9995 {
            stall += 1;
            if stall >= 15 && stage_eps > eps_floor {
                stage_eps *= 0.5;
                stall = 0;
            }
        } else {
            stall = 0;
        }
        prev_ub = ub;
        acc.count_stage_iter(stage_eps);
        // Smoothing: approximation error ln(m)/beta <= stage_eps/4 * ub.
        let beta = (m as f64).ln().max(1.0) / (0.25 * stage_eps * ub);
        // Softmax gradient weights (scaled to max 1 for numerical safety).
        let mx = ub;
        w.clear();
        w.extend(loads.iter().map(|l| ((l - mx) * beta).exp()));
        let wsum: f64 = w.iter().sum();

        // Best response under w.
        let best = acc.time_oracle(|| oracle.best_paths(&pairs, &w, store));
        let best: Vec<(PathId, f64)> = best
            .into_iter()
            .map(|r| r.expect("oracle lost a previously routed pair"))
            .collect();

        // Dual certificate from these weights.
        let num: f64 = best
            .iter()
            .zip(demands.iter())
            .map(|((_, c), dem)| c * dem)
            .sum();
        let certificate = num / wsum;
        // Sentinel (debug builds): a NaN/∞ certificate means a poisoned
        // weight or an overflowed softmax slipped past the clamps — fail
        // at the dual update, not when a competitive ratio looks wrong.
        debug_assert!(
            certificate.is_finite(),
            "non-finite dual certificate {certificate} (num={num}, wsum={wsum})"
        );
        lower_bound = lower_bound.max(certificate);

        if ub <= (1.0 + opts.eps) * lower_bound {
            converged = true;
            break;
        }

        // Loads of the pure best-response routing.
        loads_y.clear();
        for (&(id, _), dem) in best.iter().zip(demands.iter()) {
            loads_y.add_path(store, id, *dem);
        }

        // The exact step along the best response, on the same softmax
        // potential whose gradient `w` is.
        let (la, lb) = (loads.as_slice(), loads_y.as_slice());
        let gamma = acc
            .profile
            .time("line_search", || line_search(la, lb, &w, wsum, beta));
        if gamma <= GAMMA_MIN {
            // No progress along this direction at the current smoothing:
            // sharpen if we can, otherwise we are done (without a
            // certificate for the target gap).
            if stage_eps > eps_floor {
                stage_eps *= 0.5;
                stall = 0;
                continue;
            }
            break;
        }

        // Apply the update to per-pair weights and the aggregate loads.
        for st in states.iter_mut() {
            for wgt in st.weights.iter_mut() {
                *wgt *= 1.0 - gamma;
            }
        }
        for (st, &(id, _)) in states.iter_mut().zip(best.iter()) {
            let i = st.ensure(id);
            st.weights[i] += gamma;
        }
        for (a, b) in loads.as_mut_slice().iter_mut().zip(loads_y.as_slice()) {
            *a = (1.0 - gamma) * *a + gamma * b;
        }
    }

    (lower_bound, iterations, converged)
}

/// One solve of `demand` on a graph with `m` edges, warm-started from
/// the `carried` per-pair runs (none for a cold solve). Every discovered
/// path is interned into `carried`'s arena, which the solution's routing
/// adopts. Returns the solution and the final per-pair states, which
/// only a warm [`Solver`] reads.
///
/// The one-shot entry points call this with empty distributions and
/// drop the states; [`Solver::resolve`] calls it with its warm state and
/// persists them — so the two are the same computation, bit for bit
/// (see [`Solver::resolve`] for the stranding contract).
fn solve(
    g: &Graph,
    m: usize,
    demand: &Demand,
    carried: Distributions,
    oracle: &mut dyn PathOracle,
    opts: &SolveOptions,
) -> (MinCongSolution, Vec<PairState>) {
    let mut acc = StatsAcc::new();
    let pairs = demand.support();
    if pairs.is_empty() {
        let routing = routing_of(carried.into_store(), &[]);
        return (trivial(routing, 0.0, Vec::new(), acc), Vec::new());
    }
    let scale = demand.size();
    assert!(scale.is_finite(), "demand size must be finite, got {scale}");

    // Build the per-pair states: carried distributions where we have
    // them, oracle-initialized fresh states (no paths yet) for new pairs.
    let mut states: Vec<PairState> = pairs
        .iter()
        .map(|&(s, t)| {
            let run = carried.get(s, t).unwrap_or_default();
            PairState {
                pair: (s, t),
                demand: demand.get(s, t) / scale,
                ids: run.iter().map(|&(id, _)| id).collect(),
                weights: run.iter().map(|&(_, w)| w).collect(),
            }
        })
        .collect();
    let mut store = carried.into_store();
    let fresh_pairs: Vec<(VertexId, VertexId)> = states
        .iter()
        .filter(|st| st.ids.is_empty())
        .map(|st| st.pair)
        .collect();
    let cold = fresh_pairs.len() == states.len();
    let mut ones_bound = 0.0;
    if !fresh_pairs.is_empty() {
        let ones = vec![1.0; m];
        let first = acc.time_oracle(|| oracle.best_paths(&fresh_pairs, &ones, &mut store));
        let fresh = states.iter_mut().filter(|st| st.ids.is_empty());
        for (st, found) in fresh.zip(&first) {
            if let Some((id, _)) = *found {
                st.ids.push(id);
                st.weights.push(1.0);
            }
        }
        if cold {
            // Dual bound from the all-ones weights, over the pairs
            // actually routed (in a cold solve every pair is fresh).
            let num: f64 = states
                .iter()
                .zip(&first)
                .filter_map(|(st, found)| found.map(|(_, c)| c * st.demand))
                .sum();
            ones_bound = num / m as f64;
        }
    }

    // Drop the pairs the oracle could not route at all; their demand
    // mass is reported as stranded rather than panicking mid-solve.
    let mut stranded = 0.0;
    let mut dropped_pairs: Vec<(VertexId, VertexId)> = Vec::new();
    states.retain(|st| {
        if st.ids.is_empty() {
            stranded += demand.get(st.pair.0, st.pair.1);
            dropped_pairs.push(st.pair);
            false
        } else {
            true
        }
    });
    if states.is_empty() {
        // Everything stranded: the LP over the (empty) routed
        // remainder is trivially solved.
        let routing = routing_of(store, &states);
        return (trivial(routing, stranded, dropped_pairs, acc), states);
    }

    // Re-accumulate the loads of the starting point (normalized).
    let mut loads = EdgeLoads::zeros(m);
    for st in &states {
        for (&id, &w) in st.ids.iter().zip(st.weights.iter()) {
            loads.add_path(&store, id, w * st.demand);
        }
    }

    // Both cold and warm solves start at the coarse smoothing stage.
    // A near-optimal warm point usually certifies in its first
    // iteration; where its best response offers no descent at the
    // coarse smoothing (the line search returns 0), the smoothing
    // cascades down to the accuracy floor in O(log(1/eps)) cheap
    // iterations, one per stage, and lets the sharp dual certificate
    // stop the loop — starting sharp instead makes Frank–Wolfe crawl
    // even from a warm point (the gradient pins to the single
    // most-congested edge).
    let (lower_bound, iterations, converged) = frank_wolfe(
        m,
        &mut states,
        &mut loads,
        &mut store,
        oracle,
        opts,
        0.5,
        ones_bound,
        &mut acc,
    );

    let routing = routing_of(store, &states);
    let congestion = routing.congestion(g, demand);
    let sol = MinCongSolution {
        routing,
        congestion,
        lower_bound: lower_bound * scale,
        iterations,
        converged,
        stranded,
        dropped_pairs,
        stats: acc.finish(iterations),
    };
    (sol, states)
}

/// The zero-work solution (empty demand, or everything stranded).
fn trivial(
    routing: Routing,
    stranded: f64,
    dropped_pairs: Vec<(VertexId, VertexId)>,
    acc: StatsAcc,
) -> MinCongSolution {
    MinCongSolution {
        routing,
        congestion: 0.0,
        lower_bound: 0.0,
        iterations: 0,
        converged: true,
        stranded,
        dropped_pairs,
        stats: acc.finish(0),
    }
}

/// The min-congestion solver core, with warm-start state as data.
///
/// A `Solver`'s warm state is one [`Distributions`]: the arena of every
/// path it discovered plus, per pair ever routed, that pair's raw
/// Frank–Wolfe weights (pruned at `WEIGHT_PRUNE`, 1e-15 of the pair's
/// mass, summing to about 1, committed through
/// [`Distributions::from_raw_runs`] so not a bit moves). A fresh `Solver` solves cold (min-hop initialization);
/// keeping it alive across [`Solver::resolve`] calls warm-starts every
/// subsequent solve from the previous optimum — the demand-stream and
/// failure-sweep runners in `ssor-engine` rely on this. Pairs that leave
/// the demand keep their run: a pair that returns (bursty ON/OFF
/// traffic) warm-starts too. Every resolve rebuilds the runs, so the
/// state holds one run per pair, however many resolves it has seen.
///
/// Link failures compose with warm starts through
/// [`Solver::invalidate_edges`]: paths crossing dead edges are dropped
/// from the carried state (per-pair mass renormalizes onto the
/// survivors) before the next [`Solver::resolve`].
#[derive(Debug, Clone)]
pub struct Solver {
    warm: Distributions,
    demand: Demand,
    m: usize,
}

impl Solver {
    /// An empty solver for graphs with `g.m()` edges (no demand routed
    /// yet). The first [`Solver::resolve`] is a cold solve.
    pub fn new(g: &Graph) -> Solver {
        Solver {
            warm: Distributions::new(),
            demand: Demand::new(),
            m: g.m(),
        }
    }

    /// Cold-solves `d` and returns the solver ready for incremental
    /// re-solves (convenience over [`Solver::new`] + [`Solver::resolve`]).
    pub fn solve(
        g: &Graph,
        d: &Demand,
        oracle: &mut dyn PathOracle,
        opts: &SolveOptions,
    ) -> Solver {
        let mut s = Solver::new(g);
        s.resolve(g, DemandDelta::Replace(d.clone()), oracle, opts);
        s
    }

    /// The demand of the last solve.
    pub fn demand(&self) -> &Demand {
        &self.demand
    }

    /// Applies `delta` to the demand and re-solves, warm-starting from
    /// the carried per-pair distributions. Pairs new to the demand are
    /// initialized from the oracle's min-hop best response; pairs that
    /// left contribute nothing but keep their state for a possible
    /// return. Fresh pairs the oracle cannot route at all are dropped
    /// and reported as stranded (see [`MinCongSolution::stranded`]) —
    /// in failure drills, compare that mass against the coverage you
    /// expected instead of aborting the sweep.
    ///
    /// Stranding applies at *initialization*: a pair with carried state
    /// is assumed routable by this solve's oracle, because its state
    /// was discovered through a compatible oracle (after failures, call
    /// [`Solver::invalidate_edges`] first — pairs whose every carried
    /// path died are cleared back to fresh and go through the stranding
    /// check). Handing `resolve` an oracle that cannot route a pair
    /// whose carried state you kept is a contract violation and panics
    /// mid-solve rather than silently misreporting.
    ///
    /// When *no* demanded pair carries state (a cold solve), the min-hop
    /// response additionally seeds the dual bound with the all-ones
    /// weight certificate, exactly like the one-shot entry points — a
    /// fresh `Solver` and [`min_congestion`] are the same computation,
    /// bit for bit.
    ///
    /// Returns the full per-step solution; its routing holds a clone of
    /// the warm arena.
    ///
    /// # Panics
    ///
    /// Panics if a [`DemandDelta::Scale`] factor is negative or
    /// non-finite, if the demand size overflows `f64`, or if the oracle
    /// cannot route a pair with carried state (see above).
    pub fn resolve(
        &mut self,
        g: &Graph,
        delta: DemandDelta,
        oracle: &mut dyn PathOracle,
        opts: &SolveOptions,
    ) -> MinCongSolution {
        match delta {
            DemandDelta::Replace(d) => self.demand = d,
            DemandDelta::Scale(c) => self.demand = self.demand.scaled(c),
            DemandDelta::Set(entries) => {
                for ((s, t), w) in entries {
                    self.demand.set(s, t, w);
                }
            }
        }
        // Runs of pairs outside the demand (whose entries are positive)
        // stay as they are; the solve replaces the rest.
        let carried = std::mem::take(&mut self.warm);
        let idle: Vec<_> = carried
            .iter()
            .filter(|&((s, t), _)| self.demand.get(s, t) == 0.0)
            .map(|(pair, run)| (pair, run.to_vec()))
            .collect();
        let (sol, states) = solve(g, self.m, &self.demand, carried, oracle, opts);
        // Persist the final weights raw, pruned (so state does not grow
        // without bound across a long stream).
        let kept = states.iter().map(|st| (st.pair, st.kept().collect()));
        let store = sol.routing.store().clone();
        self.warm = Distributions::from_raw_runs(store, idle.into_iter().chain(kept));
        sol
    }

    /// Drops every carried path that crosses one of the `dead` edges,
    /// renormalizing each affected pair's remaining mass onto its
    /// surviving paths; pairs left without survivors are cleared (the
    /// next [`Solver::resolve`] re-initializes them from the oracle).
    ///
    /// Returns the number of dropped paths. The demand is untouched —
    /// restrict it separately if pairs lost coverage in the oracle too.
    pub fn invalidate_edges(&mut self, dead: &[EdgeId]) -> usize {
        let carried = std::mem::take(&mut self.warm);
        let store = carried.store();
        let mut removed = 0usize;
        let survivors: Vec<_> = carried
            .iter()
            .filter_map(|(pair, run)| {
                let alive =
                    |&(id, _): &(PathId, f64)| !dead.iter().any(|&e| store.contains_edge(id, e));
                let kept: Vec<_> = run.iter().copied().filter(alive).collect();
                removed += run.len() - kept.len();
                (!kept.is_empty()).then_some((pair, kept))
            })
            .collect();
        // Carried weights all exceed `WEIGHT_PRUNE`: every total is positive.
        self.warm = Distributions::from_runs(carried.into_store(), survivors);
        removed
    }

    /// The current per-pair distributions of the demanded pairs,
    /// normalized, over a clone of the warm arena.
    pub fn routing(&self) -> Routing {
        let support = self.demand.support().into_iter();
        let runs =
            support.filter_map(|(s, t)| Some(((s, t), self.warm.get(s, t)?.iter().copied())));
        Routing::from(Distributions::from_runs(self.warm.store().clone(), runs))
    }
}

/// Solves `min max_e load_e` over routings whose per-pair paths come from
/// `oracle`, routing the full demand `d` on graph `g` — the one-shot
/// (cold) form of [`Solver::resolve`], bit for bit, on a fresh arena. It
/// borrows `d` and keeps no warm state.
///
/// Returns the empty solution with congestion 0 for an empty demand.
///
/// Internally the demand is normalized to unit size (`siz(d) = 1`) and
/// the bounds are scaled back afterwards, so every solver tolerance is
/// relative to the demand's scale: solving `c * d` yields `c` times the
/// congestion and lower bound of `d` (up to floating-point roundoff) for
/// any positive finite `c`, including extreme scales where the smoothing
/// temperature would otherwise overflow.
///
/// Pairs the oracle cannot route are dropped and reported as stranded
/// (see [`MinCongSolution::stranded`]).
///
/// # Panics
///
/// Panics if the demand's total size overflows `f64`.
pub fn min_congestion(
    g: &Graph,
    d: &Demand,
    oracle: &mut dyn PathOracle,
    opts: &SolveOptions,
) -> MinCongSolution {
    solve(g, g.m(), d, Distributions::new(), oracle, opts).0
}

/// Stage-4 rate adaptation: `cong_R(P, d)` over the path system `paths`
/// (Definition 5.1). Demand pairs without candidates are reported as
/// stranded.
pub fn min_congestion_restricted(
    g: &Graph,
    d: &Demand,
    paths: &PathSystem,
    opts: &SolveOptions,
) -> MinCongSolution {
    let mut oracle = CandidateOracle::new(paths);
    min_congestion(g, d, &mut oracle, opts)
}

/// Offline fractional optimum `opt_{G,R}(d)` over all paths (Section 4).
pub fn min_congestion_unrestricted(g: &Graph, d: &Demand, opts: &SolveOptions) -> MinCongSolution {
    let mut oracle = AllPathsOracle::new(g);
    min_congestion(g, d, &mut oracle, opts)
}

/// Offline fractional optimum on a failure-masked topology: like
/// [`min_congestion_unrestricted`], but only edges marked usable may
/// carry flow. `usable` is the mask a `ssor_graph::SubTopology`
/// exports; the graph itself is untouched, so
/// the resulting loads and routing use the base graph's edge ids. Pairs
/// disconnected by the mask are dropped and reported as stranded.
///
/// # Panics
///
/// Panics if `usable.len() != g.m()`.
pub fn min_congestion_masked(
    g: &Graph,
    d: &Demand,
    usable: &[bool],
    opts: &SolveOptions,
) -> MinCongSolution {
    let mut oracle = AllPathsOracle::masked(g, usable);
    min_congestion(g, d, &mut oracle, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_graph::{generators, Path};

    fn opts() -> SolveOptions {
        SolveOptions {
            eps: 0.02,
            max_iters: 2000,
        }
    }

    #[test]
    fn empty_demand_is_trivial() {
        let g = generators::ring(4);
        let sol = min_congestion_unrestricted(&g, &Demand::new(), &opts());
        assert_eq!(sol.congestion, 0.0);
        assert_eq!(sol.iterations, 0);
        assert!(sol.converged);
        assert_eq!(sol.stranded, 0.0);
    }

    #[test]
    fn single_pair_on_ring_splits_both_ways() {
        // Ring of 6: one unit 0 -> 3 can split into two disjoint 3-hop
        // paths, halving congestion.
        let g = generators::ring(6);
        let d = Demand::from_pairs(&[(0, 3)]);
        let sol = min_congestion_unrestricted(&g, &d, &opts());
        assert!(
            (sol.congestion - 0.5).abs() < 0.02,
            "congestion = {}",
            sol.congestion
        );
        assert!(sol.gap() <= 1.1, "gap = {}", sol.gap());
        assert!(sol.routing.is_valid(&g));
    }

    #[test]
    fn parallel_edges_split_flow() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        let d = Demand::from_pairs(&[(0, 1)]).scaled(3.0);
        let sol = min_congestion_unrestricted(&g, &d, &opts());
        assert!(
            (sol.congestion - 1.0).abs() < 0.05,
            "congestion = {}",
            sol.congestion
        );
    }

    #[test]
    fn restricted_single_candidate_is_forced() {
        let g = generators::ring(6);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        let d = Demand::from_pairs(&[(0, 3)]);
        let sol = min_congestion_restricted(&g, &d, &cands, &opts());
        assert!((sol.congestion - 1.0).abs() < 1e-9);
    }

    #[test]
    fn restricted_two_candidates_split() {
        let g = generators::ring(6);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        cands.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let d = Demand::from_pairs(&[(0, 3)]);
        let sol = min_congestion_restricted(&g, &d, &cands, &opts());
        assert!(
            (sol.congestion - 0.5).abs() < 0.02,
            "congestion = {}",
            sol.congestion
        );
    }

    #[test]
    fn lower_bound_never_exceeds_primal() {
        let g = generators::grid(3, 3);
        let d = Demand::from_pairs(&[(0, 8), (2, 6), (1, 7), (3, 5)]);
        let sol = min_congestion_unrestricted(&g, &d, &opts());
        assert!(sol.lower_bound <= sol.congestion + 1e-9);
        assert!(sol.gap() < 1.25, "gap = {}", sol.gap());
    }

    #[test]
    fn congestion_matches_flow_lower_bound_on_star() {
        // Star: all paths go through the center; each pair uses its two
        // leaf edges once, so the unique routing has congestion 1.
        let g = generators::star(6);
        let d = Demand::from_pairs(&[(1, 2), (3, 4), (5, 6)]);
        let sol = min_congestion_unrestricted(&g, &d, &opts());
        assert!((sol.congestion - 1.0).abs() < 1e-6);
        assert!(sol.gap() < 1.05);
    }

    #[test]
    fn many_commodities_on_hypercube_nearly_optimal() {
        let g = generators::hypercube(4);
        let d = Demand::hypercube_complement(4);
        let sol = min_congestion_unrestricted(
            &g,
            &d,
            &SolveOptions {
                eps: 0.1,
                max_iters: 3000,
            },
        );
        // Complement demand on Q4: every pair at distance 4; total flow
        // >= 16*4 = 64 over 32 edges => congestion >= 2. An optimal routing
        // achieves exactly 2 (edge-disjoint dimension-ordered batches).
        assert!(sol.congestion < 2.3, "congestion = {}", sol.congestion);
        assert!(sol.lower_bound >= 1.9, "lb = {}", sol.lower_bound);
    }

    #[test]
    fn masked_solve_avoids_dead_edges() {
        // Ring of 6 with one edge of the short side failed: the whole
        // 0 -> 3 unit is forced onto the surviving side.
        let g = generators::ring(6);
        let mut sub = g.sub_topology();
        sub.fail_edge(1); // the (1, 2) edge
        let d = Demand::from_pairs(&[(0, 3)]);
        let sol = min_congestion_masked(&g, &d, &sub.usable_edges(), &opts());
        assert!(
            (sol.congestion - 1.0).abs() < 1e-6,
            "congestion = {}",
            sol.congestion
        );
        let loads = sol.routing.edge_loads(&g, &d);
        assert_eq!(loads.get(1), 0.0, "no flow on the dead edge");
    }

    #[test]
    fn masked_solve_with_full_mask_matches_unrestricted() {
        let g = generators::grid(3, 3);
        let d = Demand::from_pairs(&[(0, 8), (2, 6)]);
        let full = vec![true; g.m()];
        let masked = min_congestion_masked(&g, &d, &full, &opts());
        let open = min_congestion_unrestricted(&g, &d, &opts());
        assert!((masked.congestion - open.congestion).abs() < 1e-9);
    }

    #[test]
    fn masked_solve_strands_disconnected_pairs_instead_of_panicking() {
        // Ring of 4 with two opposite edges dead: (0, 2) is disconnected,
        // (1, 0) still routable. The solve drops the dead pair, reports
        // its mass, and routes the rest.
        let g = generators::ring(4);
        let mut sub = g.sub_topology();
        sub.fail_edge(0); // (0, 1)
        sub.fail_edge(2); // (2, 3)
        let mut d = Demand::new();
        d.set(0, 2, 3.0);
        d.set(1, 2, 1.0);
        let sol = min_congestion_masked(&g, &d, &sub.usable_edges(), &opts());
        assert_eq!(sol.stranded, 3.0, "the disconnected pair's mass");
        assert_eq!(sol.dropped_pairs, vec![(0, 2)]);
        assert!(
            (sol.congestion - 1.0).abs() < 1e-9,
            "(1, 2) routes its unit"
        );
        assert!(sol.routing.distribution(0, 2).is_none());
    }

    #[test]
    fn fully_stranded_solve_is_trivial_but_reported() {
        let g = generators::ring(4);
        let mut sub = g.sub_topology();
        sub.fail_edge(0);
        sub.fail_edge(2);
        let d = Demand::from_pairs(&[(0, 2)]).scaled(2.0);
        let sol = min_congestion_masked(&g, &d, &sub.usable_edges(), &opts());
        assert_eq!(sol.congestion, 0.0);
        assert_eq!(sol.stranded, 2.0);
        assert_eq!(sol.iterations, 0);
        assert!(sol.routing.is_empty());
    }

    #[test]
    fn restricted_solve_strands_uncovered_pairs() {
        let g = generators::ring(6);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        let d = Demand::from_pairs(&[(0, 3), (1, 4)]);
        let sol = min_congestion_restricted(&g, &d, &cands, &opts());
        assert_eq!(sol.stranded, 1.0);
        assert_eq!(sol.dropped_pairs, vec![(1, 4)]);
        assert!((sol.congestion - 1.0).abs() < 1e-9);
    }

    #[test]
    fn routing_routes_full_demand() {
        let g = generators::grid(3, 4);
        let d = Demand::from_pairs(&[(0, 11), (4, 7)]).scaled(2.0);
        let sol = min_congestion_unrestricted(&g, &d, &opts());
        assert!(sol.routing.covers(&d));
        assert!(sol.routing.is_valid(&g));
        let loads = sol.routing.edge_loads(&g, &d);
        assert!(
            loads.total() >= d.size() * 3.0 - 1e-6,
            "paths are >= 3 hops here"
        );
    }

    #[test]
    fn converged_flag_distinguishes_capped_solves() {
        let g = generators::hypercube(4);
        let d = Demand::hypercube_complement(4);
        let certified = min_congestion_unrestricted(
            &g,
            &d,
            &SolveOptions {
                eps: 0.1,
                max_iters: 3000,
            },
        );
        assert!(certified.converged, "3000 iterations certify eps = 0.1");
        assert!(certified.gap() <= 1.1 + 1e-9);
        let capped = min_congestion_unrestricted(
            &g,
            &d,
            &SolveOptions {
                eps: 0.001,
                max_iters: 3,
            },
        );
        assert!(!capped.converged, "3 iterations cannot certify eps = 1e-3");
    }

    #[test]
    fn stats_account_for_oracle_calls_and_stages() {
        let g = generators::grid(4, 4);
        let d = Demand::from_pairs(&[(0, 15), (3, 12), (5, 10)]);
        let sol = min_congestion_unrestricted(&g, &d, &opts());
        let stats = &sol.stats;
        assert_eq!(stats.iterations, sol.iterations);
        // One init call plus one per iteration.
        assert_eq!(stats.oracle_calls, sol.iterations + 1);
        assert_eq!(
            stats.stages.iter().map(|s| s.iterations).sum::<usize>(),
            sol.iterations
        );
        let profile = &stats.profile;
        assert!(matches!(
            profile.stages(),
            [("oracle", oracle), ("line_search", search)] if *oracle + *search <= profile.total()
        ));
        assert!((0.0..=1.0).contains(&profile.share("oracle")));
        assert!((0.0..=1.0).contains(&profile.share("line_search")));
        // Stages sharpen monotonically within the run.
        for pair in stats.stages.windows(2) {
            assert!(pair[1].eps < pair[0].eps, "stages must sharpen");
        }
    }

    // ------------------------------------------------------------------
    // The line search.
    // ------------------------------------------------------------------

    /// The softmax potential `smoothmax_β((1 − γ)a + γb)`, evaluated
    /// directly.
    fn potential(a: &[f64], b: &[f64], gamma: f64, beta: f64) -> f64 {
        let mixed = a.iter().zip(b).map(|(a, b)| (1.0 - gamma) * a + gamma * b);
        let mx = mixed.clone().fold(f64::NEG_INFINITY, f64::max);
        let s: f64 = mixed.map(|l| ((l - mx) * beta).exp()).sum();
        mx + s.ln() / beta
    }

    /// [`line_search`] with the oracle's weights of `a` computed here.
    fn search(a: &[f64], b: &[f64], beta: f64) -> f64 {
        let mx = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let w: Vec<f64> = a.iter().map(|l| ((l - mx) * beta).exp()).collect();
        line_search(a, b, &w, w.iter().sum(), beta)
    }

    #[test]
    fn line_search_returns_zero_without_descent() {
        let a = [0.3, 0.9, 0.5, 0.7];
        for beta in [0.5, 10.0, 1e4] {
            assert_eq!(search(&a, &a, beta), 0.0, "b = a, beta {beta}");
            // b dominates a, strictly on the arg-max edge.
            let b = [0.3, 1.2, 0.6, 0.7];
            assert_eq!(search(&a, &b, beta), 0.0, "b >= a, beta {beta}");
        }
    }

    #[test]
    fn line_search_returns_one_when_the_potential_keeps_falling() {
        let a = [0.3, 0.9, 0.5, 0.7];
        let halved = a.map(|l| 0.5 * l);
        // Shifting load off the max edge onto a lighter one that stays
        // below it.
        let shifted = [0.3, 0.6, 0.6, 0.7];
        for beta in [0.5, 10.0, 1e4] {
            assert_eq!(search(&a, &halved, beta), 1.0, "beta {beta}");
            assert_eq!(search(&a, &shifted, beta), 1.0, "beta {beta}");
        }
    }

    #[test]
    fn line_search_matches_a_dense_scan_of_the_potential() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(30);
        let mut interior = 0;
        for case in 0..200 {
            let m = rng.gen_range(2..40usize);
            let a: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            // A best response moves load: some edges gain, some lose.
            let b: Vec<f64> = a
                .iter()
                .map(|&l| match rng.gen_range(0..3) {
                    0 => l,
                    1 => rng.gen_range(0.0..l.max(1e-3)),
                    _ => rng.gen_range(0.0..1.0),
                })
                .collect();
            // From a soft average up to a near-hard max (the solver's
            // sharpest stages reach beta * load of a few thousand).
            let beta = 10f64.powf(rng.gen_range(-1.0..4.0));
            let gamma = search(&a, &b, beta);
            assert!((0.0..=1.0).contains(&gamma), "case {case}: gamma {gamma}");
            interior += usize::from(0.0 < gamma && gamma < 1.0);
            let got = potential(&a, &b, gamma, beta);
            let scan = (0..=10_000)
                .map(|k| potential(&a, &b, f64::from(k) / 10_000.0, beta))
                .fold(f64::INFINITY, f64::min);
            assert!(
                got <= scan + 1e-12 * scan.abs().max(1.0),
                "case {case} (m {m}, beta {beta}): phi({gamma}) = {got} > scan min {scan}"
            );
        }
        assert!(interior >= 80, "only {interior} interior minima");
    }

    #[test]
    fn a_stationary_warm_start_sharpens_one_stage_per_iteration() {
        // A star routes every pair on its unique two-leaf path, so the
        // best response always equals the current routing: the line
        // search finds no descent (gamma = 0) and the no-progress branch
        // halves the smoothing at once, instead of the stall rule's 15
        // iterations per stage. Pair (1, 2) is a little heavier than the
        // other 49, so the coarse certificate misses the target gap.
        let g = generators::star(100);
        let mut d = Demand::new();
        for i in 0..50 {
            d.set(2 * i + 1, 2 * i + 2, if i == 0 { 1.1 } else { 1.0 });
        }
        let mut oracle = AllPathsOracle::new(&g);
        let mut warm = Solver::new(&g);
        let first = warm.resolve(&g, DemandDelta::Replace(d), &mut oracle, &warm_opts());
        assert!(first.converged);
        let again = warm.resolve(&g, DemandDelta::Scale(1.0), &mut oracle, &warm_opts());
        assert!(again.converged);
        assert!((again.congestion - 1.1).abs() < 1e-12);
        let stages = &again.stats.stages;
        assert!(stages.len() >= 2, "the coarse stage certifies: {stages:?}");
        assert!(
            stages.iter().all(|s| s.iterations == 1),
            "each stage ends after its first line search: {stages:?}"
        );
        assert_eq!(again.iterations, stages.len());
    }

    // ------------------------------------------------------------------
    // Warm-start behavior (carried Solver state).
    // ------------------------------------------------------------------

    fn warm_opts() -> SolveOptions {
        SolveOptions {
            eps: 0.05,
            max_iters: 2000,
        }
    }

    #[test]
    fn fresh_solver_matches_one_shot_entry_point_bitwise() {
        let g = generators::grid(3, 3);
        let d = Demand::from_pairs(&[(0, 8), (2, 6), (1, 7)]);
        let mut oracle = AllPathsOracle::new(&g);
        let warm = Solver::new(&g).resolve(
            &g,
            DemandDelta::Replace(d.clone()),
            &mut oracle,
            &warm_opts(),
        );
        let cold = min_congestion_unrestricted(&g, &d, &warm_opts());
        assert_eq!(warm.congestion.to_bits(), cold.congestion.to_bits());
        assert_eq!(warm.lower_bound.to_bits(), cold.lower_bound.to_bits());
        assert_eq!(warm.iterations, cold.iterations);
    }

    #[test]
    fn warm_resolve_reconverges_faster_on_drift() {
        let g = generators::grid(4, 4);
        let mut d = Demand::from_pairs(&[(0, 15), (3, 12), (5, 10), (1, 14)]);
        let mut oracle = AllPathsOracle::new(&g);
        let mut warm = Solver::new(&g);
        let first = warm.resolve(
            &g,
            DemandDelta::Replace(d.clone()),
            &mut oracle,
            &warm_opts(),
        );
        let cold_iters = first.iterations;
        // Mild drift: +5% on one pair.
        d.set(0, 15, 1.05);
        let sol = warm.resolve(
            &g,
            DemandDelta::Replace(d.clone()),
            &mut oracle,
            &warm_opts(),
        );
        assert!(
            sol.iterations <= cold_iters,
            "warm start should not regress"
        );
        // Quality stays certified.
        let cold = min_congestion_unrestricted(&g, &d, &warm_opts());
        let tol = 1.0 + warm_opts().eps + 0.02;
        assert!(sol.congestion <= cold.congestion * tol + 1e-12);
        assert!(cold.congestion <= sol.congestion * tol + 1e-12);
    }

    #[test]
    fn scale_delta_scales_congestion_linearly() {
        let g = generators::ring(6);
        let d = Demand::from_pairs(&[(0, 3)]);
        let mut oracle = AllPathsOracle::new(&g);
        let mut warm = Solver::new(&g);
        let c1 = warm
            .resolve(&g, DemandDelta::Replace(d), &mut oracle, &warm_opts())
            .congestion;
        let scaled = warm.resolve(&g, DemandDelta::Scale(3.0), &mut oracle, &warm_opts());
        assert!((scaled.congestion - 3.0 * c1).abs() < 1e-9 * (1.0 + 3.0 * c1));
    }

    #[test]
    fn set_delta_adds_and_removes_pairs() {
        let g = generators::ring(8);
        let d = Demand::from_pairs(&[(0, 4)]);
        let mut oracle = AllPathsOracle::new(&g);
        let mut warm = Solver::solve(&g, &d, &mut oracle, &warm_opts());
        // Add a pair, drop the old one.
        let moved = warm.resolve(
            &g,
            DemandDelta::Set(vec![((0, 4), 0.0), ((1, 5), 2.0)]),
            &mut oracle,
            &warm_opts(),
        );
        assert_eq!(warm.demand().support(), vec![(1, 5)]);
        assert!(moved.congestion > 0.0);
        // Emptying the demand gives the trivial solution but keeps state.
        let empty = warm.resolve(
            &g,
            DemandDelta::Set(vec![((1, 5), 0.0)]),
            &mut oracle,
            &warm_opts(),
        );
        assert_eq!(empty.congestion, 0.0);
        assert_eq!(empty.iterations, 0);
        // The pair returns: its carried distribution warm-starts again.
        let back = warm.resolve(
            &g,
            DemandDelta::Set(vec![((1, 5), 2.0)]),
            &mut oracle,
            &warm_opts(),
        );
        assert!(back.congestion > 0.0);
    }

    #[test]
    fn invalidate_edges_moves_mass_to_survivors() {
        let g = generators::ring(6);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        cands.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let d = Demand::from_pairs(&[(0, 3)]);
        let mut oracle = CandidateOracle::new(&cands);
        let mut warm = Solver::new(&g);
        let first = warm.resolve(
            &g,
            DemandDelta::Replace(d.clone()),
            &mut oracle,
            &warm_opts(),
        );
        assert!((first.congestion - 0.5).abs() < 0.05, "splits both ways");
        // Kill edge (1, 2): the clockwise path dies, all mass shifts.
        let removed = warm.invalidate_edges(&[1]);
        assert_eq!(removed, 1);
        let r = warm.routing();
        let dist = r.distribution(0, 3).expect("pair still routed");
        assert_eq!(dist.len(), 1);
        assert!((dist[0].1 - 1.0).abs() < 1e-12);
        // Re-solving against the surviving candidate set stays correct.
        let mut survivors = PathSystem::new();
        survivors.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let mut oracle2 = CandidateOracle::new(&survivors);
        let sol = warm.resolve(
            &g,
            DemandDelta::Replace(d.clone()),
            &mut oracle2,
            &warm_opts(),
        );
        assert!((sol.congestion - 1.0).abs() < 1e-9);
        let loads = sol.routing.edge_loads(&g, &d);
        assert_eq!(loads.get(1), 0.0, "dead edge carries nothing");
        // Matches a cold restricted solve on the survivors.
        let cold = min_congestion_restricted(&g, &d, &survivors, &warm_opts());
        assert!((sol.congestion - cold.congestion).abs() < 1e-9);
    }

    #[test]
    fn invalidate_all_paths_of_a_pair_forces_reinit() {
        let g = generators::ring(6);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        let d = Demand::from_pairs(&[(0, 3)]);
        let mut oracle = CandidateOracle::new(&cands);
        let mut warm = Solver::solve(&g, &d, &mut oracle, &warm_opts());
        warm.invalidate_edges(&[0]);
        assert!(warm.routing().is_empty(), "no survivors for the pair");
        // Resolve with an oracle that still covers the pair re-initializes.
        let mut fresh = PathSystem::new();
        fresh.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let mut oracle2 = CandidateOracle::new(&fresh);
        let sol = warm.resolve(&g, DemandDelta::Replace(d), &mut oracle2, &warm_opts());
        assert!((sol.congestion - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_resolve_strands_pairs_the_oracle_lost() {
        // After a failure wipes a pair's candidates, re-solving against
        // the survivors strands that pair instead of panicking.
        let g = generators::ring(6);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        cands.insert(Path::from_vertices(&g, &[1, 2, 3, 4]).unwrap());
        let d = Demand::from_pairs(&[(0, 3), (1, 4)]);
        let mut oracle = CandidateOracle::new(&cands);
        let mut warm = Solver::new(&g);
        let first = warm.resolve(
            &g,
            DemandDelta::Replace(d.clone()),
            &mut oracle,
            &warm_opts(),
        );
        assert_eq!(first.stranded, 0.0);
        // Edge (1, 2) dies: both carried paths cross it.
        warm.invalidate_edges(&[1]);
        let mut survivors = PathSystem::new();
        survivors.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let mut oracle2 = CandidateOracle::new(&survivors);
        let sol = warm.resolve(&g, DemandDelta::Replace(d), &mut oracle2, &warm_opts());
        assert_eq!(sol.stranded, 1.0, "(1, 4) has no surviving candidates");
        assert_eq!(sol.dropped_pairs, vec![(1, 4)]);
        assert!((sol.congestion - 1.0).abs() < 1e-9, "(0, 3) reroutes");
    }

    // ------------------------------------------------------------------
    // The warm chain, pinned bit for bit.
    // ------------------------------------------------------------------

    /// FNV-1a over a routing's pairs, path edge sequences and weight
    /// bits, in pair order — path ids left out.
    fn routing_fingerprint(r: &Routing) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for ((s, t), run) in r.distributions().iter() {
            eat(u64::from(s) << 32 | u64::from(t));
            for &(id, w) in run {
                r.store().edges(id).iter().for_each(|&e| eat(u64::from(e)));
                eat(w.to_bits());
            }
        }
        h
    }

    /// The chain's pairs on `grid(4, 4)`.
    const CHAIN_PAIRS: [(VertexId, VertexId); 6] =
        [(0, 15), (3, 12), (5, 10), (1, 14), (2, 13), (4, 11)];

    /// Up to 3 hop-shortest candidates per chain pair, skipping paths
    /// through `dead`.
    fn chain_candidates(g: &Graph, dead: &[EdgeId]) -> PathSystem {
        let mut cands = PathSystem::new();
        for (s, t) in CHAIN_PAIRS {
            for path in ssor_graph::ksp::k_shortest_paths(g, s, t, 3, &|_| 1.0) {
                if !dead.iter().any(|e| path.edges().contains(e)) {
                    cands.insert(path);
                }
            }
        }
        cands
    }

    /// `Replace`, `Scale`, `Set` (pair (0, 15) leaves and a new pair
    /// joins), `Set` ((0, 15) returns), `invalidate_edges(dead)`, then
    /// `Replace` against `after`. Per solve: congestion and lower-bound
    /// bits, iterations, stranded bits and the routing's fingerprint;
    /// plus the number of invalidated paths.
    fn warm_chain(
        g: &Graph,
        before: &mut dyn PathOracle,
        after: &mut dyn PathOracle,
        dead: &[EdgeId],
    ) -> Vec<u64> {
        fn record(out: &mut Vec<u64>, sol: &MinCongSolution) {
            out.extend([
                sol.congestion.to_bits(),
                sol.lower_bound.to_bits(),
                sol.iterations as u64,
                sol.stranded.to_bits(),
                routing_fingerprint(&sol.routing),
            ]);
        }
        let opts = warm_opts();
        let mut d0 = Demand::new();
        for (&(s, t), w) in CHAIN_PAIRS.iter().zip([1.0, 2.0, 0.5, 1.5]) {
            d0.set(s, t, w);
        }
        let mut d1 = Demand::new();
        for (&(s, t), w) in CHAIN_PAIRS.iter().skip(1).zip([1.0, 1.25, 3.0, 0.75, 2.0]) {
            d1.set(s, t, w);
        }
        let mut warm = Solver::new(g);
        let mut out = Vec::new();
        let deltas = [
            DemandDelta::Replace(d0),
            DemandDelta::Scale(1.3),
            DemandDelta::Set(vec![((0, 15), 0.0), ((2, 13), 2.0)]),
            DemandDelta::Set(vec![((0, 15), 1.0)]),
        ];
        for delta in deltas {
            record(&mut out, &warm.resolve(g, delta, before, &opts));
        }
        out.push(warm.invalidate_edges(dead) as u64);
        record(
            &mut out,
            &warm.resolve(g, DemandDelta::Replace(d1), after, &opts),
        );
        out
    }

    /// Edges (0, 4) and (5, 6) of `grid(4, 4)`.
    const CHAIN_DEAD: [EdgeId; 2] = [1, 9];

    /// [`warm_chain`] on k-shortest candidates: five solves of
    /// `[congestion, lower bound, iterations, stranded, routing]` with
    /// the invalidated-path count before the last. A change to how the
    /// warm state is stored must keep every bit.
    const CANDIDATE_CHAIN: [u64; 26] = [
        0x40085cd9ea9e7f1c,
        0x4007feb402670daf,
        3,
        0,
        0x87a7df43ae434852,
        0x400f709071ff1072,
        0x400ed3a0dffc8108,
        2,
        0,
        0x69e5e9cb3844185a,
        0x40058de906022c1d,
        0x40048dbb99a29756,
        25,
        0,
        0xbcee58d9286dd278,
        0x400d1575b8970410,
        0x400c077ae0b815f5,
        3,
        0,
        0xe22589c9260e4fda,
        4,
        0x401002f056d1b637,
        0x400f8d650795aedc,
        4,
        0,
        0x9f44cc05b880849c,
    ];

    /// [`warm_chain`] on all paths (masked after the failure), laid out
    /// like [`CANDIDATE_CHAIN`].
    const ALL_PATHS_CHAIN: [u64; 26] = [
        0x3ff402342d629c76,
        0x3ff35b3a2408535e,
        92,
        0,
        0xeb156168b3d5a8d0,
        0x3ffa02dd6e3364ff,
        0x3ff8f3b8bb1c91b8,
        1,
        0,
        0xeb156168b3d5a8d0,
        0x3ffcf4f7a3e25f2e,
        0x3ffbab8913ca3b4c,
        76,
        0,
        0x26a903d30078bde0,
        0x40006832300ab3db,
        0x3fff5c4b5f410570,
        31,
        0,
        0xd14fbf44d297aed8,
        45,
        0x40055857bf7831c4,
        0x40045b00f076250f,
        26,
        0,
        0x24cd6d51f9d356f3,
    ];

    #[test]
    fn warm_chain_is_pinned_and_its_state_stays_bounded() {
        let g = generators::grid(4, 4);
        let cands = chain_candidates(&g, &[]);
        let survivors = chain_candidates(&g, &CHAIN_DEAD);
        let got = warm_chain(
            &g,
            &mut CandidateOracle::new(&cands),
            &mut CandidateOracle::new(&survivors),
            &CHAIN_DEAD,
        );
        assert_eq!(got, CANDIDATE_CHAIN);
        let mut sub = g.sub_topology();
        for e in CHAIN_DEAD {
            sub.fail_edge(e);
        }
        let got = warm_chain(
            &g,
            &mut AllPathsOracle::new(&g),
            &mut AllPathsOracle::masked(&g, &sub.usable_edges()),
            &CHAIN_DEAD,
        );
        assert_eq!(got, ALL_PATHS_CHAIN);

        // 100 resolves alternating between two overlapping demands: one
        // run per pair ever demanded, never more entries than candidates.
        let mut oracle = CandidateOracle::new(&cands);
        let mut warm = Solver::new(&g);
        let mut seen = std::collections::BTreeSet::new();
        for step in 0..100 {
            let (first, count) = if step % 2 == 0 { (0, 3) } else { (2, 4) };
            let mut d = Demand::new();
            for (i, &(s, t)) in CHAIN_PAIRS.iter().skip(first).take(count).enumerate() {
                d.set(s, t, 1.0 + ((step + i) % 3) as f64);
                seen.insert((s, t));
            }
            warm.resolve(&g, DemandDelta::Replace(d), &mut oracle, &warm_opts());
            let candidates: usize = seen
                .iter()
                .map(|&(s, t)| cands.path_ids(s, t).map_or(0, <[_]>::len))
                .sum();
            let entries: usize = warm.warm.iter().map(|(_, run)| run.len()).sum();
            let runs: Vec<_> = warm.warm.iter().map(|(pair, _)| pair).collect();
            assert_eq!(runs, Vec::from_iter(seen.iter().copied()), "step {step}");
            assert!(
                entries <= candidates,
                "step {step}: {entries} > {candidates}"
            );
            assert!(warm.warm.store().len() <= candidates, "step {step}");
        }
    }
}
