//! Electrical-flow oblivious routing over per-source Laplacian
//! potentials.
//!
//! Routing `s -> t` along the unit electrical current (potentials solving
//! `L φ = e_s - e_t`) is a classic *demand-independent* fractional routing:
//! the current is acyclic (flows down potential), so it decomposes into a
//! distribution over simple paths — an oblivious routing in the paper's
//! sense. Its worst-case competitiveness is polynomial, not polylog
//! (it is the baseline the tree-based schemes beat), which makes it a
//! useful comparison point for the A1 ablation.
//!
//! # Scaling structure
//!
//! The naive formulation pays one Laplacian solve per `(s, t)` pair —
//! `O(n²)` solves for an all-pairs template. This module instead solves
//! **per-source** systems `L ψ_s = e_s − (1/n)𝟙` (one per source, each a
//! legal kernel-orthogonal right-hand side) and derives every pair's
//! potentials by superposition: `L (ψ_s − ψ_t) = e_s − e_t`, so the
//! `s → t` current falls out of the difference `ψ_s − ψ_t` with no
//! further solve. An all-pairs template costs `n` solves, each running
//! on [`ssor_graph::CsrLaplacian`]'s preconditioned CG (Jacobi by
//! default) instead of the old unpreconditioned `Graph::edges`-walking
//! loop, and independent sources fan out over rayon via
//! `CsrLaplacian::solve_batch` — input-order collected, so builds are
//! bit-identical at any thread count (the PR 5 discipline).
//!
//! The original per-pair solver survives in the tests as the
//! slow-but-simple reference the per-source path is checked against.

use crate::traits::ObliviousRouting;
use ssor_flow::decompose::{decompose, EdgeFlow};
use ssor_graph::obs::{StageProfile, Stopwatch};
use ssor_graph::{CsrLaplacian, Distributions, Graph, Preconditioner, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Why an [`ElectricalRouting`] could not be constructed.
///
/// The Laplacian of a disconnected graph has a larger kernel than the
/// all-ones vector, so "the" electrical flow between components does not
/// exist — the solver would silently return an arbitrary vector instead
/// of a routing. [`ElectricalRouting::try_with_options`] surfaces that
/// as a proper error rather than asserting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectricalError {
    /// The graph is disconnected; no electrical flow exists between
    /// components.
    Disconnected,
}

impl std::fmt::Display for ElectricalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElectricalError::Disconnected => {
                write!(f, "electrical routing needs a connected graph")
            }
        }
    }
}

impl std::error::Error for ElectricalError {}

/// Solver knobs for [`ElectricalRouting`] — carried by
/// `TemplateSpec::Electrical` in the engine, so both fields must stay a
/// pure function of the spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectricalOptions {
    /// CG convergence threshold: stop when `‖r‖₂ ≤ tolerance · ‖b‖₂`.
    pub tolerance: f64,
    /// Which preconditioner the solves run under.
    pub preconditioner: Preconditioner,
}

impl Default for ElectricalOptions {
    /// `tolerance = 1e-10`, Jacobi preconditioning — the settings every
    /// pre-existing electrical test was calibrated against.
    fn default() -> Self {
        ElectricalOptions {
            tolerance: 1e-10,
            preconditioner: Preconditioner::Jacobi,
        }
    }
}

/// Oblivious routing along unit electrical flows (unit conductance on
/// every edge).
///
/// Pair flows come from cached per-source potentials `ψ_s` (see the
/// module docs): the first query touching source `s` solves
/// `L ψ_s = e_s − (1/n)𝟙` once, and every later pair involving `s`
/// reuses it. [`ElectricalRouting::precomputed`] batch-solves all
/// sources up front (rayon fan-out, input-order collected) — the
/// all-pairs template build, `O(n)` solves total.
///
/// # Examples
///
/// ```
/// use ssor_oblivious::{ElectricalRouting, ObliviousRouting};
///
/// let g = ssor_graph::generators::ring(6);
/// let r = ElectricalRouting::new(&g);
/// let dist = r.path_distribution(0, 3);
/// // The two sides of the ring have equal resistance: 50/50 split.
/// assert_eq!(dist.len(), 2);
/// assert!((dist[0].1 - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub struct ElectricalRouting {
    graph: Graph,
    lap: CsrLaplacian,
    opts: ElectricalOptions,
    /// Per-source potentials, filled lazily or by
    /// [`Self::precomputed`]. Vertex-indexed (no hash container), so
    /// cache hits are an array load.
    potentials: Mutex<Vec<Option<Arc<Vec<f64>>>>>,
    /// Laplacian solves performed so far — the observable the O(n)
    /// scaling test asserts on.
    solves: AtomicUsize,
    /// Batched precompute wall, as one `"metric"` stage.
    profile: Option<StageProfile>,
}

impl ElectricalRouting {
    /// Unit conductances with custom solver options, or
    /// [`ElectricalError::Disconnected`] when no electrical flow exists.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not finite and positive (a caller bug,
    /// unlike disconnection, which can be a property of the data).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssor_graph::Graph;
    /// use ssor_oblivious::{ElectricalError, ElectricalRouting};
    ///
    /// let split = Graph::from_edges(4, &[(0, 1), (2, 3)]);
    /// assert_eq!(
    ///     ElectricalRouting::try_with_options(&split, Default::default()).unwrap_err(),
    ///     ElectricalError::Disconnected,
    /// );
    /// ```
    pub fn try_with_options(g: &Graph, opts: ElectricalOptions) -> Result<Self, ElectricalError> {
        assert!(
            opts.tolerance > 0.0 && opts.tolerance.is_finite(),
            "tolerance must be finite and positive"
        );
        if !g.is_connected() {
            return Err(ElectricalError::Disconnected);
        }
        let lap = CsrLaplacian::new(g, &vec![1.0; g.m()]);
        Ok(ElectricalRouting {
            graph: g.clone(),
            lap,
            opts,
            potentials: Mutex::new(vec![None; g.n()]),
            solves: AtomicUsize::new(0),
            profile: None,
        })
    }

    /// Unit conductances on every edge, default solver options.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (use
    /// [`ElectricalRouting::try_with_options`] to handle that as an
    /// error).
    pub fn new(g: &Graph) -> Self {
        Self::with_options(g, ElectricalOptions::default())
    }

    /// Unit conductances with custom solver options.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or the options are invalid.
    pub fn with_options(g: &Graph, opts: ElectricalOptions) -> Self {
        Self::try_with_options(g, opts).expect("electrical routing needs a connected graph")
    }

    /// Laplacian solves performed so far (lazy and precomputed alike) —
    /// `n` solves cover an all-pairs template.
    #[cfg(test)]
    fn laplacian_solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Batch-solves `ψ_s` for every vertex up front, fanning sources
    /// over rayon workers (input-order collected, so the cache is
    /// bit-identical at any thread count), and records the build wall
    /// into [`ObliviousRouting::build_profile`]. The all-pairs template
    /// build: `O(n)` solves, after which every pair query is solve-free.
    pub fn precomputed(self) -> Self {
        let sources: Vec<VertexId> = (0..self.graph.n() as VertexId).collect();
        self.precompute_sources(&sources)
    }

    /// Batch-solves `ψ_s` for the given sources only — the shape the
    /// standing bench uses to time per-source solves on graphs too large
    /// for an `n × n` potentials cache.
    pub fn precompute_sources(mut self, sources: &[VertexId]) -> Self {
        let n = self.graph.n();
        let clock = Stopwatch::start();
        let rhs: Vec<Vec<f64>> = sources.iter().map(|&s| source_rhs(n, s)).collect();
        let solved = self.lap.solve_batch(
            &rhs,
            self.opts.preconditioner,
            self.opts.tolerance,
            4 * n + 200,
        );
        let wall = clock.elapsed();
        self.solves.fetch_add(sources.len(), Ordering::Relaxed);
        {
            let mut cache = self.potentials.lock().expect("potentials cache lock");
            for (&s, sol) in sources.iter().zip(solved) {
                cache[s as usize] = Some(Arc::new(sol.potentials));
            }
        }
        let profile = self.profile.get_or_insert_with(StageProfile::default);
        profile.add("metric", wall);
        profile.add_total(wall);
        self
    }

    /// `ψ_s`, from the cache or via one solve. Solving happens outside
    /// the lock; a racing double-compute wastes work but yields the same
    /// bits, so first-write-wins keeps the cache deterministic.
    pub fn potential(&self, s: VertexId) -> Arc<Vec<f64>> {
        if let Some(p) = self.potentials.lock().expect("potentials cache lock")[s as usize].clone()
        {
            return p;
        }
        let n = self.graph.n();
        let b = source_rhs(n, s);
        self.solves.fetch_add(1, Ordering::Relaxed);
        let sol = self.lap.solve(
            &b,
            self.opts.preconditioner,
            self.opts.tolerance,
            4 * n + 200,
        );
        let psi = Arc::new(sol.potentials);
        let mut cache = self.potentials.lock().expect("potentials cache lock");
        let slot = &mut cache[s as usize];
        if slot.is_none() {
            *slot = Some(psi);
        }
        slot.clone().expect("slot was just filled")
    }

    /// The unit `s -> t` current per edge, from potential superposition:
    /// `L (ψ_s − ψ_t) = e_s − e_t`.
    fn pair_flow(&self, s: VertexId, t: VertexId) -> EdgeFlow {
        let ps = self.potential(s);
        let pt = self.potential(t);
        self.graph
            .edges()
            .map(|(_, (u, v))| {
                let du = ps[u as usize] - pt[u as usize];
                let dv = ps[v as usize] - pt[v as usize];
                du - dv
            })
            .collect()
    }
}

/// The per-source right-hand side `e_s − (1/n)𝟙` (sums to 0 exactly in
/// exact arithmetic; within the relative kernel check in floats).
fn source_rhs(n: usize, s: VertexId) -> Vec<f64> {
    let mut b = vec![-1.0 / n as f64; n];
    b[s as usize] += 1.0;
    b
}

impl ObliviousRouting for ElectricalRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        let flow = self.pair_flow(s, t);
        for (p, w) in decompose(&self.graph, flow, s, t, 1e-9) {
            out.push(&p, w);
        }
        // Numerical residue: renormalize to exactly 1.
        let total = out.normalize_open(s, t);
        assert!(total > 0.5, "electrical flow lost more than half its mass");
        out.sort_open_by(|store, a, b| {
            b.1.total_cmp(&a.1)
                .then(store.edges(a.0).cmp(store.edges(b.0)))
        });
    }

    fn build_profile(&self) -> Option<&StageProfile> {
        self.profile.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_oblivious_routing;
    use ssor_graph::generators;

    /// `y = L x` for the weighted graph Laplacian: the textbook edge walk.
    fn apply_laplacian(g: &Graph, w: &[f64], x: &[f64], y: &mut [f64]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        for (e, (u, v)) in g.edges() {
            let c = w[e as usize];
            let d = x[u as usize] - x[v as usize];
            y[u as usize] += c * d;
            y[v as usize] -= c * d;
        }
    }

    /// The per-pair reference solver: unpreconditioned CG for `L φ = b`
    /// (`b ⊥ 1`), iterates kept orthogonal to the all-ones kernel.
    /// Returns the mean-centered potentials.
    fn solve_laplacian(g: &Graph, w: &[f64], b: &[f64], tol: f64, max_iters: usize) -> Vec<f64> {
        let n = g.n();
        let center = |x: &mut Vec<f64>| {
            let mean = x.iter().sum::<f64>() / n as f64;
            x.iter_mut().for_each(|v| *v -= mean);
        };
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        center(&mut r);
        let mut p = r.clone();
        let mut ap = vec![0.0; n];
        let mut rs: f64 = r.iter().map(|v| v * v).sum();
        let b_norm = rs.sqrt().max(f64::MIN_POSITIVE);
        for _ in 0..max_iters {
            if rs.sqrt() <= tol * b_norm {
                break;
            }
            apply_laplacian(g, w, &p, &mut ap);
            let pap: f64 = p.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
            if pap.abs() < 1e-300 {
                break;
            }
            let alpha = rs / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rs_new: f64 = r.iter().map(|v| v * v).sum();
            let beta = rs_new / rs;
            rs = rs_new;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
        }
        center(&mut x);
        x
    }

    /// Effective resistance between `s` and `t` under conductances `w`,
    /// one fresh per-pair solve.
    fn effective_resistance(g: &Graph, w: &[f64], s: VertexId, t: VertexId) -> f64 {
        let n = g.n();
        let mut b = vec![0.0; n];
        b[s as usize] = 1.0;
        b[t as usize] = -1.0;
        let phi = solve_laplacian(g, w, &b, 1e-10, 4 * n + 200);
        phi[s as usize] - phi[t as usize]
    }

    /// Effective resistance from per-source potentials:
    /// `(ψ_s − ψ_t)[s] − (ψ_s − ψ_t)[t]`.
    fn resistance_between(r: &ElectricalRouting, s: VertexId, t: VertexId) -> f64 {
        let ps = r.potential(s);
        let pt = r.potential(t);
        (ps[s as usize] - pt[s as usize]) - (ps[t as usize] - pt[t as usize])
    }

    #[test]
    fn laplacian_solver_on_path_graph() {
        // Path 0-1-2: unit current 0 -> 2 gives potential drops of 1 per
        // edge (resistance 1 each): phi_0 - phi_2 = 2.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let w = vec![1.0, 1.0];
        let r = effective_resistance(&g, &w, 0, 2);
        assert!((r - 2.0).abs() < 1e-6, "series resistance adds, got {r}");
    }

    #[test]
    fn parallel_edges_halve_resistance() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        let r = effective_resistance(&g, &[1.0, 1.0], 0, 1);
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ring_splits_by_resistance() {
        // Ring of 5, 0 -> 2: sides have resistance 2 and 3; current splits
        // 3/5 vs 2/5.
        let g = generators::ring(5);
        let r = ElectricalRouting::new(&g);
        let dist = r.path_distribution(0, 2);
        assert_eq!(dist.len(), 2);
        assert!(
            (dist[0].1 - 0.6).abs() < 1e-6,
            "short side carries 3/5, got {}",
            dist[0].1
        );
        assert!((dist[1].1 - 0.4).abs() < 1e-6);
    }

    #[test]
    fn per_source_pair_flow_conserves_too() {
        let g = generators::grid(4, 4);
        let r = ElectricalRouting::new(&g);
        let flow = r.pair_flow(0, 15);
        assert!(ssor_flow::decompose::is_conserving(
            &g, &flow, 0, 15, 1.0, 1e-6
        ));
    }

    #[test]
    fn validates_as_oblivious_routing() {
        let g = generators::grid(3, 3);
        let r = ElectricalRouting::new(&g);
        validate_oblivious_routing(&r, &[(0, 8), (2, 6), (1, 5)]).unwrap();
    }

    #[test]
    fn disconnected_graphs_are_a_proper_error() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(
            ElectricalRouting::try_with_options(&g, ElectricalOptions::default()).unwrap_err(),
            ElectricalError::Disconnected
        );
        // The panicking constructor still panics, with a telling message.
        let caught = std::panic::catch_unwind(|| ElectricalRouting::new(&g));
        assert!(caught.is_err());
    }

    #[test]
    fn congestion_reasonable_on_hypercube_permutation() {
        use ssor_flow::Demand;
        let r = ElectricalRouting::new(&generators::hypercube(4));
        let d = Demand::hypercube_complement(4);
        let cong = r.congestion(&d);
        // Sanity window: better than single-path worst case, worse than 0.
        assert!(cong > 0.5 && cong < 16.0, "cong = {cong}");
    }

    #[test]
    fn all_pairs_template_costs_n_solves() {
        // The tentpole observable: querying every ordered pair costs n
        // Laplacian solves (one per source), not n(n-1).
        let g = generators::grid(4, 4);
        let n = g.n();
        let r = ElectricalRouting::new(&g);
        for s in 0..n as VertexId {
            for t in 0..n as VertexId {
                if s != t {
                    r.path_distribution(s, t);
                }
            }
        }
        assert_eq!(r.laplacian_solves(), n, "one solve per source");
        // And a precomputed build pays exactly the same n, up front.
        let pre = ElectricalRouting::new(&g).precomputed();
        assert_eq!(pre.laplacian_solves(), n);
        pre.path_distribution(0, 15);
        assert_eq!(
            pre.laplacian_solves(),
            n,
            "queries after precompute are solve-free"
        );
        assert!(pre.build_profile().is_some());
    }

    #[test]
    fn precomputed_matches_lazy_bitwise() {
        let (g, _, _) = generators::waxman_connected(30, 0.4, 0.25, 7, 16);
        let lazy = ElectricalRouting::new(&g);
        let pre = ElectricalRouting::new(&g).precomputed();
        for (s, t) in [(0, 29), (3, 17), (12, 5)] {
            let a = lazy.path_distribution(s, t);
            let b = pre.path_distribution(s, t);
            assert_eq!(a.len(), b.len());
            for ((pa, wa), (pb, wb)) in a.iter().zip(&b) {
                assert_eq!(pa.edges(), pb.edges());
                assert_eq!(wa.to_bits(), wb.to_bits());
            }
        }
    }

    #[test]
    fn per_source_resistance_matches_reference_and_closed_forms() {
        // Ring closed form: R(0, k) = k(n−k)/n.
        let n = 8;
        let g = generators::ring(n);
        let w = vec![1.0; g.m()];
        let r = ElectricalRouting::new(&g);
        for k in 1..n {
            let expect = (k * (n - k)) as f64 / n as f64;
            let per_source = resistance_between(&r, 0, k as VertexId);
            let per_pair = effective_resistance(&g, &w, 0, k as VertexId);
            assert!(
                (per_source - expect).abs() < 1e-8,
                "ring R(0,{k}): per-source {per_source} vs closed form {expect}"
            );
            assert!(
                (per_source - per_pair).abs() < 1e-8,
                "ring R(0,{k}): per-source {per_source} vs per-pair {per_pair}"
            );
        }
        // Grid spot checks against the per-pair reference.
        let g = generators::grid(4, 4);
        let w = vec![1.0; g.m()];
        let r = ElectricalRouting::new(&g);
        for (s, t) in [(0, 15), (1, 14), (5, 10)] {
            let a = resistance_between(&r, s, t);
            let b = effective_resistance(&g, &w, s, t);
            assert!((a - b).abs() < 1e-8, "grid R({s},{t}): {a} vs {b}");
        }
    }

    #[test]
    fn options_are_respected() {
        let g = generators::grid(3, 3);
        let loose = ElectricalRouting::with_options(
            &g,
            ElectricalOptions {
                tolerance: 1e-4,
                preconditioner: Preconditioner::None,
            },
        );
        assert_eq!(loose.opts.preconditioner, Preconditioner::None);
        // Both settings still produce a valid routing.
        validate_oblivious_routing(&loose, &[(0, 8), (2, 6)])
            .expect("loose-tolerance electrical routing must validate");
    }
}
