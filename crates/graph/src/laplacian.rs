//! Sparse graph-Laplacian linear algebra: a CSR-backed operator apply
//! and a preconditioned conjugate-gradient solver.
//!
//! The electrical-flow template ([`ssor-oblivious`]'s
//! `ElectricalRouting`) reduces to solving `L ψ = b` many times over the
//! same weighted Laplacian `L`. This module is that solver, restructured
//! for scale:
//!
//! * [`CsrLaplacian`] flattens the operator once into offset/neighbor/
//!   weight arrays, so every CG iteration sweeps two dense arrays
//!   instead of re-walking `Graph::edges` — the same CSR discipline the
//!   shortest-path layer adopted in PR 2;
//! * [`CsrLaplacian::solve`] runs conjugate gradients with an optional
//!   Jacobi (inverse-degree) [`Preconditioner`], keeping iterates
//!   orthogonal to the all-ones kernel; every reduction (dot products,
//!   kernel projections) is a serial left-to-right fold, so the returned
//!   potentials are a pure function of `(operator, rhs, options)` —
//!   bit-stable across runs and thread counts;
//! * [`CsrLaplacian::solve_batch`] fans independent right-hand sides out
//!   over rayon workers via [`crate::par_ordered_map`], collected in
//!   input order — the multi-RHS shape the per-source electrical
//!   template build consumes.
//!
//! The apply is **bitwise identical** to the textbook edge-walk
//! (`for (e, (u, v)): y[u] += c·(x[u]−x[v]); y[v] −= …`): per-vertex
//! adjacency lists hold arcs in increasing edge-id order, so vertex `v`
//! accumulates exactly the same addends in exactly the same order as the
//! edge walk delivers them — a property the graph crate's proptests pin
//! with `to_bits()`.
//!
//! [`ssor-oblivious`]: ../../ssor_oblivious/index.html

use crate::graph::{Graph, VertexId};
use crate::par::par_ordered_map;

/// Which preconditioner [`CsrLaplacian::solve`] applies.
///
/// Hashable and bit-stable, so engine specs can carry it as a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Preconditioner {
    /// No preconditioning: plain conjugate gradients.
    None,
    /// Jacobi (diagonal) scaling by inverse weighted degree — one
    /// multiply per entry per iteration, and on the irregular-degree
    /// topologies (Waxman WANs, Clos fabrics with parallel uplinks) it
    /// cuts iteration counts severalfold. The default.
    #[default]
    Jacobi,
}

/// One converged (or iteration-capped) Laplacian solve.
#[derive(Debug, Clone)]
pub struct LaplacianSolve {
    /// The mean-centered potentials `ψ` with `L ψ ≈ b`.
    pub potentials: Vec<f64>,
    /// CG iterations performed.
    pub iterations: usize,
    /// Final `‖r‖₂ / ‖b‖₂` (the convergence criterion's quantity).
    pub relative_residual: f64,
}

/// The weighted graph Laplacian `L = D − A` in compressed sparse row
/// form, ready for repeated applies and solves.
///
/// Built once per (graph, conductances) pair in `O(n + m)`; stores one
/// `(neighbor, weight)` pair per arc in the same per-vertex,
/// increasing-edge-id order as [`Graph::neighbors`], plus the weighted
/// degree diagonal.
///
/// # Examples
///
/// ```
/// use ssor_graph::{CsrLaplacian, Graph, Preconditioner};
///
/// // Path 0-1-2 with unit conductances: solving L ψ = e_0 − e_2 gives
/// // potential drop 2 (series resistances add).
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let lap = CsrLaplacian::new(&g, &[1.0, 1.0]);
/// let b = vec![1.0, 0.0, -1.0];
/// let s = lap.solve(&b, Preconditioner::Jacobi, 1e-10, 100);
/// assert!((s.potentials[0] - s.potentials[2] - 2.0).abs() < 1e-8);
/// ```
#[derive(Debug, Clone)]
pub struct CsrLaplacian {
    offsets: Vec<u32>,
    nbr: Vec<VertexId>,
    w: Vec<f64>,
    diag: Vec<f64>,
}

impl CsrLaplacian {
    /// Flattens the Laplacian of `g` under per-edge `conductance`.
    ///
    /// # Panics
    ///
    /// Panics if `conductance.len() != g.m()` or any conductance is not
    /// finite and positive (a zero or negative conductance is not a
    /// Laplacian; disconnection must be handled by the caller).
    pub fn new(g: &Graph, conductance: &[f64]) -> CsrLaplacian {
        assert_eq!(conductance.len(), g.m(), "one conductance per edge");
        assert!(
            conductance.iter().all(|&c| c > 0.0 && c.is_finite()),
            "conductances must be finite and positive"
        );
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(2 * g.m());
        let mut w = Vec::with_capacity(2 * g.m());
        let mut diag = Vec::with_capacity(n);
        offsets.push(0u32);
        for v in g.vertices() {
            let mut d = 0.0;
            for a in g.neighbors(v) {
                let c = conductance[a.edge as usize];
                nbr.push(a.to);
                w.push(c);
                d += c;
            }
            diag.push(d);
            offsets.push(nbr.len() as u32);
        }
        CsrLaplacian {
            offsets,
            nbr,
            w,
            diag,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.diag.len()
    }

    /// Weighted degree (the Laplacian diagonal) of `v`.
    pub fn degree(&self, v: VertexId) -> f64 {
        self.diag[v as usize]
    }

    /// `y = L x`, overwriting `y`.
    ///
    /// Per vertex `v`: `y[v] = Σ_arcs c · (x[v] − x[nbr])`, accumulated
    /// in increasing-edge-id arc order — bitwise identical to the
    /// edge-walk formulation (each addend is the exact IEEE negation of
    /// the walk's, and the per-target addition order coincides).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` has the wrong length.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.n();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        for v in 0..n {
            let lo = self.offsets[v] as usize;
            let hi = self.offsets[v + 1] as usize;
            let xv = x[v];
            let mut acc = 0.0;
            for (to, c) in self.nbr[lo..hi].iter().zip(&self.w[lo..hi]) {
                acc += c * (xv - x[*to as usize]);
            }
            y[v] = acc;
        }
    }

    /// Solves `L ψ = b` by (preconditioned) conjugate gradients on the
    /// pseudo-inverse, returning mean-centered potentials.
    ///
    /// Converged when `‖r‖₂ ≤ tol · ‖b‖₂`; capped at `max_iters`
    /// iterations. Every reduction is a serial left-to-right fold, so
    /// the result is bit-stable.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `b` is not orthogonal to the all-ones
    /// kernel *relative to its own scale* (`|Σb| > 1e-6 · ‖b‖₁` — an
    /// absolute threshold here would reject legitimately scaled demand
    /// vectors while passing tiny vectors with 100% drift).
    pub fn solve(
        &self,
        b: &[f64],
        precond: Preconditioner,
        tol: f64,
        max_iters: usize,
    ) -> LaplacianSolve {
        let n = self.n();
        assert_eq!(b.len(), n);
        let bsum: f64 = b.iter().sum();
        let bl1: f64 = b.iter().map(|v| v.abs()).sum();
        assert!(
            bsum.abs() <= 1e-6 * bl1.max(f64::MIN_POSITIVE),
            "b must be orthogonal to the kernel relative to its scale \
             (sum {bsum}, l1 {bl1})"
        );

        let center = |x: &mut [f64]| {
            let mean = x.iter().sum::<f64>() / n as f64;
            x.iter_mut().for_each(|v| *v -= mean);
        };
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let apply_precond = |r: &[f64], z: &mut [f64]| match precond {
            Preconditioner::None => z.copy_from_slice(r),
            Preconditioner::Jacobi => {
                for ((zi, ri), d) in z.iter_mut().zip(r).zip(&self.diag) {
                    // Isolated vertices have zero degree; their
                    // component of any kernel-orthogonal rhs is 0 too,
                    // so passing it through unscaled is exact.
                    *zi = if *d > 0.0 { ri / d } else { *ri };
                }
            }
        };

        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        center(&mut r);
        let b_norm = dot(&r, &r).sqrt().max(f64::MIN_POSITIVE);
        let mut z = vec![0.0; n];
        apply_precond(&r, &mut z);
        center(&mut z);
        let mut p = z.clone();
        let mut ap = vec![0.0; n];
        let mut rz = dot(&r, &z);
        let mut iterations = 0;
        let mut r_norm = dot(&r, &r).sqrt();

        while iterations < max_iters {
            if r_norm <= tol * b_norm {
                break;
            }
            self.apply(&p, &mut ap);
            let pap = dot(&p, &ap);
            if pap.abs() < 1e-300 {
                break;
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            apply_precond(&r, &mut z);
            // Re-project the preconditioned residual off the kernel:
            // Jacobi scaling does not preserve orthogonality to 1, and
            // letting the drift compound stalls CG near convergence.
            center(&mut z);
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
            iterations += 1;
            r_norm = dot(&r, &r).sqrt();
        }
        center(&mut x);
        LaplacianSolve {
            potentials: x,
            iterations,
            relative_residual: r_norm / b_norm,
        }
    }

    /// Solves one system per right-hand side, fanned out over rayon
    /// workers via [`par_ordered_map`] and returned in input order —
    /// bit-identical to a serial sweep at any thread count. The
    /// multi-RHS shape of the per-source electrical template build.
    pub fn solve_batch(
        &self,
        rhs: &[Vec<f64>],
        precond: Preconditioner,
        tol: f64,
        max_iters: usize,
    ) -> Vec<LaplacianSolve> {
        par_ordered_map(rhs, BATCH_PAR_MIN_RHS, |b| {
            self.solve(b, precond, tol, max_iters)
        })
    }
}

/// Below this many right-hand sides a batch solve stays serial (the
/// vendored rayon shim spawns threads per call, which only amortizes
/// over enough work); the cutoff moves wall-clock, never bits.
const BATCH_PAR_MIN_RHS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// The pre-CSR reference: the textbook edge walk over
    /// `Graph::edges`, kept verbatim as the bitwise baseline.
    fn apply_reference(g: &Graph, w: &[f64], x: &[f64], y: &mut [f64]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        for (e, (u, v)) in g.edges() {
            let c = w[e as usize];
            let d = x[u as usize] - x[v as usize];
            y[u as usize] += c * d;
            y[v as usize] -= c * d;
        }
    }

    #[test]
    fn apply_matches_edge_walk_bitwise_on_a_multigraph() {
        let mut g = generators::grid(4, 5);
        // Parallel edges stress the per-arc ordering argument.
        g.add_edge(0, 1);
        g.add_edge(7, 12);
        let w: Vec<f64> = (0..g.m()).map(|e| 0.25 + (e % 7) as f64 * 0.5).collect();
        let x: Vec<f64> = (0..g.n()).map(|v| (v as f64).sin() * 3.0).collect();
        let lap = CsrLaplacian::new(&g, &w);
        let mut y_csr = vec![0.0; g.n()];
        let mut y_ref = vec![0.0; g.n()];
        lap.apply(&x, &mut y_csr);
        apply_reference(&g, &w, &x, &mut y_ref);
        for v in 0..g.n() {
            assert_eq!(y_csr[v].to_bits(), y_ref[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn solve_recovers_series_resistance() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let lap = CsrLaplacian::new(&g, &[1.0, 2.0, 4.0]);
        let b = vec![1.0, 0.0, 0.0, -1.0];
        for precond in [Preconditioner::None, Preconditioner::Jacobi] {
            let s = lap.solve(&b, precond, 1e-12, 200);
            // R = 1 + 1/2 + 1/4.
            let r = s.potentials[0] - s.potentials[3];
            assert!((r - 1.75).abs() < 1e-9, "{precond:?}: got {r}");
        }
    }

    #[test]
    fn jacobi_converges_in_fewer_iterations_on_irregular_graphs() {
        let (g, _, _) = generators::waxman_connected(120, 0.4, 0.25, 3, 16);
        let w: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 9) as f64).collect();
        let lap = CsrLaplacian::new(&g, &w);
        let mut b = vec![0.0; g.n()];
        b[0] = 1.0;
        b[g.n() - 1] = -1.0;
        let plain = lap.solve(&b, Preconditioner::None, 1e-10, 10_000);
        let jacobi = lap.solve(&b, Preconditioner::Jacobi, 1e-10, 10_000);
        assert!(plain.relative_residual <= 1e-10);
        assert!(jacobi.relative_residual <= 1e-10);
        assert!(
            jacobi.iterations < plain.iterations,
            "jacobi {} vs plain {}",
            jacobi.iterations,
            plain.iterations
        );
        // Both converge to the same potentials (up to the tolerance).
        for v in 0..g.n() {
            assert!((plain.potentials[v] - jacobi.potentials[v]).abs() < 1e-6);
        }
    }

    #[test]
    fn kernel_check_is_relative_to_scale() {
        let g = generators::ring(6);
        let lap = CsrLaplacian::new(&g, &vec![1.0; g.m()]);
        // Legitimately scaled rhs: sums to 0 exactly, huge norm.
        let mut big = vec![0.0; 6];
        big[0] = 1e300;
        big[3] = -1e300;
        let s = lap.solve(&big, Preconditioner::Jacobi, 1e-10, 200);
        assert!(s.potentials.iter().all(|p| p.is_finite()));
        // Tiny rhs: denormal scale, still fine relative to itself.
        let mut tiny = vec![0.0; 6];
        tiny[0] = 1e-310;
        tiny[3] = -1e-310;
        let s = lap.solve(&tiny, Preconditioner::Jacobi, 1e-10, 200);
        assert_eq!(s.potentials.len(), 6);
    }

    #[test]
    #[should_panic(expected = "orthogonal to the kernel")]
    fn kernel_check_rejects_relative_drift() {
        // 100% relative drift at a tiny absolute scale: the old absolute
        // `|Σb| < 1e-6` check passed this silently.
        let g = generators::ring(4);
        let lap = CsrLaplacian::new(&g, &vec![1.0; g.m()]);
        lap.solve(&[1e-9, 1e-9, 0.0, 0.0], Preconditioner::None, 1e-10, 10);
    }

    #[test]
    fn solve_batch_matches_serial_solves_bitwise() {
        let g = generators::grid(5, 5);
        let w: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 3) as f64 * 0.5).collect();
        let lap = CsrLaplacian::new(&g, &w);
        let n = g.n();
        let rhs: Vec<Vec<f64>> = (0..8)
            .map(|s| {
                let mut b = vec![-1.0 / n as f64; n];
                b[s] += 1.0;
                b
            })
            .collect();
        let batch = lap.solve_batch(&rhs, Preconditioner::Jacobi, 1e-10, 500);
        for (b, got) in rhs.iter().zip(&batch) {
            let serial = lap.solve(b, Preconditioner::Jacobi, 1e-10, 500);
            assert_eq!(serial.iterations, got.iterations);
            for v in 0..n {
                assert_eq!(serial.potentials[v].to_bits(), got.potentials[v].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nonpositive_conductance() {
        let g = generators::ring(3);
        CsrLaplacian::new(&g, &[1.0, 0.0, 1.0]);
    }
}
