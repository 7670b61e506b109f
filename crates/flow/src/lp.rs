//! A small dense two-phase simplex solver.
//!
//! Offline LP crates are thin in this environment (see DESIGN.md), and the
//! reproduction only needs exact LP solves for *cross-validation* of the
//! Frank–Wolfe solver on small instances, so we implement standard-form
//! simplex with Bland's rule directly.
//!
//! Problem form: minimize `c . x` subject to `A x = b`, `x >= 0`, with
//! `b >= 0` (negate rows to normalize).

use crate::demand::Demand;
use ssor_graph::{Graph, PathSystem};

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
enum LpResult {
    /// An optimal solution `x` with objective `value` was found.
    Optimal {
        /// Optimal primal point.
        x: Vec<f64>,
        /// Objective value `c . x`.
        value: f64,
    },
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

const EPS: f64 = 1e-9;

/// Solves `min c.x  s.t.  A x = b, x >= 0` with two-phase dense simplex.
///
/// Rows with negative `b` are negated internally, so any sign of `b` is
/// accepted. Intended for small instances (tests and tiny experiments).
///
/// # Panics
///
/// Panics if dimensions of `a`, `b`, `c` are inconsistent.
fn solve_equality_form(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> LpResult {
    let m = a.len();
    assert_eq!(b.len(), m);
    let n = if m == 0 { c.len() } else { a[0].len() };
    assert!(a.iter().all(|row| row.len() == n));
    assert_eq!(c.len(), n);

    // Normalize b >= 0.
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut rhs: Vec<f64> = Vec::with_capacity(m);
    for i in 0..m {
        if b[i] < 0.0 {
            rows.push(a[i].iter().map(|v| -v).collect());
            rhs.push(-b[i]);
        } else {
            rows.push(a[i].clone());
            rhs.push(b[i]);
        }
    }

    // Tableau with artificial variables n..n+m. Layout: columns 0..n are
    // original, n..n+m artificial, last column is RHS.
    let total = n + m;
    let mut t = vec![vec![0.0f64; total + 1]; m];
    for i in 0..m {
        for j in 0..n {
            t[i][j] = rows[i][j];
        }
        t[i][n + i] = 1.0;
        t[i][total] = rhs[i];
    }
    let mut basis: Vec<usize> = (n..n + m).collect();

    // Phase 1: minimize sum of artificials.
    let mut obj = vec![0.0f64; total + 1];
    obj[n..total].fill(1.0);
    // Reduce objective over the initial basis.
    for row in t.iter().take(m) {
        for (o, tv) in obj.iter_mut().zip(row.iter()) {
            *o -= tv;
        }
    }
    if !run_simplex(&mut t, &mut obj, &mut basis, total) {
        return LpResult::Unbounded; // cannot happen in phase 1, defensive
    }
    if -obj[total] > 1e-7 {
        return LpResult::Infeasible;
    }
    // Drive artificials out of the basis where possible.
    for i in 0..m {
        if basis[i] >= n {
            if let Some(j) = (0..n).find(|&j| t[i][j].abs() > EPS) {
                pivot(&mut t, &mut obj, &mut basis, i, j, total);
            }
        }
    }

    // Phase 2: original objective, with artificial columns frozen.
    let mut obj2 = vec![0.0f64; total + 1];
    obj2[..n].copy_from_slice(&c[..n]);
    for i in 0..m {
        let bj = basis[i];
        if bj < n && c[bj].abs() > 0.0 {
            let coef = obj2[bj];
            if coef.abs() > 0.0 {
                for (o, tv) in obj2.iter_mut().zip(t[i].iter()) {
                    *o -= coef * tv;
                }
            }
        }
    }
    // Forbid artificial columns from entering.
    obj2[n..total].fill(f64::INFINITY);
    if !run_simplex(&mut t, &mut obj2, &mut basis, total) {
        return LpResult::Unbounded;
    }

    let mut x = vec![0.0f64; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][total];
        }
    }
    let value = c.iter().zip(x.iter()).map(|(ci, xi)| ci * xi).sum();
    LpResult::Optimal { x, value }
}

/// Runs simplex iterations with Bland's rule. Returns `false` on
/// unboundedness. Columns with `obj[j] = +inf` never enter.
fn run_simplex(t: &mut [Vec<f64>], obj: &mut [f64], basis: &mut [usize], total: usize) -> bool {
    let m = t.len();
    loop {
        // Bland: smallest index with negative reduced cost.
        let entering = (0..total).find(|&j| obj[j].is_finite() && obj[j] < -EPS);
        let Some(j) = entering else {
            return true;
        };
        // Ratio test, Bland tie-break on basis index.
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for i in 0..m {
            if t[i][j] > EPS {
                let ratio = t[i][total] / t[i][j];
                if ratio < best - EPS
                    || (ratio < best + EPS && leave.is_none_or(|l| basis[i] < basis[l]))
                {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(i) = leave else {
            return false; // unbounded
        };
        pivot(t, obj, basis, i, j, total);
    }
}

fn pivot(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
) {
    let m = t.len();
    let pv = t[row][col];
    debug_assert!(pv.abs() > EPS);
    for tv in t[row].iter_mut().take(total + 1) {
        *tv /= pv;
    }
    // Take the pivot row out so the eliminations can borrow it immutably
    // while mutating the other rows (no per-pivot allocation).
    let pivot_row = std::mem::take(&mut t[row]);
    for (i, trow) in t.iter_mut().enumerate().take(m) {
        if i != row && trow[col].abs() > EPS {
            let f = trow[col];
            for (tv, pv) in trow.iter_mut().zip(pivot_row.iter()) {
                *tv -= f * pv;
            }
        }
    }
    t[row] = pivot_row;
    if obj[col].is_finite() && obj[col].abs() > EPS {
        let f = obj[col];
        for j in 0..=total {
            if obj[j].is_finite() {
                obj[j] -= f * t[row][j];
            }
        }
    }
    basis[row] = col;
}

/// Exact minimum congestion over the path system `paths`, via simplex.
///
/// Builds the LP `min λ` s.t. per-pair flow conservation and per-edge
/// `load <= λ`. Returns the optimal congestion, or `None` for an empty
/// demand. Exponential-free but dense: use only on small instances.
///
/// # Panics
///
/// Panics if some demanded pair has no candidate paths.
pub fn exact_restricted_congestion(g: &Graph, d: &Demand, paths: &PathSystem) -> Option<f64> {
    let pairs = d.support();
    if pairs.is_empty() {
        return Some(0.0);
    }
    let store = paths.store();
    // Variables: x_{pair,path} for each candidate, then lambda, then one
    // slack per edge.
    let mut var_paths: Vec<(usize, ssor_graph::PathId)> = Vec::new(); // (pair index, path)
    let mut pair_offsets = Vec::with_capacity(pairs.len());
    for (pi, &(s, t)) in pairs.iter().enumerate() {
        let cands = paths
            .path_ids(s, t)
            .unwrap_or_else(|| panic!("no candidates for ({s}, {t})"));
        pair_offsets.push(var_paths.len());
        for &p in cands {
            var_paths.push((pi, p));
        }
    }
    let np = var_paths.len();
    let lambda = np;
    let slack0 = np + 1;
    let nvars = np + 1 + g.m();

    let mut a: Vec<Vec<f64>> = Vec::new();
    let mut b: Vec<f64> = Vec::new();
    // Pair rows: sum of x over the pair's paths = d(s, t).
    for (pi, &(s, t)) in pairs.iter().enumerate() {
        let mut row = vec![0.0; nvars];
        for (vi, &(pj, _)) in var_paths.iter().enumerate() {
            if pj == pi {
                row[vi] = 1.0;
            }
        }
        a.push(row);
        b.push(d.get(s, t));
    }
    // Edge rows: load_e - lambda + slack_e = 0.
    for e in 0..g.m() {
        let mut row = vec![0.0; nvars];
        for (vi, &(_, p)) in var_paths.iter().enumerate() {
            let cnt = store
                .edges(p)
                .iter()
                .filter(|&&pe| pe as usize == e)
                .count();
            if cnt > 0 {
                row[vi] = cnt as f64;
            }
        }
        row[lambda] = -1.0;
        row[slack0 + e] = 1.0;
        a.push(row);
        b.push(0.0);
    }
    let mut c = vec![0.0; nvars];
    c[lambda] = 1.0;

    match solve_equality_form(&a, &b, &c) {
        LpResult::Optimal { value, .. } => Some(value),
        LpResult::Infeasible => None,
        LpResult::Unbounded => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_graph::{generators, Path};

    #[test]
    fn solves_tiny_lp() {
        // min -x - y  s.t. x + y + s = 4, x + 2y + t = 6  (i.e. <= rows)
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![1.0, 2.0, 0.0, 1.0]];
        let b = vec![4.0, 6.0];
        let c = vec![-1.0, -1.0, 0.0, 0.0];
        match solve_equality_form(&a, &b, &c) {
            LpResult::Optimal { value, x } => {
                assert!((value - (-4.0)).abs() < 1e-7, "value = {value}");
                assert!((x[0] + x[1] - 4.0).abs() < 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasible() {
        // x = 1 and x = 2 simultaneously.
        let a = vec![vec![1.0], vec![1.0]];
        let b = vec![1.0, 2.0];
        let c = vec![0.0];
        assert_eq!(solve_equality_form(&a, &b, &c), LpResult::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x s.t. x - y = 0 : x can grow with y.
        let a = vec![vec![1.0, -1.0]];
        let b = vec![0.0];
        let c = vec![-1.0, 0.0];
        assert_eq!(solve_equality_form(&a, &b, &c), LpResult::Unbounded);
    }

    #[test]
    fn handles_negative_rhs_rows() {
        // -x = -3  =>  x = 3.
        let a = vec![vec![-1.0]];
        let b = vec![-3.0];
        let c = vec![1.0];
        match solve_equality_form(&a, &b, &c) {
            LpResult::Optimal { value, .. } => assert!((value - 3.0).abs() < 1e-7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exact_congestion_on_ring_split() {
        let g = generators::ring(6);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        cands.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let d = Demand::from_pairs(&[(0, 3)]);
        let opt = exact_restricted_congestion(&g, &d, &cands).unwrap();
        assert!((opt - 0.5).abs() < 1e-7, "opt = {opt}");
    }

    #[test]
    fn exact_congestion_single_path() {
        let g = generators::ring(5);
        let mut cands = PathSystem::new();
        cands.insert(Path::from_vertices(&g, &[0, 1, 2]).unwrap());
        let d = Demand::from_pairs(&[(0, 2)]).scaled(4.0);
        let opt = exact_restricted_congestion(&g, &d, &cands).unwrap();
        assert!((opt - 4.0).abs() < 1e-7);
    }

    #[test]
    fn exact_matches_frank_wolfe_on_random_small_instances() {
        use crate::solver::{min_congestion_restricted, SolveOptions};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..8 {
            let g = generators::erdos_renyi(8, 0.45, &mut rng);
            // Random candidate sets from shortest + random simple paths.
            let mut cands = PathSystem::new();
            let mut d = Demand::new();
            for _ in 0..4 {
                let s = rng.gen_range(0..8) as u32;
                let mut t = rng.gen_range(0..8) as u32;
                if s == t {
                    t = (t + 1) % 8;
                }
                let all = ssor_graph::ksp::k_shortest_paths(&g, s, t, 3, &|_| 1.0);
                if all.is_empty() {
                    continue;
                }
                d.set(s, t, rng.gen_range(1..4) as f64);
                for p in all {
                    cands.insert(p);
                }
            }
            if d.is_empty() {
                continue;
            }
            let exact = exact_restricted_congestion(&g, &d, &cands).unwrap();
            let fw = min_congestion_restricted(
                &g,
                &d,
                &cands,
                &SolveOptions {
                    eps: 0.01,
                    max_iters: 4000,
                },
            );
            assert!(
                fw.congestion <= exact * 1.03 + 1e-6,
                "trial {trial}: FW {} vs exact {exact}",
                fw.congestion
            );
            assert!(
                fw.lower_bound <= exact + 1e-6,
                "trial {trial}: dual {} exceeds exact {exact}",
                fw.lower_bound
            );
        }
    }
}
