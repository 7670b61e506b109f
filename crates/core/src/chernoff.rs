//! Parameter arithmetic from Theorem 2.3 and Section 8, plus (in the
//! tests) the Appendix B tail bounds in natural-log space, checked
//! empirically and against the Corollary 5.7 union bound.

/// `α = Θ(log n / log log n)` — the logarithmic-sparsity choice of
/// Theorem 2.3 (clamped to at least 1).
pub fn theorem_2_3_alpha(n: usize) -> usize {
    let ln = (n as f64).ln().max(std::f64::consts::E);
    let lnln = ln.ln().max(1.0);
    (ln / lnln).ceil().max(1.0) as usize
}

/// The paper's `n^{O(1/α)}` competitiveness *shape* for the low-sparsity
/// trade-off (Theorem 2.5), with the constant taken as 1:
/// `n^{1/α}`. Used by experiments to plot the predicted curve.
pub fn low_sparsity_shape(n: usize, alpha: usize) -> f64 {
    (n as f64).powf(1.0 / alpha as f64)
}

/// The lower-bound curve `n^{1/(2α)} / α` from Lemma 8.1/8.2 (with
/// `k = floor(n^{1/(2α)})`).
pub fn lower_bound_shape(n: usize, alpha: usize) -> f64 {
    (n as f64).powf(1.0 / (2.0 * alpha as f64)).floor() / alpha as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chernoff bound for negatively associated 0/1 sums, large-deviation form
    /// (Lemma B.5): `P[X >= δμ] <= exp(-δμ ln(δ) / 4)` for `δ >= 2`.
    ///
    /// Returns the log-probability bound (`<= 0`).
    ///
    /// # Panics
    ///
    /// Panics if `delta < 2` or `mu < 0`.
    fn log_chernoff_large_deviation(mu: f64, delta: f64) -> f64 {
        assert!(delta >= 2.0, "Lemma B.5 needs delta >= 2");
        assert!(mu >= 0.0);
        -(delta * mu * delta.ln()) / 4.0
    }

    /// Chernoff bound, moderate form (Lemma B.6):
    /// `P[X >= (1+δ)μ] <= exp(-δ²μ / (2+δ))` for `δ > 0`.
    ///
    /// Returns the log-probability bound.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0` or `mu < 0`.
    fn log_chernoff_moderate(mu: f64, delta: f64) -> f64 {
        assert!(delta > 0.0);
        assert!(mu >= 0.0);
        -(delta * delta * mu) / (2.0 + delta)
    }

    /// Log of the Lemma 5.6 failure probability `m^{-(h+3) |supp(d)|}`.
    fn log_main_lemma_failure(m: usize, h: f64, support: usize) -> f64 {
        -(h + 3.0) * (support as f64) * (m as f64).ln()
    }

    #[test]
    fn large_deviation_decreases_in_delta() {
        let a = log_chernoff_large_deviation(1.0, 2.0);
        let b = log_chernoff_large_deviation(1.0, 8.0);
        assert!(b < a, "bigger deviations are less likely");
        assert!(a < 0.0);
    }

    #[test]
    fn moderate_bound_matches_formula() {
        let lb = log_chernoff_moderate(10.0, 1.0);
        assert!((lb - (-10.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "delta >= 2")]
    fn large_deviation_rejects_small_delta() {
        let _ = log_chernoff_large_deviation(1.0, 1.5);
    }

    #[test]
    fn failure_probability_union_bounds() {
        // The Corollary 5.7 union bound: sum over support sizes k of
        // n^{2k} * m^{-(h+3)k} <= m^{-h} when m >= n. Verify in log space
        // for a concrete parameterization.
        let (n, m, h) = (64usize, 256usize, 2.0);
        let mut total = f64::NEG_INFINITY;
        for k in 1..=(n * n) {
            let log_count = 2.0 * k as f64 * (n as f64).ln();
            let log_fail = log_main_lemma_failure(m, h, k);
            let term = log_count + log_fail;
            // log-sum-exp accumulate.
            let (hi, lo) = if total >= term {
                (total, term)
            } else {
                (term, total)
            };
            total = hi + (lo - hi).exp().ln_1p();
        }
        assert!(
            total <= -h * (m as f64).ln() + 1e-9,
            "union bound violated: {total}"
        );
    }

    #[test]
    fn theorem_2_3_alpha_grows_slowly() {
        let tiny = theorem_2_3_alpha(2);
        assert!(
            (1..=4).contains(&tiny),
            "tiny n clamps to a small constant, got {tiny}"
        );
        let a256 = theorem_2_3_alpha(256);
        let a65536 = theorem_2_3_alpha(65536);
        assert!((2..=6).contains(&a256), "a256 = {a256}");
        assert!(a65536 >= a256);
        assert!(a65536 <= 8);
    }

    /// Monte-Carlo check of Lemma B.5/B.6 on genuinely negatively
    /// associated variables: one-hot indicator blocks (Lemma B.2) summed
    /// across independent blocks (Lemma B.3) — exactly the `X(s,t)_{i,p}`
    /// structure of Section 5.3.
    #[test]
    fn chernoff_bounds_hold_empirically_for_one_hot_sums() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(424242);
        let blocks = 40; // independent one-hot blocks of width 8
        let width = 8;
        // X = number of blocks whose hot index lands in {0,1}: mu = 10.
        let trials = 20_000;
        let mut exceed_moderate = 0usize; // X >= 2*mu
        let mut exceed_large = 0usize; // X >= 3*mu
        for _ in 0..trials {
            let mut x = 0;
            for _ in 0..blocks {
                if rng.gen_range(0..width) < 2 {
                    x += 1;
                }
            }
            let mu = blocks as f64 * 2.0 / width as f64;
            if (x as f64) >= 2.0 * mu {
                exceed_moderate += 1;
            }
            if (x as f64) >= 3.0 * mu {
                exceed_large += 1;
            }
        }
        let mu = blocks as f64 * 2.0 / width as f64;
        // Lemma B.6 with delta = 1: P[X >= 2mu] <= exp(-mu/3).
        let bound_moderate = log_chernoff_moderate(mu, 1.0).exp();
        let emp_moderate = exceed_moderate as f64 / trials as f64;
        assert!(
            emp_moderate <= bound_moderate * 1.2 + 3.0 / trials as f64,
            "Lemma B.6 violated empirically: {emp_moderate} vs bound {bound_moderate}"
        );
        // Lemma B.5 with delta = 3 >= 2: P[X >= 3mu] <= exp(-3mu ln(3)/4).
        let bound_large = log_chernoff_large_deviation(mu, 3.0).exp();
        let emp_large = exceed_large as f64 / trials as f64;
        assert!(
            emp_large <= bound_large * 1.2 + 3.0 / trials as f64,
            "Lemma B.5 violated empirically: {emp_large} vs bound {bound_large}"
        );
    }

    #[test]
    fn shapes_cross_over_correctly() {
        // Upper-bound shape n^{1/α} decays exponentially in α; the
        // lower-bound shape n^{1/2α}/α stays below it.
        let n = 4096;
        for alpha in 1..=10 {
            assert!(lower_bound_shape(n, alpha) <= low_sparsity_shape(n, alpha));
        }
        assert!(low_sparsity_shape(n, 12) < low_sparsity_shape(n, 1));
    }
}
