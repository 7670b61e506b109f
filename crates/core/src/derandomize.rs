//! Deterministic path selection — the Section 1.1 "Deterministic Routing"
//! consequence, made executable.
//!
//! The paper observes that selecting `O(log n)` paths per pair *is* a
//! deterministic oblivious structure once the random sampling is
//! derandomized. We implement the standard method-of-conditional-
//! expectations route: choose paths greedily from the oblivious routing's
//! support, minimizing an exponential congestion potential against the
//! uniform reference demand. The selection is demand-oblivious (it only
//! looks at the routing and the pair list) and fully deterministic.
//!
//! Experiment E4 compares it against random `α`-samples and against the
//! `Ω̃(sqrt(n))` single-path barrier.

use ssor_graph::{PathSystem, VertexId};
use ssor_oblivious::ObliviousRouting;

/// Exponential potential sharpness of [`derandomized_sample`]. Larger
/// values penalize emerging hot spots harder; `ln(m)`-ish values mimic
/// the Chernoff-based pessimistic estimator.
const BETA: f64 = 2.0;

/// Deterministically selects (up to) `alpha` support paths per pair,
/// round-robin over pairs, each time taking the support path minimizing
/// the potential increase `sum_{e in p} exp(BETA * load_e)` where `load`
/// accumulates `1/alpha` per chosen path (the uniform reference demand
/// split over the slots).
///
/// The result is a valid `α`-sparse path system chosen without any
/// randomness — the deterministic oblivious structure of Section 1.1.
///
/// # Panics
///
/// Panics if `alpha == 0` or a pair has `s == t`.
pub fn derandomized_sample<O: ObliviousRouting + ?Sized>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
) -> PathSystem {
    assert!(alpha >= 1);
    let g = routing.graph();
    let m = g.m();
    let mut load = vec![0.0f64; m];
    let mut ps = PathSystem::new();
    let slot_weight = 1.0 / alpha as f64;

    // Cache supports (sorted deterministically by the trait contract).
    let supports: Vec<Vec<ssor_graph::Path>> = pairs
        .iter()
        .map(|&(s, t)| {
            assert_ne!(s, t);
            routing
                .path_distribution(s, t)
                .into_iter()
                .map(|(p, _)| p)
                .collect()
        })
        .collect();

    for _round in 0..alpha {
        for (pi, &(_s, _t)) in pairs.iter().enumerate() {
            let support = &supports[pi];
            // Marginal potential of adding p.
            let mut best: Option<(usize, f64)> = None;
            for (i, p) in support.iter().enumerate() {
                let cost: f64 = p
                    .edges()
                    .iter()
                    .map(|&e| (BETA * load[e as usize]).exp())
                    .sum();
                if best.is_none_or(|(_, b)| cost < b) {
                    best = Some((i, cost));
                }
            }
            let (i, _) = best.expect("nonempty support");
            let p = &support[i];
            for &e in p.edges() {
                load[e as usize] += slot_weight;
            }
            ps.insert(p.clone());
        }
    }
    ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::all_pairs;
    use crate::SemiObliviousRouter;
    use ssor_flow::{Demand, SolveOptions};
    use ssor_oblivious::{BitFixingRouting, ValiantRouting};

    #[test]
    fn selection_is_deterministic() {
        let r = ValiantRouting::new(3);
        let pairs = all_pairs(8);
        let a = derandomized_sample(&r, &pairs, 3);
        let b = derandomized_sample(&r, &pairs, 3);
        assert_eq!(a, b);
        assert!(a.sparsity() <= 3);
        assert!(a.is_valid(r.graph()));
    }

    #[test]
    fn beats_single_deterministic_path_on_bit_reversal() {
        let dim = 6;
        let valiant = ValiantRouting::new(dim);
        let d = Demand::hypercube_bit_reversal(dim);
        let alpha = 6;
        let ps = derandomized_sample(&valiant, &d.support(), alpha);
        let router = SemiObliviousRouter::new(valiant.graph().clone(), ps);
        let cong = router
            .route_fractional(&d, &SolveOptions::with_eps(0.05))
            .congestion;

        let bitfix = BitFixingRouting::new(dim);
        use ssor_oblivious::ObliviousRouting as _;
        let det = bitfix.congestion(&d);
        assert!(
            cong < det / 1.5,
            "derandomized {alpha}-selection ({cong}) must clearly beat 1 path ({det})"
        );
    }

    #[test]
    fn spreads_over_distinct_paths() {
        // On a pair with a rich support, rounds should pick distinct paths
        // (the potential punishes reusing loaded edges).
        let r = ValiantRouting::new(4);
        let ps = derandomized_sample(&r, &[(0, 15)], 4);
        assert!(
            ps.paths(0, 15).unwrap().len() >= 3,
            "selection collapsed onto few paths"
        );
    }

    #[test]
    fn single_support_pairs_are_fine() {
        // Bit-fixing has a singleton support; selection must not loop.
        let r = BitFixingRouting::new(3);
        let ps = derandomized_sample(&r, &all_pairs(8), 4);
        assert_eq!(ps.sparsity(), 1, "singleton supports collapse by dedup");
    }
}
