//! Cross-crate property tests pinning the paper's definitional invariants
//! on the *real* pipeline (sampled systems, solver routings, processes).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor::core::weak::{sample_multiset, verify_lemma_5_10, weak_route};
use ssor::core::{sample, PathSystem};
use ssor::flow::solver::{min_congestion_restricted, SolveOptions};
use ssor::flow::Demand;
use ssor::graph::maxflow::min_cut_value;
use ssor::oblivious::{ObliviousRouting, ValiantRouting};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Definition 5.2: the α-sample is α-sparse, valid, and supported on
    /// the base oblivious routing.
    #[test]
    fn alpha_samples_are_alpha_sparse_and_supported(
        dim in 2u32..5,
        alpha in 1usize..6,
        seed in any::<u64>(),
    ) {
        let valiant = ValiantRouting::new(dim);
        let n = 1usize << dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Demand::random_permutation(n, &mut rng);
        prop_assume!(!d.is_empty());
        let ps = sample::alpha_sample(&valiant, &d.support(), alpha, &mut rng);
        prop_assert!(ps.sparsity() <= alpha);
        prop_assert!(ps.is_valid(valiant.graph()));
        for (s, t) in d.support() {
            let support: Vec<Vec<u32>> = valiant
                .path_distribution(s, t)
                .into_iter()
                .map(|(p, _)| p.edges().to_vec())
                .collect();
            for p in ps.paths(s, t).unwrap() {
                prop_assert!(support.contains(&p.edges().to_vec()));
            }
        }
    }

    /// Definition 2.1: (α + cut)-samples respect the cut-aware sparsity
    /// budget per pair.
    #[test]
    fn cut_samples_respect_cut_sparsity(
        dim in 2u32..4,
        alpha in 1usize..4,
        seed in any::<u64>(),
    ) {
        let valiant = ValiantRouting::new(dim);
        let g = valiant.graph().clone();
        let n = 1usize << dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Demand::random_permutation(n, &mut rng);
        prop_assume!(!d.is_empty());
        let ps = sample::alpha_cut_sample(&valiant, &g, &d.support(), alpha, &mut rng);
        prop_assert!(ps.is_cut_sparse(alpha, |s, t| min_cut_value(&g, s, t) as usize));
    }

    /// Lemma 5.10 invariants hold for every (demand, γ, sample) triple.
    #[test]
    fn weak_route_always_satisfies_lemma_5_10(
        dim in 2u32..5,
        alpha in 1usize..6,
        gamma in 0.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let valiant = ValiantRouting::new(dim);
        let n = 1usize << dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Demand::random_permutation(n, &mut rng);
        prop_assume!(!d.is_empty());
        let ms = sample_multiset(&valiant, &d.support(), |_, _| alpha, &mut rng);
        let out = weak_route(valiant.graph(), &ms, &d, gamma);
        prop_assert!(verify_lemma_5_10(valiant.graph(), &d, &out).is_ok());
        // Monotonicity: a larger allowance never routes less.
        let out2 = weak_route(valiant.graph(), &ms, &d, gamma + 5.0);
        prop_assert!(out2.routed_fraction + 1e-9 >= out.routed_fraction);
    }

    /// Definition 5.1 monotonicity: enlarging the path system can only
    /// reduce the Stage-4 congestion.
    #[test]
    fn stage4_congestion_is_monotone_in_the_path_system(
        dim in 2u32..4,
        seed in any::<u64>(),
    ) {
        let valiant = ValiantRouting::new(dim);
        let n = 1usize << dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Demand::random_permutation(n, &mut rng);
        prop_assume!(!d.is_empty());
        let small = sample::alpha_sample(&valiant, &d.support(), 1, &mut rng);
        let extra = sample::alpha_sample(&valiant, &d.support(), 4, &mut rng);
        let mut big: PathSystem = small.clone();
        big.append(extra);
        let opts = SolveOptions { eps: 0.03, max_iters: 2500 };
        let c_small = min_congestion_restricted(valiant.graph(), &d, &small, &opts);
        let c_big = min_congestion_restricted(valiant.graph(), &d, &big, &opts);
        // Allow the solver's certified gap on both sides.
        prop_assert!(
            c_big.congestion <= c_small.congestion * 1.08 + 1e-6,
            "supersets cannot hurt: {} > {}",
            c_big.congestion,
            c_small.congestion
        );
    }
}
