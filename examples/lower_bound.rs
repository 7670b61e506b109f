//! The Section 8 lower bound, live: build `C(n, k)` (Figure 1), sample a
//! sparse path system, and let the Lemma 8.1 adversary find the
//! permutation demand that forces congestion `k / α` while the optimum
//! routes it with congestion 1.
//!
//! Run with: `cargo run --release --example lower_bound`

use rand::SeedableRng;
use ssor::core::sample::alpha_sample;
use ssor::flow::solver::{min_congestion_restricted, SolveOptions};
use ssor::lowerbound::{
    c_graph, certify_hitting, find_adversarial_demand, k_for_alpha, optimal_witness,
};
use ssor::oblivious::KspRouting;

fn main() {
    let n = 64;
    let alpha = 1usize;
    let k = k_for_alpha(n, alpha); // floor(n^{1/2α}) = 8
    let (g, meta) = c_graph(n, k);
    println!(
        "== Lemma 8.1 on C({n}, {k}) (Figure 1): {} vertices, {} edges ==\n",
        g.n(),
        g.m()
    );

    // Any sparse path system will do; here, α paths per cross pair.
    let pairs: Vec<(u32, u32)> = meta
        .left_leaves
        .iter()
        .flat_map(|&s| meta.right_leaves.iter().map(move |&t| (s, t)))
        .collect();
    let ksp = KspRouting::new(&g, alpha.max(2));
    let mut rng = rand::rngs::StdRng::seed_from_u64(88);
    let paths = alpha_sample(&ksp, &pairs, alpha, &mut rng);
    println!(
        "installed an α = {alpha} sparse system over all {} cross pairs",
        pairs.len()
    );

    // The adversary: double pigeonhole + Hall matching.
    let adv = find_adversarial_demand(&meta, &paths, alpha);
    println!(
        "adversary pinned hitting set {:?} and matched {} source-target pairs",
        adv.hitting_set, adv.matched
    );
    certify_hitting(&paths, &adv).expect("every candidate path crosses the hitting set");
    println!("certified: every candidate path of the demand crosses the pinned middles\n");

    // Stage 4 on the trapped demand.
    let sol = min_congestion_restricted(&g, &adv.demand, &paths, &SolveOptions::with_eps(0.02));
    let opt = optimal_witness(&g, &meta, &adv.demand);
    println!(
        "semi-oblivious congestion : {:.3} (certified ≥ {:.3})",
        sol.congestion, adv.congestion_lower_bound
    );
    println!(
        "offline integral optimum  : {} (distinct middles witness)",
        opt.congestion(&g)
    );
    println!(
        "\n=> an α-sparse system on C(n, k) cannot beat k/α = {:.1}; sparsity has a price,\n   and Lemma 2.6 shows the α-sample trade-off is within a constant of optimal.",
        adv.congestion_lower_bound
    );
}
