//! A2 — ablation: the Stage-4 solver's certified accuracy vs cost, and a
//! cross-check against the exact simplex LP.
//!
//! Every competitive ratio the experiments report passes through the
//! Frank–Wolfe solver; this ablation shows how the certified optimality
//! gap and the iteration count trade off, and confirms against exact LP
//! solves that the certificates are honest.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use ssor_bench::{banner, f3, Table};
use ssor_core::sample::alpha_sample;
use ssor_flow::lp::exact_restricted_congestion;
use ssor_flow::solver::{min_congestion_restricted, SolveOptions};
use ssor_flow::Demand;
use ssor_oblivious::{ObliviousRouting, ValiantRouting};

#[derive(Serialize)]
struct Row {
    eps: f64,
    congestion: f64,
    certified_gap: f64,
    iterations: usize,
    converged: bool,
    oracle_calls: usize,
    oracle_share: f64,
    stages: usize,
}

fn main() {
    banner(
        "A2",
        "ablation: Frank-Wolfe accuracy/cost + exact-LP cross-check",
        "the Stage-4 solver's certified gap is honest and tightens smoothly with eps",
    );
    let dim = 5u32;
    let valiant = ValiantRouting::new(dim);
    let d = Demand::hypercube_bit_reversal(dim);
    let mut rng = StdRng::seed_from_u64(12);
    let ps = alpha_sample(&valiant, &d.support(), 4, &mut rng);
    println!("instance: hypercube n = 32, bit-reversal demand, α = 4 sample\n");

    let mut table = Table::new(&[
        "eps",
        "congestion",
        "certified gap",
        "iterations",
        "converged",
        "oracle calls",
        "oracle share",
        "line-search share",
        "stages",
    ]);
    let mut rows = Vec::new();
    for eps in [0.5f64, 0.2, 0.1, 0.05, 0.02, 0.01] {
        let sol = min_congestion_restricted(
            valiant.graph(),
            &d,
            &ps,
            &SolveOptions {
                eps,
                max_iters: 20_000,
            },
        );
        // The stats make the solver's cost structure visible: how many
        // oracle batches ran, what share of the wall-clock they took
        // (the parallelizable part), the line search's share (serial),
        // and how the staged smoothing progressed. The line-search share
        // is printed only, so the JSON rows keep their keys.
        let stats = &sol.stats;
        table.row(&[
            f3(eps),
            f3(sol.congestion),
            f3(sol.gap()),
            sol.iterations.to_string(),
            sol.converged.to_string(),
            stats.oracle_calls.to_string(),
            format!("{:.0}%", stats.profile.share("oracle") * 100.0),
            format!("{:.0}%", stats.profile.share("line_search") * 100.0),
            stats.stages.len().to_string(),
        ]);
        rows.push(Row {
            eps,
            congestion: sol.congestion,
            certified_gap: sol.gap(),
            iterations: sol.iterations,
            converged: sol.converged,
            oracle_calls: stats.oracle_calls,
            oracle_share: stats.profile.share("oracle"),
            stages: stats.stages.len(),
        });
    }
    table.print();

    // Exact cross-check on a smaller instance the dense simplex can chew.
    println!("\n-- exact simplex cross-check (hypercube n = 8, complement demand) --");
    let small = ValiantRouting::new(3);
    let ds = Demand::hypercube_complement(3);
    let pss = alpha_sample(&small, &ds.support(), 3, &mut rng);
    let exact = exact_restricted_congestion(small.graph(), &ds, &pss).expect("feasible LP");
    let fw = min_congestion_restricted(
        small.graph(),
        &ds,
        &pss,
        &SolveOptions {
            eps: 0.01,
            max_iters: 20_000,
        },
    );
    println!("exact simplex optimum : {exact:.6}");
    println!("Frank-Wolfe primal    : {:.6}", fw.congestion);
    println!("Frank-Wolfe dual LB   : {:.6}", fw.lower_bound);
    assert!(
        fw.congestion >= exact - 1e-6,
        "primal below exact optimum: impossible"
    );
    assert!(
        fw.lower_bound <= exact + 1e-6,
        "dual above exact optimum: certificate broken"
    );
    println!("\nshape check: exact ∈ [dual, primal] — certificates honest; gap → 1 as eps → 0.");

    if let Some(p) = ssor_bench::save_json("a2_solver_ablation", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
