//! Integration tests for the dynamic-scenario subsystem: warm-started
//! demand streams, failure sweeps over `SubTopology` masks, and the
//! connectivity-retrying Waxman topology behind `GravityWan`.

use ssor::engine::{
    DemandSpec, PathSystemCache, Pipeline, ScenarioSpec, StreamModel, TemplateSpec, TopologySpec,
};
use ssor::flow::SolveOptions;
use ssor::graph::generators;

fn quick() -> SolveOptions {
    SolveOptions::with_eps(0.1)
}

/// Warm-vs-cold equivalence: on every step of a drifting stream, the
/// warm-started congestion must sit within the solver's certified
/// tolerance of a cold solve of the same restricted problem. Both solves
/// stop at a certified gap of `1 + eps`, so their ratio can deviate from
/// 1 by at most ~eps each way.
#[test]
fn warm_stream_congestion_matches_cold_solves_on_every_step() {
    let cache = PathSystemCache::new();
    let model = StreamModel::DiurnalGravity {
        total: 20.0.into(),
        period: 8,
        seed: 5,
    };
    let report = Pipeline::on(TopologySpec::Waxman {
        n: 16,
        a: 0.4.into(),
        b: 0.25.into(),
        seed: 3,
    })
    .alpha(3)
    .seed(7)
    .solve_options(quick())
    .stream(&cache, 12, &model);

    assert_eq!(report.steps.len(), 12);
    let tol = 1.0 + quick().eps + 0.02;
    for step in &report.steps {
        let cold = step.cold_congestion.expect("baseline enabled");
        assert!(
            step.congestion <= cold * tol + 1e-12,
            "step {}: warm {} vs cold {}",
            step.step,
            step.congestion,
            cold
        );
        assert!(
            cold <= step.congestion * tol + 1e-12,
            "step {}: warm {} vs cold {}",
            step.step,
            step.congestion,
            cold
        );
        assert!(step.lower_bound <= step.congestion * (1.0 + 1e-9));
    }
    // Warm starts must not do more total work than cold solves.
    let warm_iters = report.total_iterations();
    let cold_iters = report.cold_total_iterations().expect("baseline enabled");
    assert!(
        warm_iters <= cold_iters,
        "warm {warm_iters} iterations vs cold {cold_iters}"
    );
}

/// Bursty ON/OFF support churn: pairs leave and re-enter the demand;
/// the warm solver's carried state must stay consistent through empty
/// and partial steps.
#[test]
fn bursty_stream_survives_support_churn() {
    let cache = PathSystemCache::new();
    let model = StreamModel::BurstyOnOff {
        pairs: 6,
        rate: 1.0.into(),
        p_on: 0.4.into(),
        p_off: 0.5.into(),
        seed: 11,
    };
    let report = Pipeline::on(TopologySpec::Hypercube { dim: 4 })
        .template(TemplateSpec::Valiant)
        .alpha(3)
        .solve_options(quick())
        .stream(&cache, 15, &model);
    assert_eq!(report.steps.len(), 15);
    for step in &report.steps {
        if step.size == 0.0 {
            assert_eq!(step.congestion, 0.0);
            assert_eq!(step.iterations, 0);
        } else {
            assert!(step.congestion > 0.0, "step {}", step.step);
        }
        if let Some(r) = step.vs_cold {
            assert!(r < 1.2, "step {}: vs_cold {r}", step.step);
        }
    }
}

/// Failure sweep end to end: coverage degrades gracefully with alpha-fold
/// path diversity, re-routes stay certified against the damaged-topology
/// optimum, and the warm re-route agrees with a cold solve on the same
/// survivors.
#[test]
fn failure_sweep_reroutes_and_certifies_against_damaged_opt() {
    let cache = PathSystemCache::new();
    let report = Pipeline::on(TopologySpec::Hypercube { dim: 4 })
        .template(TemplateSpec::Valiant)
        .alpha(4)
        .seed(2)
        .solve_options(quick())
        .demand("complement", DemandSpec::Complement)
        .failure_sweep(&cache, 3, 4);

    assert_eq!(report.trials.len(), 4);
    assert!(report.mean_coverage() > 0.7, "alpha=4 should keep coverage");
    let tol = 1.0 + quick().eps + 0.02;
    for rec in &report.trials {
        assert_eq!(rec.failed_edges.len(), 3);
        let cong = rec.congestion.expect("some pairs covered");
        let cold = rec.cold_congestion.expect("cold baseline present");
        assert!(
            cong <= cold * tol + 1e-12 && cold <= cong * tol + 1e-12,
            "trial {}: warm {} vs cold {}",
            rec.trial,
            cong,
            cold
        );
        let ratio = rec.ratio.expect("OPT baseline enabled");
        assert!(
            ratio >= 1.0 - quick().eps - 0.02,
            "trial {}: ratio {ratio} below 1 is impossible",
            rec.trial
        );
        assert!(ratio < 10.0, "trial {}: ratio {ratio}", rec.trial);
    }
}

/// Trials are reproducible: the same pipeline produces bit-identical
/// failure sets and congestion numbers on a fresh cache.
#[test]
fn failure_sweep_is_deterministic_across_runs() {
    let mk = || {
        Pipeline::on(TopologySpec::LeafSpine {
            spines: 3,
            leaves: 4,
            hosts_per_leaf: 1,
            uplink_mult: 2,
        })
        .template(TemplateSpec::Ksp { k: 4 })
        .alpha(3)
        .seed(9)
        .solve_options(quick())
        .demand("perm", DemandSpec::RandomPermutation { seed: 1 })
        .failure_sweep(&PathSystemCache::new(), 2, 3)
    };
    let a = mk();
    let b = mk();
    for (x, y) in a.trials.iter().zip(b.trials.iter()) {
        assert_eq!(x.failed_edges, y.failed_edges);
        assert_eq!(x.attempts, y.attempts);
        assert_eq!(
            x.congestion.map(f64::to_bits),
            y.congestion.map(f64::to_bits)
        );
    }
}

/// Regression for the disconnected-Waxman hazard behind `GravityWan`:
/// the raw Waxman draw at the GravityWan parameters (a = 0.4, b = 0.25)
/// is disconnected for unlucky seeds — unreachable pairs would panic
/// deep inside path sampling / the OPT oracle if used as-is. The
/// topology build must detect this at resolve time and retry with
/// derived seeds, deterministically and bounded.
///
/// Probed constants: at n = 20, seed 0 rejects exactly 3 disconnected
/// draws before finding a connected one; seed 1 exhausts all 16 retries
/// and must fall back to the stitched draw.
#[test]
fn gravity_wan_recovers_from_disconnected_waxman_seeds() {
    // Seed 0: genuine retry success after 3 disconnected draws.
    let (g, _, attempts) = generators::waxman_connected(20, 0.4, 0.25, 0, 16);
    assert_eq!(attempts, 3, "seed 0 rejects three disconnected draws");
    assert!(g.is_connected());

    // Seed 1: bounded retries exhaust; stitched fallback still connects.
    let (g1, _, attempts1) = generators::waxman_connected(20, 0.4, 0.25, 1, 16);
    assert_eq!(attempts1, 16, "seed 1 exhausts the retry budget");
    assert!(g1.is_connected());

    // The spec layer builds the same graphs deterministically…
    for seed in [0u64, 1] {
        let spec = ScenarioSpec::GravityWan {
            n: 20,
            total: 15.0.into(),
            seed,
        }
        .topology();
        let a = spec.build_graph();
        let b = spec.build_graph();
        assert!(a.is_connected(), "seed {seed}");
        assert_eq!(
            a.edges().collect::<Vec<_>>(),
            b.edges().collect::<Vec<_>>(),
            "seed {seed}"
        );
    }

    // …and the full GravityWan pipeline routes on the unlucky seed
    // without panicking in path sampling or the OPT oracle.
    let report = ScenarioSpec::GravityWan {
        n: 20,
        total: 15.0.into(),
        seed: 1,
    }
    .pipeline()
    .alpha(2)
    .solve_options(quick())
    .run(&PathSystemCache::new());
    assert!(report.records[0].congestion > 0.0);
}
