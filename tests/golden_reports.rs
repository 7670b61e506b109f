//! Golden-report regression tests: fixed-seed `RunReport` and
//! `FailureSweepReport` JSON must stay **byte-stable** across PRs.
//!
//! The sweep layer journals cells as compact JSON and splices resumed
//! cells back verbatim (the vendored `serde_json` shim is encode-only),
//! so any drift in report serialization — field order, float formatting,
//! a renamed key — would silently break resume compatibility and every
//! downstream consumer of `results/*.json`. These fixtures pin the
//! bytes.
//!
//! To bless an *intentional* schema change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ssor --test golden_reports
//! ```
//!
//! then commit the regenerated files under `tests/fixtures/` and note
//! the schema change in the PR description.

use ssor::engine::{
    DemandSpec, PathSystemCache, Pipeline, ScenarioSpec, TemplateSpec, TopologySpec,
};
use ssor::flow::SolveOptions;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_golden(name: &str, got: &str) {
    let path = fixture(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing fixture {}; bless it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} drifted from its fixture: report serialization is part of \
         the journal/resume contract — if the change is intentional, re-bless \
         with UPDATE_GOLDEN=1 and call it out in the PR"
    );
}

/// The pinned run: small enough to finish in debug tests, rich enough to
/// cover every serialized field (OPT bounds, ratios, solver stages).
fn pinned_pipeline() -> Pipeline {
    Pipeline::on(TopologySpec::Hypercube { dim: 3 })
        .template(TemplateSpec::Valiant)
        .alpha(2)
        .seed(7)
        .solve_options(SolveOptions::with_eps(0.1))
        .demand("bit-reversal", DemandSpec::BitReversal)
        .demand("complement", DemandSpec::Complement)
}

#[test]
fn run_report_serialization_is_byte_stable() {
    let cache = PathSystemCache::new();
    let report = pinned_pipeline().run(&cache);
    let got = format!("{}\n", serde_json::to_string_pretty(&report).unwrap());
    assert_golden("run_report_hypercube3.json", &got);
}

/// A gravity-model WAN run: pins the `GravityModel` RNG draw order
/// (weights, phases, then per-pair Box–Muller noise) together with the
/// Waxman topology and Räcke template behind `ScenarioSpec::GravityWan`.
#[test]
fn gravity_wan_report_serialization_is_byte_stable() {
    let cache = PathSystemCache::new();
    let report = ScenarioSpec::GravityWan {
        n: 10,
        total: 20.0.into(),
        seed: 5,
    }
    .pipeline()
    .alpha(2)
    .seed(7)
    .solve_options(SolveOptions::with_eps(0.1))
    .run(&cache);
    let got = format!("{}\n", serde_json::to_string_pretty(&report).unwrap());
    assert_golden("run_report_gravity_wan10.json", &got);
}

#[test]
fn failure_sweep_report_serialization_is_byte_stable() {
    let cache = PathSystemCache::new();
    let report = pinned_pipeline().seed(3).failure_sweep(&cache, 1, 2);
    let got = format!("{}\n", serde_json::to_string_pretty(&report).unwrap());
    assert_golden("failure_sweep_report_hypercube3.json", &got);
}
