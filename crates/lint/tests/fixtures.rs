//! Golden tests: every rule family must fire on its positive fixture
//! and stay silent on its negative fixture.
//!
//! Each `tests/fixtures/<rule>/` directory holds `positive.rs` (code
//! the rule must flag), `negative.rs` (near-miss code it must accept),
//! and `positive.expected` (the byte-exact diagnostics for the
//! positive file). The fixtures are plain text, never compiled — the
//! workspace runner skips any directory named `fixtures` so the
//! self-check does not trip over them.
//!
//! Regenerate goldens after an intentional message change with
//! `UPDATE_GOLDEN=1 cargo test -p ssor-lint --test fixtures`.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use ssor_lint::callgraph::CallGraph;
use ssor_lint::parser::parse_file;
use ssor_lint::rules::{contract, par_collect, ratchet};
use ssor_lint::{scan_source, Diagnostic};

fn fixture_dir(rule: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
}

/// Runs the per-file `par_collect` rule on one fixture under a
/// pretend workspace path (the par module itself is exempt).
fn check_par_fixture(which: &str, pretend_path: &str) -> Vec<Diagnostic> {
    let text = fs::read_to_string(fixture_dir(par_collect::NAME).join(which)).unwrap();
    let file = scan_source(pretend_path, &text);
    let mut out = Vec::new();
    par_collect::check(&file, &mut out);
    out.sort();
    out
}

/// Compares rendered diagnostics against `<rule>/positive.expected`,
/// or rewrites the golden when `UPDATE_GOLDEN=1`.
fn assert_golden(rule: &str, diagnostics: &[Diagnostic]) {
    assert!(
        !diagnostics.is_empty(),
        "{rule}: positive fixture must fire at least once"
    );
    let rendered: String = diagnostics.iter().map(|d| format!("{d}\n")).collect();
    let golden = fixture_dir(rule).join("positive.expected");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden, &rendered).unwrap();
        return;
    }
    let want = fs::read_to_string(&golden)
        .unwrap_or_else(|_| panic!("{rule}: missing golden — run with UPDATE_GOLDEN=1"));
    assert_eq!(
        rendered, want,
        "{rule}: diagnostics drifted from positive.expected \
         (UPDATE_GOLDEN=1 to re-bless an intentional change)"
    );
}

fn assert_silent(rule: &str, diagnostics: &[Diagnostic]) {
    assert!(
        diagnostics.is_empty(),
        "{rule}: negative fixture must be clean, got:\n{}",
        diagnostics
            .iter()
            .map(|d| format!("{d}\n"))
            .collect::<String>()
    );
}

#[test]
fn par_collect_rule_fires_and_accepts() {
    let pretend = "crates/fxt/src/fan.rs";
    assert_golden("par_collect", &check_par_fixture("positive.rs", pretend));
    assert_silent("par_collect", &check_par_fixture("negative.rs", pretend));
}

#[test]
fn par_collect_rule_exempts_the_par_module() {
    // The same raw adapters are legal inside the one module that
    // implements the ordered primitives.
    let d = check_par_fixture("positive.rs", "crates/graph/src/par.rs");
    assert!(d.is_empty(), "par.rs itself is exempt, got {d:?}");
}

/// Runs the call-graph contract rules on one fixture: the file is
/// parsed into a one-file call graph of its own, with its `entry`
/// function declared hot under `rule`.
fn check_contract_fixture(rule: &str, which: &str) -> Vec<Diagnostic> {
    let text = fs::read_to_string(fixture_dir(rule).join(which)).unwrap();
    let pretend = "crates/serve/src/hot.rs";
    let file = scan_source(pretend, &text);
    let graph = CallGraph::build(&[parse_file(&file)], &|_, _| true);
    let contracts = ssor_lint::contracts::from_json(&format!(
        r#"{{ "entry": {{ "crate": "ssor-serve", "rules": ["{rule}"], "why": "fixture" }} }}"#
    ))
    .unwrap();
    let mut files = BTreeMap::new();
    files.insert(pretend.to_string(), file);
    let mut out = Vec::new();
    contract::check("lint_contracts.json", &contracts, &graph, &files, &mut out);
    out.sort();
    out
}

#[test]
fn hot_panic_contract_fires_transitively_and_accepts() {
    let out = check_contract_fixture("hot_panic", "positive.rs");
    assert!(
        out.iter()
            .any(|d| d.message.contains("entry → lookup → pick")),
        "callee-of-callee detection reports the chain: {out:?}"
    );
    assert_golden("hot_panic", &out);
    assert_silent(
        "hot_panic",
        &check_contract_fixture("hot_panic", "negative.rs"),
    );
}

#[test]
fn hot_alloc_contract_fires_transitively_and_accepts() {
    let out = check_contract_fixture("hot_alloc", "positive.rs");
    assert!(
        out.iter()
            .any(|d| d.message.contains("entry → fanout → gather")),
        "callee-of-callee detection reports the chain: {out:?}"
    );
    assert_golden("hot_alloc", &out);
    assert_silent(
        "hot_alloc",
        &check_contract_fixture("hot_alloc", "negative.rs"),
    );
}

#[test]
fn ratchet_rule_fires_and_accepts() {
    let budget: BTreeMap<String, ratchet::Counts> = [(
        "ssor-fxt".to_string(),
        ratchet::Counts {
            hash_containers: 1,
            indexing: 1,
            panics: 0,
            unwraps: 1,
        },
    )]
    .into();

    let count = |which: &str| {
        let text = fs::read_to_string(fixture_dir("ratchet").join(which)).unwrap();
        let file = scan_source("crates/fxt/src/state.rs", &text);
        let mut counts = BTreeMap::new();
        counts.insert("ssor-fxt".to_string(), ratchet::count_file(&file));
        counts
    };

    let mut out = Vec::new();
    let mut notes = Vec::new();
    ratchet::check_counts(
        "lint_budget.json",
        &count("positive.rs"),
        &budget,
        &mut out,
        &mut notes,
    );
    out.sort();
    assert_golden("ratchet", &out);

    let mut out = Vec::new();
    let mut notes = Vec::new();
    ratchet::check_counts(
        "lint_budget.json",
        &count("negative.rs"),
        &budget,
        &mut out,
        &mut notes,
    );
    assert_silent("ratchet", &out);
    assert!(notes.is_empty(), "exactly on budget leaves no slack note");
}
