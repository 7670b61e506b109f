//! Workspace walk and check orchestration.
//!
//! Files are visited in sorted path order and diagnostics are sorted
//! `(path, line, rule)` before printing, so the checker's output is a
//! pure function of the tree's contents — the same byte-stability
//! standard the rest of the workspace holds its reports to.
//!
//! The run is two-pass. Pass one scans every `.rs` file, runs the
//! per-file `par_collect` rule, and accumulates the ratchet counts.
//! Pass two parses the *library* files (`crates/*/src/**` and
//! `src/**`, minus `src/bin/**` — binaries cannot be callees of
//! library code) into an approximate call graph ([`crate::callgraph`])
//! — with edges pruned to the Cargo dependency closure read from the
//! manifests, so a name collision cannot resolve across a crate
//! boundary the linker would reject — and enforces the hot-path
//! contracts declared in `lint_contracts.json`
//! ([`crate::rules::contract`]). A missing contract file is itself a
//! violation: deleting it must not silently disarm the gate.

use crate::budget;
use crate::callgraph::CallGraph;
use crate::contracts;
use crate::parser::{parse_file, ParsedFile};
use crate::rules::{contract, par_collect, ratchet, Diagnostic};
use crate::scanner::{scan_source, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, vendored shims
/// (not first-party code), VCS metadata, and test fixtures (lint
/// fixtures *contain* violations on purpose).
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "results"];

/// What to do with the ratchet baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Compare measured counts against the committed budget.
    Check,
    /// Rewrite the budget to the measured counts (tightening or
    /// initializing the ratchet). Other rules still report.
    Bless,
}

/// The result of a full workspace run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Rule violations, sorted `(path, line, rule, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Non-fatal observations (under-budget ratchets, stale entries).
    pub notes: Vec<String>,
    /// Measured per-crate ratchet counts.
    pub counts: BTreeMap<String, ratchet::Counts>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// Whether the run found no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Collects every workspace `.rs` file under `root`, sorted by
/// workspace-relative path.
fn collect_sources(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(io::Error::other)?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push((rel, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Whether a workspace-relative path joins the call graph: library
/// code only — the contract rules reason about what the serving and
/// sweep binaries can *link*, and a `src/bin/**` helper sharing a name
/// with a library function would only manufacture false taint.
fn in_call_graph(rel: &str) -> bool {
    ratchet::crate_of(rel).is_some() && !rel.contains("src/bin/")
}

/// The workspace's first-party dependency closure, read from the
/// `Cargo.toml` manifests: crate name → every `ssor-*` crate it can
/// transitively link. `[dev-dependencies]` are excluded on purpose —
/// they only reach test code, and test functions are never call-graph
/// candidates anyway.
///
/// This is what makes name-based call resolution honest about crate
/// boundaries: `ssor-serve` reusing the method name `expect` must not
/// resolve into `ssor-lint`'s own parser, because no serving binary
/// links the lint tooling.
fn workspace_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut manifests = vec![root.join("Cargo.toml")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            manifests.push(e.path().join("Cargo.toml"));
        }
    }
    for manifest in manifests {
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let mut section = String::new();
        let mut name = None;
        let mut deps = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                section = line.to_string();
                continue;
            }
            if section == "[package]" && name.is_none() {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start().strip_prefix('=').unwrap_or(rest);
                    name = Some(rest.trim().trim_matches('"').to_string());
                }
            }
            if section == "[dependencies]" && line.contains('=') {
                let key: String = line
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if key.starts_with("ssor") {
                    deps.insert(key);
                }
            }
        }
        if let Some(name) = name {
            direct.insert(name, deps);
        }
    }
    // Transitive closure by fixpoint (the dep graph is tiny).
    loop {
        let mut grew = false;
        let snapshot = direct.clone();
        for deps in direct.values_mut() {
            let indirect: BTreeSet<String> = deps
                .iter()
                .filter_map(|d| snapshot.get(d))
                .flatten()
                .cloned()
                .collect();
            for d in indirect {
                grew |= deps.insert(d);
            }
        }
        if !grew {
            return direct;
        }
    }
}

/// Runs the full rulebook over the workspace at `root` against the
/// budget at `budget_path`. In [`Mode::Bless`] the budget file is
/// rewritten to the measured counts instead of being compared.
pub fn run(root: &Path, budget_path: &Path, mode: Mode) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let budget_label = budget_path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("lint_budget.json")
        .to_string();

    let mut graph_files: BTreeMap<String, SourceFile> = BTreeMap::new();
    for (rel, path) in collect_sources(root)? {
        let text = fs::read_to_string(&path)?;
        let file = scan_source(&rel, &text);
        par_collect::check(&file, &mut outcome.diagnostics);
        if let Some(krate) = ratchet::crate_of(&rel) {
            outcome
                .counts
                .entry(krate)
                .or_default()
                .add(ratchet::count_file(&file));
        }
        if in_call_graph(&rel) {
            graph_files.insert(rel, file);
        }
        outcome.files_scanned += 1;
    }

    // Pass two: call graph + hot-path contracts. BTreeMap iteration
    // keeps the parse list in sorted path order, so fn indices — and
    // therefore diagnostics — are deterministic.
    let parsed: Vec<ParsedFile> = graph_files.values().map(parse_file).collect();
    let deps = workspace_deps(root);
    let may_call = |caller: &str, callee: &str| {
        let (Some(a), Some(b)) = (ratchet::crate_of(caller), ratchet::crate_of(callee)) else {
            return true;
        };
        if a == b {
            return true;
        }
        // A missing manifest keeps the edge: over-approximate, never
        // silently blind the contract.
        deps.get(&a).is_none_or(|d| d.contains(&b))
    };
    let graph = CallGraph::build(&parsed, &may_call);
    match fs::read_to_string(root.join(contracts::FILE_NAME)) {
        Ok(text) => {
            let declared = contracts::from_json(&text)?;
            contract::check(
                contracts::FILE_NAME,
                &declared,
                &graph,
                &graph_files,
                &mut outcome.diagnostics,
            );
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            outcome.diagnostics.push(Diagnostic {
                path: contracts::FILE_NAME.to_string(),
                line: 1,
                rule: contract::HOT_PANIC,
                message: "hot-path contract file not found at the workspace root — \
                          restore it; deleting it must not disarm the contract gate"
                    .to_string(),
            });
        }
        Err(e) => return Err(e),
    }

    match mode {
        Mode::Bless => {
            fs::write(budget_path, budget::to_json(&outcome.counts))?;
        }
        Mode::Check => match fs::read_to_string(budget_path) {
            Ok(text) => {
                let committed = budget::from_json(&text)?;
                ratchet::check_counts(
                    &budget_label,
                    &outcome.counts,
                    &committed,
                    &mut outcome.diagnostics,
                    &mut outcome.notes,
                );
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                outcome.diagnostics.push(Diagnostic {
                    path: budget_label,
                    line: 1,
                    rule: ratchet::NAME,
                    message: "ratchet budget file not found; run `ssor-lint --bless` to \
                              record the baseline"
                        .to_string(),
                });
            }
            Err(e) => return Err(e),
        },
    }

    outcome.diagnostics.sort();
    Ok(outcome)
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the scan root. Shared by the CLI and
/// the in-process callers (self-check tests, the bench harness).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_list_covers_fixture_and_vendor_trees() {
        for dir in ["vendor", "target", "fixtures"] {
            assert!(SKIP_DIRS.contains(&dir));
        }
    }

    #[test]
    fn dependency_closure_separates_tooling_from_the_serving_plane() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let deps = workspace_deps(&root);
        let serve = deps.get("ssor-serve").expect("serve manifest parsed");
        assert!(serve.contains("ssor-graph"), "direct dep");
        assert!(serve.contains("ssor-core"), "transitive via ssor-engine");
        assert!(!serve.contains("ssor-lint"), "tooling is unlinkable");
        assert!(!serve.contains("ssor-bench"), "tooling is unlinkable");
        assert!(
            !deps.get("ssor-graph").unwrap().contains("ssor-core"),
            "dependencies are directional"
        );
    }

    #[test]
    fn call_graph_membership_is_library_only() {
        assert!(in_call_graph("crates/serve/src/query.rs"));
        assert!(in_call_graph("src/lib.rs"));
        assert!(!in_call_graph("crates/bench/src/bin/bench_trajectory.rs"));
        assert!(!in_call_graph("crates/serve/tests/t.rs"));
        assert!(!in_call_graph("examples/quickstart.rs"));
    }
}
