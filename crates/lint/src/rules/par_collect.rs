//! Rule `par_collect`: parallel fan-out rides the workspace's ordered
//! primitives, not raw rayon collection.
//!
//! **Why.** Every guarantee the engine publishes — bit-identical
//! reports at any thread count, steal order, or shard count — reduces
//! to one discipline: parallel stages must merge their partials in a
//! *fixed, input-derived order*. The workspace owns exactly two
//! primitives that encode it — `ssor_graph::par_ordered_map`
//! (input-order collect with a serial small-batch cutoff) and
//! `EdgeLoads::par_merge` (fixed `parts[0], parts[1], ...` per-edge
//! summation) — and `crates/graph/src/par.rs` is where that contract
//! is implemented, tested, and documented once. A raw
//! `par_iter().collect()` sprinkled anywhere else may happen to be
//! ordered today (rayon's indexed collect is), but it silently decays:
//! someone chains `.filter`, switches to a fold, or collects into a
//! map, and the bytes start depending on worker count with no test
//! pointing at the culprit.
//!
//! **Rule.** The adapters `.par_iter()`, `.par_iter_mut()`,
//! `.into_par_iter()`, `.par_bridge()`, and `.par_chunks(` may appear
//! only in `crates/graph/src/par.rs`. The two specialized dispatches
//! the par.rs docs name (`EdgeLoads::par_merge`'s fixed edge-range
//! reduction, `par_alpha_sample`'s chunked partial merge) carry
//! `// lint: allow(par_collect)` at their single fan-out line each —
//! the annotation marks exactly where a human verified the merge
//! order, and any new site must either ride the primitives or earn
//! the same review.

use super::Diagnostic;
use crate::scanner::SourceFile;

/// Rule name, as spelled in `lint: allow(...)`.
pub const NAME: &str = "par_collect";

/// The one module allowed to touch raw rayon collection: it
/// *implements* the ordered primitives.
const PAR_MODULE: &str = "crates/graph/src/par.rs";

const ADAPTERS: [&str; 5] = [
    ".par_iter()",
    ".par_iter_mut()",
    ".into_par_iter()",
    ".par_bridge()",
    ".par_chunks(",
];

/// Scans one file for raw rayon fan-out outside the par module.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path == PAR_MODULE {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.allows(NAME) {
            continue;
        }
        for adapter in ADAPTERS {
            if line.code.contains(adapter) {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: idx + 1,
                    rule: NAME,
                    message: format!(
                        "raw rayon fan-out `{}` outside crates/graph/src/par.rs: collection \
                         order is unguarded there; ride ssor_graph::par_ordered_map or \
                         EdgeLoads::par_merge (thread-count-invariant merges)",
                        adapter.trim_end_matches('(')
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    #[test]
    fn fires_outside_par_module_only() {
        let src = "let v: Vec<_> = items.par_iter().map(f).collect();\n\
                   let w: Vec<_> = items.into_par_iter().collect();\n";
        let f = scan_source("crates/flow/src/x.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        assert_eq!(out.len(), 2);

        let f = scan_source("crates/graph/src/par.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn allow_marks_a_reviewed_merge() {
        let src = "// lint: allow(par_collect)\nlet p: Vec<_> = r.par_iter().map(f).collect();\n";
        let f = scan_source("crates/graph/src/load.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty());
    }
}
