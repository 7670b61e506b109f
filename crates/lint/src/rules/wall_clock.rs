//! Rule `wall_clock`: contain wall-clock reads, keep them out of
//! serialized report bytes.
//!
//! **Why.** Wall time is the one nondeterminism the workspace cannot
//! derive from a seed. It is legitimate in exactly one role: feeding
//! observability values (report `wall` totals, solver and template
//! stage profiles, the perf harness) that are *excluded* from
//! every serialized report. The sweep journal, the golden-report
//! fixtures, and crash/resume splicing all require reports to
//! serialize to the same bytes on every run — one `Instant::now()`
//! that leaks into a serialized field silently breaks steal-order
//! invariance verification for every downstream consumer.
//!
//! **Rule.** `Instant::now` and `SystemTime` may appear only on lines
//! carrying `// lint: allow(wall_clock)`. The library's one such read is
//! `ssor_graph::obs::Stopwatch`, the sink all its timing goes through.
//! Perf-harness code — `crates/bench/` and `benches/` directories — is
//! exempt wholesale: measuring wall time is its entire job.
//!
//! **Cross-check.** In schema files (`report_json.rs`), every
//! serialized field name — a string literal in `("name", value)`
//! position — is checked against wall-clock-ish vocabulary (`wall`,
//! `elapsed`, `duration`, `secs`, `nanos`, `timestamp`). The schema
//! comments promise timings never reach report bytes; this makes the
//! promise structural: adding a `("wall", ...)` field to a report tree
//! fails the lint even though no clock is read in that file.

use super::{Diagnostic, FileClass};
use crate::scanner::SourceFile;

/// Rule name, as spelled in `lint: allow(...)`.
pub const NAME: &str = "wall_clock";

const BANNED: [&str; 2] = ["Instant::now", "SystemTime"];

/// Field-name vocabulary that indicates a timing is being serialized.
const TIMING_FIELD_WORDS: [&str; 6] = ["wall", "elapsed", "duration", "secs", "nanos", "timestamp"];

/// Scans one file for unannotated wall-clock reads, and schema files
/// for timing-named serialized fields.
pub fn check(file: &SourceFile, class: &FileClass, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !class.wall_clock_exempt && !line.allows(NAME) {
            for token in BANNED {
                if line.code.contains(token) {
                    out.push(Diagnostic {
                        path: file.path.clone(),
                        line: idx + 1,
                        rule: NAME,
                        message: format!(
                            "wall-clock read `{token}` without `// lint: allow(wall_clock)`: \
                             wall time may feed *Stats.wall observability fields, never \
                             serialized report bytes"
                        ),
                    });
                }
            }
        }
        if class.is_report_schema && !line.allows(NAME) {
            for lit in &line.literals {
                let is_field_name = lit.prev == Some('(') && lit.next == Some(',');
                if !is_field_name {
                    continue;
                }
                let lower = lit.content.to_lowercase();
                if TIMING_FIELD_WORDS.iter().any(|w| lower.contains(w)) {
                    out.push(Diagnostic {
                        path: file.path.clone(),
                        line: idx + 1,
                        rule: NAME,
                        message: format!(
                            "serialized field `{}` looks like a timing: reports must stay a \
                             pure function of the spec (bit-identical across runs), so \
                             wall-clock data may not reach report bytes",
                            lit.content
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    #[test]
    fn unannotated_clock_reads_fire_annotated_do_not() {
        let src = "let t0 = Instant::now();\n\
                   let t1 = Instant::now(); // lint: allow(wall_clock)\n\
                   let t2 = SystemTime::now();\n";
        let f = scan_source("crates/x/src/a.rs", src);
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/x/src/a.rs"), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].line, 1);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn bench_paths_are_exempt() {
        let f = scan_source("crates/bench/src/lib.rs", "let t = Instant::now();\n");
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/bench/src/lib.rs"), &mut out);
        assert!(out.is_empty());
        let f = scan_source("crates/x/benches/b.rs", "let t = Instant::now();\n");
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/x/benches/b.rs"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn schema_field_cross_check() {
        let src = "obj(vec![(\"iterations\", v), (\"total_wall\", w)])\n\
                   assert!(!json.contains(\"wall\"));\n";
        let f = scan_source("crates/engine/src/report_json.rs", src);
        let mut out = Vec::new();
        check(
            &f,
            &FileClass::of("crates/engine/src/report_json.rs"),
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
        assert!(out[0].message.contains("total_wall"));
    }
}
