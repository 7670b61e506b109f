//! `ssor-lint` — the workspace invariant checker.
//!
//! Every guarantee this reproduction makes — competitive ratios from
//! "few random paths" verified by *bit-identical* reports at any
//! thread count, steal order, or shard count — rests on source-level
//! invariants. The ones rustc and clippy can see are theirs:
//! `unsafe_code = "forbid"` in `[workspace.lints.rust]`, and the
//! root `clippy.toml`'s `disallowed-methods` ban on `partial_cmp`,
//! `Instant::now` and `SystemTime::now` (the one clock read is
//! `ssor_graph::obs::Stopwatch`). An entropy-seeded RNG does not even
//! compile: the vendored `rand` shim has no `thread_rng`, `random` or
//! `from_entropy`. `ssor-lint` checks the rest, which no compiler
//! lint expresses: parallel fan-out collects in input order
//! ([`rules::par_collect`]), per-crate budgets for unwraps, indexing,
//! panics and hash containers may only shrink ([`rules::ratchet`]),
//! and declared hot entry points stay panic- and allocation-free
//! through their whole call tree ([`rules::contract`]).
//!
//! The design is deliberately token-level, not AST-level: a
//! dependency-free scanner ([`scanner`]) blanks comments and literals
//! following the real lexical grammar, and the rules ([`rules`]) are
//! substring scans over the remaining code. That trades type-aware
//! precision for a checker that builds in under a second, has no
//! dependency tree to audit, and whose diagnostics are byte-stable
//! golden-test material. The escape hatch is per-line and greppable:
//! `// lint: allow(rule)`.
//!
//! On top of the flat scan sits one structural layer: a lightweight
//! item parser ([`parser`]) recognizes `fn` items, `impl` blocks, and
//! call sites in the blanked token stream, an approximate name-based
//! call graph ([`callgraph`]) connects them (conservatively — an
//! ambiguous callee taints every candidate), and the contract rules
//! ([`rules::contract`]) enforce transitive panic-freedom and
//! allocation discipline for the hot entry points declared in the
//! committed `lint_contracts.json` ([`contracts`]).
//!
//! Two entry modes (see [`runner`]): `--check` compares the tree and
//! the committed ratchet baseline (`lint_budget.json`), `--bless`
//! re-records the baseline — counts may only shrink through bless,
//! which is what makes the ratchet a one-way street.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod callgraph;
pub mod contracts;
pub mod parser;
pub mod rules;
pub mod runner;
pub mod scanner;

pub use rules::Diagnostic;
pub use runner::{find_workspace_root, run, Mode, Outcome};
pub use scanner::{scan_source, SourceFile};
