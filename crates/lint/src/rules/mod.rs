//! The determinism rules the compiler cannot see.
//!
//! Each submodule is one rule family, documented inline with the
//! *why*: which workspace guarantee the rule protects and what breaking
//! it silently costs. Every rule reports [`Diagnostic`]s in a single
//! byte-stable format (`path:line: rule: message`) so golden tests can
//! pin the output and CI diffs stay readable.
//!
//! The rest of the contract lives with the tools that already do the
//! job: `unsafe_code = "forbid"` in `[workspace.lints.rust]`, the
//! `partial_cmp` and wall-clock bans in the root `clippy.toml`, and
//! the vendored `rand` shim, which has no entropy-seeded constructor.
//!
//! Escape hatch: a `// lint: allow(rule)` comment on the offending line
//! (or on a standalone comment line directly above it) silences that
//! rule for that line. Allows are deliberately per-line, never per-file:
//! every exemption stays visible next to the code it excuses.

pub mod contract;
pub mod par_collect;
pub mod ratchet;

/// One rule violation, pointing at a workspace-relative `path:line`.
// The derived `PartialOrd` orders strings and integers, not floats.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule family name (the same name `lint: allow(...)` takes).
    pub rule: &'static str,
    /// Human-readable description of the violation and the fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}
