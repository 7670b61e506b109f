//! # ssor-bench
//!
//! Shared harness for the experiment regenerators (E1–E9, one binary per
//! paper result; see `DESIGN.md` §4 and `EXPERIMENTS.md`) and the
//! `bench_trajectory` perf harness.
//!
//! Each experiment binary prints an aligned "paper vs measured" table and
//! writes a machine-readable JSON record under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::Serialize;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// A simple aligned text table for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with right-aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes `value` as pretty JSON to `results/<name>.json` (relative to the
/// workspace root when run via `cargo run`, else the current directory).
/// Returns the path, or `None` if the filesystem refused (results are
/// best-effort records; the printed table is the primary output).
pub fn save_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let dir = PathBuf::from(env_root()).join("results");
    fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).ok()?;
    fs::write(&path, body).ok()?;
    Some(path)
}

/// Writes `value` as pretty JSON to `<workspace-root>/<name>.json` — the
/// home of the standing perf-trajectory records (`BENCH_pipeline.json`,
/// `BENCH_solver.json`, `BENCH_templates.json`), which live at the repo
/// root (committed each PR) rather than under the gitignored `results/`.
/// Returns the path, or `None` if the filesystem refused.
pub fn save_json_at_root<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let path = PathBuf::from(env_root()).join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).ok()?;
    fs::write(&path, body).ok()?;
    Some(path)
}

fn env_root() -> String {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|p| format!("{p}/../.."))
        .unwrap_or_else(|_| ".".into())
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, claim: &str) {
    println!("================================================================");
    println!("{id} — {paper_ref}");
    println!("paper: {claim}");
    println!("================================================================\n");
}

/// Geometric mean of a nonempty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a float with 3 decimals (table convenience).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio like `4.20x`.
pub fn fx(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header", "c"]);
        t.row(&["1", "2", "3"]);
        t.row(&["100", "2000", "3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len(), "rows align");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1"]);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(fx(2.5), "2.50x");
    }
}
