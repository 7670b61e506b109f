//! The work-stealing sweep scheduler: shards an arbitrary grid of
//! independent cells across workers with per-cell derived seeds, streams
//! finished cells through a bounded channel to an incremental journal,
//! and assembles a final JSON report that is **bit-identical** at every
//! thread count, under every steal order, and across crash/resume.
//!
//! The paper's experiments (and the dynamic scenarios layered on them)
//! are embarrassingly wide: thousands of independent
//! `(scenario × trial × α)` cells. Three properties make a sweep over
//! them trustworthy:
//!
//! 1. **Seed-by-identity, not by schedule.** Every cell's RNG stream is
//!    `ssor_graph::derive_seed(master_seed, cell.id)` — a pure function
//!    of the cell's identity. Which worker runs the cell, and when, can
//!    never change its result.
//! 2. **Order-free assembly.** Workers claim cells from an atomic
//!    counter (uneven cell costs still balance) and stream results to a
//!    single writer through a bounded channel; the final report sorts by
//!    cell id, so the steal order leaves no trace in the output bytes.
//! 3. **Crash-resumable journal.** Each finished cell is appended to the
//!    journal as one `<id>\t<compact-json>\n` line and flushed. A rerun
//!    reads the journal, skips every completed cell (keeping its
//!    journaled bytes verbatim), and computes only the remainder — the
//!    final JSON is byte-identical to an uninterrupted run. A line
//!    without a trailing newline (a mid-write kill) is ignored and its
//!    cell simply re-runs.
//!
//! The journal's *line order* reflects completion order and is therefore
//! not stable across runs; only the assembled report is. Since the
//! vendored `serde_json` shim is encode-only, resumed cells are carried
//! as raw journaled JSON strings — they are spliced into the report
//! byte-for-byte, never re-parsed.
//!
//! # Examples
//!
//! ```
//! use ssor_engine::sweep::{cells, run_sweep, SweepOptions};
//!
//! // 10 cells; each result is a pure function of (payload, cell seed).
//! let grid = cells((0..10u64).collect::<Vec<_>>());
//! let opts = SweepOptions::default().seed(42);
//! let one = run_sweep(&grid, &opts.clone().threads(1), |c, s| (c.payload, s % 97));
//! let four = run_sweep(&grid, &opts.threads(4), |c, s| (c.payload, s % 97));
//! assert_eq!(one.to_json_string(), four.to_json_string());
//! assert_eq!(one.executed, 10);
//! ```

use serde::Serialize;
use ssor_graph::derive_seed;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

/// One unit of sweep work: a stable identity plus an arbitrary payload
/// (a scenario, a trial index, an `α` value, a whole spec — whatever the
/// evaluator consumes).
///
/// The `id` is the cell's *identity*: it keys the derived seed, the
/// journal line, and the position in the final report. Ids must be
/// unique within a sweep but need not be dense or sorted — a resumed or
/// subsetted sweep passes whatever cells remain.
#[derive(Debug, Clone)]
pub struct SweepCell<C> {
    /// Stable identity of this cell (seed key + journal key + report
    /// sort key).
    pub id: u64,
    /// The work description the evaluator consumes.
    pub payload: C,
}

/// Wraps payloads into [`SweepCell`]s with dense ids `0..n` in input
/// order — the common case where the grid is materialized once.
///
/// # Examples
///
/// ```
/// use ssor_engine::sweep::cells;
/// let g = cells(vec!["a", "b"]);
/// assert_eq!((g[0].id, g[1].id), (0, 1));
/// ```
pub fn cells<C>(payloads: impl IntoIterator<Item = C>) -> Vec<SweepCell<C>> {
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| SweepCell {
            id: i as u64,
            payload,
        })
        .collect()
}

/// One point of the canonical `(scenario × α × trial)` experiment grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The scenario this cell evaluates.
    pub scenario: crate::ScenarioSpec,
    /// The sparsity budget for this cell.
    pub alpha: usize,
    /// Trial index within `(scenario, alpha)`.
    pub trial: usize,
}

/// Materializes the full `(scenario × α × trial)` grid with dense ids,
/// scenarios outermost and trials innermost (the order every serial
/// experiment loop in `crates/bench` historically used).
///
/// # Examples
///
/// ```
/// use ssor_engine::sweep::grid;
/// use ssor_engine::ScenarioSpec;
///
/// let cells = grid(&[ScenarioSpec::HypercubeAdversarial { dim: 3 }], &[1, 2], 3);
/// assert_eq!(cells.len(), 6);
/// assert_eq!((cells[5].payload.alpha, cells[5].payload.trial), (2, 2));
/// ```
pub fn grid(
    scenarios: &[crate::ScenarioSpec],
    alphas: &[usize],
    trials: usize,
) -> Vec<SweepCell<GridCell>> {
    let mut out = Vec::with_capacity(scenarios.len() * alphas.len() * trials);
    for scenario in scenarios {
        for &alpha in alphas {
            for trial in 0..trials {
                out.push(SweepCell {
                    id: out.len() as u64,
                    payload: GridCell {
                        scenario: scenario.clone(),
                        alpha,
                        trial,
                    },
                });
            }
        }
    }
    out
}

/// Bound of the worker→writer channel: how many finished cells may be in
/// flight before workers block on the journal writer.
const CHANNEL_CAPACITY: usize = 64;

/// Scheduler configuration for [`run_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Master seed: cell `i` evaluates under
    /// `ssor_graph::derive_seed(master_seed, i)`.
    pub master_seed: u64,
    /// Journal path for crash-resume. `None` disables journaling (the
    /// sweep still streams through the channel, results are only kept in
    /// memory).
    pub journal: Option<PathBuf>,
    /// Worker count. `None` follows the ambient rayon setting
    /// (`RAYON_NUM_THREADS` / available parallelism); `Some(n)` pins it
    /// for this sweep regardless of the environment.
    pub threads: Option<usize>,
    /// Emit a progress line to stderr as each cell completes.
    pub progress: bool,
}

impl SweepOptions {
    /// Sets the master seed.
    pub fn seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Enables journaling to `path`.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Pins the worker count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables per-cell progress lines on stderr.
    pub fn progress(mut self) -> Self {
        self.progress = true;
        self
    }
}

/// One cell's slot in a [`SweepOutcome`].
#[derive(Debug, Clone)]
pub struct CellRecord<R> {
    /// The cell's id.
    pub id: u64,
    /// The result as compact JSON — serialized now for fresh cells,
    /// journal bytes verbatim for resumed ones.
    pub json: String,
    /// The in-memory result; `None` iff the cell was resumed from the
    /// journal (the encode-only JSON shim cannot reconstruct it).
    pub result: Option<R>,
}

/// The result of [`run_sweep`]: every cell's record in **ascending id
/// order** (independent of input order and steal order), plus how the
/// work split between fresh execution and journal resume.
#[derive(Debug, Clone)]
pub struct SweepOutcome<R> {
    /// Per-cell records, ascending by id.
    pub records: Vec<CellRecord<R>>,
    /// Cells evaluated by this run.
    pub executed: usize,
    /// Cells answered verbatim from the journal.
    pub resumed: usize,
}

impl<R> SweepOutcome<R> {
    /// The assembled report: a JSON array of the per-cell results in
    /// ascending id order, one element per line. Byte-identical across
    /// thread counts, steal orders, input orders, and resume splits.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("[");
        for (i, rec) in self.records.iter().enumerate() {
            out.push_str(if i == 0 { "\n  " } else { ",\n  " });
            out.push_str(&rec.json);
        }
        if !self.records.is_empty() {
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }
}

/// Reads a journal back as `id → compact JSON`. Missing file means an
/// empty journal; a final line without its trailing newline (a mid-write
/// kill) is dropped, so its cell re-runs on resume.
fn read_journal(path: &Path) -> HashMap<u64, String> {
    let mut done = HashMap::new();
    let Ok(bytes) = std::fs::read(path) else {
        return done;
    };
    let content = String::from_utf8_lossy(&bytes);
    for line in content.split_inclusive('\n') {
        let Some(line) = line.strip_suffix('\n') else {
            break; // torn tail line: incomplete, ignore
        };
        let Some((id, json)) = line.split_once('\t') else {
            continue;
        };
        let (Ok(id), false) = (id.parse::<u64>(), json.is_empty()) else {
            continue;
        };
        done.insert(id, json.to_string());
    }
    done
}

/// Appends one completed cell to the journal and flushes, so a kill
/// after this call never loses the cell.
fn append_journal(file: &mut File, id: u64, json: &str) {
    file.write_all(format!("{id}\t{json}\n").as_bytes())
        .expect("sweep journal write failed");
    file.flush().expect("sweep journal flush failed");
}

fn encode_cell<R: Serialize>(id: u64, result: &R) -> String {
    // An unserializable result (NaN/infinite float) is a bug in the
    // eval function, not a per-cell condition — the sweep must abort
    // loudly rather than journal garbage.
    serde_json::to_string(result)
        // lint: allow(hot_panic) unserializable results must abort the sweep
        .unwrap_or_else(|e| panic!("sweep cell {id} produced an unserializable result: {e}"))
}

/// Claims the next pending cell off the shared counter and evaluates
/// it — the sweep inner loop, shared verbatim by the serial and
/// threaded drivers so there is exactly one body to audit (and one
/// entry point for the hot-path contract in `lint_contracts.json`).
/// Returns `None` once the pending list is exhausted.
fn claim_and_eval<C, R, F>(
    counter: &AtomicUsize,
    pending: &[usize],
    cells: &[SweepCell<C>],
    master_seed: u64,
    eval: &F,
) -> Option<(u64, String, R)>
where
    R: Serialize,
    F: Fn(&SweepCell<C>, u64) -> R,
{
    let i = counter.fetch_add(1, Ordering::Relaxed);
    let cell = cells.get(*pending.get(i)?)?;
    let result = eval(cell, derive_seed(master_seed, cell.id));
    let json = encode_cell(cell.id, &result);
    Some((cell.id, json, result))
}

/// Runs `eval` over every cell not already journaled, work-stealing
/// across up to [`SweepOptions::threads`] workers, and returns the
/// merged outcome (fresh results + resumed journal entries) in ascending
/// id order.
///
/// `eval` receives the cell and its derived seed
/// `derive_seed(opts.master_seed, cell.id)`; as long as it is a pure
/// function of those two, the outcome is bit-identical at every worker
/// count and across any kill/resume split.
///
/// # Panics
///
/// Panics if cell ids collide, if a worker panics, or if a result fails
/// to serialize (the vendored shim rejects NaN/infinite floats).
pub fn run_sweep<C, R, F>(cells: &[SweepCell<C>], opts: &SweepOptions, eval: F) -> SweepOutcome<R>
where
    C: Sync,
    R: Send + Serialize,
    F: Fn(&SweepCell<C>, u64) -> R + Sync,
{
    let mut seen = HashSet::with_capacity(cells.len());
    for cell in cells {
        assert!(seen.insert(cell.id), "duplicate sweep cell id {}", cell.id);
    }
    let done = opts
        .journal
        .as_deref()
        .map(read_journal)
        .unwrap_or_default();
    let mut journal_file = opts.journal.as_deref().map(|p| {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .unwrap_or_else(|e| panic!("cannot open sweep journal {}: {e}", p.display()))
    });

    let pending: Vec<usize> = (0..cells.len())
        .filter(|&i| !done.contains_key(&cells[i].id))
        .collect();
    let total = pending.len();
    let threads = opts
        .threads
        .unwrap_or_else(rayon::current_num_threads)
        .clamp(1, total.max(1));

    let mut fresh: Vec<(u64, String, R)> = Vec::with_capacity(total);
    if threads <= 1 {
        let counter = AtomicUsize::new(0);
        while let Some((id, json, result)) =
            claim_and_eval(&counter, &pending, cells, opts.master_seed, &eval)
        {
            if let Some(f) = journal_file.as_mut() {
                append_journal(f, id, &json);
            }
            fresh.push((id, json, result));
            if opts.progress {
                eprintln!("[sweep] {}/{total} cells (id {id})", fresh.len());
            }
        }
    } else {
        let counter = AtomicUsize::new(0);
        let (tx, rx) = sync_channel::<(u64, String, R)>(CHANNEL_CAPACITY);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let tx = tx.clone();
                    let (counter, pending, eval) = (&counter, &pending, &eval);
                    let master = opts.master_seed;
                    scope.spawn(move || {
                        while let Some(out) = claim_and_eval(counter, pending, cells, master, eval)
                        {
                            // A closed channel means the writer stopped
                            // (another worker panicked); just wind down.
                            if tx.send(out).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            // The scope's own thread is the single writer: it drains the
            // bounded channel, journaling each cell the moment it
            // finishes (completion order — only the final assembly is
            // order-canonical).
            while let Ok((id, json, result)) = rx.recv() {
                if let Some(f) = journal_file.as_mut() {
                    append_journal(f, id, &json);
                }
                fresh.push((id, json, result));
                if opts.progress {
                    eprintln!("[sweep] {}/{total} cells (id {id})", fresh.len());
                }
            }
            for h in handles {
                h.join().expect("sweep worker panicked");
            }
        });
    }

    let executed = fresh.len();
    let mut records: Vec<CellRecord<R>> = fresh
        .into_iter()
        .map(|(id, json, result)| CellRecord {
            id,
            json,
            result: Some(result),
        })
        .collect();
    let mut resumed = 0;
    for cell in cells {
        if let Some(json) = done.get(&cell.id) {
            resumed += 1;
            records.push(CellRecord {
                id: cell.id,
                json: json.clone(),
                result: None,
            });
        }
    }
    records.sort_by_key(|r| r.id);
    SweepOutcome {
        records,
        executed,
        resumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Serialize)]
    struct Out {
        id: u64,
        seed: u64,
    }

    fn eval_cell(c: &SweepCell<u64>, s: u64) -> Out {
        Out {
            id: c.id ^ c.payload,
            seed: s,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "ssor_sweep_{}_{}_{name}.journal",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn thread_count_leaves_no_trace_in_the_report() {
        let grid = cells((0..64u64).map(|x| x * 3).collect::<Vec<_>>());
        let base = run_sweep(
            &grid,
            &SweepOptions::default().seed(7).threads(1),
            eval_cell,
        );
        for threads in [2, 4, 8] {
            let got = run_sweep(
                &grid,
                &SweepOptions::default().seed(7).threads(threads),
                eval_cell,
            );
            assert_eq!(base.to_json_string(), got.to_json_string());
            assert_eq!(got.executed, 64);
            assert_eq!(got.resumed, 0);
        }
    }

    #[test]
    fn input_order_leaves_no_trace_in_the_report() {
        let grid = cells((0..16u64).collect::<Vec<_>>());
        let mut reversed = grid.clone();
        reversed.reverse();
        let a = run_sweep(&grid, &SweepOptions::default().threads(2), eval_cell);
        let b = run_sweep(&reversed, &SweepOptions::default().threads(2), eval_cell);
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn resume_skips_journaled_cells_and_matches_uninterrupted_bytes() {
        let grid = cells((0..20u64).collect::<Vec<_>>());
        let uninterrupted = run_sweep(&grid, &SweepOptions::default().threads(1), eval_cell);

        let path = tmp("resume");
        // "Crash" after the first 8 cells: run only a prefix.
        let first = run_sweep(
            &grid[..8],
            &SweepOptions::default().journal(&path),
            eval_cell,
        );
        assert_eq!((first.executed, first.resumed), (8, 0));
        let second = run_sweep(&grid, &SweepOptions::default().journal(&path), eval_cell);
        assert_eq!((second.executed, second.resumed), (12, 8));
        assert_eq!(second.to_json_string(), uninterrupted.to_json_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_line_is_ignored_and_reruns() {
        let grid = cells((0..6u64).collect::<Vec<_>>());
        let path = tmp("torn");
        run_sweep(&grid, &SweepOptions::default().journal(&path), eval_cell);
        // Tear the last line's newline off: that cell must re-run.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        let resumed = run_sweep(&grid, &SweepOptions::default().journal(&path), eval_cell);
        assert_eq!((resumed.executed, resumed.resumed), (1, 5));
        let clean = run_sweep(&grid, &SweepOptions::default(), eval_cell);
        assert_eq!(resumed.to_json_string(), clean.to_json_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_grid_produces_the_empty_report() {
        let grid: Vec<SweepCell<u64>> = Vec::new();
        let out = run_sweep(&grid, &SweepOptions::default(), eval_cell);
        assert_eq!(out.to_json_string(), "[]\n");
        assert_eq!((out.executed, out.resumed), (0, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate sweep cell id")]
    fn duplicate_ids_are_rejected() {
        let grid = vec![
            SweepCell {
                id: 3,
                payload: 0u64,
            },
            SweepCell {
                id: 3,
                payload: 1u64,
            },
        ];
        run_sweep(&grid, &SweepOptions::default(), eval_cell);
    }
}
