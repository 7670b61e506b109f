//! Per-pair path distributions `R(s, t)` over one interned arena — the
//! workspace's single representation of a routing's state.
//!
//! Writers push raw `(path, weight)` entries onto the *open run*,
//! optionally merge repeats, and commit the run to a pair through the one
//! weight normalizer, [`normalize_run`]. `ssor_flow::Routing` wraps a
//! [`Distributions`] and [`RouteTable`](crate::RouteTable)s are frozen
//! from one. The open run stays readable raw, so
//! `ObliviousRouting::path_distribution` passes template weights through
//! bit-for-bit, and [`Distributions::from_raw_runs`] commits runs that
//! pass the same validation without the divide — how `ssor_flow::Solver`
//! carries its unnormalized Frank–Wolfe weights.

use crate::graph::{EdgeId, VertexId};
use crate::path::Path;
use crate::store::{PathId, PathStore};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Per-pair path distributions sharing one [`PathStore`], normalized
/// unless committed raw (see the module docs).
///
/// # Examples
///
/// ```
/// use ssor_graph::{Distributions, Graph, Path};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let direct = Path::from_vertices(&g, &[0, 2]).unwrap();
/// let detour = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
/// let mut d = Distributions::new();
/// d.push(&direct, 1.0);
/// d.push(&detour, 2.0);
/// d.push(&direct, 1.0);
/// d.merge_open(); // edge-sequence order, the two direct draws merged
/// d.commit(0, 2);
/// let run = d.get(0, 2).unwrap();
/// assert_eq!(d.store().materialize(run[0].0), detour);
/// assert_eq!((run[0].1, run[1].1), (0.5, 0.5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Distributions {
    pub(crate) store: PathStore,
    /// Pair → `(start, len)` of its committed run in `entries`.
    runs: BTreeMap<(VertexId, VertexId), (u32, u32)>,
    /// Committed runs in commit order (a re-committed pair's old run
    /// stays, unreferenced).
    entries: Vec<(PathId, f64)>,
    /// Raw entries pushed since the last commit.
    open: Vec<(PathId, f64)>,
}

impl Distributions {
    /// No pairs, an empty arena.
    pub fn new() -> Self {
        Distributions::default()
    }

    /// Adopts `store` as the arena and commits one run per pair from ids
    /// already in it: each pair's raw `(id, weight)` entries, in the
    /// given order, go through [`commit`](Self::commit), so no path is
    /// interned again and the ids stay `store`'s.
    ///
    /// # Panics
    ///
    /// As [`commit`](Self::commit), and if an id is not in `store`.
    pub fn from_runs<R: IntoIterator<Item = (PathId, f64)>>(
        store: PathStore,
        runs: impl IntoIterator<Item = ((VertexId, VertexId), R)>,
    ) -> Self {
        Distributions::adopt(store, runs, Distributions::commit)
    }

    /// [`from_runs`](Self::from_runs) without the divide: each run is
    /// validated exactly like [`commit`](Self::commit) (zero entries
    /// dropped) and stored bit for bit. Every run is committed once, so
    /// the result holds no unreferenced entries.
    ///
    /// # Panics
    ///
    /// As [`from_runs`](Self::from_runs).
    pub fn from_raw_runs<R: IntoIterator<Item = (PathId, f64)>>(
        store: PathStore,
        runs: impl IntoIterator<Item = ((VertexId, VertexId), R)>,
    ) -> Self {
        Distributions::adopt(store, runs, Distributions::commit_raw)
    }

    fn adopt<R: IntoIterator<Item = (PathId, f64)>>(
        store: PathStore,
        runs: impl IntoIterator<Item = ((VertexId, VertexId), R)>,
        commit: fn(&mut Self, VertexId, VertexId),
    ) -> Self {
        let mut d = Distributions {
            store,
            ..Distributions::default()
        };
        for ((s, t), run) in runs {
            d.open.extend(run);
            commit(&mut d, s, t);
        }
        d
    }

    /// The arena every [`PathId`] here refers into.
    pub fn store(&self) -> &PathStore {
        &self.store
    }

    /// Gives up the runs and keeps the arena, so it can grow and be
    /// adopted again.
    pub fn into_store(self) -> PathStore {
        self.store
    }

    /// Number of committed pairs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no pair is committed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The committed run of `(s, t)`, if any.
    pub fn get(&self, s: VertexId, t: VertexId) -> Option<&[(PathId, f64)]> {
        let &(start, len) = self.runs.get(&(s, t))?;
        self.entries.get(start as usize..(start + len) as usize)
    }

    /// Committed pairs with their runs, in `(s, t)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((VertexId, VertexId), &[(PathId, f64)])> + '_ {
        self.runs.iter().map(|(&pair, &(start, len))| {
            let run = self.entries.get(start as usize..(start + len) as usize);
            (pair, run.unwrap_or_default())
        })
    }

    /// Pushes `path` with raw weight `w` onto the open run.
    pub fn push(&mut self, path: &Path, w: f64) {
        self.push_parts(path.vertices(), path.edges(), w);
    }

    /// [`push`](Self::push) for a path given as vertex/edge slices — how
    /// paths move in from another arena without an owned [`Path`].
    pub fn push_parts(&mut self, vertices: &[VertexId], edges: &[EdgeId], w: f64) {
        let id = self.store.intern_parts(vertices, edges);
        self.open.push((id, w));
    }

    /// The open run's raw entries, in push order.
    pub fn open(&self) -> &[(PathId, f64)] {
        &self.open
    }

    /// Sorts the open run by edge sequence and merges repeated paths,
    /// summing their weights in push order.
    pub fn merge_open(&mut self) {
        self.sort_open_by(|store, a, b| store.edges(a.0).cmp(store.edges(b.0)));
        self.open.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
    }

    /// Stably sorts the open run with `cmp`, which sees the arena.
    pub fn sort_open_by(
        &mut self,
        mut cmp: impl FnMut(&PathStore, &(PathId, f64), &(PathId, f64)) -> Ordering,
    ) {
        let store = &self.store;
        self.open.sort_by(|a, b| cmp(store, a, b));
    }

    /// [`normalize_run`] on the open run of pair `(s, t)`.
    pub fn normalize_open(&mut self, s: VertexId, t: VertexId) -> f64 {
        normalize_run(&self.store, &mut self.open, s, t)
    }

    /// Normalizes the open run ([`normalize_run`], which may panic) and
    /// commits it as `R(s, t)`, replacing any previous run of the pair.
    pub fn commit(&mut self, s: VertexId, t: VertexId) {
        self.normalize_open(s, t);
        self.append_open(s, t);
    }

    /// [`commit`](Self::commit) without the divide (see
    /// [`from_raw_runs`](Self::from_raw_runs)).
    fn commit_raw(&mut self, s: VertexId, t: VertexId) {
        validate_run(&self.store, &mut self.open, s, t);
        self.append_open(s, t);
    }

    /// Moves the open run into `entries` as `R(s, t)`.
    fn append_open(&mut self, s: VertexId, t: VertexId) {
        let start = self.entries.len() as u32;
        let len = self.open.len() as u32;
        self.entries.append(&mut self.open);
        self.runs.insert((s, t), (start, len));
    }

    /// Draws one open-run entry with the deviate `u ∈ [0, 1)`,
    /// materializing only that path: a subtractive scan of `u * total`,
    /// falling back to the NaN-safe maximum weight (last on ties) when
    /// float residue runs past the end. `None` on an empty run.
    pub fn sample_open(&self, u: f64) -> Option<Path> {
        let total: f64 = self.open.iter().map(|&(_, w)| w).sum();
        let mut x = u * total;
        let &(id, _) = self
            .open
            .iter()
            .find(|&&(_, w)| {
                x -= w;
                x <= 0.0
            })
            .or_else(|| self.open.iter().max_by(|a, b| a.1.total_cmp(&b.1)))?;
        Some(self.store.materialize(id))
    }
}

/// The workspace's one weight normalizer, on a run of `store`'s paths
/// for pair `(s, t)`: validate every weight *before* it enters the total
/// (a negative weight would inflate the rest past 1, a NaN poison every
/// downstream number), total left to right, drop zero entries *after*
/// the total, divide the rest by it. Returns the total.
///
/// # Panics
///
/// Panics if the run is empty, a weight is negative or non-finite, the
/// total is zero or non-finite, or a kept path does not run `s → t`.
pub fn normalize_run(
    store: &PathStore,
    run: &mut Vec<(PathId, f64)>,
    s: VertexId,
    t: VertexId,
) -> f64 {
    let total = validate_run(store, run, s, t);
    for (_, w) in run.iter_mut() {
        *w /= total;
    }
    total
}

/// [`normalize_run`] up to the divide: validates the run, drops its zero
/// entries and returns its left-to-right total.
fn validate_run(store: &PathStore, run: &mut Vec<(PathId, f64)>, s: VertexId, t: VertexId) -> f64 {
    assert!(!run.is_empty(), "distribution needs at least one path");
    for &(_, w) in run.iter() {
        assert!(
            w.is_finite() && w >= 0.0,
            "path weight must be finite and nonnegative, got {w}"
        );
    }
    let total: f64 = run.iter().map(|&(_, w)| w).sum();
    assert!(total > 0.0, "weights must not all be zero");
    assert!(
        total.is_finite(),
        "path weights must sum to a finite total, got {total}"
    );
    run.retain(|&(_, w)| w > 0.0);
    for &(id, _) in run.iter() {
        assert_eq!(store.source(id), s, "path source mismatch");
        assert_eq!(store.target(id), t, "path target mismatch");
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn ring_path(vertices: &[VertexId]) -> Path {
        Path::from_vertices(&generators::ring(4), vertices).expect("ring(4) walk")
    }

    /// `(0 → 1 → 2, 0 → 3 → 2)`: the two sides of `ring(4)`.
    fn ring_paths() -> (Path, Path) {
        (ring_path(&[0, 1, 2]), ring_path(&[0, 3, 2]))
    }

    fn weights(run: &[(PathId, f64)]) -> Vec<f64> {
        run.iter().map(|&(_, w)| w).collect()
    }

    #[test]
    fn commit_normalizes_by_the_left_to_right_total() {
        let (cw, ccw) = ring_paths();
        let mut d = Distributions::new();
        d.push(&cw, 1.0);
        d.push(&ccw, 3.0);
        assert_eq!(weights(d.open()), [1.0, 3.0], "the open run stays raw");
        d.commit(0, 2);
        assert!(d.open().is_empty());
        assert_eq!(d.get(0, 2).map(weights), Some(vec![0.25, 0.75]));
        assert!(d.get(2, 0).is_none());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn zero_weights_are_dropped_after_the_total() {
        let (cw, ccw) = ring_paths();
        let mut d = Distributions::new();
        d.push(&cw, 0.0);
        d.push(&ccw, 0.5);
        assert_eq!(d.normalize_open(0, 2), 0.5);
        assert_eq!(weights(d.open()), [1.0]);
        assert_eq!(d.sample_open(0.0), Some(ccw));
    }

    #[test]
    fn merge_open_sums_repeats_in_push_order() {
        let (cw, ccw) = ring_paths();
        let mut d = Distributions::new();
        for (p, w) in [(&ccw, 0.1), (&cw, 0.2), (&ccw, 0.3), (&ccw, 0.4)] {
            d.push(p, w);
        }
        d.merge_open();
        assert_eq!(weights(d.open()), [0.2, (0.1 + 0.3) + 0.4]);
        assert_eq!(
            d.sample_open(0.0),
            Some(cw),
            "edge order puts 0 → 1 → 2 first"
        );
    }

    #[test]
    fn sample_open_scans_and_falls_back_to_the_heaviest() {
        let (cw, ccw) = ring_paths();
        let mut d = Distributions::new();
        assert!(d.sample_open(0.5).is_none());
        d.push(&cw, 0.25);
        d.push(&ccw, 0.75);
        assert_eq!(d.sample_open(0.0), Some(cw.clone()));
        assert_eq!(d.sample_open(0.25), Some(cw));
        assert_eq!(d.sample_open(0.3), Some(ccw.clone()));
        // Past the end (u > 1 stands in for float residue).
        assert_eq!(d.sample_open(1.5), Some(ccw));
    }

    #[test]
    fn from_runs_keeps_the_adopted_ids() {
        let (cw, ccw) = ring_paths();
        let mut store = PathStore::new();
        let (a, b) = (store.intern(&ccw), store.intern(&cw));
        let d = Distributions::from_runs(store, [((0, 2), [(b, 1.0), (a, 3.0)])]);
        assert_eq!(d.store().len(), 2, "nothing interned again");
        assert_eq!(d.get(0, 2), Some([(b, 0.25), (a, 0.75)].as_slice()));
        assert!(d.open().is_empty());
    }

    #[test]
    fn raw_runs_keep_their_weights_bit_for_bit() {
        let (cw, ccw) = ring_paths();
        let mut store = PathStore::new();
        let (a, b) = (store.intern(&cw), store.intern(&ccw));
        let (wa, wb) = (0.1 + 0.2, 1e-300);
        let d = Distributions::from_raw_runs(store, [((0, 2), [(a, wa), (b, wb)])]);
        let bits = |run: &[(PathId, f64)]| run.iter().map(|&(_, w)| w.to_bits()).collect();
        assert_eq!(
            d.get(0, 2).map(bits),
            Some(vec![wa.to_bits(), wb.to_bits()])
        );
        let d = Distributions::from_raw_runs(d.into_store(), [((0, 2), [(a, 0.0), (b, 0.7)])]);
        assert_eq!(
            d.get(0, 2),
            Some([(b, 0.7)].as_slice()),
            "zeros dropped, as by commit"
        );
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("must panic");
        let text = err.downcast_ref::<String>().cloned();
        text.or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn raw_runs_are_rejected_like_commit() {
        let cases: [(&[f64], VertexId, &str); 6] = [
            (&[f64::NAN], 2, "finite and nonnegative"),
            (&[f64::INFINITY], 2, "finite and nonnegative"),
            (&[-1.0, 2.0], 2, "finite and nonnegative"),
            (&[0.0, 0.0], 2, "not all be zero"),
            (&[], 2, "at least one path"),
            (&[1.0], 3, "path target mismatch"),
        ];
        for (ws, t, want) in cases {
            let raw = panic_message(|| {
                let mut store = PathStore::new();
                let id = store.intern(&ring_paths().0);
                Distributions::from_raw_runs(store, [((0, t), ws.iter().map(|&w| (id, w)))]);
            });
            let committed = panic_message(|| {
                let mut d = Distributions::new();
                ws.iter().for_each(|&w| d.push(&ring_paths().0, w));
                d.commit(0, t);
            });
            assert!(raw.contains(want), "{ws:?}: {raw}");
            assert_eq!(raw, committed, "{ws:?}");
        }
    }

    #[test]
    fn a_rebuilt_state_has_no_dead_entries() {
        let (cw, ccw) = ring_paths();
        let mut d = Distributions::new();
        d.push(&cw, 1.0);
        d.commit(0, 2);
        d.push(&ccw, 1.0);
        d.commit(0, 2);
        assert_eq!(
            d.entries.len(),
            2,
            "re-committing leaves the old run behind"
        );
        let runs: Vec<_> = d.iter().map(|(pair, run)| (pair, run.to_vec())).collect();
        let rebuilt = Distributions::from_raw_runs(d.into_store(), runs);
        assert_eq!(rebuilt.entries.len(), 1);
        assert_eq!(rebuilt.store().len(), 2, "the arena is adopted as is");
        let paths = |run: &[(PathId, f64)]| {
            let store = rebuilt.store();
            run.iter()
                .map(|&(id, w)| (store.materialize(id), w))
                .collect()
        };
        assert_eq!(rebuilt.get(0, 2).map(paths), Some(vec![(ccw, 1.0)]));
    }

    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn nan_weights_are_rejected() {
        let mut d = Distributions::new();
        d.push(&ring_paths().0, f64::NAN);
        d.commit(0, 2);
    }

    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn infinite_weights_are_rejected() {
        let mut d = Distributions::new();
        d.push(&ring_paths().0, f64::INFINITY);
        d.commit(0, 2);
    }

    #[test]
    #[should_panic(expected = "path target mismatch")]
    fn endpoint_mismatch_is_rejected() {
        let mut d = Distributions::new();
        d.push(&ring_paths().0, 1.0);
        d.commit(0, 3);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_are_rejected() {
        let mut d = Distributions::new();
        d.push(&ring_paths().0, 0.0);
        d.commit(0, 2);
    }
}
