//! Path systems (Definition 2.1): the combinatorial object a semi-oblivious
//! routing *is*.

use crate::graph::{EdgeId, Graph, VertexId};
use crate::path::Path;
use crate::store::{PathId, PathStore};
use std::collections::BTreeMap;

/// A path system `P = {P(s, t)}`: a set of simple `(s, t)`-paths per vertex
/// pair (Definition 2.1). A semi-oblivious routing is exactly a path system
/// together with the Stage-4 promise to route optimally within it
/// (Definition 5.1).
///
/// Paths are stored interned in a [`PathStore`] arena: each distinct path
/// lives once, a pair's candidate list is a `Vec<PathId>`, and the
/// duplicate check in [`PathSystem::insert`] is a hash lookup plus an id
/// scan — never an edge-vector comparison. Owned [`Path`]s appear only at
/// the boundary ([`PathSystem::paths`] materializes; use
/// [`PathSystem::path_ids`] + [`PathSystem::store`] in hot paths, as the
/// restricted solvers do).
///
/// # Examples
///
/// ```
/// use ssor_graph::{generators, Path, PathSystem};
///
/// let g = generators::ring(6);
/// let mut ps = PathSystem::new();
/// ps.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
/// ps.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
/// assert_eq!(ps.sparsity(), 2);
/// assert_eq!(ps.paths(0, 3).unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathSystem {
    store: PathStore,
    per_pair: BTreeMap<(VertexId, VertexId), Vec<PathId>>,
}

impl PathSystem {
    /// The empty path system.
    pub fn new() -> Self {
        PathSystem::default()
    }

    /// Adds `path` to `P(source, target)` unless an identical path (same
    /// edge sequence) is already present. Returns whether it was inserted.
    ///
    /// Duplicates are collapsed because Definition 5.2 samples *with
    /// replacement* into a *set*: drawing the same path twice still yields
    /// one candidate, so `|P(s, t)| <= α` after `α` draws. The check is
    /// arena-backed — the path is interned once (hash + dedup in the
    /// [`PathStore`]) and membership is an `O(|P(s, t)|)` scan over
    /// `Copy`able [`PathId`]s, not a scan comparing edge vectors.
    ///
    /// # Panics
    ///
    /// Panics if the path is not simple or has zero hops.
    pub fn insert(&mut self, path: Path) -> bool {
        assert!(path.is_simple(), "path systems contain simple paths only");
        assert!(path.hop() >= 1, "paths must have at least one edge");
        let key = (path.source(), path.target());
        let id = self.store.intern(&path);
        push_new(self.per_pair.entry(key).or_default(), id)
    }

    /// Adds a batch of draws from `R(s, t)` to `P(s, t)`: `draw` interns
    /// each draw into the system's arena and pushes its id onto the pair's
    /// candidate list unless already listed — the contract of an oblivious
    /// template's `sample_into`, which is what every sampler passes here.
    /// The pair map is touched once per batch, not once per draw.
    ///
    /// # Panics
    ///
    /// Panics, like [`insert`](Self::insert), if a new candidate is not
    /// simple or has zero hops, and if its endpoints are not `(s, t)`.
    pub fn insert_draws(
        &mut self,
        s: VertexId,
        t: VertexId,
        draw: impl FnOnce(&mut PathStore, &mut Vec<PathId>),
    ) {
        let ids = self.per_pair.entry((s, t)).or_default();
        let known = ids.len();
        draw(&mut self.store, ids);
        let store = &self.store;
        for &id in ids.iter().skip(known) {
            assert!(
                store.is_simple(id),
                "path systems contain simple paths only"
            );
            assert!(store.hop(id) >= 1, "paths must have at least one edge");
            assert!(
                (store.source(id), store.target(id)) == (s, t),
                "a draw from R({s}, {t}) must run from {s} to {t}"
            );
        }
        if ids.is_empty() {
            // A pair is listed only while it has a candidate.
            self.per_pair.remove(&(s, t));
        }
    }

    /// The candidate paths for `(s, t)`, materialized as owned [`Path`]s.
    ///
    /// Boundary/debug accessor: hot paths should read
    /// [`PathSystem::path_ids`] against [`PathSystem::store`] instead.
    pub fn paths(&self, s: VertexId, t: VertexId) -> Option<Vec<Path>> {
        self.per_pair
            .get(&(s, t))
            .map(|ids| ids.iter().map(|&id| self.store.materialize(id)).collect())
    }

    /// The interned candidate ids for `(s, t)`, if any.
    pub fn path_ids(&self, s: VertexId, t: VertexId) -> Option<&[PathId]> {
        self.per_pair.get(&(s, t)).map(|v| v.as_slice())
    }

    /// Whether `(s, t)` has at least one candidate (no materialization).
    pub fn covers_pair(&self, s: VertexId, t: VertexId) -> bool {
        // Entries are created on insert and dropped when emptied, so
        // presence implies at least one candidate.
        self.per_pair.contains_key(&(s, t))
    }

    /// The arena the candidate ids resolve against.
    pub fn store(&self) -> &PathStore {
        &self.store
    }

    /// Pairs with at least one candidate path.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.per_pair.keys().copied()
    }

    /// Number of pairs covered.
    pub fn len(&self) -> usize {
        self.per_pair.len()
    }

    /// Whether no pair is covered.
    pub fn is_empty(&self) -> bool {
        self.per_pair.is_empty()
    }

    /// Sparsity: `max_{(s,t)} |P(s, t)|` (Definition 2.1's `α`).
    pub fn sparsity(&self) -> usize {
        self.per_pair.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of stored paths.
    pub fn total_paths(&self) -> usize {
        self.per_pair.values().map(Vec::len).sum()
    }

    /// Heap bytes of the system: its arena's [`PathStore::heap_bytes`]
    /// plus the pair index, one `(pair, id list)` entry per covered pair
    /// and one [`PathId`] per candidate. The B-tree's node overhead and
    /// spare capacity are not counted.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let entry = size_of::<((VertexId, VertexId), Vec<PathId>)>();
        let index: usize = self
            .per_pair
            .values()
            .map(|ids| entry + ids.len() * size_of::<PathId>())
            .sum();
        self.store.heap_bytes() + index
    }

    /// Whether every pair's candidate count is at most
    /// `alpha + cut_bound(s, t)` for a caller-supplied cut function —
    /// checks `(α + cut_G)`-sparsity per Definition 2.1.
    pub fn is_cut_sparse(
        &self,
        alpha: usize,
        mut cut_bound: impl FnMut(VertexId, VertexId) -> usize,
    ) -> bool {
        self.per_pair
            .iter()
            .all(|(&(s, t), ps)| ps.len() <= alpha + cut_bound(s, t))
    }

    /// Adds every path of `other` to `self` (deduplicating), moving
    /// `other`'s arena over in its own id order: an empty `self` becomes
    /// `other` outright, and otherwise each path is interned from its
    /// stored hash, never hashed again. Each pair keeps its own candidates
    /// first, then `other`'s new ones in `other`'s order.
    pub fn append(&mut self, other: PathSystem) {
        if self.store.is_empty() {
            *self = other;
            return;
        }
        let moved: Vec<PathId> = other
            .store
            .ids()
            .map(|oid| self.store.intern_from(&other.store, oid))
            .collect();
        for (key, ids) in other.per_pair {
            let entry = self.per_pair.entry(key).or_default();
            for id in ids.iter().filter_map(|oid| moved.get(oid.index())) {
                push_new(entry, *id);
            }
        }
    }

    /// Removes all paths crossing edge `e` (used for failure experiments),
    /// returning the number of removed paths. Pairs may become empty and
    /// are then dropped entirely. The arena is append-only, so removal
    /// drops ids without reclaiming the underlying path data.
    pub fn remove_paths_through(&mut self, e: EdgeId) -> usize {
        let store = &self.store;
        let mut removed = 0;
        self.per_pair.retain(|_, ids| {
            let before = ids.len();
            ids.retain(|&id| !store.contains_edge(id, e));
            removed += before - ids.len();
            !ids.is_empty()
        });
        removed
    }

    /// Validates every path against `g` (without materializing).
    pub fn is_valid(&self, g: &Graph) -> bool {
        self.first_invalid_pair(g).is_none()
    }

    /// The first pair (in pair order) holding a path that is not a
    /// simple `s → t` walk in `g`, or `None` when every path is valid.
    pub fn first_invalid_pair(&self, g: &Graph) -> Option<(VertexId, VertexId)> {
        self.per_pair.iter().find_map(|(&(s, t), ids)| {
            let valid = ids.iter().all(|&id| {
                self.store.source(id) == s
                    && self.store.target(id) == t
                    && self.store.is_valid(id, g)
                    && self.store.is_simple(id)
            });
            (!valid).then_some((s, t))
        })
    }
}

/// Pushes `id` onto a pair's candidates unless it is already there (the
/// set semantics of Definition 5.2); returns whether it was pushed.
///
/// The one "append unless listed" rule: [`PathSystem`]'s inserts and
/// every `ObliviousRouting::sample_into` draw go through it, so a pair's
/// candidates keep first-draw order whichever side built them.
#[inline]
pub fn push_new(candidates: &mut Vec<PathId>, id: PathId) -> bool {
    let new = !candidates.contains(&id);
    if new {
        candidates.push(id);
    }
    new
}

/// Logical equality: same pairs, and per pair the same path sequences in
/// the same order — independent of arena ids or interning history, so two
/// systems built by differently-chunked parallel samplers compare equal
/// whenever their contents agree.
impl PartialEq for PathSystem {
    fn eq(&self, other: &PathSystem) -> bool {
        self.per_pair.len() == other.per_pair.len()
            && self
                .per_pair
                .iter()
                .zip(other.per_pair.iter())
                .all(|((ka, ids_a), (kb, ids_b))| {
                    ka == kb
                        && ids_a.len() == ids_b.len()
                        && ids_a.iter().zip(ids_b.iter()).all(|(&a, &b)| {
                            self.store.edges(a) == other.store.edges(b)
                                && self.store.vertices(a) == other.store.vertices(b)
                        })
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn ring_system() -> (Graph, PathSystem) {
        let g = generators::ring(6);
        let mut ps = PathSystem::new();
        ps.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        ps.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        ps.insert(Path::from_vertices(&g, &[1, 2]).unwrap());
        (g, ps)
    }

    #[test]
    fn heap_bytes_adds_the_pair_index_to_the_arena() {
        let (_, ps) = ring_system();
        // Arena: 10 vertex and 7 edge ids, 3 spans (12 B), 3 hashes
        // (8 B) and 16 dedup slots. Index: 2 pairs, each an 8-byte key
        // and a list header (24 B on 64-bit targets), plus 3 ids.
        let arena = 10 * 4 + 7 * 4 + 3 * 12 + 3 * 8 + 16 * 4;
        let header = std::mem::size_of::<Vec<PathId>>();
        assert_eq!(ps.store().heap_bytes(), arena);
        assert_eq!(ps.heap_bytes(), arena + 2 * (8 + header) + 3 * 4);
    }

    #[test]
    fn append_moves_other_in_arena_order() {
        let (g, ps) = ring_system();
        let mut other = PathSystem::new();
        let walks: [&[VertexId]; 3] = [&[4, 5], &[2, 1], &[0, 1, 2, 3]];
        for p in walks.iter().filter_map(|vs| Path::from_vertices(&g, vs)) {
            other.insert(p);
        }
        assert_eq!(other.len(), 3);
        let mut inserted = ps.clone();
        for p in other
            .pairs()
            .flat_map(|(s, t)| other.paths(s, t).unwrap_or_default())
        {
            inserted.insert(p);
        }
        let mut appended = ps.clone();
        appended.append(other.clone());
        assert_eq!(appended, inserted);
        assert_eq!(appended.store().len(), 5, "the shared path is not copied");
        // `other`'s arena order (4 → 5 first), not its pair order.
        let ids: Vec<_> = appended.store().ids().collect();
        assert_eq!(appended.path_ids(4, 5), ids.get(3..4));
        let mut empty = PathSystem::new();
        empty.append(other.clone());
        assert_eq!(empty.store().len(), other.store().len());
        assert_eq!(empty.path_ids(2, 1), other.path_ids(2, 1));
    }

    #[test]
    fn insert_dedups_identical_paths() {
        let (g, mut ps) = ring_system();
        let dup = Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap();
        assert!(!ps.insert(dup));
        assert_eq!(ps.paths(0, 3).unwrap().len(), 2);
        // The arena holds each distinct path once.
        assert_eq!(ps.store().len(), 3);
    }

    #[test]
    fn sparsity_and_counts() {
        let (_, ps) = ring_system();
        assert_eq!(ps.sparsity(), 2);
        assert_eq!(ps.total_paths(), 3);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    #[should_panic(expected = "simple")]
    fn rejects_non_simple_paths() {
        let g = generators::ring(4);
        let walk = Path::from_vertices(&g, &[0, 1, 0, 1]).unwrap();
        PathSystem::new().insert(walk);
    }

    #[test]
    #[should_panic(expected = "simple")]
    fn insert_draws_rejects_non_simple_draws() {
        let g = generators::ring(4);
        let walk = Path::from_vertices(&g, &[0, 1, 0, 1]).unwrap();
        PathSystem::new().insert_draws(0, 1, |store, ids| ids.push(store.intern(&walk)));
    }

    #[test]
    #[should_panic(expected = "must run from 0 to 3")]
    fn insert_draws_rejects_draws_with_other_endpoints() {
        let g = generators::ring(6);
        let off = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        PathSystem::new().insert_draws(0, 3, |store, ids| ids.push(store.intern(&off)));
    }

    #[test]
    fn insert_draws_covers_a_pair_only_once_it_lists_a_draw() {
        let g = generators::ring(6);
        let path = Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap();
        let mut ps = PathSystem::new();
        ps.insert_draws(0, 3, |_, _| {});
        assert!(!ps.covers_pair(0, 3));
        ps.insert_draws(0, 3, |store, ids| ids.push(store.intern(&path)));
        assert_eq!(ps.paths(0, 3), Some(vec![path]));
    }

    #[test]
    fn union_merges_and_dedups() {
        let (g, mut ps) = ring_system();
        let mut other = PathSystem::new();
        other.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap()); // dup
        other.insert(Path::from_vertices(&g, &[2, 3]).unwrap()); // new
        ps.append(other);
        assert_eq!(ps.total_paths(), 4);
    }

    #[test]
    fn remove_paths_through_edge() {
        let (g, mut ps) = ring_system();
        // Edge 0 connects ring vertices 0-1; it is on path 0-1-2-3 and 1-2? no:
        // path 1-2 uses edge (1,2) which is edge id 1.
        let removed = ps.remove_paths_through(0);
        assert_eq!(removed, 1);
        assert_eq!(ps.paths(0, 3).unwrap().len(), 1);
        let _ = g;
    }

    #[test]
    fn cut_sparsity_check() {
        let (_, ps) = ring_system();
        // Every pair on a ring has cut 2, so alpha = 0 suffices.
        assert!(ps.is_cut_sparse(0, |_, _| 2));
        assert!(!ps.is_cut_sparse(0, |_, _| 1));
        assert!(ps.is_cut_sparse(2, |_, _| 0));
    }

    #[test]
    fn validity() {
        let (g, ps) = ring_system();
        assert!(ps.is_valid(&g));
        assert_eq!(ps.first_invalid_pair(&g), None);
    }

    #[test]
    fn equality_ignores_interning_history() {
        let (g, ps) = ring_system();
        // Build the same logical system with a different arena layout
        // (extra interned-then-unused data, different insertion order of
        // other pairs' paths).
        let mut other = PathSystem::new();
        other.insert(Path::from_vertices(&g, &[1, 2]).unwrap());
        other.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        other.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        assert_eq!(ps, other);
        let mut different = other.clone();
        different.insert(Path::from_vertices(&g, &[2, 3]).unwrap());
        assert_ne!(ps, different);
    }
}
