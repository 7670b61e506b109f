//! The immutable serving snapshot: per-pair path distributions flattened
//! into contiguous buffers with precomputed sampling CDFs.
//!
//! A routing template answers `sample_path(s, t)` by walking live objects
//! — tree mixtures, intermediate enumerations — which is fine for batch
//! sampling but far too much machinery for a query plane that must answer
//! millions of lookups per second. A [`RouteTable`] is the compiled form:
//! every path of every pair interned once into a [`PathStore`] arena, a
//! CSR index from `(s, t)` to its [`PathId`] range, and the cumulative
//! distribution of each pair precomputed so a draw is one uniform deviate,
//! one binary search over targets, and one `partition_point` over the CDF.
//! The table is frozen from a [`Distributions`] by [`RouteTable::freeze`]
//! and immutable afterwards; serving layers share it behind an `Arc` and
//! swap whole generations atomically.
//!
//! # Sampling contract
//!
//! [`RouteTable::sample_with`] pins the exact arithmetic so independent
//! implementations can be compared bit-for-bit: pair weights are the
//! [`Distributions`] run's, already normalized by the workspace's one
//! normalizer ([`normalize_run`](crate::normalize_run): validate, left-to-right
//! total, drop zeros, divide); the CDF is the left-to-right prefix sum
//! of those weights; and a deviate `u ∈ [0, 1)` selects the first index
//! whose CDF entry reaches `u * total`. Replaying the same deviates
//! against the pair's run with a prefix scan therefore selects the same
//! paths, bit-identically — the property the serving determinism suite
//! pins.

use crate::dist::Distributions;
use crate::graph::VertexId;
use crate::store::{PathId, PathStore};
use rand::Rng;

/// An immutable, flattened snapshot of per-pair path distributions (see
/// the module docs).
///
/// # Examples
///
/// ```
/// use ssor_graph::{Distributions, Graph, Path, RouteTable};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let direct = Path::from_vertices(&g, &[0, 2]).unwrap();
/// let detour = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
/// let mut d = Distributions::new();
/// d.push(&direct, 0.75);
/// d.push(&detour, 0.25);
/// d.commit(0, 2);
/// let table = RouteTable::freeze(3, 1, d);
/// assert_eq!(table.generation(), 1);
/// assert_eq!(table.pair_count(), 1);
/// // u = 0.5 lands in the first (mass-0.75) path's CDF interval.
/// let id = table.sample_with(0, 2, 0.5).unwrap();
/// assert_eq!(table.store().materialize(id), direct);
/// assert!(table.sample_with(1, 2, 0.5).is_none(), "pair not in table");
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    generation: u64,
    store: PathStore,
    /// CSR over sources: pairs with source `s` occupy pair indices
    /// `src_offsets[s]..src_offsets[s + 1]` in `targets` / `ranges`.
    src_offsets: Vec<u32>,
    /// Target of each pair, ascending within one source's range.
    targets: Vec<VertexId>,
    /// Per pair: `(start, len)` into `path_ids` / `cdf`.
    ranges: Vec<(u32, u32)>,
    /// Flat per-pair path ids, concatenated in pair order.
    path_ids: Vec<PathId>,
    /// Flat per-pair cumulative normalized weights, aligned with
    /// `path_ids`; each pair's final entry is its total (≈ 1).
    cdf: Vec<f64>,
}

impl RouteTable {
    /// Freezes the committed pairs of `dists` into a table for an
    /// `n`-vertex graph stamped with `generation`, keeping its arena.
    /// Each pair's CDF is the left-to-right prefix sum of its
    /// (normalized) weights.
    ///
    /// # Panics
    ///
    /// Panics if a pair has `s == t` or a vertex outside `0..n`.
    pub fn freeze(n: usize, generation: u64, dists: Distributions) -> RouteTable {
        let mut src_offsets = vec![0u32; n + 1];
        let mut targets = Vec::with_capacity(dists.len());
        let mut ranges = Vec::with_capacity(dists.len());
        let mut path_ids = Vec::new();
        let mut cdf = Vec::new();
        for ((s, t), run) in dists.iter() {
            assert_ne!(s, t, "pairs have distinct endpoints");
            assert!((s as usize) < n && (t as usize) < n, "vertex out of range");
            let start = path_ids.len() as u32;
            let mut acc = 0.0f64;
            for &(id, w) in run {
                acc += w;
                path_ids.push(id);
                cdf.push(acc);
            }
            targets.push(t);
            ranges.push((start, run.len() as u32));
            src_offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            src_offsets[i + 1] += src_offsets[i];
        }
        RouteTable {
            n,
            generation,
            store: dists.store,
            src_offsets,
            targets,
            ranges,
            path_ids,
            cdf,
        }
    }

    /// The vertex count the table was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The generation counter stamped at build time. Query seeds derive
    /// from `(generation, request_id)`, so replies are replayable against
    /// any table of the same generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shared path arena ids refer into.
    pub fn store(&self) -> &PathStore {
        &self.store
    }

    /// Number of pairs with a distribution.
    pub fn pair_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total path references across all pairs (one CDF entry each).
    pub fn total_path_refs(&self) -> usize {
        self.path_ids.len()
    }

    /// Heap bytes of the per-pair serving state: the CSR pair index
    /// (source offsets, targets, id ranges) plus each pair's path ids and
    /// CDF entries. The path arena is not counted; it is shared by every
    /// pair and reported by [`store`](Self::store).
    pub fn flat_bytes(&self) -> usize {
        use std::mem::size_of;
        self.src_offsets.len() * size_of::<u32>()
            + self.targets.len() * size_of::<VertexId>()
            + self.ranges.len() * size_of::<(u32, u32)>()
            + self.path_ids.len() * size_of::<PathId>()
            + self.cdf.len() * size_of::<f64>()
    }

    /// Heap bytes of the whole table: [`flat_bytes`](Self::flat_bytes)
    /// plus its arena's [`PathStore::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.flat_bytes() + self.store.heap_bytes()
    }

    /// The dense pair index of `(s, t)`, if the table has it: binary
    /// search over the source's target range. Infallible by
    /// construction — every access is a checked `.get` — because this
    /// sits under the serving plane's panic-freedom contract.
    fn pair_index(&self, s: VertexId, t: VertexId) -> Option<usize> {
        let s = s as usize;
        let lo = *self.src_offsets.get(s)? as usize;
        let hi = *self.src_offsets.get(s + 1)? as usize;
        let row = self.targets.get(lo..hi)?;
        row.binary_search(&t).ok().map(|i| lo + i)
    }

    /// The `(path_ids, cdf)` slices of `R(s, t)`; `None` when the pair
    /// is not in the table. The two slices are aligned and non-empty
    /// (the normalizer rejects empty distributions).
    fn pair_slices(&self, s: VertexId, t: VertexId) -> Option<(&[PathId], &[f64])> {
        let i = self.pair_index(s, t)?;
        let &(start, len) = self.ranges.get(i)?;
        let (start, end) = (start as usize, (start + len) as usize);
        Some((self.path_ids.get(start..end)?, self.cdf.get(start..end)?))
    }

    /// The path ids of `R(s, t)`, in distribution order; `None` when the
    /// pair is not in the table.
    pub fn path_ids(&self, s: VertexId, t: VertexId) -> Option<&[PathId]> {
        Some(self.pair_slices(s, t)?.0)
    }

    /// The cumulative normalized weights of `R(s, t)`, aligned with
    /// [`RouteTable::path_ids`].
    pub fn cdf(&self, s: VertexId, t: VertexId) -> Option<&[f64]> {
        Some(self.pair_slices(s, t)?.1)
    }

    /// Draws one path of `R(s, t)` from the uniform deviate `u ∈ [0, 1)`:
    /// the first index whose cumulative weight reaches `u * total` (see
    /// the module docs for the exact pinned arithmetic). `None` when the
    /// pair is not in the table.
    pub fn sample_with(&self, s: VertexId, t: VertexId, u: f64) -> Option<PathId> {
        let (ids, cdf) = self.pair_slices(s, t)?;
        sample_cdf(ids, cdf, u)
    }

    /// Draws `alpha` paths for `(s, t)` by consuming `alpha` deviates
    /// from `rng` in order (duplicates allowed — Definition 5.2 samples
    /// with replacement), appending them to `out`. Returns `false`
    /// without consuming the RNG or touching `out` when the pair is not
    /// in the table.
    ///
    /// This is the serving plane's entry: `out` is per-shard scratch
    /// with capacity reserved at batch setup, so the per-request path
    /// performs no allocation.
    pub fn sample_alpha_into<R: Rng + ?Sized>(
        &self,
        s: VertexId,
        t: VertexId,
        alpha: usize,
        rng: &mut R,
        out: &mut Vec<PathId>,
    ) -> bool {
        let Some((ids, cdf)) = self.pair_slices(s, t) else {
            return false;
        };
        for _ in 0..alpha {
            let u = rng.gen::<f64>();
            if let Some(id) = sample_cdf(ids, cdf, u) {
                // Appends into caller-reserved capacity; the reserve is
                // per-batch setup, not per-request work.
                out.push(id); // lint: allow(hot_alloc)
            }
        }
        true
    }
}

/// The pinned CDF draw over one pair's aligned slices: first index
/// whose cumulative weight reaches `u * total`, clamped to the last
/// path for deviates at/above the total (float rounding), mirroring
/// the subtractive scan's fallback arm. `None` only on empty slices,
/// which the normalizer never produces.
fn sample_cdf(ids: &[PathId], cdf: &[f64], u: f64) -> Option<PathId> {
    let total = *cdf.last()?;
    let x = u * total;
    let k = cdf.partition_point(|&c| c < x).min(cdf.len() - 1);
    ids.get(k).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Path;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One pair's raw `(path, weight)` entries.
    type RawPair<'a> = ((VertexId, VertexId), Vec<(&'a Path, f64)>);

    /// A 4-vertex table of the given per-pair raw distributions, each
    /// committed through the normalizer.
    fn table_of(pairs: &[RawPair<'_>]) -> RouteTable {
        let mut d = Distributions::new();
        for ((s, t), dist) in pairs {
            for &(p, w) in dist {
                d.push(p, w);
            }
            d.commit(*s, *t);
        }
        RouteTable::freeze(4, 1, d)
    }

    fn two_path_table() -> (RouteTable, Path, Path) {
        let g = generators::ring(4);
        let cw = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        let ccw = Path::from_vertices(&g, &[0, 3, 2]).unwrap();
        let table = table_of(&[((0, 2), vec![(&cw, 0.25), (&ccw, 0.75)])]);
        (table, cw, ccw)
    }

    #[test]
    fn cdf_intervals_match_normalized_weights() {
        let (table, cw, ccw) = two_path_table();
        let cdf = table.cdf(0, 2).unwrap();
        assert_eq!(cdf, &[0.25, 1.0]);
        let ids = table.path_ids(0, 2).unwrap();
        assert_eq!(table.store().materialize(ids[0]), cw);
        assert_eq!(table.store().materialize(ids[1]), ccw);
    }

    #[test]
    fn sample_with_selects_by_cdf_interval() {
        let (table, cw, ccw) = two_path_table();
        let at = |u: f64| {
            table
                .store()
                .materialize(table.sample_with(0, 2, u).unwrap())
        };
        assert_eq!(at(0.0), cw, "u = 0 takes the first path");
        assert_eq!(at(0.2), cw);
        // The boundary deviate selects the first entry whose cumulative
        // weight *reaches* it (>=), matching the subtractive scan's
        // `x - w <= 0` arm.
        assert_eq!(at(0.25), cw);
        assert_eq!(at(0.2500001), ccw);
        assert_eq!(at(0.9999), ccw);
        assert_eq!(at(1.0), ccw, "deviate at the total clamps to the last path");
    }

    #[test]
    fn zero_weight_entries_are_dropped_after_the_total() {
        let g = generators::ring(4);
        let cw = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        let ccw = Path::from_vertices(&g, &[0, 3, 2]).unwrap();
        let table = table_of(&[((0, 2), vec![(&cw, 0.5), (&ccw, 0.0)])]);
        assert_eq!(table.path_ids(0, 2).unwrap().len(), 1);
        assert_eq!(table.cdf(0, 2).unwrap(), &[1.0]);
    }

    #[test]
    fn pairs_share_the_arena() {
        let g = generators::ring(4);
        let shared = Path::from_vertices(&g, &[1, 2]).unwrap();
        let longer = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        // Committed out of pair order: the freeze indexes by (s, t).
        let table = table_of(&[
            ((1, 2), vec![(&shared, 1.0)]),
            ((0, 2), vec![(&longer, 1.0)]),
        ]);
        // Arena holds 2 distinct paths even though both pairs reference it.
        assert_eq!(table.store().len(), 2);
        assert_eq!(table.total_path_refs(), 2);
        assert!(table.flat_bytes() > 0);
        let first = table.path_ids(0, 2).and_then(|ids| ids.first());
        assert_eq!(first.map(|&id| table.store().materialize(id)), Some(longer));
    }

    #[test]
    fn flat_bytes_counts_the_index_and_cdfs_not_the_arena() {
        // One pair with one path: 5 source offsets (u32), 1 target (u32),
        // 1 range (2 x u32), 1 path id (u32) and 1 CDF entry (f64),
        // whether the path has one hop or three.
        let g = generators::ring(4);
        let walks: [&[VertexId]; 2] = [&[0, 1], &[0, 3, 2, 1]];
        let bytes: Vec<usize> = walks
            .iter()
            .filter_map(|vs| Path::from_vertices(&g, vs))
            .map(|p| table_of(&[((0, 1), vec![(&p, 1.0)])]).flat_bytes())
            .collect();
        let one = 5 * 4 + 4 + 8 + 4 + 8;
        assert_eq!(bytes, vec![one, one], "the arena is not counted");
        // A second path on the pair adds one id and one CDF entry.
        let (two, _, _) = two_path_table();
        assert_eq!(two.flat_bytes(), one + 4 + 8);
    }

    #[test]
    fn heap_bytes_adds_the_arena_to_the_flat_state() {
        let (table, _, _) = two_path_table();
        // Flat: 5 source offsets, 1 target, 1 range (8 B), 2 path ids and
        // 2 CDF entries (8 B). Arena: 6 vertex and 4 edge ids, 2 spans
        // (12 B), 2 hashes (8 B) and 16 dedup slots.
        let flat = 5 * 4 + 4 + 8 + 2 * 4 + 2 * 8;
        let arena = 6 * 4 + 4 * 4 + 2 * 12 + 2 * 8 + 16 * 4;
        assert_eq!(table.flat_bytes(), flat);
        assert_eq!(table.heap_bytes(), flat + arena);
    }

    #[test]
    fn missing_pairs_and_sources_return_none() {
        let (table, _, _) = two_path_table();
        assert!(table.path_ids(0, 1).is_none());
        assert!(table.cdf(2, 0).is_none());
        assert!(table.sample_with(3, 1, 0.5).is_none());
        let mut out = Vec::new();
        assert!(!table.sample_alpha_into(1, 0, 3, &mut StdRng::seed_from_u64(0), &mut out));
    }

    #[test]
    fn sample_alpha_consumes_one_deviate_per_draw() {
        let (table, _, _) = two_path_table();
        let mut rng = StdRng::seed_from_u64(9);
        let mut draws = Vec::new();
        assert!(table.sample_alpha_into(0, 2, 4, &mut rng, &mut draws));
        // Replay the identical stream by hand.
        let mut replay = StdRng::seed_from_u64(9);
        let by_hand: Vec<PathId> = (0..4)
            .map(|_| table.sample_with(0, 2, replay.gen::<f64>()).unwrap())
            .collect();
        assert_eq!(draws, by_hand);
    }

    #[test]
    fn sample_alpha_into_matches_sample_alpha_and_preserves_the_rng() {
        let (table, _, _) = two_path_table();
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = Vec::with_capacity(8);
        // A missing pair neither consumes deviates nor touches `out`.
        assert!(!table.sample_alpha_into(1, 3, 4, &mut rng, &mut out));
        assert!(out.is_empty());
        assert!(table.sample_alpha_into(0, 2, 4, &mut rng, &mut out));
        assert_eq!(out.len(), 4);
        let mut expected = Vec::new();
        table.sample_alpha_into(0, 2, 4, &mut StdRng::seed_from_u64(11), &mut expected);
        assert_eq!(out, expected, "the failed lookup left the stream intact");
    }

    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn negative_weights_are_rejected() {
        let g = generators::ring(4);
        let p = Path::from_vertices(&g, &[0, 1]).unwrap();
        table_of(&[((0, 1), vec![(&p, -0.5)])]);
    }
}
