//! Dense per-edge load accumulation — the one representation every layer
//! shares for "accumulate load on an edge".
//!
//! Congestion in the paper is always a per-[`EdgeId`] quantity over a fixed
//! graph, so the natural accumulator is a dense `Vec<f64>` indexed by edge
//! id, not a hash map keyed on edge ids: edge ids are dense `0..m` by
//! construction, a dense array accumulates with one add and no hashing,
//! and `max` (the congestion functional) is a linear scan. [`EdgeLoads`]
//! is that array with the accumulation vocabulary the pipeline needs —
//! [`add_path`](EdgeLoads::add_path) against a [`PathStore`],
//! [`merge`](EdgeLoads::merge) for combining partial accumulations, and
//! [`par_merge`](EdgeLoads::par_merge) for reducing many rayon-produced
//! partials deterministically.

use crate::graph::{EdgeId, Graph};
use crate::store::{PathId, PathStore};
use rayon::prelude::*;

/// Per-edge fractional load, dense over `0..m`.
///
/// # Examples
///
/// ```
/// use ssor_graph::{EdgeLoads, Graph, Path, PathStore};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let mut store = PathStore::new();
/// let long = store.intern(&Path::from_vertices(&g, &[0, 1, 2]).unwrap());
/// let short = store.intern(&Path::from_vertices(&g, &[0, 2]).unwrap());
///
/// let mut loads = EdgeLoads::for_graph(&g);
/// loads.add_path(&store, long, 0.25);
/// loads.add_path(&store, short, 0.75);
/// assert_eq!(loads.get(2), 0.75);
/// assert_eq!(loads.max(), 0.75);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeLoads {
    load: Vec<f64>,
}

impl EdgeLoads {
    /// All-zero loads over `m` edges.
    pub fn zeros(m: usize) -> Self {
        EdgeLoads { load: vec![0.0; m] }
    }

    /// All-zero loads sized for `g`.
    pub fn for_graph(g: &Graph) -> Self {
        EdgeLoads::zeros(g.m())
    }

    /// Number of edges tracked.
    pub fn len(&self) -> usize {
        self.load.len()
    }

    /// Whether no edges are tracked.
    pub fn is_empty(&self) -> bool {
        self.load.is_empty()
    }

    /// The load on edge `e`.
    pub fn get(&self, e: EdgeId) -> f64 {
        // A solver accumulator must not silently swallow an out-of-range
        // edge id — masking it with a default would corrupt congestion
        // totals; the contract taint from same-named serving-plane
        // lookups is a name collision, not a real call.
        self.load[e as usize] // lint: allow(hot_panic)
    }

    /// The dense load slice, indexed by edge id.
    pub fn as_slice(&self) -> &[f64] {
        &self.load
    }

    /// Mutable access to the dense load slice (for in-place updates like
    /// the solver's line-search interpolation).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.load
    }

    /// Iterator over loads in edge-id order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.load.iter().copied()
    }

    /// Adds `w` to edge `e`.
    pub fn add(&mut self, e: EdgeId, w: f64) {
        self.load[e as usize] += w;
    }

    /// Adds `w` to every edge in `edges` (with multiplicity).
    pub fn add_edges(&mut self, edges: &[EdgeId], w: f64) {
        for &e in edges {
            self.load[e as usize] += w;
        }
    }

    /// Adds `w` units of flow along the interned path `id`.
    ///
    /// Debug builds reject a non-finite `w` at the call site: a NaN or
    /// ∞ weight entering the accumulator would otherwise only surface
    /// when a report or congestion max looks wrong, three layers away
    /// from whichever solver or sampler produced it.
    pub fn add_path(&mut self, store: &PathStore, id: PathId, w: f64) {
        debug_assert!(
            w.is_finite(),
            "non-finite path weight {w} entering EdgeLoads (path {id:?})"
        );
        self.add_edges(store.edges(id), w);
    }

    /// Element-wise accumulation of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators track different edge counts.
    pub fn merge(&mut self, other: &EdgeLoads) {
        assert_eq!(self.load.len(), other.load.len(), "edge count mismatch");
        // Sentinel (debug builds): merging a poisoned partial poisons
        // every downstream congestion number — catch it at the merge.
        debug_assert!(
            other.load.iter().all(|x| x.is_finite()),
            "non-finite load entering EdgeLoads::merge"
        );
        for (a, b) in self.load.iter_mut().zip(other.load.iter()) {
            *a += b;
        }
    }

    /// Resets every load to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.load.fill(0.0);
    }

    /// Maximum load — the congestion functional `max_e load(e)` (0 for an
    /// edgeless accumulator).
    pub fn max(&self) -> f64 {
        let max = self.load.iter().copied().fold(0.0, f64::max);
        // Sentinel (debug builds): the congestion functional is the
        // quantity every report serializes — it must never be NaN/∞.
        // (`f64::max` would silently *hide* a NaN accumulator entry, so
        // check the fold result, where ∞ still shows.)
        debug_assert!(
            max.is_finite(),
            "non-finite congestion {max} out of EdgeLoads::max"
        );
        max
    }

    /// Sum of all loads (total flow × path length mass).
    pub fn total(&self) -> f64 {
        self.load.iter().sum()
    }

    /// Reduces many partial accumulators into one, fanning edge-index
    /// chunks out over rayon workers.
    ///
    /// The per-edge summation order is always `parts[0], parts[1], ...`
    /// regardless of chunking or thread count, so the result is
    /// bit-for-bit identical to folding [`EdgeLoads::merge`] sequentially
    /// — the determinism the engine's thread-count-invariance guarantee
    /// rests on.
    ///
    /// # Panics
    ///
    /// Panics if the parts track different edge counts.
    pub fn par_merge(parts: &[EdgeLoads]) -> EdgeLoads {
        let Some(first) = parts.first() else {
            return EdgeLoads::zeros(0);
        };
        let m = first.len();
        for p in parts {
            assert_eq!(p.len(), m, "edge count mismatch");
        }
        // Below this much work the thread handoff costs more than the adds.
        const PAR_THRESHOLD: usize = 1 << 15;
        let chunks = if m * parts.len() < PAR_THRESHOLD {
            1
        } else {
            rayon::current_num_threads().clamp(1, m.max(1))
        };
        let chunk_len = m.div_ceil(chunks.max(1)).max(1);
        let ranges: Vec<(usize, usize)> = (0..m)
            .step_by(chunk_len)
            .map(|lo| (lo, (lo + chunk_len).min(m)))
            .collect();
        let pieces: Vec<Vec<f64>> = ranges
            // Reviewed fan-out: this *is* one of the two ordered merge
            // primitives the par_collect rule points everyone at — the
            // chunks are disjoint edge ranges, reassembled in range order
            // below, so the reduction is thread-count-invariant by
            // construction. lint: allow(par_collect)
            .par_iter()
            .map(|&(lo, hi)| {
                let mut acc = vec![0.0f64; hi - lo];
                for p in parts {
                    for (a, b) in acc.iter_mut().zip(p.load[lo..hi].iter()) {
                        *a += b;
                    }
                }
                acc
            })
            .collect();
        let mut load = Vec::with_capacity(m);
        for piece in pieces {
            load.extend_from_slice(&piece);
        }
        EdgeLoads { load }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::path::Path;

    fn loads(load: Vec<f64>) -> EdgeLoads {
        EdgeLoads { load }
    }

    #[test]
    fn accumulate_and_max() {
        let g = generators::ring(4);
        let mut l = EdgeLoads::for_graph(&g);
        l.add(0, 0.5);
        l.add(0, 0.25);
        l.add(3, 1.0);
        assert_eq!(l.get(0), 0.75);
        assert_eq!(l.get(1), 0.0);
        assert_eq!(l.max(), 1.0);
        assert_eq!(l.total(), 1.75);
        l.clear();
        assert_eq!(l.max(), 0.0);
    }

    #[test]
    fn add_path_uses_every_edge() {
        let g = generators::ring(6);
        let mut store = PathStore::new();
        let id = store.intern(&Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        let mut l = EdgeLoads::for_graph(&g);
        l.add_path(&store, id, 2.0);
        assert_eq!(l.get(0), 2.0);
        assert_eq!(l.get(1), 2.0);
        assert_eq!(l.get(2), 2.0);
        assert_eq!(l.get(3), 0.0);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = loads(vec![1.0, 2.0]);
        let b = loads(vec![0.5, 0.5]);
        a.merge(&b);
        assert_eq!(a.as_slice(), &[1.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "edge count mismatch")]
    fn merge_rejects_size_mismatch() {
        let mut a = EdgeLoads::zeros(2);
        a.merge(&EdgeLoads::zeros(3));
    }

    #[test]
    fn par_merge_matches_sequential_fold() {
        // Large enough to cross the parallel threshold.
        let m = 20_000;
        let parts: Vec<EdgeLoads> = (0..5)
            .map(|k| {
                loads(
                    (0..m)
                        .map(|i| ((i * 7 + k * 13) % 97) as f64 * 0.125)
                        .collect(),
                )
            })
            .collect();
        let par = EdgeLoads::par_merge(&parts);
        let mut seq = EdgeLoads::zeros(m);
        for p in &parts {
            seq.merge(p);
        }
        assert_eq!(par, seq, "bit-for-bit identical reduction");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite path weight")]
    fn nan_weight_fails_at_add_path() {
        let g = generators::ring(4);
        let mut store = PathStore::new();
        let id = store.intern(&Path::from_vertices(&g, &[0, 1]).unwrap());
        let mut l = EdgeLoads::for_graph(&g);
        l.add_path(&store, id, f64::NAN);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite load entering EdgeLoads::merge")]
    fn poisoned_partial_fails_at_merge() {
        let mut a = EdgeLoads::zeros(2);
        a.merge(&loads(vec![1.0, f64::INFINITY]));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite congestion")]
    fn overflowed_accumulator_fails_at_max() {
        loads(vec![0.0, f64::INFINITY]).max();
    }

    #[test]
    fn par_merge_edge_cases() {
        assert_eq!(EdgeLoads::par_merge(&[]).len(), 0);
        let one = loads(vec![1.0, 2.0, 3.0]);
        assert_eq!(EdgeLoads::par_merge(std::slice::from_ref(&one)), one);
    }
}
