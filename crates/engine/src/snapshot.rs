//! Serving snapshots: flattening a template into an immutable
//! [`RouteTable`].
//!
//! The query plane (`ssor-serve`) never touches a template object — it
//! reads a [`RouteTable`]: every pair's path distribution flattened into
//! contiguous buffers (one shared [`PathStore`](ssor_graph::PathStore)
//! arena, per-pair `PathId` ranges, precomputed sampling CDFs). This
//! module is the bridge from the engine's stage-2 output to that
//! snapshot: [`route_table_from_template`] has the template write every
//! requested pair into [`Distributions`] sinks via
//! [`ObliviousRouting::write_distribution`] — rayon-parallel across
//! fixed pair blocks, bit-identical at any thread count — and freezes
//! the merged sink with [`RouteTable::freeze`].

use ssor_core::sample::all_pairs;
use ssor_graph::{par_ordered_map, Distributions, RouteTable, VertexId};
use ssor_oblivious::ObliviousRouting;

/// Pairs per sink: fixed, so no sink depends on the worker count (a
/// single block stays serial — wall-clock only).
const SNAPSHOT_BLOCK: usize = 32;

/// Blocks filled in parallel before their sinks merge.
const SNAPSHOT_WAVE: usize = 16;

/// Flattens `template`'s per-pair path distributions into a
/// [`RouteTable`] snapshot stamped with `generation`.
///
/// Each block of `pairs` commits its pairs into its own sink; the sinks
/// merge in block order into one arena, so the table — arena layout,
/// CDFs, all of it — is a deterministic function of `(template, pairs,
/// generation)` at any thread count (arena ids follow pair order for
/// sorted pairs, as [`all_pairs`] produces).
///
/// # Panics
///
/// Panics if a pair has `s == t`, or if some distribution is
/// empty/non-finite (the normalizer validates every weight).
///
/// # Examples
///
/// ```
/// use ssor_engine::route_table_from_template;
/// use ssor_core::sample::all_pairs;
/// use ssor_oblivious::ValiantRouting;
///
/// let r = ValiantRouting::new(3);
/// let table = route_table_from_template(&r, &all_pairs(8), 7);
/// assert_eq!(table.generation(), 7);
/// assert_eq!(table.pair_count(), 56);
/// ```
pub fn route_table_from_template<O: ObliviousRouting + Sync + ?Sized>(
    template: &O,
    pairs: &[(VertexId, VertexId)],
    generation: u64,
) -> RouteTable {
    let blocks: Vec<&[(VertexId, VertexId)]> = pairs.chunks(SNAPSHOT_BLOCK).collect();
    let mut all = Distributions::new();
    // Merging wave by wave keeps at most one wave of sinks alive next to
    // the merged arena, which bounds the flatten's peak memory.
    for wave in blocks.chunks(SNAPSHOT_WAVE) {
        let sinks = par_ordered_map(wave, 2, |block| {
            let mut sink = Distributions::new();
            for &(s, t) in *block {
                template.write_distribution(s, t, &mut sink);
                sink.commit(s, t);
            }
            sink
        });
        for sink in sinks {
            all.extend_from(&sink);
        }
    }
    RouteTable::freeze(template.graph().n(), generation, all)
}

/// [`route_table_from_template`] over every ordered pair `s != t` — the
/// all-pairs snapshot a serving front-end answers arbitrary queries from.
pub fn route_table_all_pairs<O: ObliviousRouting + Sync + ?Sized>(
    template: &O,
    generation: u64,
) -> RouteTable {
    route_table_from_template(template, &all_pairs(template.graph().n()), generation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{TemplateSpec, TopologySpec};
    use crate::{PathSystemCache, Pipeline};
    use ssor_oblivious::ValiantRouting;

    #[test]
    fn flattening_preserves_every_distribution() {
        let r = ValiantRouting::new(3);
        let table = route_table_all_pairs(&r, 1);
        assert_eq!(table.n(), 8);
        assert_eq!(table.pair_count(), 56);
        for &(s, t) in &all_pairs(8) {
            let dist = r.path_distribution(s, t);
            let ids = table.path_ids(s, t).expect("pair present");
            assert_eq!(ids.len(), dist.len());
            let cdf = table.cdf(s, t).unwrap();
            // path_distribution sums to 1; the CDF ends within float dust
            // of it and is non-decreasing.
            let last = *cdf.last().unwrap();
            assert!((last - 1.0).abs() < 1e-9, "cdf ends at {last}");
            assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
            // Each flattened entry is the same path, via the arena.
            for (id, (p, _)) in ids.iter().zip(dist.iter()) {
                assert_eq!(&table.store().materialize(*id), p);
            }
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        let cache = PathSystemCache::new();
        let t = cache.template(
            &TopologySpec::Grid { rows: 3, cols: 3 },
            &TemplateSpec::FrtEnsemble { trees: 4 },
            3,
        );
        let a = route_table_all_pairs(t.as_ref(), 5);
        let b = route_table_all_pairs(t.as_ref(), 5);
        assert_eq!(a.generation(), b.generation());
        assert_eq!(a.total_path_refs(), b.total_path_refs());
        for &(s, t) in &all_pairs(9) {
            assert_eq!(a.path_ids(s, t), b.path_ids(s, t));
            assert_eq!(a.cdf(s, t), b.cdf(s, t));
        }
    }

    #[test]
    fn prepared_pipeline_exports_a_route_table() {
        let cache = PathSystemCache::new();
        let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
            .template(TemplateSpec::Valiant)
            .alpha(2)
            .prepare(&cache);
        let table = p.route_table(9).expect("congestion objective");
        assert_eq!(table.generation(), 9);
        assert_eq!(table.pair_count(), 56);
        assert!(table.flat_bytes() > 0);
    }
}
