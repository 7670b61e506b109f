//! Stage 3, parallel: `α`-sampling across pairs with rayon.
//!
//! The paper's construction samples the `α` paths of every pair
//! **independently** (Definition 5.2), which makes the sampling stage
//! embarrassingly parallel. [`par_alpha_sample`] exploits that: each pair
//! draws from its own counter-derived RNG stream, so the result is a
//! deterministic function of `(template, pairs, alpha, seed)` — identical
//! on 1 thread or 64 — and pairs are distributed over worker threads in
//! blocks.
//!
//! A pair's `α` draws are one [`PathSystem::insert_draws`] call, the
//! draw loop [`ssor_core::sample`] shares: the template's
//! [`ObliviousRouting::sample_into`] interns each distinct draw straight
//! into the chunk's arena (a tree mixture walks each distinct tree once;
//! Valiant streams each draw's bit-fixing walk with no owned path; KSP
//! runs Yen once per pair) and consumes the pair's stream exactly as `α`
//! `sample_path` calls.
//!
//! The streams intentionally differ from the sequential
//! [`ssor_core::sample::alpha_sample`] (which threads one RNG through all
//! pairs and therefore cannot parallelize); both are valid Definition 5.2
//! samplers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use ssor_core::PathSystem;
use ssor_graph::VertexId;
use ssor_oblivious::ObliviousRouting;

// The workspace's shared SplitMix64 finalizer (also used by the
// failure-sweep runner to derive per-trial seeds).
pub(crate) use ssor_graph::generators::mix_seed as mix;

/// The RNG seed pair `(s, t)` uses under run seed `seed` at sparsity
/// `alpha` — public so callers can reproduce a single pair's draw in
/// isolation.
///
/// `alpha` enters the seed so that sweep points are *independent*
/// samples: without it, the `α` draws of one run would be a prefix of
/// the `α + 1` draws of the next, and any monotonicity-in-`α`
/// measurement would hold by construction instead of by experiment.
///
/// # Examples
///
/// ```
/// use ssor_engine::sampling::pair_seed;
/// assert_eq!(pair_seed(7, 4, 0, 1), pair_seed(7, 4, 0, 1));
/// assert_ne!(pair_seed(7, 4, 0, 1), pair_seed(7, 4, 1, 0));
/// assert_ne!(pair_seed(7, 4, 0, 1), pair_seed(8, 4, 0, 1));
/// assert_ne!(pair_seed(7, 4, 0, 1), pair_seed(7, 5, 0, 1));
/// ```
pub fn pair_seed(seed: u64, alpha: usize, s: VertexId, t: VertexId) -> u64 {
    mix(seed ^ mix(alpha as u64) ^ mix(((s as u64) << 32) | t as u64))
}

/// An `α`-sample of `template` on `pairs` (Definition 5.2), drawn in
/// parallel across pairs.
///
/// Every pair draws `alpha` paths with replacement from `R(s, t)` using
/// its own [`pair_seed`]-derived RNG; duplicates collapse, so
/// `|P(s, t)| <= α`. The output, down to its arena ids (every pair's
/// distinct draws in pair-list order), is independent of the thread
/// count.
///
/// # Panics
///
/// Panics if `alpha == 0` or some pair has `s == t`.
///
/// # Examples
///
/// ```
/// use ssor_core::sample::all_pairs;
/// use ssor_engine::sampling::par_alpha_sample;
/// use ssor_oblivious::ValiantRouting;
///
/// let r = ValiantRouting::new(3);
/// let ps = par_alpha_sample(&r, &all_pairs(8), 4, 42);
/// assert_eq!(ps.len(), 56);
/// assert!(ps.sparsity() <= 4);
/// // Deterministic per seed:
/// assert_eq!(ps, par_alpha_sample(&r, &all_pairs(8), 4, 42));
/// ```
pub fn par_alpha_sample<O: ObliviousRouting + Sync + ?Sized>(
    template: &O,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    seed: u64,
) -> PathSystem {
    assert!(alpha >= 1, "alpha must be positive");
    let workers = rayon::current_num_threads();
    // A few blocks per worker: big enough to amortize merge cost, small
    // enough that uneven per-pair costs still balance. One worker has
    // nothing to balance, so it samples one block and merges nothing.
    let blocks = match workers {
        1 => 1,
        _ => (workers * 4).clamp(1, pairs.len().max(1)),
    };
    let block_len = pairs.len().div_ceil(blocks);
    let chunks: Vec<&[(VertexId, VertexId)]> = pairs.chunks(block_len.max(1)).collect();
    let partials: Vec<PathSystem> = chunks
        // Reviewed fan-out (the "chunked partial merge" special case the
        // par.rs docs name): chunk sizes adapt to the worker count, but
        // every pair's α draws run on its own per-pair seeded stream
        // inside exactly one chunk, and the arena append below walks the
        // partials in chunk order — identical, id for id, at any thread
        // count. lint: allow(par_collect)
        .par_iter()
        .map(|chunk| {
            let mut ps = PathSystem::new();
            for &(s, t) in *chunk {
                assert_ne!(s, t, "pairs must have distinct endpoints");
                let mut rng = StdRng::seed_from_u64(pair_seed(seed, alpha, s, t));
                ps.insert_draws(s, t, |store, ids| {
                    template.sample_into(s, t, alpha, &mut rng, store, ids);
                });
            }
            ps
        })
        .collect();
    // Merge in chunk order by appending arenas: the first partial is the
    // base and each later path moves by its stored hash, never hashed
    // again. Each pair's draws happen inside exactly one chunk, so the
    // arena is every pair's distinct draws in pair-list order: id for id
    // what one serial pass over the pairs gives, at any thread count.
    let mut out = PathSystem::new();
    for p in partials {
        out.append(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_core::sample::all_pairs;
    use ssor_oblivious::{ObliviousRouting, ValiantRouting};

    #[test]
    fn covers_every_pair_with_valid_paths() {
        let r = ValiantRouting::new(4);
        let pairs = all_pairs(16);
        let ps = par_alpha_sample(&r, &pairs, 3, 1);
        assert_eq!(ps.len(), pairs.len());
        assert!(ps.sparsity() <= 3);
        assert!(ps.is_valid(r.graph()));
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_it() {
        let r = ValiantRouting::new(3);
        let pairs = all_pairs(8);
        let a = par_alpha_sample(&r, &pairs, 2, 5);
        let b = par_alpha_sample(&r, &pairs, 2, 5);
        let c = par_alpha_sample(&r, &pairs, 2, 6);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn independent_of_pair_order() {
        // Per-pair streams mean reordering the pair list cannot change
        // any pair's draw.
        let r = ValiantRouting::new(3);
        let mut pairs = all_pairs(8);
        let a = par_alpha_sample(&r, &pairs, 2, 9);
        pairs.reverse();
        let b = par_alpha_sample(&r, &pairs, 2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn arena_follows_the_pair_list_not_the_chunking() {
        // One serial pass inserting every pair's draws in list order is
        // the reference: the chunked sampler must give the same ids.
        let r = ValiantRouting::new(3);
        let mut pairs = all_pairs(8);
        for _ in 0..2 {
            let mut serial = PathSystem::new();
            for &(s, t) in &pairs {
                let mut rng = StdRng::seed_from_u64(pair_seed(4, 3, s, t));
                for _ in 0..3 {
                    serial.insert(r.sample_path(s, t, &mut rng));
                }
            }
            let sampled = par_alpha_sample(&r, &pairs, 3, 4);
            assert_eq!(sampled.store().len(), serial.store().len());
            for &(s, t) in &pairs {
                assert_eq!(sampled.path_ids(s, t), serial.path_ids(s, t));
            }
            pairs.reverse();
        }
    }

    #[test]
    fn paths_come_from_template_support() {
        let r = ValiantRouting::new(3);
        let ps = par_alpha_sample(&r, &[(0, 7)], 5, 3);
        let support: Vec<Vec<u32>> = r
            .path_distribution(0, 7)
            .into_iter()
            .map(|(p, _)| p.edges().to_vec())
            .collect();
        for p in ps.paths(0, 7).unwrap() {
            assert!(support.contains(&p.edges().to_vec()));
        }
    }

    #[test]
    fn alpha_sweep_points_are_independent_samples() {
        // The alpha=2 sample must NOT be a prefix/subset of the alpha=3
        // sample at the same seed; otherwise sweep monotonicity would be
        // tautological.
        let r = ValiantRouting::new(4);
        let pairs = all_pairs(16);
        let a2 = par_alpha_sample(&r, &pairs, 2, 11);
        let a3 = par_alpha_sample(&r, &pairs, 3, 11);
        let nested = pairs.iter().all(|&(s, t)| {
            let small = a2.paths(s, t).unwrap();
            let big: Vec<_> = a3
                .paths(s, t)
                .unwrap()
                .iter()
                .map(|p| p.edges().to_vec())
                .collect();
            small.iter().all(|p| big.contains(&p.edges().to_vec()))
        });
        assert!(!nested, "samples across alpha should not be nested");
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_zero_alpha() {
        let r = ValiantRouting::new(3);
        par_alpha_sample(&r, &[(0, 1)], 0, 0);
    }
}
