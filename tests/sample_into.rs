//! The batched per-pair draw against the per-draw loop it replaces.
//!
//! Definition 5.2 makes `P(s, t)` the *set* of `α` draws from `R(s, t)`.
//! [`ObliviousRouting::sample_into`] (and [`PathSystem::insert_draws`]
//! over it) makes a pair's draws in one call and interns each distinct
//! draw once. It must be indistinguishable from `draws` calls of
//! `sample_path`, each passed through [`PathSystem::insert`]: the same
//! ids in the same order, the same arena, and the same RNG state
//! afterwards.
//!
//! The Räcke override is checked on random connected graphs, both on an
//! FRT ensemble of more than 64 trees and on a multiplicative-weights
//! mixture; the provided default on Valiant and KSP. Pair lists repeat
//! pairs and vary the draw count per pair, so draws also dedup against
//! paths a pair already holds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use ssor::core::sample::all_pairs;
use ssor::core::PathSystem;
use ssor::graph::{generators, PathId, PathStore, VertexId};
use ssor::oblivious::{KspRouting, ObliviousRouting, RaeckeOptions, RaeckeRouting, ValiantRouting};

/// `(pair, draw count)` jobs: every ordered pair once with `draws`, then
/// the first few again with a different count.
fn jobs(n: usize, draws: usize) -> Vec<((VertexId, VertexId), usize)> {
    let pairs = all_pairs(n);
    let again = pairs.iter().take(5).map(|&p| (p, draws % 3 + 1));
    pairs.iter().map(|&p| (p, draws)).chain(again).collect()
}

/// The reference: one `sample_path` + `insert` per draw.
fn per_draw(
    template: &dyn ObliviousRouting,
    jobs: &[((VertexId, VertexId), usize)],
    seed: u64,
) -> (PathSystem, StdRng) {
    let mut ps = PathSystem::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for &((s, t), draws) in jobs {
        for _ in 0..draws {
            ps.insert(template.sample_path(s, t, &mut rng));
        }
    }
    (ps, rng)
}

/// The batched draw: one `insert_draws` per job.
fn batched(
    template: &dyn ObliviousRouting,
    jobs: &[((VertexId, VertexId), usize)],
    seed: u64,
) -> (PathSystem, StdRng) {
    let mut ps = PathSystem::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for &((s, t), draws) in jobs {
        ps.insert_draws(template, s, t, draws, &mut rng);
    }
    (ps, rng)
}

/// Whether two arenas hold the same paths under the same ids.
fn same_arena(a: &PathStore, b: &PathStore) -> bool {
    a.len() == b.len()
        && a.ids()
            .zip(b.ids())
            .all(|(x, y)| x == y && a.vertices(x) == b.vertices(y) && a.edges(x) == b.edges(y))
}

/// The equivalence, checked twice: through `PathSystem::insert_draws`,
/// and through a bare `sample_into` on one shared arena and id list per
/// pair, which must equal interning each `sample_path` draw and keeping
/// the ids not yet listed.
fn check_equivalent(
    name: &str,
    template: &dyn ObliviousRouting,
    jobs: &[((VertexId, VertexId), usize)],
    seed: u64,
) -> Result<(), TestCaseError> {
    let (want, mut want_rng) = per_draw(template, jobs, seed);
    let (got, mut got_rng) = batched(template, jobs, seed);
    prop_assert!(
        same_arena(want.store(), got.store()),
        "{}: arenas differ ({} vs {} paths)",
        name,
        want.store().len(),
        got.store().len()
    );
    prop_assert_eq!(want.len(), got.len(), "{}: pair count", name);
    for &((s, t), _) in jobs {
        prop_assert_eq!(
            want.path_ids(s, t),
            got.path_ids(s, t),
            "{}: ids of ({}, {})",
            name,
            s,
            t
        );
    }
    prop_assert_eq!(
        want_rng.next_u64(),
        got_rng.next_u64(),
        "{}: RNG state",
        name
    );

    let (mut want_store, mut got_store) = (PathStore::new(), PathStore::new());
    let mut want_rng = StdRng::seed_from_u64(seed);
    let mut got_rng = StdRng::seed_from_u64(seed);
    for &((s, t), draws) in jobs {
        let mut want_ids: Vec<PathId> = vec![];
        for _ in 0..draws {
            let id = want_store.intern(&template.sample_path(s, t, &mut want_rng));
            if !want_ids.contains(&id) {
                want_ids.push(id);
            }
        }
        let mut got_ids = vec![];
        template.sample_into(s, t, draws, &mut got_rng, &mut got_store, &mut got_ids);
        prop_assert_eq!(
            &want_ids,
            &got_ids,
            "{}: sample_into ids of ({}, {})",
            name,
            s,
            t
        );
    }
    prop_assert!(
        same_arena(&want_store, &got_store),
        "{}: sample_into arenas differ",
        name
    );
    prop_assert_eq!(
        want_rng.next_u64(),
        got_rng.next_u64(),
        "{}: sample_into RNG state",
        name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tree mixtures take the override: an FRT ensemble wider than 64
    /// trees (no cap on the distinct-tree bookkeeping) and a
    /// multiplicative-weights build.
    #[test]
    fn tree_mixtures_draw_like_sample_path(
        n in 4usize..11,
        p in 0.2f64..0.7,
        trees in 65usize..81,
        draws in 1usize..13,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
        let jobs = jobs(n, draws);
        let frt = RaeckeRouting::frt_ensemble(&g, trees, seed);
        check_equivalent("frt ensemble", &frt, &jobs, seed)?;
        let opts = RaeckeOptions { iterations: 6, epsilon: 0.5 };
        let raecke = RaeckeRouting::build(&g, &opts, &mut StdRng::seed_from_u64(seed ^ 1));
        check_equivalent("raecke", &raecke, &jobs, seed)?;
    }

    /// Templates without an override take the provided per-draw default.
    #[test]
    fn default_draw_is_the_sample_path_loop(
        dim in 2u32..5,
        k in 1usize..5,
        draws in 1usize..9,
        seed in any::<u64>(),
    ) {
        let valiant = ValiantRouting::new(dim);
        let n = valiant.graph().n();
        check_equivalent("valiant", &valiant, &jobs(n, draws), seed)?;
        let ksp = KspRouting::new(valiant.graph(), k);
        check_equivalent("ksp", &ksp, &jobs(n, draws), seed)?;
    }
}
