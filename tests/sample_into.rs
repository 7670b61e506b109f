//! The batched per-pair draw against the per-draw loop it replaces.
//!
//! Definition 5.2 makes `P(s, t)` the *set* of `α` draws from `R(s, t)`.
//! [`ObliviousRouting::sample_into`] (and [`PathSystem::insert_draws`]
//! over it) makes a pair's draws in one call and interns each distinct
//! draw once. It must be indistinguishable from `draws` reference draws,
//! each passed through [`PathSystem::insert`]: the same ids in the same
//! order, the same arena, and the same RNG state afterwards.
//!
//! The reference is the template's own `sample_path`, except for
//! Valiant and ECMP, whose `sample_path` shares its walk with the
//! override. For Valiant it is the plain construction, greedy
//! bit-fixing vertex lists joined, mapped to edges by
//! [`Path::from_vertices`] and shortcut, and Valiant's exact
//! distribution and deterministic bit-fixing are checked too. For ECMP
//! it is the per-draw walk written out here: BFS distances and path
//! counts from `s` recomputed on every draw, then the predecessor walk
//! back from `t`. `sample_path` is checked against both references. The
//! overrides are checked on random connected graphs (an FRT ensemble of
//! more than 64 trees, a multiplicative-weights mixture, KSP, ECMP) and
//! on hypercubes up to `n = 128` (Valiant); the provided default on the
//! random-walk template. Pair lists repeat pairs and vary the draw count
//! per pair, so draws also dedup against paths a pair already holds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ssor::core::sample::all_pairs;
use ssor::core::PathSystem;
use ssor::graph::shortest_path::bfs_tree;
use ssor::graph::{generators, Distributions, EdgeId, Graph, Path, PathId, PathStore, VertexId};
use ssor::oblivious::{
    BitFixingRouting, EcmpRouting, KspRouting, ObliviousRouting, RaeckeOptions, RaeckeRouting,
    RandomWalkRouting, ValiantRouting,
};

/// One reference draw from `R(s, t)`.
type Draw<'a> = &'a dyn Fn(VertexId, VertexId, &mut dyn RngCore) -> Path;

/// Pairs per job list: beyond it (hypercubes past `n = 32`) the ordered
/// pairs are thinned to an even stride, which still reaches every source
/// region and the largest vertex ids.
const MAX_PAIRS: usize = 1024;

/// `(pair, draw count)` jobs: the ordered pairs (thinned to at most
/// about [`MAX_PAIRS`]) once with `draws`, then the first few again with
/// a different count.
fn jobs(n: usize, draws: usize) -> Vec<((VertexId, VertexId), usize)> {
    let pairs = all_pairs(n);
    let stride = pairs.len().div_ceil(MAX_PAIRS);
    let again = pairs.iter().take(5).map(|&p| (p, draws % 3 + 1));
    pairs
        .iter()
        .step_by(stride)
        .map(|&p| (p, draws))
        .chain(again)
        .collect()
}

/// The per-draw loop: one `draw` + `insert` per draw.
fn per_draw(
    draw: Draw<'_>,
    jobs: &[((VertexId, VertexId), usize)],
    seed: u64,
) -> (PathSystem, StdRng) {
    let mut ps = PathSystem::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for &((s, t), draws) in jobs {
        for _ in 0..draws {
            ps.insert(draw(s, t, &mut rng));
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
        ps.insert_draws(s, t, |store, ids| {
            template.sample_into(s, t, draws, &mut rng, store, ids);
        });
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

/// Whether two path systems agree id for id, arena included, on the
/// pairs of `jobs`.
fn same_system(
    name: &str,
    want: &PathSystem,
    got: &PathSystem,
    jobs: &[((VertexId, VertexId), usize)],
) -> Result<(), TestCaseError> {
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
    Ok(())
}

/// The equivalence with `reference` draws, checked three times: the
/// template's own `sample_path` loop, `PathSystem::insert_draws`, and a
/// bare `sample_into` on one shared arena and id list per pair, which
/// must equal interning each reference draw and keeping the ids not yet
/// listed.
fn check_against(
    name: &str,
    template: &dyn ObliviousRouting,
    reference: Draw<'_>,
    jobs: &[((VertexId, VertexId), usize)],
    seed: u64,
) -> Result<(), TestCaseError> {
    let (want, mut want_rng) = per_draw(reference, jobs, seed);
    let own: Draw<'_> = &|s, t, rng| template.sample_path(s, t, rng);
    let (looped, mut looped_rng) = per_draw(own, jobs, seed);
    same_system(&format!("{name} sample_path"), &want, &looped, jobs)?;
    let (got, mut got_rng) = batched(template, jobs, seed);
    same_system(name, &want, &got, jobs)?;
    let want_next = want_rng.next_u64();
    prop_assert_eq!(
        want_next,
        looped_rng.next_u64(),
        "{}: sample_path RNG state",
        name
    );
    prop_assert_eq!(want_next, got_rng.next_u64(), "{}: RNG state", name);

    let (mut want_store, mut got_store) = (PathStore::new(), PathStore::new());
    let mut want_rng = StdRng::seed_from_u64(seed);
    let mut got_rng = StdRng::seed_from_u64(seed);
    for &((s, t), draws) in jobs {
        let mut want_ids: Vec<PathId> = vec![];
        for _ in 0..draws {
            let id = want_store.intern(&reference(s, t, &mut want_rng));
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

/// [`check_against`] the template's own `sample_path`.
fn check_equivalent(
    name: &str,
    template: &dyn ObliviousRouting,
    jobs: &[((VertexId, VertexId), usize)],
    seed: u64,
) -> Result<(), TestCaseError> {
    check_against(
        name,
        template,
        &|s, t, rng| template.sample_path(s, t, rng),
        jobs,
        seed,
    )
}

/// Greedy bit-fixing from `s` to `t`, ascending bit order.
fn bit_fix_vertices(s: VertexId, t: VertexId, dim: u32) -> Vec<VertexId> {
    let mut verts = vec![s];
    let mut cur = s;
    for b in 0..dim {
        if (cur ^ t) & (1 << b) != 0 {
            cur ^= 1 << b;
            verts.push(cur);
        }
    }
    verts
}

/// The plain Valiant path through `w`: both bit-fixing legs joined,
/// mapped to lowest-id edges, then shortcut.
fn valiant_via(g: &Graph, dim: u32, s: VertexId, t: VertexId, w: VertexId) -> Path {
    let mut verts = bit_fix_vertices(s, w, dim);
    verts.extend_from_slice(&bit_fix_vertices(w, t, dim)[1..]);
    Path::from_vertices(g, &verts)
        .expect("bit-fixing steps are hypercube edges")
        .shortcut()
}

/// One ECMP draw the plain way: BFS distances and the number of
/// shortest paths from `s` to every vertex (saturating), then a walk
/// back from `t` that picks each shortest-path predecessor `p` with
/// probability `count(p) / total`, one `gen::<f64>()` per hop, the last
/// predecessor taking any rounding remainder.
fn ecmp_reference(g: &Graph, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
    let dist = bfs_tree(g, s).dist;
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by(|&a, &b| dist[a as usize].total_cmp(&dist[b as usize]));
    let mut count = vec![0u128; g.n()];
    count[s as usize] = 1;
    for &v in &order {
        for a in g.neighbors(v) {
            if dist[a.to as usize] == dist[v as usize] + 1.0 {
                count[a.to as usize] = count[a.to as usize].saturating_add(count[v as usize]);
            }
        }
    }
    let mut edges: Vec<EdgeId> = vec![];
    let mut cur = t;
    while cur != s {
        let preds: Vec<(VertexId, EdgeId)> = g
            .neighbors(cur)
            .iter()
            .filter(|a| dist[a.to as usize] + 1.0 == dist[cur as usize])
            .map(|a| (a.to, a.edge))
            .collect();
        let total: u128 = preds.iter().map(|&(p, _)| count[p as usize]).sum();
        let mut x = (rng.gen::<f64>() * total as f64) as u128;
        let mut pick = preds[preds.len() - 1];
        for &(p, e) in &preds {
            if x < count[p as usize] {
                pick = (p, e);
                break;
            }
            x -= count[p as usize];
        }
        edges.push(pick.1);
        cur = pick.0;
    }
    edges.reverse();
    Path::from_edges(g, s, &edges).expect("a walk down the shortest-path DAG")
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

    /// KSP's override runs Yen once per pair, not once per draw.
    #[test]
    fn ksp_draws_like_sample_path(
        n in 4usize..11,
        p in 0.2f64..0.7,
        k in 1usize..5,
        draws in 1usize..13,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
        let ksp = KspRouting::new(&g, k);
        check_equivalent("ksp", &ksp, &jobs(n, draws), seed)?;
    }

    /// Valiant's streamed draws, `sample_path` included, against the
    /// plain construction, up to `n = 128`.
    #[test]
    fn valiant_draws_match_the_bit_fixing_reference(
        dim in 1u32..8,
        draws in 1usize..13,
        seed in any::<u64>(),
    ) {
        let valiant = ValiantRouting::new(dim);
        let g = valiant.graph();
        let n = g.n();
        let reference: Draw<'_> = &|s, t, rng| {
            let w = rng.gen_range(0..n as VertexId);
            valiant_via(g, dim, s, t, w)
        };
        check_against("valiant", &valiant, reference, &jobs(n, draws), seed)?;
    }

    /// ECMP counts the shortest paths from `s` once per pair, not once
    /// per draw; its draws, `sample_path` included, match the plain
    /// per-draw walk. Multigraphs give vertices parallel predecessor
    /// edges.
    #[test]
    fn ecmp_draws_match_the_per_draw_walk(
        n in 4usize..11,
        p in 0.2f64..0.7,
        extra in 0usize..6,
        draws in 1usize..13,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::erdos_renyi(n, p, &mut rng);
        for _ in 0..extra {
            let (u, v) = g.endpoints(rng.gen_range(0..g.m()) as EdgeId);
            g.add_edge(u, v);
        }
        let ecmp = EcmpRouting::new(&g);
        let reference: Draw<'_> = &|s, t, rng| ecmp_reference(&g, s, t, rng);
        check_against("ecmp", &ecmp, reference, &jobs(n, draws), seed)?;
    }

    /// A randomized template without an override takes the provided
    /// per-draw default.
    #[test]
    fn default_draw_is_the_sample_path_loop(
        n in 4usize..11,
        p in 0.2f64..0.7,
        walks in 1usize..9,
        draws in 1usize..9,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
        let random_walk = RandomWalkRouting::new(&g, walks, 4 * n, seed);
        check_equivalent("random walk", &random_walk, &jobs(n, draws), seed)?;
    }
}

/// Valiant's exact distribution is the reference enumeration bit for
/// bit: every intermediate in order at mass `1 / n`, identical paths
/// merged, on all pairs of the hypercubes up to `n = 32`.
#[test]
fn valiant_distribution_matches_the_reference_enumeration() {
    for dim in 1..=5u32 {
        let valiant = ValiantRouting::new(dim);
        let g = valiant.graph();
        let n = g.n();
        for (s, t) in all_pairs(n) {
            let mut want = Distributions::new();
            for w in 0..n as VertexId {
                want.push(&valiant_via(g, dim, s, t, w), 1.0 / n as f64);
            }
            want.merge_open();
            let want: Vec<(Path, u64)> = want
                .open()
                .iter()
                .map(|&(id, w)| (want.store().materialize(id), w.to_bits()))
                .collect();
            let got: Vec<(Path, u64)> = valiant
                .path_distribution(s, t)
                .into_iter()
                .map(|(p, w)| (p, w.to_bits()))
                .collect();
            assert_eq!(got, want, "Q{dim} ({s}, {t})");
        }
    }
}

/// Deterministic bit-fixing, Valiant's walk through `w = s`, is the
/// plain ascending-bit path with its one-path distribution, on all pairs
/// of the hypercubes up to `n = 32`.
#[test]
fn bit_fixing_is_the_reference_path() {
    for dim in 1..=5u32 {
        let bit_fixing = BitFixingRouting::new(dim);
        let g = bit_fixing.graph();
        for (s, t) in all_pairs(g.n()) {
            let want = Path::from_vertices(g, &bit_fix_vertices(s, t, dim))
                .expect("bit-fixing steps are hypercube edges");
            assert_eq!(bit_fixing.path(s, t), want, "Q{dim} ({s}, {t})");
            assert_eq!(
                bit_fixing.path_distribution(s, t),
                vec![(want, 1.0)],
                "Q{dim} ({s}, {t})"
            );
        }
    }
}
