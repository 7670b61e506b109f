//! Property-based tests for demands, routings, and the min-congestion
//! solvers — the paper's Section 4/5.4 identities.

use proptest::prelude::*;
use ssor_flow::integral_opt::{integral_opt_exhaustive, integral_opt_restricted};
use ssor_flow::lp::exact_restricted_congestion;
use ssor_flow::oracle::{AllPathsOracle, CandidateOracle, PathOracle};
use ssor_flow::rounding::round_routing;
use ssor_flow::solver::{
    min_congestion, min_congestion_restricted, min_congestion_unrestricted, DemandDelta,
    MinCongSolution, SolveOptions, Solver,
};
use ssor_flow::{Demand, Routing};
use ssor_graph::ksp::k_shortest_paths;
use ssor_graph::shortest_path::{dijkstra_tree, dijkstra_tree_view};
use ssor_graph::{generators, Graph, Path, PathId, PathStore, PathSystem, VertexId};
use std::collections::BTreeMap;

fn connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..=10, 0.1f64..0.8, any::<u64>()).prop_map(|(n, p, seed)| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(n, p, &mut rng)
    })
}

fn demand_on(n: usize) -> impl Strategy<Value = Demand> {
    proptest::collection::vec(((0..n as VertexId), (0..n as VertexId), 0.1f64..5.0), 0..6).prop_map(
        |entries| {
            let mut d = Demand::new();
            for (s, t, w) in entries {
                if s != t {
                    d.add(s, t, w);
                }
            }
            d
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn demand_scaling_is_linear(
        (g, d) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), demand_on(n))
        }),
        c in 0.1f64..4.0,
    ) {
        // siz(c * d) = c * siz(d); support preserved.
        let scaled = d.scaled(c);
        prop_assert!((scaled.size() - c * d.size()).abs() < 1e-9 * (1.0 + d.size()));
        prop_assert_eq!(scaled.support_len(), d.support_len());
        let _ = g;
    }

    #[test]
    fn demand_plus_minus_roundtrip(
        (g, a, b) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), demand_on(n), demand_on(n))
        }),
    ) {
        let sum = a.plus(&b);
        prop_assert!((sum.size() - (a.size() + b.size())).abs() < 1e-9 * (1.0 + sum.size()));
        let back = sum.minus_clamped(&b);
        for ((s, t), w) in a.iter() {
            prop_assert!((back.get(s, t) - w).abs() < 1e-6, "minus undoes plus");
        }
        let _ = g;
    }

    #[test]
    fn solver_congestion_within_certified_gap(
        (g, d) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), demand_on(n))
        }),
    ) {
        prop_assume!(!d.is_empty());
        let sol = min_congestion_unrestricted(&g, &d, &SolveOptions { eps: 0.1, max_iters: 1500 });
        // Primal dominates dual.
        prop_assert!(sol.congestion + 1e-9 >= sol.lower_bound);
        // Lemma 5.16: siz(d)/m <= cong <= siz(d).
        prop_assert!(sol.congestion <= d.size() + 1e-6);
        prop_assert!(sol.congestion >= d.size() / g.m() as f64 - 1e-6);
        // The routing actually routes d and is structurally valid.
        prop_assert!(sol.routing.covers(&d));
        prop_assert!(sol.routing.is_valid(&g));
    }

    #[test]
    fn congestion_is_monotone_in_demand(
        (g, a, b) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), demand_on(n), demand_on(n))
        }),
    ) {
        prop_assume!(!a.is_empty());
        let sum = a.plus(&b);
        let opts = SolveOptions { eps: 0.08, max_iters: 1500 };
        let oa = min_congestion_unrestricted(&g, &a, &opts);
        let osum = min_congestion_unrestricted(&g, &sum, &opts);
        // OPT is monotone: certified lower bound of the part cannot exceed
        // the primal of the whole (allow the solver gap).
        prop_assert!(oa.lower_bound <= osum.congestion * 1.01 + 1e-6);
    }

    #[test]
    fn demand_weighted_merge_satisfies_lemma_5_15(
        (g, a, b) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), demand_on(n), demand_on(n))
        }),
    ) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let opts = SolveOptions { eps: 0.1, max_iters: 800 };
        let ra = min_congestion_unrestricted(&g, &a, &opts);
        let rb = min_congestion_unrestricted(&g, &b, &opts);
        let merged = Routing::demand_weighted_merge(&ra.routing, &a, &rb.routing, &b);
        let sum = a.plus(&b);
        let cong = merged.congestion(&g, &sum);
        prop_assert!(
            cong <= ra.congestion + rb.congestion + 1e-6,
            "Lemma 5.15: {} > {} + {}", cong, ra.congestion, rb.congestion
        );
    }

    #[test]
    fn single_path_routing_congestion_counts_exactly(
        g in connected_graph(),
        w in 0.5f64..5.0,
    ) {
        // Route one pair over one explicit path; every edge of the path
        // must carry exactly w.
        let s = 0 as VertexId;
        let t = (g.n() - 1) as VertexId;
        prop_assume!(s != t);
        let p = ssor_graph::shortest_path::bfs_path(&g, s, t).unwrap();
        prop_assume!(p.hop() >= 1);
        let mut r = Routing::new();
        r.set_single_path(p.clone());
        let mut d = Demand::new();
        d.set(s, t, w);
        let loads = r.edge_loads(&g, &d);
        for &e in p.edges() {
            prop_assert!((loads.get(e) - w).abs() < 1e-12);
        }
        prop_assert!((loads.total() - w * p.hop() as f64).abs() < 1e-9);
    }

    #[test]
    fn integral_rounding_preserves_counts(
        (g, pairs) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            let pair = ((0..n as VertexId), (0..n as VertexId), 1usize..4);
            (Just(g), proptest::collection::vec(pair, 1..4))
        }),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut d = Demand::new();
        let mut r = Routing::new();
        for (s, t, c) in pairs {
            if s == t || d.get(s, t) > 0.0 { continue; }
            let p = ssor_graph::shortest_path::bfs_path(&g, s, t).unwrap();
            if p.hop() == 0 { continue; }
            d.set(s, t, c as f64);
            r.set_single_path(p);
        }
        prop_assume!(!d.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let ir = ssor_flow::rounding::sample_integral(&r, &d, &mut rng);
        prop_assert!(ir.routes(&d));
        // With single-path support, rounding is deterministic: integral
        // congestion equals fractional congestion exactly.
        let frac = r.congestion(&g, &d);
        prop_assert!((ir.congestion(&g) as f64 - frac).abs() < 1e-9);
    }
}

/// A connected random graph with a few duplicated (parallel) edges — the
/// multigraph form the capacity-expanded WANs use.
fn multigraph() -> impl Strategy<Value = Graph> {
    (
        connected_graph(),
        proptest::collection::vec(any::<u32>(), 0..5),
    )
        .prop_map(|(base, dupes)| {
            let mut g = base.clone();
            let ends: Vec<(VertexId, VertexId)> = base.edges().map(|(_, uv)| uv).collect();
            for pick in dupes {
                let (u, v) = ends[pick as usize % ends.len()];
                g.add_edge(u, v);
            }
            g
        })
}

/// The serial reference the parallel batch oracle must match bit for bit:
/// one Dijkstra per distinct source, sources ascending, pairs interned in
/// index order within each source.
fn serial_best_paths(
    g: &Graph,
    usable: Option<&[bool]>,
    pairs: &[(VertexId, VertexId)],
    w: &[f64],
    store: &mut PathStore,
) -> Vec<Option<(PathId, f64)>> {
    let mut by_source: BTreeMap<VertexId, Vec<usize>> = BTreeMap::new();
    for (i, &(s, _)) in pairs.iter().enumerate() {
        by_source.entry(s).or_default().push(i);
    }
    let mut out: Vec<Option<(PathId, f64)>> = vec![None; pairs.len()];
    for (s, idxs) in by_source {
        let tree = match usable {
            None => dijkstra_tree(g, s, &|e| w[e as usize]),
            Some(mask) => dijkstra_tree_view(g, s, &|e| w[e as usize], &mask.to_vec()),
        };
        for i in idxs {
            let t = pairs[i].1;
            out[i] = tree
                .path_to(g, t)
                .map(|p| (store.intern(&p), tree.dist_to(t)));
        }
    }
    out
}

/// An oracle edge weight: mostly continuous, but also exact `0.0` (the
/// softmax weight `exp((l - max) * beta)` underflows to it at sharp
/// stages) and small integers, whose sums tie — the cases where a
/// stopped Dijkstra sweep and its tie-break could part from a full tree.
fn edge_weight() -> impl Strategy<Value = f64> {
    (0u32..4, 1u32..3, 1e-3f64..10.0).prop_map(|(kind, k, x)| match kind {
        0 => 0.0,
        1 => k as f64,
        _ => x,
    })
}

/// [`serial_best_paths`] as a [`PathOracle`], so whole solves can run
/// against the reference.
struct SerialReference<'g> {
    g: &'g Graph,
    usable: Option<&'g [bool]>,
}

impl PathOracle for SerialReference<'_> {
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>> {
        serial_best_paths(self.g, self.usable, pairs, w, store)
    }
}

/// A solution's routing as materialized paths with weight bits, in
/// demand order.
fn routing_bits(sol: &MinCongSolution, d: &Demand) -> Vec<Vec<(Path, u64)>> {
    let r = &sol.routing;
    d.support()
        .into_iter()
        .map(|(s, t)| {
            r.distribution(s, t)
                .unwrap_or(&[])
                .iter()
                .map(|&(id, w)| (r.store().materialize(id), w.to_bits()))
                .collect()
        })
        .collect()
}

/// A random edge mask; about a quarter of the edges die.
fn random_mask(m: usize, seed: u64) -> Vec<bool> {
    let mut x = seed;
    (0..m)
        .map(|_| {
            // SplitMix64-ish scramble.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 62) != 0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The rayon-parallel batch oracle promises results bitwise-equal to a
    // serial per-source sweep — ids, costs, and the arena's interning
    // order — on any weighted multigraph, masked or not, at whatever
    // worker count the test runs under.
    #[test]
    fn parallel_batch_oracle_matches_serial_reference(
        (g, pairs, fan, weights, mask_seed) in multigraph().prop_flat_map(|g| {
            let n = g.n() as VertexId;
            let m = g.m();
            // Distinct endpoints by construction (n >= 3 here).
            let pair = (0..n, 0..n)
                .prop_map(move |(s, t)| if s == t { (s, (t + 1) % n) } else { (s, t) });
            // One source with several targets: the stopped sweep must
            // settle all of them before it returns.
            let fan = (0..n, proptest::collection::vec(0..n, 2..8));
            (
                Just(g),
                proptest::collection::vec(pair, 1..24),
                fan,
                proptest::collection::vec(edge_weight(), m..m + 1),
                any::<u64>(),
            )
        }),
    ) {
        let (hub, spokes) = fan;
        let mut pairs = pairs;
        pairs.extend(spokes.into_iter().filter(|&t| t != hub).map(|t| (hub, t)));
        pairs.sort_unstable();
        pairs.dedup();
        // Unmasked oracle vs reference.
        let mut store_par = PathStore::new();
        let mut store_ser = PathStore::new();
        let mut oracle = AllPathsOracle::new(&g);
        let got = oracle.best_paths(&pairs, &weights, &mut store_par);
        let want = serial_best_paths(&g, None, &pairs, &weights, &mut store_ser);
        prop_assert_eq!(&got, &want);
        for (a, b) in got.iter().zip(want.iter()) {
            let (ida, idb) = (a.unwrap().0, b.unwrap().0);
            prop_assert_eq!(store_par.materialize(ida), store_ser.materialize(idb));
        }
        // Masked oracle vs reference (random knockouts; disconnected
        // pairs must come back None identically on both sides).
        let mask = random_mask(g.m(), mask_seed);
        let mut store_par = PathStore::new();
        let mut store_ser = PathStore::new();
        let mut oracle = AllPathsOracle::masked(&g, &mask);
        let got = oracle.best_paths(&pairs, &weights, &mut store_par);
        let want = serial_best_paths(&g, Some(&mask), &pairs, &weights, &mut store_ser);
        prop_assert_eq!(&got, &want);
        for (a, b) in got.iter().zip(want.iter()) {
            match (a, b) {
                (Some((ida, _)), Some((idb, _))) => {
                    prop_assert_eq!(store_par.materialize(*ida), store_ser.materialize(*idb));
                }
                (None, None) => {}
                _ => prop_assert!(false, "reachability mismatch"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Whole solves, masked and unmasked, driven by the batch oracle and
    // by the serial full-tree reference must agree bit for bit: bounds,
    // iteration count, convergence and routing. This pins the Frank–Wolfe
    // loop around the oracle (line search, updates, interning order) to
    // the reference computation, not just single oracle calls.
    #[test]
    fn min_congestion_matches_serial_reference_oracle(
        (g, d, mask_seed) in multigraph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), demand_on(n), any::<u64>())
        }),
    ) {
        prop_assume!(!d.is_empty());
        let opts = SolveOptions { eps: 0.05, max_iters: 150 };
        let mask = random_mask(g.m(), mask_seed);
        for usable in [None, Some(mask.as_slice())] {
            let mut fast = match usable {
                None => AllPathsOracle::new(&g),
                Some(mask) => AllPathsOracle::masked(&g, mask),
            };
            let mut reference = SerialReference { g: &g, usable };
            let got = min_congestion(&g, &d, &mut fast, &opts);
            let want = min_congestion(&g, &d, &mut reference, &opts);
            prop_assert_eq!(got.congestion.to_bits(), want.congestion.to_bits());
            prop_assert_eq!(got.lower_bound.to_bits(), want.lower_bound.to_bits());
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.converged, want.converged);
            prop_assert_eq!(got.stranded.to_bits(), want.stranded.to_bits());
            prop_assert_eq!(routing_bits(&got, &d), routing_bits(&want, &d));
        }
    }
}

/// The candidate oracle with no state between calls: a `BTreeMap`
/// lookup per pair and an `intern_from` per best response, on every
/// call. `CandidateOracle` resolves its pair list once per solve and
/// remembers where it interned each candidate; none of that may show
/// next to this.
struct PlainOracle<'a>(&'a PathSystem);

impl PathOracle for PlainOracle<'_> {
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>> {
        let ext = self.0.store();
        pairs
            .iter()
            .map(|&(s, t)| {
                let mut best: Option<(PathId, f64)> = None;
                for &id in self.0.path_ids(s, t)? {
                    let cost = ext.weight(id, w);
                    if best.is_none_or(|(_, bc)| cost < bc) {
                        best = Some((id, cost));
                    }
                }
                best.map(|(id, cost)| (store.intern_from(ext, id), cost))
            })
            .collect()
    }
}

/// Whether two solves agree bit for bit: bounds, iteration count,
/// convergence, stranded mass and pairs, and the routing on `d`.
fn same_solution(
    got: &MinCongSolution,
    want: &MinCongSolution,
    d: &Demand,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.congestion.to_bits(), want.congestion.to_bits());
    prop_assert_eq!(got.lower_bound.to_bits(), want.lower_bound.to_bits());
    prop_assert_eq!(got.iterations, want.iterations);
    prop_assert_eq!(got.converged, want.converged);
    prop_assert_eq!(got.stranded.to_bits(), want.stranded.to_bits());
    prop_assert_eq!(&got.dropped_pairs, &want.dropped_pairs);
    prop_assert_eq!(routing_bits(got, d), routing_bits(want, d));
    Ok(())
}

/// Up to `k` hop-shortest candidates for every pair any of `ds` demands,
/// except the pairs `skip` picks (by a scramble of the pair and the
/// seed): their demand is stranded, so a solve's first oracle call and
/// its loop ask about different pair lists.
fn some_candidates(g: &Graph, ds: &[Demand], k: usize, skip: u64) -> PathSystem {
    let mut cands = PathSystem::new();
    for (s, t) in ds.iter().flat_map(|d| d.support()) {
        let h = (u64::from(s) << 32 | u64::from(t)) ^ skip;
        if h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 == 0 {
            continue;
        }
        for path in k_shortest_paths(g, s, t, k, &|_| 1.0) {
            cands.insert(path);
        }
    }
    cands
}

/// The steps of the reuse cases: `(solver, demand)` indices. Solver 1
/// routes demand 1 first, so its arena numbers paths differently from
/// solver 0's when both later route demand 0 and demand 2 — a cold solve
/// of the same pairs right after the other solver's, the case where a
/// shared oracle's remembered ids point into the wrong arena.
const SHARED_ORACLE_STEPS: [(usize, usize); 6] = [(1, 1), (0, 0), (1, 0), (0, 2), (1, 2), (0, 0)];

/// One warm solver's demand sequence: new pairs, pairs leaving and
/// coming back (`Set` to zero and back), a wholesale `Replace`, and a
/// `Scale`.
fn warm_deltas(ds: &[Demand]) -> Vec<DemandDelta> {
    let set = |d: &Demand, scale: f64| -> Vec<((VertexId, VertexId), f64)> {
        d.iter().map(|(pair, w)| (pair, w * scale)).collect()
    };
    vec![
        DemandDelta::Replace(ds[0].clone()),
        DemandDelta::Set([set(&ds[0], 0.0), set(&ds[1], 1.0)].concat()),
        DemandDelta::Replace(ds[2].clone()),
        DemandDelta::Set(set(&ds[0], 1.0)),
        DemandDelta::Scale(2.0),
        DemandDelta::Replace(ds[1].clone()),
    ]
}

/// Runs `SHARED_ORACLE_STEPS` with one `CandidateOracle` for both
/// solvers and `warm_deltas` on one warm solver, each step against the
/// same step with a fresh [`PlainOracle`].
fn check_reuse_against_plain(
    g: &Graph,
    ds: &[Demand],
    paths: &PathSystem,
    opts: &SolveOptions,
) -> Result<(), TestCaseError> {
    let mut shared = CandidateOracle::new(paths);
    let mut solvers = [Solver::new(g), Solver::new(g)];
    let mut plain = [Solver::new(g), Solver::new(g)];
    for (i, j) in SHARED_ORACLE_STEPS {
        let d = &ds[j];
        let got = solvers[i].resolve(g, DemandDelta::Replace(d.clone()), &mut shared, opts);
        let mut oracle = PlainOracle(paths);
        let want = plain[i].resolve(g, DemandDelta::Replace(d.clone()), &mut oracle, opts);
        same_solution(&got, &want, d)?;
    }
    let mut oracle = CandidateOracle::new(paths);
    let (mut warm, mut plain) = (Solver::new(g), Solver::new(g));
    for delta in warm_deltas(ds) {
        let got = warm.resolve(g, delta.clone(), &mut oracle, opts);
        let want = plain.resolve(g, delta, &mut PlainOracle(paths), opts);
        same_solution(&got, &want, warm.demand())?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The restricted solve against the stateless candidate oracle, bit
    // for bit: one-shot solves with stranded pairs, then one oracle
    // shared by two solvers, then one warm solver across changing pair
    // sets.
    #[test]
    fn restricted_solve_matches_plain_candidate_oracle(
        (g, ds, k, skip) in multigraph().prop_flat_map(|g| {
            let n = g.n();
            (
                Just(g),
                proptest::collection::vec(demand_on(n), 3..4),
                1usize..4,
                any::<u64>(),
            )
        }),
    ) {
        let cands = some_candidates(&g, &ds, k, skip);
        let opts = SolveOptions { eps: 0.05, max_iters: 150 };
        for d in &ds {
            let got = min_congestion_restricted(&g, d, &cands, &opts);
            let want = min_congestion(&g, d, &mut PlainOracle(&cands), &opts);
            same_solution(&got, &want, d)?;
        }
        check_reuse_against_plain(&g, &ds, &cands, &opts)?;
    }
}

/// The reuse cases on a fixed instance where they bite: every pair has
/// candidates, and demands 0 and 1 share no pair, so solver 1's arena
/// holds demand 1's paths under the ids solver 0 gives demand 0's.
#[test]
fn shared_candidate_oracle_never_leaks_ids_across_arenas() {
    let g = generators::grid(3, 4);
    let mut cands = PathSystem::new();
    for s in g.vertices() {
        for t in g.vertices().filter(|&t| t != s) {
            for path in k_shortest_paths(&g, s, t, 3, &|_| 1.0) {
                cands.insert(path);
            }
        }
    }
    let ds = [
        Demand::from_pairs(&[(0, 11), (3, 8), (4, 7), (1, 10)]),
        Demand::from_pairs(&[(11, 0), (2, 9), (5, 6)]),
        Demand::from_pairs(&[(0, 11), (2, 9), (6, 5), (8, 3)]),
    ];
    let opts = SolveOptions::with_eps(0.02);
    check_reuse_against_plain(&g, &ds, &cands, &opts)
        .expect("shared and warm oracles match the plain one");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Solver tolerances are relative to demand size (the solver
    // normalizes internally), so congestion must scale linearly with the
    // demand across many orders of magnitude.
    #[test]
    fn min_congestion_is_scale_equivariant(
        (g, d) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), demand_on(n))
        }),
        exp in -6i32..7,
    ) {
        prop_assume!(!d.is_empty());
        let c = 10f64.powi(exp);
        let opts = SolveOptions { eps: 0.05, max_iters: 3000 };
        let base = min_congestion_unrestricted(&g, &d, &opts);
        let scaled = min_congestion_unrestricted(&g, &d.scaled(c), &opts);
        // Each solve is certified within (1 + eps) of the same optimum
        // (at its own scale), so the two can differ by at most ~eps each
        // way.
        let expected = c * base.congestion;
        prop_assert!(
            scaled.congestion <= expected * 1.11 + f64::MIN_POSITIVE,
            "scale {}: got {}, expected ~{}", c, scaled.congestion, expected
        );
        prop_assert!(
            scaled.congestion >= expected / 1.11 - f64::MIN_POSITIVE,
            "scale {}: got {}, expected ~{}", c, scaled.congestion, expected
        );
        // The dual certificate survives scaling too.
        prop_assert!(scaled.lower_bound <= scaled.congestion * (1.0 + 1e-9));
        prop_assert!(scaled.lower_bound > 0.0);
    }
}

/// Regression for the absolute-threshold convergence bug: before the
/// solver normalized demands internally, an extreme demand scale pushed
/// the softmax temperature `beta ~ 1 / (eps * max_load)` outside f64
/// range (overflow to `inf` for subnormal loads), turning the dual
/// weights into NaN — the solve finished with a zero lower bound and an
/// infinite "certified" gap. With internal normalization every tolerance
/// is relative to demand size, so the same instance stays certified and
/// exactly linear at any positive scale.
#[test]
fn extreme_demand_scales_stay_certified_and_linear() {
    let g = generators::ring(6);
    let d = Demand::from_pairs(&[(0, 3), (1, 4)]);
    let opts = SolveOptions {
        eps: 0.05,
        max_iters: 2000,
    };
    let base = min_congestion_unrestricted(&g, &d, &opts);
    assert!(base.gap() <= 1.06, "base gap {}", base.gap());
    for c in [1e-310, 1e-150, 1e150, 1e300] {
        let sol = min_congestion_unrestricted(&g, &d.scaled(c), &opts);
        assert!(sol.congestion.is_finite(), "scale {c}: NaN/inf congestion");
        assert!(
            sol.gap().is_finite() && sol.gap() <= 1.06,
            "scale {c}: uncertified gap {}",
            sol.gap()
        );
        let rel = sol.congestion / (c * base.congestion);
        assert!((rel - 1.0).abs() < 0.06, "scale {c}: nonlinear by {rel}");
    }
}

/// A tiny oracle-sized instance: a connected graph on at most six
/// vertices, an integral demand of at most three unit packets, and up to
/// three hop-shortest candidate paths per demanded pair — small enough
/// for the exact solvers (branch and bound, dense simplex).
fn tiny_instance() -> impl Strategy<Value = (Graph, Demand, PathSystem)> {
    (4usize..=6, 0.2f64..0.7, any::<u64>(), 1usize..=3)
        .prop_flat_map(|(n, p, seed, k)| {
            let pairs = proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 1..4);
            (Just((n, p, seed, k)), pairs)
        })
        .prop_map(|((n, p, seed, k), pairs)| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::erdos_renyi(n, p, &mut rng);
            let mut d = Demand::new();
            let mut cands = PathSystem::new();
            for (s, t) in pairs {
                if s == t {
                    continue;
                }
                d.add(s, t, 1.0);
                for path in k_shortest_paths(&g, s, t, k, &|_| 1.0) {
                    cands.insert(path);
                }
            }
            (g, d, cands)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The exact integral optimum as the oracle for Lemma 6.3: on the
    /// same candidates, the restricted fractional lower bound sits below
    /// `integral_opt_restricted`, which sits below whatever the rounding
    /// produces — and the rounding meets `2 cong_R + 3 ln m`. Widening
    /// the candidates to every simple path can only lower the integral
    /// optimum, which still dominates the unrestricted fractional bound.
    #[test]
    fn rounding_is_bracketed_by_the_integral_optimum(
        (g, d, cands) in tiny_instance(),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        prop_assume!(!d.is_empty());
        let opts = SolveOptions::with_eps(0.01);
        let frac = min_congestion_restricted(&g, &d, &cands, &opts);
        let lists: BTreeMap<(VertexId, VertexId), Vec<Path>> = d
            .support()
            .into_iter()
            .map(|(s, t)| ((s, t), cands.paths(s, t).unwrap()))
            .collect();
        let (int_opt, witness) =
            integral_opt_restricted(&g, &d, &lists).expect("every pair has candidates");
        prop_assert!(witness.routes(&d));
        prop_assert!(
            frac.lower_bound <= int_opt as f64 + 1e-9,
            "fractional bound {} above integral optimum {}", frac.lower_bound, int_opt
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let rounded = round_routing(&g, &frac.routing, &d, 8, &mut rng);
        prop_assert!(rounded.routing.routes(&d));
        prop_assert!(
            int_opt <= rounded.congestion,
            "rounding {} beat the integral optimum {}", rounded.congestion, int_opt
        );
        prop_assert!(rounded.within_lemma_bound(g.m()));

        let (exhaustive, _) = integral_opt_exhaustive(&g, &d, g.n() - 1).unwrap();
        prop_assert!(exhaustive <= int_opt);
        let unrestricted = min_congestion_unrestricted(&g, &d, &opts);
        prop_assert!(unrestricted.lower_bound <= exhaustive as f64 + 1e-9);
    }

    /// The Frank–Wolfe restricted solve's certified `[lower_bound,
    /// congestion]` must bracket the exact simplex optimum on the same
    /// candidates: a wrong certificate would silently skew every
    /// reported competitive ratio.
    #[test]
    fn restricted_certificate_brackets_the_exact_lp(
        (g, d, cands) in tiny_instance(),
        eps in 0.01f64..0.5,
    ) {
        prop_assume!(!d.is_empty());
        let sol =
            min_congestion_restricted(&g, &d, &cands, &SolveOptions::with_eps(eps));
        let exact = exact_restricted_congestion(&g, &d, &cands)
            .expect("feasible restricted LP");
        let tol = 1e-9 * exact;
        prop_assert!(
            sol.lower_bound <= exact + tol,
            "certified lower bound {} above the exact optimum {}", sol.lower_bound, exact
        );
        prop_assert!(
            exact <= sol.congestion + tol,
            "primal congestion {} below the exact optimum {}", sol.congestion, exact
        );
    }
}
