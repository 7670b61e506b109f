//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use ssor_graph::maxflow::min_cut_value;
use ssor_graph::shortest_path::{
    bfs_path, bfs_tree, bfs_trees_batch, dijkstra_path, dijkstra_targets, dijkstra_tree,
    dijkstra_tree_view, dijkstra_trees_batch, hop_distance, DijkstraWorkspace, SpTree,
};
use ssor_graph::{
    generators, CsrLaplacian, EdgeId, EdgeLoads, FullTopology, Graph, Path, PathStore,
    ShortcutWalk, VertexId,
};

/// Strategy: a connected random graph with `n` in 2..=12 via an
/// Erdős–Rényi draw stitched to connectivity (deterministic from the seed).
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..=12, 0.05f64..0.9, any::<u64>()).prop_map(|(n, p, seed)| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(n, p, &mut rng)
    })
}

/// Strategy: a connected random *multigraph* — an Erdős–Rényi base with a
/// random sprinkle of parallel copies of existing edges.
fn connected_multigraph() -> impl Strategy<Value = Graph> {
    (connected_graph(), 0usize..10, any::<u64>()).prop_map(|(base, extra, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = base.clone();
        let m = base.m();
        for _ in 0..extra {
            let (u, v) = base.endpoints(rng.gen_range(0..m) as u32);
            g.add_edge(u, v);
        }
        g
    })
}

/// A random simple path in `g` (random walk, shortcut).
fn random_simple_path(g: &Graph, rng: &mut rand::rngs::StdRng) -> Path {
    use rand::Rng;
    let start = rng.gen_range(0..g.n()) as VertexId;
    let mut cur = start;
    let mut verts = vec![start];
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(1..10) {
        let nbrs = g.neighbors(cur);
        let a = nbrs[rng.gen_range(0..nbrs.len())];
        verts.push(a.to);
        edges.push(a.edge);
        cur = a.to;
    }
    Path::from_edges(g, start, &edges).unwrap().shortcut()
}

/// The reference shortcut: the stack walk with a hash-map position
/// index, as `(vertices, edges)`.
fn shortcut_reference(walk: &Path) -> (Vec<VertexId>, Vec<EdgeId>) {
    let vertices = walk.vertices();
    let mut stack_v = vec![walk.source()];
    let mut stack_e: Vec<EdgeId> = Vec::new();
    let mut pos: std::collections::HashMap<VertexId, usize> =
        std::collections::HashMap::from([(walk.source(), 0)]);
    for (&e, &v) in walk.edges().iter().zip(&vertices[1..]) {
        if let Some(&j) = pos.get(&v) {
            while stack_v.len() > j + 1 {
                pos.remove(&stack_v.pop().unwrap());
                stack_e.pop();
            }
        } else {
            pos.insert(v, stack_v.len());
            stack_v.push(v);
            stack_e.push(e);
        }
    }
    (stack_v, stack_e)
}

/// A random walk of `len` hops from `start`, as edge ids.
fn random_walk_edges(
    g: &Graph,
    start: VertexId,
    len: usize,
    rng: &mut rand::rngs::StdRng,
) -> (Vec<EdgeId>, VertexId) {
    use rand::Rng;
    let mut cur = start;
    let mut edges = Vec::with_capacity(len);
    for _ in 0..len {
        let nbrs = g.neighbors(cur);
        let a = nbrs[rng.gen_range(0..nbrs.len())];
        edges.push(a.edge);
        cur = a.to;
    }
    (edges, cur)
}

/// A textbook Dijkstra, sharing no code with the library's heap core:
/// settle the unsettled reached vertex least in `(dist, vertex)` order
/// (`total_cmp` on the distance) by an O(n) scan, then relax its arcs in
/// adjacency order with a strict `<`. Edges outside `usable` are skipped.
/// The library core must settle in this order, so its distances and
/// parents equal these bit for bit.
fn textbook_dijkstra(g: &Graph, s: VertexId, w: &[f64], usable: &[bool]) -> SpTree {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut settled = vec![false; n];
    dist[s as usize] = 0.0;
    loop {
        let next = (0..n)
            .filter(|&v| !settled[v] && dist[v].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
        let Some(v) = next else { break };
        settled[v] = true;
        for a in g.neighbors(v as VertexId) {
            if !usable[a.edge as usize] {
                continue;
            }
            let nd = dist[v] + w[a.edge as usize];
            if nd < dist[a.to as usize] {
                dist[a.to as usize] = nd;
                parent[a.to as usize] = Some((v as VertexId, a.edge));
            }
        }
    }
    SpTree {
        source: s,
        dist,
        parent,
    }
}

/// The reference tree's path to `t` as `(vertices, edges)`, empty when
/// `t` is unreachable.
fn tree_path_parts(tree: &SpTree, t: VertexId) -> (Vec<VertexId>, Vec<EdgeId>) {
    if tree.dist[t as usize].is_infinite() {
        return (vec![], vec![]);
    }
    let (mut vs, mut es) = (vec![t], vec![]);
    let mut cur = t;
    while let Some((p, e)) = tree.parent[cur as usize] {
        vs.push(p);
        es.push(e);
        cur = p;
    }
    vs.reverse();
    es.reverse();
    (vs, es)
}

/// Checks every Dijkstra and BFS entry point against
/// [`textbook_dijkstra`] from every source of `g`: the full tree, its
/// batch and unmasked-view forms, the masked tree, and target-bounded
/// sweeps (masked and not) sharing one workspace — distances by bits,
/// parents and paths exactly. BFS trees (single and batch) are checked
/// against the unit-length reference by distance: a FIFO queue may pick
/// a different parent among equally short ones.
fn check_dijkstra_against_textbook(
    g: &Graph,
    w: &[f64],
    mask: &[bool],
) -> Result<(), TestCaseError> {
    let all = vec![true; g.m()];
    let unit = vec![1.0; g.m()];
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let len = |e: EdgeId| w[e as usize];
    let sources: Vec<VertexId> = g.vertices().collect();
    let dijkstra_batch = dijkstra_trees_batch(g, &sources, &len);
    let bfs_batch = bfs_trees_batch(g, &sources);
    let mut ws = DijkstraWorkspace::new();
    let (mut vs, mut es) = (vec![], vec![]);
    for s in g.vertices() {
        let open = textbook_dijkstra(g, s, w, &all);
        let masked = textbook_dijkstra(g, s, w, mask);
        let hops = textbook_dijkstra(g, s, &unit, &all);
        let trees = [
            dijkstra_tree(g, s, &len),
            dijkstra_tree_view(g, s, &len, &FullTopology),
            dijkstra_batch[s as usize].clone(),
        ];
        for tree in trees {
            prop_assert_eq!(bits(&tree.dist), bits(&open.dist), "dist from {}", s);
            prop_assert_eq!(&tree.parent, &open.parent, "parents from {}", s);
        }
        for tree in [bfs_tree(g, s), bfs_batch[s as usize].clone()] {
            prop_assert_eq!(bits(&tree.dist), bits(&hops.dist), "hops from {}", s);
        }
        let tree = dijkstra_tree_view(g, s, &len, &mask.to_vec());
        prop_assert_eq!(
            bits(&tree.dist),
            bits(&masked.dist),
            "masked dist from {}",
            s
        );
        prop_assert_eq!(&tree.parent, &masked.parent, "masked parents from {}", s);
        // Every other vertex as a target, highest first: the sweep stops
        // at the last one settled.
        let targets: Vec<VertexId> = (0..g.n() as VertexId).rev().filter(|&t| t != s).collect();
        for (reference, view) in [(&open, None), (&masked, Some(mask))] {
            dijkstra_targets(g, s, &targets, w, view, &mut ws);
            for &t in &targets {
                prop_assert_eq!(ws.dist(t).to_bits(), reference.dist[t as usize].to_bits());
                let reached = ws.path_parts(t, &mut vs, &mut es);
                let (want_vs, want_es) = tree_path_parts(reference, t);
                prop_assert_eq!(reached, !want_vs.is_empty());
                prop_assert_eq!(&vs, &want_vs, "path {} -> {}", s, t);
                prop_assert_eq!(&es, &want_es, "path {} -> {}", s, t);
            }
        }
    }
    Ok(())
}

/// A Dijkstra edge length: exact `0.0`, a small integer (sums tie), or
/// a continuous value.
fn dijkstra_length() -> impl Strategy<Value = f64> {
    (0u32..3, 1u32..3, 1e-3f64..10.0).prop_map(|(kind, k, x)| match kind {
        0 => 0.0,
        1 => k as f64,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heap core pops in the textbook `(dist, vertex)` order on
    /// random multigraphs (parallel edges included) with all-equal,
    /// zero-weight and mixed lengths, masked and not.
    #[test]
    fn dijkstra_matches_textbook_selection_order(
        (g, lens, mask) in connected_multigraph().prop_flat_map(|g| {
            let m = g.m();
            (
                Just(g),
                proptest::collection::vec(dijkstra_length(), m..m + 1),
                proptest::collection::vec(any::<bool>(), m..m + 1),
            )
        }),
        equal in any::<bool>(),
    ) {
        let lens = if equal { vec![1.0; g.m()] } else { lens };
        check_dijkstra_against_textbook(&g, &lens, &mask)?;
    }
}

/// Fixed tie-heavy instances for the same check: a ring and a grid with
/// all-equal lengths, a zero-length cycle, and a bundle of parallel
/// edges between every consecutive pair of a path.
#[test]
fn dijkstra_matches_textbook_on_tie_heavy_graphs() {
    let mut parallel = Graph::new(5);
    for v in 0..4 {
        for _ in 0..3 {
            parallel.add_edge(v, v + 1);
        }
    }
    let cases: Vec<(Graph, Vec<f64>)> = vec![
        (generators::ring(8), vec![1.0; 8]),
        (
            generators::grid(3, 4),
            vec![1.0; generators::grid(3, 4).m()],
        ),
        (generators::ring(6), vec![0.0; 6]),
        (parallel.clone(), vec![2.0; parallel.m()]),
        (
            parallel.clone(),
            (0..parallel.m()).map(|e| (e % 3) as f64).collect(),
        ),
    ];
    for (g, w) in &cases {
        let alive = vec![true; g.m()];
        let alternate: Vec<bool> = (0..g.m()).map(|e| e % 4 != 1).collect();
        for mask in [&alive, &alternate] {
            check_dijkstra_against_textbook(g, w, mask).expect("matches the textbook order");
        }
    }
}

proptest! {
    #[test]
    fn bfs_distances_satisfy_triangle_inequality(g in connected_graph()) {
        let n = g.n();
        for a in 0..n as VertexId {
            let ta = bfs_tree(&g, a);
            for b in 0..n as VertexId {
                for c in 0..n as VertexId {
                    let ab = ta.dist[b as usize];
                    let ac = ta.dist[c as usize];
                    let bc = bfs_tree(&g, b).dist[c as usize];
                    prop_assert!(ac <= ab + bc + 1e-9);
                }
            }
        }
    }

    #[test]
    fn batch_tree_sweep_matches_serial_reference(
        g in connected_multigraph(),
        wseed in any::<u64>(),
    ) {
        // The parallel all-sources fan-out (what the template metric and
        // the batch oracle build on) must be bitwise equal to building
        // each tree serially, on random weighted multigraphs.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(wseed);
        let lens: Vec<f64> = (0..g.m()).map(|_| 0.25 + rng.gen::<f64>() * 4.0).collect();
        let sources: Vec<VertexId> = g.vertices().collect();
        let batch = dijkstra_trees_batch(&g, &sources, &|e| lens[e as usize]);
        let bfs_batch = bfs_trees_batch(&g, &sources);
        for (i, &s) in sources.iter().enumerate() {
            let serial = dijkstra_tree(&g, s, &|e| lens[e as usize]);
            prop_assert_eq!(&batch[i].dist, &serial.dist);
            prop_assert_eq!(&batch[i].parent, &serial.parent);
            let serial_bfs = bfs_tree(&g, s);
            prop_assert_eq!(&bfs_batch[i].dist, &serial_bfs.dist);
            prop_assert_eq!(&bfs_batch[i].parent, &serial_bfs.parent);
        }
    }

    #[test]
    fn bfs_and_dijkstra_agree_on_unit_lengths(g in connected_graph()) {
        for s in 0..g.n() as VertexId {
            for t in 0..g.n() as VertexId {
                let b = bfs_path(&g, s, t).map(|p| p.hop());
                let d = dijkstra_path(&g, s, t, &|_| 1.0).map(|p| p.hop());
                prop_assert_eq!(b, d);
            }
        }
    }

    #[test]
    fn min_cut_is_symmetric_and_bounded_by_degree(g in connected_graph()) {
        let n = g.n() as VertexId;
        for s in 0..n {
            for t in (s + 1)..n {
                let st = min_cut_value(&g, s, t);
                let ts = min_cut_value(&g, t, s);
                prop_assert_eq!(st, ts, "cut symmetry");
                prop_assert!(st <= g.degree(s).min(g.degree(t)) as u64);
                prop_assert!(st >= 1, "connected graphs have positive cuts");
            }
        }
    }

    #[test]
    fn shortcut_is_idempotent_and_endpoint_preserving(
        g in connected_graph(),
        walk_len in 1usize..12,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // Random walk of the requested length.
        let start = rng.gen_range(0..g.n()) as VertexId;
        let mut verts = vec![start];
        let mut cur = start;
        for _ in 0..walk_len {
            let nbrs = g.neighbors(cur);
            if nbrs.is_empty() { break; }
            let a = nbrs[rng.gen_range(0..nbrs.len())];
            verts.push(a.to);
            cur = a.to;
        }
        let walk = Path::from_vertices(&g, &verts).unwrap();
        let p = walk.shortcut();
        prop_assert!(p.is_simple());
        prop_assert!(p.is_valid(&g));
        prop_assert_eq!(p.source(), walk.source());
        prop_assert_eq!(p.target(), walk.target());
        prop_assert_eq!(p.shortcut(), p.clone(), "idempotent");
        prop_assert!(p.hop() <= walk.hop());
    }

    #[test]
    fn shortcut_matches_hash_map_reference(
        g in connected_multigraph(),
        first in 0usize..12,
        back in any::<bool>(),
        more in 0usize..200,
        seed in any::<u64>(),
    ) {
        // A random walk, optionally retraced to its source (so the
        // source itself is revisited and the first leg collapses), then
        // continued for up to 200 more hops, which revisits the small
        // graph's vertices many times over.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let start = rng.gen_range(0..g.n()) as VertexId;
        let (mut edges, mut cur) = random_walk_edges(&g, start, first, &mut rng);
        if back {
            let retrace: Vec<EdgeId> = edges.iter().rev().copied().collect();
            edges.extend(retrace);
            cur = start;
        }
        let (tail, _) = random_walk_edges(&g, cur, more, &mut rng);
        edges.extend(tail);
        let walk = Path::from_edges(&g, start, &edges).unwrap();
        let reference = shortcut_reference(&walk);
        let p = walk.shortcut();
        prop_assert_eq!(p.vertices(), &reference.0[..]);
        prop_assert_eq!(p.edges(), &reference.1[..]);
        // One scratch reused across walks gives the same answers: a
        // restart resets every position the previous walk left behind.
        let other_start = rng.gen_range(0..g.n()) as VertexId;
        let (other_edges, _) = random_walk_edges(&g, other_start, more, &mut rng);
        let other = Path::from_edges(&g, other_start, &other_edges).unwrap();
        let other_ref = shortcut_reference(&other);
        let mut scratch = ShortcutWalk::new();
        for (w, want) in [(&walk, &reference), (&other, &other_ref), (&walk, &reference)] {
            scratch.start(w.source());
            for (&e, &v) in w.edges().iter().zip(&w.vertices()[1..]) {
                scratch.step(e, v);
            }
            prop_assert_eq!(scratch.vertices(), &want.0[..]);
            prop_assert_eq!(scratch.edges(), &want.1[..]);
        }
    }

    #[test]
    fn ksp_paths_are_distinct_simple_and_sorted(
        g in connected_graph(),
        k in 1usize..6,
    ) {
        let s = 0 as VertexId;
        let t = (g.n() - 1) as VertexId;
        if s == t { return Ok(()); }
        let paths = ssor_graph::ksp::k_shortest_paths(&g, s, t, k, &|_| 1.0);
        prop_assert!(!paths.is_empty());
        for w in paths.windows(2) {
            prop_assert!(w[0].hop() <= w[1].hop(), "sorted by length");
        }
        let mut keys: Vec<Vec<u32>> = paths.iter().map(|p| p.edges().to_vec()).collect();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), paths.len(), "distinct");
        for p in &paths {
            prop_assert!(p.is_simple());
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
        }
        // First path is a shortest path.
        prop_assert_eq!(paths[0].hop(), hop_distance(&g, s, t));
    }

    #[test]
    fn edge_loads_match_hashmap_accumulation_bitwise(
        g in connected_multigraph(),
        routes in 1usize..16,
        seed in any::<u64>(),
    ) {
        // The dense EdgeLoads accumulator must agree *bit for bit* with
        // the HashMap<EdgeId, f64> accumulators it replaced, for random
        // fractional routings over a multigraph with parallel edges —
        // same paths, same weights, same addition order per edge.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = EdgeLoads::for_graph(&g);
        let mut sparse: HashMap<u32, f64> = HashMap::new();
        for _ in 0..routes {
            let p = random_simple_path(&g, &mut rng);
            let w: f64 = rng.gen_range(0.001..2.0);
            dense.add_edges(p.edges(), w);
            for &e in p.edges() {
                *sparse.entry(e).or_insert(0.0) += w;
            }
        }
        for e in 0..g.m() as u32 {
            let expected = sparse.get(&e).copied().unwrap_or(0.0);
            prop_assert!(
                dense.get(e) == expected,
                "edge {}: dense {} != sparse {}", e, dense.get(e), expected
            );
        }
        // And the congestion functional agrees with the fold over the map.
        let max_sparse = sparse.values().fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(dense.max() == max_sparse);
    }

    #[test]
    fn path_store_interning_roundtrips_and_dedups(
        g in connected_multigraph(),
        count in 1usize..24,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = PathStore::new();
        let mut originals = Vec::new();
        for _ in 0..count {
            let p = random_simple_path(&g, &mut rng);
            let id = store.intern(&p);
            originals.push((p, id));
        }
        let mut distinct: Vec<Vec<u32>> = Vec::new();
        for (p, id) in &originals {
            // Round-trip: slices and the materialized boundary Path match.
            prop_assert_eq!(store.vertices(*id), p.vertices());
            prop_assert_eq!(store.edges(*id), p.edges());
            prop_assert_eq!(&store.materialize(*id), p);
            prop_assert_eq!(store.source(*id), p.source());
            prop_assert_eq!(store.target(*id), p.target());
            prop_assert_eq!(store.hop(*id), p.hop());
            // Re-interning is stable and never grows the arena.
            prop_assert_eq!(store.intern(p), *id);
            let key: Vec<u32> = std::iter::once(p.source())
                .chain(p.edges().iter().copied())
                .collect();
            if !distinct.contains(&key) {
                distinct.push(key);
            }
        }
        prop_assert_eq!(store.len(), distinct.len(), "one arena entry per distinct path");
        // Identical (source, edges) pairs got identical ids.
        for (pa, ia) in &originals {
            for (pb, ib) in &originals {
                let same = pa.source() == pb.source() && pa.edges() == pb.edges();
                prop_assert_eq!(same, ia == ib);
            }
        }
    }

    #[test]
    fn path_store_matches_first_occurrence_model(
        pool_len in 1usize..300,
        picks in proptest::collection::vec(any::<u64>(), 0..600),
        seed in any::<u64>(),
    ) {
        // A pool of paths over a small alphabet: zero-hop paths from
        // several sources, shared edge prefixes, and every third entry
        // repeating an earlier entry's edges under another source. The
        // store only keys on (source, edges), so vertices after the
        // first are derived from them.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<(Vec<VertexId>, Vec<EdgeId>)> = Vec::with_capacity(pool_len);
        while pool.len() < pool_len {
            let source = rng.gen_range(0..6) as VertexId;
            let edges: Vec<EdgeId> = match pool.len() % 3 {
                2 => pool[rng.gen_range(0..pool.len())].1.clone(),
                _ => (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..8)).collect(),
            };
            let mut vertices = vec![source];
            for &e in &edges {
                vertices.push((vertices[vertices.len() - 1] + e + 1) % 16);
            }
            pool.push((vertices, edges));
        }
        // The model: distinct (source, edges) keys in first-interning
        // order; a key's position is its id.
        let mut model: Vec<(VertexId, &[EdgeId])> = Vec::new();
        let mut store = PathStore::new();
        for pick in picks {
            let (vertices, edges) = &pool[pick as usize % pool.len()];
            let key = (vertices[0], &edges[..]);
            let known = model.iter().position(|k| *k == key);
            prop_assert_eq!(store.find(vertices, edges).map(|id| id.index()), known);
            let id = store.intern_parts(vertices, edges);
            let want = known.unwrap_or_else(|| {
                model.push(key);
                model.len() - 1
            });
            prop_assert_eq!(id.index(), want);
            prop_assert_eq!(store.len(), model.len());
        }
        for (vertices, edges) in &pool {
            let key = (vertices[0], &edges[..]);
            let want = model.iter().position(|k| *k == key);
            prop_assert_eq!(store.find(vertices, edges).map(|id| id.index()), want);
            if let Some(id) = store.find(vertices, edges) {
                prop_assert_eq!(store.vertices(id), &vertices[..]);
                prop_assert_eq!(store.edges(id), &edges[..]);
            }
        }
        let ids: Vec<usize> = store.ids().map(|id| id.index()).collect();
        prop_assert_eq!(ids, (0..model.len()).collect::<Vec<_>>());
    }

    #[test]
    fn csr_laplacian_apply_matches_edge_walk_bitwise(
        g in connected_multigraph(),
        seed in any::<u64>(),
    ) {
        // The CSR-flattened apply replaced the per-iteration
        // `Graph::edges` walk inside CG; the swap is legal only because
        // the two accumulate identical addends in identical per-vertex
        // order. Pin that *bitwise* on random weighted multigraphs
        // (parallel edges included) — any reassociation would silently
        // change solver trajectories and break template fingerprints.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f64> = (0..g.m()).map(|_| 0.1 + rng.gen::<f64>() * 9.9).collect();
        let x: Vec<f64> = (0..g.n()).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
        let lap = CsrLaplacian::new(&g, &w);
        let mut y_csr = vec![0.0; g.n()];
        lap.apply(&x, &mut y_csr);
        // The reference: the textbook edge walk in edge-id order.
        let mut y_ref = vec![0.0; g.n()];
        for (e, (u, v)) in g.edges() {
            let c = w[e as usize];
            let d = x[u as usize] - x[v as usize];
            y_ref[u as usize] += c * d;
            y_ref[v as usize] -= c * d;
        }
        for v in 0..g.n() {
            prop_assert_eq!(
                y_csr[v].to_bits(), y_ref[v].to_bits(),
                "vertex {}: csr {} != reference {}", v, y_csr[v], y_ref[v]
            );
        }
    }

    #[test]
    fn hypercube_edge_ids_are_a_bijection(d in 1u32..7) {
        let g = generators::hypercube(d);
        let mut seen = vec![false; g.m()];
        for v in 0..(1u32 << d) {
            for b in 0..d {
                if v < v ^ (1 << b) {
                    let e = generators::hypercube_edge(d, v, b);
                    prop_assert!(!seen[e as usize], "duplicate edge id");
                    seen[e as usize] = true;
                }
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    #[test]
    fn all_distinct_matches_hash_set_reference(
        vertices in proptest::collection::vec(0 as VertexId..12, 0..16),
    ) {
        // Short slices over a small alphabet hit both answers often.
        let mut seen = std::collections::HashSet::new();
        let reference = vertices.iter().all(|v| seen.insert(*v));
        prop_assert_eq!(ssor_graph::all_distinct(&vertices), reference);
    }
}
