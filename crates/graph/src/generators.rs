//! Graph families used throughout the paper and its experiments.
//!
//! Includes the classic parallel-computing topologies (hypercube, grid,
//! torus), random families (Erdős–Rényi, random-regular expanders, Waxman
//! WANs), and the paper's bespoke constructions (the two-cliques bridge
//! example of Section 2.1; `C(n,k)` and `G(n)` live in `ssor-lowerbound`).

use crate::graph::{Graph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// The `d`-dimensional hypercube: `2^d` vertices, vertex `v` adjacent to
/// `v ^ (1 << b)` for each bit `b < d`.
///
/// Edge ids are assigned in order of `(min endpoint, bit)`, so the edge
/// flipping bit `b` at vertex `v` (with `v`'s bit `b` clear) has a
/// deterministic id — the Valiant routing in `ssor-oblivious` relies on
/// [`hypercube_edge`] for O(1) lookup.
///
/// # Examples
///
/// ```
/// let g = ssor_graph::generators::hypercube(3);
/// assert_eq!(g.n(), 8);
/// assert_eq!(g.m(), 12);
/// assert!(g.vertices().all(|v| g.degree(v) == 3));
/// ```
pub fn hypercube(d: u32) -> Graph {
    assert!(
        (1..=25).contains(&d),
        "hypercube dimension must be in 1..=25"
    );
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for v in 0..n as VertexId {
        for b in 0..d {
            let w = v ^ (1 << b);
            if v < w {
                g.add_edge(v, w);
            }
        }
    }
    g
}

/// Id of the hypercube edge between `v` and `v ^ (1 << bit)` under the
/// numbering produced by [`hypercube`].
///
/// Works without touching the graph: vertex `u = min(v, v^bit)` has its
/// `bit`-th bit clear, and edges are emitted in `(u, bit)` lexicographic
/// order restricted to clear bits of `u`.
pub fn hypercube_edge(d: u32, v: VertexId, bit: u32) -> u32 {
    debug_assert!(bit < d);
    let u = v & !(1 << bit); // endpoint with the bit cleared
                             // Count edges emitted before (u, bit): all edges of vertices < u, plus
                             // clear bits of u below `bit`.
    let before_vertices: u64 = (0..u as u64)
        .map(|x| d as u64 - (x.count_ones() as u64))
        .sum();
    let clear_below = (!u & ((1u32 << bit) - 1)).count_ones();
    (before_vertices + clear_below as u64) as u32
}

/// `rows x cols` 2-D grid (mesh), vertex `(r, c)` at index `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
}

/// `rows x cols` 2-D torus (grid with wraparound). Requires `rows, cols >= 3`
/// so no parallel edges arise from the wraparound.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs both sides >= 3");
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| ((r % rows) * cols + (c % cols)) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            g.add_edge(id(r, c), id(r, c + 1));
            g.add_edge(id(r, c), id(r + 1, c));
        }
    }
    g
}

/// Cycle on `n >= 3` vertices.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3);
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v as VertexId, ((v + 1) % n) as VertexId);
    }
    g
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u as VertexId, v as VertexId);
        }
    }
    g
}

/// Star with `leaves` leaves; vertex 0 is the center.
pub fn star(leaves: usize) -> Graph {
    let mut g = Graph::new(leaves + 1);
    for v in 1..=leaves {
        g.add_edge(0, v as VertexId);
    }
    g
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: edges are sampled
/// independently, then any disconnected components are stitched to the
/// largest one with single edges (so the result is always connected, as the
/// paper assumes throughout).
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u as VertexId, v as VertexId);
            }
        }
    }
    connect_components(&mut g, rng);
    g
}

/// Random `d`-regular-ish graph via the configuration model with rejection
/// of self-loops and parallel edges; leftover stubs are dropped, then the
/// graph is stitched to be connected. For `d >= 3` this family is an
/// expander with high probability.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be below n");
    let mut g = Graph::new(n);
    let mut stubs: Vec<VertexId> = (0..n)
        .flat_map(|v| std::iter::repeat_n(v as VertexId, d))
        .collect();
    // A few restarts drive the leftover count down.
    for _ in 0..20 {
        stubs.shuffle(rng);
        let mut leftovers = Vec::new();
        let mut i = 0;
        while i + 1 < stubs.len() {
            let (u, v) = (stubs[i], stubs[i + 1]);
            if u != v && !g.has_edge_between(u, v) && g.degree(u) < d && g.degree(v) < d {
                g.add_edge(u, v);
            } else {
                leftovers.push(u);
                leftovers.push(v);
            }
            i += 2;
        }
        if leftovers.len() <= 2 {
            break;
        }
        stubs = leftovers;
    }
    connect_components(&mut g, rng);
    g
}

/// Waxman random WAN: `n` points uniform in the unit square; edge `(u, v)`
/// with probability `a * exp(-dist(u, v) / (b * L))` where `L = sqrt(2)`.
/// Returns the graph and the point positions. Stitched to be connected.
fn waxman<R: Rng + ?Sized>(n: usize, a: f64, b: f64, rng: &mut R) -> (Graph, Vec<(f64, f64)>) {
    let (mut g, pts) = waxman_raw(n, a, b, rng);
    connect_components(&mut g, rng);
    (g, pts)
}

/// The *raw* Waxman draw: like [`waxman`] but without the connectivity
/// stitch, so the result is a faithful sample from the Waxman model and
/// **may be disconnected** (isolated routers are likely for small `a`).
fn waxman_raw<R: Rng + ?Sized>(n: usize, a: f64, b: f64, rng: &mut R) -> (Graph, Vec<(f64, f64)>) {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let l = 2f64.sqrt();
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let d = ((pts[u].0 - pts[v].0).powi(2) + (pts[u].1 - pts[v].1).powi(2)).sqrt();
            if rng.gen_bool((a * (-d / (b * l)).exp()).clamp(0.0, 1.0)) {
                g.add_edge(u as VertexId, v as VertexId);
            }
        }
    }
    (g, pts)
}

/// SplitMix64 finalizer: the workspace's one seed-derivation primitive
/// (decorrelating per-pair sampling streams, retry seeds, failure-trial
/// seeds). When combining several indices into one seed, *nest* calls
/// (`mix_seed(mix_seed(a) ^ b)`) rather than XOR-ing two finalized
/// values — `mix_seed(a) ^ mix_seed(b)` is symmetric in `a` and `b` and
/// collides whenever the indices swap or coincide.
pub fn mix_seed(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A *connected* Waxman draw with deterministic, bounded retries: raw
/// draws are taken from seeds derived from `seed` (attempt `k` uses a
/// SplitMix64-mixed `seed ⊕ k` stream) until one is connected. If all
/// `max_attempts` draws are disconnected, the final fallback re-draws
/// from `seed` with the connectivity stitch, so the function
/// always returns a connected graph.
///
/// Returns `(graph, positions, attempts)` where `attempts` is the number
/// of raw draws that were *rejected* (0 means the first draw was already
/// connected; `max_attempts` means the stitched fallback fired). The
/// whole procedure is a pure function of `(n, a, b, seed)`.
///
/// # Panics
///
/// Panics if `max_attempts == 0`.
pub fn waxman_connected(
    n: usize,
    a: f64,
    b: f64,
    seed: u64,
    max_attempts: usize,
) -> (Graph, Vec<(f64, f64)>, usize) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    assert!(max_attempts >= 1, "need at least one attempt");
    for attempt in 0..max_attempts {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed ^ mix_seed(attempt as u64)));
        let (g, pts) = waxman_raw(n, a, b, &mut rng);
        if g.is_connected() {
            return (g, pts, attempt);
        }
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(seed ^ mix_seed(0)));
    let (g, pts) = waxman(n, a, b, &mut rng);
    (g, pts, max_attempts)
}

/// The two-cliques example of Section 2.1: two `size`-cliques joined by
/// `bridges` parallel-disjoint connecting edges (matching distinct clique
/// vertices). A single packet between the cliques *needs* `cut = bridges`
/// candidate paths to be competitive — this motivates `(α + cut)`-sparsity.
///
/// Vertices `0..size` form clique A, `size..2*size` clique B; bridge `i`
/// connects vertex `i` of A to vertex `i` of B (requires `bridges <= size`).
pub fn two_cliques_bridge(size: usize, bridges: usize) -> Graph {
    assert!(bridges <= size && size >= 2);
    let mut g = Graph::new(2 * size);
    for base in [0, size] {
        for u in 0..size {
            for v in (u + 1)..size {
                g.add_edge((base + u) as VertexId, (base + v) as VertexId);
            }
        }
    }
    for i in 0..bridges {
        g.add_edge(i as VertexId, (size + i) as VertexId);
    }
    g
}

/// Binary fat-tree of the given depth: leaves at the bottom, each internal
/// level doubling edge multiplicity toward the root (parallel edges model
/// the fattening). `depth = 3` gives 8 leaves.
pub fn fat_tree(depth: u32) -> Graph {
    assert!((1..=12).contains(&depth));
    let leaves = 1usize << depth;
    // Vertices: heap-indexed complete binary tree with 2 * leaves - 1 nodes.
    let total = 2 * leaves - 1;
    let mut g = Graph::new(total);
    for node in 1..total {
        let parent = (node - 1) / 2;
        // Depth of `node` in the tree (root = 0).
        let d_node = usize::BITS - (node + 1).leading_zeros() - 1;
        // Multiplicity doubles toward the root: leaves attach with 1 edge.
        let mult = 1u32 << (depth - d_node);
        for _ in 0..mult.max(1) {
            g.add_edge(parent as VertexId, node as VertexId);
        }
    }
    g
}

/// Two-tier leaf–spine Clos fabric: every leaf switch connects to every
/// spine switch with `uplink_mult` parallel edges (the fattened core),
/// and `hosts_per_leaf` hosts hang off each leaf with single edges.
///
/// Vertex layout: spines `0..spines`, leaves `spines..spines + leaves`,
/// then hosts in leaf order. Any single spine (or any single uplink) can
/// fail without disconnecting the fabric when `spines >= 2` — the
/// topology failure sweeps exercise.
///
/// # Examples
///
/// ```
/// let g = ssor_graph::generators::leaf_spine(4, 6, 2, 1);
/// assert_eq!(g.n(), 4 + 6 + 12);
/// assert_eq!(g.m(), 4 * 6 + 12);
/// assert!(g.is_connected());
/// ```
pub fn leaf_spine(spines: usize, leaves: usize, hosts_per_leaf: usize, uplink_mult: u32) -> Graph {
    assert!(spines >= 1 && leaves >= 1 && uplink_mult >= 1);
    let n = spines + leaves + leaves * hosts_per_leaf;
    let mut g = Graph::new(n);
    for leaf in 0..leaves {
        let leaf_v = (spines + leaf) as VertexId;
        for spine in 0..spines {
            for _ in 0..uplink_mult {
                g.add_edge(spine as VertexId, leaf_v);
            }
        }
        for h in 0..hosts_per_leaf {
            let host_v = (spines + leaves + leaf * hosts_per_leaf + h) as VertexId;
            g.add_edge(leaf_v, host_v);
        }
    }
    g
}

/// Barbell: two cliques of `size` joined by a path of `path_len` edges.
/// Useful for completion-time experiments (long detours vs congestion).
pub fn barbell(size: usize, path_len: usize) -> Graph {
    assert!(size >= 2 && path_len >= 1);
    let n = 2 * size + path_len - 1;
    let mut g = Graph::new(n);
    for base in [0, size] {
        for u in 0..size {
            for v in (u + 1)..size {
                g.add_edge((base + u) as VertexId, (base + v) as VertexId);
            }
        }
    }
    // Path from vertex 0 (clique A) through fresh vertices to vertex `size`
    // (clique B).
    let mut prev = 0 as VertexId;
    for i in 0..path_len {
        let next = if i + 1 == path_len {
            size as VertexId
        } else {
            (2 * size + i) as VertexId
        };
        g.add_edge(prev, next);
        prev = next;
    }
    g
}

/// Connects a possibly-disconnected graph by linking each non-primary
/// component to a random vertex of the first component.
fn connect_components<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) {
    let n = g.n();
    if n == 0 {
        return;
    }
    let mut comp = vec![usize::MAX; n];
    let mut reps: Vec<VertexId> = Vec::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let c = reps.len();
        reps.push(s as VertexId);
        let mut stack = vec![s as VertexId];
        comp[s] = c;
        while let Some(v) = stack.pop() {
            for a in g.neighbors(v).to_vec() {
                if comp[a.to as usize] == usize::MAX {
                    comp[a.to as usize] = c;
                    stack.push(a.to);
                }
            }
        }
    }
    for (c, &rep) in reps.iter().enumerate().skip(1) {
        // Attach to a random vertex of component 0.
        let candidates: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| comp[v as usize] == 0)
            .collect();
        let anchor = *candidates.choose(rng).unwrap();
        let _ = c;
        g.add_edge(anchor, rep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hypercube_sizes() {
        for d in 1..=6 {
            let g = hypercube(d);
            assert_eq!(g.n(), 1 << d);
            assert_eq!(g.m(), (d as usize) << (d - 1));
            assert!(g.is_connected());
            assert!(g.vertices().all(|v| g.degree(v) == d as usize));
        }
    }

    #[test]
    fn hypercube_edge_lookup_matches_graph() {
        for d in 1..=5u32 {
            let g = hypercube(d);
            for v in 0..(1u32 << d) {
                for b in 0..d {
                    let e = hypercube_edge(d, v, b);
                    let (x, y) = g.endpoints(e);
                    assert_eq!(
                        (x.min(y), x.max(y)),
                        (v.min(v ^ (1 << b)), v.max(v ^ (1 << b))),
                        "d={d} v={v} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_and_torus() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());

        let t = torus(3, 4);
        assert_eq!(t.n(), 12);
        assert_eq!(t.m(), 2 * 12);
        assert!(t.vertices().all(|v| t.degree(v) == 4));
    }

    #[test]
    fn ring_complete_star() {
        assert_eq!(ring(5).m(), 5);
        assert_eq!(complete(6).m(), 15);
        let s = star(7);
        assert_eq!(s.n(), 8);
        assert_eq!(s.degree(0), 7);
        assert!(s.is_connected());
    }

    #[test]
    fn erdos_renyi_is_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in [0.0, 0.05, 0.5] {
            let g = erdos_renyi(40, p, &mut rng);
            assert!(g.is_connected(), "p={p}");
            assert_eq!(g.n(), 40);
        }
    }

    #[test]
    fn random_regular_degrees_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(50, 4, &mut rng);
        assert!(g.is_connected());
        // Stitching may add a few edges; degrees should be near 4.
        let total_deg: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert!(total_deg >= 50 * 3, "total degree {total_deg}");
    }

    #[test]
    fn waxman_stitched_is_connected() {
        let mut rng = StdRng::seed_from_u64(11);
        let (g, pts) = waxman(30, 0.4, 0.2, &mut rng);
        assert!(g.is_connected());
        assert_eq!(pts.len(), 30);
    }

    #[test]
    fn two_cliques_counts() {
        let g = two_cliques_bridge(5, 3);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 2 * 10 + 3);
        assert!(g.is_connected());
    }

    #[test]
    fn fat_tree_shape() {
        let g = fat_tree(3);
        assert_eq!(g.n(), 15);
        assert!(g.is_connected());
        // Root-child edges have multiplicity 2^(depth-1) = 4.
        assert_eq!(g.edges_between(0, 1).len(), 4);
        // Leaf edges have multiplicity 1.
        assert_eq!(g.edges_between(3, 7).len(), 1);
    }

    #[test]
    fn waxman_raw_matches_model_and_can_disconnect() {
        // With a = 0 the raw draw has no edges at all (disconnected for
        // n >= 2), while the stitched variant still connects.
        let mut rng = StdRng::seed_from_u64(1);
        let (raw, pts) = waxman_raw(8, 0.0, 0.2, &mut rng);
        assert_eq!(raw.m(), 0);
        assert!(!raw.is_connected());
        assert_eq!(pts.len(), 8);
        let mut rng = StdRng::seed_from_u64(1);
        let (stitched, _) = waxman(8, 0.0, 0.2, &mut rng);
        assert!(stitched.is_connected());
    }

    #[test]
    fn waxman_connected_is_deterministic_and_connected() {
        for seed in 0..8u64 {
            let (g1, _, att1) = waxman_connected(16, 0.4, 0.25, seed, 16);
            let (g2, _, att2) = waxman_connected(16, 0.4, 0.25, seed, 16);
            assert!(g1.is_connected(), "seed {seed}");
            assert_eq!(att1, att2);
            assert_eq!(
                g1.edges().collect::<Vec<_>>(),
                g2.edges().collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn waxman_connected_falls_back_to_stitching() {
        // a = 0 can never draw a connected raw graph; the bounded retry
        // must exhaust and fall back to the stitched draw.
        let (g, _, attempts) = waxman_connected(6, 0.0, 0.2, 3, 4);
        assert_eq!(attempts, 4);
        assert!(g.is_connected());
    }

    #[test]
    fn leaf_spine_shape_and_resilience() {
        let g = leaf_spine(3, 4, 2, 2);
        assert_eq!(g.n(), 3 + 4 + 8);
        assert_eq!(g.m(), 2 * 3 * 4 + 8);
        assert!(g.is_connected());
        // Leaf 0 reaches every spine with multiplicity 2.
        assert_eq!(g.edges_between(3, 0).len(), 2);
        // Any one spine can die: hosts still reach each other through the
        // other spines.
        let mut sub = g.sub_topology();
        for a in g.neighbors(0) {
            sub.fail_edge(a.edge);
        }
        assert!(
            sub.reaches((3 + 4) as VertexId, (3 + 4 + 7) as VertexId),
            "hosts survive a spine failure"
        );
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 3);
        assert_eq!(g.n(), 4 + 4 + 2);
        assert!(g.is_connected());
    }
}
