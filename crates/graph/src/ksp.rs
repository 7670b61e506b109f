//! Yen's k-shortest simple paths.
//!
//! Used as the SMORE-era baseline path selector (`KspRouting` in
//! `ssor-oblivious`) and for enumerating candidate paths on small graphs.

use crate::graph::{EdgeId, Graph, VertexId};
use crate::path::Path;
use crate::shortest_path::dijkstra_tree;
use std::collections::HashSet;

/// Dijkstra restricted to non-banned edges/vertices, used for spur paths.
fn restricted_shortest(
    g: &Graph,
    s: VertexId,
    t: VertexId,
    len: &dyn Fn(EdgeId) -> f64,
    banned_edges: &HashSet<EdgeId>,
    banned_vertices: &HashSet<VertexId>,
) -> Option<Path> {
    if banned_vertices.contains(&s) || banned_vertices.contains(&t) {
        return None;
    }
    let big = 1e18;
    let wrapped = |e: EdgeId| -> f64 {
        if banned_edges.contains(&e) {
            big
        } else {
            let (u, v) = g.endpoints(e);
            if banned_vertices.contains(&u) || banned_vertices.contains(&v) {
                big
            } else {
                len(e)
            }
        }
    };
    let tree = dijkstra_tree(g, s, &wrapped);
    if tree.dist[t as usize] >= big {
        return None;
    }
    tree.path_to(g, t)
}

/// Total length of a path under `len`.
fn path_len(p: &Path, len: &dyn Fn(EdgeId) -> f64) -> f64 {
    p.edges().iter().map(|&e| len(e)).sum()
}

/// The `k` shortest *simple* paths from `s` to `t` under per-edge lengths,
/// in nondecreasing length order (Yen's algorithm). Returns fewer than `k`
/// paths when fewer simple paths exist.
///
/// # Examples
///
/// ```
/// use ssor_graph::{generators, ksp::k_shortest_paths};
///
/// let g = generators::ring(6);
/// let paths = k_shortest_paths(&g, 0, 3, 2, &|_| 1.0);
/// assert_eq!(paths.len(), 2); // clockwise and counter-clockwise
/// assert_eq!(paths[0].hop(), 3);
/// assert_eq!(paths[1].hop(), 3);
/// ```
pub fn k_shortest_paths(
    g: &Graph,
    s: VertexId,
    t: VertexId,
    k: usize,
    len: &dyn Fn(EdgeId) -> f64,
) -> Vec<Path> {
    if k == 0 || s == t {
        return Vec::new();
    }
    let mut result: Vec<Path> = Vec::new();
    let first = match restricted_shortest(g, s, t, len, &HashSet::new(), &HashSet::new()) {
        Some(p) => p,
        None => return Vec::new(),
    };
    result.push(first);

    // Candidate pool: (length, path). Deduplicate by vertex sequence.
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut seen: HashSet<Vec<VertexId>> = HashSet::new();
    seen.insert(result[0].vertices().to_vec());

    while result.len() < k {
        let prev = result
            .last()
            .expect("result starts with the shortest path")
            .clone();
        // Spur from each vertex of the previous path.
        for i in 0..prev.hop() {
            let spur_node = prev.vertices()[i];
            let root_vertices = &prev.vertices()[..=i];
            let root_edges = &prev.edges()[..i];

            let mut banned_edges: HashSet<EdgeId> = HashSet::new();
            for r in &result {
                if r.vertices().len() > i && r.vertices()[..=i] == *root_vertices {
                    banned_edges.insert(r.edges()[i]);
                }
            }
            let banned_vertices: HashSet<VertexId> = root_vertices[..i].iter().copied().collect();

            if let Some(spur) =
                restricted_shortest(g, spur_node, t, len, &banned_edges, &banned_vertices)
            {
                let root = Path::from_edges(g, s, root_edges).expect("root is a valid prefix");
                let total = root.concat(&spur);
                if total.is_simple() && seen.insert(total.vertices().to_vec()) {
                    let l = path_len(&total, len);
                    candidates.push((l, total));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Pop the shortest candidate (deterministic tie-break by vertex seq).
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, (la, pa)), (_, (lb, pb))| {
                la.total_cmp(lb)
                    .then_with(|| pa.vertices().cmp(pb.vertices()))
            })
            .map(|(i, _)| i)
            .expect("candidate pool checked non-empty above");
        let (_, path) = candidates.swap_remove(best);
        result.push(path);
    }
    result
}

/// All simple `(s, t)`-paths with at most `hop_limit` hops, by DFS. Exponential
/// in general; intended only for tiny test graphs (exact integral optimum).
pub fn all_simple_paths(g: &Graph, s: VertexId, t: VertexId, hop_limit: usize) -> Vec<Path> {
    let mut out = Vec::new();
    let mut verts = vec![s];
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut on_path = vec![false; g.n()];
    on_path[s as usize] = true;

    fn dfs(
        g: &Graph,
        t: VertexId,
        hop_limit: usize,
        verts: &mut Vec<VertexId>,
        edges: &mut Vec<EdgeId>,
        on_path: &mut Vec<bool>,
        out: &mut Vec<Path>,
    ) {
        let cur = *verts.last().expect("DFS stack seeded with s");
        if cur == t {
            out.push(Path::from_edges_unchecked(verts.clone(), edges.clone()));
            return;
        }
        if edges.len() == hop_limit {
            return;
        }
        for a in g.neighbors(cur) {
            if !on_path[a.to as usize] {
                on_path[a.to as usize] = true;
                verts.push(a.to);
                edges.push(a.edge);
                dfs(g, t, hop_limit, verts, edges, on_path, out);
                edges.pop();
                verts.pop();
                on_path[a.to as usize] = false;
            }
        }
    }

    dfs(
        g,
        t,
        hop_limit,
        &mut verts,
        &mut edges,
        &mut on_path,
        &mut out,
    );
    out
}

impl Path {
    /// Internal constructor used by exhaustive enumeration, where validity
    /// is guaranteed by construction.
    pub(crate) fn from_edges_unchecked(vertices: Vec<VertexId>, edges: Vec<EdgeId>) -> Path {
        debug_assert_eq!(vertices.len(), edges.len() + 1);
        Path::raw(vertices, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ksp_on_ring_finds_both_directions() {
        let g = generators::ring(8);
        let ps = k_shortest_paths(&g, 0, 2, 3, &|_| 1.0);
        assert_eq!(ps.len(), 2, "a cycle has exactly two simple s-t paths");
        assert_eq!(ps[0].hop(), 2);
        assert_eq!(ps[1].hop(), 6);
        for p in &ps {
            assert!(p.is_simple());
            assert!(p.is_valid(&g));
        }
    }

    #[test]
    fn ksp_lengths_nondecreasing() {
        let g = generators::grid(3, 4);
        let ps = k_shortest_paths(&g, 0, 11, 6, &|_| 1.0);
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].hop() <= w[1].hop());
        }
        // All distinct.
        let mut keys: Vec<_> = ps.iter().map(|p| p.vertices().to_vec()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), ps.len());
    }

    #[test]
    fn ksp_k_zero_or_same_endpoints() {
        let g = generators::ring(5);
        assert!(k_shortest_paths(&g, 0, 1, 0, &|_| 1.0).is_empty());
        assert!(k_shortest_paths(&g, 2, 2, 3, &|_| 1.0).is_empty());
    }

    #[test]
    fn ksp_respects_lengths() {
        // Square with one heavy edge: 0-1 heavy, 0-3-2-1 light.
        let g = Graph::from_edges(4, &[(0, 1), (0, 3), (3, 2), (2, 1)]);
        let lens = [10.0, 1.0, 1.0, 1.0];
        let ps = k_shortest_paths(&g, 0, 1, 2, &|e| lens[e as usize]);
        assert_eq!(ps[0].vertices(), &[0, 3, 2, 1]);
        assert_eq!(ps[1].vertices(), &[0, 1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative or NaN length")]
    fn nan_poisoned_length_fails_at_the_source() {
        // A NaN edge length (a poisoned weight reaching the baseline KSP
        // selector) used to surface as a `partial_cmp().unwrap()` panic
        // deep in the candidate-pool `min_by`; now Dijkstra's sentinel
        // names the poisoned edge the moment the length is read.
        let g = generators::grid(3, 3);
        let poisoned = g.edges_between(4, 5)[0];
        let len = |e: EdgeId| -> f64 {
            if e == poisoned {
                f64::NAN
            } else {
                1.0
            }
        };
        let _ = k_shortest_paths(&g, 0, 8, 4, &len);
    }

    #[test]
    fn infinite_lengths_keep_candidate_order_deterministic() {
        // Overflowed (infinite) path lengths must not destabilize the
        // candidate pool: `total_cmp` orders +inf after every finite
        // length and the vertex-sequence tie-break keeps equal-length
        // candidates in one canonical order, so the selection is a pure
        // function of the input.
        let g = generators::grid(3, 3);
        let heavy = g.edges_between(0, 1)[0];
        // Any path using the heavy edge sums to +inf.
        let len = |e: EdgeId| -> f64 {
            if e == heavy {
                f64::INFINITY
            } else {
                1.0
            }
        };
        let ps = k_shortest_paths(&g, 0, 8, 6, &len);
        assert!(!ps.is_empty());
        for p in &ps {
            assert!(p.is_simple());
            assert!(p.is_valid(&g));
        }
        assert!(ps[0].edges().iter().all(|&e| e != heavy));
        let again = k_shortest_paths(&g, 0, 8, 6, &len);
        assert_eq!(ps, again);
    }

    #[test]
    fn all_simple_paths_on_cycle() {
        let g = generators::ring(5);
        let ps = all_simple_paths(&g, 0, 2, 5);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert!(p.is_simple());
            assert!(p.is_valid(&g));
        }
    }

    #[test]
    fn all_simple_paths_hop_capped() {
        let g = generators::ring(7);
        let ps = all_simple_paths(&g, 0, 3, 3);
        assert_eq!(ps.len(), 1, "only the 3-hop side fits the cap");
    }

    #[test]
    fn ksp_agrees_with_exhaustive_on_small_graphs() {
        let g = generators::grid(2, 3);
        let all = all_simple_paths(&g, 0, 5, 10);
        let ks = k_shortest_paths(&g, 0, 5, all.len() + 3, &|_| 1.0);
        assert_eq!(ks.len(), all.len());
        let mut hops_a: Vec<usize> = all.iter().map(|p| p.hop()).collect();
        let hops_k: Vec<usize> = ks.iter().map(|p| p.hop()).collect();
        hops_a.sort_unstable();
        assert_eq!(hops_a, hops_k);
    }
}
