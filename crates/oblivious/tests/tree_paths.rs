//! Streamed FRT tree paths against the concatenate-then-shortcut
//! definition they replace.
//!
//! `TreeRouting` assembles each `s -> t` path hop by hop from the
//! metric's shortest-path trees, removing loops as they close. The
//! reference here builds the same path the long way: owned shortest
//! paths between consecutive tree waypoints, concatenated, then made
//! simple by a stack walk with a hash-map position index. The two must
//! agree exactly, vertices and edge ids, on every pair of every tree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssor_graph::shortest_path::{dijkstra_tree, SpTree};
use ssor_graph::{generators, EdgeId, Graph, Path, VertexId};
use ssor_oblivious::{FrtTree, Metric, TreeRouting};
use std::collections::HashMap;
use std::sync::Arc;

/// A connected random multigraph: an Erdős–Rényi draw stitched to
/// connectivity plus a few parallel copies of existing edges.
fn connected_multigraph() -> impl Strategy<Value = Graph> {
    (2usize..=12, 0.05f64..0.7, 0usize..6, any::<u64>()).prop_map(|(n, p, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::erdos_renyi(n, p, &mut rng);
        let m = g.m() as EdgeId;
        for _ in 0..extra {
            let (u, v) = g.endpoints(rng.gen_range(0..m));
            g.add_edge(u, v);
        }
        g
    })
}

/// The reference shortcut: the stack walk with a hash-map position
/// index, as `(vertices, edges)`.
fn shortcut_reference(walk: &Path) -> (Vec<VertexId>, Vec<EdgeId>) {
    let vertices = walk.vertices();
    let mut stack_v = vec![walk.source()];
    let mut stack_e: Vec<EdgeId> = Vec::new();
    let mut pos: HashMap<VertexId, usize> = HashMap::from([(walk.source(), 0)]);
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

/// The FRT tree walk from `s` to `t`: up `s`'s center chain to the
/// lowest level where the two chains agree from there up, then down
/// `t`'s chain, without consecutive repeats.
fn waypoints_reference(tree: &FrtTree, s: VertexId, t: VertexId) -> Vec<VertexId> {
    let (cs, ct) = (tree.chain(s), tree.chain(t));
    let top = cs.len() - 1;
    let mut meet = top;
    while meet > 0 && cs[meet - 1] == ct[meet - 1] {
        meet -= 1;
    }
    let mut w: Vec<VertexId> = cs[..=meet].to_vec();
    w.extend(ct[..meet].iter().rev());
    w.dedup();
    w
}

/// The reference tree path: owned shortest paths between consecutive
/// waypoints, concatenated, then shortcut.
fn tree_path_reference(
    g: &Graph,
    sp: &[SpTree],
    tree: &FrtTree,
    s: VertexId,
    t: VertexId,
) -> (Vec<VertexId>, Vec<EdgeId>) {
    let wps = waypoints_reference(tree, s, t);
    let mut walk = Path::trivial(s);
    for w in wps.windows(2) {
        let segment = sp[w[0] as usize].path_to(g, w[1]).unwrap();
        walk = walk.concat(&segment);
    }
    shortcut_reference(&walk)
}

/// Checks every pair of `trees` FRT trees drawn for the metric `len`.
fn check_metric(
    g: &Graph,
    len: &(dyn Fn(EdgeId) -> f64 + Sync),
    trees: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let metric = Arc::new(Metric::build(g, len));
    let sp: Vec<SpTree> = g.vertices().map(|u| dijkstra_tree(g, u, len)).collect();
    for i in 0..trees {
        let tree = Arc::new(FrtTree::sample_seeded(&metric, g.n(), seed ^ i));
        let tr = TreeRouting::new(Arc::clone(&metric), Arc::clone(&tree));
        for s in g.vertices() {
            for t in g.vertices().filter(|&t| t != s) {
                let p = tr.path(g, s, t);
                let (vs, es) = tree_path_reference(g, &sp, &tree, s, t);
                prop_assert_eq!(p.vertices(), &vs[..], "tree {} pair ({}, {})", i, s, t);
                prop_assert_eq!(p.edges(), &es[..], "tree {} pair ({}, {})", i, s, t);
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn streamed_tree_paths_match_concat_then_shortcut(
        g in connected_multigraph(),
        seed in any::<u64>(),
    ) {
        // Hop metric: shortest paths tie everywhere, so the parent
        // chains carry the tie-breaking the stream must reproduce.
        check_metric(&g, &|_| 1.0, 3, seed)?;
        // Random small-integer lengths: ties again, plus long detours
        // whose segments overlap and close loops.
        let mut rng = StdRng::seed_from_u64(seed);
        let lens: Vec<f64> = (0..g.m()).map(|_| rng.gen_range(1..4) as f64).collect();
        check_metric(&g, &|e| lens[e as usize], 3, seed.rotate_left(17))?;
    }
}
