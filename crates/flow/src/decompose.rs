//! Flow path decomposition: turn a single-commodity edge flow into a
//! distribution over simple paths.
//!
//! Used by the electrical oblivious routing (`ssor-oblivious`), which
//! produces its `R(s, t)` as an *edge* flow (currents) and needs the
//! per-path view the paper's sampling construction consumes.

use ssor_graph::{EdgeId, Graph, Path, VertexId};

/// A signed single-commodity flow: `flow[e]` is the amount routed along
/// edge `e`, oriented from `endpoints(e).0` to `endpoints(e).1` (negative
/// means the opposite direction).
pub type EdgeFlow = Vec<f64>;

/// Net outflow of vertex `v` under `flow` (positive at the source).
fn net_outflow(g: &Graph, flow: &EdgeFlow, v: VertexId) -> f64 {
    let mut out = 0.0;
    for a in g.neighbors(v) {
        let (x, _) = g.endpoints(a.edge);
        let f = flow[a.edge as usize];
        // Edge stored as (x, y): +f leaves x, enters y.
        if x == v {
            out += f;
        } else {
            out -= f;
        }
    }
    out
}

/// Checks conservation: every vertex except `s` and `t` has zero net
/// outflow; `s` has `+value`, `t` has `-value` (within `tol`).
pub fn is_conserving(
    g: &Graph,
    flow: &EdgeFlow,
    s: VertexId,
    t: VertexId,
    value: f64,
    tol: f64,
) -> bool {
    g.vertices().all(|v| {
        let net = net_outflow(g, flow, v);
        let expect = if v == s {
            value
        } else if v == t {
            -value
        } else {
            0.0
        };
        (net - expect).abs() <= tol
    })
}

/// Decomposes a conserving, *acyclic* `s -> t` flow of total `value` into
/// weighted simple paths: repeatedly walk from `s` to `t` along positive
/// residual arcs, subtract the bottleneck. Cycles in the input are left
/// undecomposed (their flow simply never reaches `t`), so the returned
/// weights sum to `value` only for acyclic flows — electrical flows always
/// are.
///
/// Returns `(path, weight)` pairs with weights summing to (nearly) the
/// routed value; tiny residuals below `tol` are dropped.
///
/// # Panics
///
/// Panics if a walk exceeds `n` steps without reaching `t` with
/// meaningfully positive flow remaining — this indicates a cyclic input.
pub fn decompose(
    g: &Graph,
    mut flow: EdgeFlow,
    s: VertexId,
    t: VertexId,
    tol: f64,
) -> Vec<(Path, f64)> {
    assert_eq!(flow.len(), g.m());
    let mut out: Vec<(Path, f64)> = Vec::new();
    // Signed flow along the arc v -> other(e): positive when the stored
    // orientation leaves v.
    let arc_flow = |flow: &EdgeFlow, v: VertexId, e: EdgeId, g: &Graph| -> f64 {
        let (x, _) = g.endpoints(e);
        if x == v {
            flow[e as usize]
        } else {
            -flow[e as usize]
        }
    };
    loop {
        // Remaining outflow at s.
        let remaining = net_outflow(g, &flow, s);
        if remaining <= tol {
            break;
        }
        // Greedy walk along the largest-positive-flow arc (ties: lowest
        // edge id), which is deterministic and terminates on acyclic flow.
        let mut verts = vec![s];
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut cur = s;
        let mut bottleneck = f64::INFINITY;
        let mut steps = 0;
        while cur != t {
            steps += 1;
            assert!(
                steps <= g.n() + 1,
                "decompose walk did not reach the sink: cyclic flow?"
            );
            let best = g
                .neighbors(cur)
                .iter()
                .map(|a| (a.edge, a.to, arc_flow(&flow, cur, a.edge, g)))
                .filter(|&(_, _, f)| f > tol)
                .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)));
            let Some((e, to, f)) = best else {
                // Dead end with residual below tolerance: stop cleanly.
                return out;
            };
            bottleneck = bottleneck.min(f);
            verts.push(to);
            edges.push(e);
            cur = to;
        }
        // Subtract the bottleneck along the walk.
        for (i, &e) in edges.iter().enumerate() {
            let (x, _) = g.endpoints(e);
            if x == verts[i] {
                flow[e as usize] -= bottleneck;
            } else {
                flow[e as usize] += bottleneck;
            }
        }
        let path = Path::from_edges(g, s, &edges).expect("walk is a valid path");
        // Electrical walks follow strictly decreasing potential, hence are
        // simple; shortcut defensively anyway.
        out.push((path.shortcut(), bottleneck));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_graph::generators;

    #[test]
    fn single_path_flow_decomposes_to_itself() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let flow = vec![2.0, 2.0, 2.0];
        assert!(is_conserving(&g, &flow, 0, 3, 2.0, 1e-9));
        let d = decompose(&g, flow, 0, 3, 1e-9);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0.vertices(), &[0, 1, 2, 3]);
        assert!((d[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn split_flow_decomposes_to_two_paths() {
        // Ring of 4: flow 0 -> 2 split 0.75 / 0.25 over the two sides.
        let g = generators::ring(4); // edges: (0,1), (1,2), (2,3), (3,0)
        let flow = vec![0.75, 0.75, -0.25, -0.25];
        assert!(is_conserving(&g, &flow, 0, 2, 1.0, 1e-9));
        let d = decompose(&g, flow, 0, 2, 1e-9);
        assert_eq!(d.len(), 2);
        let total: f64 = d.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Largest component first (greedy).
        assert!((d[0].1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn reversed_orientation_flow_handled() {
        // Edge stored (0,1) but flow goes 1 -> 0.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let flow = vec![-1.5];
        assert!(is_conserving(&g, &flow, 1, 0, 1.5, 1e-9));
        let d = decompose(&g, flow, 1, 0, 1e-9);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0.vertices(), &[1, 0]);
    }

    #[test]
    fn weights_sum_to_value_on_random_acyclic_flows() {
        // Build an acyclic flow by pushing along BFS layers of a grid.
        let g = generators::grid(3, 3);
        // Two explicit paths 0->8.
        let p1 = [0u32, 1, 2, 5, 8];
        let p2 = [0u32, 3, 6, 7, 8];
        let mut flow = vec![0.0; g.m()];
        for (w, p) in [(0.6, &p1[..]), (0.4, &p2[..])] {
            for win in p.windows(2) {
                let e = g.edges_between(win[0], win[1])[0];
                let (x, _) = g.endpoints(e);
                flow[e as usize] += if x == win[0] { w } else { -w };
            }
        }
        assert!(is_conserving(&g, &flow, 0, 8, 1.0, 1e-9));
        let d = decompose(&g, flow, 0, 8, 1e-9);
        let total: f64 = d.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-6);
        for (p, _) in &d {
            assert!(p.is_simple());
            assert_eq!(p.source(), 0);
            assert_eq!(p.target(), 8);
        }
    }

    #[test]
    fn zero_flow_decomposes_to_nothing() {
        let g = generators::ring(4);
        let d = decompose(&g, vec![0.0; 4], 0, 2, 1e-9);
        assert!(d.is_empty());
    }

    #[test]
    fn nan_poisoned_flow_does_not_panic() {
        // A NaN-poisoned side of the ring (e.g. a solver overflow leaking
        // into the electrical currents) must not panic the greedy walk's
        // arc selection: the comparator is `total_cmp` and NaN arcs fail
        // the `f > tol` residual filter, so the clean side decomposes and
        // the poisoned mass is simply never walked.
        let g = generators::ring(4); // edges: (0,1), (1,2), (2,3), (3,0)
        let flow = vec![1.0, 1.0, f64::NAN, f64::NAN];
        let d = decompose(&g, flow, 0, 2, 1e-9);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0.vertices(), &[0, 1, 2]);
        assert!((d[0].1 - 1.0).abs() < 1e-9);
    }
}
