//! Exact integral optima on tiny instances, by branch-and-bound.
//!
//! `opt_{G,Z}(d)` (Section 4) is NP-hard in general; the experiments use the
//! fractional optimum as a lower bound. These exact solvers exist to
//! validate that substitution on instances small enough to enumerate, and
//! to compute the `opt = 1` baselines of the Section 8 lower-bound graphs.

use crate::demand::Demand;
use crate::routing::IntegralRouting;
use ssor_graph::ksp::all_simple_paths;
use ssor_graph::{Graph, Path, VertexId};
use std::collections::BTreeMap;

/// Exact minimum integral congestion where each unit packet must pick one
/// path from its candidate list. Branch-and-bound over packets in order,
/// pruning on the running max congestion. Exponential — use only when
/// `prod |candidates|` is tiny.
///
/// Returns the optimal congestion and one witnessing routing, or `None`
/// if some packet has no candidates.
///
/// # Panics
///
/// Panics if `d` is not integral.
pub fn integral_opt_restricted(
    g: &Graph,
    d: &Demand,
    candidates: &BTreeMap<(VertexId, VertexId), Vec<Path>>,
) -> Option<(u64, IntegralRouting)> {
    assert!(d.is_integral());
    // Expand to unit packets.
    let mut packets: Vec<(VertexId, VertexId)> = Vec::new();
    for ((s, t), w) in d.iter() {
        for _ in 0..(w.round() as usize) {
            packets.push((s, t));
        }
    }
    if packets.is_empty() {
        return Some((0, IntegralRouting::new()));
    }
    for &(s, t) in &packets {
        if candidates.get(&(s, t)).is_none_or(|c| c.is_empty()) {
            return None;
        }
    }

    let mut best = u64::MAX;
    let mut best_choice: Vec<usize> = Vec::new();
    let mut choice = vec![0usize; packets.len()];
    let mut loads = vec![0u64; g.m()];

    #[allow(clippy::too_many_arguments)] // branch-and-bound state threaded explicitly
    fn rec(
        i: usize,
        packets: &[(VertexId, VertexId)],
        candidates: &BTreeMap<(VertexId, VertexId), Vec<Path>>,
        loads: &mut Vec<u64>,
        choice: &mut Vec<usize>,
        best: &mut u64,
        best_choice: &mut Vec<usize>,
        current_max: u64,
    ) {
        if current_max >= *best {
            return; // prune
        }
        if i == packets.len() {
            *best = current_max;
            *best_choice = choice.clone();
            return;
        }
        let (s, t) = packets[i];
        for (ci, p) in candidates[&(s, t)].iter().enumerate() {
            let mut new_max = current_max;
            for &e in p.edges() {
                loads[e as usize] += 1;
                new_max = new_max.max(loads[e as usize]);
            }
            choice[i] = ci;
            rec(
                i + 1,
                packets,
                candidates,
                loads,
                choice,
                best,
                best_choice,
                new_max,
            );
            for &e in p.edges() {
                loads[e as usize] -= 1;
            }
        }
    }

    rec(
        0,
        &packets,
        candidates,
        &mut loads,
        &mut choice,
        &mut best,
        &mut best_choice,
        0,
    );

    // Reassemble the witness.
    let mut per_pair: BTreeMap<(VertexId, VertexId), Vec<Path>> = BTreeMap::new();
    for (i, &(s, t)) in packets.iter().enumerate() {
        per_pair
            .entry((s, t))
            .or_default()
            .push(candidates[&(s, t)][best_choice[i]].clone());
    }
    let mut ir = IntegralRouting::new();
    for ((s, t), ps) in per_pair {
        ir.set_paths(s, t, ps);
    }
    Some((best, ir))
}

/// Exact `opt_{G,Z}(d)` over *all* simple paths of hop length at most
/// `hop_limit`, via exhaustive enumeration plus [`integral_opt_restricted`].
/// Only for tiny graphs.
pub fn integral_opt_exhaustive(
    g: &Graph,
    d: &Demand,
    hop_limit: usize,
) -> Option<(u64, IntegralRouting)> {
    let mut candidates: BTreeMap<(VertexId, VertexId), Vec<Path>> = BTreeMap::new();
    for (s, t) in d.support() {
        let paths = all_simple_paths(g, s, t, hop_limit);
        if paths.is_empty() {
            return None;
        }
        candidates.insert((s, t), paths);
    }
    integral_opt_restricted(g, d, &candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_graph::generators;

    #[test]
    fn empty_demand() {
        let g = generators::ring(4);
        let (c, _) = integral_opt_exhaustive(&g, &Demand::new(), 4).unwrap();
        assert_eq!(c, 0);
    }

    #[test]
    fn two_packets_on_cycle_use_disjoint_sides() {
        let g = generators::ring(4);
        let d = Demand::from_pairs(&[(0, 2)]).scaled(2.0);
        let (c, ir) = integral_opt_exhaustive(&g, &d, 4).unwrap();
        assert_eq!(c, 1, "one packet per side of the cycle");
        assert!(ir.routes(&d));
        assert_eq!(ir.congestion(&g), 1);
    }

    #[test]
    fn forced_overlap_gives_congestion_two() {
        // Path graph: both packets must share the middle edge.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let d = Demand::from_pairs(&[(0, 2)]).scaled(2.0);
        let (c, _) = integral_opt_exhaustive(&g, &d, 3).unwrap();
        assert_eq!(c, 2);
    }

    #[test]
    fn fractional_lower_bounds_integral() {
        use crate::solver::{min_congestion_unrestricted, SolveOptions};
        let g = generators::grid(3, 3);
        let d = Demand::from_pairs(&[(0, 8), (6, 2), (3, 5)]);
        let (int_opt, _) = integral_opt_exhaustive(&g, &d, 6).unwrap();
        let frac = min_congestion_unrestricted(&g, &d, &SolveOptions::default());
        assert!(
            frac.lower_bound <= int_opt as f64 + 1e-9,
            "fractional LB {} must lower-bound integral OPT {}",
            frac.lower_bound,
            int_opt
        );
    }

    #[test]
    fn restricted_candidates_respected() {
        let g = generators::ring(6);
        let mut cands = BTreeMap::new();
        cands.insert(
            (0u32, 3u32),
            vec![Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap()],
        );
        let d = Demand::from_pairs(&[(0, 3)]).scaled(3.0);
        let (c, ir) = integral_opt_restricted(&g, &d, &cands).unwrap();
        assert_eq!(c, 3, "single candidate forces full overlap");
        assert!(ir.routes(&d));
    }

    #[test]
    fn missing_candidates_yield_none() {
        let g = generators::ring(4);
        let d = Demand::from_pairs(&[(0, 2)]);
        let cands = BTreeMap::new();
        assert!(integral_opt_restricted(&g, &d, &cands).is_none());
    }
}
