//! The constructive adversary of Lemma 8.1.
//!
//! Given *any* `(α - 1 + cut)`-sparse path system on `C(n, k)`, the proof
//! finds a permutation demand it routes badly, via two pigeonhole steps
//! and a Hall matching:
//!
//! 1. every cross pair `(s, t)` gets a *hitting set* `f(s, t)` of `α`
//!    middle vertices covering all its candidate paths (possible since
//!    every `V1 -> V2` path crosses the middle, and there are at most `α`
//!    candidates);
//! 2. pigeonhole over the at most `C(k, α) <= sqrt(n)` possible sets: some
//!    `f(s)` repeats for `sqrt(n)` targets of each `s`, and some `S'`
//!    repeats as `f(s)` for `sqrt(n)` sources;
//! 3. Hall's condition then yields a `k`-matching whose demand must cram
//!    `2k` edge-crossings through the `2α` edges at `S'` — congestion
//!    `>= k / α` while the optimum routes it with congestion 1 through
//!    distinct middles.
//!
//! This module implements that argument as an algorithm, so experiment E3
//! can run it against concrete sampled path systems.

use crate::graphs::CGraphMeta;
use ssor_core::PathSystem;
use ssor_flow::{Demand, IntegralRouting};
use ssor_graph::matching::BipartiteMatching;
use ssor_graph::{Graph, Path, VertexId};
use std::collections::{HashMap, HashSet};

/// Outcome of the adversary search.
#[derive(Debug, Clone)]
pub struct AdversaryResult {
    /// The permutation demand found (cross pairs, weight 1 each).
    pub demand: Demand,
    /// The pinned middle-vertex set `S'` every candidate path crosses.
    pub hitting_set: Vec<VertexId>,
    /// Number of matched pairs (`k` when the pigeonhole has full room).
    pub matched: usize,
    /// The implied lower bound `matched / |S'|` on the semi-oblivious
    /// congestion (the optimum is 1, so this is also a competitive-ratio
    /// lower bound).
    pub congestion_lower_bound: f64,
}

/// First middle vertex crossed by a path (given as its vertex sequence),
/// in path order.
fn first_middle(vertices: &[VertexId], middle: &HashSet<VertexId>) -> Option<VertexId> {
    vertices.iter().copied().find(|v| middle.contains(v))
}

/// The canonical hitting set `f(s, t)`: first middle vertex of each
/// candidate path, deduplicated, padded with the smallest unused middles
/// to exactly `alpha` elements, sorted. Returns `None` if more than
/// `alpha` middles are needed (the system is not `α`-sparse for the pair).
fn hitting_set(
    paths: &PathSystem,
    s: VertexId,
    t: VertexId,
    middle_set: &HashSet<VertexId>,
    middle_sorted: &[VertexId],
    alpha: usize,
) -> Option<Vec<VertexId>> {
    let mut set: Vec<VertexId> = Vec::new();
    if let Some(ids) = paths.path_ids(s, t) {
        let store = paths.store();
        for &id in ids {
            // Zero-copy: read the vertex sequence straight from the arena.
            let first = first_middle(store.vertices(id), middle_set)?;
            if !set.contains(&first) {
                set.push(first);
            }
        }
    }
    if set.len() > alpha {
        return None;
    }
    for &m in middle_sorted {
        if set.len() == alpha {
            break;
        }
        if !set.contains(&m) {
            set.push(m);
        }
    }
    set.sort_unstable();
    Some(set)
}

/// Runs the Lemma 8.1 adversary against a path system on `C(n, k)`.
///
/// `alpha` is the sparsity budget the hitting sets use (`|f(s, t)| = α`);
/// the returned demand forces congestion at least `matched / α` on any
/// routing supported by `paths`, versus an optimal congestion of 1.
///
/// Pairs whose candidate set needs more than `alpha` middles are skipped
/// (the adversary is only guaranteed against `α`-sparse systems).
///
/// # Panics
///
/// Panics if `alpha` exceeds the number of middle vertices.
pub fn find_adversarial_demand(
    meta: &CGraphMeta,
    paths: &PathSystem,
    alpha: usize,
) -> AdversaryResult {
    assert!(
        alpha <= meta.middle.len(),
        "alpha {alpha} exceeds middle count {}",
        meta.middle.len()
    );
    let middle_set: HashSet<VertexId> = meta.middle.iter().copied().collect();
    let middle_sorted: Vec<VertexId> = {
        let mut m = meta.middle.clone();
        m.sort_unstable();
        m
    };

    // Step 1+2a: per source, the most common hitting set over targets.
    // f_of[s] = (set, targets with that set).
    let mut f_of: HashMap<VertexId, (Vec<VertexId>, Vec<VertexId>)> = HashMap::new();
    for &s in &meta.left_leaves {
        let mut counter: HashMap<Vec<VertexId>, Vec<VertexId>> = HashMap::new();
        for &t in &meta.right_leaves {
            if let Some(set) = hitting_set(paths, s, t, &middle_set, &middle_sorted, alpha) {
                counter.entry(set).or_default().push(t);
            }
        }
        if let Some((set, ts)) = counter
            .into_iter()
            .max_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| b.0.cmp(&a.0)))
        {
            f_of.insert(s, (set, ts));
        }
    }

    // Step 2b: the most common f(s) across sources.
    let mut groups: HashMap<Vec<VertexId>, Vec<VertexId>> = HashMap::new();
    for (&s, (set, _)) in &f_of {
        groups.entry(set.clone()).or_default().push(s);
    }
    let (s_prime, mut sources) = groups
        .into_iter()
        .max_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| b.0.cmp(&a.0)))
        .expect("at least one group");
    sources.sort_unstable();

    // Step 3: Hall matching between (up to k) sources and their targets.
    let take = sources.len().min(meta.k);
    let chosen: Vec<VertexId> = sources.into_iter().take(take).collect();
    let mut target_ids: Vec<VertexId> = Vec::new();
    let mut target_index: HashMap<VertexId, u32> = HashMap::new();
    let adj: Vec<Vec<u32>> = chosen
        .iter()
        .map(|s| {
            let (_, ts) = &f_of[s];
            ts.iter()
                .map(|&t| {
                    *target_index.entry(t).or_insert_with(|| {
                        target_ids.push(t);
                        (target_ids.len() - 1) as u32
                    })
                })
                .collect()
        })
        .collect();
    let matching = BipartiteMatching::solve(chosen.len(), target_ids.len(), &adj);

    let mut demand = Demand::new();
    let mut matched = 0;
    for (li, &s) in chosen.iter().enumerate() {
        if matched == meta.k {
            break;
        }
        if let Some(ri) = matching.pair_of_left(li as u32) {
            demand.set(s, target_ids[ri as usize], 1.0);
            matched += 1;
        }
    }

    AdversaryResult {
        demand,
        congestion_lower_bound: matched as f64 / alpha as f64,
        hitting_set: s_prime,
        matched,
    }
}

/// The optimal routing witnessing `opt_{G,Z}(d) = 1` for an adversary
/// demand: route the `i`-th pair through the `i`-th middle vertex
/// (distinct middles, distinct leaf edges — every edge carries at most
/// one packet).
///
/// # Panics
///
/// Panics if the demand has more pairs than there are middle vertices or
/// contains non-cross pairs.
pub fn optimal_witness(g: &Graph, meta: &CGraphMeta, demand: &Demand) -> IntegralRouting {
    assert!(demand.support_len() <= meta.middle.len());
    let mut out = IntegralRouting::new();
    for (i, ((s, t), w)) in demand.iter().enumerate() {
        assert_eq!(w, 1.0, "adversary demands are permutations");
        let mid = meta.middle[i];
        let p = Path::from_vertices(g, &[s, meta.left_center, mid, meta.right_center, t])
            .expect("C(n,k) cross path");
        out.set_paths(s, t, vec![p]);
    }
    out
}

/// Certifies the lower bound combinatorially: every candidate path of
/// every demanded pair crosses the hitting set, hence any routing on
/// `paths` has congestion at least `siz(d) / |S'|` on the edges incident
/// to `S'`. Returns `Err` describing the first violation.
pub fn certify_hitting(paths: &PathSystem, result: &AdversaryResult) -> Result<(), String> {
    let set: HashSet<VertexId> = result.hitting_set.iter().copied().collect();
    for ((s, t), _) in result.demand.iter() {
        if let Some(ids) = paths.path_ids(s, t) {
            let store = paths.store();
            for &id in ids {
                if !store.vertices(id).iter().any(|v| set.contains(v)) {
                    return Err(format!(
                        "path {:?} for pair ({s}, {t}) avoids the hitting set",
                        store.materialize(id)
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{c_graph, k_for_alpha};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_core::sample::alpha_sample;
    use ssor_oblivious::KspRouting;

    /// A path system built by k-shortest-paths sampling on C(n, k) for all
    /// cross pairs.
    fn sampled_system(
        g: &ssor_graph::Graph,
        meta: &CGraphMeta,
        alpha: usize,
        seed: u64,
    ) -> PathSystem {
        let r = KspRouting::new(g, alpha);
        let pairs: Vec<(u32, u32)> = meta
            .left_leaves
            .iter()
            .flat_map(|&s| meta.right_leaves.iter().map(move |&t| (s, t)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        alpha_sample(&r, &pairs, alpha, &mut rng)
    }

    #[test]
    fn adversary_beats_sparse_system() {
        let n = 36;
        let alpha = 1;
        let k = k_for_alpha(n, alpha); // floor(36^{1/2}) = 6
        assert_eq!(k, 6);
        let (g, meta) = c_graph(n, k);
        let ps = sampled_system(&g, &meta, alpha, 7);
        let res = find_adversarial_demand(&meta, &ps, alpha);
        assert!(res.matched >= 2, "matched only {}", res.matched);
        assert!(res.demand.is_permutation());
        certify_hitting(&ps, &res).unwrap();
        // The optimum routes it with congestion 1.
        let opt = optimal_witness(&g, &meta, &res.demand);
        assert!(opt.routes(&res.demand));
        assert_eq!(opt.congestion(&g), 1);
    }

    #[test]
    fn certified_congestion_realized_by_lp() {
        // The restricted LP congestion must be at least matched / alpha.
        use ssor_flow::solver::{min_congestion_restricted, SolveOptions};
        let n = 16;
        let alpha = 2;
        let k = k_for_alpha(n, alpha); // 16^{1/4} = 2
        let (g, meta) = c_graph(n, k);
        let ps = sampled_system(&g, &meta, alpha, 3);
        let res = find_adversarial_demand(&meta, &ps, alpha);
        if res.demand.is_empty() {
            return; // degenerate tiny instance
        }
        let sol = min_congestion_restricted(&g, &res.demand, &ps, &SolveOptions::default());
        assert!(
            sol.congestion + 1e-6 >= res.congestion_lower_bound,
            "LP congestion {} below certified bound {}",
            sol.congestion,
            res.congestion_lower_bound
        );
    }

    #[test]
    fn hitting_set_pads_to_alpha() {
        let (g, meta) = c_graph(4, 3);
        let middle_set: HashSet<u32> = meta.middle.iter().copied().collect();
        let p = Path::from_vertices(
            &g,
            &[
                meta.left_leaves[0],
                meta.left_center,
                meta.middle[1],
                meta.right_center,
                meta.right_leaves[0],
            ],
        )
        .unwrap();
        let mut ps = PathSystem::new();
        let (s, t) = (p.source(), p.target());
        ps.insert(p);
        let hs = hitting_set(&ps, s, t, &middle_set, &meta.middle, 2).unwrap();
        assert_eq!(hs.len(), 2);
        assert!(hs.contains(&meta.middle[1]));
    }

    #[test]
    fn adversary_scales_with_k_over_alpha() {
        // With alpha = 1 on C(n, k), the bound is the full k.
        let n = 25;
        let (g, meta) = c_graph(n, 5);
        let ps = sampled_system(&g, &meta, 1, 11);
        let res = find_adversarial_demand(&meta, &ps, 1);
        assert!(
            res.congestion_lower_bound >= 2.0,
            "bound {} too weak",
            res.congestion_lower_bound
        );
        let _ = g;
    }
}
