//! Randomized rounding of fractional routings (Lemma 6.3) plus local-search
//! polish.
//!
//! Lemma 6.3 (the Rounding Lemma): for any routing `R` and integral demand
//! `d` there is a routing on `supp(R)` that is integral on `d` with
//! congestion at most `2 * cong(R, d) + 3 ln m`. The proof samples
//! `d(s, t)` paths per pair from `R(s, t)`; we do exactly that, keep the
//! best of several attempts, and then locally improve by moving single
//! packets off the most congested edges.

use crate::demand::Demand;
use crate::routing::{IntegralRouting, Routing};
use rand::Rng;
use ssor_graph::{Graph, PathId};

/// Statistics from a rounding run.
#[derive(Debug, Clone)]
pub struct RoundingOutcome {
    /// The integral routing produced.
    pub routing: IntegralRouting,
    /// Its max edge congestion.
    pub congestion: u64,
    /// The fractional congestion of the input on the same demand.
    pub fractional_congestion: f64,
    /// Number of sampling attempts consumed.
    pub attempts: usize,
}

impl RoundingOutcome {
    /// Whether the Lemma 6.3 guarantee `cong <= 2 cong_R + 3 ln m` holds.
    pub fn within_lemma_bound(&self, m: usize) -> bool {
        (self.congestion as f64) <= 2.0 * self.fractional_congestion + 3.0 * (m as f64).ln() + 1e-9
    }
}

/// Samples one integral routing: `d(s, t)` iid paths from `R(s, t)`.
///
/// # Panics
///
/// Panics if `d` is not integral or if `routing` does not cover `d`.
pub fn sample_integral<R: Rng + ?Sized>(
    routing: &Routing,
    d: &Demand,
    rng: &mut R,
) -> IntegralRouting {
    assert!(d.is_integral(), "rounding needs an integral demand");
    let mut out = IntegralRouting::new();
    for ((s, t), w) in d.iter() {
        let dist = routing
            .distribution(s, t)
            .unwrap_or_else(|| panic!("routing does not cover pair ({s}, {t})"));
        let count = w.round() as usize;
        let mut paths = Vec::with_capacity(count);
        for _ in 0..count {
            paths.push(
                routing
                    .store()
                    .materialize(sample_from_distribution(dist, rng)),
            );
        }
        out.set_paths(s, t, paths);
    }
    out
}

fn sample_from_distribution<R: Rng + ?Sized>(dist: &[(PathId, f64)], rng: &mut R) -> PathId {
    let total: f64 = dist.iter().map(|&(_, w)| w).sum();
    let mut x = rng.gen::<f64>() * total;
    for &(id, w) in dist {
        x -= w;
        if x <= 0.0 {
            return id;
        }
    }
    dist.last().expect("nonempty distribution").0
}

/// Lemma 6.3 rounding: best-of-`attempts` randomized rounding followed by
/// local search. The returned routing is integral on `d` and supported on
/// `supp(routing)`.
///
/// # Panics
///
/// Panics if `d` is not integral, `attempts == 0`, or coverage is missing.
pub fn round_routing<R: Rng + ?Sized>(
    g: &Graph,
    routing: &Routing,
    d: &Demand,
    attempts: usize,
    rng: &mut R,
) -> RoundingOutcome {
    assert!(attempts > 0);
    let frac = routing.congestion(g, d);
    let mut best: Option<IntegralRouting> = None;
    let mut best_cong = u64::MAX;
    let mut used = 0;
    for _ in 0..attempts {
        used += 1;
        let cand = sample_integral(routing, d, rng);
        let c = cand.congestion(g);
        if c < best_cong {
            best_cong = c;
            best = Some(cand);
        }
        // Early exit once we're under the lemma bound.
        if (best_cong as f64) <= 2.0 * frac + 3.0 * (g.m() as f64).ln() {
            break;
        }
    }
    let mut ir = best.expect("at least one attempt");
    local_search(g, routing, &mut ir);
    let congestion = ir.congestion(g);
    RoundingOutcome {
        routing: ir,
        congestion,
        fractional_congestion: frac,
        attempts: used,
    }
}

/// First-improvement local search: repeatedly take a packet crossing a
/// maximally congested edge and move it to the alternative supported path
/// minimizing the resulting maximum congestion along its own edges.
/// Terminates when no single move strictly improves.
fn local_search(g: &Graph, support: &Routing, ir: &mut IntegralRouting) {
    let store = support.store();
    let mut loads = ir.edge_loads(g);
    loop {
        let max_load = loads.iter().copied().max().unwrap_or(0);
        if max_load <= 1 {
            return;
        }
        let mut improved = false;
        let pairs: Vec<(u32, u32)> = ir.pairs().collect();
        'outer: for (s, t) in pairs {
            let Some(paths) = ir.paths(s, t).map(|p| p.to_vec()) else {
                continue;
            };
            let Some(dist) = support.distribution(s, t) else {
                continue;
            };
            for (pi, p) in paths.iter().enumerate() {
                // Only consider packets on a maximally congested edge.
                if !p.edges().iter().any(|&e| loads[e as usize] == max_load) {
                    continue;
                }
                // Tentatively remove this packet.
                for &e in p.edges() {
                    loads[e as usize] -= 1;
                }
                // Best alternative path: minimize its own max resulting load.
                let mut best_alt: Option<(usize, u64)> = None;
                for (ai, &(alt, _)) in dist.iter().enumerate() {
                    let worst = store
                        .edges(alt)
                        .iter()
                        .map(|&e| loads[e as usize] + 1)
                        .max()
                        .unwrap_or(0);
                    if best_alt.is_none_or(|(_, b)| worst < b) {
                        best_alt = Some((ai, worst));
                    }
                }
                let (ai, worst) = best_alt.expect("distribution nonempty");
                if worst < max_load {
                    // Commit the move.
                    let newp = store.materialize(dist[ai].0);
                    for &e in newp.edges() {
                        loads[e as usize] += 1;
                    }
                    let mut newpaths = paths.clone();
                    newpaths[pi] = newp;
                    ir.set_paths(s, t, newpaths);
                    improved = true;
                    break 'outer;
                } else {
                    // Revert.
                    for &e in p.edges() {
                        loads[e as usize] += 1;
                    }
                }
            }
        }
        if !improved {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::generators;
    use ssor_graph::Path;

    fn even_split_routing(g: &Graph, pairs: &[(u32, u32, Vec<Vec<u32>>)]) -> Routing {
        let mut r = Routing::new();
        for (s, t, vpaths) in pairs {
            let dist: Vec<(Path, f64)> = vpaths
                .iter()
                .map(|vs| (Path::from_vertices(g, vs).unwrap(), 1.0))
                .collect();
            r.set_distribution(*s, *t, dist);
        }
        r
    }

    #[test]
    fn sample_integral_respects_counts() {
        let g = generators::ring(6);
        let r = even_split_routing(&g, &[(0, 3, vec![vec![0, 1, 2, 3], vec![0, 5, 4, 3]])]);
        let d = Demand::from_pairs(&[(0, 3)]).scaled(5.0);
        let mut rng = StdRng::seed_from_u64(2);
        let ir = sample_integral(&r, &d, &mut rng);
        assert!(ir.routes(&d));
        assert_eq!(ir.paths(0, 3).unwrap().len(), 5);
    }

    #[test]
    fn rounding_meets_lemma_bound() {
        let g = generators::hypercube(3);
        // Fractional routing: split every complement pair over 2 candidate
        // shortest paths found by KSP.
        let d = Demand::hypercube_complement(3);
        let mut r = Routing::new();
        for (s, t) in d.support() {
            let ps = ssor_graph::ksp::k_shortest_paths(&g, s, t, 2, &|_| 1.0);
            r.set_distribution(s, t, ps.into_iter().map(|p| (p, 1.0)).collect());
        }
        let mut rng = StdRng::seed_from_u64(3);
        let out = round_routing(&g, &r, &d, 50, &mut rng);
        assert!(out.routing.routes(&d));
        assert!(
            out.within_lemma_bound(g.m()),
            "cong {} vs frac {} on m = {}",
            out.congestion,
            out.fractional_congestion,
            g.m()
        );
    }

    #[test]
    fn local_search_fixes_bad_assignment() {
        // Two parallel 2-hop routes; both packets start on the same route.
        let g = generators::ring(4); // 0-1-2-3-0
        let support = even_split_routing(&g, &[(0, 2, vec![vec![0, 1, 2], vec![0, 3, 2]])]);
        let mut ir = IntegralRouting::new();
        let p = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
        ir.set_paths(0, 2, vec![p.clone(), p]);
        assert_eq!(ir.congestion(&g), 2);
        local_search(&g, &support, &mut ir);
        assert_eq!(ir.congestion(&g), 1, "one packet should move to 0-3-2");
    }

    #[test]
    fn rounding_is_supported_on_input_routing() {
        let g = generators::grid(3, 3);
        let d = Demand::from_pairs(&[(0, 8), (2, 6)]);
        let mut r = Routing::new();
        for (s, t) in d.support() {
            let ps = ssor_graph::ksp::k_shortest_paths(&g, s, t, 3, &|_| 1.0);
            r.set_distribution(s, t, ps.into_iter().map(|p| (p, 1.0)).collect());
        }
        let mut rng = StdRng::seed_from_u64(4);
        let out = round_routing(&g, &r, &d, 10, &mut rng);
        for (s, t) in d.support() {
            let support = r.distribution(s, t).unwrap();
            for p in out.routing.paths(s, t).unwrap() {
                assert!(
                    support
                        .iter()
                        .any(|&(id, _)| r.store().edges(id) == p.edges()),
                    "rounded path must come from the support"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "integral demand")]
    fn rejects_fractional_demand() {
        let g = generators::ring(4);
        let r = even_split_routing(&g, &[(0, 2, vec![vec![0, 1, 2]])]);
        let mut d = Demand::new();
        d.set(0, 2, 0.5);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_integral(&r, &d, &mut rng);
    }
}
