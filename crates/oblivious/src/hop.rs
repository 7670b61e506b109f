//! Hop-constrained oblivious routing — the GHZ21 interface, simulated.
//!
//! Section 7 of the paper consumes hop-constrained oblivious routings
//! `[GHZ21]` as a black box: an `h`-hop routing with hop-stretch `β` must
//! satisfy `dil(R, d) <= β h` for all demands while keeping congestion
//! competitive with the best `h`-hop routing. The real GHZ21 construction
//! (hop-constrained expander decompositions) is a paper-sized project on
//! its own; per the substitution policy in DESIGN.md we build the closest
//! faithful stand-in:
//!
//! * a **landmark Valiant** scheme — route `s -> w -> t` through a random
//!   landmark, *rejecting* landmarks whose two legs exceed the hop budget —
//!   which enforces the dilation guarantee *structurally*;
//! * a shortest-path fallback when no landmark fits (in particular for
//!   pairs with `dist(s, t) > β h`, where no `h`-hop routing exists at
//!   all).
//!
//! The interface (`h`, `hop_stretch`, congestion measured empirically)
//! matches Theorem 7.1, which is all the Section 7 construction in
//! `ssor-core` uses.

use crate::traits::ObliviousRouting;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use ssor_graph::shortest_path::{bfs_trees_batch, SpTree};
use ssor_graph::{Distributions, Graph, Path, VertexId};

/// Options for [`HopConstrainedRouting::build`].
#[derive(Debug, Clone)]
pub struct HopOptions {
    /// Number of landmark vertices to sample.
    pub landmarks: usize,
    /// Hop-stretch `β`: paths are kept below `β * h` hops whenever the
    /// pair admits any `h`-hop path.
    pub hop_stretch: f64,
}

impl Default for HopOptions {
    fn default() -> Self {
        HopOptions {
            landmarks: 16,
            hop_stretch: 4.0,
        }
    }
}

/// An `h`-hop oblivious routing with structural dilation control.
#[derive(Debug)]
pub struct HopConstrainedRouting {
    graph: Graph,
    h: usize,
    hop_stretch: f64,
    landmarks: Vec<VertexId>,
    /// BFS tree per landmark (legs are read out of these).
    landmark_trees: Vec<SpTree>,
    /// BFS tree per vertex for the shortest-path fallback legs `s -> w`.
    source_trees: Vec<SpTree>,
}

impl HopConstrainedRouting {
    /// Builds the routing for hop budget `h >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected, `h == 0`, or `opts.landmarks == 0`.
    pub fn build<R: Rng + ?Sized>(g: &Graph, h: usize, opts: &HopOptions, rng: &mut R) -> Self {
        assert!(h >= 1, "hop budget must be positive");
        assert!(opts.landmarks >= 1);
        assert!(g.is_connected());
        let mut all: Vec<VertexId> = g.vertices().collect();
        all.shuffle(rng);
        let landmarks: Vec<VertexId> = all.into_iter().take(opts.landmarks).collect();
        // Both tree families fan out over rayon workers in source-index
        // order, so the build is bit-identical at any thread count.
        let landmark_trees = bfs_trees_batch(g, &landmarks);
        let sources: Vec<VertexId> = g.vertices().collect();
        let source_trees = bfs_trees_batch(g, &sources);
        HopConstrainedRouting {
            graph: g.clone(),
            h,
            hop_stretch: opts.hop_stretch,
            landmarks,
            landmark_trees,
            source_trees,
        }
    }

    /// Hop cap `β * h` (rounded up).
    fn cap(&self) -> usize {
        (self.hop_stretch * self.h as f64).ceil() as usize
    }

    /// Indices of landmarks usable for `(s, t)` under the hop cap.
    fn feasible_landmarks(&self, s: VertexId, t: VertexId) -> Vec<usize> {
        let cap = self.cap();
        (0..self.landmarks.len())
            .filter(|&i| {
                let tr = &self.landmark_trees[i];
                let legs = tr.dist_to(s) + tr.dist_to(t);
                legs.is_finite() && legs as usize <= cap
            })
            .collect()
    }

    /// The two-leg path through landmark index `i`, shortcut to simple.
    fn path_via(&self, s: VertexId, t: VertexId, i: usize) -> Path {
        let tr = &self.landmark_trees[i];
        let leg1 = tr
            .path_to(&self.graph, s)
            .expect("connected graph")
            .reversed();
        let leg2 = tr.path_to(&self.graph, t).expect("connected graph");
        leg1.concat(&leg2).shortcut()
    }

    /// Shortest-path fallback.
    fn fallback(&self, s: VertexId, t: VertexId) -> Path {
        self.source_trees[s as usize]
            .path_to(&self.graph, t)
            .expect("connected graph")
    }
}

impl ObliviousRouting for HopConstrainedRouting {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        assert_ne!(s, t);
        let feasible = self.feasible_landmarks(s, t);
        if feasible.is_empty() {
            return self.fallback(s, t);
        }
        let i = feasible[rng.gen_range(0..feasible.len())];
        self.path_via(s, t, i)
    }

    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions) {
        assert_ne!(s, t);
        let feasible = self.feasible_landmarks(s, t);
        if feasible.is_empty() {
            out.push(&self.fallback(s, t), 1.0);
            return;
        }
        let w = 1.0 / feasible.len() as f64;
        for i in feasible {
            out.push(&self.path_via(s, t, i), w);
        }
        out.merge_open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_oblivious_routing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_flow::Demand;
    use ssor_graph::generators;

    #[test]
    fn respects_hop_cap_when_feasible() {
        let g = generators::hypercube(4); // diameter 4
        let mut rng = StdRng::seed_from_u64(1);
        let r = HopConstrainedRouting::build(
            &g,
            4,
            &HopOptions {
                landmarks: 8,
                hop_stretch: 2.0,
            },
            &mut rng,
        );
        for s in [0u32, 5] {
            for t in g.vertices() {
                if s == t {
                    continue;
                }
                for (p, _) in r.path_distribution(s, t) {
                    assert!(
                        p.hop() <= 8
                            || p.hop() == ssor_graph::shortest_path::hop_distance(&g, s, t),
                        "path of {} hops exceeds cap",
                        p.hop()
                    );
                }
            }
        }
    }

    #[test]
    fn fallback_on_tight_budget_is_shortest_path() {
        // Budget 1 with stretch 1: nothing fits through a landmark except
        // trivial cases, so the fallback shortest path is used.
        let g = generators::ring(8);
        let mut rng = StdRng::seed_from_u64(2);
        let r = HopConstrainedRouting::build(
            &g,
            1,
            &HopOptions {
                landmarks: 4,
                hop_stretch: 1.0,
            },
            &mut rng,
        );
        let p = r.sample_path(0, 4, &mut StdRng::seed_from_u64(3));
        assert_eq!(p.hop(), 4, "fallback must be the 4-hop shortest path");
    }

    #[test]
    fn validates_as_oblivious_routing() {
        let g = generators::grid(3, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let r = HopConstrainedRouting::build(&g, 5, &Default::default(), &mut rng);
        let pairs: Vec<(u32, u32)> = vec![(0, 11), (1, 10), (4, 7), (0, 1)];
        validate_oblivious_routing(&r, &pairs).unwrap();
    }

    #[test]
    fn dilation_bounded_by_stretch_times_budget() {
        let g = generators::hypercube(4);
        let mut rng = StdRng::seed_from_u64(5);
        let h = 4;
        let opts = HopOptions {
            landmarks: 12,
            hop_stretch: 3.0,
        };
        let r = HopConstrainedRouting::build(&g, h, &opts, &mut rng);
        let d = Demand::hypercube_complement(4);
        let dil = r.dilation(&d);
        assert!(dil <= (3.0 * h as f64) as usize, "dil = {dil}");
    }

    #[test]
    fn larger_budgets_admit_more_landmarks() {
        let g = generators::ring(16);
        let mut rng = StdRng::seed_from_u64(6);
        let opts = HopOptions {
            landmarks: 16,
            hop_stretch: 2.0,
        };
        let tight = HopConstrainedRouting::build(&g, 2, &opts, &mut rng.clone());
        let loose = HopConstrainedRouting::build(&g, 8, &opts, &mut rng);
        let ft = tight.feasible_landmarks(0, 3).len();
        let fl = loose.feasible_landmarks(0, 3).len();
        assert!(
            fl >= ft,
            "loose budget ({fl}) should allow at least as many landmarks as tight ({ft})"
        );
    }
}
