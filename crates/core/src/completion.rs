//! Completion-time (congestion + dilation) semi-oblivious routing —
//! Section 7 of the paper.
//!
//! The construction of Lemmas 2.8/2.9: pick geometric hop scales
//! `h_1 = 1, h_{i+1} = ceil(h_i * log n)` (or `n^{1/α}` steps in the
//! low-sparsity case), take an `α`-sample from a *hop-constrained*
//! oblivious routing at every scale, and union the samples. To route a
//! demand, solve Stage 4 on each scale's sub-system and keep whichever
//! scale minimizes `congestion + dilation`.

use crate::sample::alpha_sample;
use rand::Rng;
use ssor_flow::solver::{min_congestion_restricted, SolveOptions};
use ssor_flow::{Demand, Routing};
use ssor_graph::{Graph, PathSystem, VertexId};
use ssor_oblivious::{HopConstrainedRouting, HopOptions};

/// How the hop scales grow between levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleGrowth {
    /// `h_{i+1} = ceil(h_i * log2 n)` — the Lemma 2.8 (logarithmic
    /// sparsity) ladder with `O(log n / log log n)` scales.
    Log,
    /// `h_{i+1} = ceil(h_i * n^{1/α})` — the Lemma 2.9 (low sparsity)
    /// ladder with `O(α)` scales.
    Poly {
        /// The sparsity parameter `α`.
        alpha: usize,
    },
}

/// Options for [`CompletionTimeRouter::build`].
#[derive(Debug, Clone)]
pub struct CompletionOptions {
    /// Paths sampled per pair per scale.
    pub alpha: usize,
    /// Scale ladder growth rule.
    pub growth: ScaleGrowth,
    /// Options for the per-scale hop-constrained routings.
    pub hop: HopOptions,
}

impl Default for CompletionOptions {
    fn default() -> Self {
        CompletionOptions {
            alpha: 4,
            growth: ScaleGrowth::Log,
            hop: HopOptions::default(),
        }
    }
}

/// The union-of-scales path system with per-scale routing support.
#[derive(Debug)]
pub struct CompletionTimeRouter {
    graph: Graph,
    /// Hop budget per scale (increasing).
    scales: Vec<usize>,
    /// `α`-sample per scale.
    per_scale: Vec<PathSystem>,
    /// Union of all per-scale systems (the object whose sparsity
    /// Lemmas 2.8/2.9 bound).
    union: PathSystem,
}

/// A completion-time routing outcome.
#[derive(Debug, Clone)]
pub struct CompletionRoute {
    /// The chosen routing.
    pub routing: Routing,
    /// Its max edge congestion.
    pub congestion: f64,
    /// Its dilation (max hops used).
    pub dilation: usize,
    /// Index into [`CompletionTimeRouter::scales`] of the winning scale.
    pub scale_index: usize,
}

impl CompletionRoute {
    /// The completion-time objective `congestion + dilation`.
    pub fn objective(&self) -> f64 {
        self.congestion + self.dilation as f64
    }
}

impl CompletionTimeRouter {
    /// Builds the ladder: hop-constrained routing + `α`-sample per scale.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or `pairs` is empty.
    pub fn build<R: Rng>(
        g: &Graph,
        pairs: &[(VertexId, VertexId)],
        opts: &CompletionOptions,
        rng: &mut R,
    ) -> Self {
        assert!(!pairs.is_empty());
        let n = g.n() as f64;
        let factor = match opts.growth {
            ScaleGrowth::Log => n.log2().max(2.0),
            ScaleGrowth::Poly { alpha } => n.powf(1.0 / alpha as f64).max(2.0),
        };
        let mut scales = vec![1usize];
        while *scales.last().unwrap() < g.n() {
            let next = ((*scales.last().unwrap() as f64) * factor).ceil() as usize;
            scales.push(next.min(g.n()));
            if *scales.last().unwrap() >= g.n() {
                break;
            }
        }

        let mut per_scale = Vec::with_capacity(scales.len());
        let mut union = PathSystem::new();
        for &h in &scales {
            let hop_routing = HopConstrainedRouting::build(g, h, &opts.hop, rng);
            let ps = alpha_sample(&hop_routing, pairs, opts.alpha, rng);
            union.append(ps.clone());
            per_scale.push(ps);
        }
        CompletionTimeRouter {
            graph: g.clone(),
            scales,
            per_scale,
            union,
        }
    }

    /// The hop-scale ladder.
    pub fn scales(&self) -> &[usize] {
        &self.scales
    }

    /// The union path system; its sparsity is what Lemma 2.8 bounds by
    /// `O((log n / log log n)^2)` (resp. `α^2` for Lemma 2.9).
    pub fn path_system(&self) -> &PathSystem {
        &self.union
    }

    /// Routes `d` at every scale and returns the scale minimizing
    /// `congestion + dilation` (the completion-time objective, Section 7).
    ///
    /// # Panics
    ///
    /// Panics if some scale misses coverage for `d`'s support (cannot
    /// happen for systems built over the demand's pairs).
    pub fn route(&self, d: &Demand, opts: &SolveOptions) -> CompletionRoute {
        assert!(!d.is_empty(), "empty demand has nothing to route");
        let mut best: Option<CompletionRoute> = None;
        for (i, ps) in self.per_scale.iter().enumerate() {
            let sol = min_congestion_restricted(&self.graph, d, ps, opts);
            // A scale that strands demand would win the objective
            // precisely because it fails to route traffic — enforce the
            // documented coverage contract instead.
            assert!(
                sol.stranded == 0.0,
                "scale {i} misses coverage: {} mass stranded on pairs {:?}",
                sol.stranded,
                sol.dropped_pairs
            );
            let dil = sol.routing.dilation(d);
            let cand = CompletionRoute {
                congestion: sol.congestion,
                dilation: dil,
                routing: sol.routing,
                scale_index: i,
            };
            if best
                .as_ref()
                .is_none_or(|b| cand.objective() < b.objective())
            {
                best = Some(cand);
            }
        }
        best.expect("at least one scale")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::generators;

    #[test]
    fn ladder_reaches_the_diameter() {
        let g = generators::ring(16);
        let pairs = vec![(0u32, 8u32), (1, 9)];
        let mut rng = StdRng::seed_from_u64(1);
        let r = CompletionTimeRouter::build(&g, &pairs, &Default::default(), &mut rng);
        assert_eq!(r.scales()[0], 1);
        assert!(
            *r.scales().last().unwrap() >= 8,
            "top scale must reach the diameter"
        );
        for w in r.scales().windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn poly_growth_uses_fewer_scales() {
        let g = generators::ring(32);
        let pairs = vec![(0u32, 16u32)];
        let mut rng = StdRng::seed_from_u64(2);
        let log = CompletionTimeRouter::build(&g, &pairs, &Default::default(), &mut rng);
        let poly = CompletionTimeRouter::build(
            &g,
            &pairs,
            &CompletionOptions {
                growth: ScaleGrowth::Poly { alpha: 1 },
                ..Default::default()
            },
            &mut rng,
        );
        assert!(poly.scales().len() <= log.scales().len());
    }

    #[test]
    fn sparsity_is_alpha_times_scales() {
        let g = generators::hypercube(4);
        let d = Demand::hypercube_complement(4);
        let pairs = d.support();
        let mut rng = StdRng::seed_from_u64(3);
        let opts = CompletionOptions {
            alpha: 3,
            ..Default::default()
        };
        let r = CompletionTimeRouter::build(&g, &pairs, &opts, &mut rng);
        assert!(
            r.path_system().sparsity() <= 3 * r.scales().len(),
            "union sparsity {} vs bound {}",
            r.path_system().sparsity(),
            3 * r.scales().len()
        );
    }

    #[test]
    fn routing_picks_reasonable_objective() {
        // Barbell: clique pairs can use short intra-clique paths; the
        // completion router should not pick needlessly long detours.
        let g = generators::barbell(5, 4);
        let d = Demand::from_pairs(&[(0, 1), (2, 3)]);
        let pairs = d.support();
        let mut rng = StdRng::seed_from_u64(4);
        let r = CompletionTimeRouter::build(&g, &pairs, &Default::default(), &mut rng);
        let out = r.route(&d, &SolveOptions::default());
        assert!(
            out.dilation <= 4,
            "intra-clique traffic must stay short, got {}",
            out.dilation
        );
        assert!(out.objective() <= 6.0, "objective {}", out.objective());
    }

    #[test]
    fn dilation_of_scale_limited_routes() {
        // On a ring, antipodal traffic needs dilation >= n/2; the chosen
        // scale must accommodate that.
        let g = generators::ring(12);
        let d = Demand::from_pairs(&[(0, 6)]);
        let mut rng = StdRng::seed_from_u64(5);
        let r = CompletionTimeRouter::build(&g, &d.support(), &Default::default(), &mut rng);
        let out = r.route(&d, &SolveOptions::default());
        assert!(out.dilation >= 6);
        assert!(out.congestion <= 1.0 + 1e-9);
    }
}
