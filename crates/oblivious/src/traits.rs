//! The oblivious-routing abstraction (Section 4 of the paper).
//!
//! An oblivious routing `R = {R(s, t)}` fixes, independently of the demand,
//! a distribution over simple `(s, t)`-paths for every pair. The paper's
//! semi-oblivious construction (Definition 5.2) only ever *samples* from
//! `R(s, t)`. Writing `R(s, t)` into a [`Distributions`] sink is the one
//! required method; everything else (sampling, materializing
//! distributions, exact congestion) has default implementations that
//! concrete routings can specialize.

use rand::{Rng, RngCore};
use ssor_flow::Demand;
use ssor_graph::obs::StageProfile;
use ssor_graph::{
    push_new, Distributions, EdgeId, EdgeLoads, Graph, Path, PathId, PathStore, VertexId,
};

/// An oblivious routing over a fixed graph.
///
/// Implementations must guarantee that [`sample_path`](Self::sample_path)
/// returns a *simple* path from `s` to `t`, and that
/// [`write_distribution`](Self::write_distribution) writes the exact
/// (finite) distribution that `sample_path` draws from.
pub trait ObliviousRouting {
    /// The graph this routing is defined over.
    fn graph(&self) -> &Graph;

    /// Draws one path from `R(s, t)`. The default scans the written
    /// distribution with one deviate ([`Distributions::sample_open`]), so
    /// the caller's RNG picks *within* a fixed support; templates with a
    /// cheaper exact sampler override it.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `s == t` or vertices are out of range.
    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path {
        written(self, s, t)
            .sample_open(rng.gen::<f64>())
            .expect("R(s, t) is never empty")
    }

    /// Draws `draws` paths from `R(s, t)` with replacement, interns each
    /// into `store`, and appends to `out` the id of every draw not
    /// already in it, in first-draw order — the set semantics of
    /// Definition 5.2, one call per pair.
    ///
    /// The result (arena included) and the RNG state afterwards are
    /// exactly those of `draws` calls of
    /// [`sample_path`](Self::sample_path), each interned and pushed
    /// through [`ssor_graph::push_new`]. The default is that loop. A
    /// template overrides it when it can skip the owned [`Path`] or
    /// repeated work per draw: a tree mixture draws a tree, not a path,
    /// and walks each distinct tree once; Valiant streams each draw's
    /// walk straight into `store`; KSP computes its `k` paths once per
    /// pair, and ECMP its shortest-path counts.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `s == t` or vertices are out of range.
    fn sample_into(
        &self,
        s: VertexId,
        t: VertexId,
        draws: usize,
        rng: &mut dyn RngCore,
        store: &mut PathStore,
        out: &mut Vec<PathId>,
    ) {
        for _ in 0..draws {
            push_new(out, store.intern(&self.sample_path(s, t, rng)));
        }
    }

    /// Pushes `R(s, t)` onto `out`'s (empty) open run as `(path,
    /// probability)` entries summing to 1 up to float residue, identical
    /// paths merged, in the template's canonical order. Callers then
    /// [`Distributions::commit`] it or read it raw.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `s == t` or vertices are out of range.
    fn write_distribution(&self, s: VertexId, t: VertexId, out: &mut Distributions);

    /// The full distribution `R(s, t)` as owned `(path, probability)`
    /// pairs — the boundary accessor, materializing exactly what
    /// [`write_distribution`](Self::write_distribution) writes.
    fn path_distribution(&self, s: VertexId, t: VertexId) -> Vec<(Path, f64)> {
        let out = written(self, s, t);
        let store = out.store();
        out.open()
            .iter()
            .map(|&(id, w)| (store.materialize(id), w))
            .collect()
    }

    /// Marginal edge probabilities `P[e in R(s, t)]`, sparse.
    ///
    /// The default sort-merges the distribution's `(edge, weight)` pairs
    /// — `O(k log k)` in the support's total edge count `k`, with no
    /// hashing and no `O(m)` dense pass per pair — and returns them in
    /// edge-id order; routings with huge supports (e.g. ECMP) can
    /// override with closed-form marginals.
    fn edge_marginals(&self, s: VertexId, t: VertexId) -> Vec<(EdgeId, f64)> {
        let out = written(self, s, t);
        let mut acc: Vec<(EdgeId, f64)> = Vec::new();
        for &(id, w) in out.open() {
            acc.extend(out.store().edges(id).iter().map(|&e| (e, w)));
        }
        // Stable sort: entries sharing an edge keep distribution order,
        // so the per-edge f64 summation order (and with it the last bit
        // of every marginal) is pinned across toolchains.
        acc.sort_by_key(|&(e, _)| e);
        let mut out: Vec<(EdgeId, f64)> = Vec::new();
        for (e, w) in acc {
            match out.last_mut() {
                Some(last) if last.0 == e => last.1 += w,
                _ => out.push((e, w)),
            }
        }
        out
    }

    /// Exact `cong(R, d)` (Section 4), computed from edge marginals.
    fn congestion(&self, d: &Demand) -> f64 {
        let mut load = EdgeLoads::for_graph(self.graph());
        for ((s, t), w) in d.iter() {
            for (e, p) in self.edge_marginals(s, t) {
                load.add(e, w * p);
            }
        }
        load.max()
    }

    /// `dil(R, d)`: maximum hop length in the supports used by `d`.
    fn dilation(&self, d: &Demand) -> usize {
        let mut best = 0;
        for ((s, t), _) in d.iter() {
            let out = written(self, s, t);
            for &(id, w) in out.open() {
                if w > 0.0 {
                    best = best.max(out.store().hop(id));
                }
            }
        }
        best
    }

    /// Per-stage construction timings, for templates that track them
    /// (the Räcke/FRT builders and the precomputed electrical template
    /// do; cheap deterministic templates return `None`). The engine
    /// surfaces these next to its solver stats so a run reports where
    /// template time went.
    fn build_profile(&self) -> Option<&StageProfile> {
        None
    }
}

/// `R(s, t)` written onto the open run of a fresh sink.
fn written<O: ObliviousRouting + ?Sized>(r: &O, s: VertexId, t: VertexId) -> Distributions {
    let mut out = Distributions::new();
    r.write_distribution(s, t, &mut out);
    out
}

/// Checks the structural contract of an implementation on the given pairs:
/// simple valid paths with correct endpoints, no path listed twice,
/// positive probabilities summing to 1. Intended for tests.
pub fn validate_oblivious_routing<O: ObliviousRouting + ?Sized>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
) -> Result<(), String> {
    let g = routing.graph();
    for &(s, t) in pairs {
        let out = written(routing, s, t);
        let (store, run) = (out.store(), out.open());
        let total: f64 = run.iter().map(|&(_, w)| w).sum();
        if run.is_empty() || (total - 1.0).abs() > 1e-6 {
            let k = run.len();
            return Err(format!(
                "({s}, {t}): {k} paths, probabilities sum to {total}"
            ));
        }
        for (i, &(id, w)) in run.iter().enumerate() {
            let problem = if w <= 0.0 {
                "nonpositive weight"
            } else if store.source(id) != s || store.target(id) != t {
                "wrong endpoints"
            } else if !store.is_valid(id, g) {
                "invalid path"
            } else if !store.is_simple(id) {
                "non-simple path"
            } else if run.iter().take(i).any(|&(seen, _)| seen == id) {
                "duplicate path"
            } else {
                continue;
            };
            let p = store.materialize(id);
            return Err(format!("({s}, {t}): {problem} {p:?} (weight {w})"));
        }
    }
    Ok(())
}
