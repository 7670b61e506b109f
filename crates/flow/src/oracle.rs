//! Best-response path oracles for the min-congestion solver.
//!
//! The Frank–Wolfe loop in [`crate::solver`] is oracle-driven: each
//! iteration asks "cheapest usable path per demanded pair" under the
//! current edge weights. Restricting the oracle restricts the LP —
//! [`CandidateOracle`] over an explicit candidate set gives the
//! semi-oblivious Stage-4 problem (Definition 5.1), [`AllPathsOracle`]
//! over every simple path gives offline OPT (Section 4), and the same
//! all-paths oracle with an edge mask ([`AllPathsOracle::masked`]) gives
//! the offline optimum of a failure-damaged topology. The mask is
//! *configuration*, not a separate oracle type: both instantiations run
//! the one [`ssor_graph::EdgeView`]-generic Dijkstra, so damaged and
//! intact solves cannot drift.
//!
//! # Parallelism and determinism
//!
//! Oracle batches are embarrassingly parallel — the paper's pipeline
//! samples and routes pairs independently (Definition 5.2), and a
//! Dijkstra sweep per source is pure computation. [`AllPathsOracle`]
//! sorts queries by source once and cuts the sources into contiguous
//! blocks that fan out over rayon workers, one reusable
//! [`DijkstraWorkspace`] per block. Each source's sweep stops as soon as
//! that source's targets are settled; under the core's total
//! `(dist, vertex)` pop order a settled vertex's cost and parent chain
//! are final, so the truncation cannot change a path or a cost. Block
//! results are merged back **in source-index order** and each target's
//! parent chain is interned serially, so the returned ids, costs, and the
//! arena's interning order are bit-identical to a serial full-tree sweep
//! at any worker count — the same discipline as the engine's
//! `par_alpha_sample`. A single block skips the fan-out entirely (the
//! shim spawns threads per call, which only amortizes over enough
//! Dijkstra work); block size and cutoff affect wall-clock only, never
//! results.
//!
//! # Per-solve work
//!
//! A Frank–Wolfe solve asks about one pair list over and over; only the
//! weights change. [`CandidateOracle`] therefore does its per-pair work
//! once per pair list, not once per call: it resolves each pair's
//! candidate slice when the list changes (one `BTreeMap` lookup per pair
//! per solve) and remembers, per candidate slot, the id the path was
//! interned under in the caller's arena. A repeated best response then
//! costs no hash probe. The memo is sound for any caller: before a
//! remembered id is returned, [`PathStore::is_copy_of`] checks that the
//! store handed to *this* call holds the candidate's path under that id
//! — true exactly when `intern_from` would return it — so an oracle
//! shared by two solvers, or reused across warm re-solves, never returns
//! an id from another arena. A failed check interns afresh. Arena
//! contents, ids and costs are those of interning every answer anew.
//! The ≥ 1024-pair parallel cost scan is unchanged; its answers are
//! interned serially in pair order, as before.
//!
//! # Unreachable pairs
//!
//! `best_paths` reports pairs with no usable path as `None` instead of
//! panicking: a failure sweep with a large knockout can legitimately
//! disconnect a demanded pair mid-trial. Under nonnegative finite
//! weights reachability is weight-independent, so a pair is `None`
//! either on every call or on none — the solver drops such pairs once,
//! at initialization, and reports their demand mass as *stranded* (see
//! `MinCongSolution::stranded`).

use ssor_graph::shortest_path::{dijkstra_targets, DijkstraWorkspace};
use ssor_graph::{par_ordered_map, EdgeId, Graph, PathId, PathStore, PathSystem, VertexId};

/// Oracle answering "cheapest usable path per pair" under edge weights.
pub trait PathOracle {
    /// For each pair `(s, t)`, interns the minimum-weight usable path
    /// into `store` and returns `(id, weight)` under `w` (indexed by
    /// edge id), or `None` when the pair has no usable path at all (no
    /// candidate, or unreachable through usable edges). The result is
    /// index-aligned with `pairs`; pairs are distinct.
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>>;
}

/// Oracle over the candidates of a [`PathSystem`]: each pair's best
/// response is its cheapest candidate.
///
/// Pairs without candidates come back `None`; the solver treats their
/// demand as stranded.
///
/// The oracle looks up a pair list's candidates once, when the list
/// changes, and remembers where each candidate was interned; a
/// remembered id is checked against the store each call is handed (see
/// the module docs, *Per-solve work*), so reusing one oracle across
/// solvers or arenas is sound.
#[derive(Debug)]
pub struct CandidateOracle<'a> {
    paths: &'a PathSystem,
    /// The pair list `runs` was resolved for.
    pairs: Vec<(VertexId, VertexId)>,
    /// Per pair, its candidate ids (empty without candidates) and the
    /// index of its first slot in `interned`.
    runs: Vec<(&'a [PathId], usize)>,
    /// Per candidate slot, the caller-arena id it was last interned
    /// under, if any.
    interned: Vec<Option<PathId>>,
}

/// Below this many pairs the candidate scan stays serial: each pair only
/// costs `α` interned-path weight sums, so small batches are cheaper than
/// a thread spawn.
const CANDIDATE_PAR_MIN_PAIRS: usize = 1024;

impl<'a> CandidateOracle<'a> {
    /// Creates the oracle over `paths`' candidates.
    pub fn new(paths: &'a PathSystem) -> Self {
        CandidateOracle {
            paths,
            pairs: Vec::new(),
            runs: Vec::new(),
            interned: Vec::new(),
        }
    }

    /// Looks up the candidates of every pair in `pairs` and forgets the
    /// interned ids of the previous pair list.
    fn resolve(&mut self, pairs: &[(VertexId, VertexId)]) {
        self.pairs.clear();
        self.pairs.extend_from_slice(pairs);
        self.runs.clear();
        let mut slots = 0;
        for &(s, t) in pairs {
            let cands = self.paths.path_ids(s, t).unwrap_or_default();
            self.runs.push((cands, slots));
            slots += cands.len();
        }
        self.interned.clear();
        self.interned.resize(slots, None);
    }
}

impl PathOracle for CandidateOracle<'_> {
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>> {
        if self.pairs != pairs {
            self.resolve(pairs);
        }
        let ext = self.paths.store();
        // Parallel cost scan (pure, per-pair independent): the cheapest
        // candidate's slot, id and cost...
        let best = par_ordered_map(&self.runs, CANDIDATE_PAR_MIN_PAIRS, |&(cands, first)| {
            let mut best: Option<(usize, PathId, f64)> = None;
            for (slot, &id) in (first..).zip(cands) {
                let cost = ext.weight(id, w);
                if best.is_none_or(|(_, _, bc)| cost < bc) {
                    best = Some((slot, id, cost));
                }
            }
            best
        });
        // ...then a serial, index-ordered intern so the solve's arena ids
        // never depend on the thread count.
        let interned = &mut self.interned;
        best.into_iter()
            .map(|found| {
                found.map(|(slot, id, cost)| {
                    let memo = &mut interned[slot];
                    let mine = match *memo {
                        Some(mine) if store.is_copy_of(mine, ext, id) => mine,
                        _ => store.intern_from(ext, id),
                    };
                    *memo = Some(mine);
                    (mine, cost)
                })
            })
            .collect()
    }
}

/// Oracle over all simple paths via Dijkstra (column generation), with an
/// optional edge-usability mask as configuration.
///
/// Queries are grouped by source so each distinct source costs one
/// Dijkstra sweep over the borrowed graph's adjacency, stopped as soon
/// as that source's targets are settled. Sources are cut into contiguous
/// blocks that fan out over rayon workers, one reusable workspace per
/// block, and merge back in deterministic source order (see the module
/// docs). With a mask ([`AllPathsOracle::masked`]) dead edges get
/// infinite length in the same sweep — edge ids and traversal order stay
/// identical to the unmasked oracle, no graph is rebuilt, and no ids
/// shift.
#[derive(Debug)]
pub struct AllPathsOracle<'a> {
    graph: &'a Graph,
    usable: Option<Vec<bool>>,
}

impl<'a> AllPathsOracle<'a> {
    /// Creates an oracle over the whole (intact) graph.
    pub fn new(graph: &'a Graph) -> Self {
        AllPathsOracle {
            graph,
            usable: None,
        }
    }

    /// Creates an oracle restricted to the edges marked usable — the
    /// mask a `ssor_graph::SubTopology` exports. The graph itself is
    /// untouched, so loads and routings keep base-graph edge ids.
    ///
    /// # Panics
    ///
    /// Panics if `usable.len() != graph.m()`.
    pub fn masked(graph: &'a Graph, usable: &[bool]) -> Self {
        assert_eq!(usable.len(), graph.m(), "one mask bit per edge required");
        AllPathsOracle {
            graph,
            usable: Some(usable.to_vec()),
        }
    }
}

/// Distinct sources per parallel block: each block reuses one Dijkstra
/// workspace across its sources. Blocks move wall-clock only, never
/// results.
const SOURCES_PER_BLOCK: usize = 8;

/// One block's answers in pair order. Found paths are stored back to back
/// in the flat vertex/edge buffers, each recorded as its hop count and
/// cost.
#[derive(Default)]
struct BlockPaths {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
    found: Vec<Option<(usize, f64)>>,
}

impl PathOracle for AllPathsOracle<'_> {
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>> {
        // `(source, pair index, target)`, sorted: grouped by source, in
        // pair-index order within a source — the order the arena interns
        // in.
        let mut keyed: Vec<(VertexId, usize, VertexId)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| (s, i, t))
            .collect();
        keyed.sort_unstable();
        let groups: Vec<&[(VertexId, usize, VertexId)]> =
            keyed.chunk_by(|a, b| a.0 == b.0).collect();
        let blocks: Vec<_> = groups.chunks(SOURCES_PER_BLOCK).collect();
        let mask = self.usable.as_deref();
        // A single block stays serial.
        let answers = par_ordered_map(&blocks, 2, |block| {
            let mut ws = DijkstraWorkspace::new();
            let (mut targets, mut vs, mut es) = (Vec::new(), Vec::new(), Vec::new());
            let mut out = BlockPaths::default();
            for group in block.iter() {
                let Some(&(s, _, _)) = group.first() else {
                    continue;
                };
                targets.clear();
                targets.extend(group.iter().map(|&(_, _, t)| t));
                dijkstra_targets(self.graph, s, &targets, w, mask, &mut ws);
                for &t in &targets {
                    out.found.push(ws.path_parts(t, &mut vs, &mut es).then(|| {
                        out.vertices.extend_from_slice(&vs);
                        out.edges.extend_from_slice(&es);
                        (es.len(), ws.dist(t))
                    }));
                }
            }
            out
        });
        // Serial interning in source order, pair-index order within each
        // source — the arena's id assignment matches a serial sweep
        // exactly.
        let mut out: Vec<Option<(PathId, f64)>> = vec![None; pairs.len()];
        let mut slots = keyed.iter();
        for block in &answers {
            let (mut vs, mut es) = (block.vertices.as_slice(), block.edges.as_slice());
            // `found` first: `zip` then never draws a slot past its end.
            for (found, &(_, i, _)) in block.found.iter().zip(slots.by_ref()) {
                out[i] = found.map(|(hops, cost)| {
                    let (v, v_rest) = vs.split_at(hops + 1);
                    let (e, e_rest) = es.split_at(hops);
                    (vs, es) = (v_rest, e_rest);
                    (store.intern_parts(v, e), cost)
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    // Bitwise equality of the parallel batch oracle against a serial
    // per-source reference lives in `tests/properties.rs`
    // (`parallel_batch_oracle_matches_serial_reference`), which covers
    // random weighted multigraphs, masked and unmasked, with one shared
    // reference implementation. The tests here pin the oracle's own
    // small contracts.
    use super::*;
    use ssor_graph::{generators, Path};

    #[test]
    fn masked_oracle_reports_unreachable_as_none() {
        let g = generators::ring(4);
        let usable = [false, true, false, true];
        let mut oracle = AllPathsOracle::masked(&g, &usable);
        let mut store = PathStore::new();
        let got = oracle.best_paths(&[(0, 2), (0, 3)], &vec![1.0; g.m()], &mut store);
        assert!(got[0].is_none(), "0 and 2 are separated by the mask");
        let (id, cost) = got[1].expect("0 -> 3 survives");
        assert_eq!(cost, 1.0);
        assert_eq!(store.materialize(id).vertices(), &[0, 3]);
    }

    #[test]
    fn candidate_oracle_reports_missing_pairs_as_none() {
        let g = generators::ring(6);
        let mut set = PathSystem::new();
        set.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        let mut oracle = CandidateOracle::new(&set);
        let mut store = PathStore::new();
        let got = oracle.best_paths(&[(0, 3), (1, 4)], &vec![1.0; g.m()], &mut store);
        assert!(got[0].is_some());
        assert!(got[1].is_none(), "no candidates for (1, 4)");
    }

    #[test]
    fn candidate_oracle_picks_cheapest_candidate() {
        let g = generators::ring(6);
        let mut set = PathSystem::new();
        set.insert(Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        set.insert(Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let mut oracle = CandidateOracle::new(&set);
        let mut store = PathStore::new();
        // Make the clockwise side expensive.
        let mut w = vec![1.0; g.m()];
        w[0] = 10.0;
        let got = oracle.best_paths(&[(0, 3)], &w, &mut store);
        let (id, cost) = got[0].unwrap();
        assert_eq!(store.materialize(id).vertices(), &[0, 5, 4, 3]);
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn masked_oracle_with_full_mask_matches_unmasked() {
        let g = generators::grid(3, 4);
        let full = vec![true; g.m()];
        let pairs: Vec<(VertexId, VertexId)> =
            vec![(0, 11), (4, 7), (2, 9), (11, 0), (7, 4), (3, 8)];
        let w: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 3) as f64).collect();
        let mut open = AllPathsOracle::new(&g);
        let mut masked = AllPathsOracle::masked(&g, &full);
        let mut store_a = PathStore::new();
        let mut store_b = PathStore::new();
        assert_eq!(
            open.best_paths(&pairs, &w, &mut store_a),
            masked.best_paths(&pairs, &w, &mut store_b),
        );
    }
}
