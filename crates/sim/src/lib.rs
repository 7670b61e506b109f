//! # ssor-sim
//!
//! A synchronous store-and-forward packet-scheduling simulator.
//!
//! The paper's completion-time objective (Section 7) is
//! `congestion + dilation`; the classic scheduling results [LMR94, GH16]
//! justify it by showing any path collection can be scheduled in
//! `O(congestion + dilation)` rounds. This crate *measures* actual
//! schedule lengths, validating that reading of the objective: experiment
//! E6 compares `makespan` against `C + D` across schedulers.
//!
//! ## Model
//!
//! Time advances in unit rounds. Each packet follows a fixed path; in each
//! round every *edge* forwards at most one packet (undirected capacity 1,
//! matching the congestion model), chosen by the configured
//! [`Scheduler`]. Everything is deterministic given the scheduler and
//! seed.
//!
//! # Examples
//!
//! ```
//! use ssor_sim::{simulate, Scheduler, SimConfig};
//! use ssor_graph::{generators, Path};
//!
//! let g = generators::ring(6);
//! let paths = vec![
//!     Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap(),
//!     Path::from_vertices(&g, &[5, 4, 3]).unwrap(),
//! ];
//! let out = simulate(&g, &paths, &SimConfig { scheduler: Scheduler::Fifo, seed: 0 });
//! assert!(out.makespan >= 3, "the 3-hop packet needs 3 rounds");
//! assert!(out.makespan <= out.congestion * out.dilation + 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ssor_graph::{Graph, Path, PathId, PathStore};

/// Contention-resolution policy used when several packets want the same
/// edge in the same round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Lowest packet id first (arrival order).
    Fifo,
    /// The packet with the most remaining hops first (longest-remaining-
    /// path; a good heuristic for makespan).
    FarthestToGo,
    /// A random fixed priority per packet (the LMR94-style random-rank
    /// schedule that realizes `O(C + D)` with high probability).
    RandomRank,
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Contention policy.
    pub scheduler: Scheduler,
    /// Seed for [`Scheduler::RandomRank`] (ignored otherwise).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheduler: Scheduler::RandomRank,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// The same configuration with a different seed — dynamic-scenario
    /// stages derive one seed per stream step so repeated simulations do
    /// not share `RandomRank` priorities.
    ///
    /// # Examples
    ///
    /// ```
    /// let cfg = ssor_sim::SimConfig::default().with_seed(7);
    /// assert_eq!(cfg.seed, 7);
    /// ```
    pub fn with_seed(&self, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            ..self.clone()
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Rounds until the last packet arrived.
    pub makespan: usize,
    /// Max number of packets sharing an edge (`C`).
    pub congestion: usize,
    /// Max path length (`D`).
    pub dilation: usize,
    /// Per-packet arrival round.
    pub arrival: Vec<usize>,
}

impl SimOutcome {
    /// `makespan / (C + D)` — the scheduling overhead relative to the
    /// paper's objective (1.0 would be a perfect schedule; the classic
    /// guarantee is `O(1)`).
    pub fn overhead(&self) -> f64 {
        let denom = (self.congestion + self.dilation) as f64;
        if denom == 0.0 {
            1.0
        } else {
            self.makespan as f64 / denom
        }
    }
}

/// Runs the synchronous simulation on packets given as interned path ids
/// (a *multiset*: the same id may appear many times, one packet each).
///
/// This is the hot-loop entry point: each round reads packet hops
/// straight out of the [`PathStore`]'s flat arrays, and the per-round
/// claim table is one reused allocation. [`simulate`] and
/// [`simulate_routing`] are boundary wrappers over this.
///
/// # Panics
///
/// Panics if some path is invalid for `g`.
fn simulate_ids(
    g: &Graph,
    store: &PathStore,
    packets: &[PathId],
    config: &SimConfig,
) -> SimOutcome {
    for &id in packets {
        assert!(
            store.is_valid(id, g),
            "invalid path {:?}",
            store.materialize(id)
        );
    }
    let np = packets.len();
    // Static priorities; smaller = served first.
    let mut rank: Vec<usize> = (0..np).collect();
    if config.scheduler == Scheduler::RandomRank {
        let mut rng = StdRng::seed_from_u64(config.seed);
        rank.shuffle(&mut rng);
    }

    // Static stats.
    let mut edge_use = vec![0usize; g.m()];
    let mut dilation = 0usize;
    for &id in packets {
        dilation = dilation.max(store.hop(id));
        for &e in store.edges(id) {
            edge_use[e as usize] += 1;
        }
    }
    let congestion = edge_use.iter().copied().max().unwrap_or(0);

    // Dynamic state: next hop index per packet.
    let mut pos = vec![0usize; np];
    let mut arrival = vec![0usize; np];
    let mut remaining: Vec<usize> = (0..np).filter(|&i| store.hop(packets[i]) > 0).collect();
    let mut round = 0usize;
    // Safety cap: C*D + D is a hard upper bound for greedy schedules here.
    let cap = congestion * dilation + dilation + 1;

    // Claims: edge -> best (priority, packet); reused across rounds.
    let mut claim: Vec<Option<usize>> = vec![None; g.m()];
    while !remaining.is_empty() {
        round += 1;
        assert!(
            round <= cap.max(1),
            "scheduler exceeded the C*D + D bound; this is a bug"
        );
        claim.fill(None);
        for &i in &remaining {
            let e = store.edges(packets[i])[pos[i]] as usize;
            let better = match claim[e] {
                None => true,
                Some(j) => match config.scheduler {
                    Scheduler::Fifo => i < j,
                    Scheduler::RandomRank => rank[i] < rank[j],
                    Scheduler::FarthestToGo => {
                        let ri = store.hop(packets[i]) - pos[i];
                        let rj = store.hop(packets[j]) - pos[j];
                        ri > rj || (ri == rj && i < j)
                    }
                },
            };
            if better {
                claim[e] = Some(i);
            }
        }
        // Advance winners.
        let mut still = Vec::with_capacity(remaining.len());
        let winners: std::collections::HashSet<usize> = claim.iter().copied().flatten().collect();
        for &i in &remaining {
            if winners.contains(&i) {
                pos[i] += 1;
                if pos[i] == store.hop(packets[i]) {
                    arrival[i] = round;
                    continue;
                }
            }
            still.push(i);
        }
        remaining = still;
    }

    SimOutcome {
        makespan: round,
        congestion,
        dilation,
        arrival,
    }
}

/// Runs the synchronous simulation until every packet reaches its target.
///
/// Packets with zero-hop paths arrive at round 0. The run is guaranteed to
/// terminate: in any round with unfinished packets, at least one packet
/// advances (every contended edge advances exactly one packet per round).
///
/// Boundary wrapper: interns `paths` into a fresh [`PathStore`]
/// (duplicate paths share storage but remain distinct packets) and runs
/// the id-based hot loop.
///
/// # Panics
///
/// Panics if some path is invalid for `g`.
pub fn simulate(g: &Graph, paths: &[Path], config: &SimConfig) -> SimOutcome {
    let mut store = PathStore::new();
    let packets: Vec<PathId> = paths.iter().map(|p| store.intern(p)).collect();
    simulate_ids(g, &store, &packets, config)
}

/// Convenience: simulate an [`ssor_flow::IntegralRouting`]'s paths
/// (multiplicities preserved).
pub fn simulate_routing(
    g: &Graph,
    routing: &ssor_flow::IntegralRouting,
    config: &SimConfig,
) -> SimOutcome {
    let mut store = PathStore::new();
    let mut packets: Vec<PathId> = Vec::new();
    for (s, t) in routing.pairs() {
        if let Some(ps) = routing.paths(s, t) {
            packets.extend(ps.iter().map(|p| store.intern(p)));
        }
    }
    simulate_ids(g, &store, &packets, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_graph::generators;

    fn line_paths(g: &Graph, specs: &[&[u32]]) -> Vec<Path> {
        specs
            .iter()
            .map(|vs| Path::from_vertices(g, vs).unwrap())
            .collect()
    }

    #[test]
    fn single_packet_takes_its_hop_count() {
        let g = generators::ring(8);
        let paths = line_paths(&g, &[&[0, 1, 2, 3, 4]]);
        for sched in [
            Scheduler::Fifo,
            Scheduler::FarthestToGo,
            Scheduler::RandomRank,
        ] {
            let out = simulate(
                &g,
                &paths,
                &SimConfig {
                    scheduler: sched,
                    seed: 1,
                },
            );
            assert_eq!(out.makespan, 4);
            assert_eq!(out.dilation, 4);
            assert_eq!(out.congestion, 1);
            assert!((out.overhead() - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn contention_serializes_on_shared_edge() {
        // Three packets all crossing edge (0,1).
        let g = generators::ring(4);
        let paths = line_paths(&g, &[&[0, 1], &[0, 1], &[0, 1]]);
        let out = simulate(
            &g,
            &paths,
            &SimConfig {
                scheduler: Scheduler::Fifo,
                seed: 0,
            },
        );
        assert_eq!(out.congestion, 3);
        assert_eq!(out.makespan, 3, "one per round over the shared edge");
        assert_eq!(out.arrival, vec![1, 2, 3], "FIFO order");
    }

    #[test]
    fn makespan_at_least_max_c_d() {
        let g = generators::grid(3, 3);
        let paths = line_paths(&g, &[&[0, 1, 2, 5, 8], &[0, 1, 2], &[6, 7, 8], &[0, 3, 6]]);
        for sched in [
            Scheduler::Fifo,
            Scheduler::FarthestToGo,
            Scheduler::RandomRank,
        ] {
            let out = simulate(
                &g,
                &paths,
                &SimConfig {
                    scheduler: sched,
                    seed: 3,
                },
            );
            assert!(out.makespan >= out.dilation);
            assert!(out.makespan >= out.congestion);
            assert!(out.makespan <= out.congestion * out.dilation + out.dilation);
        }
    }

    #[test]
    fn zero_hop_paths_arrive_immediately() {
        let g = generators::ring(4);
        let paths = vec![Path::trivial(2)];
        let out = simulate(&g, &paths, &SimConfig::default());
        assert_eq!(out.makespan, 0);
        assert_eq!(out.arrival, vec![0]);
    }

    #[test]
    fn empty_instance() {
        let g = generators::ring(4);
        let out = simulate(&g, &[], &SimConfig::default());
        assert_eq!(out.makespan, 0);
        assert_eq!(out.congestion, 0);
        assert_eq!(out.dilation, 0);
    }

    #[test]
    fn farthest_to_go_prioritizes_long_paths() {
        // Long packet and short packet contend on the first edge; FTG lets
        // the long one through first, finishing both in dilation + 1.
        let g = generators::ring(8);
        let paths = line_paths(&g, &[&[0, 1], &[0, 1, 2, 3, 4, 5]]);
        let out = simulate(
            &g,
            &paths,
            &SimConfig {
                scheduler: Scheduler::FarthestToGo,
                seed: 0,
            },
        );
        assert_eq!(out.arrival[1], 5, "long packet unimpeded");
        assert_eq!(out.arrival[0], 2, "short one waits a round");
    }

    #[test]
    fn random_rank_overhead_stays_constant_factor() {
        // Random permutation demand on a hypercube routed greedily; the
        // random-rank schedule should stay within a small factor of C + D.
        use rand::Rng;
        let g = generators::hypercube(5);
        let mut rng = StdRng::seed_from_u64(9);
        let mut paths = Vec::new();
        for _ in 0..32 {
            let s = rng.gen_range(0..32) as u32;
            let t = rng.gen_range(0..32) as u32;
            if s != t {
                paths.push(ssor_graph::shortest_path::bfs_path(&g, s, t).unwrap());
            }
        }
        let out = simulate(
            &g,
            &paths,
            &SimConfig {
                scheduler: Scheduler::RandomRank,
                seed: 4,
            },
        );
        assert!(out.overhead() <= 3.0, "overhead {}", out.overhead());
    }

    #[test]
    fn simulate_routing_counts_multiplicity() {
        let g = generators::ring(4);
        let mut ir = ssor_flow::IntegralRouting::new();
        let p = Path::from_vertices(&g, &[0, 1]).unwrap();
        ir.set_paths(0, 1, vec![p.clone(), p]);
        let out = simulate_routing(&g, &ir, &SimConfig::default());
        assert_eq!(out.congestion, 2);
        assert_eq!(out.makespan, 2);
    }
}
