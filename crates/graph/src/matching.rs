//! Hopcroft–Karp maximum bipartite matching.
//!
//! The lower-bound adversary (Lemma 8.1) finds a perfect matching between
//! `k` left-star leaves and `k` right-star leaves whose candidate paths all
//! cross the same `α` middle vertices — via Hall's theorem, which we realize
//! constructively with maximum matching.

use std::collections::VecDeque;

const NIL: u32 = u32::MAX;

/// Maximum bipartite matching via Hopcroft–Karp, `O(E * sqrt(V))`.
///
/// The bipartition has `left` vertices `0..left` and `right` vertices
/// `0..right`; `adj[l]` lists the right-neighbors of left vertex `l`.
///
/// # Examples
///
/// ```
/// use ssor_graph::matching::BipartiteMatching;
///
/// // Perfect matching exists: 0-0, 1-1.
/// let m = BipartiteMatching::solve(2, 2, &[vec![0, 1], vec![1]]);
/// assert_eq!(m.size(), 2);
/// assert_eq!(m.pair_of_left(1), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BipartiteMatching {
    match_left: Vec<u32>,
}

impl BipartiteMatching {
    /// Computes a maximum matching.
    ///
    /// # Panics
    ///
    /// Panics if `adj.len() != left` or any neighbor is `>= right`.
    pub fn solve(left: usize, right: usize, adj: &[Vec<u32>]) -> Self {
        assert_eq!(adj.len(), left);
        for nbrs in adj {
            for &r in nbrs {
                assert!((r as usize) < right, "right vertex {r} out of range");
            }
        }
        let mut match_left = vec![NIL; left];
        let mut match_right = vec![NIL; right];
        let mut dist = vec![0u32; left];

        loop {
            // BFS layering from free left vertices.
            let mut q = VecDeque::new();
            let mut found_augmenting = false;
            for l in 0..left {
                if match_left[l] == NIL {
                    dist[l] = 0;
                    q.push_back(l as u32);
                } else {
                    dist[l] = u32::MAX;
                }
            }
            while let Some(l) = q.pop_front() {
                for &r in &adj[l as usize] {
                    let ml = match_right[r as usize];
                    if ml == NIL {
                        found_augmenting = true;
                    } else if dist[ml as usize] == u32::MAX {
                        dist[ml as usize] = dist[l as usize] + 1;
                        q.push_back(ml);
                    }
                }
            }
            if !found_augmenting {
                break;
            }
            // DFS augmenting along the layering.
            fn try_augment(
                l: u32,
                adj: &[Vec<u32>],
                match_left: &mut [u32],
                match_right: &mut [u32],
                dist: &mut [u32],
            ) -> bool {
                for i in 0..adj[l as usize].len() {
                    let r = adj[l as usize][i];
                    let ml = match_right[r as usize];
                    if ml == NIL
                        || (dist[ml as usize] == dist[l as usize] + 1
                            && try_augment(ml, adj, match_left, match_right, dist))
                    {
                        match_left[l as usize] = r;
                        match_right[r as usize] = l;
                        return true;
                    }
                }
                dist[l as usize] = u32::MAX;
                false
            }
            for l in 0..left {
                if match_left[l] == NIL {
                    try_augment(l as u32, adj, &mut match_left, &mut match_right, &mut dist);
                }
            }
        }
        BipartiteMatching { match_left }
    }

    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.match_left.iter().filter(|&&r| r != NIL).count()
    }

    /// The right partner of left vertex `l`, if matched.
    pub fn pair_of_left(&self, l: u32) -> Option<u32> {
        let r = self.match_left[l as usize];
        (r != NIL).then_some(r)
    }

    /// All matched `(left, right)` pairs, in left order.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        self.match_left
            .iter()
            .enumerate()
            .filter_map(|(l, &r)| (r != NIL).then_some((l as u32, r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_matching() {
        let m = BipartiteMatching::solve(0, 0, &[]);
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn perfect_matching_identity() {
        let adj: Vec<Vec<u32>> = (0..5).map(|i| vec![i]).collect();
        let m = BipartiteMatching::solve(5, 5, &adj);
        assert_eq!(m.size(), 5);
        for i in 0..5 {
            assert_eq!(m.pair_of_left(i), Some(i));
        }
    }

    #[test]
    fn hall_violation_limits_matching() {
        // Three left vertices all pointing to right vertex 0.
        let adj = vec![vec![0], vec![0], vec![0]];
        let m = BipartiteMatching::solve(3, 1, &adj);
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn augmenting_path_is_found() {
        // l0 -> {r0}, l1 -> {r0, r1}: greedy l1->r0 blocks l0 unless
        // augmented.
        let adj = vec![vec![0], vec![0, 1]];
        let m = BipartiteMatching::solve(2, 2, &adj);
        assert_eq!(m.size(), 2);
    }

    #[test]
    fn matching_is_consistent() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let left = rng.gen_range(1..12);
            let right = rng.gen_range(1..12);
            let adj: Vec<Vec<u32>> = (0..left)
                .map(|_| (0..right as u32).filter(|_| rng.gen_bool(0.3)).collect())
                .collect();
            let m = BipartiteMatching::solve(left, right, &adj);
            for (l, r) in m.pairs() {
                assert!(adj[l as usize].contains(&r), "matched pair must be an edge");
                assert_eq!(m.pair_of_left(l), Some(r));
            }
            // No right vertex matched twice.
            let rights: Vec<u32> = m.pairs().iter().map(|&(_, r)| r).collect();
            let mut dedup = rights.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), rights.len());
        }
    }

    /// Brute-force maximum matching for cross-validation.
    fn brute_max_matching(_left: usize, right: usize, adj: &[Vec<u32>]) -> usize {
        fn rec(l: usize, used: &mut Vec<bool>, adj: &[Vec<u32>]) -> usize {
            if l == adj.len() {
                return 0;
            }
            let mut best = rec(l + 1, used, adj); // skip l
            for &r in &adj[l] {
                if !used[r as usize] {
                    used[r as usize] = true;
                    best = best.max(1 + rec(l + 1, used, adj));
                    used[r as usize] = false;
                }
            }
            best
        }
        let mut used = vec![false; right];
        rec(0, &mut used, adj)
    }

    #[test]
    fn matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let left = rng.gen_range(1..7);
            let right = rng.gen_range(1..7);
            let adj: Vec<Vec<u32>> = (0..left)
                .map(|_| (0..right as u32).filter(|_| rng.gen_bool(0.4)).collect())
                .collect();
            let m = BipartiteMatching::solve(left, right, &adj);
            assert_eq!(m.size(), brute_max_matching(left, right, &adj));
        }
    }
}
