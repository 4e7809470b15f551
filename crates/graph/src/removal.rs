//! Node-removal resilience sweeps (§5.1, Figs. 12 and 13).
//!
//! Three methodologies from the paper:
//!
//! 1. **Iterative top-degree removal** (Fig. 12): "We proceed in rounds,
//!    removing the top 1% of remaining nodes in each iteration" — the
//!    ranking is recomputed on the surviving subgraph every round.
//! 2. **Ranked removal** (Fig. 13a): remove the top-N instances in a fixed
//!    external order (by #users or #toots) and evaluate the LCC after each
//!    removal. Implemented with the reverse (additive) union-find trick so a
//!    full sweep costs `O(E α)` rather than `O(N·E)`.
//! 3. **Grouped removal** (Fig. 13b): remove whole groups of nodes at once
//!    (all instances of an AS).
//!
//! All sweeps report the LCC in nodes and (optionally) in caller-provided
//! node weights — the paper variously normalises by instances, users, and
//! toots.

use crate::components::weakly_connected;
use crate::digraph::DiGraph;
use crate::unionfind::WeightedUnionFind;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// One evaluation point of a removal sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Cumulative number of nodes removed at this point.
    pub removed: usize,
    /// For grouped sweeps: number of groups removed (equals `removed`
    /// otherwise meaningless; 0 for ungrouped sweeps).
    pub groups_removed: usize,
    /// Largest weakly connected component, in nodes.
    pub lcc_nodes: u32,
    /// LCC as a fraction of the graph's *original* node count.
    pub lcc_node_frac: f64,
    /// LCC's total weight (sum of caller weights), when weights were given.
    pub lcc_weight: f64,
    /// LCC weight as a fraction of total original weight (0 if no weights).
    pub lcc_weight_frac: f64,
    /// Number of weakly connected components among surviving nodes.
    pub wcc_count: usize,
    /// Always 0: the sweeps count no strongly connected components. The
    /// field stays so that a point's `Debug` text, which recorded digests
    /// cover, keeps its shape.
    pub scc_count: usize,
}

/// How the iterative sweep ranks nodes for removal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankBy {
    /// Highest total degree in the *surviving* subgraph (the paper's attack
    /// model).
    DegreeIterative,
    /// Uniformly random surviving nodes (the error-tolerance baseline).
    Random {
        /// RNG seed for determinism.
        seed: u64,
    },
}

/// Fisher–Yates over `a` that keeps only `a[..k]`: the prefix equals that
/// of `a.shuffle(rng); a.truncate(k)`, from the same `gen_range(0..=i)`
/// draws in the same order. Slot `i` is never read after its own step, so
/// for `i >= k` the swap's store into `a[i]` is dead and only `a[j] = a[i]`
/// remains; the slots at and above `k` are left holding stale ids.
///
/// Each draw is `gen_range(0..=i)` as the vendored `rand` computes it, one
/// `next_u64` scaled by Lemire's multiply-shift, written out here because
/// the generic `gen_range` is not inlined into this loop and keeping the
/// RNG state in memory doubled the shuffle's time.
/// `prefix_shuffle_equals_shuffle_truncate` holds it to `gen_range`.
fn shuffle_prefix<R: RngCore + ?Sized>(a: &mut [u32], k: usize, rng: &mut R) {
    let k = k.min(a.len());
    let mut draw = |i: usize| ((rng.next_u64() as u128 * (i as u128 + 1)) >> 64) as usize;
    for i in (k.max(1)..a.len()).rev() {
        let j = draw(i);
        a[j] = a[i];
    }
    for i in (1..k).rev() {
        let j = draw(i);
        a.swap(i, j);
    }
}

/// Drop the dead ids from `ids`, keeping their order, and copy the kept
/// ids into `copy`, the next round's shuffle buffer (at least as long as
/// `ids`). Every id is written and the write index advances by
/// `alive[v]`, so there is no branch to mispredict on a random mask.
fn retain_alive(ids: &mut Vec<u32>, alive: &[bool], copy: &mut Vec<u32>) {
    let mut kept = 0;
    for i in 0..ids.len() {
        let v = ids[i];
        ids[kept] = v;
        copy[kept] = v;
        kept += alive[v as usize] as usize;
    }
    ids.truncate(kept);
    copy.truncate(kept);
}

/// Nodes removed in a round of `frac` of `alive` survivors: at least one,
/// at most all.
fn round_size(alive: usize, frac: f64) -> usize {
    ((alive as f64 * frac).round() as usize).max(1).min(alive)
}

/// `deg` entry of a removed node in the degree attack. Real degrees are
/// at most `2·(n − 1)`, and `n` fits an `i32`.
const GONE: u32 = u32::MAX;

/// The reverse pass's sets, with the running metrics its merges move.
/// A removed node is `kill`ed in the union-find itself.
struct Rejoin {
    uf: WeightedUnionFind,
    merges: usize,
    max_size: u32,
    max_weight: f64,
}

impl Rejoin {
    /// Merge every live node of `nbrs` into the set rooted at `root`, one
    /// `find` per neighbour, and return the root of the result. The
    /// liveness check reads the cell that `find` reads next.
    fn absorb(&mut self, mut root: u32, nbrs: &[u32]) -> u32 {
        for &w in nbrs {
            if self.uf.is_live(w) {
                if let Some((r, size, weight)) = self.uf.union(root, w) {
                    root = r;
                    self.merges += 1;
                    self.max_size = self.max_size.max(size);
                    self.max_weight = self.max_weight.max(weight);
                }
            }
        }
        root
    }
}

/// Configurable removal-sweep runner over a borrowed graph.
pub struct RemovalSweep<'g> {
    g: &'g DiGraph,
    weights: Option<&'g [f64]>,
}

impl<'g> RemovalSweep<'g> {
    /// New sweep over `g`.
    pub fn new(g: &'g DiGraph) -> Self {
        Self { g, weights: None }
    }

    /// Attach per-node weights (users, toots, …) for weighted-LCC reporting.
    ///
    /// The slice is borrowed, not cloned — a graph-sized weight vector can
    /// back many concurrent sweeps for free. Weights must be finite and
    /// non-negative (they are counts in every paper figure); the offline
    /// weighted engine maintains a running maximum over merged component
    /// weights, which is only monotone under that assumption.
    pub fn with_weights(mut self, w: &'g [f64]) -> Self {
        assert_eq!(w.len(), self.g.node_count(), "weight length mismatch");
        assert!(
            w.iter().all(|x| x.is_finite() && *x >= 0.0),
            "weights must be finite and non-negative"
        );
        self.weights = Some(w);
        self
    }

    fn total_weight(&self) -> f64 {
        self.weights.as_ref().map(|w| w.iter().sum()).unwrap_or(0.0)
    }

    /// Reference evaluation used only by the naive engine. Deliberately
    /// NOT delegated to `point_scratch`: it routes through
    /// `ComponentInfo`'s own metric assembly (`largest`, `largest_weight`,
    /// `count`), keeping one evaluation path that is independent of the
    /// scratch buffers so the differential tests compare two genuinely
    /// separate implementations.
    fn point_from_mask(&self, alive: &[bool], removed: usize, groups: usize) -> SweepPoint {
        let n = self.g.node_count();
        let wcc = weakly_connected(self.g, Some(alive));
        let lcc_nodes = wcc.largest();
        let (lcc_weight, lcc_weight_frac) = match &self.weights {
            Some(w) => {
                let total = self.total_weight();
                // weight of the heaviest component
                let heaviest = wcc.largest_weight(w);
                (heaviest, if total > 0.0 { heaviest / total } else { 0.0 })
            }
            None => (0.0, 0.0),
        };
        SweepPoint {
            removed,
            groups_removed: groups,
            lcc_nodes,
            lcc_node_frac: if n > 0 {
                lcc_nodes as f64 / n as f64
            } else {
                0.0
            },
            lcc_weight,
            lcc_weight_frac,
            wcc_count: wcc.count(),
            scc_count: 0,
        }
    }

    /// Fig. 12 methodology: in each of `steps` rounds remove `frac` of the
    /// *remaining* nodes (at least 1), ranked per `rank`. Returns one point
    /// per round, including a round-0 baseline with nothing removed.
    ///
    /// The engine is incremental and two-phase:
    ///
    /// 1. **Victim selection** (`Self::degree_schedule`,
    ///    `Self::random_schedule`). The selection never depends on
    ///    component metrics, so the whole removal schedule is known before
    ///    anything is evaluated.
    /// 2. **Evaluation**: all rounds — weighted or not — are evaluated in
    ///    one serial reverse union-find pass costing `O((E+N)·α)` *total*,
    ///    at two `find`s per merge; the per-root weight accumulators ride
    ///    along inside [`WeightedUnionFind`], so the weighted Fig. 13-style
    ///    metrics cost the same near-linear pass as the unweighted ones.
    ///
    /// Output is bit-identical to [`Self::iterative_fraction_naive`]: every
    /// unweighted metric is integer-derived, and the weighted metrics sum
    /// the same weight multisets (exactly the same bits whenever weights
    /// are integer-valued, as all the paper's user/toot counts are — the
    /// reverse pass merges accumulators in union order rather than node
    /// order, which is invisible below 2^53). Victims within a round may
    /// come in any order: the pass evaluates only at round boundaries. The
    /// differential property tests below pin equality in all
    /// configurations.
    pub fn iterative_fraction(&self, frac: f64, steps: usize, rank: RankBy) -> Vec<SweepPoint> {
        assert!((0.0..=1.0).contains(&frac), "frac out of range");
        let (order, boundaries) = match rank {
            RankBy::DegreeIterative => self.degree_schedule(frac, steps),
            RankBy::Random { seed } => self.random_schedule(frac, steps, seed),
        };
        self.reverse_sweep(&order, &boundaries, None)
    }

    /// The attack's removal schedule: the concatenated victims of every
    /// round, and the cumulative removal count after round `r` at
    /// `boundaries[r]` (`boundaries[0] = 0` is the intact baseline).
    ///
    /// Survivor degrees are decremented through the CSR neighbours of each
    /// victim (`O(k·d̄)` per round instead of an `O(E)` edge rescan), and a
    /// histogram of them rides alongside: `hist[d]` survivors have degree
    /// `d`. A round walks the histogram down from the top to the threshold
    /// `t` with `#{deg > t} < k <= #{deg >= t}`, then makes one ascending
    /// pass over the survivors that takes every node above `t` and the
    /// first `k − #{deg > t}` at `t`, compacting the rest in the same pass.
    /// Ties at `t` thus go to the lowest ids, so each round's victim set is
    /// the `(degree desc, id asc)` top-`k` the naive sort picks. The walks
    /// cost `O(max degree + steps)` in all, since no survivor stays above a
    /// round's threshold.
    fn degree_schedule(&self, frac: f64, steps: usize) -> (Vec<u32>, Vec<usize>) {
        let n = self.g.node_count();
        // With every node alive, total degree equals the edge-scan count
        // the naive implementation starts from.
        let mut deg: Vec<u32> = (0..n as u32).map(|v| self.g.degree(v)).collect();
        let mut top = deg.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0usize; top + 1];
        for &d in &deg {
            hist[d as usize] += 1;
        }
        // Survivor ids, ascending, compacted in each round's pass.
        let mut survivors: Vec<u32> = (0..n as u32).collect();
        let mut order: Vec<u32> = Vec::new();
        let mut boundaries: Vec<usize> = Vec::with_capacity(steps + 1);
        boundaries.push(0);

        for _ in 0..steps {
            if survivors.is_empty() {
                break;
            }
            let k = round_size(survivors.len(), frac);
            while hist[top] == 0 {
                top -= 1;
            }
            let (mut t, mut above) = (top, 0);
            while above + hist[t] < k {
                above += hist[t];
                t -= 1;
            }
            let (t, mut ties) = (t as u32, k - above);
            let first = order.len();
            let mut kept = 0;
            for i in 0..survivors.len() {
                let v = survivors[i];
                let d = deg[v as usize];
                if d > t || (d == t && ties > 0) {
                    ties -= (d == t) as usize;
                    hist[d as usize] -= 1;
                    deg[v as usize] = GONE;
                    order.push(v);
                } else {
                    survivors[kept] = v;
                    kept += 1;
                }
            }
            survivors.truncate(kept);
            // Decrement surviving neighbours once per incident edge. Every
            // victim is already `GONE`, so edges between two victims touch
            // no survivor, matching the naive both-endpoints-alive count.
            for &v in &order[first..] {
                for nbrs in [self.g.out_neighbors(v), self.g.in_neighbors(v)] {
                    for &w in nbrs {
                        let d = deg[w as usize];
                        if d != GONE {
                            hist[d as usize] -= 1;
                            hist[d as usize - 1] += 1;
                            deg[w as usize] = d - 1;
                        }
                    }
                }
            }
            boundaries.push(order.len());
        }
        (order, boundaries)
    }

    /// The random baseline's removal schedule, shaped as
    /// `Self::degree_schedule`'s. It reads no degrees, so it keeps none: each
    /// round draws a full Fisher–Yates over the survivor list, so the RNG
    /// stream matches the naive implementation's, but stores only what the
    /// kept `k`-prefix needs (`shuffle_prefix`). The survivors stay
    /// ascending: compacting them after each round keeps exactly the nodes
    /// an `(0..n).filter` rescan would produce, at `O(survivors)` per round,
    /// and refills the shuffle buffer in the same pass.
    fn random_schedule(&self, frac: f64, steps: usize, seed: u64) -> (Vec<u32>, Vec<usize>) {
        let n = self.g.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut alive = vec![true; n];
        let mut survivors: Vec<u32> = (0..n as u32).collect();
        let mut cands = survivors.clone();
        let mut order: Vec<u32> = Vec::new();
        let mut boundaries: Vec<usize> = Vec::with_capacity(steps + 1);
        boundaries.push(0);

        for _ in 0..steps {
            if survivors.is_empty() {
                break;
            }
            let k = round_size(survivors.len(), frac);
            shuffle_prefix(&mut cands, k, &mut rng);
            for &v in &cands[..k] {
                alive[v as usize] = false;
            }
            order.extend_from_slice(&cands[..k]);
            retain_alive(&mut survivors, &alive, &mut cands);
            boundaries.push(order.len());
        }
        (order, boundaries)
    }

    /// Reference implementation of [`Self::iterative_fraction`]: rescans
    /// every edge to recompute degrees and full-sorts the survivors each
    /// round. Kept public for differential tests and the speedup benches;
    /// do not use in production paths.
    pub fn iterative_fraction_naive(
        &self,
        frac: f64,
        steps: usize,
        rank: RankBy,
    ) -> Vec<SweepPoint> {
        assert!((0.0..=1.0).contains(&frac), "frac out of range");
        let n = self.g.node_count();
        let mut alive = vec![true; n];
        let mut alive_count = n;
        let mut removed = 0usize;
        let mut out = Vec::with_capacity(steps + 1);
        out.push(self.point_from_mask(&alive, 0, 0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(match rank {
            RankBy::Random { seed } => seed,
            RankBy::DegreeIterative => 0,
        });
        for _ in 0..steps {
            if alive_count == 0 {
                break;
            }
            let k = ((alive_count as f64 * frac).round() as usize)
                .max(1)
                .min(alive_count);
            let victims: Vec<u32> = match rank {
                RankBy::DegreeIterative => {
                    // degree within the surviving subgraph
                    let mut deg = vec![0u32; n];
                    for (a, b) in self.g.edges() {
                        if alive[a as usize] && alive[b as usize] {
                            deg[a as usize] += 1;
                            deg[b as usize] += 1;
                        }
                    }
                    let mut cands: Vec<u32> =
                        (0..n as u32).filter(|&v| alive[v as usize]).collect();
                    cands.sort_by(|&a, &b| deg[b as usize].cmp(&deg[a as usize]).then(a.cmp(&b)));
                    cands.truncate(k);
                    cands
                }
                RankBy::Random { .. } => {
                    let mut cands: Vec<u32> =
                        (0..n as u32).filter(|&v| alive[v as usize]).collect();
                    cands.shuffle(&mut rng);
                    cands.truncate(k);
                    cands
                }
            };
            for v in victims {
                alive[v as usize] = false;
            }
            alive_count -= k;
            removed += k;
            out.push(self.point_from_mask(&alive, removed, 0));
        }
        out
    }

    /// Fig. 13a methodology: remove nodes in the fixed `order`, evaluating
    /// after each prefix length in `checkpoints` (ascending; a checkpoint of
    /// 0 evaluates the intact graph). Uses reverse union-find, so the whole
    /// sweep is near-linear. An id repeated in `order` stays removed from
    /// its first occurrence on.
    pub fn ranked(&self, order: &[u32], checkpoints: &[usize]) -> Vec<SweepPoint> {
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be strictly ascending"
        );
        let boundaries: Vec<usize> = checkpoints.iter().map(|&c| c.min(order.len())).collect();
        self.reverse_sweep(order, &boundaries, None)
    }

    /// Fig. 13b methodology: remove whole `groups` (e.g. every instance of
    /// an AS) in order, evaluating after each group. Group `i`'s evaluation
    /// point has `groups_removed == i + 1`; a leading baseline point with
    /// nothing removed is included. A node in several groups is removed
    /// with the first of them.
    pub fn grouped(&self, groups: &[Vec<u32>]) -> Vec<SweepPoint> {
        let mut order = Vec::new();
        let mut boundaries = vec![0usize];
        for g in groups {
            order.extend_from_slice(g);
            boundaries.push(order.len());
        }
        self.reverse_sweep(&order, &boundaries, Some(()))
    }

    /// Shared reverse-incremental implementation. `boundaries` are removal
    /// counts (prefix lengths of `order`) at which to evaluate, ascending,
    /// possibly starting at 0. When `grouped` is set, `groups_removed` is
    /// the boundary's index.
    ///
    /// The pass is one serial union loop. Parallelism lives a level up,
    /// where the work is independent: callers fan whole sweeps out over
    /// [`crate::par`] (Fig. 12's two graphs, Fig. 13's four orders, the
    /// random baseline's trials).
    fn reverse_sweep(
        &self,
        order: &[u32],
        boundaries: &[usize],
        grouped: Option<()>,
    ) -> Vec<SweepPoint> {
        let n = self.g.node_count();
        if boundaries.is_empty() {
            return Vec::new();
        }
        let max_removed = *boundaries.last().unwrap();

        let mut sets = Rejoin {
            uf: match self.weights {
                Some(w) => WeightedUnionFind::new(w),
                None => WeightedUnionFind::unweighted(n),
            },
            merges: 0,
            max_size: 0,
            max_weight: 0.0,
        };
        // Start fully removed at max boundary, then add nodes back. A
        // repeated id stays removed from its first occurrence, as direct
        // masking of each prefix has it, so it re-enters only there: the
        // dead count falls short of `max_removed` exactly when ids repeat.
        let mut alive_count = n;
        for &v in &order[..max_removed] {
            alive_count -= sets.uf.is_live(v) as usize;
            sets.uf.kill(v);
        }
        sets.max_size = (alive_count > 0) as u32;
        let first_occurrence: Vec<bool> = if alive_count + max_removed == n {
            Vec::new()
        } else {
            let mut seen = vec![false; n];
            order[..max_removed]
                .iter()
                .map(|&v| !std::mem::replace(&mut seen[v as usize], true))
                .collect()
        };
        // A singleton's weight is its node's own; merged sets report theirs
        // as they form.
        let own_weight = |v: u32| self.weights.map_or(0.0, |w| w[v as usize]);

        // Edges among initially-alive nodes: each alive source's out-list.
        for a in 0..n as u32 {
            if sets.uf.is_live(a) {
                sets.max_weight = sets.max_weight.max(own_weight(a));
                let root = sets.uf.find(a);
                sets.absorb(root, self.g.out_neighbors(a));
            }
        }

        let total_weight = self.total_weight();
        let mut results: Vec<SweepPoint> = Vec::with_capacity(boundaries.len());
        let mut cursor = max_removed;
        for (bi, &b) in boundaries.iter().enumerate().rev() {
            // Re-add nodes order[b..cursor].
            while cursor > b {
                cursor -= 1;
                if !first_occurrence.is_empty() && !first_occurrence[cursor] {
                    continue;
                }
                let v = order[cursor];
                sets.uf.revive(v);
                alive_count += 1;
                sets.max_size = sets.max_size.max(1);
                sets.max_weight = sets.max_weight.max(own_weight(v));
                // `v` re-enters as a singleton root.
                let root = sets.absorb(v, self.g.out_neighbors(v));
                sets.absorb(root, self.g.in_neighbors(v));
            }
            let lcc_nodes = if alive_count == 0 { 0 } else { sets.max_size };
            results.push(SweepPoint {
                removed: b,
                groups_removed: if grouped.is_some() { bi } else { 0 },
                lcc_nodes,
                lcc_node_frac: if n > 0 {
                    lcc_nodes as f64 / n as f64
                } else {
                    0.0
                },
                lcc_weight: sets.max_weight,
                lcc_weight_frac: if total_weight > 0.0 {
                    sets.max_weight / total_weight
                } else {
                    0.0
                },
                wcc_count: alive_count - sets.merges,
                scc_count: 0,
            });
        }
        results.reverse();
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hub-and-spoke graph: node 0 connects to everyone.
    fn star(n: u32) -> DiGraph {
        DiGraph::from_edges(n, (1..n).map(|i| (0, i)))
    }

    #[test]
    fn iterative_degree_attack_kills_star() {
        let g = star(11);
        let sweep = RemovalSweep::new(&g);
        let pts = sweep.iterative_fraction(0.09, 1, RankBy::DegreeIterative);
        // baseline: LCC = 11
        assert_eq!(pts[0].lcc_nodes, 11);
        assert_eq!(pts[0].wcc_count, 1);
        // one round removes ceil(0.09 * 11) = 1 node = the hub
        assert_eq!(pts[1].removed, 1);
        assert_eq!(pts[1].lcc_nodes, 1);
        assert_eq!(pts[1].wcc_count, 10);
    }

    #[test]
    fn random_removal_is_gentler_than_attack_on_star() {
        let g = star(101);
        let sweep = RemovalSweep::new(&g);
        let atk = sweep.iterative_fraction(0.01, 1, RankBy::DegreeIterative);
        let rnd = sweep.iterative_fraction(0.01, 1, RankBy::Random { seed: 7 });
        // attack removes the hub and shatters; random almost surely removes a leaf
        assert!(atk[1].lcc_nodes < rnd[1].lcc_nodes);
    }

    #[test]
    fn ranked_sweep_matches_direct_masking() {
        // path 0-1-2-3-4 (undirected-ish via WCC)
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let order = vec![2u32, 0, 4];
        let sweep = RemovalSweep::new(&g);
        let pts = sweep.ranked(&order, &[0, 1, 2, 3]);
        assert_eq!(pts.len(), 4);
        // 0 removed: single path, LCC 5
        assert_eq!(pts[0].lcc_nodes, 5);
        assert_eq!(pts[0].wcc_count, 1);
        // remove node 2: {0,1} {3,4}
        assert_eq!(pts[1].lcc_nodes, 2);
        assert_eq!(pts[1].wcc_count, 2);
        // remove node 0 as well: {1} {3,4}
        assert_eq!(pts[2].lcc_nodes, 2);
        assert_eq!(pts[2].wcc_count, 2);
        // remove node 4 too: {1} {3}
        assert_eq!(pts[3].lcc_nodes, 1);
        assert_eq!(pts[3].wcc_count, 2);
    }

    #[test]
    fn ranked_sweep_weighted_lcc() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let weights = vec![10.0, 1.0, 5.0, 5.0];
        let sweep = RemovalSweep::new(&g).with_weights(&weights);
        let pts = sweep.ranked(&[0], &[0, 1]);
        // intact: comp {0,1} weight 11 vs {2,3} weight 10 -> 11
        assert!((pts[0].lcc_weight - 11.0).abs() < 1e-9);
        assert!((pts[0].lcc_weight_frac - 11.0 / 21.0).abs() < 1e-9);
        // after removing 0: {1}=1, {2,3}=10 -> 10
        assert!((pts[1].lcc_weight - 10.0).abs() < 1e-9);
    }

    #[test]
    fn grouped_sweep_reports_group_indices() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let groups = vec![vec![1u32, 2], vec![4u32]];
        let sweep = RemovalSweep::new(&g);
        let pts = sweep.grouped(&groups);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].groups_removed, 0);
        assert_eq!(pts[0].lcc_nodes, 6);
        // group 0 removes {1,2}: components {0} {3,4,5}
        assert_eq!(pts[1].groups_removed, 1);
        assert_eq!(pts[1].removed, 2);
        assert_eq!(pts[1].lcc_nodes, 3);
        assert_eq!(pts[1].wcc_count, 2);
        // group 1 removes {4}: {0} {3} {5}
        assert_eq!(pts[2].lcc_nodes, 1);
        assert_eq!(pts[2].wcc_count, 3);
    }

    #[test]
    fn repeated_ids_stay_removed_from_first_occurrence() {
        // Edge 0→1 plus isolated node 2. A repeated id is removed from its
        // first occurrence on, as masking each prefix directly has it.
        let g = DiGraph::from_edges(3, [(0, 1)]);
        let sweep = RemovalSweep::new(&g);
        let lcc_wcc = |pts: Vec<SweepPoint>| -> Vec<(u32, usize)> {
            pts.iter().map(|p| (p.lcc_nodes, p.wcc_count)).collect()
        };
        assert_eq!(
            lcc_wcc(sweep.ranked(&[0, 0], &[0, 1, 2])),
            [(2, 2), (1, 2), (1, 2)]
        );
        // overlapping AS groups: node 0 is in both
        assert_eq!(
            lcc_wcc(sweep.grouped(&[vec![0], vec![0, 2]])),
            [(2, 2), (1, 2), (1, 1)]
        );
    }

    #[test]
    fn full_wipeout_in_one_round() {
        // frac = 1.0 removes every survivor in the first round.
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)]);
        let pts = RemovalSweep::new(&g).iterative_fraction(1.0, 3, RankBy::DegreeIterative);
        // baseline + one wipeout round; later rounds have nobody to remove
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].removed, 6);
        assert_eq!(pts[1].lcc_nodes, 0);
        assert_eq!(pts[1].wcc_count, 0);
        assert_eq!(pts[1].lcc_node_frac, 0.0);
        let naive = RemovalSweep::new(&g).iterative_fraction_naive(1.0, 3, RankBy::DegreeIterative);
        assert_eq!(pts, naive);
    }

    #[test]
    fn weighted_full_wipeout_matches_naive() {
        // frac = 1.0 with weights: the offline weighted pass must agree
        // with the naive engine through the wipeout round (LCC weight 0).
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)]);
        let weights: Vec<f64> = (0..6).map(|i| (i * 3 + 1) as f64).collect();
        let sweep = RemovalSweep::new(&g).with_weights(&weights);
        let fast = sweep.iterative_fraction(1.0, 2, RankBy::DegreeIterative);
        let naive = sweep.iterative_fraction_naive(1.0, 2, RankBy::DegreeIterative);
        assert_eq!(fast, naive);
        assert_eq!(fast.last().unwrap().lcc_weight, 0.0);
        assert_eq!(fast.last().unwrap().lcc_weight_frac, 0.0);
    }

    #[test]
    fn weighted_all_equal_weights_track_node_counts() {
        // With all-equal weights the weighted curve is a scaled copy of the
        // node curve: lcc_weight == w * lcc_nodes at every round.
        let g = DiGraph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]);
        let weights = vec![3.0; 7];
        let sweep = RemovalSweep::new(&g).with_weights(&weights);
        let fast = sweep.iterative_fraction(0.2, 4, RankBy::DegreeIterative);
        let naive = sweep.iterative_fraction_naive(0.2, 4, RankBy::DegreeIterative);
        assert_eq!(fast, naive);
        for p in &fast {
            assert_eq!(p.lcc_weight, 3.0 * p.lcc_nodes as f64);
        }
    }

    #[test]
    fn weighted_single_surviving_node() {
        // Remove everything but node 3: the LCC weight collapses to that
        // node's own weight.
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let weights = vec![5.0, 6.0, 7.0, 8.0];
        let sweep = RemovalSweep::new(&g).with_weights(&weights);
        let pts = sweep.ranked(&[0, 1, 2], &[0, 3]);
        assert_eq!(pts[1].lcc_nodes, 1);
        assert_eq!(pts[1].lcc_weight, 8.0);
        assert!((pts[1].lcc_weight_frac - 8.0 / 26.0).abs() < 1e-12);
        // the iterative engine agrees with the naive one on the same shape
        let fast = sweep.iterative_fraction(0.34, 3, RankBy::DegreeIterative);
        let naive = sweep.iterative_fraction_naive(0.34, 3, RankBy::DegreeIterative);
        assert_eq!(fast, naive);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_rejected() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let weights = vec![1.0, -2.0];
        let _ = RemovalSweep::new(&g).with_weights(&weights);
    }

    #[test]
    fn weighted_sweep_with_all_zero_weights() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let weights = vec![0.0; 4];
        let sweep = RemovalSweep::new(&g).with_weights(&weights);
        let pts = sweep.iterative_fraction(0.5, 2, RankBy::DegreeIterative);
        for p in &pts {
            assert_eq!(p.lcc_weight, 0.0);
            // zero total weight must not divide by zero
            assert_eq!(p.lcc_weight_frac, 0.0);
        }
        let ranked = sweep.ranked(&[1, 2], &[0, 1, 2]);
        for p in &ranked {
            assert_eq!(p.lcc_weight, 0.0);
            assert_eq!(p.lcc_weight_frac, 0.0);
        }
    }

    #[test]
    fn empty_order_with_checkpoint_zero() {
        // Exercised by tests/resilience_invariants.rs: an empty removal
        // order with checkpoint 0 must evaluate the intact graph.
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let weights = vec![1.0, 2.0, 3.0, 4.0];
        let pts = RemovalSweep::new(&g)
            .with_weights(&weights)
            .ranked(&[], &[0]);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].removed, 0);
        assert_eq!(pts[0].lcc_nodes, 2);
        assert_eq!(pts[0].wcc_count, 2);
        assert!((pts[0].lcc_weight - 7.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_matches_naive_with_weights() {
        let g = DiGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 2),
                (5, 6),
                (6, 7),
            ],
        );
        let weights: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let sweep = RemovalSweep::new(&g).with_weights(&weights);
        let fast = sweep.iterative_fraction(0.25, 4, RankBy::DegreeIterative);
        let naive = sweep.iterative_fraction_naive(0.25, 4, RankBy::DegreeIterative);
        assert_eq!(fast, naive);
    }

    #[test]
    fn checkpoint_beyond_order_clamps() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let sweep = RemovalSweep::new(&g);
        let pts = sweep.ranked(&[0, 1], &[0, 5]);
        assert_eq!(pts[1].removed, 2);
    }

    #[test]
    fn empty_checkpoints_empty_result() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let pts = RemovalSweep::new(&g).ranked(&[0], &[]);
        assert!(pts.is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Tie-heavy graphs for the attack's histogram selection: `copies`
    /// disjoint `size`-cliques (both directions), directed `size`-rings,
    /// stars of `size` leaves, or `copies` hubs that all follow the same
    /// `size` leaves (hubs of equal degree), plus `isolated` degree-0
    /// nodes. Ids are scrambled by `perm_seed`, so tied nodes spread over
    /// the id range and the tie-break decides which of them go.
    fn tie_heavy(shape: usize, size: u32, copies: u32, isolated: u32, perm_seed: u64) -> DiGraph {
        let mut edges = Vec::new();
        let mut n = 0;
        match shape {
            0 => {
                for _ in 0..copies {
                    for a in 0..size {
                        edges.extend((0..size).map(|b| (n + a, n + b)));
                    }
                    n += size;
                }
            }
            1 => {
                for _ in 0..copies {
                    edges.extend((0..size).map(|a| (n + a, n + (a + 1) % size)));
                    n += size;
                }
            }
            2 => {
                for _ in 0..copies {
                    edges.extend((1..=size).map(|leaf| (n, n + leaf)));
                    n += size + 1;
                }
            }
            _ => {
                for hub in 0..copies {
                    edges.extend((0..size).map(|leaf| (hub, copies + leaf)));
                }
                n = copies + size;
            }
        }
        n += isolated;
        let mut perm: Vec<u32> = (0..n).collect();
        let mut s = perm_seed;
        for i in (1..perm.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        DiGraph::from_edges(
            n,
            edges
                .iter()
                .map(|&(a, b)| (perm[a as usize], perm[b as usize])),
        )
    }

    proptest! {
        /// The histogram selection picks the naive `(degree desc, id asc)`
        /// top-k on graphs where most nodes tie, at small and large round
        /// fractions. Weights that vary by id make a wrong tie-break
        /// visible even where the graph is symmetric.
        #[test]
        fn degree_attack_ties_match_naive(
            size in 1u32..9,
            copies in 1u32..7,
            isolated in 0u32..4,
            perm_seed in any::<u64>()
        ) {
            for shape in 0..4 {
                let g = tie_heavy(shape, size, copies, isolated, perm_seed);
                let weights: Vec<f64> =
                    (0..g.node_count()).map(|i| ((i * 7) % 11) as f64).collect();
                let plain = RemovalSweep::new(&g);
                let weighted = RemovalSweep::new(&g).with_weights(&weights);
                for frac in [0.01, 0.1, 0.34, 1.0] {
                    for sweep in [&plain, &weighted] {
                        let fast = sweep.iterative_fraction(frac, 6, RankBy::DegreeIterative);
                        let slow = sweep.iterative_fraction_naive(frac, 6, RankBy::DegreeIterative);
                        prop_assert_eq!(&fast, &slow, "shape {} frac {}", shape, frac);
                    }
                }
            }
        }

        /// The fast reverse sweep agrees with direct per-checkpoint masking
        /// (weights exactly: they are integers, so summation order is
        /// unobservable).
        #[test]
        fn reverse_equals_direct(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..80),
            perm_seed in 0u64..1000,
            repeats in proptest::collection::vec((0usize..20, 0usize..24), 0..4)
        ) {
            let g = DiGraph::from_edges(20, edges);
            // deterministic pseudo-random removal order
            let mut order: Vec<u32> = (0..20).collect();
            let mut s = perm_seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            // copies of some ids at other positions (before or after the
            // original): a repeat must not re-add its node twice
            for &(from, to) in &repeats {
                order.insert(to.min(order.len()), order[from]);
            }
            let weights: Vec<f64> = (0..20).map(|i| (i % 5) as f64 + 1.0).collect();
            let mut checkpoints: Vec<usize> = vec![0, 3, 7, 12, 20];
            if order.len() > 20 {
                checkpoints.push(order.len());
            }
            let sweep = RemovalSweep::new(&g).with_weights(&weights);
            let fast = sweep.ranked(&order, &checkpoints);

            for (pt, &k) in fast.iter().zip(&checkpoints) {
                let mut alive = vec![true; 20];
                for &v in &order[..k.min(order.len())] {
                    alive[v as usize] = false;
                }
                let direct = weakly_connected(&g, Some(&alive));
                prop_assert_eq!(pt.lcc_nodes, direct.largest(), "k = {}", k);
                prop_assert_eq!(pt.wcc_count, direct.count(), "k = {}", k);
                prop_assert_eq!(pt.lcc_weight, direct.largest_weight(&weights), "k = {}", k);
            }
        }

        /// The prefix-only Fisher–Yates keeps the same `k` victims in the
        /// same order as a full shuffle + truncate, and leaves the RNG at
        /// the same point (same draw count).
        #[test]
        fn prefix_shuffle_equals_shuffle_truncate(len in 0usize..=300, seed in any::<u64>()) {
            // `len % 3` pins the empty, one- and two-element slices too
            for len in [len % 3, len] {
                let ids: Vec<u32> =
                    (0..len as u32).map(|v| v.wrapping_mul(2_654_435_761)).collect();
                for k in 0..=len {
                    let mut full = ids.clone();
                    let mut full_rng = rand::rngs::StdRng::seed_from_u64(seed);
                    full.shuffle(&mut full_rng);
                    full.truncate(k);
                    let mut prefix = ids.clone();
                    let mut prefix_rng = rand::rngs::StdRng::seed_from_u64(seed);
                    shuffle_prefix(&mut prefix, k, &mut prefix_rng);
                    prop_assert_eq!(&prefix[..k], &full[..], "len {} k {}", len, k);
                    prop_assert_eq!(
                        prefix_rng.next_u64(),
                        full_rng.next_u64(),
                        "len {} k {}",
                        len,
                        k
                    );
                }
            }
        }

        /// The incremental engine reproduces the naive rescan-everything
        /// sweep exactly: same victims, same LCC sizes, weights, and
        /// component counts at every round, for both ranking modes.
        #[test]
        fn incremental_equals_naive(
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..100),
            seed in 0u64..500
        ) {
            let g = DiGraph::from_edges(24, edges);
            let weights: Vec<f64> = (0..24).map(|i| ((i * 7) % 11) as f64).collect();
            // Unweighted sweep: exercises the reverse union-find fast path.
            let plain = RemovalSweep::new(&g);
            // Weighted sweep: exercises the offline weighted reverse pass.
            let weighted = RemovalSweep::new(&g).with_weights(&weights);
            for rank in [RankBy::DegreeIterative, RankBy::Random { seed }] {
                for sweep in [&plain, &weighted] {
                    let fast = sweep.iterative_fraction(0.1, 6, rank);
                    let slow = sweep.iterative_fraction_naive(0.1, 6, rank);
                    prop_assert_eq!(&fast, &slow, "rank {:?}", rank);
                }
            }
        }

        /// The weighted offline reverse pass reproduces the naive engine
        /// bit-for-bit on random graphs with random integer-valued weights
        /// (integer weights make float summation order unobservable, so
        /// exact equality is the right assertion), across both ranking
        /// modes.
        #[test]
        fn weighted_offline_equals_naive(
            edges in proptest::collection::vec((0u32..18, 0u32..18), 0..90),
            raw_weights in proptest::collection::vec(0u32..10_000, 18),
            seed in 0u64..300,
            frac_i in 0usize..3
        ) {
            let frac = [0.1, 0.34, 1.0][frac_i];
            let g = DiGraph::from_edges(18, edges);
            let weights: Vec<f64> = raw_weights.iter().map(|&w| w as f64).collect();
            let sweep = RemovalSweep::new(&g).with_weights(&weights);
            for rank in [RankBy::DegreeIterative, RankBy::Random { seed }] {
                let fast = sweep.iterative_fraction(frac, 5, rank);
                let slow = sweep.iterative_fraction_naive(frac, 5, rank);
                prop_assert_eq!(&fast, &slow, "rank {:?} frac {}", rank, frac);
            }
        }

        /// Every round of the attack's schedule (`degree_schedule`, with
        /// its incremental degrees and histogram) removes the `(degree
        /// desc, id asc)` top-k of a full degree recount over the
        /// survivors, with `k` from the survivor count, until the rounds or
        /// the nodes run out.
        #[test]
        fn incremental_degrees_match_recount(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..120),
            frac in 0.0f64..0.4
        ) {
            let n = 20usize;
            let g = DiGraph::from_edges(n as u32, edges);
            let steps = 8;
            let (order, boundaries) = RemovalSweep::new(&g).degree_schedule(frac, steps);
            prop_assert_eq!(boundaries[0], 0);
            prop_assert_eq!(*boundaries.last().unwrap(), order.len());
            let mut alive = vec![true; n];
            let mut survivors = n;
            for (round, w) in boundaries.windows(2).enumerate() {
                let mut deg = vec![0u32; n];
                for (a, b) in g.edges() {
                    if alive[a as usize] && alive[b as usize] {
                        deg[a as usize] += 1;
                        deg[b as usize] += 1;
                    }
                }
                let mut want: Vec<u32> = (0..n as u32).filter(|&v| alive[v as usize]).collect();
                want.sort_by_key(|&v| (std::cmp::Reverse(deg[v as usize]), v));
                want.truncate(round_size(survivors, frac));
                want.sort_unstable();
                let mut got = order[w[0]..w[1]].to_vec();
                got.sort_unstable();
                prop_assert_eq!(&got, &want, "round {}", round);
                for &v in &got {
                    alive[v as usize] = false;
                }
                survivors -= got.len();
            }
            let rounds = boundaries.len() - 1;
            prop_assert!(rounds == steps || (rounds < steps && survivors == 0));
        }

        /// LCC never grows as more nodes are removed along a fixed order.
        #[test]
        fn lcc_monotone_decreasing(
            edges in proptest::collection::vec((0u32..15, 0u32..15), 0..60)
        ) {
            let g = DiGraph::from_edges(15, edges);
            let order: Vec<u32> = (0..15).collect();
            let checkpoints: Vec<usize> = (0..=15).collect();
            let pts = RemovalSweep::new(&g).ranked(&order, &checkpoints);
            for w in pts.windows(2) {
                prop_assert!(w[1].lcc_nodes <= w[0].lcc_nodes);
            }
        }
    }
}
