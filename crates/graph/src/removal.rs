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

use crate::components::{strongly_connected, weakly_connected};
use crate::digraph::DiGraph;
use crate::par;
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
    /// Number of strongly connected components (only when SCC computation
    /// is enabled; 0 otherwise).
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

/// Drop the dead ids from `ids`, keeping their order. Every id is written
/// and the write index advances by `alive[v]`, so there is no branch to
/// mispredict on a random mask.
fn retain_alive(ids: &mut Vec<u32>, alive: &[bool]) {
    let mut kept = 0;
    for i in 0..ids.len() {
        let v = ids[i];
        ids[kept] = v;
        kept += alive[v as usize] as usize;
    }
    ids.truncate(kept);
}

/// The reverse pass's sets, with the running metrics its merges move.
struct Rejoin {
    uf: WeightedUnionFind,
    merges: usize,
    max_size: u32,
    max_weight: f64,
}

impl Rejoin {
    /// Merge every alive node of `nbrs` into the set rooted at `root`, one
    /// `find` per neighbour, and return the root of the result.
    fn absorb(&mut self, alive: &[bool], mut root: u32, nbrs: &[u32]) -> u32 {
        for &w in nbrs {
            if alive[w as usize] {
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
    compute_scc: bool,
}

impl<'g> RemovalSweep<'g> {
    /// New sweep over `g`.
    pub fn new(g: &'g DiGraph) -> Self {
        Self {
            g,
            weights: None,
            compute_scc: false,
        }
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

    /// Also compute SCC counts at every evaluation point (costly).
    pub fn with_scc(mut self, yes: bool) -> Self {
        self.compute_scc = yes;
        self
    }

    fn total_weight(&self) -> f64 {
        self.weights
            .as_ref()
            .map(|w| w.iter().sum())
            .unwrap_or(0.0)
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
        let scc_count = if self.compute_scc {
            strongly_connected(self.g, Some(alive)).count()
        } else {
            0
        };
        SweepPoint {
            removed,
            groups_removed: groups,
            lcc_nodes,
            lcc_node_frac: if n > 0 { lcc_nodes as f64 / n as f64 } else { 0.0 },
            lcc_weight,
            lcc_weight_frac,
            wcc_count: wcc.count(),
            scc_count,
        }
    }

    /// SCC count at every boundary (removal-count prefix of `order`).
    ///
    /// Tarjan is inherently serial *within* one evaluation, but the
    /// per-boundary evaluations are independent pure functions, so they fan
    /// out across OS threads via [`par::parallel_map`]: with `t`
    /// threads the wall-clock cost of the worst (SCC-enabled) path drops
    /// from `rounds·O(N+E)` serial to `O((N+E)/t)` per round. Results come
    /// back in boundary order, so output never depends on scheduling.
    fn scc_counts_at(&self, order: &[u32], boundaries: &[usize]) -> Vec<usize> {
        par::parallel_map(boundaries, |&b| {
            let mut alive = vec![true; self.g.node_count()];
            for &v in &order[..b.min(order.len())] {
                alive[v as usize] = false;
            }
            strongly_connected(self.g, Some(&alive)).count()
        })
    }

    /// Fig. 12 methodology: in each of `steps` rounds remove `frac` of the
    /// *remaining* nodes (at least 1), ranked per `rank`. Returns one point
    /// per round, including a round-0 baseline with nothing removed.
    ///
    /// The engine is incremental and two-phase:
    ///
    /// 1. **Victim selection.** [`RankBy::DegreeIterative`] maintains
    ///    survivor degrees by decrementing the CSR neighbours of each
    ///    removed node (`O(k·d̄)` per round instead of an `O(E)` edge
    ///    rescan) and picks the top-`k` with `select_nth_unstable`
    ///    (`O(survivors)` instead of a full sort). [`RankBy::Random`] reads
    ///    no degrees, so it keeps none: it draws a full Fisher–Yates over
    ///    the survivor list but stores only what the kept `k`-prefix needs
    ///    (`shuffle_prefix`). The selection never depends on component
    ///    metrics, so the whole removal schedule is known before anything
    ///    is evaluated.
    /// 2. **Evaluation**: all rounds — weighted or not — are evaluated in
    ///    one serial reverse union-find pass costing `O((E+N)·α)` *total*,
    ///    at two `find`s per merge; the per-root weight accumulators ride
    ///    along inside [`WeightedUnionFind`], so the weighted Fig. 13-style
    ///    metrics cost the same near-linear pass as the unweighted ones.
    ///    When SCC counts are requested, the independent per-round Tarjan
    ///    evaluations fan out across threads (see `Self::scc_counts_at`).
    ///
    /// Output is bit-identical to [`Self::iterative_fraction_naive`]: every
    /// unweighted metric is integer-derived, and the weighted metrics sum
    /// the same weight multisets (exactly the same bits whenever weights
    /// are integer-valued, as all the paper's user/toot counts are — the
    /// reverse pass merges accumulators in union order rather than node
    /// order, which is invisible below 2^53). The differential property
    /// tests below pin equality in all configurations.
    pub fn iterative_fraction(&self, frac: f64, steps: usize, rank: RankBy) -> Vec<SweepPoint> {
        assert!((0.0..=1.0).contains(&frac), "frac out of range");
        let n = self.g.node_count();
        let mut alive = vec![true; n];
        let mut alive_count = n;
        let mut rng = rand::rngs::StdRng::seed_from_u64(match rank {
            RankBy::Random { seed } => seed,
            RankBy::DegreeIterative => 0,
        });

        // ---- phase 1: removal schedule via incremental degrees ----------
        // With every node alive, per-node total degree equals the edge-scan
        // count the naive implementation starts from. Random ranking never
        // reads degrees, so it skips their upkeep entirely.
        let by_degree = rank == RankBy::DegreeIterative;
        let mut deg: Vec<u32> = if by_degree {
            (0..n as u32).map(|v| self.g.degree(v)).collect()
        } else {
            Vec::new()
        };
        // Survivor ids, ascending, maintained incrementally: compacting
        // them after each round keeps exactly the nodes an `(0..n).filter`
        // rescan would produce (same order, same content), but costs
        // `O(survivors)` instead of `O(N)` per round.
        let mut survivors: Vec<u32> = (0..n as u32).collect();
        // Reused candidate buffer: cleared, never shrunk.
        let mut cands: Vec<u32> = Vec::with_capacity(n);
        // Concatenated victims of every round, plus the cumulative removal
        // count after round r at boundaries[r] (boundaries[0] = 0 is the
        // intact baseline).
        let mut order: Vec<u32> = Vec::new();
        let mut boundaries: Vec<usize> = Vec::with_capacity(steps + 1);
        boundaries.push(0);

        for _ in 0..steps {
            if alive_count == 0 {
                break;
            }
            let k = ((alive_count as f64 * frac).round() as usize)
                .max(1)
                .min(alive_count);
            cands.clear();
            cands.extend_from_slice(&survivors);
            match rank {
                RankBy::DegreeIterative => {
                    // Partition so cands[..k] holds the k highest-degree
                    // survivors (ties broken by ascending id). The selected
                    // *set* equals the full-sort-then-truncate set because
                    // the comparator is a total order, which is all the
                    // evaluation can observe.
                    if k < cands.len() {
                        cands.select_nth_unstable_by(k - 1, |&a, &b| {
                            deg[b as usize]
                                .cmp(&deg[a as usize])
                                .then(a.cmp(&b))
                        });
                        cands.truncate(k);
                    }
                }
                RankBy::Random { .. } => {
                    // Every draw of a full shuffle, so the RNG stream
                    // matches the naive implementation's.
                    shuffle_prefix(&mut cands, k, &mut rng);
                    cands.truncate(k);
                }
            }
            for &v in &cands {
                alive[v as usize] = false;
            }
            // Decrement surviving neighbours once per incident edge. Edges
            // between two victims touch no survivor and are skipped by the
            // alive check, matching the naive both-endpoints-alive count.
            if by_degree {
                for &v in &cands {
                    for &w in self.g.out_neighbors(v) {
                        if alive[w as usize] {
                            deg[w as usize] -= 1;
                        }
                    }
                    for &w in self.g.in_neighbors(v) {
                        if alive[w as usize] {
                            deg[w as usize] -= 1;
                        }
                    }
                }
            }
            alive_count -= k;
            retain_alive(&mut survivors, &alive);
            order.extend_from_slice(&cands);
            boundaries.push(order.len());
        }

        // ---- phase 2: evaluate every round ------------------------------
        // One near-linear reverse union-find pass over all boundaries; the
        // weighted metrics ride along in per-root accumulators and SCC
        // counts (when enabled) fan out across threads.
        self.reverse_sweep(&order, &boundaries, None)
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
            let k = ((alive_count as f64 * frac).round() as usize).max(1).min(alive_count);
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
                    cands.sort_by(|&a, &b| {
                        deg[b as usize].cmp(&deg[a as usize]).then(a.cmp(&b))
                    });
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
    /// sweep is near-linear — unless SCC counting is enabled, in which case
    /// each checkpoint additionally pays one Tarjan pass (fanned out across
    /// threads, see `Self::scc_counts_at`). An id repeated in `order`
    /// stays removed from its first occurrence on.
    pub fn ranked(&self, order: &[u32], checkpoints: &[usize]) -> Vec<SweepPoint> {
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be strictly ascending"
        );
        let boundaries: Vec<usize> = checkpoints
            .iter()
            .map(|&c| c.min(order.len()))
            .collect();
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
    /// [`par`] (Fig. 12's two graphs, Fig. 13's four orders, the random
    /// baseline's trials), and SCC counts fan out per boundary.
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

        // If SCC counts are requested, evaluate the independent
        // per-boundary Tarjan passes on worker threads (Tarjan cannot be
        // run incrementally, but each boundary is a pure function).
        let scc_counts: Vec<usize> = if self.compute_scc {
            self.scc_counts_at(order, boundaries)
        } else {
            Vec::new()
        };

        // Start fully removed at max boundary, then add nodes back. A
        // repeated id stays removed from its first occurrence, as direct
        // masking of each prefix has it, so it re-enters only there: the
        // dead count falls short of `max_removed` exactly when ids repeat.
        let mut alive = vec![true; n];
        let mut alive_count = n;
        for &v in &order[..max_removed] {
            alive_count -= alive[v as usize] as usize;
            alive[v as usize] = false;
        }
        let first_occurrence: Vec<bool> = if alive_count + max_removed == n {
            Vec::new()
        } else {
            let mut seen = vec![false; n];
            order[..max_removed]
                .iter()
                .map(|&v| !std::mem::replace(&mut seen[v as usize], true))
                .collect()
        };

        let mut sets = Rejoin {
            uf: match self.weights {
                Some(w) => WeightedUnionFind::new(w),
                None => WeightedUnionFind::unweighted(n),
            },
            merges: 0,
            max_size: if alive_count > 0 { 1 } else { 0 },
            max_weight: 0.0,
        };
        // A singleton's weight is its node's own; merged sets report theirs
        // as they form.
        let own_weight = |v: u32| self.weights.map_or(0.0, |w| w[v as usize]);

        // Edges among initially-alive nodes: each alive source's out-list.
        for a in 0..n as u32 {
            if alive[a as usize] {
                sets.max_weight = sets.max_weight.max(own_weight(a));
                let root = sets.uf.find(a);
                sets.absorb(&alive, root, self.g.out_neighbors(a));
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
                alive[v as usize] = true;
                alive_count += 1;
                sets.max_size = sets.max_size.max(1);
                sets.max_weight = sets.max_weight.max(own_weight(v));
                // `v` re-enters as a singleton root.
                let root = sets.absorb(&alive, v, self.g.out_neighbors(v));
                sets.absorb(&alive, root, self.g.in_neighbors(v));
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
                scc_count: if self.compute_scc {
                    scc_counts[bi]
                } else {
                    0
                },
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
    fn scc_counts_when_enabled() {
        // 2-cycle {0,1} plus bridge to 2
        let g = DiGraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
        let sweep = RemovalSweep::new(&g).with_scc(true);
        let pts = sweep.ranked(&[0], &[0, 1]);
        assert_eq!(pts[0].scc_count, 2); // {0,1} and {2}
        assert_eq!(pts[1].scc_count, 2); // {1} and {2}
        let pts2 = RemovalSweep::new(&g)
            .with_scc(true)
            .iterative_fraction(0.4, 1, RankBy::DegreeIterative);
        assert!(pts2[0].scc_count > 0);
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
    fn incremental_matches_naive_with_scc_and_weights() {
        let g = DiGraph::from_edges(
            8,
            [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (5, 6), (6, 7)],
        );
        let weights: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let sweep = RemovalSweep::new(&g).with_weights(&weights).with_scc(true);
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

    proptest! {
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
        /// modes and with SCC counting on and off.
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
            for scc in [false, true] {
                let sweep = RemovalSweep::new(&g).with_weights(&weights).with_scc(scc);
                for rank in [RankBy::DegreeIterative, RankBy::Random { seed }] {
                    let fast = sweep.iterative_fraction(frac, 5, rank);
                    let slow = sweep.iterative_fraction_naive(frac, 5, rank);
                    prop_assert_eq!(&fast, &slow, "scc {} rank {:?} frac {}", scc, rank, frac);
                }
            }
        }

        /// Incrementally maintained survivor degrees agree with a full
        /// recount after every round of removals.
        #[test]
        fn incremental_degrees_match_recount(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..120),
            kill_seed in 0u64..1000
        ) {
            let n = 20u32;
            let g = DiGraph::from_edges(n, edges);
            let mut alive = vec![true; n as usize];
            let mut deg: Vec<u32> = (0..n).map(|v| g.degree(v)).collect();
            let mut s = kill_seed;
            for _round in 0..6 {
                // pick ~3 pseudo-random victims among survivors
                let survivors: Vec<u32> =
                    (0..n).filter(|&v| alive[v as usize]).collect();
                if survivors.is_empty() { break; }
                let mut victims = Vec::new();
                for _ in 0..3usize.min(survivors.len()) {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let v = survivors[(s >> 33) as usize % survivors.len()];
                    if !victims.contains(&v) { victims.push(v); }
                }
                for &v in &victims { alive[v as usize] = false; }
                for &v in &victims {
                    for &w in g.out_neighbors(v) {
                        if alive[w as usize] { deg[w as usize] -= 1; }
                    }
                    for &w in g.in_neighbors(v) {
                        if alive[w as usize] { deg[w as usize] -= 1; }
                    }
                }
                // recount from scratch, the way the naive sweep does
                let mut expect = vec![0u32; n as usize];
                for (a, b) in g.edges() {
                    if alive[a as usize] && alive[b as usize] {
                        expect[a as usize] += 1;
                        expect[b as usize] += 1;
                    }
                }
                for v in 0..n as usize {
                    if alive[v] {
                        prop_assert_eq!(deg[v], expect[v], "node {}", v);
                    }
                }
            }
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
