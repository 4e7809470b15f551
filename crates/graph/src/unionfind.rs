//! Disjoint-set union with path halving and union by size, plus a
//! weight-carrying variant used by the reverse removal sweeps.
//!
//! **Layout.** One `i32` per node: a non-negative entry is the node's
//! parent, a negative entry marks a root and holds its set's size,
//! negated. Sizes need no second array, so a 1M-node structure is 4 MB,
//! and finding a root and reading its size touch the same cell. Node ids
//! and sizes must fit in an `i32`, so `n <= i32::MAX` (asserted).
//!
//! A merge costs exactly two `find`s. [`UnionFind::union`] returns the
//! merged root and size, so callers that track the largest set need no
//! third lookup; a caller that already holds a root (the reverse sweep
//! re-adding a node) passes it as `a`, whose `find` is then one load.
//! The merge path is `#[inline]`: the sweeps call it once per edge from
//! another module, and without the hint it compiled to an outlined call
//! returning its tuple through memory.
//!
//! **Liveness.** The reverse removal sweeps mark a removed node in the
//! same cell: `WeightedUnionFind::kill` stores the `DEAD` sentinel there,
//! `revive` puts the node back as a singleton root, and `is_live` reads
//! the cell that the following `find` reads, so the liveness check costs
//! no second load. These methods are crate-private: only a node no merge
//! has touched may be killed, which the sweeps guarantee by killing before
//! any union.

/// Cell of a removed node: `i32::MIN` is below every negated size (sizes
/// are at most `i32::MAX`) and is never a parent.
const DEAD: i32 = i32::MIN;

/// Union-find over `0..n`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    /// Parent of each node, `-size` at a root, or `DEAD` for a removed
    /// node.
    link: Vec<i32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= i32::MAX as usize,
            "union-find over more than i32::MAX nodes"
        );
        Self { link: vec![-1; n] }
    }

    /// Representative of `x`'s set (with path halving).
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.link[x as usize];
            if p < 0 {
                return x;
            }
            let gp = self.link[p as usize];
            if gp < 0 {
                return p as u32;
            }
            self.link[x as usize] = gp;
            x = gp as u32;
        }
    }

    /// Merge the sets of `a` and `b`. Returns `Some((root, size))` of the
    /// merged set when they were distinct, `None` when already one set.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) -> Option<(u32, u32)> {
        let (ra, rb) = (self.find(a), self.find(b));
        (ra != rb).then(|| self.link_roots(ra, rb))
    }

    /// Hang the smaller of two distinct roots under the larger (`rb`
    /// under `ra` on a tie); returns the surviving root and merged size.
    #[inline]
    fn link_roots(&mut self, ra: u32, rb: u32) -> (u32, u32) {
        let (sa, sb) = (self.link[ra as usize], self.link[rb as usize]);
        // Sizes are stored negated: the larger set has the smaller entry.
        let (root, child) = if sa > sb { (rb, ra) } else { (ra, rb) };
        self.link[root as usize] = sa + sb;
        self.link[child as usize] = root as i32;
        (root, (-(sa + sb)) as u32)
    }
}

/// Union-find that additionally carries one `f64` accumulator per root —
/// the total caller-provided weight of the set.
///
/// This is what lets the reverse (additive) removal sweeps report the
/// *weighted* LCC (Fig. 13's user- and toot-normalised curves) in the same
/// near-linear pass that produces the sizes: each merge adds the two root
/// accumulators, in the same two `find`s as an unweighted merge.
///
/// The accumulator is a plain running sum, so its value can differ from a
/// node-order summation by floating-point association. With integer-valued
/// weights (user counts, toot counts — everything this repo sweeps) every
/// partial sum below 2^53 is exact and the association order is
/// unobservable.
///
/// Constructed with [`Self::unweighted`], the structure is a plain
/// [`UnionFind`] and skips all weight bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct WeightedUnionFind {
    uf: UnionFind,
    /// Per-root weight; empty when unweighted.
    weight: Vec<f64>,
}

impl WeightedUnionFind {
    /// `weights.len()` singleton sets, each starting at its own weight.
    pub fn new(weights: &[f64]) -> Self {
        Self {
            uf: UnionFind::new(weights.len()),
            weight: weights.to_vec(),
        }
    }

    /// `n` singleton sets with no weight tracking (merged weights are 0).
    pub fn unweighted(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
            weight: Vec::new(),
        }
    }

    /// Representative of `x`'s set.
    #[inline]
    pub fn find(&mut self, x: u32) -> u32 {
        self.uf.find(x)
    }

    /// Merge the sets of `a` and `b`. Returns `Some((root, size, weight))`
    /// of the merged set when they were distinct (`weight` is 0 when
    /// unweighted), `None` when already one set.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) -> Option<(u32, u32, f64)> {
        let (ra, rb) = (self.uf.find(a), self.uf.find(b));
        if ra == rb {
            return None;
        }
        let (root, size) = self.uf.link_roots(ra, rb);
        let weight = if self.weight.is_empty() {
            0.0
        } else {
            let merged = self.weight[ra as usize] + self.weight[rb as usize];
            self.weight[root as usize] = merged;
            merged
        };
        Some((root, size, weight))
    }

    /// Mark `x` removed. `x` must be a singleton: live and never merged,
    /// or already dead.
    #[inline]
    pub(crate) fn kill(&mut self, x: u32) {
        let cell = &mut self.uf.link[x as usize];
        debug_assert!(*cell == -1 || *cell == DEAD, "killed a merged node");
        *cell = DEAD;
    }

    /// Bring removed `x` back as a singleton root. Its weight is its own,
    /// as a killed node was never merged.
    #[inline]
    pub(crate) fn revive(&mut self, x: u32) {
        let cell = &mut self.uf.link[x as usize];
        debug_assert_eq!(*cell, DEAD, "revived a live node");
        *cell = -1;
    }

    /// Whether `x` is live (never killed, or revived since).
    #[inline]
    pub(crate) fn is_live(&self, x: u32) -> bool {
        self.uf.link[x as usize] != DEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of every set, keyed by root (`0` for non-roots): a recount
    /// that does not trust the stored sizes.
    fn set_sizes(uf: &mut UnionFind, n: u32) -> Vec<u32> {
        let mut sizes = vec![0; n as usize];
        for x in 0..n {
            sizes[uf.find(x) as usize] += 1;
        }
        sizes
    }

    #[test]
    fn weighted_union_accumulates() {
        let mut uf = WeightedUnionFind::new(&[1.0, 2.0, 4.0, 8.0]);
        let (_, size, w) = uf.union(0, 1).unwrap();
        assert_eq!((size, w), (2, 3.0));
        assert!(uf.union(1, 0).is_none());
        let (root, size, w) = uf.union(2, 3).unwrap();
        assert_eq!((size, w), (2, 12.0));
        assert_eq!(uf.find(2), root);
        let (root, size, w) = uf.union(0, 3).unwrap();
        assert_eq!((size, w), (4, 15.0));
        for x in 0..4 {
            assert_eq!(uf.find(x), root);
        }
    }

    #[test]
    fn unweighted_variant_reports_zero_weight() {
        let mut uf = WeightedUnionFind::unweighted(3);
        let (root, size, w) = uf.union(0, 2).unwrap();
        assert_eq!((size, w), (2, 0.0));
        assert_eq!(uf.find(0), root);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(1), root);
    }

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(set_sizes(&mut uf, 5), vec![1; 5]);
        assert_ne!(uf.find(0), uf.find(1));
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        let (root, size) = uf.union(0, 1).unwrap();
        assert_eq!(size, 2);
        assert!(uf.union(1, 0).is_none());
        assert_eq!(uf.find(0), root);
        assert_eq!(uf.find(1), root);
        // three sets: {0,1} {2} {3}
        assert_eq!(set_sizes(&mut uf, 4).iter().filter(|&&s| s > 0).count(), 3);
    }

    #[test]
    fn transitive_connection() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        let (_, size) = uf.union(1, 2).unwrap();
        assert_eq!(size, 4);
        assert_eq!(uf.find(0), uf.find(3));
        let sizes = set_sizes(&mut uf, 6);
        assert_eq!(sizes.iter().max(), Some(&4));
        // {0,1,2,3} {4} {5}
        assert_eq!(sizes.iter().filter(|&&s| s > 0).count(), 3);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(set_sizes(&mut uf, 0).is_empty());
        assert_eq!(UnionFind::new(2).union(0, 1), Some((0, 2)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Component label of every live node under the applied merges (a
    /// label is the smallest id in the component), by repeated relaxation.
    fn naive_labels(live: &[bool], merges: &[(u32, u32)]) -> Vec<u32> {
        let mut label: Vec<u32> = (0..live.len() as u32).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &(a, b) in merges {
                let low = label[a as usize].min(label[b as usize]);
                for x in [a, b] {
                    if label[x as usize] != low {
                        label[x as usize] = low;
                        changed = true;
                    }
                }
            }
        }
        label
    }

    proptest! {
        /// `kill`, `revive` and `union` interleaved as the reverse sweep
        /// uses them (a node is killed only while a singleton, merged only
        /// while live) keep liveness, set membership, and every size and
        /// weight a merge returns equal to a naive recount over the live
        /// nodes and the merges applied so far.
        #[test]
        fn kill_revive_union_match_recount(
            ops in proptest::collection::vec((0u32..3, 0u32..24, 0u32..24), 0..160),
            raw in proptest::collection::vec(0u32..1000, 24)
        ) {
            let n = 24;
            let weights: Vec<f64> = raw.iter().map(|&w| w as f64).collect();
            let mut uf = WeightedUnionFind::new(&weights);
            let mut live = vec![true; n];
            let mut merges: Vec<(u32, u32)> = Vec::new();
            for &(op, a, b) in &ops {
                let label = naive_labels(&live, &merges);
                let singleton = label.iter().filter(|&&l| l == label[a as usize]).count() == 1;
                match op {
                    0 if singleton => {
                        uf.kill(a);
                        live[a as usize] = false;
                    }
                    1 if !live[a as usize] => {
                        uf.revive(a);
                        live[a as usize] = true;
                    }
                    2 if live[a as usize] && live[b as usize] => {
                        let joined = label[a as usize] != label[b as usize];
                        let got = uf.union(a, b);
                        prop_assert_eq!(got.is_some(), joined);
                        merges.push((a, b));
                        if let Some((root, size, weight)) = got {
                            let label = naive_labels(&live, &merges);
                            let set: Vec<u32> = (0..n as u32)
                                .filter(|&y| label[y as usize] == label[a as usize])
                                .collect();
                            prop_assert_eq!(size as usize, set.len());
                            let sum: f64 = set.iter().map(|&y| weights[y as usize]).sum();
                            prop_assert_eq!(weight, sum);
                            prop_assert_eq!(uf.find(a), root);
                        }
                    }
                    _ => {}
                }
                // Liveness, and one root per naive component among the
                // live nodes.
                let label = naive_labels(&live, &merges);
                let mut root_of_label = vec![u32::MAX; n];
                let mut label_of_root = vec![u32::MAX; n];
                for x in 0..n as u32 {
                    prop_assert_eq!(uf.is_live(x), live[x as usize], "node {}", x);
                    if !live[x as usize] {
                        continue;
                    }
                    let (r, l) = (uf.find(x), label[x as usize]);
                    prop_assert!(root_of_label[l as usize] == u32::MAX || root_of_label[l as usize] == r);
                    prop_assert!(label_of_root[r as usize] == u32::MAX || label_of_root[r as usize] == l);
                    root_of_label[l as usize] = r;
                    label_of_root[r as usize] = l;
                }
            }
        }

        /// roots + merges == n, find is idempotent, and the size `union`
        /// returns equals a recount of the merged set.
        #[test]
        fn count_invariant(edges in proptest::collection::vec((0u32..50, 0u32..50), 0..100)) {
            let mut uf = UnionFind::new(50);
            let mut merges = 0;
            for &(a, b) in &edges {
                if let Some((root, size)) = uf.union(a, b) {
                    merges += 1;
                    let members = (0..50u32).filter(|&x| uf.find(x) == root).count();
                    prop_assert_eq!(size as usize, members);
                }
            }
            let roots = (0..50u32).filter(|&x| uf.find(x) == x).count();
            prop_assert_eq!(roots, 50 - merges);
            for x in 0..50u32 {
                let r = uf.find(x);
                prop_assert_eq!(uf.find(r), r);
            }
        }

        /// Every merge's weight equals the sum of its members' initial
        /// weights (integer weights: exact equality), and its size their
        /// count.
        #[test]
        fn weights_track_membership(
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
            raw in proptest::collection::vec(0u32..1000, 40)
        ) {
            let weights: Vec<f64> = raw.iter().map(|&w| w as f64).collect();
            let mut uf = WeightedUnionFind::new(&weights);
            for &(a, b) in &edges {
                if let Some((root, size, weight)) = uf.union(a, b) {
                    let members: Vec<u32> = (0..40u32).filter(|&x| uf.find(x) == root).collect();
                    prop_assert_eq!(size as usize, members.len());
                    let sum: f64 = members.iter().map(|&x| weights[x as usize]).sum();
                    prop_assert_eq!(weight, sum);
                }
            }
        }
    }
}
