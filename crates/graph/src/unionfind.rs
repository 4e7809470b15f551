//! Disjoint-set union with path compression and union by size, plus a
//! weight-carrying variant used by the reverse removal sweeps.

/// Union-find over `0..n`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Reinitialise to `n` singleton sets, reusing the existing buffers
    /// (no allocation once grown to `n`).
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.size.clear();
        self.size.resize(n, 1);
        self.components = n;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.components -= 1;
        true
    }

    /// Are `a` and `b` in the same set?
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn size_of(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// Total number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Size of the largest set (0 when empty).
    pub fn largest(&mut self) -> u32 {
        let n = self.len() as u32;
        let mut best = 0;
        for x in 0..n {
            if self.find(x) == x {
                best = best.max(self.size[x as usize]);
            }
        }
        best
    }
}

/// Union-find that additionally carries one `f64` accumulator per root —
/// the total caller-provided weight of the set.
///
/// This is what lets the reverse (additive) removal sweeps report the
/// *weighted* LCC (Fig. 13's user- and toot-normalised curves) in the same
/// near-linear pass that produces the sizes: each merge folds the two root
/// accumulators together, so reading any component's weight is `O(α)`.
///
/// The accumulator is a plain running sum, so its value can differ from a
/// node-order summation by floating-point association. With integer-valued
/// weights (user counts, toot counts — everything this repo sweeps) every
/// partial sum below 2^53 is exact and the association order is
/// unobservable.
///
/// Constructed with an empty weight slice, the structure degrades to a
/// plain [`UnionFind`] and skips all weight bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct WeightedUnionFind {
    uf: UnionFind,
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

    /// `n` singleton sets with no weight tracking ([`Self::weight_of`]
    /// returns 0 everywhere).
    pub fn unweighted(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
            weight: Vec::new(),
        }
    }

    /// Whether weight accumulators are being maintained.
    pub fn is_weighted(&self) -> bool {
        !self.weight.is_empty()
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        self.uf.find(x)
    }

    /// Merge the sets of `a` and `b`. Returns `Some((root, merged_weight))`
    /// when they were distinct (`merged_weight` is 0 when unweighted).
    pub fn union(&mut self, a: u32, b: u32) -> Option<(u32, f64)> {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return None;
        }
        let merged = if self.weight.is_empty() {
            0.0
        } else {
            self.weight[ra as usize] + self.weight[rb as usize]
        };
        self.uf.union(a, b);
        let root = self.uf.find(a);
        if !self.weight.is_empty() {
            self.weight[root as usize] = merged;
        }
        Some((root, merged))
    }

    /// Total weight of the set containing `x` (0 when unweighted).
    pub fn weight_of(&mut self, x: u32) -> f64 {
        if self.weight.is_empty() {
            return 0.0;
        }
        let r = self.uf.find(x);
        self.weight[r as usize]
    }

    /// Size (node count) of the set containing `x`.
    pub fn size_of(&mut self, x: u32) -> u32 {
        self.uf.size_of(x)
    }

    /// Total number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.uf.component_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_union_accumulates() {
        let mut uf = WeightedUnionFind::new(&[1.0, 2.0, 4.0, 8.0]);
        assert!(uf.is_weighted());
        let (_, w) = uf.union(0, 1).unwrap();
        assert_eq!(w, 3.0);
        assert_eq!(uf.weight_of(1), 3.0);
        assert!(uf.union(1, 0).is_none());
        let (root, w) = uf.union(2, 3).unwrap();
        assert_eq!(w, 12.0);
        assert_eq!(uf.weight_of(root), 12.0);
        let (_, w) = uf.union(0, 3).unwrap();
        assert_eq!(w, 15.0);
        assert_eq!(uf.size_of(2), 4);
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn unweighted_variant_reports_zero_weight() {
        let mut uf = WeightedUnionFind::unweighted(3);
        assert!(!uf.is_weighted());
        let (_, w) = uf.union(0, 2).unwrap();
        assert_eq!(w, 0.0);
        assert_eq!(uf.weight_of(0), 0.0);
        assert_eq!(uf.size_of(0), 2);
        assert_eq!(uf.find(0), uf.find(2));
    }

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert_eq!(uf.size_of(3), 1);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.size_of(0), 2);
    }

    #[test]
    fn transitive_connection() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 2);
        assert!(uf.connected(0, 3));
        assert_eq!(uf.size_of(3), 4);
        assert_eq!(uf.largest(), 4);
        assert_eq!(uf.component_count(), 3); // {0,1,2,3} {4} {5}
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
        assert_eq!(uf.largest(), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// component_count + merges == n, and find is idempotent.
        #[test]
        fn count_invariant(edges in proptest::collection::vec((0u32..50, 0u32..50), 0..100)) {
            let mut uf = UnionFind::new(50);
            let mut merges = 0;
            for &(a, b) in &edges {
                if uf.union(a, b) {
                    merges += 1;
                }
            }
            prop_assert_eq!(uf.component_count(), 50 - merges);
            for x in 0..50u32 {
                let r = uf.find(x);
                prop_assert_eq!(uf.find(r), r);
            }
            // sizes of roots sum to n
            let mut total = 0u32;
            for x in 0..50u32 {
                if uf.find(x) == x {
                    total += uf.size_of(x);
                }
            }
            prop_assert_eq!(total, 50);
        }

        /// A root's weight accumulator always equals the sum of its
        /// members' initial weights (integer weights: exact equality).
        #[test]
        fn weights_track_membership(
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
            raw in proptest::collection::vec(0u32..1000, 40)
        ) {
            let weights: Vec<f64> = raw.iter().map(|&w| w as f64).collect();
            let mut uf = WeightedUnionFind::new(&weights);
            for &(a, b) in &edges {
                uf.union(a, b);
            }
            let mut by_root = vec![0.0f64; 40];
            for x in 0..40u32 {
                let r = uf.find(x);
                by_root[r as usize] += weights[x as usize];
            }
            for x in 0..40u32 {
                let r = uf.find(x);
                prop_assert_eq!(uf.weight_of(x), by_root[r as usize]);
            }
        }
    }
}
