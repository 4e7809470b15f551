//! Compressed sparse-row directed graph.

/// An immutable directed graph in CSR form with both directions indexed.
#[derive(Debug, Clone, PartialEq)]
pub struct DiGraph {
    n: u32,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
}

impl DiGraph {
    /// Build directly from an edge list over `0..n`, dropping self-loops
    /// (the follower semantics of the study have no self-follows) and
    /// parallel edges. Out-of-range endpoints panic.
    ///
    /// The out-CSR is a counting sort on the source, with no copy of the
    /// list: one pass over `edges` counts each row, a second scatters the
    /// targets into their rows, and each row is then sorted and
    /// deduplicated in place. A row that is already strictly ascending, as
    /// every row of a lexicographically sorted list is, is only checked.
    /// The in-CSR is derived from the out-CSR. The graph equals the one a
    /// lexicographic sort and dedup of the pairs fills in, bit for bit.
    ///
    /// `edges` is iterated twice, so its iterator must be `Clone`; pass a
    /// borrowing one (`list.iter().copied()`), as cloning a
    /// `vec::IntoIter` copies the list.
    pub fn from_edges<I>(n: u32, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let nodes = n as usize;
        let mut out_offsets = vec![0u32; nodes + 1];
        for (a, b) in edges.clone() {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            out_offsets[a as usize + 1] += (a != b) as u32;
        }
        prefix_sum(&mut out_offsets);
        let mut out_targets = vec![0u32; out_offsets[nodes] as usize];
        let mut cursor = out_offsets[..nodes].to_vec();
        for (a, b) in edges {
            if a != b {
                let slot = &mut cursor[a as usize];
                out_targets[*slot as usize] = b;
                *slot += 1;
            }
        }
        drop(cursor);
        // Sort and dedup each row, moving it down over the duplicates
        // dropped before it (`kept <= lo`, so no write passes a read).
        let (mut kept, mut lo) = (0, 0);
        for end in &mut out_offsets[1..] {
            let hi = *end as usize;
            let row = &mut out_targets[lo..hi];
            if row.windows(2).all(|w| w[0] < w[1]) {
                if kept != lo {
                    out_targets.copy_within(lo..hi, kept);
                }
                kept += hi - lo;
            } else {
                row.sort_unstable();
                let first = kept;
                for i in lo..hi {
                    let t = out_targets[i];
                    if kept == first || out_targets[kept - 1] != t {
                        out_targets[kept] = t;
                        kept += 1;
                    }
                }
            }
            *end = kept as u32;
            lo = hi;
        }
        out_targets.truncate(kept);
        Self::with_in_csr(n, out_offsets, out_targets)
    }

    /// Assemble a CSR graph from pre-sorted per-node adjacency blocks —
    /// the sharded-worldgen ingest path. Each block covers a contiguous
    /// node range starting at `start`; node `start + k`'s out-targets are
    /// `targets[offsets[k] as usize..offsets[k + 1] as usize]` and must
    /// already be **ascending, deduplicated, and self-free** (the
    /// canonical per-user form the social cursor emits). Blocks must
    /// arrive in node order and cover `0..n` exactly.
    ///
    /// Such blocks are exactly the rows [`Self::from_edges`] sorts and
    /// deduplicates, so their concatenation is its out-CSR, and the
    /// in-CSR is derived the same way: this constructor reproduces
    /// `from_edges`'s output bit-for-bit with no sort (differential-tested
    /// below and in the worldgen sharding proptests).
    pub fn from_sorted_blocks<'a>(
        n: u32,
        blocks: impl IntoIterator<Item = (u32, &'a [u32], &'a [u32])> + Clone,
    ) -> Self {
        let m: usize = blocks.clone().into_iter().map(|(_, _, t)| t.len()).sum();
        let mut out_offsets = Vec::with_capacity(n as usize + 1);
        out_offsets.push(0u32);
        let mut out_targets = Vec::with_capacity(m);
        for (start, offsets, targets) in blocks {
            assert_eq!(
                start as usize + 1,
                out_offsets.len(),
                "blocks out of order or non-contiguous"
            );
            debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
            let base = out_targets.len() as u32;
            for w in offsets.windows(2) {
                debug_assert!(w[0] <= w[1]);
                out_offsets.push(base + w[1]);
            }
            out_targets.extend_from_slice(targets);
        }
        assert_eq!(
            out_offsets.len(),
            n as usize + 1,
            "blocks must cover every node"
        );
        Self::with_in_csr(n, out_offsets, out_targets)
    }

    /// Complete an out-CSR with ascending rows by its in-CSR. Sources are
    /// visited in ascending order, so each in-row comes out ascending. A
    /// target out of `0..n` panics on its count.
    fn with_in_csr(n: u32, out_offsets: Vec<u32>, out_targets: Vec<u32>) -> Self {
        let nodes = n as usize;
        let mut in_offsets = vec![0u32; nodes + 1];
        for &t in &out_targets {
            in_offsets[t as usize + 1] += 1;
        }
        prefix_sum(&mut in_offsets);
        let mut in_sources = vec![0u32; out_targets.len()];
        let mut cursor = in_offsets[..nodes].to_vec();
        for a in 0..nodes {
            let row = &out_targets[out_offsets[a] as usize..out_offsets[a + 1] as usize];
            for &t in row {
                let slot = &mut cursor[t as usize];
                in_sources[*slot as usize] = a as u32;
                *slot += 1;
            }
        }
        DiGraph {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of (deduplicated) edges.
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbours of `v` (sorted ascending).
    pub fn out_neighbors(&self, v: u32) -> &[u32] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbours of `v`.
    pub fn in_neighbors(&self, v: u32) -> &[u32] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> u32 {
        self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: u32) -> u32 {
        self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]
    }

    /// Total degree (in + out) of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Iterate all edges `(a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n).flat_map(move |a| self.out_neighbors(a).iter().map(move |&b| (a, b)))
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = u32> {
        0..self.n
    }
}

/// Turn per-row counts in `offsets[1..]` into row offsets. The edge
/// count must fit the `u32` offsets.
fn prefix_sum(offsets: &mut [u32]) {
    for i in 1..offsets.len() {
        offsets[i] = offsets[i]
            .checked_add(offsets[i - 1])
            .expect("more than u32::MAX edges");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.degree(3), 2);
    }

    #[test]
    fn sorted_blocks_match_builder_exactly() {
        // Random sorted-unique per-node adjacency, split into blocks at
        // several granularities: from_sorted_blocks must equal build().
        let n = 97u32;
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut adjacency: Vec<Vec<u32>> = Vec::new();
        for v in 0..n {
            let mut targets: Vec<u32> = Vec::new();
            for _ in 0..(s % 7) {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let t = (s >> 33) as u32 % n;
                if t != v {
                    targets.push(t);
                }
            }
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            targets.sort_unstable();
            targets.dedup();
            adjacency.push(targets);
        }
        let reference = DiGraph::from_edges(
            n,
            adjacency
                .iter()
                .enumerate()
                .flat_map(|(a, ts)| ts.iter().map(move |&t| (a as u32, t))),
        );
        for block in [1usize, 5, 32, 200] {
            let mut blocks: Vec<(u32, Vec<u32>, Vec<u32>)> = Vec::new();
            let mut lo = 0usize;
            while lo < n as usize {
                let hi = (lo + block).min(n as usize);
                let mut offsets = vec![0u32];
                let mut targets = Vec::new();
                for adj in &adjacency[lo..hi] {
                    targets.extend_from_slice(adj);
                    offsets.push(targets.len() as u32);
                }
                blocks.push((lo as u32, offsets, targets));
                lo = hi;
            }
            let g = DiGraph::from_sorted_blocks(
                n,
                blocks
                    .iter()
                    .map(|(s, o, t)| (*s, o.as_slice(), t.as_slice())),
            );
            assert_eq!(g, reference, "block size {block}");
        }
    }

    #[test]
    fn parallel_edges_dedup() {
        let g = DiGraph::from_edges(2, [(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_dropped() {
        let g = DiGraph::from_edges(3, [(0, 0), (1, 2)]);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.out_neighbors(0).contains(&0));
    }

    #[test]
    fn edges_iterator_round_trips() {
        let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = DiGraph::from_edges(4, edges.clone());
        let got: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(got, edges);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, []);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn isolated_nodes_have_no_neighbors() {
        let g = DiGraph::from_edges(5, [(0, 1)]);
        assert!(g.out_neighbors(3).is_empty());
        assert!(g.in_neighbors(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        DiGraph::from_edges(2, [(0, 5)]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Reference build: drop self-loops, sort and dedup the pairs, fill
    /// the out-CSR in that order and the in-CSR from the pairs re-sorted
    /// by `(target, source)`.
    fn sort_build(n: u32, edges: &[(u32, u32)]) -> DiGraph {
        let mut pairs: Vec<(u32, u32)> = edges.iter().copied().filter(|&(a, b)| a != b).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let offsets = |key: &dyn Fn(&(u32, u32)) -> u32| {
            let mut offsets = vec![0u32; n as usize + 1];
            for e in &pairs {
                offsets[key(e) as usize + 1] += 1;
            }
            for i in 0..n as usize {
                offsets[i + 1] += offsets[i];
            }
            offsets
        };
        let (out_offsets, in_offsets) = (offsets(&|e| e.0), offsets(&|e| e.1));
        let out_targets = pairs.iter().map(|&(_, b)| b).collect();
        let mut by_target = pairs.clone();
        by_target.sort_unstable_by_key(|&(a, b)| (b, a));
        DiGraph {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources: by_target.iter().map(|&(a, _)| a).collect(),
        }
    }

    proptest! {
        /// The counting-sort build equals the sort + dedup reference on
        /// unsorted input with duplicates, self-loops and empty rows (the
        /// trailing nodes have none), and on the same input sorted, where
        /// every row is only checked. `from_sorted_blocks` over the
        /// reference's rows, cut into blocks, equals it too.
        #[test]
        fn counting_build_matches_sort_build(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..160),
            repeats in proptest::collection::vec(any::<u32>(), 0..40),
            extra in 0u32..4
        ) {
            let n = 20 + extra;
            let mut input = edges.clone();
            if !edges.is_empty() {
                input.extend(repeats.iter().map(|&i| edges[i as usize % edges.len()]));
            }
            let reference = sort_build(n, &input);
            prop_assert_eq!(&DiGraph::from_edges(n, input.iter().copied()), &reference);
            let mut sorted = input.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&DiGraph::from_edges(n, sorted.iter().copied()), &reference);
            for block in [1, 3, n] {
                let blocks: Vec<(u32, Vec<u32>, Vec<u32>)> = (0..n)
                    .step_by(block as usize)
                    .map(|lo| {
                        let hi = (lo + block).min(n);
                        let base = reference.out_offsets[lo as usize];
                        let offsets = reference.out_offsets[lo as usize..=hi as usize]
                            .iter()
                            .map(|&o| o - base)
                            .collect();
                        let targets = (lo..hi).flat_map(|v| reference.out_neighbors(v).to_vec()).collect();
                        (lo, offsets, targets)
                    })
                    .collect();
                let g = DiGraph::from_sorted_blocks(
                    n,
                    blocks.iter().map(|(s, o, t)| (*s, o.as_slice(), t.as_slice())),
                );
                prop_assert_eq!(&g, &reference, "block {}", block);
            }
        }

        /// CSR round-trips an arbitrary edge set exactly (after dedup and
        /// self-loop removal).
        #[test]
        fn csr_round_trip(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..300)) {
            let expect: BTreeSet<(u32, u32)> = edges
                .iter()
                .copied()
                .filter(|(a, b)| a != b)
                .collect();
            let g = DiGraph::from_edges(40, edges);
            let got: BTreeSet<(u32, u32)> = g.edges().collect();
            prop_assert_eq!(got, expect);
        }

        /// Degree sums equal edge count in both directions.
        #[test]
        fn degree_sums(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..300)) {
            let g = DiGraph::from_edges(40, edges);
            let out_sum: u32 = g.nodes().map(|v| g.out_degree(v)).sum();
            let in_sum: u32 = g.nodes().map(|v| g.in_degree(v)).sum();
            prop_assert_eq!(out_sum as usize, g.edge_count());
            prop_assert_eq!(in_sum as usize, g.edge_count());
        }

        /// in_neighbors is exactly the transpose of out_neighbors.
        #[test]
        fn transpose_consistency(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..200)) {
            let g = DiGraph::from_edges(30, edges);
            for (a, b) in g.edges() {
                prop_assert!(g.in_neighbors(b).contains(&a));
            }
            for v in g.nodes() {
                for &s in g.in_neighbors(v) {
                    prop_assert!(g.out_neighbors(s).contains(&v));
                }
            }
        }
    }
}
