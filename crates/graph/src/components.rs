//! Weakly connected components, by union-find.
//!
//! The paper's resilience metrics are (i) the size of the Largest Connected
//! Component and (ii) the number of components, computed on graphs with
//! nodes progressively removed (Figs. 12, 13). [`weakly_connected`]
//! labels them over an `alive` mask, so a caller need not rebuild the CSR.
//! The removal sweeps evaluate all their rounds in one reverse union-find
//! pass (see `removal.rs`); this one-shot labelling backs their naive
//! reference, Fig. 13's weighted LCC of the intact federation graph, and
//! worldgen's connectivity tests.

use crate::digraph::DiGraph;
use crate::unionfind::UnionFind;

/// Labelled components of a (masked) graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentInfo {
    /// Component label per node (`u32::MAX` for removed nodes).
    pub labels: Vec<u32>,
    /// Size (node count) per component label.
    pub sizes: Vec<u32>,
}

impl ComponentInfo {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 when none).
    pub fn largest(&self) -> u32 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Sum of `weights` over the nodes of the *heaviest* component.
    ///
    /// Fig. 13 measures the LCC both by instances (unweighted) and by the
    /// users those instances host (weighted); the paper's "LCC covers 96% of
    /// users" style numbers come from here.
    pub fn largest_weight(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.labels.len(), "weight length mismatch");
        let mut acc = vec![0.0; self.sizes.len()];
        for (node, &label) in self.labels.iter().enumerate() {
            if label != u32::MAX {
                acc[label as usize] += weights[node];
            }
        }
        acc.into_iter().fold(0.0, f64::max)
    }
}

/// Weakly connected components of the subgraph induced by `alive` nodes.
///
/// Edge direction is ignored. Pass `None` for the full graph.
pub fn weakly_connected(g: &DiGraph, alive: Option<&[bool]>) -> ComponentInfo {
    let n = g.node_count();
    if let Some(mask) = alive {
        assert_eq!(mask.len(), n, "mask length mismatch");
    }
    let is_alive = |v: u32| alive.is_none_or(|m| m[v as usize]);

    let mut uf = UnionFind::new(n);
    for (a, b) in g.edges() {
        if is_alive(a) && is_alive(b) {
            uf.union(a, b);
        }
    }

    // Label each component by the first node it meets, in node order,
    // so labels do not depend on which node ended up as root.
    let mut labels = vec![u32::MAX; n];
    let mut sizes: Vec<u32> = Vec::new();
    let mut label_of_root = vec![u32::MAX; n];
    for v in 0..n as u32 {
        if !is_alive(v) {
            continue;
        }
        let r = uf.find(v);
        let mut label = label_of_root[r as usize];
        if label == u32::MAX {
            label = sizes.len() as u32;
            label_of_root[r as usize] = label;
            sizes.push(0);
        }
        labels[v as usize] = label;
        sizes[label as usize] += 1;
    }
    ComponentInfo { labels, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcc_two_islands() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let c = weakly_connected(&g, None);
        assert_eq!(c.count(), 2);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
    }

    #[test]
    fn wcc_ignores_direction() {
        let g = DiGraph::from_edges(3, [(1, 0), (1, 2)]);
        let c = weakly_connected(&g, None);
        assert_eq!(c.count(), 1);
        assert_eq!(c.largest(), 3);
    }

    #[test]
    fn wcc_masked_removal_splits() {
        // 0 - 1 - 2: removing node 1 disconnects 0 and 2.
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let alive = vec![true, false, true];
        let c = weakly_connected(&g, Some(&alive));
        assert_eq!(c.count(), 2);
        assert_eq!(c.largest(), 1);
        assert_eq!(c.labels[1], u32::MAX);
    }

    #[test]
    fn largest_weight_uses_weights_not_counts() {
        // component {0,1} (2 nodes, weight 1) vs {2} (1 node, weight 100)
        let g = DiGraph::from_edges(3, [(0, 1)]);
        let c = weakly_connected(&g, None);
        let w = c.largest_weight(&[0.5, 0.5, 100.0]);
        assert_eq!(w, 100.0);
        assert_eq!(c.largest(), 2); // by count, the pair wins
    }

    #[test]
    fn empty_mask_has_no_components() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let alive = vec![false, false];
        let c = weakly_connected(&g, Some(&alive));
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), 0);
        assert_eq!(c.largest_weight(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // A 200k-node path would overflow a recursive traversal.
        let n = 200_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n, edges);
        let wcc = weakly_connected(&g, None);
        assert_eq!(wcc.count(), 1);
        assert_eq!(wcc.largest(), n);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive WCC by BFS for cross-checking.
    fn naive_wcc(n: u32, edges: &[(u32, u32)], alive: &[bool]) -> Vec<u32> {
        let mut adj = vec![Vec::new(); n as usize];
        for &(a, b) in edges {
            if a != b && alive[a as usize] && alive[b as usize] {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        let mut label = vec![u32::MAX; n as usize];
        let mut next = 0;
        for s in 0..n {
            if !alive[s as usize] || label[s as usize] != u32::MAX {
                continue;
            }
            let mut queue = vec![s];
            label[s as usize] = next;
            while let Some(v) = queue.pop() {
                for &w in &adj[v as usize] {
                    if label[w as usize] == u32::MAX {
                        label[w as usize] = next;
                        queue.push(w);
                    }
                }
            }
            next += 1;
        }
        label
    }

    proptest! {
        /// union-find WCC agrees with BFS on partition structure.
        #[test]
        fn wcc_matches_bfs(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..120),
            alive in proptest::collection::vec(any::<bool>(), 25)
        ) {
            let g = DiGraph::from_edges(25, edges.clone());
            let ours = weakly_connected(&g, Some(&alive));
            let naive = naive_wcc(25, &edges, &alive);
            // same-partition iff same-label in both.
            for a in 0..25usize {
                for b in 0..25usize {
                    if !alive[a] || !alive[b] { continue; }
                    let same_ours = ours.labels[a] == ours.labels[b];
                    let same_naive = naive[a] == naive[b];
                    prop_assert_eq!(same_ours, same_naive, "nodes {} {}", a, b);
                }
            }
        }

        /// Component sizes sum to the number of alive nodes.
        #[test]
        fn sizes_sum(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 0..120),
            alive in proptest::collection::vec(any::<bool>(), 30)
        ) {
            let g = DiGraph::from_edges(30, edges);
            let alive_count = alive.iter().filter(|&&x| x).count() as u32;
            let wcc = weakly_connected(&g, Some(&alive));
            prop_assert_eq!(wcc.sizes.iter().sum::<u32>(), alive_count);
        }
    }
}
