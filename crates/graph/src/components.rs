//! Connected components: weak (union-find) and strong (iterative Tarjan).
//!
//! The paper's resilience metrics are (i) the size of the Largest Connected
//! Component and (ii) the number of components, computed on graphs with
//! nodes progressively removed (Figs. 12, 13). Both are supported over an
//! `alive` mask so the removal sweeps do not need to rebuild the CSR.
//!
//! Callers that evaluate components repeatedly over the same graph can use
//! [`ComponentScratch`], which keeps every working buffer (union-find
//! arrays, label tables, Tarjan stacks, weight accumulators) alive across
//! evaluations so the steady-state hot path performs **zero heap
//! allocations per round**. The one-shot [`weakly_connected`] /
//! [`strongly_connected`] functions are thin wrappers over a fresh scratch
//! and produce byte-for-byte the same labels and sizes. (The removal
//! sweeps themselves now evaluate all rounds in one reverse union-find
//! pass — see `removal.rs` — and only reach for per-round passes when SCC
//! counts are requested.)

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

    /// Label of the largest component, if any.
    pub fn largest_label(&self) -> Option<u32> {
        self.sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i as u32)
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

    /// Fraction of alive nodes inside the largest component.
    pub fn largest_fraction(&self) -> f64 {
        let alive: u32 = self.sizes.iter().sum();
        if alive == 0 {
            return 0.0;
        }
        self.largest() as f64 / alive as f64
    }
}

/// Reusable working memory for repeated component computations.
///
/// All buffers grow to the graph size on first use and are then recycled:
/// after warm-up, [`ComponentScratch::weakly_connected`],
/// [`ComponentScratch::largest_weight`], and
/// [`ComponentScratch::strongly_connected_count`] allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct ComponentScratch {
    // union-find over node ids
    uf: UnionFind,
    // per-node compact component label (u32::MAX = removed)
    labels: Vec<u32>,
    // per-label component size
    sizes: Vec<u32>,
    // root -> compact label (u32::MAX = unassigned), reset per run
    label_of_root: Vec<u32>,
    // per-label weight accumulator for largest_weight
    weight_acc: Vec<f64>,
    // iterative Tarjan state
    tarjan_index: Vec<u32>,
    tarjan_lowlink: Vec<u32>,
    tarjan_on_stack: Vec<bool>,
    tarjan_stack: Vec<u32>,
    tarjan_work: Vec<(u32, usize)>,
    // SCC labelling output (separate from the WCC label buffers so a
    // weak/strong evaluation pair can share one scratch)
    scc_labels: Vec<u32>,
    scc_sizes: Vec<u32>,
}

/// Headline numbers of one weak-components run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WccSummary {
    /// Size of the largest component (0 when no node is alive).
    pub largest: u32,
    /// Number of components.
    pub count: usize,
}

impl ComponentScratch {
    /// Fresh, empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Weakly connected components of the `alive`-induced subgraph.
    ///
    /// Labels and sizes are left in the scratch (see [`Self::labels`] /
    /// [`Self::sizes`]) for follow-up queries; the return value carries the
    /// two numbers every caller wants. Identical output to
    /// [`weakly_connected`].
    pub fn weakly_connected(&mut self, g: &DiGraph, alive: Option<&[bool]>) -> WccSummary {
        let n = g.node_count();
        if let Some(mask) = alive {
            assert_eq!(mask.len(), n, "mask length mismatch");
        }
        let is_alive = |v: u32| alive.is_none_or(|m| m[v as usize]);

        self.uf.reset(n);
        for (a, b) in g.edges() {
            if is_alive(a) && is_alive(b) {
                self.uf.union(a, b);
            }
        }

        // Label each component by the first node it meets, in node order,
        // so labels do not depend on which node ended up as root.
        self.labels.clear();
        self.labels.resize(n, u32::MAX);
        self.sizes.clear();
        self.label_of_root.clear();
        self.label_of_root.resize(n, u32::MAX);
        let mut largest = 0u32;
        for v in 0..n as u32 {
            if !is_alive(v) {
                continue;
            }
            let r = self.uf.find(v);
            let mut label = self.label_of_root[r as usize];
            if label == u32::MAX {
                label = self.sizes.len() as u32;
                self.label_of_root[r as usize] = label;
                self.sizes.push(0);
            }
            self.labels[v as usize] = label;
            self.sizes[label as usize] += 1;
            largest = largest.max(self.sizes[label as usize]);
        }
        WccSummary {
            largest,
            count: self.sizes.len(),
        }
    }

    /// Component labels of the most recent run (`u32::MAX` = removed).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Component sizes of the most recent run.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Weight of the heaviest component of the most recent
    /// [`Self::weakly_connected`] run. Accumulation order matches
    /// [`ComponentInfo::largest_weight`] exactly, so results are
    /// bit-identical.
    pub fn largest_weight(&mut self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.labels.len(), "weight length mismatch");
        self.weight_acc.clear();
        self.weight_acc.resize(self.sizes.len(), 0.0);
        for (node, &label) in self.labels.iter().enumerate() {
            if label != u32::MAX {
                self.weight_acc[label as usize] += weights[node];
            }
        }
        self.weight_acc.iter().copied().fold(0.0, f64::max)
    }

    /// Number of strongly connected components of the `alive`-induced
    /// subgraph (iterative Tarjan over recycled stacks). The full
    /// labelling is left in internal SCC buffers; the one-shot
    /// [`strongly_connected`] function is a thin wrapper over this, so
    /// there is exactly one Tarjan implementation in the crate.
    pub fn strongly_connected_count(&mut self, g: &DiGraph, alive: Option<&[bool]>) -> usize {
        let n = g.node_count();
        if let Some(mask) = alive {
            assert_eq!(mask.len(), n, "mask length mismatch");
        }
        let is_alive = |v: u32| alive.is_none_or(|m| m[v as usize]);

        const UNVISITED: u32 = u32::MAX;
        self.tarjan_index.clear();
        self.tarjan_index.resize(n, UNVISITED);
        self.tarjan_lowlink.clear();
        self.tarjan_lowlink.resize(n, 0);
        self.tarjan_on_stack.clear();
        self.tarjan_on_stack.resize(n, false);
        self.tarjan_stack.clear();
        self.tarjan_work.clear();
        self.scc_labels.clear();
        self.scc_labels.resize(n, u32::MAX);
        self.scc_sizes.clear();

        let index = &mut self.tarjan_index;
        let lowlink = &mut self.tarjan_lowlink;
        let on_stack = &mut self.tarjan_on_stack;
        let stack = &mut self.tarjan_stack;
        let work = &mut self.tarjan_work;
        let labels = &mut self.scc_labels;
        let sizes = &mut self.scc_sizes;
        let mut next_index = 0u32;

        for start in 0..n as u32 {
            if !is_alive(start) || index[start as usize] != UNVISITED {
                continue;
            }
            work.push((start, 0));
            index[start as usize] = next_index;
            lowlink[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some(&mut (v, ref mut off)) = work.last_mut() {
                let neighbors = g.out_neighbors(v);
                let mut advanced = false;
                while *off < neighbors.len() {
                    let w = neighbors[*off];
                    *off += 1;
                    if !is_alive(w) {
                        continue;
                    }
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        work.push((w, 0));
                        advanced = true;
                        break;
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                }
                if advanced {
                    continue;
                }
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    let label = sizes.len() as u32;
                    sizes.push(0);
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        labels[w as usize] = label;
                        sizes[label as usize] += 1;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
        sizes.len()
    }
}

/// Weakly connected components of the subgraph induced by `alive` nodes.
///
/// Edge direction is ignored. Pass `None` for the full graph. One-shot
/// wrapper over [`ComponentScratch`]; use the scratch directly in hot loops.
pub fn weakly_connected(g: &DiGraph, alive: Option<&[bool]>) -> ComponentInfo {
    let mut scratch = ComponentScratch::new();
    scratch.weakly_connected(g, alive);
    ComponentInfo {
        labels: std::mem::take(&mut scratch.labels),
        sizes: std::mem::take(&mut scratch.sizes),
    }
}

/// Strongly connected components of the subgraph induced by `alive` nodes,
/// via an iterative Tarjan (explicit stack; safe on 1M-node graphs).
/// One-shot wrapper over [`ComponentScratch::strongly_connected_count`];
/// use the scratch directly in hot loops.
pub fn strongly_connected(g: &DiGraph, alive: Option<&[bool]>) -> ComponentInfo {
    let mut scratch = ComponentScratch::new();
    scratch.strongly_connected_count(g, alive);
    ComponentInfo {
        labels: std::mem::take(&mut scratch.scc_labels),
        sizes: std::mem::take(&mut scratch.scc_sizes),
    }
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
    fn scc_cycle_detected() {
        // cycle 0->1->2->0 plus a pendant 2->3
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = strongly_connected(&g, None);
        assert_eq!(c.count(), 2);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.labels[0], c.labels[1]);
        assert_eq!(c.labels[1], c.labels[2]);
        assert_ne!(c.labels[3], c.labels[0]);
    }

    #[test]
    fn scc_dag_is_all_singletons() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let c = strongly_connected(&g, None);
        assert_eq!(c.count(), 4);
        assert_eq!(c.largest(), 1);
    }

    #[test]
    fn scc_masked() {
        // two 2-cycles joined by a mask-removed node
        let g = DiGraph::from_edges(5, [(0, 1), (1, 0), (3, 4), (4, 3), (1, 2), (2, 3)]);
        let alive = vec![true, true, false, true, true];
        let c = strongly_connected(&g, Some(&alive));
        assert_eq!(c.count(), 2);
        assert_eq!(c.largest(), 2);
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
    fn largest_fraction_on_empty_mask() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let alive = vec![false, false];
        let c = weakly_connected(&g, Some(&alive));
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest_fraction(), 0.0);
        assert_eq!(c.largest_label(), None);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // A 200k-node path would overflow a recursive Tarjan.
        let n = 200_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n, edges);
        let scc = strongly_connected(&g, None);
        assert_eq!(scc.count(), n as usize);
        let wcc = weakly_connected(&g, None);
        assert_eq!(wcc.count(), 1);
    }

    #[test]
    fn big_cycle_single_scc() {
        let n = 100_000u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = DiGraph::from_edges(n, edges);
        let scc = strongly_connected(&g, None);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.largest(), n);
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

    /// Is there a directed path u -> v through alive nodes? (for SCC check)
    fn reachable(g: &DiGraph, alive: &[bool], u: u32, v: u32) -> bool {
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![u];
        seen[u as usize] = true;
        while let Some(x) = stack.pop() {
            if x == v {
                return true;
            }
            for &w in g.out_neighbors(x) {
                if alive[w as usize] && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        false
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

        /// Tarjan SCC: u,v share a component iff mutually reachable.
        #[test]
        fn scc_matches_reachability(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..60),
            alive in proptest::collection::vec(any::<bool>(), 12)
        ) {
            let g = DiGraph::from_edges(12, edges);
            let scc = strongly_connected(&g, Some(&alive));
            for a in 0..12u32 {
                for b in 0..12u32 {
                    if !alive[a as usize] || !alive[b as usize] { continue; }
                    let same = scc.labels[a as usize] == scc.labels[b as usize];
                    let mutual = reachable(&g, &alive, a, b) && reachable(&g, &alive, b, a);
                    prop_assert_eq!(same, mutual, "nodes {} {}", a, b);
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
            let scc = strongly_connected(&g, Some(&alive));
            prop_assert_eq!(wcc.sizes.iter().sum::<u32>(), alive_count);
            prop_assert_eq!(scc.sizes.iter().sum::<u32>(), alive_count);
        }
    }
}
