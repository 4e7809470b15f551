//! Quotient-graph projection weights.
//!
//! The paper derives the instance federation graph `GF(I, E)` from the user
//! follower graph `G(V, E)`: "a directed edge Eab exists between instances
//! Ia and Ib if there is at least one user on Ia who follows a user on Ib"
//! (§3). Counting the edges that cross a country partition of the
//! federation graph yields the Fig. 6 Sankey weights.

use crate::digraph::DiGraph;

/// Count the underlying cross-group edges between each pair of groups,
/// i.e. the *weighted* projection. Returns a dense `n_groups × n_groups`
/// row-major matrix where entry `[a][b]` is the number of user-level edges
/// from group `a` to group `b`. Intra-group counts land on the diagonal —
/// Fig. 6 needs them ("32% of federated links are with instances in the same
/// country" refers to instance-level subscriptions whose endpoints share a
/// country).
pub fn projection_weights(g: &DiGraph, partition: &[u32], n_groups: u32) -> Vec<Vec<u64>> {
    assert_eq!(partition.len(), g.node_count(), "partition length mismatch");
    let mut mat = vec![vec![0u64; n_groups as usize]; n_groups as usize];
    for (a, b) in g.edges() {
        let ga = partition[a as usize] as usize;
        let gb = partition[b as usize] as usize;
        mat[ga][gb] += 1;
    }
    mat
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Users 0,1 on instance 0; users 2,3 on instance 1; user 4 on instance 2.
    fn user_graph() -> (DiGraph, Vec<u32>) {
        let g = DiGraph::from_edges(
            5,
            [
                (0, 1), // intra-instance: no federation edge
                (0, 2), // inst0 -> inst1
                (1, 3), // inst0 -> inst1 (same super-edge)
                (3, 4), // inst1 -> inst2
                (4, 0), // inst2 -> inst0
            ],
        );
        let partition = vec![0, 0, 1, 1, 2];
        (g, partition)
    }

    #[test]
    fn weights_count_multiplicity() {
        let (g, part) = user_graph();
        let w = projection_weights(&g, &part, 3);
        assert_eq!(w[0][1], 2); // two user-level edges inst0 -> inst1
        assert_eq!(w[0][0], 1); // the intra-instance follow on the diagonal
        assert_eq!(w[1][2], 1);
        assert_eq!(w[2][0], 1);
        assert_eq!(w[2][1], 0);
    }

    #[test]
    fn projection_of_empty_graph() {
        let g = DiGraph::from_edges(0, []);
        let w = projection_weights(&g, &[], 4);
        assert_eq!(w, vec![vec![0u64; 4]; 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_partition_length_panics() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let _ = projection_weights(&g, &[0], 1);
    }
}
