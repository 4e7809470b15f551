//! The degree sequence Fig. 11 plots.

use crate::digraph::DiGraph;

/// Out-degree sequence.
pub fn out_degrees(g: &DiGraph) -> Vec<u32> {
    g.nodes().map(|v| g.out_degree(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences() {
        // hub 0 follows 1..=4
        let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(out_degrees(&g), vec![4, 0, 0, 0, 0]);
    }
}
