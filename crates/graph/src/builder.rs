//! Mutable adjacency-list builder producing validated [`Graph`]s.

use crate::csr::{Graph, NodeId};

/// Incrementally builds a simple undirected graph.
///
/// Duplicate edge insertions and self-loops are tolerated at insertion time
/// and removed/rejected when [`GraphBuilder::build`] canonicalizes the
/// adjacency into CSR form, so generators can be written without worrying
/// about double-adding edges.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    adjacency: Vec<Vec<u32>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Self-loops are ignored. Duplicate insertions are deduplicated at
    /// build time.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: impl Into<NodeId>, v: impl Into<NodeId>) {
        let (u, v) = (u.into(), v.into());
        assert!(
            u.index() < self.adjacency.len() && v.index() < self.adjacency.len(),
            "edge ({u}, {v}) out of range for {} nodes",
            self.adjacency.len()
        );
        if u == v {
            return;
        }
        self.adjacency[u.index()].push(v.0);
        self.adjacency[v.index()].push(u.0);
    }

    /// Returns `true` if the undirected edge `{u, v}` has been added.
    pub fn has_edge(&self, u: impl Into<NodeId>, v: impl Into<NodeId>) -> bool {
        let (u, v) = (u.into(), v.into());
        self.adjacency[u.index()].contains(&v.0)
    }

    /// Current degree of `v` (counting duplicates not yet deduplicated).
    pub fn degree(&self, v: impl Into<NodeId>) -> usize {
        self.adjacency[v.into().index()].len()
    }

    /// Canonicalizes into an immutable CSR [`Graph`]: sorts and deduplicates
    /// every neighbor list and lays them out contiguously.
    pub fn build(mut self) -> Graph {
        let n = self.adjacency.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0usize;
        for list in &mut self.adjacency {
            list.sort_unstable();
            list.dedup();
            total += list.len();
            offsets.push(u32::try_from(total).expect("edge count exceeds u32::MAX"));
        }
        let mut neighbors = Vec::with_capacity(total);
        for list in &self.adjacency {
            neighbors.extend_from_slice(list);
        }
        let g = Graph::from_csr(offsets, neighbors);
        debug_assert!(g.validate().is_ok());
        g
    }

    /// Builds a graph from an explicit edge list on `n` nodes.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_and_self_loops_are_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(2)), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }
}
