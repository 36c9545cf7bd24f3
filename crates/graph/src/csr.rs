//! Compressed-sparse-row (CSR) representation of a simple undirected graph.
//!
//! The LOCAL model places no restriction on local computation, but the
//! simulator repeatedly walks neighborhoods of every node (ball collection,
//! message exchange), so the adjacency structure is stored as two flat
//! arrays: an offset array and a concatenated, sorted neighbor array. This
//! is the layout recommended for read-mostly graph kernels in the HPC
//! guides bundled with this workspace: it is compact, cache-friendly, and
//! trivially shareable across Rayon worker threads.

use std::fmt;

/// Index of a node inside a [`Graph`].
///
/// `NodeId` is a *position*, not an identity: the LOCAL-model identity of a
/// node (the `id(v)` of the paper) is stored separately in an
/// [`IdAssignment`](crate::ids::IdAssignment) so that the same topology can
/// be re-labeled without rebuilding the adjacency structure — exactly what
/// the order-invariance arguments of the paper require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as a `usize`, for indexing into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::from_index(index)
    }
}

/// An immutable simple undirected graph in CSR form.
///
/// Invariants (enforced by [`GraphBuilder`](crate::builder::GraphBuilder)):
/// * no self-loops,
/// * no parallel edges,
/// * neighbor lists sorted in increasing order,
/// * every edge appears in both endpoints' neighbor lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v] .. offsets[v + 1]` is the slice of `neighbors` holding
    /// the adjacency of node `v`.
    offsets: Vec<u32>,
    /// Concatenated, per-node-sorted neighbor lists.
    neighbors: Vec<u32>,
}

impl Graph {
    /// Creates a graph directly from CSR arrays.
    ///
    /// This is the low-level constructor used by [`GraphBuilder`]; it
    /// checks structural well-formedness in debug builds only.
    pub(crate) fn from_csr(offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        Graph { offsets, neighbors }
    }

    /// Creates the empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Iterator over all node indices.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|i| (self.offsets[i + 1] - self.offsets[i]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Sorted slice of neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterator over the neighbors of `v` as [`NodeId`]s.
    #[inline]
    pub fn neighbor_ids(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().map(|&w| NodeId(w))
    }

    /// Returns `true` if `{u, v}` is an edge.
    ///
    /// Binary search over the sorted neighbor list of the lower-degree
    /// endpoint; `O(log deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b.0).is_ok()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&w| w > u.0)
                .map(move |&w| (u, NodeId(w)))
        })
    }

    /// Sum of all degrees (twice the edge count).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// Checks the CSR invariants exhaustively. Intended for tests and for
    /// validating composite graphs such as unions and gluings.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.node_count();
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        for i in 0..n {
            if self.offsets[i] > self.offsets[i + 1] {
                return Err(format!("offsets not monotone at node {i}"));
            }
        }
        if *self.offsets.last().unwrap() as usize != self.neighbors.len() {
            return Err("final offset does not match neighbor array length".into());
        }
        for v in self.nodes() {
            let nb = self.neighbors(v);
            for w in nb {
                if *w as usize >= n {
                    return Err(format!("neighbor {w} of {v} out of range"));
                }
                if *w == v.0 {
                    return Err(format!("self-loop at {v}"));
                }
            }
            if !nb.windows(2).all(|p| p[0] < p[1]) {
                return Err(format!("neighbor list of {v} not strictly sorted"));
            }
            for w in nb {
                if !self.neighbors(NodeId(*w)).contains(&v.0) {
                    return Err(format!("edge ({v}, v{w}) not symmetric"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(1)));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn node_id_round_trip() {
        let v = NodeId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(format!("{v}"), "v42");
        assert_eq!(NodeId::from(7usize), NodeId(7));
    }
}
