//! Radius-`t` balls `B_G(v, t)` and canonical encodings of labeled balls.
//!
//! Following §2.1 of the paper, the ball `B_G(v, t)` is the subgraph of `G`
//! induced by all nodes at distance at most `t` from `v`, **excluding the
//! edges between nodes at distance exactly `t`** from `v`. A `t`-round
//! LOCAL algorithm is exactly a function of this ball together with the
//! inputs and identities of its nodes — that equivalence is what makes the
//! ball the unit of analysis for everything in `rlnc-core`.
//!
//! [`BallSignature`] is a canonical encoding of a ball *up to identity
//! values*: it records the structure, the distance of each node from the
//! center, an arbitrary per-ball payload (e.g. input labels), and the
//! **order type** of the identities. `rlnc-core`'s `View::signature`
//! builds it from a view. Two balls with equal signatures are
//! indistinguishable to any order-invariant algorithm, which is precisely
//! the finiteness argument behind Claim 2 ("there is a finite number of
//! order-invariant algorithms") and the Ramsey construction of Appendix A.

use crate::csr::{Graph, NodeId};
use crate::traversal::bfs_distances_bounded;

/// The radius-`t` ball around a center node, materialized as a small graph
/// of its own with a mapping back to the host graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ball {
    /// Radius used for extraction.
    pub radius: u32,
    /// Local index of the center (always 0).
    pub center: NodeId,
    /// Nodes of the ball, as indices of the host graph. Sorted by
    /// (distance from center, host index), so `members[0]` is the center.
    pub members: Vec<NodeId>,
    /// Distance from the center for each member (parallel to `members`).
    pub distances: Vec<u32>,
    /// The ball's own adjacency (local indices), with edges between two
    /// radius-`t` nodes removed per the paper's definition.
    pub graph: Graph,
}

impl Ball {
    /// Extracts `B_G(v, t)`.
    pub fn extract(graph: &Graph, center: NodeId, radius: u32) -> Ball {
        let mut frontier = bfs_distances_bounded(graph, center, radius);
        // Sort by (distance, host index) so the encoding is canonical and the
        // center is local index 0.
        frontier.sort_unstable_by_key(|&(v, d)| (d, v.0));
        let members: Vec<NodeId> = frontier.iter().map(|&(v, _)| v).collect();
        let distances: Vec<u32> = frontier.iter().map(|&(_, d)| d).collect();
        let local_of: std::collections::HashMap<NodeId, usize> = members
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        let mut b = crate::builder::GraphBuilder::new(members.len());
        for (li, &v) in members.iter().enumerate() {
            for w in graph.neighbor_ids(v) {
                if let Some(&lj) = local_of.get(&w) {
                    if lj > li {
                        // Exclude edges between two nodes at distance exactly t.
                        if distances[li] == radius && distances[lj] == radius {
                            continue;
                        }
                        b.add_edge(li, lj);
                    }
                }
            }
        }
        Ball {
            radius,
            center: NodeId(0),
            members,
            distances,
            graph: b.build(),
        }
    }

    /// Number of nodes in the ball.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the ball contains only the center.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Host-graph node corresponding to local index `i`.
    #[inline]
    pub fn host_node(&self, i: usize) -> NodeId {
        self.members[i]
    }

    /// Local index of a host-graph node, if it belongs to the ball.
    pub fn local_index(&self, v: NodeId) -> Option<usize> {
        self.members.iter().position(|&m| m == v)
    }

    /// Distance of local node `i` from the center.
    #[inline]
    pub fn distance(&self, i: usize) -> u32 {
        self.distances[i]
    }
}

/// Canonical, hashable encoding of a labeled, ordered ball.
///
/// Equality of signatures is the "same ordered labeled ball" relation of
/// Appendix A: same structure, same distances from the center, same inputs,
/// and the same relative order of identities.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BallSignature {
    /// Extraction radius.
    pub radius: u32,
    /// Distance of each local node from the center.
    pub distances: Vec<u32>,
    /// Sorted local edge list.
    pub edges: Vec<(u32, u32)>,
    /// Rank of each local node's identity within the ball.
    pub id_order: Vec<u32>,
    /// Arbitrary per-node payload (input labels, outputs, ...).
    pub payloads: Vec<Vec<u8>>,
}

impl BallSignature {
    /// Number of nodes in the encoded ball.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// Returns `true` if the signature encodes an empty ball.
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, path, star};

    #[test]
    fn radius_zero_ball_is_a_single_node() {
        let g = cycle(10);
        let b = Ball::extract(&g, NodeId(3), 0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.host_node(0), NodeId(3));
        assert_eq!(b.graph.edge_count(), 0);
    }

    #[test]
    fn radius_one_ball_on_cycle_is_a_path_of_three() {
        // B(v, 1) on a cycle contains v and its two neighbors; the edge
        // between the two neighbors (if any) would be between two radius-1
        // nodes and is excluded. On C_3 the two neighbors are adjacent, so
        // this exclusion matters.
        let g = cycle(3);
        let b = Ball::extract(&g, NodeId(0), 1);
        assert_eq!(b.len(), 3);
        assert_eq!(b.graph.edge_count(), 2, "edge between radius-1 nodes must be excluded");
    }

    #[test]
    fn radius_edge_exclusion_per_paper_definition() {
        let g = cycle(6);
        let b = Ball::extract(&g, NodeId(0), 2);
        // Nodes at distance <= 2 from node 0 on C_6: {0,1,5,2,4}. Edges
        // (1,2),(5,4) connect distance-1 to distance-2 nodes and stay; the
        // edge (2,3)/(3,4) are outside; there is no edge between 2 and 4.
        assert_eq!(b.len(), 5);
        assert_eq!(b.graph.edge_count(), 4);
    }

    #[test]
    fn ball_covers_whole_graph_when_radius_is_large() {
        let g = path(7);
        let b = Ball::extract(&g, NodeId(0), 10);
        assert_eq!(b.len(), 7);
        assert_eq!(b.graph.edge_count(), 6);
    }

    #[test]
    fn members_are_sorted_by_distance() {
        let g = star(8);
        let b = Ball::extract(&g, NodeId(0), 1);
        assert_eq!(b.distance(0), 0);
        assert!(b.distances.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn local_index_round_trip() {
        let g = cycle(9);
        let b = Ball::extract(&g, NodeId(4), 2);
        for i in 0..b.len() {
            let host = b.host_node(i);
            assert_eq!(b.local_index(host), Some(i));
        }
        assert_eq!(b.local_index(NodeId(0)), None);
    }
}
