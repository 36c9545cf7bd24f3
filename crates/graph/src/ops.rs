//! Graph surgery: disjoint unions and the Theorem-1 gluing construction.
//!
//! The proof of Theorem 1 builds a single connected bounded-degree instance
//! out of `ν'` hard instances `H_1, ..., H_{ν'}` as follows: in each `H_i`
//! pick an anchor node `u_i` and an edge `e_i` incident to it, subdivide
//! `e_i` twice (inserting fresh nodes `v_i` and `w_i`), then add the edges
//! `{v_i, w_{i+1}}` for `i < ν'` and `{v_{ν'}, w_1}`. The result is
//! connected, keeps the maximum degree at most `k` (for `k > 2`, since the
//! inserted nodes have degree 3 at most... in fact degree 3 never occurs:
//! subdivision nodes have degree 2 inside their instance and gain exactly
//! one inter-instance edge, so their degree is 3 ≤ k), and keeps every node
//! of `H_i` at its original distance from every other node of `H_i` that is
//! far from the anchor.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::ids::IdAssignment;

/// Result of a disjoint union: the combined graph plus, for each part, the
/// offset to add to a part-local node index to obtain the union index.
#[derive(Debug, Clone)]
pub struct DisjointUnion {
    /// The union graph.
    pub graph: Graph,
    /// `offsets[i]` is the index in the union of node 0 of part `i`.
    pub offsets: Vec<usize>,
}

impl DisjointUnion {
    /// Returns which part a union node belongs to and its part-local index.
    pub fn part_of(&self, v: NodeId) -> (usize, NodeId) {
        let idx = v.index();
        let part = match self.offsets.binary_search(&idx) {
            Ok(p) => p,
            Err(p) => p - 1,
        };
        (part, NodeId::from_index(idx - self.offsets[part]))
    }
}

/// Disjoint union of several graphs (Claim 3 operates on such unions).
pub fn disjoint_union(parts: &[&Graph]) -> DisjointUnion {
    let total: usize = parts.iter().map(|g| g.node_count()).sum();
    let mut b = GraphBuilder::new(total);
    let mut offsets = Vec::with_capacity(parts.len());
    let mut base = 0usize;
    for g in parts {
        offsets.push(base);
        for (u, v) in g.edges() {
            b.add_edge(base + u.index(), base + v.index());
        }
        base += g.node_count();
    }
    DisjointUnion {
        graph: b.build(),
        offsets,
    }
}

/// Concatenates identity assignments for a disjoint union, shifting each
/// part so the ranges are pairwise disjoint (part `i+1` starts above the
/// maximum identity of parts `0..=i`). Mirrors the instance concatenation
/// in the proof of Claim 3.
pub fn concatenate_ids(parts: &[&IdAssignment]) -> IdAssignment {
    let mut ids: Vec<u64> = Vec::new();
    let mut floor = 0u64;
    for part in parts {
        let min = part.min_id();
        // Shift so that the smallest identity of this part is floor + 1.
        let shift = floor + 1 - min.min(floor + 1);
        let shifted: Vec<u64> = part.as_slice().iter().map(|&x| x + shift).collect();
        floor = shifted.iter().copied().max().unwrap_or(floor);
        ids.extend(shifted);
    }
    IdAssignment::new(ids)
}

/// A single subdivided instance inside a [`Gluing`]: which union-level
/// nodes were inserted, and where the anchor ended up.
#[derive(Debug, Clone)]
pub struct GluedPart {
    /// Index in the glued graph of node 0 of this part.
    pub offset: usize,
    /// Number of original nodes of this part.
    pub original_len: usize,
    /// Anchor node `u_i`, as a glued-graph index.
    pub anchor: NodeId,
    /// First inserted subdivision node `v_i` (glued-graph index).
    pub sub_v: NodeId,
    /// Second inserted subdivision node `w_i` (glued-graph index).
    pub sub_w: NodeId,
}

/// The connected gluing of several instances (Theorem 1).
#[derive(Debug, Clone)]
pub struct Gluing {
    /// The glued connected graph.
    pub graph: Graph,
    /// Bookkeeping for each glued part, in input order.
    pub parts: Vec<GluedPart>,
}

impl Gluing {
    /// Maps a node of part `part` (original instance index) to the glued graph.
    pub fn map(&self, part: usize, v: NodeId) -> NodeId {
        NodeId::from_index(self.parts[part].offset + v.index())
    }

    /// Returns the part that a glued node originally belonged to, or `None`
    /// for inserted subdivision nodes.
    pub fn origin(&self, v: NodeId) -> Option<(usize, NodeId)> {
        for (i, p) in self.parts.iter().enumerate() {
            if v.index() >= p.offset && v.index() < p.offset + p.original_len {
                return Some((i, NodeId::from_index(v.index() - p.offset)));
            }
        }
        None
    }
}

/// Glues instances `(H_i, anchor_i)` into one connected graph following the
/// Theorem-1 construction. For each part, the lexicographically smallest
/// edge incident to the anchor is subdivided twice, and the inserted nodes
/// are ring-connected across parts.
///
/// # Panics
/// Panics if fewer than two parts are supplied or if an anchor is isolated.
pub fn glue_instances(parts: &[(&Graph, NodeId)]) -> Gluing {
    assert!(parts.len() >= 2, "gluing needs at least two instances");
    let originals: usize = parts.iter().map(|(g, _)| g.node_count()).sum();
    // Two inserted nodes per part.
    let total = originals + 2 * parts.len();
    let mut b = GraphBuilder::new(total);
    let mut glued_parts: Vec<GluedPart> = Vec::with_capacity(parts.len());
    let mut base = 0usize;
    let mut next_inserted = originals;
    for (g, anchor) in parts {
        assert!(
            g.degree(*anchor) >= 1,
            "anchor {anchor} must have an incident edge to subdivide"
        );
        // Copy all edges except the subdivided one.
        let neighbor = NodeId(g.neighbors(*anchor)[0]);
        for (u, v) in g.edges() {
            let is_subdivided = (u == *anchor && v == neighbor) || (v == *anchor && u == neighbor);
            if !is_subdivided {
                b.add_edge(base + u.index(), base + v.index());
            }
        }
        // Subdivide {anchor, neighbor} twice: anchor - v_i - w_i - neighbor.
        let v_i = next_inserted;
        let w_i = next_inserted + 1;
        next_inserted += 2;
        b.add_edge(base + anchor.index(), v_i);
        b.add_edge(v_i, w_i);
        b.add_edge(w_i, base + neighbor.index());
        glued_parts.push(GluedPart {
            offset: base,
            original_len: g.node_count(),
            anchor: NodeId::from_index(base + anchor.index()),
            sub_v: NodeId::from_index(v_i),
            sub_w: NodeId::from_index(w_i),
        });
        base += g.node_count();
    }
    // Ring-connect the inserted nodes: v_i — w_{i+1}, and v_last — w_1.
    let nu = glued_parts.len();
    for i in 0..nu {
        let j = (i + 1) % nu;
        b.add_edge(glued_parts[i].sub_v, glued_parts[j].sub_w);
    }
    Gluing {
        graph: b.build(),
        parts: glued_parts,
    }
}

/// Builds an identity assignment for a [`Gluing`]: part identities are
/// shifted into disjoint ranges (as in Claim 2 / Claim 3) and the inserted
/// subdivision nodes receive fresh identities above every part's range
/// ("inputs and identities given to the nodes of `G` not in some `H_i` are
/// set arbitrarily", §3).
pub fn glued_ids(gluing: &Gluing, parts: &[&IdAssignment]) -> IdAssignment {
    assert_eq!(gluing.parts.len(), parts.len());
    let originals: usize = gluing.parts.iter().map(|p| p.original_len).sum();
    let mut ids = vec![0u64; gluing.graph.node_count()];
    let mut floor = 0u64;
    for (gp, part_ids) in gluing.parts.iter().zip(parts) {
        assert_eq!(gp.original_len, part_ids.len());
        let min = part_ids.min_id();
        let shift = floor + 1 - min.min(floor + 1);
        for (local, &id) in part_ids.as_slice().iter().enumerate() {
            ids[gp.offset + local] = id + shift;
        }
        floor = floor.max(part_ids.max_id() + shift);
    }
    // Fresh identities for the inserted nodes.
    for (id, fresh) in ids[originals..].iter_mut().zip(floor + 1..) {
        *id = fresh;
    }
    IdAssignment::new(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, path};
    use crate::traversal::{component_count, distance, is_connected};

    #[test]
    fn disjoint_union_preserves_parts() {
        let a = cycle(5);
        let b = path(4);
        let u = disjoint_union(&[&a, &b]);
        assert_eq!(u.graph.node_count(), 9);
        assert_eq!(u.graph.edge_count(), 5 + 3);
        assert_eq!(component_count(&u.graph), 2);
        assert_eq!(u.part_of(NodeId(7)), (1, NodeId(2)));
        assert_eq!(u.part_of(NodeId(4)), (0, NodeId(4)));
    }

    #[test]
    fn concatenate_ids_produces_disjoint_ranges() {
        let a = cycle(4);
        let ids_a = IdAssignment::consecutive(&a);
        let ids_b = IdAssignment::consecutive(&a);
        let merged = concatenate_ids(&[&ids_a, &ids_b]);
        assert_eq!(merged.len(), 8);
        assert_eq!(merged.max_id(), 8);
        assert_eq!(merged.min_id(), 1);
    }

    #[test]
    fn gluing_two_cycles_is_connected_and_degree_bounded() {
        let h1 = cycle(10);
        let h2 = cycle(12);
        let glue = glue_instances(&[(&h1, NodeId(0)), (&h2, NodeId(3))]);
        let g = &glue.graph;
        assert_eq!(g.node_count(), 10 + 12 + 4);
        assert!(is_connected(g));
        // Cycles have max degree 2; subdivision nodes gain one ring edge,
        // giving max degree 3 = k for k > 2.
        assert!(g.max_degree() <= 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn gluing_preserves_distances_inside_parts_away_from_anchor() {
        // Distances between nodes of the same part that avoid the anchor
        // region are unchanged by the gluing.
        let h = cycle(16);
        let glue = glue_instances(&[(&h, NodeId(0)), (&h, NodeId(0))]);
        let d_orig = distance(&h, NodeId(4), NodeId(8)).unwrap();
        let d_glued = distance(
            &glue.graph,
            glue.map(0, NodeId(4)),
            glue.map(0, NodeId(8)),
        )
        .unwrap();
        assert_eq!(d_orig, d_glued);
    }

    #[test]
    fn gluing_origin_maps_back() {
        let h1 = cycle(6);
        let h2 = path(5);
        let glue = glue_instances(&[(&h1, NodeId(2)), (&h2, NodeId(1))]);
        assert_eq!(glue.origin(glue.map(0, NodeId(3))), Some((0, NodeId(3))));
        assert_eq!(glue.origin(glue.map(1, NodeId(4))), Some((1, NodeId(4))));
        assert_eq!(glue.origin(glue.parts[0].sub_v), None);
        assert_eq!(glue.origin(glue.parts[1].sub_w), None);
    }

    #[test]
    fn gluing_many_parts_forms_single_component() {
        let parts: Vec<Graph> = (0..5).map(|i| cycle(8 + i)).collect();
        let with_anchors: Vec<(&Graph, NodeId)> =
            parts.iter().map(|g| (g, NodeId(0))).collect();
        let glue = glue_instances(&with_anchors);
        assert!(is_connected(&glue.graph));
        assert_eq!(component_count(&glue.graph), 1);
        assert!(glue.graph.max_degree() <= 3);
    }

    #[test]
    fn glued_ids_are_distinct_and_cover_inserted_nodes() {
        let h1 = cycle(6);
        let h2 = cycle(7);
        let glue = glue_instances(&[(&h1, NodeId(0)), (&h2, NodeId(0))]);
        let ids1 = IdAssignment::consecutive(&h1);
        let ids2 = IdAssignment::consecutive(&h2);
        let merged = glued_ids(&glue, &[&ids1, &ids2]);
        assert_eq!(merged.len(), glue.graph.node_count());
        // All distinct is checked by the IdAssignment constructor; also make
        // sure part 2's identities sit above part 1's.
        let max_p1 = (0..6).map(|i| merged.id(glue.map(0, NodeId(i)))).max().unwrap();
        let min_p2 = (0..7).map(|i| merged.id(glue.map(1, NodeId(i)))).min().unwrap();
        assert!(min_p2 > max_p1);
    }

    #[test]
    #[should_panic(expected = "at least two instances")]
    fn gluing_requires_two_parts() {
        let h = cycle(5);
        let _ = glue_instances(&[(&h, NodeId(0))]);
    }
}
