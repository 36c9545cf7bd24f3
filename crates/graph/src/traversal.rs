//! Breadth-first traversals, distances, components, and diameter.
//!
//! The LOCAL model's only resource is distance, so almost every part of the
//! toolkit reduces to BFS: ball extraction, the `far from u` predicate of
//! Theorem 1 (distance `> t + t'`), the anchor-set construction (pairwise
//! distance `≥ 2(t + t')`), and the diameter lower bounds of Claim 2.

use crate::csr::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance value marking unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances from `source`.
///
/// Returns a vector `d` with `d[v] = dist(source, v)` and
/// [`UNREACHABLE`] for nodes in other components.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for w in graph.neighbor_ids(u) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// The nodes participating in the combined "accepts far from every anchor"
/// event of Claims 4–5: a node participates iff it lies at distance
/// **greater than** `exclusion_radius` from *every* anchor (a node inside
/// any anchor's exclusion ball is never quantified over). Computing this
/// mask once per glued instance replaces a per-trial, per-anchor BFS in the
/// legacy estimators. Returned in ascending node order.
pub fn nodes_far_from_all(graph: &Graph, anchors: &[NodeId], exclusion_radius: u32) -> Vec<NodeId> {
    let mut participates = vec![true; graph.node_count()];
    for &anchor in anchors {
        let dist = bfs_distances(graph, anchor);
        for v in graph.nodes() {
            if dist[v.index()] <= exclusion_radius {
                participates[v.index()] = false;
            }
        }
    }
    graph.nodes().filter(|v| participates[v.index()]).collect()
}

/// BFS truncated at radius `t`: distances `> t` are reported as
/// [`UNREACHABLE`]. Cost is proportional to the size of the ball, not the
/// graph, which matters when collecting constant-radius views of every node
/// of a large network.
pub fn bfs_distances_bounded(graph: &Graph, source: NodeId, t: u32) -> Vec<(NodeId, u32)> {
    let mut dist: Vec<(NodeId, u32)> = Vec::new();
    let mut seen = std::collections::HashMap::new();
    let mut queue = VecDeque::new();
    seen.insert(source, 0u32);
    queue.push_back(source);
    dist.push((source, 0));
    while let Some(u) = queue.pop_front() {
        let du = seen[&u];
        if du == t {
            continue;
        }
        for w in graph.neighbor_ids(u) {
            if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(w) {
                slot.insert(du + 1);
                dist.push((w, du + 1));
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Shortest-path distance between `u` and `v`, or `None` if disconnected.
pub fn distance(graph: &Graph, u: NodeId, v: NodeId) -> Option<u32> {
    let d = bfs_distances(graph, u)[v.index()];
    (d != UNREACHABLE).then_some(d)
}

/// Returns `true` if the graph is connected (the empty graph and the
/// single-node graph count as connected).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.node_count() <= 1 {
        return true;
    }
    let dist = bfs_distances(graph, NodeId(0));
    dist.iter().all(|&d| d != UNREACHABLE)
}

/// Connected components as a vector `comp` with `comp[v]` the component
/// index of node `v` (components numbered in order of discovery from node 0).
pub fn connected_components(graph: &Graph) -> Vec<usize> {
    let n = graph.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[start] = next;
        queue.push_back(NodeId::from_index(start));
        while let Some(u) = queue.pop_front() {
            for w in graph.neighbor_ids(u) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Number of connected components.
pub fn component_count(graph: &Graph) -> usize {
    connected_components(graph).iter().copied().max().map_or(0, |m| m + 1)
}

/// Eccentricity of `v` (max distance to any reachable node).
pub fn eccentricity(graph: &Graph, v: NodeId) -> u32 {
    bfs_distances(graph, v)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Exact diameter by running BFS from every node. `None` for disconnected
/// graphs. Quadratic — fine for the experiment sizes (≤ a few thousand
/// nodes); use [`diameter_double_sweep`] as a fast lower bound for larger
/// graphs.
pub fn diameter(graph: &Graph) -> Option<u32> {
    if graph.node_count() == 0 {
        return Some(0);
    }
    if !is_connected(graph) {
        return None;
    }
    Some(
        graph
            .nodes()
            .map(|v| eccentricity(graph, v))
            .max()
            .unwrap_or(0),
    )
}

/// Double-sweep diameter lower bound: BFS from `start`, then BFS from the
/// farthest node found. Exact on trees; a lower bound in general.
pub fn diameter_double_sweep(graph: &Graph, start: NodeId) -> u32 {
    let d1 = bfs_distances(graph, start);
    let far = d1
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != UNREACHABLE)
        .max_by_key(|(_, &d)| d)
        .map(|(i, _)| NodeId::from_index(i))
        .unwrap_or(start);
    eccentricity(graph, far)
}

/// Greedily selects a set of nodes that are pairwise at distance at least
/// `min_distance` from each other, up to `limit` nodes, scanning nodes in
/// index order. This realizes the anchor set `S` of the Theorem-1 proof
/// (µ nodes pairwise at distance ≥ 2(t + t')).
pub fn spread_set(graph: &Graph, min_distance: u32, limit: usize) -> Vec<NodeId> {
    let mut chosen: Vec<NodeId> = Vec::new();
    let mut blocked = vec![false; graph.node_count()];
    for v in graph.nodes() {
        if chosen.len() >= limit {
            break;
        }
        if blocked[v.index()] {
            continue;
        }
        chosen.push(v);
        if min_distance > 0 {
            for (w, _) in bfs_distances_bounded(graph, v, min_distance - 1) {
                blocked[w.index()] = true;
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, grid, path, star};

    #[test]
    fn bfs_distances_on_path() {
        let g = path(6);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(distance(&g, NodeId(1), NodeId(4)), Some(3));
    }

    #[test]
    fn bounded_bfs_truncates() {
        let g = path(10);
        let ball = bfs_distances_bounded(&g, NodeId(5), 2);
        let mut nodes: Vec<usize> = ball.iter().map(|(v, _)| v.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut g = crate::GraphBuilder::new(5);
        g.add_edge(0, 1);
        g.add_edge(3, 4);
        let g = g.build();
        let comp = connected_components(&g);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(component_count(&g), 3);
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&cycle(10)), Some(5));
        assert_eq!(diameter(&cycle(11)), Some(5));
        assert_eq!(diameter(&path(8)), Some(7));
        assert_eq!(diameter(&star(10)), Some(2));
        assert_eq!(diameter(&grid(3, 4)), Some(5));
    }

    #[test]
    fn double_sweep_is_exact_on_paths() {
        let g = path(20);
        assert_eq!(diameter_double_sweep(&g, NodeId(7)), 19);
    }

    #[test]
    fn spread_set_respects_min_distance() {
        let g = cycle(30);
        let s = spread_set(&g, 6, 10);
        assert!(s.len() >= 4);
        for (i, &u) in s.iter().enumerate() {
            for &v in &s[i + 1..] {
                assert!(distance(&g, u, v).unwrap() >= 6);
            }
        }
    }

    #[test]
    fn spread_set_limit_is_respected() {
        let g = cycle(100);
        let s = spread_set(&g, 2, 3);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn far_from_all_is_the_intersection_of_ball_complements() {
        let g = cycle(12);
        let anchors = [NodeId(0), NodeId(6)];
        let far = nodes_far_from_all(&g, &anchors, 2);
        for v in g.nodes() {
            let expected = anchors
                .iter()
                .all(|&a| distance(&g, a, v).unwrap() > 2);
            assert_eq!(far.contains(&v), expected, "node {v}");
        }
        // Two radius-2 balls of 5 nodes each leave 2 participants.
        assert_eq!(far, [NodeId(3), NodeId(9)]);
        // Radius 0 excludes only the anchors themselves.
        let far0 = nodes_far_from_all(&g, &[NodeId(3)], 0);
        assert_eq!(far0.len(), 11);
        // A radius covering the whole graph leaves no participants.
        assert!(nodes_far_from_all(&g, &[NodeId(0)], 6).is_empty());
    }
}
