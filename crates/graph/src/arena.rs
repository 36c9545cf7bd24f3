//! Arena extraction of *all* radius-`t` balls of a graph in one pass.
//!
//! [`Ball::extract`](crate::ball::Ball::extract) allocates a fresh
//! hash map, frontier vector, and induced [`Graph`] per call. That is fine
//! for extracting one ball, but the Monte-Carlo hot paths of this workspace
//! need the balls of *every* node of the same `(graph, radius)` pair —
//! often millions of times across trials. [`BallArena`] amortizes that
//! work: a single [`BfsScratch`] (stamp-based visited marks, no hashing,
//! no per-node clearing) drives one bounded BFS per node, and the results
//! land in flat member/distance/offset arrays plus one concatenated CSR
//! holding every ball's induced adjacency. Nothing is allocated per ball
//! beyond the shared arrays' amortized growth.
//!
//! The arena is **bit-identical** to the per-ball path:
//! [`BallArena::ball`] materializes exactly the [`Ball`] that
//! [`Ball::extract`](crate::ball::Ball::extract) would return (same member
//! order, same distances, same induced CSR), which is what lets the
//! execution engine built on top of it (`rlnc-engine`) guarantee
//! bit-reproducible results.

use crate::ball::Ball;
use crate::csr::{Graph, NodeId};
use rlnc_obs::{LazyCounter, LazyGauge, LazyHistogram, LazySpan, Section, POW2_BUCKETS};

// Arena-level observability (see ARCHITECTURE.md "Observability"). All of
// these are functions of (graph, radius) alone — never of thread schedule
// — so they live in the deterministic trace section; the extraction span
// is wall-clock and lands in the timing section.
static OBS_EXTRACTIONS: LazyCounter =
    LazyCounter::new("graph.arena.extractions", Section::Deterministic);
static OBS_BALLS: LazyCounter = LazyCounter::new("graph.arena.balls", Section::Deterministic);
static OBS_MEMBERS: LazyCounter = LazyCounter::new("graph.arena.members", Section::Deterministic);
static OBS_CSR_EDGES: LazyCounter =
    LazyCounter::new("graph.arena.csr_edges", Section::Deterministic);
static OBS_WORKING_SET: LazyGauge =
    LazyGauge::new("graph.arena.working_set_bytes", Section::Deterministic);
static OBS_BALL_MEMBERS: LazyHistogram = LazyHistogram::new(
    "graph.arena.ball_members",
    Section::Deterministic,
    &POW2_BUCKETS,
);
static OBS_BALL_EDGES: LazyHistogram = LazyHistogram::new(
    "graph.arena.ball_edges",
    Section::Deterministic,
    &POW2_BUCKETS,
);
static OBS_EXTRACT_SPAN: LazySpan = LazySpan::new("graph.arena.extract_all");

/// Reusable scratch state for bounded BFS over one host graph.
///
/// Visited marks are generation stamps, so reusing the scratch across many
/// sources costs no clearing: bumping the generation invalidates every mark
/// at once. The same stamp array doubles as the host→local index map during
/// ball extraction.
#[derive(Debug, Clone)]
pub struct BfsScratch {
    /// Generation stamp per host node; a node is "seen" iff its stamp
    /// equals the current generation.
    stamp: Vec<u64>,
    /// Local index of a seen host node within the current ball.
    local: Vec<u32>,
    /// Distance of a seen host node from the current source.
    dist: Vec<u32>,
    /// Current generation.
    generation: u64,
    /// BFS queue of host nodes, consumed by index (`head`).
    queue: Vec<NodeId>,
}

impl BfsScratch {
    /// Creates scratch state for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            stamp: vec![0; n],
            local: vec![0; n],
            dist: vec![0; n],
            generation: 0,
            queue: Vec::new(),
        }
    }

    /// Runs a BFS from `source` truncated at distance `radius`, pushing the
    /// discovered `(node, distance)` pairs into `out` (cleared first) in
    /// discovery order. Equivalent to
    /// [`bfs_distances_bounded`](crate::traversal::bfs_distances_bounded)
    /// but allocation-free after warm-up.
    pub fn bounded_bfs(&mut self, graph: &Graph, source: NodeId, radius: u32, out: &mut Vec<(NodeId, u32)>) {
        assert!(graph.node_count() <= self.stamp.len(), "scratch too small for graph");
        self.generation += 1;
        let generation = self.generation;
        out.clear();
        self.queue.clear();
        self.stamp[source.index()] = generation;
        self.dist[source.index()] = 0;
        self.queue.push(source);
        out.push((source, 0));
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u.index()];
            if du == radius {
                continue;
            }
            for w in graph.neighbor_ids(u) {
                if self.stamp[w.index()] != generation {
                    self.stamp[w.index()] = generation;
                    self.dist[w.index()] = du + 1;
                    out.push((w, du + 1));
                    self.queue.push(w);
                }
            }
        }
    }
}

/// Every node's radius-`t` ball, extracted once into flat shared arrays.
///
/// For ball `i` (the ball centered at host node `i`):
/// * members and distances live in
///   `members[ball_offsets[i]..ball_offsets[i+1]]` (sorted by
///   `(distance, host index)`, center first — the canonical
///   [`Ball`] order);
/// * its induced adjacency is the CSR pair
///   `csr_offsets[ball_offsets[i] + i ..= ball_offsets[i+1] + i]` /
///   `csr_neighbors[edge_offsets[i]..edge_offsets[i+1]]`, in local indices
///   relative to the ball, with edges between two radius-`t` nodes removed
///   per the paper's ball definition.
#[derive(Debug, Clone)]
pub struct BallArena {
    radius: u32,
    ball_offsets: Vec<usize>,
    members: Vec<NodeId>,
    distances: Vec<u32>,
    csr_offsets: Vec<u32>,
    csr_neighbors: Vec<u32>,
    edge_offsets: Vec<usize>,
}

impl BallArena {
    /// Extracts the radius-`t` ball of every node of `graph` with one
    /// shared scratch.
    pub fn extract_all(graph: &Graph, radius: u32) -> BallArena {
        let _span = OBS_EXTRACT_SPAN.start();
        let n = graph.node_count();
        let mut scratch = BfsScratch::new(n);
        let mut frontier: Vec<(NodeId, u32)> = Vec::new();
        // Per-ball local adjacency lists, reused across balls.
        let mut local_adjacency: Vec<Vec<u32>> = Vec::new();

        let mut arena = BallArena {
            radius,
            ball_offsets: Vec::with_capacity(n + 1),
            members: Vec::new(),
            distances: Vec::new(),
            csr_offsets: Vec::new(),
            csr_neighbors: Vec::new(),
            edge_offsets: Vec::with_capacity(n + 1),
        };
        arena.ball_offsets.push(0);
        arena.edge_offsets.push(0);

        for center in graph.nodes() {
            scratch.bounded_bfs(graph, center, radius, &mut frontier);
            // Canonical member order: (distance, host index), center first.
            frontier.sort_unstable_by_key(|&(v, d)| (d, v.0));
            let len = frontier.len();
            if local_adjacency.len() < len {
                local_adjacency.resize_with(len, Vec::new);
            }
            // The BFS stamps are still valid for this generation: record
            // each member's local index for the host→local translation.
            for (li, &(v, _)) in frontier.iter().enumerate() {
                scratch.local[v.index()] = li as u32;
            }
            for (li, &(v, dv)) in frontier.iter().enumerate() {
                arena.members.push(v);
                arena.distances.push(dv);
                let list = &mut local_adjacency[li];
                list.clear();
                for w in graph.neighbor_ids(v) {
                    if scratch.stamp[w.index()] != scratch.generation {
                        continue; // neighbor outside the ball
                    }
                    let dw = scratch.dist[w.index()];
                    // Exclude edges between two nodes at distance exactly t.
                    if dv == radius && dw == radius {
                        continue;
                    }
                    list.push(scratch.local[w.index()]);
                }
                list.sort_unstable();
            }
            let mut running = 0u32;
            arena.csr_offsets.push(0);
            for list in local_adjacency.iter().take(len) {
                running += list.len() as u32;
                arena.csr_offsets.push(running);
                arena.csr_neighbors.extend_from_slice(list);
            }
            arena.ball_offsets.push(arena.members.len());
            arena.edge_offsets.push(arena.csr_neighbors.len());
        }
        arena.record_obs();
        arena
    }

    /// Feeds the arena's cache-behavior proxies into the observability
    /// registry: one counter bump per extraction plus per-ball member/CSR
    /// size histograms. Near-free (one branch) when collection is off.
    fn record_obs(&self) {
        if !rlnc_obs::enabled() {
            return;
        }
        OBS_EXTRACTIONS.inc();
        OBS_BALLS.add(self.len() as u64);
        OBS_MEMBERS.add(self.total_members() as u64);
        OBS_CSR_EDGES.add(self.csr_neighbors.len() as u64);
        OBS_WORKING_SET.record_max(self.working_set_bytes());
        for i in 0..self.len() {
            OBS_BALL_MEMBERS.observe(self.ball_len(i) as u64);
            OBS_BALL_EDGES.observe((self.edge_offsets[i + 1] - self.edge_offsets[i]) as u64);
        }
    }

    /// Bytes held by the arena's flat arrays — the working set a kernel
    /// pass over every ball touches, and the cache-behavior proxy exported
    /// as `graph.arena.working_set_bytes` and in `bench-export` groups.
    pub fn working_set_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.ball_offsets.len() * size_of::<usize>()
            + self.members.len() * size_of::<NodeId>()
            + self.distances.len() * size_of::<u32>()
            + self.csr_offsets.len() * size_of::<u32>()
            + self.csr_neighbors.len() * size_of::<u32>()
            + self.edge_offsets.len() * size_of::<usize>()) as u64
    }

    /// The extraction radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Number of balls (= nodes of the host graph).
    pub fn len(&self) -> usize {
        self.ball_offsets.len() - 1
    }

    /// Returns `true` if the arena holds no balls (empty host graph).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of ball memberships across all balls — the per-execution
    /// work a simulator pass over the arena performs.
    pub fn total_members(&self) -> usize {
        self.members.len()
    }

    /// Number of nodes in ball `i`.
    pub fn ball_len(&self, i: usize) -> usize {
        self.ball_offsets[i + 1] - self.ball_offsets[i]
    }

    /// Members of ball `i`, as host-graph nodes in canonical order (center
    /// first).
    pub fn members(&self, i: usize) -> &[NodeId] {
        &self.members[self.ball_offsets[i]..self.ball_offsets[i + 1]]
    }

    /// Distances from the center for ball `i` (parallel to
    /// [`BallArena::members`]).
    pub fn distances(&self, i: usize) -> &[u32] {
        &self.distances[self.ball_offsets[i]..self.ball_offsets[i + 1]]
    }

    /// Materializes ball `i` as a standalone [`Ball`], bit-identical to
    /// `Ball::extract(graph, NodeId(i), radius)`.
    pub fn ball(&self, i: usize) -> Ball {
        let start = self.ball_offsets[i];
        let end = self.ball_offsets[i + 1];
        let offsets = self.csr_offsets[start + i..=end + i].to_vec();
        let neighbors = self.csr_neighbors[self.edge_offsets[i]..self.edge_offsets[i + 1]].to_vec();
        Ball {
            radius: self.radius,
            center: NodeId(0),
            members: self.members[start..end].to_vec(),
            distances: self.distances[start..end].to_vec(),
            graph: Graph::from_csr(offsets, neighbors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::{all_balls, Ball};
    use crate::generators::{cycle, grid, prism, star, Family};
    use crate::traversal::bfs_distances_bounded;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn scratch_bfs_matches_allocating_bfs() {
        let g = grid(5, 7);
        let mut scratch = BfsScratch::new(g.node_count());
        let mut out = Vec::new();
        for v in g.nodes() {
            for radius in [0u32, 1, 2, 5] {
                scratch.bounded_bfs(&g, v, radius, &mut out);
                let mut ours: Vec<(NodeId, u32)> = out.clone();
                let mut reference = bfs_distances_bounded(&g, v, radius);
                ours.sort_unstable_by_key(|&(w, d)| (d, w.0));
                reference.sort_unstable_by_key(|&(w, d)| (d, w.0));
                assert_eq!(ours, reference);
            }
        }
    }

    #[test]
    fn arena_balls_are_bit_identical_to_per_ball_extraction() {
        let mut rng = SmallRng::seed_from_u64(41);
        for family in Family::ALL {
            let g = family.generate(30, &mut rng);
            for radius in [0u32, 1, 2, 3] {
                let arena = BallArena::extract_all(&g, radius);
                assert_eq!(arena.len(), g.node_count());
                for v in g.nodes() {
                    let reference = Ball::extract(&g, v, radius);
                    let ours = arena.ball(v.index());
                    assert_eq!(ours, reference, "{} radius {radius} node {v}", family.name());
                    assert_eq!(arena.members(v.index()), &reference.members[..]);
                    assert_eq!(arena.distances(v.index()), &reference.distances[..]);
                    assert_eq!(arena.ball_len(v.index()), reference.len());
                }
            }
        }
    }

    #[test]
    fn arena_handles_disconnected_graphs() {
        // Balls on a disjoint union only cover the component of the center.
        let g = crate::ops::disjoint_union(&[&cycle(6), &prism(4)]).graph;
        let arena = BallArena::extract_all(&g, 4);
        for v in g.nodes() {
            assert_eq!(arena.ball(v.index()), Ball::extract(&g, v, 4));
        }
        assert_eq!(arena.ball_len(0), 6, "C6 balls saturate their component");
    }

    #[test]
    fn arena_totals_and_star_shapes() {
        let g = star(9);
        let arena = BallArena::extract_all(&g, 1);
        assert_eq!(arena.total_members(), 9 + 8 * 2);
        assert_eq!(arena.ball_len(0), 9);
        assert!(!arena.is_empty());
        assert_eq!(arena.radius(), 1);
    }

    #[test]
    fn working_set_bytes_tracks_array_growth() {
        let g = cycle(16);
        let small = BallArena::extract_all(&g, 1);
        let large = BallArena::extract_all(&g, 4);
        assert!(small.working_set_bytes() > 0);
        assert!(
            large.working_set_bytes() > small.working_set_bytes(),
            "larger radius must touch a larger working set"
        );
    }

    #[test]
    fn all_balls_agrees_with_arena() {
        let g = cycle(12);
        let balls = all_balls(&g, 2);
        let arena = BallArena::extract_all(&g, 2);
        for (i, b) in balls.iter().enumerate() {
            assert_eq!(*b, arena.ball(i));
        }
    }
}
