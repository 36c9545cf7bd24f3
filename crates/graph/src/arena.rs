//! Extraction of radius-`t` balls from a reusable scratch, and of *all*
//! balls of a graph in one pass.
//!
//! [`BfsScratch::append_ball`] is the one per-ball routine: a bounded BFS
//! with stamp-based visited marks (no hashing, no per-node clearing) over
//! any neighbor-list accessor, then the canonical member order and the
//! induced CSR, appended to flat [`BallParts`] arrays. Nothing is
//! allocated per ball beyond the arrays' amortized growth.
//! [`BallArena::extract_all`] runs it once per node of a graph, so the
//! Monte-Carlo hot paths of this workspace, which need the balls of
//! *every* node of the same `(graph, radius)` pair, get them in flat
//! member/distance/offset arrays plus one concatenated CSR. The round
//! backend (`rlnc-core`'s gathers) runs the same routine over the CSR of
//! what a node learned.
//!
//! [`Ball::extract`](crate::ball::Ball::extract), which allocates a fresh
//! hash map, frontier vector, and induced [`Graph`] per call, is the
//! reference both are pinned against: [`BallArena::ball`] materializes
//! exactly the [`Ball`] it would return (same member order, same
//! distances, same induced CSR), which is what lets the execution engine
//! built on top of the arena (`rlnc-engine`) guarantee bit-reproducible
//! results.

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
/// ball extraction. The per-node arrays grow on demand, so one scratch can
/// serve graphs of different sizes.
#[derive(Debug, Clone, Default)]
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
    /// BFS queue of `(host node, distance)` pairs, consumed by index, so
    /// after a search it holds every discovered node in discovery order.
    queue: Vec<(NodeId, u32)>,
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

    /// The bounded BFS behind [`BfsScratch::append_ball`]: afterwards
    /// `queue` holds the discovered nodes and `stamp`/`dist` mark them for
    /// this generation.
    fn search<I: Iterator<Item = NodeId>>(
        &mut self,
        node_count: usize,
        neighbors: impl Fn(NodeId) -> I,
        source: NodeId,
        radius: u32,
    ) {
        if self.stamp.len() < node_count {
            // Stamp 0 is never current (the generation starts at 1), so
            // fresh entries read as unseen.
            self.stamp.resize(node_count, 0);
            self.local.resize(node_count, 0);
            self.dist.resize(node_count, 0);
        }
        self.generation += 1;
        let generation = self.generation;
        self.queue.clear();
        self.stamp[source.index()] = generation;
        self.dist[source.index()] = 0;
        self.queue.push((source, 0));
        let mut head = 0usize;
        while head < self.queue.len() {
            let (u, du) = self.queue[head];
            head += 1;
            if du == radius {
                continue;
            }
            for w in neighbors(u) {
                if self.stamp[w.index()] != generation {
                    self.stamp[w.index()] = generation;
                    self.dist[w.index()] = du + 1;
                    self.queue.push((w, du + 1));
                }
            }
        }
    }

    /// Appends the radius-`radius` ball around `center` to `out` in the
    /// canonical [`Ball`] form: members sorted by `(distance, node)`, so the
    /// center comes first; their distances; and the induced CSR in local
    /// indices (one offset run starting at 0, sorted neighbor lists)
    /// without the edges between two nodes at distance exactly `radius`.
    ///
    /// `neighbors(v)` lists the neighbors of node `v` of a simple graph on
    /// `0..node_count`; any neighbor order gives the same ball. This is the
    /// one per-ball routine: [`BallArena::extract_all`] runs it over the
    /// host graph once per center, and the round backend over the CSR of
    /// what a node learned. Allocation-free once `out` and the scratch
    /// have grown.
    pub fn append_ball<I: Iterator<Item = NodeId>>(
        &mut self,
        node_count: usize,
        neighbors: impl Fn(NodeId) -> I,
        center: NodeId,
        radius: u32,
        out: &mut BallParts,
    ) {
        self.search(node_count, &neighbors, center, radius);
        self.queue.sort_unstable_by_key(|&(v, d)| (d, v.0));
        // The BFS stamps are still valid for this generation: record each
        // member's local index for the host→local translation.
        for (li, &(v, _)) in self.queue.iter().enumerate() {
            self.local[v.index()] = li as u32;
        }
        let edge_base = out.neighbors.len();
        out.offsets.push(0);
        for &(v, dv) in &self.queue {
            out.members.push(v);
            out.distances.push(dv);
            let list_start = out.neighbors.len();
            for w in neighbors(v) {
                if self.stamp[w.index()] != self.generation {
                    continue; // neighbor outside the ball
                }
                // Exclude edges between two nodes at distance exactly t.
                if dv == radius && self.dist[w.index()] == radius {
                    continue;
                }
                out.neighbors.push(self.local[w.index()]);
            }
            out.neighbors[list_start..].sort_unstable();
            out.offsets.push((out.neighbors.len() - edge_base) as u32);
        }
    }
}

/// Flat ball arrays as [`BfsScratch::append_ball`] appends them: members,
/// their distances, and the induced CSR (per ball, one offset run starting
/// at 0 over that ball's slice of `neighbors`).
#[derive(Debug, Clone, Default)]
pub struct BallParts {
    /// Ball members, center first.
    members: Vec<NodeId>,
    /// Distance of each member from its center.
    distances: Vec<u32>,
    /// CSR offsets, `len + 1` per ball.
    offsets: Vec<u32>,
    /// CSR neighbor lists in local indices.
    neighbors: Vec<u32>,
}

impl BallParts {
    /// Empties every array, keeping the allocations.
    pub fn clear(&mut self) {
        self.members.clear();
        self.distances.clear();
        self.offsets.clear();
        self.neighbors.clear();
    }

    /// Copies the single ball these parts hold into a standalone [`Ball`],
    /// one exactly sized buffer per array.
    ///
    /// # Panics
    /// Panics unless the parts hold exactly one ball.
    pub fn to_ball(&self, radius: u32) -> Ball {
        assert_eq!(
            self.offsets.len(),
            self.members.len() + 1,
            "parts must hold exactly one ball"
        );
        Ball {
            radius,
            center: NodeId(0),
            members: self.members.clone(),
            distances: self.distances.clone(),
            graph: Graph::from_csr(self.offsets.clone(), self.neighbors.clone()),
        }
    }
}

/// Every node's radius-`t` ball, extracted once into flat shared arrays.
///
/// For ball `i` (the ball centered at host node `i`):
/// * members and distances live in
///   `parts.members[ball_offsets[i]..ball_offsets[i+1]]` (sorted by
///   `(distance, host index)`, center first — the canonical
///   [`Ball`] order);
/// * its induced adjacency is the CSR pair
///   `parts.offsets[ball_offsets[i] + i ..= ball_offsets[i+1] + i]` /
///   `parts.neighbors[edge_offsets[i]..edge_offsets[i+1]]`, in local
///   indices relative to the ball, with edges between two radius-`t` nodes
///   removed per the paper's ball definition.
#[derive(Debug, Clone)]
pub struct BallArena {
    radius: u32,
    ball_offsets: Vec<usize>,
    parts: BallParts,
    edge_offsets: Vec<usize>,
}

impl BallArena {
    /// Extracts the radius-`t` ball of every node of `graph` with one
    /// shared scratch.
    pub fn extract_all(graph: &Graph, radius: u32) -> BallArena {
        let _span = OBS_EXTRACT_SPAN.start();
        let n = graph.node_count();
        let mut scratch = BfsScratch::new(n);
        let mut arena = BallArena {
            radius,
            ball_offsets: Vec::with_capacity(n + 1),
            parts: BallParts::default(),
            edge_offsets: Vec::with_capacity(n + 1),
        };
        arena.ball_offsets.push(0);
        arena.edge_offsets.push(0);
        for center in graph.nodes() {
            scratch.append_ball(
                n,
                |v| graph.neighbor_ids(v),
                center,
                radius,
                &mut arena.parts,
            );
            arena.ball_offsets.push(arena.parts.members.len());
            arena.edge_offsets.push(arena.parts.neighbors.len());
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
        OBS_CSR_EDGES.add(self.parts.neighbors.len() as u64);
        OBS_WORKING_SET.record_max(self.working_set_bytes());
        for i in 0..self.len() {
            OBS_BALL_MEMBERS.observe(self.ball_len(i) as u64);
            OBS_BALL_EDGES.observe((self.edge_offsets[i + 1] - self.edge_offsets[i]) as u64);
        }
    }

    /// Bytes held by the arena's flat arrays — the working set a kernel
    /// pass over every ball touches, and the cache-behavior proxy exported
    /// as the `graph.arena.working_set_bytes` gauge.
    pub fn working_set_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.ball_offsets.len() * size_of::<usize>()
            + self.parts.members.len() * size_of::<NodeId>()
            + self.parts.distances.len() * size_of::<u32>()
            + self.parts.offsets.len() * size_of::<u32>()
            + self.parts.neighbors.len() * size_of::<u32>()
            + self.edge_offsets.len() * size_of::<usize>()) as u64
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
        self.parts.members.len()
    }

    /// Number of nodes in ball `i`.
    pub fn ball_len(&self, i: usize) -> usize {
        self.ball_offsets[i + 1] - self.ball_offsets[i]
    }

    /// Materializes ball `i` as a standalone [`Ball`], bit-identical to
    /// `Ball::extract(graph, NodeId(i), radius)`.
    pub fn ball(&self, i: usize) -> Ball {
        let start = self.ball_offsets[i];
        let end = self.ball_offsets[i + 1];
        let offsets = self.parts.offsets[start + i..=end + i].to_vec();
        let neighbors =
            self.parts.neighbors[self.edge_offsets[i]..self.edge_offsets[i + 1]].to_vec();
        Ball {
            radius: self.radius,
            center: NodeId(0),
            members: self.parts.members[start..end].to_vec(),
            distances: self.parts.distances[start..end].to_vec(),
            graph: Graph::from_csr(offsets, neighbors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::{all_balls, Ball};
    use crate::generators::{cycle, prism, star, Family};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
                    assert_eq!(arena.ball_len(v.index()), reference.len());
                }
            }
        }
    }

    #[test]
    fn single_ball_routine_matches_reference_extraction() {
        // One scratch and one parts buffer serve every graph, growing from
        // empty; reversing each neighbor list shows that the accessor's
        // order does not matter.
        let mut rng = SmallRng::seed_from_u64(43);
        let mut scratch = BfsScratch::default();
        let mut parts = BallParts::default();
        for n in [12usize, 30] {
            for family in Family::ALL {
                let g = family.generate(n, &mut rng);
                let count = g.node_count();
                for radius in [0u32, 1, 2, 3] {
                    for v in g.nodes() {
                        let reference = Ball::extract(&g, v, radius);
                        parts.clear();
                        scratch.append_ball(count, |u| g.neighbor_ids(u), v, radius, &mut parts);
                        assert_eq!(
                            parts.to_ball(radius),
                            reference,
                            "{} radius {radius} node {v}",
                            family.name()
                        );
                        parts.clear();
                        let reversed = |u: NodeId| g.neighbors(u).iter().rev().map(|&w| NodeId(w));
                        scratch.append_ball(count, reversed, v, radius, &mut parts);
                        assert_eq!(
                            parts.to_ball(radius),
                            reference,
                            "{} reversed, node {v}",
                            family.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly one ball")]
    fn to_ball_rejects_parts_holding_two_balls() {
        let g = cycle(6);
        let mut scratch = BfsScratch::new(6);
        let mut parts = BallParts::default();
        for v in [NodeId(0), NodeId(3)] {
            scratch.append_ball(6, |u| g.neighbor_ids(u), v, 1, &mut parts);
        }
        let _ = parts.to_ball(1);
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
