//! Explicit synchronous message-passing execution of LOCAL algorithms —
//! the repo's second execution backend.
//!
//! §2.1.1 of the paper describes the LOCAL model operationally: in each
//! round every node (1) sends messages to its neighbors, (2) receives its
//! neighbors' messages, and (3) computes. It then observes that a `t`-round
//! algorithm is equivalent to the "collect the radius-`t` ball and decide"
//! formulation used everywhere else in the paper (and in
//! [`crate::simulator`]). This module implements the operational model as a
//! *steppable* system ([`RoundSystem`]) so the equivalence is **tested**
//! rather than assumed (experiment E10 and the engine's round-equivalence
//! proptest suite), and so fault models the ball formulation cannot even
//! express — crash-stop nodes, failure cascades, Byzantine message
//! rewriting — become first-class, seeded, assertable events
//! (see [`crate::faults`]).
//!
//! Three layers live here:
//!
//! * [`MessagePassingAlgorithm`] — the node state machine contract. Each
//!   round a node broadcasts one message, which reaches every neighbor,
//!   and receives its live neighbors' messages in port order.
//! * [`RoundSystem`] — one broadcast per live node per round, driven by
//!   [`RoundSystem::step`] / [`RoundSystem::step_until_quiet`], with
//!   optional [`FaultSchedule`]-driven crashes (a crashed neighbor's
//!   message is simply absent) and Byzantine senders, whose broadcasts
//!   pass through [`MessagePassingAlgorithm::forge`]. A system steps on
//!   its caller: the work that fans out is the batch of trials around it
//!   (a sweep's items), never one round.
//! * The host-keyed full-information gather [`GatherRun`], which
//!   simulates any `t`-round ball-view algorithm (deterministic ones
//!   through the blanket [`RandomizedLocalAlgorithm`] impl) or decider
//!   ([`decide_randomized_via_rounds`]) and reconstructs each node's view
//!   **bit-identically** to [`View::collect`], so algorithms and deciders
//!   produce the same outputs through messages as through ball extraction
//!   with the same seed. Its [`forge`](MessagePassingAlgorithm::forge) is
//!   the Byzantine relabeling attack.

use crate::algorithm::{Coins, RandomizedLocalAlgorithm};
use crate::config::{Instance, IoConfig};
use crate::decision::RandomizedDecider;
use crate::faults::FaultSchedule;
use crate::labels::{Label, Labeling};
use crate::view::View;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rlnc_graph::{BallParts, BfsScratch, Graph, IdAssignment, NodeId};
use rlnc_obs::{LazyCounter, LazyHistogram, Section, POW2_BUCKETS};
use std::cell::RefCell;
use std::sync::Arc;

// Round-backend observability. Message counts are functions of the
// algorithm, graph, and fault schedule alone (each trial's rounds run
// deterministically), so totals over a fixed trial set are invariant
// across thread schedules and batch sizes — deterministic section.
static OBS_STEPS: LazyCounter = LazyCounter::new("core.rounds.steps", Section::Deterministic);
static OBS_DELIVERED: LazyCounter =
    LazyCounter::new("core.rounds.messages_delivered", Section::Deterministic);
static OBS_DROPPED: LazyCounter =
    LazyCounter::new("core.rounds.messages_dropped", Section::Deterministic);
static OBS_PER_ROUND: LazyHistogram = LazyHistogram::new(
    "core.rounds.delivered_per_round",
    Section::Deterministic,
    &POW2_BUCKETS,
);

/// Per-node initialization data: what a node knows before round 1.
#[derive(Debug, Clone)]
pub struct NodeInit {
    /// The node's host-graph index — the key of its private coin stream
    /// (see [`Coins::for_node`](crate::algorithm::Coins)), which the model
    /// treats as part of the node's local state alongside its identity.
    pub node: NodeId,
    /// The node's identity.
    pub id: u64,
    /// The node's degree (number of ports).
    pub degree: usize,
    /// The node's input label.
    pub input: Label,
}

/// A synchronous message-passing algorithm in the LOCAL model, in
/// broadcast form: each round a node sends one message to all of its
/// neighbors. Messages are unbounded (`Message` can be arbitrarily
/// large), matching the model's lack of bandwidth constraints.
pub trait MessagePassingAlgorithm: Sync {
    /// Local state carried by each node between rounds.
    type State: Clone + Send + Sync;
    /// Message type exchanged on edges.
    type Message: Clone + Send + Sync;

    /// Number of rounds the algorithm runs.
    fn rounds(&self) -> u32;

    /// Initial state of a node.
    fn init(&self, node: &NodeInit) -> Self::State;

    /// The message the node broadcasts in round `round` (1-based); every
    /// neighbor receives a clone of it.
    fn send(&self, state: &Self::State, round: u32) -> Self::Message;

    /// State update after receiving the round's messages: one per live
    /// neighbor, in the order of the node's neighbor list. A neighbor
    /// that crashed is silent, so its message is absent.
    fn receive(&self, state: Self::State, round: u32, incoming: &[Self::Message]) -> Self::State;

    /// Output label after the final round.
    fn output(&self, state: &Self::State) -> Label;

    /// Rewrites the broadcast of a node the fault schedule marks
    /// Byzantine, before any neighbor receives it. All randomness comes
    /// from `rng`, the schedule's `(node, round)` adversary stream, so a
    /// forgery replays bit-identically. Honest by default: the message
    /// goes out as sent.
    fn forge(&self, _message: &mut Self::Message, _rng: &mut ChaCha8Rng) {}
}

/// A steppable synchronous message-passing system over one instance, one
/// node state machine per node.
///
/// Created by [`RoundSystem::new`], then driven round by round with
/// [`RoundSystem::step`] or to completion with
/// [`RoundSystem::step_until_quiet`] / [`RoundSystem::run`].
///
/// Fault injection is opt-in: [`RoundSystem::with_faults`] silences
/// crashed nodes per the schedule and passes Byzantine nodes' broadcasts
/// through the algorithm's [`forge`](MessagePassingAlgorithm::forge).
pub struct RoundSystem<'a, M: MessagePassingAlgorithm> {
    algo: &'a M,
    graph: &'a Graph,
    states: Vec<M::State>,
    faults: Option<&'a FaultSchedule>,
    round: u32,
}

impl<'a, M: MessagePassingAlgorithm> RoundSystem<'a, M> {
    /// Initializes every node's state machine over `instance`.
    pub fn new(algo: &'a M, instance: &Instance<'a>) -> Self {
        let graph = instance.graph;
        let states = (0..graph.node_count())
            .map(|vi| {
                let v = NodeId::from_index(vi);
                algo.init(&NodeInit {
                    node: v,
                    id: instance.ids.id(v),
                    degree: graph.degree(v),
                    input: *instance.input.get(v),
                })
            })
            .collect();
        RoundSystem {
            algo,
            graph,
            states,
            faults: None,
            round: 0,
        }
    }

    /// Attaches a fault schedule: crashed nodes stop sending and updating
    /// from their crash round on (their output is computed from the frozen
    /// state), and Byzantine nodes' messages pass through
    /// [`forge`](MessagePassingAlgorithm::forge).
    ///
    /// # Panics
    /// Panics if the schedule covers a different node count.
    pub fn with_faults(mut self, schedule: &'a FaultSchedule) -> Self {
        assert_eq!(
            schedule.node_count(),
            self.graph.node_count(),
            "fault schedule was built for a different graph"
        );
        self.faults = Some(schedule);
        self
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Returns `true` when stepping can no longer change any state: the
    /// algorithm's rounds are exhausted, or every node has crashed.
    pub fn is_quiet(&self) -> bool {
        if self.round >= self.algo.rounds() {
            return true;
        }
        match self.faults {
            Some(f) => f.all_silent_at(self.round + 1),
            None => false,
        }
    }

    /// Executes one synchronous round — send, deliver, compute — and
    /// returns `true`, or returns `false` without side effects if the
    /// system [`is_quiet`](RoundSystem::is_quiet). Both phases run on
    /// the caller, in node order.
    pub fn step(&mut self) -> bool {
        if self.is_quiet() {
            return false;
        }
        let round = self.round + 1;
        let graph = self.graph;
        let n = graph.node_count();
        let algo = self.algo;
        let faults = self.faults;
        let silent = |v: NodeId| faults.is_some_and(|f| f.is_silent(v, round));

        // Phase 1: every live node prepares its broadcast; Byzantine
        // senders forge theirs with (node, round)-keyed coins.
        let send_one = |vi: usize| -> Option<M::Message> {
            let v = NodeId::from_index(vi);
            if silent(v) {
                return None;
            }
            let mut message = algo.send(&self.states[vi], round);
            if let Some(f) = faults.filter(|f| f.is_byzantine(v)) {
                algo.forge(&mut message, &mut f.adversary_rng(v, round));
            }
            Some(message)
        };
        let outgoing: Vec<Option<M::Message>> = (0..n).map(send_one).collect();

        // Per-round message-delivery accounting: a live sender's broadcast
        // crosses each of its ports; a silent sender's ports are dropped.
        if rlnc_obs::enabled() {
            let delivered: u64 = graph
                .nodes()
                .filter(|v| outgoing[v.index()].is_some())
                .map(|v| graph.degree(v) as u64)
                .sum();
            let total_ports = graph.degree_sum() as u64;
            OBS_STEPS.inc();
            OBS_DELIVERED.add(delivered);
            OBS_DROPPED.add(total_ports.saturating_sub(delivered));
            OBS_PER_ROUND.observe(delivered);
        }

        // Phase 2 + 3: every live node receives its live neighbors'
        // broadcasts in port order and updates. Each node's state moves
        // into its update; crashed nodes keep theirs unchanged.
        let compute_one = |(vi, state): (usize, M::State)| -> M::State {
            let v = NodeId::from_index(vi);
            if silent(v) {
                return state;
            }
            let incoming: Vec<M::Message> = graph
                .neighbor_ids(v)
                .filter_map(|w| outgoing[w.index()].clone())
                .collect();
            algo.receive(state, round, &incoming)
        };
        let states = std::mem::take(&mut self.states);
        self.states = states.into_iter().enumerate().map(compute_one).collect();
        self.round = round;
        true
    }

    /// Steps until the system is quiet and returns the number of rounds
    /// executed. Terminates even when every node has crashed (a fully
    /// silent system is quiet immediately).
    pub fn step_until_quiet(&mut self) -> u32 {
        let mut steps = 0;
        while self.step() {
            steps += 1;
        }
        steps
    }

    /// Applies the algorithm's output function to every node's current
    /// (possibly crash-frozen) state.
    pub fn outputs(&self) -> Labeling {
        Labeling::new(self.states.iter().map(|s| self.algo.output(s)).collect())
    }

    /// Runs to quiescence and returns the outputs.
    pub fn run(mut self) -> Labeling {
        self.step_until_quiet();
        self.outputs()
    }
}

/// Honest identities must fit below this bound for the identities
/// [`GatherRun`]'s [`forge`](MessagePassingAlgorithm::forge) makes (which
/// live at or above it) to stay disjoint from them — every identity
/// universe in the repo is far below `2^40`.
const FORGED_ID_BASE: u64 = 1 << 40;

/// What the host-keyed full-information gather knows about one remote
/// node: its host index (the coin-stream key), identity, labels, and
/// degree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    host: NodeId,
    id: u64,
    input: Label,
    output: Label,
    degree: usize,
}

/// State (and message) of the host-keyed full-information gather
/// [`GatherRun`]: everything learned so far, keyed
/// by host index so the center can reconstruct its view — including every
/// node's private coin stream — bit-identically to [`View::collect`].
/// Messages are unbounded, so each round a node broadcasts a snapshot of
/// its whole state, shared by all its neighbors.
#[derive(Debug, Clone)]
pub struct FullGatherState {
    own: NodeId,
    nodes: Vec<HostInfo>,
    /// Edges between known nodes as (smaller, larger) host-index pairs.
    /// Invariant: both endpoints appear in `nodes` (merging copies a
    /// message's nodes wholesale, and adversaries rewrite identities, not
    /// structure).
    edges: Vec<(NodeId, NodeId)>,
}

impl FullGatherState {
    fn of(node: &NodeInit, output: Label) -> FullGatherState {
        debug_assert!(
            node.id < FORGED_ID_BASE,
            "identities must stay below 2^40 for Byzantine relabeling to stay injective"
        );
        FullGatherState {
            own: node.node,
            nodes: vec![HostInfo {
                host: node.node,
                id: node.id,
                input: node.input,
                output,
                degree: node.degree,
            }],
            edges: Vec::new(),
        }
    }

    /// Learns the edge to each sender and everything the sender knows.
    fn absorb(mut self, incoming: &[Arc<FullGatherState>]) -> FullGatherState {
        for msg in incoming {
            let edge = (self.own.min(msg.own), self.own.max(msg.own));
            if !self.edges.contains(&edge) {
                self.edges.push(edge);
            }
            for node in &msg.nodes {
                if !self.nodes.iter().any(|n| n.host == node.host) {
                    self.nodes.push(node.clone());
                }
            }
            for e in &msg.edges {
                if !self.edges.contains(e) {
                    self.edges.push(*e);
                }
            }
        }
        self
    }

    /// XORs `mask` into every known identity — the relabeling attack.
    /// With `mask`'s low 40 bits zero, forged identities stay positive,
    /// injective, and disjoint from honest ones even across chains of
    /// Byzantine relays (XOR composes to another such mask).
    fn forge_ids(&mut self, mask: u64) {
        for node in &mut self.nodes {
            node.id ^= mask;
        }
    }

    /// Reconstructs the center's radius-`radius` view from the learned
    /// subgraph. After `radius` rounds that subgraph holds every node
    /// within distance `radius` and every edge with an endpoint within
    /// distance `radius − 1`, which is all of `B_G(v, radius)`.
    /// The view is bit-identical to [`View::collect`] /
    /// [`View::collect_io`] on the host instance: the learned nodes are
    /// indexed in host order (so BFS tie-breaking matches), ball members
    /// are mapped back to their true host indices (so coin streams
    /// match), and the center's true degree is restored (so radius-0
    /// views report it correctly).
    ///
    /// The learned CSR and the ball are built in a thread-local scratch
    /// by the shared per-ball routine ([`BfsScratch::append_ball`]); only
    /// the view's own buffers are allocated, and the scratch is released
    /// before the caller runs the wrapped algorithm.
    fn reconstruct_view(&self, radius: u32, with_outputs: bool) -> View {
        GATHER_SCRATCH.with(|cell| {
            let GatherScratch {
                order,
                offsets,
                neighbors,
                bfs,
                ball: parts,
            } = &mut *cell.borrow_mut();
            // Learned index = position in host order.
            order.clear();
            order.extend(
                self.nodes
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.host, i as u32)),
            );
            order.sort_unstable();
            let learned = |h: NodeId| {
                order
                    .binary_search_by_key(&h, |&(host, _)| host)
                    .expect("gather invariant: every edge endpoint is a known node")
            };
            // Learned adjacency as a CSR over learned indices: count the
            // degrees, place each edge at its endpoints' cursors (the
            // starts, advanced in place), then shift the ends back into
            // starts. `edges` is a set, so no list holds a duplicate.
            let k = order.len();
            offsets.clear();
            offsets.resize(k + 1, 0);
            for &(a, b) in &self.edges {
                offsets[learned(a) + 1] += 1;
                offsets[learned(b) + 1] += 1;
            }
            for i in 0..k {
                offsets[i + 1] += offsets[i];
            }
            neighbors.clear();
            neighbors.resize(2 * self.edges.len(), 0);
            for &(a, b) in &self.edges {
                let (la, lb) = (learned(a), learned(b));
                neighbors[offsets[la] as usize] = lb as u32;
                offsets[la] += 1;
                neighbors[offsets[lb] as usize] = la as u32;
                offsets[lb] += 1;
            }
            offsets.copy_within(0..k, 1);
            offsets[0] = 0;

            let center = NodeId::from_index(learned(self.own));
            let adjacency = |v: NodeId| {
                let range = offsets[v.index()] as usize..offsets[v.index() + 1] as usize;
                neighbors[range].iter().map(|&w| NodeId(w))
            };
            parts.clear();
            bfs.append_ball(k, adjacency, center, radius, parts);

            let info = |m: NodeId| &self.nodes[order[m.index()].1 as usize];
            let mut ball = parts.to_ball(radius);
            let ids: Vec<u64> = ball.members.iter().map(|&m| info(m).id).collect();
            let inputs: Vec<Label> = ball.members.iter().map(|&m| info(m).input).collect();
            let outputs: Option<Vec<Label>> =
                with_outputs.then(|| ball.members.iter().map(|&m| info(m).output).collect());
            let host_degree = info(center).degree;
            for m in &mut ball.members {
                *m = order[m.index()].0;
            }
            View::from_parts(ball, self.own, radius, ids, inputs, outputs, host_degree)
        })
    }

    /// The one-shot reconstruction — clone, sort, rebuild the learned
    /// graph with a [`GraphBuilder`](rlnc_graph::GraphBuilder), then
    /// [`Ball::extract`](rlnc_graph::Ball::extract): the reference the
    /// scratch path is pinned against.
    #[cfg(test)]
    fn reconstruct_view_reference(&self, radius: u32, with_outputs: bool) -> View {
        let mut nodes = self.nodes.clone();
        nodes.sort_by_key(|n| n.host);
        let hosts: Vec<NodeId> = nodes.iter().map(|n| n.host).collect();
        let index_of = |h: NodeId| {
            hosts
                .binary_search(&h)
                .expect("gather invariant: every edge endpoint is a known node")
        };
        let mut builder = rlnc_graph::GraphBuilder::new(nodes.len());
        for &(a, b) in &self.edges {
            builder.add_edge(index_of(a), index_of(b));
        }
        let graph: Graph = builder.build();
        let center = NodeId::from_index(index_of(self.own));
        let mut ball = rlnc_graph::Ball::extract(&graph, center, radius);
        let ids: Vec<u64> = ball.members.iter().map(|&m| nodes[m.index()].id).collect();
        let inputs: Vec<Label> = ball
            .members
            .iter()
            .map(|&m| nodes[m.index()].input)
            .collect();
        let outputs: Option<Vec<Label>> = with_outputs.then(|| {
            ball.members
                .iter()
                .map(|&m| nodes[m.index()].output)
                .collect()
        });
        let host_degree = nodes[center.index()].degree;
        for m in &mut ball.members {
            *m = nodes[m.index()].host;
        }
        View::from_parts(ball, self.own, radius, ids, inputs, outputs, host_degree)
    }
}

/// Reusable buffers of [`FullGatherState::reconstruct_view`].
#[derive(Default)]
struct GatherScratch {
    /// Learned nodes as `(host, index into nodes)`, sorted by host.
    order: Vec<(NodeId, u32)>,
    /// CSR offsets of the learned adjacency over learned indices.
    offsets: Vec<u32>,
    /// CSR neighbor lists of the learned adjacency.
    neighbors: Vec<u32>,
    bfs: BfsScratch,
    /// The reconstructed ball, in learned indices.
    ball: BallParts,
}

thread_local! {
    /// One gather scratch per thread: the buffers grow to the largest
    /// learned subgraph seen on this thread and are then reused, so a
    /// gathered view allocates only its own buffers.
    static GATHER_SCRATCH: RefCell<GatherScratch> = RefCell::new(GatherScratch::default());
}

/// The host-keyed full-information gather for **randomized** (and, via the
/// blanket impl, deterministic) LOCAL algorithms: floods host indices,
/// identities, inputs, and incident edges, then evaluates the wrapped
/// algorithm on a view reconstructed bit-identically to
/// [`View::collect`] — same ball, same member order, same coin streams.
/// Built `with_outputs`, it also floods each node's output label, so the
/// views are decision views ([`View::collect_io`]); that is how
/// [`decide_randomized_via_rounds`] runs deciders.
///
/// Its [`forge`](MessagePassingAlgorithm::forge) is the Byzantine
/// relabeling attack: a corrupted node's broadcast has **every known
/// identity** XOR-masked with a fresh `(node, round)`-keyed mask whose low
/// 40 bits are zero. Hosts, inputs, and structure are untouched — pure
/// identity forgery, the message-level counterpart of the
/// `FaultyConstructor` (`rlnc-langs`) label corruption. The mask shape
/// keeps forged identities positive, injective, and disjoint from honest
/// ones (which live below `2^40`), so victims can still rebuild a valid
/// [`IdAssignment`] — they just decide over forged identities. The system
/// forges a broadcast before any neighbor holds it, so the snapshot has
/// no other owner and [`Arc::make_mut`] forges it in place.
pub struct GatherRun<'a, A: ?Sized> {
    inner: &'a A,
    coins: Coins,
    outputs: Option<&'a Labeling>,
}

impl<'a, A: RandomizedLocalAlgorithm + ?Sized> GatherRun<'a, A> {
    /// Wraps an algorithm together with the execution's coin source.
    pub fn new(inner: &'a A, coins: Coins) -> Self {
        GatherRun {
            inner,
            coins,
            outputs: None,
        }
    }

    /// Like [`GatherRun::new`], but every node also knows its label in
    /// `outputs` and floods it with the rest.
    pub(crate) fn with_outputs(inner: &'a A, outputs: &'a Labeling, coins: Coins) -> Self {
        GatherRun {
            outputs: Some(outputs),
            ..GatherRun::new(inner, coins)
        }
    }
}

impl<'a, A: RandomizedLocalAlgorithm + ?Sized> MessagePassingAlgorithm for GatherRun<'a, A> {
    type State = FullGatherState;
    type Message = Arc<FullGatherState>;

    fn rounds(&self) -> u32 {
        self.inner.radius()
    }

    fn init(&self, node: &NodeInit) -> FullGatherState {
        let output = self.outputs.map_or(Label::empty(), |y| *y.get(node.node));
        FullGatherState::of(node, output)
    }

    fn send(&self, state: &FullGatherState, _round: u32) -> Arc<FullGatherState> {
        Arc::new(state.clone())
    }

    fn receive(
        &self,
        state: FullGatherState,
        _round: u32,
        incoming: &[Arc<FullGatherState>],
    ) -> FullGatherState {
        state.absorb(incoming)
    }

    fn output(&self, state: &FullGatherState) -> Label {
        let view = state.reconstruct_view(self.inner.radius(), self.outputs.is_some());
        self.inner.output(&view, &self.coins)
    }

    fn forge(&self, message: &mut Arc<FullGatherState>, rng: &mut ChaCha8Rng) {
        let mask = (rng.random::<u64>() | 1) << 40;
        Arc::make_mut(message).forge_ids(mask);
    }
}

/// A decider as an algorithm whose output is its verdict, so deciders run
/// through [`GatherRun`].
struct Verdict<'a, D: ?Sized>(&'a D);

impl<D: RandomizedDecider + ?Sized> RandomizedLocalAlgorithm for Verdict<'_, D> {
    fn radius(&self) -> u32 {
        self.0.radius()
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        Label::from_bool(self.0.accepts(view, coins))
    }
}

/// Runs a randomized ball-view algorithm through the round backend: the
/// message-passing counterpart of
/// [`Simulator::run_randomized`](crate::simulator::Simulator) with the
/// same seed, bit-identical on fault-free executions.
pub fn run_randomized_via_rounds<A: RandomizedLocalAlgorithm + ?Sized>(
    algo: &A,
    instance: &Instance<'_>,
    execution_seed: rlnc_par::rng::SeedSequence,
) -> Labeling {
    let wrapper = GatherRun::new(algo, Coins::new(execution_seed));
    RoundSystem::new(&wrapper, instance).run()
}

/// Decides `(G, (x, y))` through the round backend: every node gathers
/// its decision view by messages and votes; accepted iff every node
/// accepts. Bit-identical to
/// [`decide_randomized`](crate::decision::decide_randomized) with the
/// same seed.
pub fn decide_randomized_via_rounds<D: RandomizedDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
    execution_seed: rlnc_par::rng::SeedSequence,
) -> bool {
    let instance = Instance::new(io.graph, io.input, ids);
    let verdict = Verdict(decider);
    let wrapper = GatherRun::with_outputs(&verdict, io.output, Coins::new(execution_seed));
    let verdicts = RoundSystem::new(&wrapper, &instance).run();
    let yes = Label::from_bool(true);
    verdicts.as_slice().iter().all(|v| *v == yes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FnAlgorithm, FnRandomizedAlgorithm, LocalAlgorithm};
    use crate::decision::{decide_randomized, FnRandomizedDecider};
    use crate::faults::{FaultPlan, FAULT_PLAN_KINDS};
    use crate::simulator::Simulator;
    use proptest::prelude::*;
    use rlnc_graph::generators::{binary_tree, cycle, grid, Family};
    use rlnc_graph::GraphBuilder;
    use rlnc_par::rng::SeedSequence;

    /// A deterministic algorithm through the gather (its coins go unread).
    fn via_rounds<A: LocalAlgorithm>(algo: &A, instance: &Instance<'_>) -> Labeling {
        run_randomized_via_rounds(algo, instance, SeedSequence::new(0))
    }

    /// A hand-written message-passing algorithm: compute the minimum
    /// identity within distance `t` by flooding.
    struct MinIdFlood {
        rounds: u32,
    }

    impl MessagePassingAlgorithm for MinIdFlood {
        type State = u64;
        type Message = u64;

        fn rounds(&self) -> u32 {
            self.rounds
        }

        fn init(&self, node: &NodeInit) -> u64 {
            node.id
        }

        fn send(&self, state: &u64, _round: u32) -> u64 {
            *state
        }

        fn receive(&self, state: u64, _round: u32, incoming: &[u64]) -> u64 {
            incoming.iter().copied().fold(state, u64::min)
        }

        fn output(&self, state: &u64) -> Label {
            Label::from_u64(*state)
        }
    }

    #[test]
    fn min_id_flood_matches_ball_minimum() {
        let g = cycle(16);
        let x = Labeling::empty(16);
        let ids = IdAssignment::spread(&g, 13);
        let inst = Instance::new(&g, &x, &ids);
        let t = 3;
        let out = RoundSystem::new(&MinIdFlood { rounds: t }, &inst).run();
        // Reference: minimum id within distance t via the ball view.
        let reference = Simulator::new().run(
            &FnAlgorithm::new(t, "min-id", |view: &View| {
                Label::from_u64((0..view.len()).map(|i| view.id(i)).min().unwrap())
            }),
            &inst,
        );
        assert_eq!(out, reference);
    }

    #[test]
    fn gather_and_run_equals_direct_simulation_on_cycles() {
        let g = cycle(20);
        let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 4)));
        let ids = IdAssignment::spread(&g, 3);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(2, "ball-fingerprint", |view: &View| {
            let ids_sum: u64 = (0..view.len()).map(|i| view.id(i)).sum();
            let inputs_sum: u64 = (0..view.len()).map(|i| view.input(i).as_u64()).sum();
            let edges = view.local_graph().edge_count() as u64;
            Label::from_u64(ids_sum * 1000 + inputs_sum * 10 + edges)
        });
        let direct = Simulator::new().run(&algo, &inst);
        let via_messages = via_rounds(&algo, &inst);
        assert_eq!(direct, via_messages);
    }

    #[test]
    fn gather_and_run_equals_direct_simulation_on_other_families() {
        for graph in [grid(4, 5), binary_tree(15)] {
            let x = Labeling::empty(graph.node_count());
            let ids = IdAssignment::consecutive(&graph);
            let inst = Instance::new(&graph, &x, &ids);
            let algo = FnAlgorithm::new(1, "degree-and-rank", |view: &View| {
                Label::from_u64((view.center_degree() as u64) * 10 + view.center_rank() as u64)
            });
            let direct = Simulator::new().run(&algo, &inst);
            let via_messages = via_rounds(&algo, &inst);
            assert_eq!(direct, via_messages);
        }
    }

    #[test]
    fn zero_round_algorithms_need_no_messages() {
        let g = cycle(8);
        let x = Labeling::empty(8);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(0, "own-id", |view: &View| Label::from_u64(view.center_id()));
        let direct = Simulator::new().run(&algo, &inst);
        let via_messages = via_rounds(&algo, &inst);
        assert_eq!(direct, via_messages);
    }

    // --- RoundSystem / steppable API -----------------------------------

    #[test]
    fn stepping_matches_one_shot_execution() {
        let g = grid(3, 4);
        let x = Labeling::empty(12);
        let ids = IdAssignment::spread(&g, 5);
        let inst = Instance::new(&g, &x, &ids);
        let algo = MinIdFlood { rounds: 3 };
        let one_shot = RoundSystem::new(&algo, &inst).run();
        let mut system = RoundSystem::new(&algo, &inst);
        assert_eq!(system.round(), 0);
        assert!(system.step());
        assert!(system.step());
        assert!(!system.is_quiet());
        assert_eq!(system.step_until_quiet(), 1);
        assert!(system.is_quiet());
        assert!(!system.step());
        assert_eq!(system.round(), 3);
        assert_eq!(system.outputs(), one_shot);
    }

    #[test]
    fn radius_zero_system_is_quiet_immediately() {
        let g = cycle(6);
        let x = Labeling::empty(6);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = MinIdFlood { rounds: 0 };
        let mut system = RoundSystem::new(&algo, &inst);
        assert!(system.is_quiet());
        assert_eq!(system.step_until_quiet(), 0);
        assert_eq!(system.outputs(), Simulator::new().run(
            &FnAlgorithm::new(0, "own-id", |v: &View| Label::from_u64(v.center_id())),
            &inst,
        ));
    }

    #[test]
    fn single_node_and_isolated_node_graphs_run_cleanly() {
        // A single-node graph: no ports, no messages, any number of rounds.
        let single = GraphBuilder::new(1).build();
        let x = Labeling::empty(1);
        let ids = IdAssignment::consecutive(&single);
        let inst = Instance::new(&single, &x, &ids);
        let out = RoundSystem::new(&MinIdFlood { rounds: 4 }, &inst).run();
        assert_eq!(out.get(NodeId(0)).as_u64(), ids.id(NodeId(0)));
        // Degree-0 nodes inside a larger graph gather nothing but still
        // answer, and the host-keyed gather restores their (zero) degree
        // and their neighbors' views are unaffected.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build(); // nodes 3, 4 are isolated
        let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0)));
        let ids = IdAssignment::spread(&g, 3);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(2, "ball-size-and-degree", |view: &View| {
            Label::from_u64((view.len() as u64) * 100 + view.center_degree() as u64)
        });
        assert_eq!(via_rounds(&algo, &inst), Simulator::new().run(&algo, &inst));
    }

    // --- host-keyed gather: coins and deciders -------------------------

    #[test]
    fn randomized_gather_reproduces_simulator_coin_streams() {
        // Reads every view node's private coins — only reproducible if the
        // gather restores true host indices (the coin-stream keys).
        let algo = FnRandomizedAlgorithm::new(2, "coin-mix", |view: &View, coins: &Coins| {
            let mut acc = view.center_id();
            for i in 0..view.len() {
                let mut rng = coins.for_view_node(view, i);
                acc = acc.wrapping_mul(31).wrapping_add(rng.random::<u64>() & 0xFFFF);
            }
            Label::from_u64(acc)
        });
        for (graph, spread) in [(cycle(18), 7), (grid(4, 4), 1), (binary_tree(15), 3)] {
            let x = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0 % 3)));
            let ids = IdAssignment::spread(&graph, spread);
            let inst = Instance::new(&graph, &x, &ids);
            for trial in 0..4 {
                let seed = SeedSequence::new(41).child(trial);
                let direct = Simulator::new().run_randomized(&algo, &inst, seed);
                let via_rounds = run_randomized_via_rounds(&algo, &inst, seed);
                assert_eq!(direct, via_rounds);
            }
        }
    }

    #[test]
    fn decider_via_rounds_matches_ball_extraction_verdicts() {
        let g = cycle(14);
        let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 3)));
        let ids = IdAssignment::spread(&g, 5);
        let io = IoConfig::new(&g, &x, &y);
        let decider = FnRandomizedDecider::new(1, "noisy-parity", |view: &View, coins: &Coins| {
            let parity = (0..view.len()).map(|i| view.output(i).as_u64()).sum::<u64>() % 2;
            parity == 0 || coins.for_center(view).random_bool(0.5)
        });
        for trial in 0..12 {
            let seed = SeedSequence::new(6).child(trial);
            assert_eq!(
                decide_randomized_via_rounds(&decider, &io, &ids, seed),
                decide_randomized(&decider, &io, &ids, seed)
            );
        }
    }

    // --- fault injection ------------------------------------------------

    #[test]
    fn crashed_nodes_freeze_and_all_crashed_systems_stay_quiet() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = MinIdFlood { rounds: 5 };
        let schedule = FaultPlan::CrashOnStart { probability: 1.0 }
            .schedule(&g, SeedSequence::new(1));
        let mut system = RoundSystem::new(&algo, &inst).with_faults(&schedule);
        // Every node crashed before round 1: quiet immediately, and
        // step_until_quiet terminates without executing a round.
        assert!(system.is_quiet());
        assert_eq!(system.step_until_quiet(), 0);
        // Frozen outputs: each node still reports its init-state output.
        let out = system.outputs();
        for v in g.nodes() {
            assert_eq!(out.get(v).as_u64(), ids.id(v));
        }
    }

    #[test]
    fn partial_crashes_silence_exactly_the_scheduled_ports() {
        // Deterministic single-crash schedule on a path: node 2 crashes at
        // round 1, so the min-id flood never crosses it.
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let x = Labeling::empty(5);
        let ids = IdAssignment::consecutive(&g); // ids 1..=5 in node order
        let inst = Instance::new(&g, &x, &ids);
        let mut schedule = None;
        // Find a seed whose CrashOnStart(p=0.5) schedule crashes exactly
        // node 2 — determinism makes this a stable, reproducible pick.
        for s in 0.. {
            let candidate = FaultPlan::CrashOnStart { probability: 0.5 }
                .schedule(&g, SeedSequence::new(s));
            let crashed: Vec<bool> = (0..5)
                .map(|v| candidate.is_silent(NodeId(v), 1))
                .collect();
            if crashed == [false, false, true, false, false] {
                schedule = Some(candidate);
                break;
            }
        }
        let schedule = schedule.unwrap();
        let algo = MinIdFlood { rounds: 4 };
        let out = RoundSystem::new(&algo, &inst).with_faults(&schedule).run();
        // Nodes 3 and 4 never hear of id 1 across the crashed node 2.
        assert_eq!(out.get(NodeId(0)).as_u64(), 1);
        assert_eq!(out.get(NodeId(1)).as_u64(), 1);
        assert_eq!(out.get(NodeId(3)).as_u64(), 4);
        assert_eq!(out.get(NodeId(4)).as_u64(), 4);
        // The crashed node froze at its init state.
        assert_eq!(out.get(NodeId(2)).as_u64(), 3);
    }

    #[test]
    fn fault_free_schedule_changes_nothing() {
        let g = grid(3, 3);
        let x = Labeling::empty(9);
        let ids = IdAssignment::spread(&g, 2);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(2, "sum", |view: &View| {
            Label::from_u64((0..view.len()).map(|i| view.id(i)).sum())
        });
        let schedule = FaultSchedule::fault_free(9, SeedSequence::new(3));
        let wrapper = GatherRun::new(&algo, Coins::new(SeedSequence::new(8)));
        let faulty = RoundSystem::new(&wrapper, &inst).with_faults(&schedule).run();
        let clean = RoundSystem::new(&wrapper, &inst).run();
        assert_eq!(faulty, clean);
        assert_eq!(clean, Simulator::new().run(&algo, &inst));
    }

    #[test]
    fn byzantine_relabeling_forges_ids_without_breaking_victims() {
        let g = cycle(12);
        let x = Labeling::empty(12);
        let ids = IdAssignment::spread(&g, 5);
        let inst = Instance::new(&g, &x, &ids);
        // Output = max identity seen: forged ids (≥ 2^40) dwarf honest
        // ones, which is how we observe the attack.
        let algo = FnAlgorithm::new(2, "id-max", |view: &View| {
            Label::from_u64((0..view.len()).map(|i| view.id(i)).max().unwrap())
        });
        let schedule = FaultPlan::ByzantineRelabel { probability: 0.4 }
            .schedule(&g, SeedSequence::new(2));
        assert!(g.nodes().any(|v| schedule.is_byzantine(v)));
        let wrapper = GatherRun::new(&algo, Coins::new(SeedSequence::new(0)));
        let attacked = RoundSystem::new(&wrapper, &inst)
            .with_faults(&schedule)
            .run();
        let honest = Simulator::new().run(&algo, &inst);
        assert_ne!(attacked, honest);
        let forged_seen = g
            .nodes()
            .any(|v| attacked.get(v).as_u64() >= (1 << 40));
        assert!(forged_seen, "some victim should have absorbed a forged id");
        // Determinism: the attack replays bit-identically.
        let replay = RoundSystem::new(&wrapper, &inst)
            .with_faults(&schedule)
            .run();
        assert_eq!(attacked, replay);
    }

    #[test]
    fn the_default_forge_is_honest_under_an_all_byzantine_schedule() {
        // MinIdFlood keeps the default forge, so marking every sender
        // Byzantine must change nothing.
        let g = grid(4, 4);
        let x = Labeling::empty(16);
        let ids = IdAssignment::spread(&g, 3);
        let inst = Instance::new(&g, &x, &ids);
        let algo = MinIdFlood { rounds: 3 };
        let schedule =
            FaultPlan::ByzantineRelabel { probability: 1.0 }.schedule(&g, SeedSequence::new(4));
        assert_eq!(schedule.faulty_count(), 16);
        assert_eq!(
            RoundSystem::new(&algo, &inst).with_faults(&schedule).run(),
            RoundSystem::new(&algo, &inst).run()
        );
    }

    /// Steps a gather to quiescence under `schedule` (Byzantine senders
    /// forge) and checks every node's gathered view against the reference
    /// reconstruction.
    fn assert_gathered_views_match_reference<A: RandomizedLocalAlgorithm + ?Sized>(
        gather: &GatherRun<'_, A>,
        instance: &Instance<'_>,
        schedule: &FaultSchedule,
    ) {
        let radius = gather.inner.radius();
        let with_outputs = gather.outputs.is_some();
        let mut system = RoundSystem::new(gather, instance).with_faults(schedule);
        system.step_until_quiet();
        for state in &system.states {
            assert_eq!(
                state.reconstruct_view(radius, with_outputs),
                state.reconstruct_view_reference(radius, with_outputs),
                "node {} at radius {radius}",
                state.own
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Gathered views equal the reference reconstruction on faulty
        /// executions too — crashes, cascades and Byzantine relabeling at
        /// both sweep intensities — for run and decide gathers alike.
        #[test]
        fn faulty_gathered_views_equal_the_reference_reconstruction(
            n in 10usize..24,
            seed in 0u64..1_000_000,
        ) {
            let families =
                [Family::Cycle, Family::Circulant2, Family::Prism, Family::Grid, Family::RandomRegular4];
            for family in families {
                let mut rng = SeedSequence::new(seed).rng();
                let g = family.generate(n, &mut rng);
                let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) % 3));
                let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) % 5));
                let ids = IdAssignment::random_permutation(&g, &mut rng);
                let inst = Instance::new(&g, &x, &ids);
                let coins = Coins::new(SeedSequence::new(seed));
                for radius in 0..=3u32 {
                    let algo = FnRandomizedAlgorithm::new(radius, "empty", |_: &View, _: &Coins| {
                        Label::empty()
                    });
                    let run = GatherRun::new(&algo, coins);
                    let decide = GatherRun::with_outputs(&algo, &y, coins);
                    let mut plans = vec![FaultPlan::None];
                    for kind in 0..FAULT_PLAN_KINDS {
                        plans.extend([0.15, 0.35].map(|p| FaultPlan::from_index(kind, p)));
                    }
                    for (i, plan) in plans.iter().enumerate() {
                        let schedule =
                            plan.schedule(&g, SeedSequence::new(seed).child(u64::from(radius) * 16 + i as u64));
                        assert_gathered_views_match_reference(&run, &inst, &schedule);
                        assert_gathered_views_match_reference(&decide, &inst, &schedule);
                    }
                }
            }
        }
    }
}
