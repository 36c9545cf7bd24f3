//! The radius-`t` view of a node: everything a `t`-round LOCAL algorithm
//! may depend on.
//!
//! Per §2.1 of the paper, a `t`-round algorithm at node `v` can be viewed
//! as a function of the ball `B_G(v, t)` together with the inputs and
//! identities of the nodes in that ball (and, for decision algorithms, the
//! outputs as well). [`View`] materializes exactly that object. The center
//! is always local index `0`.

use crate::config::{Instance, IoConfig};
use crate::labels::{Label, Labeling};
use rlnc_graph::arena::BallArena;
use rlnc_graph::ball::{Ball, BallSignature};
use rlnc_graph::{Graph, IdAssignment, NodeId};

/// The information visible to one node after `t` rounds of communication.
///
/// Identities are a flat per-member array and labels are per-member
/// [`Labeling`]s (local index order), so a decision view is the
/// input-output configuration of its ball ([`View::config`]) without a
/// copy, and the output labels are the contiguous lane verdicts scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// The ball `B_G(v, t)` (local indices; center is local index 0).
    pub ball: Ball,
    /// The center node, as a host-graph index.
    pub center: NodeId,
    /// Radius of the view.
    pub radius: u32,
    ids: Vec<u64>,
    inputs: Labeling,
    outputs: Option<Labeling>,
    /// Degree of the center in the host graph (known even at radius 0: a
    /// node always knows its own port count in the LOCAL model).
    host_degree: usize,
}

/// The labels of `members`, in member order.
fn labels_of(labeling: &Labeling, members: &[NodeId]) -> Labeling {
    Labeling::new(members.iter().map(|&w| *labeling.get(w)).collect())
}

impl View {
    /// Collects the view of node `v` in a construction instance
    /// (graph + inputs + identities; no outputs yet).
    pub fn collect(instance: &Instance<'_>, v: NodeId, radius: u32) -> View {
        let Instance { graph, input, ids } = *instance;
        Self::gather(Ball::extract(graph, v, radius), graph, input, ids, None)
    }

    /// Collects the view of node `v` in an input-output configuration with
    /// identities (what a decision algorithm sees).
    pub fn collect_io(io: &IoConfig<'_>, ids: &IdAssignment, v: NodeId, radius: u32) -> View {
        let ball = Ball::extract(io.graph, v, radius);
        Self::gather(ball, io.graph, io.input, ids, Some(io.output))
    }

    /// Collects the views of **every** node of a construction instance in
    /// one batched pass.
    ///
    /// Ball extraction runs through a single
    /// [`BallArena`] (one shared bounded-BFS
    /// scratch, flat member/distance/offset arrays), so this is the fast
    /// path for Monte-Carlo loops that reuse the same instance across many
    /// trials: collect once, evaluate per trial. The result is
    /// bit-identical to calling [`View::collect`] per node; decision views
    /// follow with one [`View::refresh_outputs`] each.
    pub fn collect_all(instance: &Instance<'_>, radius: u32) -> Vec<View> {
        let Instance { graph, input, ids } = *instance;
        let arena = BallArena::extract_all(graph, radius);
        (0..arena.len())
            .map(|i| Self::gather(arena.ball(i), graph, input, ids, None))
            .collect()
    }

    /// The view over an extracted `ball` of the host graph: the members'
    /// identities and labels, read from the host instance.
    fn gather(
        ball: Ball,
        graph: &Graph,
        input: &Labeling,
        ids: &IdAssignment,
        output: Option<&Labeling>,
    ) -> View {
        let members = &ball.members;
        let center = members[0];
        View {
            ids: members.iter().map(|&w| ids.id(w)).collect(),
            inputs: labels_of(input, members),
            outputs: output.map(|out| labels_of(out, members)),
            host_degree: graph.degree(center),
            center,
            radius: ball.radius,
            ball,
        }
    }

    /// Assembles a view from pre-extracted parts, for planners that
    /// materialize views from their own arenas or gathered messages.
    ///
    /// # Panics
    /// Panics if `ids` or `inputs` (or `outputs`, when present) do not have
    /// exactly one entry per ball member.
    pub fn from_parts(
        ball: Ball,
        center: NodeId,
        radius: u32,
        ids: Vec<u64>,
        inputs: Vec<Label>,
        outputs: Option<Vec<Label>>,
        host_degree: usize,
    ) -> View {
        assert_eq!(ball.len(), ids.len(), "one identity per ball member");
        assert_eq!(ball.len(), inputs.len(), "one input label per ball member");
        if let Some(outs) = &outputs {
            assert_eq!(ball.len(), outs.len(), "one output label per ball member");
        }
        View {
            ball,
            center,
            radius,
            ids,
            inputs: Labeling::new(inputs),
            outputs: outputs.map(Labeling::new),
            host_degree,
        }
    }

    /// Overwrites this view's output labels from a host-graph labeling,
    /// following the ball membership. Turns a cached construction view into
    /// the decision view of `(G, (x, output))` without re-extracting
    /// anything — the per-trial refresh step of the engine's decision
    /// scratch. Allocation-free once the view carries outputs.
    pub fn refresh_outputs(&mut self, output: &Labeling) {
        let members = &self.ball.members;
        match &mut self.outputs {
            Some(outs) => {
                for (slot, &w) in outs.as_mut_slice().iter_mut().zip(members) {
                    *slot = *output.get(w);
                }
            }
            None => self.outputs = Some(labels_of(output, members)),
        }
    }

    /// Rewrites every identity so that the node of rank `i` gets
    /// `sorted[i]`. Ranks, and with them the view's order type and
    /// signature, are unchanged: the re-labeling step of the Claim-1
    /// refinement, which evaluates one cached view per ball template under
    /// many sampled identity sets. Allocation-free after the first call
    /// on a view.
    ///
    /// # Panics
    /// Panics unless `sorted` holds one identity per member in strictly
    /// increasing order.
    pub fn assign_ids_by_rank(&mut self, sorted: &[u64]) {
        let n = self.ids.len();
        assert_eq!(sorted.len(), n, "one identity per view member");
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "identities must strictly increase"
        );
        // Each rank reads the old identities, so the ranks are parked
        // behind them before any is overwritten; the buffer keeps that
        // capacity for the next call.
        for i in 0..n {
            let rank = self.ids[..n].iter().filter(|&&x| x < self.ids[i]).count();
            self.ids.push(rank as u64);
        }
        for i in 0..n {
            self.ids[i] = sorted[self.ids[n + i] as usize];
        }
        self.ids.truncate(n);
    }

    /// Number of nodes visible in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.ball.len()
    }

    /// Returns `true` if the view is empty (never happens for valid views).
    pub fn is_empty(&self) -> bool {
        self.ball.is_empty()
    }

    /// The ball's own graph (local indices).
    #[inline]
    pub fn local_graph(&self) -> &Graph {
        &self.ball.graph
    }

    /// Local index of the center (always 0).
    #[inline]
    pub fn center_local(&self) -> usize {
        0
    }

    /// Host-graph node behind local index `i`.
    #[inline]
    pub fn host_node(&self, i: usize) -> NodeId {
        self.ball.host_node(i)
    }

    /// Identity of local node `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Identity of the center.
    #[inline]
    pub fn center_id(&self) -> u64 {
        self.ids[0]
    }

    /// Input label of local node `i`.
    #[inline]
    pub fn input(&self, i: usize) -> &Label {
        &self.inputs.as_slice()[i]
    }

    /// Output label of local node `i`.
    ///
    /// # Panics
    /// Panics if the view was collected without outputs (a construction
    /// view rather than a decision view).
    #[inline]
    pub fn output(&self, i: usize) -> &Label {
        let outputs = self.outputs.as_ref().expect("view has no outputs");
        &outputs.as_slice()[i]
    }

    /// Returns `true` if the view carries output labels.
    #[inline]
    pub fn has_outputs(&self) -> bool {
        self.outputs.is_some()
    }

    /// Distance of local node `i` from the center.
    #[inline]
    pub fn distance(&self, i: usize) -> u32 {
        self.ball.distance(i)
    }

    /// Degree of the center *in the host graph*. For radius ≥ 1 this equals
    /// the center's degree inside the ball; for radius 0 it is the port
    /// count the LOCAL model still exposes to the node.
    #[inline]
    pub fn center_degree(&self) -> usize {
        self.host_degree
    }

    /// The local indices of the center's neighbors inside the view (none
    /// for radius-0 views), without allocating.
    #[inline]
    pub fn center_neighbors(&self) -> impl Iterator<Item = usize> + '_ {
        self.local_graph()
            .neighbor_ids(NodeId(0))
            .map(|w| w.index())
    }

    /// The view's ball as an input-output configuration: its local graph
    /// with the members' input and output labels, borrowed without a copy.
    /// The center is local node 0, so a radius-`t` predicate evaluated
    /// there on a view of radius at least `t` reads exactly what it reads
    /// at the center of the host configuration.
    ///
    /// # Panics
    /// Panics if the view carries no outputs (a construction view).
    #[inline]
    pub fn config(&self) -> IoConfig<'_> {
        IoConfig {
            graph: self.local_graph(),
            input: &self.inputs,
            output: self.outputs.as_ref().expect("view has no outputs"),
        }
    }

    /// Rank (0-based) of the center's identity among all identities in the
    /// view — the only identity information an order-invariant algorithm
    /// may use about the center.
    pub fn center_rank(&self) -> usize {
        let my = self.ids[0];
        self.ids.iter().filter(|&&x| x < my).count()
    }

    /// Rank of local node `i`'s identity within the view.
    pub fn rank(&self, i: usize) -> usize {
        let my = self.ids[i];
        self.ids.iter().filter(|&&x| x < my).count()
    }

    /// Canonical signature of the view: structure, distances, identity
    /// order type, and input labels (plus outputs when present). The
    /// center's host degree is not part of it: at radius ≥ 1 the ball's
    /// structure fixes it, but at radius 0 two views with equal signatures
    /// can differ in [`View::center_degree`]. Otherwise, two views with
    /// equal signatures are indistinguishable to any order-invariant
    /// algorithm.
    pub fn signature(&self) -> BallSignature {
        let order: Vec<u32> = (0..self.len()).map(|i| self.rank(i) as u32).collect();
        let mut edges: Vec<(u32, u32)> = self
            .local_graph()
            .edges()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        edges.sort_unstable();
        let inputs = self.inputs.as_slice();
        let outputs = self.outputs.as_ref().map(Labeling::as_slice);
        let payloads = (0..self.len())
            .map(|i| {
                let mut p = Vec::new();
                p.push(inputs[i].len() as u8);
                p.extend_from_slice(inputs[i].as_bytes());
                if let Some(outs) = outputs {
                    p.push(outs[i].len() as u8);
                    p.extend_from_slice(outs[i].as_bytes());
                }
                p
            })
            .collect();
        BallSignature {
            radius: self.radius,
            distances: (0..self.len()).map(|i| self.distance(i)).collect(),
            edges,
            id_order: order,
            payloads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, Labeling};
    use rlnc_graph::generators::{cycle, path, star};
    use rlnc_graph::IdAssignment;

    fn setup(n: usize) -> (Graph, Labeling, IdAssignment) {
        let g = cycle(n);
        let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) % 2));
        let ids = IdAssignment::consecutive(&g);
        (g, x, ids)
    }

    #[test]
    fn view_center_is_local_zero() {
        let (g, x, ids) = setup(8);
        let inst = Instance::new(&g, &x, &ids);
        let view = View::collect(&inst, NodeId(5), 2);
        assert_eq!(view.center_local(), 0);
        assert_eq!(view.host_node(0), NodeId(5));
        assert_eq!(view.center_id(), 6);
        assert_eq!(view.len(), 5);
        assert!(!view.has_outputs());
    }

    #[test]
    fn view_exposes_inputs_and_ranks() {
        let (g, x, ids) = setup(8);
        let inst = Instance::new(&g, &x, &ids);
        let view = View::collect(&inst, NodeId(3), 1);
        assert_eq!(view.input(0).as_u64(), 1);
        // Center id 4; neighbors ids 3 and 5 -> rank 1.
        assert_eq!(view.center_rank(), 1);
        assert_eq!(view.center_degree(), 2);
        assert_eq!(view.center_neighbors().count(), 2);
    }

    #[test]
    fn radius_zero_view_knows_degree() {
        let g = star(6);
        let x = Labeling::empty(6);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let view = View::collect(&inst, NodeId(0), 0);
        assert_eq!(view.len(), 1);
        assert_eq!(view.center_degree(), 5);
        assert_eq!(view.center_neighbors().next(), None);
    }

    #[test]
    fn io_view_exposes_outputs() {
        let (g, x, ids) = setup(6);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0)));
        let io = IoConfig::new(&g, &x, &y);
        let view = View::collect_io(&io, &ids, NodeId(2), 1);
        assert!(view.has_outputs());
        assert_eq!(view.output(0).as_u64(), 2);
        let neighbor_outputs: Vec<u64> = view
            .center_neighbors()
            .map(|i| view.output(i).as_u64())
            .collect();
        assert!(neighbor_outputs.contains(&1) && neighbor_outputs.contains(&3));
    }

    #[test]
    #[should_panic(expected = "no outputs")]
    fn construction_view_has_no_outputs() {
        let (g, x, ids) = setup(5);
        let inst = Instance::new(&g, &x, &ids);
        let view = View::collect(&inst, NodeId(0), 1);
        let _ = view.output(0);
    }

    #[test]
    fn config_is_the_ball_restricted_configuration() {
        let (g, x, ids) = setup(10);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) + 20));
        let io = IoConfig::new(&g, &x, &y);
        let view = View::collect_io(&io, &ids, NodeId(4), 2);
        let config = view.config();
        assert!(std::ptr::eq(config.graph, view.local_graph()));
        assert_eq!(config.node_count(), 5);
        assert_eq!(view.host_node(0), NodeId(4), "the center is local node 0");
        for i in 0..view.len() {
            let (local, host) = (NodeId::from_index(i), view.host_node(i));
            assert_eq!(config.input.get(local), x.get(host));
            assert_eq!(config.output.get(local), y.get(host));
        }
    }

    #[test]
    #[should_panic(expected = "no outputs")]
    fn construction_view_has_no_config() {
        let (g, x, ids) = setup(5);
        let view = View::collect(&Instance::new(&g, &x, &ids), NodeId(0), 1);
        let _ = view.config();
    }

    #[test]
    fn batched_collection_matches_per_node_collection() {
        let (g, x, ids) = setup(12);
        let inst = Instance::new(&g, &x, &ids);
        for radius in [0u32, 1, 2, 4] {
            let batched = View::collect_all(&inst, radius);
            assert_eq!(batched.len(), 12);
            for v in g.nodes() {
                let reference = View::collect(&inst, v, radius);
                let ours = &batched[v.index()];
                assert_eq!(ours.ball, reference.ball);
                assert_eq!(ours.ids, reference.ids);
                assert_eq!(ours.inputs, reference.inputs);
                assert_eq!(ours.center, reference.center);
                assert_eq!(ours.center_degree(), reference.center_degree());
                assert_eq!(ours.signature(), reference.signature());
            }
        }
    }

    #[test]
    fn refresh_outputs_turns_construction_views_into_decision_views() {
        let (g, x, ids) = setup(8);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) + 10));
        let io = IoConfig::new(&g, &x, &y);
        let inst = Instance::new(&g, &x, &ids);
        let mut views = View::collect_all(&inst, 1);
        for view in &mut views {
            assert!(!view.has_outputs());
            view.refresh_outputs(&y);
        }
        for v in g.nodes() {
            let reference = View::collect_io(&io, &ids, v, 1);
            assert_eq!(views[v.index()].outputs, reference.outputs);
        }
        // Refreshing again with different outputs overwrites in place.
        let z = Labeling::from_fn(&g, |_| Label::from_u64(7));
        views[0].refresh_outputs(&z);
        assert_eq!(views[0].output(0).as_u64(), 7);
    }

    #[test]
    fn from_parts_reassembles_a_collected_view() {
        let (g, x, ids) = setup(9);
        let inst = Instance::new(&g, &x, &ids);
        let reference = View::collect(&inst, NodeId(4), 2);
        let rebuilt = View::from_parts(
            reference.ball.clone(),
            reference.center,
            reference.radius,
            reference.ids.clone(),
            reference.inputs.as_slice().to_vec(),
            None,
            reference.center_degree(),
        );
        assert_eq!(rebuilt.signature(), reference.signature());
        assert_eq!(rebuilt.center_id(), reference.center_id());
    }

    #[test]
    #[should_panic(expected = "one identity per ball member")]
    fn from_parts_rejects_mismatched_ids() {
        let (g, x, ids) = setup(5);
        let inst = Instance::new(&g, &x, &ids);
        let reference = View::collect(&inst, NodeId(0), 1);
        let _ = View::from_parts(
            reference.ball.clone(),
            reference.center,
            1,
            vec![1],
            reference.inputs.as_slice().to_vec(),
            None,
            2,
        );
    }

    #[test]
    fn assign_ids_by_rank_relabels_in_rank_order() {
        let g = cycle(9);
        let x = Labeling::empty(9);
        let ids = IdAssignment::new(vec![50, 10, 40, 90, 20, 70, 30, 80, 60]);
        let inst = Instance::new(&g, &x, &ids);
        let mut view = View::collect(&inst, NodeId(4), 2);
        let signature = view.signature();
        let ranks: Vec<usize> = (0..view.len()).map(|i| view.rank(i)).collect();
        let mut capacity = None;
        for sorted in [[3, 5, 8, 13, 21], [1, 2, 4, 100, 101]] {
            view.assign_ids_by_rank(&sorted);
            for (i, &rank) in ranks.iter().enumerate() {
                assert_eq!(view.id(i), sorted[rank]);
            }
            assert_eq!(view.signature(), signature, "the order type is preserved");
            let now = view.ids.capacity();
            assert_eq!(
                *capacity.get_or_insert(now),
                now,
                "later calls reuse the buffer"
            );
        }
        // Equal to collecting the view under the relabeled identities.
        let relabeled: Vec<u64> = (0..9)
            .map(|v| {
                view.ball
                    .local_index(NodeId(v))
                    .map_or(1000 + u64::from(v), |i| view.id(i))
            })
            .collect();
        let relabeled = IdAssignment::new(relabeled);
        assert_eq!(
            view,
            View::collect(&Instance::new(&g, &x, &relabeled), NodeId(4), 2)
        );
    }

    #[test]
    #[should_panic(expected = "one identity per view member")]
    fn assign_ids_by_rank_rejects_a_wrong_length() {
        let (g, x, ids) = setup(8);
        let mut view = View::collect(&Instance::new(&g, &x, &ids), NodeId(2), 1);
        view.assign_ids_by_rank(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "identities must strictly increase")]
    fn assign_ids_by_rank_rejects_a_non_increasing_slice() {
        let (g, x, ids) = setup(8);
        let mut view = View::collect(&Instance::new(&g, &x, &ids), NodeId(2), 1);
        view.assign_ids_by_rank(&[1, 3, 3]);
    }

    #[test]
    fn signatures_capture_order_not_values() {
        let (g, x, _) = setup(10);
        let ids_a = IdAssignment::consecutive(&g);
        let ids_b = IdAssignment::spread(&g, 77);
        let inst_a = Instance::new(&g, &x, &ids_a);
        let inst_b = Instance::new(&g, &x, &ids_b);
        let sig_a = View::collect(&inst_a, NodeId(4), 2).signature();
        let sig_b = View::collect(&inst_b, NodeId(4), 2).signature();
        assert_eq!(sig_a, sig_b);
        // Different inputs change the signature.
        let x2 = Labeling::empty(10);
        let inst_c = Instance::new(&g, &x2, &ids_a);
        let sig_c = View::collect(&inst_c, NodeId(4), 2).signature();
        assert_ne!(sig_a, sig_c);
    }

    #[test]
    fn signatures_ignore_identity_values_but_not_order() {
        let (g, x, ids) = setup(10);
        let signatures = |ids: &IdAssignment| -> Vec<BallSignature> {
            let views = View::collect_all(&Instance::new(&g, &x, ids), 2);
            views.iter().map(View::signature).collect()
        };
        let reference = signatures(&ids);
        // Shifted and monotone-mapped identities keep every view's order
        // type, so no signature moves.
        for same_order in [ids.shifted(500), ids.map_monotone(|id| id * id + 7)] {
            assert_eq!(signatures(&same_order), reference);
        }
        // Reversed identities reverse every view's ranks.
        let n = g.node_count() as u64;
        let reversed = IdAssignment::new((0..n).map(|i| n - i).collect());
        let flipped = signatures(&reversed);
        assert!(flipped.iter().zip(&reference).all(|(a, b)| a != b));
    }

    #[test]
    fn signatures_include_payloads() {
        // One input payload per ball member, and only theirs: an input
        // outside the ball leaves the signature unchanged.
        let g = path(5);
        let ids = IdAssignment::consecutive(&g);
        let signature = |x: &Labeling| {
            View::collect(&Instance::new(&g, x, &ids), NodeId(2), 1).signature()
        };
        let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0)));
        let reference = signature(&x);
        assert_eq!(reference.len(), 3);
        let mut inside = x.clone();
        inside.set(NodeId(3), Label::from_u64(9));
        assert_ne!(signature(&inside), reference);
        let mut outside = x.clone();
        outside.set(NodeId(0), Label::from_u64(9));
        assert_eq!(signature(&outside), reference);
    }

    #[test]
    fn cycle_balls_with_same_id_order_share_signature() {
        // On the consecutive-ID cycle, all interior balls (away from the
        // 1/n seam) have the same order type — the §4 argument.
        let g = cycle(20);
        let x = Labeling::empty(20);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let signature = |v: u32| View::collect(&inst, NodeId(v), 2).signature();
        assert_eq!(signature(5), signature(10));
        assert_ne!(
            signature(5),
            signature(0),
            "the seam ball has a different order type"
        );
    }
}
