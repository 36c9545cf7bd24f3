//! The Appendix-A reduction to order-invariant algorithms (Claim 1).
//!
//! Appendix A proves that any `t`-round deterministic construction
//! algorithm `A` (under the promise `F_k`) can be replaced by an
//! order-invariant algorithm `A'`: using Ramsey's theorem, one finds an
//! infinite identity set `U` such that, for every ordered labeled ball
//! type, the output of `A` at the center is the same for *every* assignment
//! of identities from `U` that respects the ball's order. `A'` then
//! relabels each ball canonically with the smallest values of `U` and runs
//! `A`.
//!
//! This module implements a finite, testable version of both halves:
//!
//! * [`consistent_id_set`] performs the Ramsey-style refinement over a
//!   *finite* identity universe: it repeatedly samples order-respecting
//!   assignments from the current candidate set, and greedily removes
//!   identities that participate in disagreements, until the sampled
//!   assignments all give the same output for every supplied ball type (or
//!   the set becomes too small). For finite `t`, `k`, and graph families
//!   this is exactly the construction's computational content.
//! * [`OrderInvariantLift`] is `A'`: it relabels the view's ball with the
//!   smallest identities of the chosen set (respecting the original order)
//!   and runs `A`. The lift is order-invariant *by construction*; the
//!   consistency of the ID set is what makes it agree with `A` on instances
//!   whose identities come from the set.

use crate::algorithm::LocalAlgorithm;
use crate::config::Instance;
use crate::labels::{Label, Labeling};
use crate::view::View;
use rand::seq::IndexedRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlnc_graph::{IdAssignment, NodeId};

/// A concrete ordered labeled ball on which consistency is enforced: a host
/// graph position together with the data needed to re-run the algorithm
/// under re-assigned identities.
#[derive(Debug, Clone)]
pub struct BallTemplate {
    /// The ball's own graph (local indices, center = node 0).
    pub graph: rlnc_graph::Graph,
    /// Input labels of the ball's nodes (local indices).
    pub inputs: Labeling,
    /// The rank each local node's identity must receive (the ball's order
    /// type σ), i.e. `order[i]` is the position of node `i`'s identity in
    /// increasing order.
    pub order: Vec<usize>,
}

impl BallTemplate {
    /// Extracts the template of the radius-`t` ball of `v` in an instance.
    pub fn from_instance(instance: &Instance<'_>, v: NodeId, radius: u32) -> Self {
        let view = View::collect(instance, v, radius);
        BallTemplate::from_view(&view)
    }

    /// Extracts the template underlying a view.
    pub fn from_view(view: &View) -> Self {
        BallTemplate {
            graph: view.local_graph().clone(),
            inputs: Labeling::new((0..view.len()).map(|i| *view.input(i)).collect()),
            order: (0..view.len()).map(|i| view.rank(i)).collect(),
        }
    }

    /// Number of nodes in the ball (the `r` of the Ramsey argument).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` for the empty template (never produced by extraction).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Runs `algo` at the center of this ball with the identities drawn
    /// from `chosen` (which must be sorted increasing and have length
    /// `self.len()`), assigned according to the ball's order type.
    pub fn evaluate<A: LocalAlgorithm + ?Sized>(&self, algo: &A, chosen: &[u64]) -> Label {
        assert_eq!(chosen.len(), self.len());
        debug_assert!(chosen.windows(2).all(|w| w[0] < w[1]));
        let ids: Vec<u64> = self.order.iter().map(|&rank| chosen[rank]).collect();
        let ids = IdAssignment::new(ids);
        let instance = Instance::new(&self.graph, &self.inputs, &ids);
        let view = View::collect(&instance, NodeId(0), algo.radius());
        algo.output(&view)
    }
}

/// Collects the ball templates of every node of every instance, deduplicated
/// by view signature so each ordered labeled ball type appears once.
pub fn collect_templates(instances: &[Instance<'_>], radius: u32) -> Vec<BallTemplate> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for instance in instances {
        for v in instance.graph.nodes() {
            let view = View::collect(instance, v, radius);
            if seen.insert(view.signature()) {
                out.push(BallTemplate::from_view(&view));
            }
        }
    }
    out
}

/// Finds a subset of `universe` on which `algo` is *consistent* for every
/// supplied ball template: sampled order-respecting identity assignments
/// from the subset all produce the same center output.
///
/// Returns the refined (sorted) identity set. The refinement samples
/// `samples_per_round` assignments per template per round and removes the
/// highest-frequency offender on disagreement, stopping when every template
/// is consistent across its samples or when the set reaches the minimum
/// usable size (the largest template).
pub fn consistent_id_set<A: LocalAlgorithm + ?Sized>(
    algo: &A,
    templates: &[BallTemplate],
    universe: &[u64],
    samples_per_round: usize,
    seed: u64,
) -> Vec<u64> {
    let mut ids: Vec<u64> = universe.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let max_ball = templates.iter().map(BallTemplate::len).max().unwrap_or(0);
    assert!(
        ids.len() >= max_ball,
        "identity universe smaller than the largest ball"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    loop {
        let mut disagreement: Option<Vec<u64>> = None;
        'templates: for template in templates {
            let r = template.len();
            if r == 0 {
                continue;
            }
            // Reference output: the r smallest identities of the current set.
            let reference = template.evaluate(algo, &ids[..r]);
            for _ in 0..samples_per_round {
                let mut subset: Vec<u64> = ids
                    .choose_multiple(&mut rng, r)
                    .copied()
                    .collect();
                subset.sort_unstable();
                if template.evaluate(algo, &subset) != reference {
                    disagreement = Some(subset);
                    break 'templates;
                }
            }
        }
        match disagreement {
            None => return ids,
            Some(subset) => {
                if ids.len() <= max_ball {
                    // Cannot refine further; return the minimal consistent-by-
                    // construction set (a single assignment per ball type).
                    return ids;
                }
                // Remove the largest identity of the offending assignment —
                // a simple, deterministic-ish refinement step that always
                // terminates and, for identity-threshold/parity algorithms,
                // converges to a consistent residue class.
                let victim = *subset.last().unwrap();
                ids.retain(|&x| x != victim);
            }
        }
    }
}

/// The Appendix-A algorithm `A'`: relabel each view's ball with the
/// smallest identities of a fixed set `U` (respecting the original relative
/// order) and run the wrapped algorithm on the relabeled ball.
pub struct OrderInvariantLift<'a, A: ?Sized> {
    inner: &'a A,
    id_set: Vec<u64>,
}

impl<'a, A: LocalAlgorithm + ?Sized> OrderInvariantLift<'a, A> {
    /// Builds the lift from a (sorted) identity set. The set must be at
    /// least as large as any ball the algorithm will ever see.
    pub fn new(inner: &'a A, mut id_set: Vec<u64>) -> Self {
        id_set.sort_unstable();
        id_set.dedup();
        assert!(!id_set.is_empty(), "identity set must be non-empty");
        OrderInvariantLift { inner, id_set }
    }

    /// The identity set backing the lift.
    pub fn id_set(&self) -> &[u64] {
        &self.id_set
    }
}

impl<'a, A: LocalAlgorithm + ?Sized> LocalAlgorithm for OrderInvariantLift<'a, A> {
    fn radius(&self) -> u32 {
        self.inner.radius()
    }

    fn output(&self, view: &View) -> Label {
        let template = BallTemplate::from_view(view);
        let r = template.len();
        assert!(
            r <= self.id_set.len(),
            "identity set of size {} cannot relabel a ball of {} nodes",
            self.id_set.len(),
            r
        );
        template.evaluate(self.inner, &self.id_set[..r])
    }

    fn name(&self) -> String {
        format!("order-invariant-lift({})", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnAlgorithm;
    use crate::order_invariant::{check_order_invariance, standard_monotone_maps};
    use crate::simulator::Simulator;
    use rlnc_graph::generators::cycle;

    fn cycle_instance(n: usize) -> (rlnc_graph::Graph, Labeling, IdAssignment) {
        let g = cycle(n);
        let x = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&g);
        (g, x, ids)
    }

    #[test]
    fn ball_template_round_trip() {
        let (g, x, ids) = cycle_instance(10);
        let inst = Instance::new(&g, &x, &ids);
        let template = BallTemplate::from_instance(&inst, NodeId(4), 1);
        assert_eq!(template.len(), 3);
        // Evaluating the identity-reading algorithm with chosen ids returns
        // the id assigned to the center (rank 1 of {3,4,5} order → middle).
        let algo = FnAlgorithm::new(1, "own-id", |v: &View| Label::from_u64(v.center_id()));
        let out = template.evaluate(&algo, &[100, 200, 300]);
        assert_eq!(out.as_u64(), 200);
    }

    #[test]
    fn lift_is_order_invariant_even_for_id_dependent_algorithms() {
        let (g, x, ids) = cycle_instance(12);
        // "Output own id mod 3" is not order-invariant...
        let raw = FnAlgorithm::new(1, "id-mod-3", |v: &View| Label::from_u64(v.center_id() % 3));
        let maps = standard_monotone_maps();
        let map_refs: Vec<&dyn Fn(u64) -> u64> =
            maps.iter().map(|m| m.as_ref() as &dyn Fn(u64) -> u64).collect();
        assert!(!check_order_invariance(&raw, &g, &x, &ids, &map_refs));
        // ...but its lift is.
        let lift = OrderInvariantLift::new(&raw, (1..=16).collect());
        assert!(check_order_invariance(&lift, &g, &x, &ids, &map_refs));
        assert!(lift.name().contains("lift"));
        assert_eq!(lift.radius(), 1);
    }

    #[test]
    fn lift_agrees_with_inner_algorithm_on_order_invariant_inner() {
        // For an already order-invariant algorithm, the lift computes the
        // same outputs on every instance (the relabeling is invisible).
        let (g, x, ids) = cycle_instance(14);
        let inst = Instance::new(&g, &x, &ids);
        let inner = FnAlgorithm::new(1, "rank", |v: &View| Label::from_u64(v.center_rank() as u64));
        let lift = OrderInvariantLift::new(&inner, (100..200).collect());
        let sim = Simulator::new();
        assert_eq!(sim.run(&inner, &inst), sim.run(&lift, &inst));
    }

    #[test]
    fn consistent_id_set_for_parity_algorithm_settles_on_one_parity() {
        // Radius-0 algorithm "output own id parity": consistency over a ball
        // type forces the refined set into a single residue class mod 2.
        let (g, x, ids) = cycle_instance(8);
        let inst = Instance::new(&g, &x, &ids);
        let templates = collect_templates(&[inst], 0);
        assert_eq!(templates.len(), 1);
        let algo = FnAlgorithm::new(0, "id-parity", |v: &View| Label::from_u64(v.center_id() % 2));
        let universe: Vec<u64> = (1..=60).collect();
        let refined = consistent_id_set(&algo, &templates, &universe, 400, 7);
        assert!(!refined.is_empty());
        let parities: std::collections::HashSet<u64> = refined.iter().map(|x| x % 2).collect();
        assert_eq!(parities.len(), 1, "refined set {refined:?} must be single-parity");
    }

    #[test]
    fn consistent_id_set_is_a_no_op_for_order_invariant_algorithms() {
        let (g, x, ids) = cycle_instance(10);
        let inst = Instance::new(&g, &x, &ids);
        let templates = collect_templates(&[inst], 1);
        let algo = FnAlgorithm::new(1, "rank", |v: &View| Label::from_u64(v.center_rank() as u64));
        let universe: Vec<u64> = (1..=40).collect();
        let refined = consistent_id_set(&algo, &templates, &universe, 30, 3);
        assert_eq!(refined.len(), 40, "no identities should be removed");
    }

    #[test]
    fn lift_with_consistent_set_reproduces_inner_outputs_on_in_set_instances() {
        // Build an instance whose identities all lie in the refined set and
        // have the right parity; then A and A' agree (the Appendix-A
        // correctness argument, finitely).
        let algo = FnAlgorithm::new(0, "id-parity", |v: &View| Label::from_u64(v.center_id() % 2));
        let g = cycle(6);
        let x = Labeling::empty(6);
        let inst_templates = {
            let ids = IdAssignment::consecutive(&g);
            let inst = Instance::new(&g, &x, &ids);
            collect_templates(&[inst], 0)
        };
        let universe: Vec<u64> = (1..=60).collect();
        let refined = consistent_id_set(&algo, &inst_templates, &universe, 400, 11);
        let parity = refined[0] % 2;
        // Instance using only identities from the refined parity class.
        let in_set_ids = IdAssignment::new(
            (0..6).map(|i| refined.get(i).copied().unwrap_or(2 * i as u64 + 2 + parity)).collect(),
        );
        let inst = Instance::new(&g, &x, &in_set_ids);
        let lift = OrderInvariantLift::new(&algo, refined.clone());
        let sim = Simulator::new();
        assert_eq!(sim.run(&algo, &inst), sim.run(&lift, &inst));
    }
}
