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
//!   this is exactly the construction's computational content. Each
//!   template's evaluation view is built once: a template's order type
//!   fixes every rank, so a sample only re-labels the view
//!   ([`View::assign_ids_by_rank`]) before the algorithm runs on it.
//!   Templates record the center's host degree, which the ball graph
//!   loses at radius 0, so radius-0 views keep their port count and
//!   balls that differ only in it stay separate ball types.
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
use rlnc_graph::{Ball, NodeId};

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
    /// Degree of the center in the host graph: the port count a view
    /// exposes at every radius, which the ball graph alone loses at
    /// radius 0.
    pub center_degree: usize,
}

impl BallTemplate {
    /// Extracts the template underlying a view.
    pub fn from_view(view: &View) -> Self {
        BallTemplate {
            graph: view.local_graph().clone(),
            inputs: Labeling::new((0..view.len()).map(|i| *view.input(i)).collect()),
            order: (0..view.len()).map(|i| view.rank(i)).collect(),
            center_degree: view.center_degree(),
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
        algo.output(&self.view(algo.radius(), chosen))
    }

    /// The radius-`radius` view of the center when node `i` carries
    /// `chosen[order[i]]`, with the center's host degree — the view behind
    /// [`BallTemplate::evaluate`] and the refinement's cached views.
    fn view(&self, radius: u32, chosen: &[u64]) -> View {
        let ball = Ball::extract(&self.graph, NodeId(0), radius);
        let ids = ball
            .members
            .iter()
            .map(|&w| chosen[self.order[w.index()]])
            .collect();
        let inputs = ball.members.iter().map(|&w| *self.inputs.get(w)).collect();
        View::from_parts(
            ball,
            NodeId(0),
            radius,
            ids,
            inputs,
            None,
            self.center_degree,
        )
    }
}

/// Collects the ball templates of every node of every instance, deduplicated
/// by view signature and center degree (which the signature omits at radius
/// 0) so each ordered labeled ball type appears once.
pub fn collect_templates(instances: &[Instance<'_>], radius: u32) -> Vec<BallTemplate> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for instance in instances {
        for v in instance.graph.nodes() {
            let view = View::collect(instance, v, radius);
            if seen.insert((view.signature(), view.center_degree())) {
                out.push(BallTemplate::from_view(&view));
            }
        }
    }
    out
}

/// A template's evaluation view, built once and re-labeled per sample.
struct CachedEvaluation {
    /// Number of nodes in the template: the size of every sample.
    template_len: usize,
    /// The view [`BallTemplate::evaluate`] would build.
    view: View,
    /// The template ranks of the view's members, sorted: `0..r` unless the
    /// algorithm sees less of the ball than the template holds.
    ranks: Vec<usize>,
    /// The identities the view's members receive, in rank order.
    picked: Vec<u64>,
}

impl CachedEvaluation {
    fn new(template: &BallTemplate, radius: u32, chosen: &[u64]) -> Self {
        let view = template.view(radius, chosen);
        let mut ranks: Vec<usize> = (0..view.len())
            .map(|i| template.order[view.host_node(i).index()])
            .collect();
        ranks.sort_unstable();
        let picked = Vec::with_capacity(ranks.len());
        CachedEvaluation {
            template_len: template.len(),
            view,
            ranks,
            picked,
        }
    }

    /// `template.evaluate(algo, chosen)` on the cached view: the order type
    /// fixes every rank, so only the identities change.
    fn evaluate<A: LocalAlgorithm + ?Sized>(&mut self, algo: &A, chosen: &[u64]) -> Label {
        self.picked.clear();
        self.picked
            .extend(self.ranks.iter().map(|&rank| chosen[rank]));
        self.view.assign_ids_by_rank(&self.picked);
        algo.output(&self.view)
    }
}

/// Finds a subset of `universe` on which `algo` is *consistent* for every
/// supplied ball template: sampled order-respecting identity assignments
/// from the subset all produce the same center output.
///
/// Returns the refined (sorted) identity set. The refinement samples
/// `samples_per_round` assignments per template per round and removes the
/// highest-frequency offender on disagreement, stopping when every template
/// is consistent across its samples or when the set reaches the minimum
/// usable size (the largest template). Each template's evaluation view is
/// built once; a sample only re-labels it.
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
    let mut cached: Vec<CachedEvaluation> = templates
        .iter()
        .filter(|template| !template.is_empty())
        .map(|template| CachedEvaluation::new(template, algo.radius(), &ids[..template.len()]))
        .collect();
    let mut subset: Vec<u64> = Vec::with_capacity(max_ball);

    loop {
        let mut victim: Option<u64> = None;
        'templates: for evaluation in &mut cached {
            let r = evaluation.template_len;
            // Reference output: the r smallest identities of the current set.
            let reference = evaluation.evaluate(algo, &ids[..r]);
            for _ in 0..samples_per_round {
                subset.clear();
                subset.extend(ids.choose_multiple(&mut rng, r).copied());
                subset.sort_unstable();
                if evaluation.evaluate(algo, &subset) != reference {
                    victim = subset.last().copied();
                    break 'templates;
                }
            }
        }
        match victim {
            None => return ids,
            Some(victim) => {
                if ids.len() <= max_ball {
                    // Cannot refine further; return the minimal consistent-by-
                    // construction set (a single assignment per ball type).
                    return ids;
                }
                // Remove the largest identity of the offending assignment —
                // a simple, deterministic-ish refinement step that always
                // terminates and, for identity-threshold/parity algorithms,
                // converges to a consistent residue class.
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
    use rand::rngs::SmallRng;
    use rlnc_graph::generators::{circulant, cycle, prism, star};
    use rlnc_graph::IdAssignment;

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
        let template = BallTemplate::from_view(&View::collect(&inst, NodeId(4), 1));
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

    #[test]
    fn lift_keeps_the_center_degree_at_radius_zero() {
        // Reads no identity, so the lift must agree with it; at radius 0
        // only the recorded degree can tell the lift the port count.
        let (g, x, ids) = cycle_instance(8);
        let inst = Instance::new(&g, &x, &ids);
        let own_degree = FnAlgorithm::new(0, "own-degree", |v: &View| {
            Label::from_u64(v.center_degree() as u64)
        });
        let lift = OrderInvariantLift::new(&own_degree, (1..=8).collect());
        let sim = Simulator::new();
        let direct = sim.run(&own_degree, &inst);
        assert!(g.nodes().all(|v| direct.get(v).as_u64() == 2));
        assert_eq!(sim.run(&lift, &inst), direct);
    }

    #[test]
    fn radius_zero_templates_tell_center_degrees_apart() {
        // Every radius-0 ball of a star has the same signature; the center
        // (degree 5) and the leaves (degree 1) are still two ball types.
        let g = star(6);
        let x = Labeling::empty(6);
        let ids = IdAssignment::consecutive(&g);
        let templates = collect_templates(&[Instance::new(&g, &x, &ids)], 0);
        let mut degrees: Vec<usize> = templates.iter().map(|t| t.center_degree).collect();
        degrees.sort_unstable();
        assert_eq!(degrees, [1, 5]);
    }

    /// The refinement loop with a fresh view per evaluation
    /// ([`BallTemplate::evaluate`]): the reference the cached views are
    /// pinned against.
    fn consistent_id_set_reference<A: LocalAlgorithm + ?Sized>(
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
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        loop {
            let mut disagreement: Option<Vec<u64>> = None;
            'templates: for template in templates {
                let r = template.len();
                if r == 0 {
                    continue;
                }
                let reference = template.evaluate(algo, &ids[..r]);
                for _ in 0..samples_per_round {
                    let mut subset: Vec<u64> = ids.choose_multiple(&mut rng, r).copied().collect();
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
                        return ids;
                    }
                    let victim = *subset.last().unwrap();
                    ids.retain(|&x| x != victim);
                }
            }
        }
    }

    /// Algorithms that make the refinement remove identities (parity,
    /// residue, threshold, and one reading every member's identity) and
    /// ones that do not (rank, constant).
    fn probe_algorithms(radius: u32) -> Vec<Box<dyn LocalAlgorithm>> {
        vec![
            Box::new(FnAlgorithm::new(radius, "id-parity", |v: &View| {
                Label::from_u64(v.center_id() % 2)
            })),
            Box::new(FnAlgorithm::new(radius, "id-mod-3", |v: &View| {
                Label::from_u64(v.center_id() % 3)
            })),
            Box::new(FnAlgorithm::new(radius, "id-threshold", |v: &View| {
                Label::from_bool(v.center_id() > 24)
            })),
            Box::new(FnAlgorithm::new(radius, "max-id-parity", |v: &View| {
                Label::from_u64((0..v.len()).map(|i| v.id(i)).max().unwrap() % 2)
            })),
            Box::new(FnAlgorithm::new(radius, "rank", |v: &View| {
                Label::from_u64(v.center_rank() as u64)
            })),
            Box::new(FnAlgorithm::new(radius, "constant", |_: &View| {
                Label::from_u64(7)
            })),
        ]
    }

    #[test]
    fn cached_refinement_equals_per_sample_evaluation() {
        let probes = [cycle(12), prism(6), circulant(12, &[1, 2])];
        let mut refined_runs = 0;
        let mut stopped_runs = 0;
        for (p, g) in probes.iter().enumerate() {
            let n = g.node_count();
            let x = Labeling::from_fn(g, |v| Label::from_u64(u64::from(v.0) % 2));
            let ids = IdAssignment::random_permutation(g, &mut SmallRng::seed_from_u64(p as u64));
            let inst = Instance::new(g, &x, &ids);
            for radius in [0u32, 1] {
                let templates = collect_templates(&[inst], radius);
                let max_ball = templates.iter().map(BallTemplate::len).max().unwrap();
                // The last universe leaves one identity to spare, so a
                // refining algorithm runs into the `ids.len() <= max_ball`
                // stop.
                let universes: [Vec<u64>; 3] = [
                    (1..=40).collect(),
                    (1..=n as u64 * 3).map(|i| 5 * i + 2).collect(),
                    (10..=10 + max_ball as u64).collect(),
                ];
                for algo in probe_algorithms(radius) {
                    for universe in &universes {
                        for seed in [3u64, 11, 29] {
                            let ours = consistent_id_set(&*algo, &templates, universe, 40, seed);
                            let reference =
                                consistent_id_set_reference(&*algo, &templates, universe, 40, seed);
                            assert_eq!(
                                ours,
                                reference,
                                "{} radius {radius} probe {p} seed {seed}",
                                algo.name()
                            );
                            refined_runs += usize::from(ours.len() < universe.len());
                            stopped_runs += usize::from(ours.len() == max_ball);
                        }
                    }
                }
            }
        }
        assert!(
            refined_runs > 0 && stopped_runs > 0,
            "{refined_runs} refined, {stopped_runs} stopped"
        );
    }

    #[test]
    fn cached_evaluations_equal_fresh_evaluations() {
        // The digest reads every identity with its position, so a
        // misplaced identity shows; algorithm radii below, at and above
        // the template radius cover views smaller than their templates.
        let (g, x, _) = cycle_instance(10);
        let ids = IdAssignment::random_permutation(&g, &mut SmallRng::seed_from_u64(9));
        let inst = Instance::new(&g, &x, &ids);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let universe: Vec<u64> = (1..=50).map(|i| 3 * i).collect();
        for template_radius in 0..3u32 {
            for algo_radius in 0..=template_radius + 1 {
                let algo = FnAlgorithm::new(algo_radius, "id-digest", |v: &View| {
                    let digest =
                        (0..v.len()).fold(0u64, |acc, i| acc.wrapping_mul(1_000_003) ^ v.id(i));
                    Label::from_u64(digest)
                });
                for template in collect_templates(&[inst], template_radius) {
                    let r = template.len();
                    let mut cached = CachedEvaluation::new(&template, algo_radius, &universe[..r]);
                    for _ in 0..8 {
                        let mut chosen: Vec<u64> =
                            universe.choose_multiple(&mut rng, r).copied().collect();
                        chosen.sort_unstable();
                        assert_eq!(
                            cached.evaluate(&algo, &chosen),
                            template.evaluate(&algo, &chosen)
                        );
                    }
                }
            }
        }
    }
}
