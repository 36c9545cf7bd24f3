//! Composite plans: construct-then-decide kernels over disjoint unions and
//! connected gluings.
//!
//! The derandomization argument of Theorem 1 spends almost all of its
//! Monte-Carlo budget on one shape: *run a randomized constructor on a
//! composite instance (a disjoint union of hard instances, or their
//! connected gluing), then run a randomized decider on the result*. The
//! legacy estimators in `rlnc_core::derand` re-extract every node's ball on
//! every trial and, for the gluing's "far from every anchor" event, re-run
//! one BFS per anchor per trial. The plan kinds here amortize all of that:
//!
//! * [`ConstructDecidePlan`] caches two view sets over one fixed instance —
//!   construction views at the constructor's radius and decision views at
//!   the decider's radius — via one [`BallArena`](rlnc_graph::arena::BallArena)
//!   pass each over the combined CSR. A trial only evaluates output
//!   functions and refreshes output labels.
//! * [`UnionPlan`] plans the Claim-3 disjoint union of `ν` hard instances
//!   once, as `rlnc_core::derand::boosting::build_disjoint_union` builds
//!   it through `HardInstance::compose` (identity ranges made disjoint).
//! * [`GluedPlan`] plans a glued connected instance and precomputes the
//!   participation set of the Claims-4/5 event — the nodes at distance
//!   greater than `t + t'` from every anchor — so the far-from verdict
//!   needs no per-trial BFS.
//!
//! [`ConstructDecidePlan::accept_once`] is the one construct-then-decide
//! kernel: the batched [`ConstructDecidePlan::acceptance`] pass loops it,
//! and so do the sweep workloads' trials over union and glued plans. It
//! splits each trial seed into `child(0)` (constructor coins) and
//! `child(1)` (decider coins), exactly like the legacy estimators, and the
//! batched pass follows the `(master seed, trial)` derivation of
//! [`MonteCarlo`](rlnc_par::MonteCarlo) — the equivalence suite pins the
//! streams down bit-for-bit.

use crate::plan::{DecisionScratch, ExecutionPlan};
use crate::runner::count_trials;
use rlnc_core::algorithm::RandomizedLocalAlgorithm;
use rlnc_core::config::Instance;
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::derand::boosting::build_disjoint_union;
use rlnc_core::derand::HardInstance;
use rlnc_core::labels::Labeling;
use rlnc_graph::traversal::nodes_far_from_all;
use rlnc_graph::NodeId;
use rlnc_par::rng::SeedSequence;
use rlnc_par::stats::Estimate;

/// Cached construction and decision views of one fixed composite instance.
///
/// The construction half drives a [`RandomizedLocalAlgorithm`]; the
/// decision half holds construction views at the decider's radius whose
/// output labels a per-range [`DecisionScratch`] refreshes from each
/// trial's constructed labeling.
#[derive(Debug, Clone)]
pub struct ConstructDecidePlan {
    construction: ExecutionPlan,
    decision: ExecutionPlan,
}

impl ConstructDecidePlan {
    /// Plans `instance` at the two radii (one arena pass per distinct
    /// radius — equal radii share a single pass and view set).
    pub fn new(instance: &Instance<'_>, construction_radius: u32, decision_radius: u32) -> Self {
        let construction = ExecutionPlan::for_instance(instance, construction_radius);
        let decision = if decision_radius == construction_radius {
            construction.clone()
        } else {
            ExecutionPlan::for_instance(instance, decision_radius)
        };
        ConstructDecidePlan {
            construction,
            decision,
        }
    }

    /// The cached construction views.
    pub fn construction(&self) -> &ExecutionPlan {
        &self.construction
    }

    /// Number of nodes in the planned instance.
    pub fn node_count(&self) -> usize {
        self.construction.node_count()
    }

    /// Total view membership one construct-then-decide trial touches.
    pub fn work_per_trial(&self) -> usize {
        self.construction.work_per_execution() + self.decision.work_per_execution()
    }

    /// One trial against caller-provided reusable buffers: constructs with
    /// coins `trial_seed.child(0)` into `out`, then decides `out` with
    /// coins `trial_seed.child(1)`. When `nodes` is `Some`, only the listed
    /// nodes are quantified over (the far-from-anchors event); `None` means
    /// every node must accept.
    pub fn accept_once<C, D>(
        &self,
        scratch: &mut DecisionScratch,
        out: &mut Labeling,
        constructor: &C,
        decider: &D,
        nodes: Option<&[usize]>,
        trial_seed: SeedSequence,
    ) -> bool
    where
        C: RandomizedLocalAlgorithm + ?Sized,
        D: RandomizedDecider + ?Sized,
    {
        assert_eq!(
            scratch.plan_id(),
            self.decision.id(),
            "decision scratch does not belong to this plan"
        );
        self.construction.assert_radius(constructor.radius());
        self.construction
            .construct_into(constructor, trial_seed.child(0), out);
        let decision_seed = trial_seed.child(1);
        match nodes {
            Some(nodes) => scratch.decide_randomized_at(decider, out, nodes, decision_seed),
            None => scratch.decide_randomized(decider, out, decision_seed),
        }
    }

    /// A fresh decision scratch for this plan (clone once per trial range).
    pub fn decision_scratch(&self) -> DecisionScratch {
        self.decision.decision_scratch()
    }

    /// Estimates `Pr[D accepts C(G)]` over `trials` construct-then-decide
    /// executions: [`ConstructDecidePlan::accept_once`] per trial, with the
    /// `(master seed, trial)` seed derivation of
    /// [`MonteCarlo`](rlnc_par::MonteCarlo) and the `child(0)`/`child(1)`
    /// constructor/decider split of the legacy `acceptance_of_constructed`
    /// — bit-identical success streams. `nodes` is `accept_once`'s: `None`
    /// for all-nodes acceptance, [`GluedPlan::participants`] for the
    /// Claims-4/5 event `Pr[D accepts C(G) far from every anchor]`, which
    /// the legacy `GluingExperiment::acceptance_far_from_all_anchors`
    /// computes with one BFS per anchor per trial.
    pub fn acceptance<C, D>(
        &self,
        constructor: &C,
        decider: &D,
        nodes: Option<&[usize]>,
        trials: u64,
        master_seed: u64,
    ) -> Estimate
    where
        C: RandomizedLocalAlgorithm + ?Sized,
        D: RandomizedDecider + ?Sized,
    {
        self.construction.assert_radius(constructor.radius());
        count_trials(
            self.work_per_trial(),
            trials,
            master_seed,
            || (self.decision_scratch(), Labeling::empty(self.node_count())),
            |(scratch, out), seed| {
                self.accept_once(scratch, out, constructor, decider, nodes, seed)
            },
        )
    }
}

/// A [`ConstructDecidePlan`] over the disjoint union of `ν` component
/// instances — the Claim-3 composite, planned once.
#[derive(Debug, Clone)]
pub struct UnionPlan {
    plan: ConstructDecidePlan,
    components: usize,
}

impl UnionPlan {
    /// Plans `build_disjoint_union(parts, nu)`: `nu` components, cycling
    /// through `parts` when `nu` exceeds their number, identity ranges
    /// pairwise disjoint — the instance the legacy estimator sees.
    ///
    /// # Panics
    /// Panics if `parts` is empty or `nu` is zero.
    pub fn for_parts(
        parts: &[HardInstance],
        nu: usize,
        construction_radius: u32,
        decision_radius: u32,
    ) -> UnionPlan {
        let union = build_disjoint_union(parts, nu);
        UnionPlan {
            plan: ConstructDecidePlan::new(
                &union.as_instance(),
                construction_radius,
                decision_radius,
            ),
            components: nu,
        }
    }

    /// The underlying construct-then-decide plan.
    pub fn plan(&self) -> &ConstructDecidePlan {
        &self.plan
    }

    /// Number of components `ν` in the union.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Total node count of the union.
    pub fn node_count(&self) -> usize {
        self.plan.node_count()
    }
}

/// A [`ConstructDecidePlan`] over a glued connected instance, with the
/// Claims-4/5 participation set precomputed.
#[derive(Debug, Clone)]
pub struct GluedPlan {
    plan: ConstructDecidePlan,
    anchors: Vec<NodeId>,
    exclusion_radius: u32,
    participants: Vec<usize>,
}

impl GluedPlan {
    /// Plans the glued instance and precomputes the nodes participating in
    /// the "accepts far from every anchor" event (distance greater than
    /// `exclusion_radius` from every anchor).
    ///
    /// # Panics
    /// Panics if no anchors are supplied.
    pub fn new(
        instance: &Instance<'_>,
        anchors: Vec<NodeId>,
        exclusion_radius: u32,
        construction_radius: u32,
        decision_radius: u32,
    ) -> GluedPlan {
        assert!(!anchors.is_empty(), "a glued plan needs at least one anchor");
        let participants = nodes_far_from_all(instance.graph, &anchors, exclusion_radius)
            .into_iter()
            .map(|v| v.index())
            .collect();
        GluedPlan {
            plan: ConstructDecidePlan::new(instance, construction_radius, decision_radius),
            anchors,
            exclusion_radius,
            participants,
        }
    }

    /// The underlying construct-then-decide plan.
    pub fn plan(&self) -> &ConstructDecidePlan {
        &self.plan
    }

    /// The glued-graph anchor nodes.
    pub fn anchors(&self) -> &[NodeId] {
        &self.anchors
    }

    /// The exclusion radius `t + t'` of the far-from event.
    pub fn exclusion_radius(&self) -> u32 {
        self.exclusion_radius
    }

    /// The nodes quantified over by the far-from-every-anchor event, in
    /// ascending order.
    pub fn participants(&self) -> &[usize] {
        &self.participants
    }

    /// Total node count of the glued instance.
    pub fn node_count(&self) -> usize {
        self.plan.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rlnc_core::algorithm::{Coins, FnRandomizedAlgorithm};
    use rlnc_core::decision::FnRandomizedDecider;
    use rlnc_core::derand::boosting::acceptance_of_constructed;
    use rlnc_core::derand::hard_instances::consecutive_cycle_candidates;
    use rlnc_core::labels::Label;
    use rlnc_core::view::View;

    fn bernoulli_constructor(q: f64) -> FnRandomizedAlgorithm<impl Fn(&View, &Coins) -> Label + Sync> {
        FnRandomizedAlgorithm::new(0, "bernoulli-bit", move |v: &View, c: &Coins| {
            Label::from_bool(c.for_center(v).random_bool(q))
        })
    }

    fn zero_rejecting_decider(p: f64) -> FnRandomizedDecider<impl Fn(&View, &Coins) -> bool + Sync> {
        FnRandomizedDecider::new(0, "reject-zeros", move |v: &View, c: &Coins| {
            v.output(v.center_local()).as_bool() || !c.for_center(v).random_bool(p)
        })
    }

    #[test]
    fn union_plan_builds_the_claim3_union() {
        let hard = consecutive_cycle_candidates([5, 7]);
        let union = UnionPlan::for_parts(&hard, 3, 0, 0);
        assert_eq!(union.node_count(), 5 + 7 + 5);
        assert_eq!(union.components(), 3);
        // The third component repeats the first, with its identities
        // shifted past the first two: ranges pairwise disjoint.
        let ids: Vec<u64> = union
            .plan()
            .construction()
            .views()
            .iter()
            .map(View::center_id)
            .collect();
        assert_eq!(ids, (1..=17).collect::<Vec<u64>>());
    }

    #[test]
    fn construct_decide_matches_legacy_acceptance_of_constructed() {
        let hard = consecutive_cycle_candidates([6]);
        let constructor = bernoulli_constructor(0.8);
        let decider = zero_rejecting_decider(0.7);
        let legacy = acceptance_of_constructed(&constructor, &decider, &hard[0], 300, 0);
        let plan = ConstructDecidePlan::new(&hard[0].as_instance(), 0, 0);
        let engine = plan.acceptance(&constructor, &decider, None, 300, 0);
        assert_eq!(engine.successes, legacy.successes);
        assert_eq!(engine.p_hat, legacy.p_hat);
    }

    #[test]
    fn equal_radius_plans_share_one_view_allocation() {
        let hard = consecutive_cycle_candidates([6]);
        let instance = hard[0].as_instance();
        let shared = ConstructDecidePlan::new(&instance, 1, 1);
        assert!(std::ptr::eq(
            shared.construction.views(),
            shared.decision.views()
        ));
        let split = ConstructDecidePlan::new(&instance, 0, 1);
        assert!(!std::ptr::eq(
            split.construction.views(),
            split.decision.views()
        ));
    }

    #[test]
    fn glued_plan_precomputes_participants() {
        let hard = consecutive_cycle_candidates([10, 10]);
        let parts: Vec<rlnc_core::derand::HardInstance> = hard.clone();
        let exp = rlnc_core::derand::GluingExperiment::build(
            parts,
            vec![NodeId(0), NodeId(0)],
            0,
            1,
        );
        let anchors: Vec<NodeId> = (0..2).map(|i| exp.glued_anchor(i)).collect();
        let glued_hard = exp.as_hard_instance();
        let plan = GluedPlan::new(&glued_hard.as_instance(), anchors.clone(), 1, 0, 0);
        assert_eq!(plan.exclusion_radius(), 1);
        assert_eq!(plan.anchors(), &anchors[..]);
        // Exactly the nodes far from every anchor participate. Each
        // excluded radius-1 ball holds 3 nodes: the anchor, its one
        // remaining cycle neighbour, and the subdivision node that replaced
        // the other.
        for v in exp.graph().nodes() {
            let expected = anchors.iter().all(|&a| {
                rlnc_graph::traversal::distance(exp.graph(), a, v).unwrap() > 1
            });
            assert_eq!(plan.participants().contains(&v.index()), expected);
        }
        assert_eq!(plan.participants().len(), exp.graph().node_count() - 6);
    }

    #[test]
    #[should_panic(expected = "does not belong to this plan")]
    fn foreign_scratch_is_rejected() {
        let hard = consecutive_cycle_candidates([6, 6]);
        let plan_a = ConstructDecidePlan::new(&hard[0].as_instance(), 0, 0);
        let plan_b = ConstructDecidePlan::new(&hard[1].as_instance(), 0, 0);
        let constructor = bernoulli_constructor(0.5);
        let decider = zero_rejecting_decider(0.5);
        let mut scratch = plan_b.decision_scratch();
        let mut out = Labeling::empty(plan_a.node_count());
        let _ = plan_a.accept_once(
            &mut scratch,
            &mut out,
            &constructor,
            &decider,
            None,
            SeedSequence::new(0),
        );
    }
}
