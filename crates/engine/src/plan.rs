//! Execution plans: every node's view of a fixed instance, cached once.
//!
//! A plan is the amortizable half of a Monte-Carlo loop. Building one costs
//! a single arena pass over the graph
//! ([`View::collect_all`] /
//! [`View::collect_all_io`]); every execution
//! afterwards only evaluates the algorithm's output function against the
//! cached views — no ball extraction, no induced-graph construction, no
//! identity or input re-gathering.

use rlnc_core::algorithm::{Coins, LocalAlgorithm, RandomizedLocalAlgorithm};
use rlnc_core::config::{Instance, IoConfig};
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::labels::Labeling;
use rlnc_core::view::View;
use rlnc_graph::{IdAssignment, NodeId};
use rlnc_obs::{LazyCounter, LazySpan, Section};
use rlnc_par::rng::SeedSequence;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic source of plan identities (see [`ExecutionPlan::id`]).
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

// Plans built and decisions taken are functions of the requested work —
// deterministic; the build span is wall-clock — timing.
static OBS_PLANS_BUILT: LazyCounter =
    LazyCounter::new("engine.plans_built", Section::Deterministic);
static OBS_DECISIONS: LazyCounter =
    LazyCounter::new("engine.scratch.decisions", Section::Deterministic);
static OBS_PLAN_SPAN: LazySpan = LazySpan::new("engine.plan.build");

/// The cached views of every node of one fixed instance (or input-output
/// configuration) at one radius.
///
/// Construction plans ([`ExecutionPlan::for_instance`]) carry views without
/// outputs and drive [`LocalAlgorithm`]s / [`RandomizedLocalAlgorithm`]s;
/// decision plans ([`ExecutionPlan::for_io`]) carry outputs too and drive
/// [`RandomizedDecider`]s. For deciders whose outputs change per trial, see
/// [`DecisionScratch`]. The views are immutable and shared: a clone of a
/// plan points at the same views.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    id: u64,
    radius: u32,
    // Not `Arc<[View]>`: the views arrive as a `Vec`, and converting would
    // copy them on every plan build.
    views: Arc<Vec<View>>,
    work_per_execution: usize,
    has_outputs: bool,
}

impl ExecutionPlan {
    /// Plans a construction instance: collects the radius-`radius` view of
    /// every node once, through the shared-scratch ball arena.
    pub fn for_instance(instance: &Instance<'_>, radius: u32) -> ExecutionPlan {
        let views = View::collect_all(instance, radius);
        ExecutionPlan::from_views(views, radius, false)
    }

    /// Plans a decision configuration (views carry output labels), for
    /// deciders over a **fixed** input-output configuration.
    pub fn for_io(io: &IoConfig<'_>, ids: &IdAssignment, radius: u32) -> ExecutionPlan {
        let views = View::collect_all_io(io, ids, radius);
        ExecutionPlan::from_views(views, radius, true)
    }

    fn from_views(views: Vec<View>, radius: u32, has_outputs: bool) -> ExecutionPlan {
        let _span = OBS_PLAN_SPAN.start();
        OBS_PLANS_BUILT.inc();
        let work_per_execution = views.iter().map(View::len).sum();
        ExecutionPlan {
            id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
            radius,
            views: Arc::new(views),
            work_per_execution,
            has_outputs,
        }
    }

    /// A process-unique identity for this plan, shared by its clones and
    /// carried into every [`DecisionScratch`] it creates — lets callers
    /// that hold a scratch assert it was built from *this* plan.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The radius the plan was built at. Algorithms and deciders evaluated
    /// against the plan must declare exactly this radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Number of nodes (= cached views) in the planned instance.
    pub fn node_count(&self) -> usize {
        self.views.len()
    }

    /// The cached views, indexed by host node.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// Total ball membership across all views — the amount of data one
    /// execution touches. A batched pass hands `work_per_execution ×
    /// trials` to the fan-out rule.
    pub fn work_per_execution(&self) -> usize {
        self.work_per_execution
    }

    /// Approximate heap bytes of the cached views — the working set one
    /// execution pass touches. This is the cache-behavior proxy recorded
    /// per group in `bench-export` (`working_set_bytes`) alongside the
    /// arena-level `graph.arena.working_set_bytes` gauge.
    pub fn working_set_bytes(&self) -> u64 {
        self.views.iter().map(View::memory_bytes).sum()
    }

    /// Returns `true` if the cached views carry output labels (a decision
    /// plan).
    pub fn has_outputs(&self) -> bool {
        self.has_outputs
    }

    /// Evaluates a deterministic algorithm once, sequentially, against the
    /// cached views. Bit-identical to
    /// [`Simulator::run`](rlnc_core::Simulator::run).
    pub fn run<A: LocalAlgorithm + ?Sized>(&self, algo: &A) -> Labeling {
        self.assert_radius(algo.radius());
        Labeling::new(self.views.iter().map(|v| algo.output(v)).collect())
    }

    /// Evaluates one execution (one coin seed) of a randomized algorithm,
    /// sequentially, against the cached views. Bit-identical to
    /// [`Simulator::run_randomized`](rlnc_core::Simulator::run_randomized)
    /// with the same seed.
    pub fn run_randomized<A: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        execution_seed: SeedSequence,
    ) -> Labeling {
        self.assert_radius(algo.radius());
        let coins = Coins::new(execution_seed);
        Labeling::new(self.views.iter().map(|v| algo.output(v, &coins)).collect())
    }

    /// One execution of a randomized algorithm written into a reused
    /// buffer: node `i`'s output goes to `out[i]`. The trial kernel of
    /// [`ExecutionPlan::estimate`] and
    /// [`ConstructDecidePlan::accept_once`](crate::ConstructDecidePlan::accept_once);
    /// the caller checks the algorithm's radius.
    pub(crate) fn construct_into<A: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        execution_seed: SeedSequence,
        out: &mut Labeling,
    ) {
        let coins = Coins::new(execution_seed);
        for (i, view) in self.views.iter().enumerate() {
            out.set(NodeId::from_index(i), algo.output(view, &coins));
        }
    }

    /// One execution of a randomized decider on a decision plan: accepted
    /// iff every node accepts. Bit-identical to
    /// [`decide_randomized`](rlnc_core::decision::decide_randomized) with
    /// the same seed.
    ///
    /// # Panics
    /// Panics on construction plans (no outputs) or on a radius mismatch.
    pub fn decide_randomized<D: RandomizedDecider + ?Sized>(
        &self,
        decider: &D,
        execution_seed: SeedSequence,
    ) -> bool {
        assert!(
            self.has_outputs,
            "decide_randomized needs a decision plan (ExecutionPlan::for_io)"
        );
        self.assert_radius(decider.radius());
        let coins = Coins::new(execution_seed);
        self.views.iter().all(|v| decider.accepts(v, &coins))
    }

    /// Clones the cached views into a mutable scratch whose output labels
    /// can be refreshed per trial — the "construct, then decide" shape.
    /// Clone once per worker (or per trial range), not per trial.
    pub fn decision_scratch(&self) -> DecisionScratch {
        DecisionScratch {
            plan_id: self.id,
            radius: self.radius,
            views: self.views.to_vec(),
        }
    }

    pub(crate) fn assert_radius(&self, declared: u32) {
        assert_eq!(
            declared, self.radius,
            "algorithm radius {declared} does not match plan radius {}",
            self.radius
        );
    }
}

/// Reusable per-worker views for deciding configurations whose *outputs*
/// vary per trial while graph, identities, and inputs stay fixed.
///
/// Created by [`ExecutionPlan::decision_scratch`]; each
/// [`DecisionScratch::decide_randomized`] call overwrites the cached
/// views' output labels from the trial's output labeling (reusing the
/// existing allocations) and evaluates the decider.
#[derive(Debug, Clone)]
pub struct DecisionScratch {
    plan_id: u64,
    radius: u32,
    views: Vec<View>,
}

impl DecisionScratch {
    /// Number of views in the scratch.
    pub fn node_count(&self) -> usize {
        self.views.len()
    }

    /// The [`ExecutionPlan::id`] of the plan this scratch was cloned from.
    pub fn plan_id(&self) -> u64 {
        self.plan_id
    }

    /// Decides `(G, (x, output))` with one coin seed: refreshes every
    /// cached view's outputs from `output`, then checks that every node
    /// accepts. Bit-identical to collecting fresh decision views and
    /// calling [`decide_randomized`](rlnc_core::decision::decide_randomized).
    pub fn decide_randomized<D: RandomizedDecider + ?Sized>(
        &mut self,
        decider: &D,
        output: &Labeling,
        execution_seed: SeedSequence,
    ) -> bool {
        assert_eq!(
            decider.radius(),
            self.radius,
            "decider radius {} does not match plan radius {}",
            decider.radius(),
            self.radius
        );
        OBS_DECISIONS.inc();
        let coins = Coins::new(execution_seed);
        self.views.iter_mut().all(|view| {
            view.refresh_outputs(output);
            decider.accepts(view, &coins)
        })
    }

    /// Like [`DecisionScratch::decide_randomized`], but only quantifies over
    /// the listed nodes (host-graph indices): accepted iff every listed node
    /// accepts. This is the kernel behind the "accepts far from every
    /// anchor" event of the gluing construction — the participation set is
    /// computed once per plan instead of once per trial. Coins still derive
    /// from `(execution seed, node)`, so the verdict at a node is identical
    /// to the all-nodes variant's.
    pub fn decide_randomized_at<D: RandomizedDecider + ?Sized>(
        &mut self,
        decider: &D,
        output: &Labeling,
        nodes: &[usize],
        execution_seed: SeedSequence,
    ) -> bool {
        assert_eq!(
            decider.radius(),
            self.radius,
            "decider radius {} does not match plan radius {}",
            decider.radius(),
            self.radius
        );
        OBS_DECISIONS.inc();
        let coins = Coins::new(execution_seed);
        nodes.iter().all(|&i| {
            let view = &mut self.views[i];
            view.refresh_outputs(output);
            decider.accepts(view, &coins)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::algorithm::{FnAlgorithm, FnRandomizedAlgorithm};
    use rlnc_core::decision::{decide_randomized, FnRandomizedDecider};
    use rlnc_core::labels::Label;
    use rlnc_core::simulator::Simulator;
    use rand::Rng;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;

    fn fixture(n: usize) -> (rlnc_graph::Graph, Labeling, IdAssignment) {
        let g = cycle(n);
        let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let ids = IdAssignment::spread(&g, 10);
        (g, x, ids)
    }

    #[test]
    fn construction_plan_matches_simulator() {
        let (g, x, ids) = fixture(24);
        let inst = Instance::new(&g, &x, &ids);
        let det = FnAlgorithm::new(2, "sum", |v: &View| {
            Label::from_u64((0..v.len()).map(|i| v.id(i)).sum())
        });
        let plan = ExecutionPlan::for_instance(&inst, 2);
        assert_eq!(plan.node_count(), 24);
        assert_eq!(plan.radius(), 2);
        assert!(!plan.has_outputs());
        assert_eq!(plan.work_per_execution(), 24 * 5);
        assert_eq!(plan.run(&det), Simulator::new().run(&det, &inst));

        let rand_algo = FnRandomizedAlgorithm::new(2, "coin", |v: &View, c: &Coins| {
            Label::from_bool(c.for_center(v).random_bool(0.5))
        });
        for t in 0..8 {
            let seed = SeedSequence::new(5).child(t);
            assert_eq!(
                plan.run_randomized(&rand_algo, seed),
                Simulator::new().run_randomized(&rand_algo, &inst, seed)
            );
        }
    }

    #[test]
    fn decision_plan_matches_decide_randomized() {
        let (g, x, ids) = fixture(18);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 3)));
        let io = IoConfig::new(&g, &x, &y);
        let decider = FnRandomizedDecider::new(1, "noisy", |view: &View, coins: &Coins| {
            coins.for_center(view).random_bool(0.9) || view.center_degree() == 0
        });
        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        assert!(plan.has_outputs());
        for t in 0..16 {
            let seed = SeedSequence::new(9).child(t);
            assert_eq!(
                plan.decide_randomized(&decider, seed),
                decide_randomized(&decider, &io, &ids, seed)
            );
        }
    }

    #[test]
    fn decision_scratch_refreshes_outputs_per_trial() {
        let (g, x, ids) = fixture(20);
        let inst = Instance::new(&g, &x, &ids);
        let plan = ExecutionPlan::for_instance(&inst, 1);
        let mut scratch = plan.decision_scratch();
        let decider = FnRandomizedDecider::new(1, "match", |view: &View, coins: &Coins| {
            let ok = view.output(0) == view.input(0);
            ok || coins.for_center(view).random_bool(0.5)
        });
        for t in 0..8 {
            let seed = SeedSequence::new(2).child(t);
            // Outputs differ per trial: equal to inputs on even trials.
            let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2) + (t % 2)));
            let io = IoConfig::new(&g, &x, &y);
            assert_eq!(
                scratch.decide_randomized(&decider, &y, seed),
                decide_randomized(&decider, &io, &ids, seed)
            );
        }
        assert_eq!(scratch.node_count(), 20);
    }

    #[test]
    fn working_set_sums_the_view_footprints() {
        let (g, x, ids) = fixture(16);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 3)));
        let io = IoConfig::new(&g, &x, &y);
        for radius in [1, 2] {
            let plan = ExecutionPlan::for_io(&io, &ids, radius);
            let per_view: u64 = plan.views().iter().map(View::memory_bytes).sum();
            assert_eq!(plan.working_set_bytes(), per_view);
        }
    }

    #[test]
    #[should_panic(expected = "does not match plan radius")]
    fn radius_mismatch_is_rejected() {
        let (g, x, ids) = fixture(8);
        let inst = Instance::new(&g, &x, &ids);
        let plan = ExecutionPlan::for_instance(&inst, 1);
        let det = FnAlgorithm::new(2, "wrong-radius", |_: &View| Label::from_u64(0));
        let _ = plan.run(&det);
    }

    #[test]
    #[should_panic(expected = "needs a decision plan")]
    fn deciding_on_a_construction_plan_is_rejected() {
        let (g, x, ids) = fixture(8);
        let inst = Instance::new(&g, &x, &ids);
        let plan = ExecutionPlan::for_instance(&inst, 0);
        let decider = FnRandomizedDecider::new(0, "always", |_: &View, _: &Coins| true);
        let _ = plan.decide_randomized(&decider, SeedSequence::new(0));
    }
}
