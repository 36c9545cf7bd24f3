//! The round backend's plan: `algorithm × seed` executions through
//! explicit message passing instead of ball extraction.
//!
//! A [`RoundPlan`] is the amortizable half of a batch — it owns the
//! instance and the prebuilt [`RoundTopology`] (the delivery map), so
//! per-seed executions pay no per-trial topology cost. Batches loop over
//! seeds themselves (the `fault-matrix` workload runs one
//! [`RoundPlan::run_with_faults`] per trial inside the sweep executor's
//! blocks); every trial's coins and fault schedule derive from its seed
//! alone, so results never depend on scheduling.
//!
//! Fault-free executions are bit-identical to the ball-extraction path
//! ([`ExecutionPlan`](crate::ExecutionPlan)) with the same seed — proven
//! by the `round_equivalence` proptest suite across every registry case.
//! Fault-injected executions ([`RoundPlan::run_with_faults`]) are where
//! the two backends diverge: crashes and Byzantine relabeling simply have
//! no ball-extraction counterpart.

use rlnc_core::algorithm::{Coins, RandomizedLocalAlgorithm};
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::faults::FaultSchedule;
use rlnc_core::labels::Labeling;
use rlnc_core::rounds::{GatherDecide, GatherRun, RelabelAdversary, RoundSystem, RoundTopology};
use rlnc_core::{Instance, Label};
use rlnc_graph::{Graph, IdAssignment};
use rlnc_par::rng::SeedSequence;

/// One instance prepared for repeated round-backend execution: the graph,
/// inputs, and identities (owned), plus the prebuilt delivery topology.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    graph: Graph,
    input: Labeling,
    ids: IdAssignment,
    topology: RoundTopology,
    radius: u32,
}

impl RoundPlan {
    /// Plans an instance for radius-`radius` algorithms: clones the
    /// instance and builds the delivery map once.
    pub fn for_instance(instance: &Instance<'_>, radius: u32) -> RoundPlan {
        RoundPlan {
            graph: instance.graph.clone(),
            input: instance.input.clone(),
            ids: instance.ids.clone(),
            topology: RoundTopology::new(instance.graph),
            radius,
        }
    }

    /// The planned instance (borrowing the plan's owned copies).
    pub fn instance(&self) -> Instance<'_> {
        Instance::new(&self.graph, &self.input, &self.ids)
    }

    /// The planned graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The prebuilt delivery topology.
    pub fn topology(&self) -> &RoundTopology {
        &self.topology
    }

    /// Number of nodes in the planned instance.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The radius the plan was built at; algorithms and deciders must
    /// declare exactly this radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    fn assert_radius(&self, declared: u32) {
        assert_eq!(
            declared, self.radius,
            "algorithm radius {declared} does not match round plan radius {}",
            self.radius
        );
    }

    /// One fault-free execution of a randomized algorithm through the
    /// round backend. Bit-identical to
    /// [`ExecutionPlan::run_randomized`](crate::ExecutionPlan::run_randomized)
    /// with the same seed.
    pub fn run_randomized<A: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        execution_seed: SeedSequence,
    ) -> Labeling {
        self.assert_radius(algo.radius());
        let instance = self.instance();
        let wrapper = GatherRun::new(algo, Coins::new(execution_seed));
        RoundSystem::with_topology(&wrapper, &instance, &self.topology).run()
    }

    /// One fault-injected execution: crashed nodes fall silent per the
    /// schedule, and if the schedule marks Byzantine nodes their messages
    /// pass through the [`RelabelAdversary`]. With a fault-free schedule
    /// this equals [`RoundPlan::run_randomized`].
    pub fn run_with_faults<A: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        execution_seed: SeedSequence,
        schedule: &FaultSchedule,
    ) -> Labeling {
        self.assert_radius(algo.radius());
        let instance = self.instance();
        let wrapper = GatherRun::new(algo, Coins::new(execution_seed));
        let adversary = RelabelAdversary::new();
        let mut system =
            RoundSystem::with_topology(&wrapper, &instance, &self.topology).with_faults(schedule);
        if schedule.has_byzantine() {
            system = system.with_adversary(&adversary);
        }
        system.run()
    }

    /// One decision of `(G, (x, output))` through the round backend:
    /// every node gathers its decision view by messages and votes;
    /// accepted iff every node accepts. Bit-identical to
    /// [`DecisionScratch::decide_randomized`](crate::DecisionScratch::decide_randomized)
    /// with the same seed.
    pub fn decide_randomized<D: RandomizedDecider + ?Sized>(
        &self,
        decider: &D,
        output: &Labeling,
        execution_seed: SeedSequence,
    ) -> bool {
        self.assert_radius(decider.radius());
        let instance = self.instance();
        let wrapper = GatherDecide::new(decider, output, Coins::new(execution_seed));
        let verdicts = RoundSystem::with_topology(&wrapper, &instance, &self.topology).run();
        let yes = Label::from_bool(true);
        verdicts.as_slice().iter().all(|v| *v == yes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutionPlan;
    use rlnc_core::algorithm::FnRandomizedAlgorithm;
    use rlnc_core::decision::FnRandomizedDecider;
    use rlnc_core::view::View;
    use rand::Rng;
    use rlnc_graph::generators::cycle;

    fn fixture(n: usize) -> (rlnc_graph::Graph, Labeling, IdAssignment) {
        let g = cycle(n);
        let x = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 3)));
        let ids = IdAssignment::spread(&g, 7);
        (g, x, ids)
    }

    fn coin_algo() -> FnRandomizedAlgorithm<impl Fn(&View, &Coins) -> Label + Sync> {
        FnRandomizedAlgorithm::new(1, "coin-sum", |v: &View, c: &Coins| {
            let total: u64 = (0..v.len())
                .map(|i| c.for_view_node(v, i).random::<u64>() & 0xFF)
                .sum();
            Label::from_u64(total)
        })
    }

    #[test]
    fn round_plan_matches_execution_plan_per_seed() {
        let (g, x, ids) = fixture(20);
        let inst = Instance::new(&g, &x, &ids);
        let algo = coin_algo();
        let ball_plan = ExecutionPlan::for_instance(&inst, 1);
        let round_plan = RoundPlan::for_instance(&inst, 1);
        assert_eq!(round_plan.node_count(), 20);
        assert_eq!(round_plan.radius(), 1);
        for t in 0..6 {
            let seed = SeedSequence::new(31).child(t);
            assert_eq!(
                round_plan.run_randomized(&algo, seed),
                ball_plan.run_randomized(&algo, seed)
            );
        }
    }

    #[test]
    fn round_plan_decides_like_the_decision_scratch() {
        let (g, x, ids) = fixture(16);
        let inst = Instance::new(&g, &x, &ids);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let decider = FnRandomizedDecider::new(1, "noisy", |view: &View, coins: &Coins| {
            view.output(0).as_u64() == 0 || coins.for_center(view).random_bool(0.6)
        });
        let ball_plan = ExecutionPlan::for_instance(&inst, 1);
        let mut scratch = ball_plan.decision_scratch();
        let round_plan = RoundPlan::for_instance(&inst, 1);
        for t in 0..12 {
            let seed = SeedSequence::new(3).child(t);
            assert_eq!(
                round_plan.decide_randomized(&decider, &y, seed),
                scratch.decide_randomized(&decider, &y, seed)
            );
        }
    }

    #[test]
    fn fault_free_schedule_reproduces_the_fault_free_run() {
        let (g, x, ids) = fixture(12);
        let inst = Instance::new(&g, &x, &ids);
        let algo = coin_algo();
        let plan = RoundPlan::for_instance(&inst, 1);
        let seed = SeedSequence::new(5).child(2);
        let schedule = FaultSchedule::fault_free(12, SeedSequence::new(0));
        assert_eq!(
            plan.run_with_faults(&algo, seed, &schedule),
            plan.run_randomized(&algo, seed)
        );
    }

    #[test]
    #[should_panic(expected = "does not match round plan radius")]
    fn radius_mismatch_is_rejected() {
        let (g, x, ids) = fixture(8);
        let inst = Instance::new(&g, &x, &ids);
        let plan = RoundPlan::for_instance(&inst, 2);
        let _ = plan.run_randomized(&coin_algo(), SeedSequence::new(0));
    }
}
