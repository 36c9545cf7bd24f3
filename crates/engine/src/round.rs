//! The round backend's plan: `algorithm × seed` executions through
//! explicit message passing instead of ball extraction.
//!
//! A [`RoundPlan`] owns one instance (graph, inputs, identities) and the
//! radius its algorithms declare. Batches loop over seeds themselves (the
//! `fault-matrix` workload runs one [`RoundPlan::run_with_faults`] per
//! trial inside the sweep executor's blocks); every trial's coins and
//! fault schedule derive from its seed alone, so results never depend on
//! scheduling.
//!
//! Under a fault-free schedule an execution is bit-identical to the
//! ball-extraction path ([`ExecutionPlan`](crate::ExecutionPlan)) with
//! the same seed — proven by the `round_equivalence` proptest suite across
//! every registry case. Fault-injected executions are where the two
//! backends diverge: crashes and Byzantine relabeling simply have no
//! ball-extraction counterpart.

use rlnc_core::algorithm::{Coins, RandomizedLocalAlgorithm};
use rlnc_core::faults::FaultSchedule;
use rlnc_core::labels::Labeling;
use rlnc_core::rounds::{GatherRun, RoundSystem};
use rlnc_core::Instance;
use rlnc_graph::{Graph, IdAssignment};
use rlnc_par::rng::SeedSequence;

/// One instance prepared for repeated round-backend execution: the graph,
/// inputs, and identities (owned), and the radius of its algorithms.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    graph: Graph,
    input: Labeling,
    ids: IdAssignment,
    radius: u32,
}

impl RoundPlan {
    /// Plans an instance for radius-`radius` algorithms (clones the
    /// instance).
    pub fn for_instance(instance: &Instance<'_>, radius: u32) -> RoundPlan {
        RoundPlan {
            graph: instance.graph.clone(),
            input: instance.input.clone(),
            ids: instance.ids.clone(),
            radius,
        }
    }

    /// The planned graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// One fault-injected execution: crashed nodes fall silent per the
    /// schedule, and Byzantine nodes' messages are forged by
    /// [`GatherRun`]'s identity relabeling. With a fault-free schedule
    /// this is bit-identical to
    /// [`ExecutionPlan::run_randomized`](crate::ExecutionPlan::run_randomized)
    /// with the same seed.
    pub fn run_with_faults<A: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        execution_seed: SeedSequence,
        schedule: &FaultSchedule,
    ) -> Labeling {
        let declared = algo.radius();
        assert_eq!(
            declared, self.radius,
            "algorithm radius {declared} does not match round plan radius {}",
            self.radius
        );
        let instance = Instance::new(&self.graph, &self.input, &self.ids);
        let wrapper = GatherRun::new(algo, Coins::new(execution_seed));
        RoundSystem::new(&wrapper, &instance)
            .with_faults(schedule)
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutionPlan;
    use rlnc_core::algorithm::FnRandomizedAlgorithm;
    use rlnc_core::rounds::run_randomized_via_rounds;
    use rlnc_core::view::View;
    use rlnc_core::Label;
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
        let schedule = FaultSchedule::fault_free(20, SeedSequence::new(0));
        for t in 0..6 {
            let seed = SeedSequence::new(31).child(t);
            assert_eq!(
                round_plan.run_with_faults(&algo, seed, &schedule),
                ball_plan.run_randomized(&algo, seed)
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
            run_randomized_via_rounds(&algo, &inst, seed)
        );
    }

    #[test]
    #[should_panic(expected = "does not match round plan radius")]
    fn radius_mismatch_is_rejected() {
        let (g, x, ids) = fixture(8);
        let inst = Instance::new(&g, &x, &ids);
        let plan = RoundPlan::for_instance(&inst, 2);
        let schedule = FaultSchedule::fault_free(8, SeedSequence::new(0));
        let _ = plan.run_with_faults(&coin_algo(), SeedSequence::new(0), &schedule);
    }
}
