//! The LOCAL-model simulator: runs construction algorithms on instances.
//!
//! The simulator uses the ball-view formulation of §2.1: for every node it
//! collects the radius-`t` view with [`View::collect`] and evaluates the
//! algorithm's output function. That per-node collection is the reference
//! the engine's equivalence suites compare the arena-backed cached views
//! against.
//!
//! Per-node work is independent, so it goes through [`pool::map`], which
//! fans out over the pool when the workspace's one rule says so;
//! determinism is preserved because each node's coins are derived from
//! the (execution seed, node) pair, not from scheduling order. A node's
//! cost includes its ball extraction, which is not known in advance, so
//! each node counts as `FAN_OUT_WORK / 64`: 64 nodes fan out, and a
//! simulator inside a pool task never does.
//!
//! Monte-Carlo estimation over a fixed instance
//! ([`Simulator::construction_success`]) simulates every trial from
//! scratch, so it is an independent reference for the `rlnc-engine`
//! crate's `ExecutionPlan::estimate`, which collects every view once and
//! reuses it across trials.

use crate::algorithm::{Coins, LocalAlgorithm, RandomizedLocalAlgorithm};
use crate::config::{Instance, IoConfig};
use crate::labels::Labeling;
use crate::language::DistributedLanguage;
use crate::view::View;
use rlnc_par::pool::{self, FAN_OUT_WORK};
use rlnc_par::rng::SeedSequence;
use rlnc_par::stats::Estimate;
use rlnc_par::trials::MonteCarlo;
use rlnc_graph::NodeId;

/// Runs LOCAL algorithms over whole instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulator;

impl Simulator {
    /// A simulator. Per-node evaluation fans out over the pool by the
    /// workspace's one rule; results never depend on the choice.
    pub fn new() -> Self {
        Simulator
    }

    /// Runs a deterministic algorithm, returning the output labeling:
    /// [`Simulator::run_randomized`] with coins the algorithm never reads.
    pub fn run<A: LocalAlgorithm + ?Sized>(&self, algo: &A, instance: &Instance<'_>) -> Labeling {
        self.run_randomized(algo, instance, SeedSequence::new(0))
    }

    /// Runs a randomized algorithm with the coins of one execution,
    /// returning the output labeling.
    pub fn run_randomized<A: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        instance: &Instance<'_>,
        execution_seed: SeedSequence,
    ) -> Labeling {
        let t = algo.radius();
        let coins = Coins::new(execution_seed);
        let n = instance.graph.node_count();
        let work = (n as u64).saturating_mul(FAN_OUT_WORK / 64);
        Labeling::new(pool::map(n, work, |i| {
            let view = View::collect(instance, NodeId::from_index(i), t);
            algo.output(&view, &coins)
        }))
    }

    /// Estimates the success probability of a randomized Monte-Carlo
    /// construction algorithm on a fixed instance for a language `L`:
    /// `Pr[(G, (x, C(G,x,id))) ∈ L]` over the algorithm's coins.
    ///
    /// Each trial runs [`Simulator::run_randomized`] under the seed
    /// `(seed, trial)` of [`MonteCarlo`], collecting every view afresh.
    pub fn construction_success<A, L>(
        &self,
        algo: &A,
        instance: &Instance<'_>,
        language: &L,
        trials: u64,
        seed: u64,
    ) -> Estimate
    where
        A: RandomizedLocalAlgorithm + ?Sized,
        L: DistributedLanguage + ?Sized,
    {
        MonteCarlo::new(trials).with_seed(seed).estimate(|trial_seed| {
            let output = self.run_randomized(algo, instance, trial_seed);
            language.contains(&IoConfig::from_instance(instance, &output))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FnAlgorithm, FnRandomizedAlgorithm};
    use crate::labels::Label;
    use crate::language::FnLanguage;
    use rand::Rng;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;

    #[test]
    fn deterministic_run_applies_output_function_everywhere() {
        let g = cycle(128);
        let x = Labeling::empty(128);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(0, "own-id", |v: &View| Label::from_u64(v.center_id()));
        let out = Simulator::new().run(&algo, &inst);
        for v in g.nodes() {
            assert_eq!(out.get(v).as_u64(), ids.id(v));
        }
    }

    #[test]
    fn parallel_and_sequential_simulation_agree() {
        let g = cycle(200);
        let x = Labeling::empty(200);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(1, "sum-of-ids", |v: &View| {
            let total: u64 = (0..v.len()).map(|i| v.id(i)).sum();
            Label::from_u64(total)
        });
        let a = Simulator::new().run(&algo, &inst);
        let b = Labeling::new(
            g.nodes()
                .map(|v| LocalAlgorithm::output(&algo, &View::collect(&inst, v, 1)))
                .collect(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn randomized_run_is_reproducible_per_seed() {
        let g = cycle(64);
        let x = Labeling::empty(64);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnRandomizedAlgorithm::new(0, "random-bit", |v: &View, c: &Coins| {
            Label::from_bool(c.for_center(v).random_bool(0.5))
        });
        let s = SeedSequence::new(4).child(9);
        let out1 = Simulator::new().run_randomized(&algo, &inst, s);
        let coins = Coins::new(s);
        let out2 = Labeling::new(
            g.nodes().map(|v| algo.output(&View::collect(&inst, v, 0), &coins)).collect(),
        );
        assert_eq!(out1, out2);
        let out3 = Simulator::new().run_randomized(&algo, &inst, SeedSequence::new(4).child(10));
        assert_ne!(out1, out3);
    }

    #[test]
    fn auto_parallelism_never_changes_results_inside_parallel_regions() {
        // Run the simulator from inside a parallel Monte-Carlo batch (where
        // the fan-out rule forces inline evaluation) and outside it; the
        // outputs must agree exactly.
        let g = cycle(128);
        let x = Labeling::empty(128);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnRandomizedAlgorithm::new(1, "neighbor-coin", |v: &View, c: &Coins| {
            let total: u64 = (0..v.len())
                .map(|i| {
                    let mut rng = c.for_view_node(v, i);
                    rng.random::<u64>() & 0xFF
                })
                .sum();
            Label::from_u64(total)
        });
        let outer: Vec<Labeling> = (0..4)
            .map(|t| Simulator::new().run_randomized(&algo, &inst, SeedSequence::new(3).child(t)))
            .collect();
        let nested = MonteCarlo::new(4).with_seed(99).summarize(|_| {
            let inner: Vec<Labeling> = (0..4)
                .map(|t| {
                    Simulator::new().run_randomized(&algo, &inst, SeedSequence::new(3).child(t))
                })
                .collect();
            f64::from(inner == outer)
        });
        assert_eq!(nested.mean, 1.0);
    }

    #[test]
    fn construction_success_estimates_probability() {
        // Language: every node outputs 1. Constructor: each node outputs 1
        // with probability 0.9 independently; success probability 0.9^n.
        let g = cycle(4);
        let x = Labeling::empty(4);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnRandomizedAlgorithm::new(0, "mostly-one", |v: &View, c: &Coins| {
            Label::from_bool(c.for_center(v).random_bool(0.9))
        });
        let lang = FnLanguage::new("all-ones", |io: &IoConfig<'_>| {
            io.graph.nodes().all(|v| io.output.get(v).as_bool())
        });
        let est = Simulator::new().construction_success(&algo, &inst, &lang, 4000, 99);
        let expected = 0.9f64.powi(4);
        assert!(
            (est.p_hat - expected).abs() < 0.03,
            "estimate {} too far from {}",
            est.p_hat,
            expected
        );
    }
}
