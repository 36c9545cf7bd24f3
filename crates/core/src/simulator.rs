//! The LOCAL-model simulator: runs construction algorithms on instances.
//!
//! The simulator uses the ball-view formulation of §2.1: for every node it
//! collects the radius-`t` view with [`View::collect`] and evaluates the
//! algorithm's output function. That per-node collection is the reference
//! the engine's equivalence suites compare the arena-backed cached views
//! against.
//!
//! Per-node work is independent, so it fans out over the pool when the
//! workspace's one rule, [`fans_out`], says so; determinism is preserved
//! because each node's coins are derived from the (execution seed, node)
//! pair, not from scheduling order. A node's cost includes its ball
//! extraction, which is not known in advance, so each node counts as
//! `FAN_OUT_WORK / 64`: 64 nodes fan out, and a simulator inside a pool
//! task never does.
//!
//! Monte-Carlo estimation over a fixed instance
//! ([`Simulator::construction_success`]) collects every node's view
//! **once** via [`View::collect_all`] and reuses the cached views across
//! all trials — the same plan-then-execute split the `rlnc-engine` crate
//! exposes as a full subsystem (an `ExecutionPlan` and its batched
//! passes, such as `ExecutionPlan::estimate`).

use crate::algorithm::{Coins, LocalAlgorithm, RandomizedLocalAlgorithm};
use crate::config::{Instance, IoConfig};
use crate::labels::Labeling;
use crate::language::DistributedLanguage;
use crate::view::View;
use rayon::prelude::*;
use rlnc_par::pool::{fans_out, FAN_OUT_WORK};
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

    /// Runs a deterministic algorithm, returning the output labeling.
    pub fn run<A: LocalAlgorithm + ?Sized>(&self, algo: &A, instance: &Instance<'_>) -> Labeling {
        let t = algo.radius();
        let outputs = self.map_nodes(instance, |v| {
            let view = View::collect(instance, v, t);
            algo.output(&view)
        });
        Labeling::new(outputs)
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
        let outputs = self.map_nodes(instance, |v| {
            let view = View::collect(instance, v, t);
            algo.output(&view, &coins)
        });
        Labeling::new(outputs)
    }

    /// Estimates the success probability of a randomized Monte-Carlo
    /// construction algorithm on a fixed instance for a language `L`:
    /// `Pr[(G, (x, C(G,x,id))) ∈ L]` over the algorithm's coins.
    ///
    /// The instance is fixed across trials, so every node's view is
    /// collected **once** ([`View::collect_all`]) and all trials evaluate
    /// against the cached views; only the coins (and hence the outputs)
    /// change per trial. The per-trial success stream is bit-identical to
    /// re-simulating from scratch each trial.
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
        let views = View::collect_all(instance, algo.radius());
        MonteCarlo::new(trials).with_seed(seed).estimate(|trial_seed| {
            let coins = Coins::new(trial_seed);
            let output = Labeling::new(views.iter().map(|v| algo.output(v, &coins)).collect());
            let io = IoConfig::from_instance(instance, &output);
            language.contains(&io)
        })
    }

    fn map_nodes<T, F>(&self, instance: &Instance<'_>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(NodeId) -> T + Sync,
    {
        let n = instance.graph.node_count();
        if fans_out((n as u64).saturating_mul(FAN_OUT_WORK / 64)) {
            (0..n)
                .into_par_iter()
                .map(|i| f(NodeId::from_index(i)))
                .collect()
        } else {
            (0..n).map(|i| f(NodeId::from_index(i))).collect()
        }
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
