//! Fault injection for constructors.
//!
//! The derandomization experiments need concrete "Monte-Carlo constructors
//! that err with probability β": the proof of Theorem 1 treats the
//! constructor as an adversary whose only relevant property is its failure
//! probability on hard instances. [`FaultyConstructor`] produces such
//! constructors from correct ones: it corrupts each node's output
//! independently with a given probability, so the per-instance failure
//! probability is `1 − (1 − q)^n` (tunable by `q`).
//!
//! Configurations with a *known, planted* number of bad balls (the
//! `f`-resilient decider experiments, E5) come from
//! `rlnc_sweep::workload::planted_bad_balls`, not from a constructor.

use rlnc_core::prelude::*;
use rand::Rng;

/// Wraps a randomized constructor and corrupts each node's output
/// independently with probability `fault_probability` (the corrupt output
/// is a fixed label, by default a color/bit that collides with neighbors).
pub struct FaultyConstructor<A> {
    inner: A,
    fault_probability: f64,
    corrupt_label: Label,
}

impl<A: RandomizedLocalAlgorithm> FaultyConstructor<A> {
    /// Wraps `inner`, corrupting each node's output to `corrupt_label` with
    /// the given probability.
    pub fn new(inner: A, fault_probability: f64, corrupt_label: Label) -> Self {
        assert!((0.0..=1.0).contains(&fault_probability));
        FaultyConstructor {
            inner,
            fault_probability,
            corrupt_label,
        }
    }

    /// The expected failure probability of the wrapped constructor on an
    /// `n`-node instance whose inner constructor never fails:
    /// `1 − (1 − q)^n`.
    pub fn expected_failure_probability(&self, n: usize) -> f64 {
        1.0 - (1.0 - self.fault_probability).powi(n as i32)
    }
}

impl<A: RandomizedLocalAlgorithm> RandomizedLocalAlgorithm for FaultyConstructor<A> {
    fn radius(&self) -> u32 {
        self.inner.radius()
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        let honest = self.inner.output(view, coins);
        // Draw the corruption coin from a stream decorrelated from the
        // inner algorithm's: skip ahead by a fixed offset.
        let mut rng = coins.for_center(view);
        let _ = rng.random::<u64>();
        let _ = rng.random::<u64>();
        let _ = rng.random::<u64>();
        if rng.random_bool(self.fault_probability) {
            self.corrupt_label
        } else {
            honest
        }
    }

    fn name(&self) -> String {
        format!("faulty({:.2}, {})", self.fault_probability, self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{GlobalGreedyColoring, ProperColoring};
    use crate::random_coloring::RandomColoring;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;
    use rlnc_par::rng::SeedSequence;

    #[test]
    fn faulty_constructor_failure_rate_matches_formula() {
        let n = 16;
        let g = cycle(n);
        let x = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        // Inner constructor: a correct global greedy 3-coloring.
        let inner = GlobalGreedyColoring::new(16, 3);
        let q = 0.1;
        let faulty = FaultyConstructor::new(inner, q, Label::from_u64(0));
        let lang = ProperColoring::new(3);
        let est = Simulator::new().construction_success(&faulty, &inst, &lang, 4000, 31);
        let expected_success = (1.0 - q).powi(n as i32);
        assert!(
            (est.p_hat - expected_success).abs() < 0.03,
            "success {} should be near {}",
            est.p_hat,
            expected_success
        );
        assert!((faulty.expected_failure_probability(n) - (1.0 - expected_success)).abs() < 1e-9);
        assert!(faulty.name().contains("faulty"));
    }

    #[test]
    fn zero_fault_probability_is_the_identity_wrapper() {
        let g = cycle(9);
        let x = Labeling::empty(9);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let seed = SeedSequence::new(8).child(0);
        let inner = RandomColoring::new(3);
        let wrapped = FaultyConstructor::new(RandomColoring::new(3), 0.0, Label::from_u64(0));
        let a = Simulator::new().run_randomized(&inner, &inst, seed);
        let b = Simulator::new().run_randomized(&wrapped, &inst, seed);
        // The wrapper consumes extra coins from the same stream, so equality
        // is not expected label-by-label; but with fault probability 0 the
        // wrapper never outputs the corrupt label 0.
        for v in g.nodes() {
            assert_ne!(b.get(v).as_u64(), 0);
        }
        let _ = a;
    }
}
