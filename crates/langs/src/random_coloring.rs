//! The zero-round uniformly random coloring — the ε-slack constructor.
//!
//! §1.1 of the paper: "the trivial randomized algorithm in which every node
//! picks independently uniformly at random a color 1, 2, or 3, enables to
//! guarantee that, with constant probability, a fraction 1 − ε of the nodes
//! are properly colored". §5 uses the same algorithm (with Δ+1 colors) to
//! separate BPLD from BPLD^{#node}. This module provides that constructor;
//! experiment E2 measures the fraction it properly colors and experiment E9
//! compares it against every deterministic constant-round alternative.

use rlnc_core::prelude::*;
use rand::Rng;

/// The zero-round constructor: output a uniformly random color in
/// `{1, ..., colors}`, independently at every node.
#[derive(Debug, Clone, Copy)]
pub struct RandomColoring {
    colors: u64,
}

impl RandomColoring {
    /// Random coloring with the given palette size.
    pub fn new(colors: u64) -> Self {
        assert!(colors >= 1);
        RandomColoring { colors }
    }

    /// The expected fraction of properly colored nodes on a `d`-regular
    /// graph: each neighbor collides with probability `1/colors`, so a node
    /// is proper with probability `(1 − 1/colors)^d`.
    pub fn expected_proper_fraction(&self, degree: usize) -> f64 {
        (1.0 - 1.0 / self.colors as f64).powi(degree as i32)
    }
}

impl RandomizedLocalAlgorithm for RandomColoring {
    fn radius(&self) -> u32 {
        0
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        let mut rng = coins.for_center(view);
        Label::from_u64(rng.random_range(1..=self.colors))
    }

    fn name(&self) -> String {
        format!("random-{}-coloring", self.colors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{improperly_colored_nodes, ProperColoring};
    use rlnc_core::relaxation::EpsilonSlack;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;
    use rlnc_par::rng::SeedSequence;
    use rlnc_par::trials::MonteCarlo;

    #[test]
    fn expected_proper_fraction_on_the_ring_is_four_ninths_per_pair() {
        // On the ring with 3 colors, a node is properly colored w.p. (2/3)^2.
        let algo = RandomColoring::new(3);
        assert!((algo.expected_proper_fraction(2) - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn measured_proper_fraction_matches_expectation() {
        let n = 512;
        let g = cycle(n);
        let x = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = RandomColoring::new(3);
        let lang = ProperColoring::new(3);
        let mc = MonteCarlo::new(200).with_seed(21);
        let summary = mc.summarize(|seed| {
            let out = Simulator::new().run_randomized(&algo, &inst, seed);
            let io = IoConfig::new(&g, &x, &out);
            1.0 - improperly_colored_nodes(&lang, &io) as f64 / n as f64
        });
        assert!(
            (summary.mean - 4.0 / 9.0).abs() < 0.03,
            "mean proper fraction {} should be near 4/9",
            summary.mean
        );
    }

    #[test]
    fn random_coloring_solves_epsilon_slack_with_constant_probability() {
        // With ε comfortably above the expected improper fraction (5/9), the
        // random coloring lands in the ε-slack relaxation with probability
        // close to 1 (concentration), and certainly with constant
        // probability — the §1.1 claim.
        let n = 256;
        let g = cycle(n);
        let x = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = RandomColoring::new(3);
        let relaxed = EpsilonSlack::new(ProperColoring::new(3), 0.62);
        let est = Simulator::new().construction_success(&algo, &inst, &relaxed, 400, 5);
        assert!(est.p_hat > 0.8, "ε-slack success probability {} too small", est.p_hat);
    }

    #[test]
    fn zero_round_outputs_do_not_depend_on_neighbors() {
        // The output at a node depends only on its own coins: rerunning with
        // the same execution seed on a different graph containing the same
        // node index yields the same color.
        let g1 = cycle(8);
        let g2 = cycle(50);
        let x1 = Labeling::empty(8);
        let x2 = Labeling::empty(50);
        let ids1 = IdAssignment::consecutive(&g1);
        let ids2 = IdAssignment::consecutive(&g2);
        let algo = RandomColoring::new(4);
        let seed = SeedSequence::new(77).child(0);
        let out1 = Simulator::new().run_randomized(&algo, &Instance::new(&g1, &x1, &ids1), seed);
        let out2 = Simulator::new().run_randomized(&algo, &Instance::new(&g2, &x2, &ids2), seed);
        for i in 0..8u32 {
            assert_eq!(out1.get(rlnc_graph::NodeId(i)), out2.get(rlnc_graph::NodeId(i)));
        }
    }
}
