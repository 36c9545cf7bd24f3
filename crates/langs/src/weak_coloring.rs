//! Weak 2-coloring.
//!
//! A weak coloring asks every non-isolated node to have *at least one*
//! neighbor with a different color. Naor and Stockmeyer identified weak
//! coloring as one of the rare non-trivial tasks that is both decidable
//! and constructible in constant time (on odd-degree graphs); the paper
//! cites it in §1.1 and §2.2.2 as its running example of that phenomenon.
//!
//! This module provides the language, the zero-round randomized constructor
//! (each node flips a fair coin — a node fails only when its whole closed
//! neighborhood lands on the same side, probability `2^{-deg(v)}`), and the
//! one-round [`LocalMinimumMarking`] deterministic constructor, which marks
//! local identity minima: every *marked* node is guaranteed a differently
//! colored neighbor, and every node adjacent to a local minimum is too.
//! (A fully general constant-round deterministic weak coloring needs the
//! heavier Naor–Stockmeyer machinery; the experiments only rely on the
//! language and the randomized constructor.)

use rlnc_core::prelude::*;
use rand::Rng;
use rlnc_graph::NodeId;

/// The weak 2-coloring language: every non-isolated node has a neighbor
/// with a different color.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeakColoring;

impl WeakColoring {
    /// Creates the language.
    pub fn new() -> Self {
        WeakColoring
    }
}

impl LclLanguage for WeakColoring {
    fn radius(&self) -> u32 {
        1
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        if io.graph.degree(v) == 0 {
            return false;
        }
        let mine = io.output.get(v);
        io.graph.neighbor_ids(v).all(|w| io.output.get(w) == mine)
    }

    fn is_bad_view(&self, view: &View) -> bool {
        // Bad iff the center has neighbors and none of them differs.
        let mine = view.output(view.center_local());
        let (mut any, mut differs) = (false, false);
        for i in view.center_neighbor_indices() {
            any = true;
            differs |= view.output(i) != mine;
        }
        // No neighbor in the ball: isolated (at radius ≥ 1), never bad.
        any && !differs
    }

    fn name(&self) -> String {
        "weak-2-coloring".to_string()
    }
}

/// The zero-round randomized constructor: output a fair random bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomBitColoring;

impl RandomizedLocalAlgorithm for RandomBitColoring {
    fn radius(&self) -> u32 {
        0
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        Label::from_bool(coins.for_center(view).random_bool(0.5))
    }

    fn name(&self) -> String {
        "random-bit-coloring".to_string()
    }
}

/// The one-round local-minimum marking: output `1` iff the center's
/// identity is smaller than all of its neighbors'. Marked nodes always have
/// a differently colored neighbor (their neighbors cannot also be local
/// minima); unmarked nodes adjacent to a local minimum do too. Nodes that
/// are neither local minima nor adjacent to one keep color `0` next to
/// same-colored neighbors — the constructor is exact on graphs (such as
/// stars, or cycles/paths whose identity order alternates often enough)
/// where every node is within one hop of a local minimum, and the tests
/// only claim that.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalMinimumMarking;

impl LocalAlgorithm for LocalMinimumMarking {
    fn radius(&self) -> u32 {
        1
    }

    fn output(&self, view: &View) -> Label {
        let mine = view.center_id();
        Label::from_bool(view.center_neighbors().iter().all(|&i| view.id(i) > mine))
    }

    fn name(&self) -> String {
        "local-minimum-marking".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::language::bad_ball_count;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::{cycle, star};
    use rlnc_graph::IdAssignment;

    #[test]
    fn weak_coloring_language_semantics() {
        let g = cycle(6);
        let x = Labeling::empty(6);
        let lang = WeakColoring::new();
        let alternating = Labeling::from_fn(&g, |v| Label::from_bool(v.0 % 2 == 0));
        assert!(lang.contains(&IoConfig::new(&g, &x, &alternating)));
        let constant = Labeling::from_fn(&g, |_| Label::from_bool(true));
        let io = IoConfig::new(&g, &x, &constant);
        assert!(!lang.contains(&io));
        assert_eq!(bad_ball_count(&lang, &io), 6);
        // A proper coloring is in particular a weak coloring.
        let proper = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        assert!(lang.contains(&IoConfig::new(&g, &x, &proper)));
    }

    #[test]
    fn isolated_nodes_are_never_bad() {
        let g = rlnc_graph::Graph::empty(3);
        let x = Labeling::empty(3);
        let y = Labeling::from_fn(&g, |_| Label::from_bool(true));
        assert!(WeakColoring::new().contains(&IoConfig::new(&g, &x, &y)));
    }

    #[test]
    fn random_bits_weakly_color_most_nodes() {
        let n = 400;
        let g = cycle(n);
        let x = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let lang = WeakColoring::new();
        let mc = rlnc_par::trials::MonteCarlo::new(100).with_seed(5);
        let summary = mc.summarize(|seed| {
            let out = Simulator::new().run_randomized(&RandomBitColoring, &inst, seed);
            bad_ball_count(&lang, &IoConfig::new(&g, &x, &out)) as f64 / n as f64
        });
        // On the ring the per-node failure probability is 2^{-2} = 1/4.
        assert!((summary.mean - 0.25).abs() < 0.02);
    }

    #[test]
    fn local_minimum_marking_weakly_colors_stars_and_alternating_cycles() {
        // Star: the center or a leaf is the unique local minimum; every node
        // is within one hop of it, so the weak coloring is exact.
        let g = star(9);
        let x = Labeling::empty(9);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let out = Simulator::new().run(&LocalMinimumMarking, &inst);
        assert!(WeakColoring::new().contains(&IoConfig::new(&g, &x, &out)));

        // Cycle with alternating-ish identities: local minima appear every
        // other node, so every node has a marked or unmarked neighbor of the
        // opposite kind.
        let g = cycle(8);
        let x = Labeling::empty(8);
        let zigzag = IdAssignment::new(vec![1, 9, 2, 10, 3, 11, 4, 12]);
        let inst = Instance::new(&g, &x, &zigzag);
        let out = Simulator::new().run(&LocalMinimumMarking, &inst);
        assert!(WeakColoring::new().contains(&IoConfig::new(&g, &x, &out)));
    }

    #[test]
    fn local_minimum_marking_fails_on_consecutive_cycles() {
        // On the consecutive-ID cycle only node 1 is a local minimum, so
        // nodes far from it are monochromatic with their neighbors — the
        // usual order-invariant-style failure.
        let g = cycle(32);
        let x = Labeling::empty(32);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let out = Simulator::new().run(&LocalMinimumMarking, &inst);
        let io = IoConfig::new(&g, &x, &out);
        assert!(!WeakColoring::new().contains(&io));
        assert!(bad_ball_count(&WeakColoring::new(), &io) > 20);
    }
}
