//! The `amos` language ("at most one selected") and its golden-ratio
//! randomized decider (§2.3.1 of the paper).
//!
//! `amos = {(G,(x,y)) : |{v : y(v) = ★}| ≤ 1}`. It separates LD from BPLD:
//! no deterministic algorithm can decide it in fewer than `D/2 − 1` rounds
//! on graphs of diameter `D` (two selected nodes can be too far apart for
//! any node to see both), yet the zero-round randomized decider below
//! achieves guarantee `p = (√5 − 1)/2 ≈ 0.618 > 1/2`:
//!
//! * non-selected nodes always accept;
//! * selected nodes accept with probability `p` and reject with
//!   probability `1 − p`.
//!
//! On a configuration with one selected node the acceptance probability is
//! exactly `p`; with `k ≥ 2` selected nodes the rejection probability is
//! `1 − p^k ≥ 1 − p² = p` (the golden ratio is the fixed point of
//! `1 − p² = p`).

use rlnc_core::prelude::*;
use rand::Rng;
use rlnc_graph::NodeId;

/// The guarantee of the golden-ratio decider: `(√5 − 1)/2`.
pub const GOLDEN_GUARANTEE: f64 = 0.618_033_988_749_894_9;

/// The `amos` distributed language.
#[derive(Debug, Clone, Copy, Default)]
pub struct Amos;

impl Amos {
    /// Creates the language.
    pub fn new() -> Self {
        Amos
    }

    /// Number of selected nodes in a configuration.
    pub fn selected_count(io: &IoConfig<'_>) -> usize {
        io.graph.nodes().filter(|&v| io.output.get(v).as_bool()).count()
    }
}

impl DistributedLanguage for Amos {
    fn contains(&self, io: &IoConfig<'_>) -> bool {
        Self::selected_count(io) <= 1
    }

    fn name(&self) -> String {
        "amos".to_string()
    }
}

/// The zero-round golden-ratio randomized decider for `amos`.
#[derive(Debug, Clone, Copy)]
pub struct AmosGoldenDecider {
    p: f64,
}

impl Default for AmosGoldenDecider {
    fn default() -> Self {
        AmosGoldenDecider::new()
    }
}

impl AmosGoldenDecider {
    /// The decider with the optimal acceptance probability `(√5 − 1)/2`.
    pub fn new() -> Self {
        AmosGoldenDecider {
            p: GOLDEN_GUARANTEE,
        }
    }

    /// A variant with an arbitrary acceptance probability at selected
    /// nodes, for exploring the guarantee landscape around the golden ratio.
    pub fn with_probability(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        AmosGoldenDecider { p }
    }

    /// Theoretical guarantee of the decider as a function of `p`: the
    /// minimum of the yes-side probability (`p`, attained with one selected
    /// node) and the worst no-side probability (`1 − p²`, attained with two
    /// selected nodes).
    pub fn theoretical_guarantee(&self) -> f64 {
        self.p.min(1.0 - self.p * self.p)
    }
}

impl RandomizedDecider for AmosGoldenDecider {
    fn radius(&self) -> u32 {
        0
    }

    fn accepts(&self, view: &View, coins: &Coins) -> bool {
        if !view.output(view.center_local()).as_bool() {
            return true;
        }
        coins.for_center(view).random_bool(self.p)
    }

    fn name(&self) -> String {
        "amos-golden-decider".to_string()
    }
}

/// A constructor for `amos`: only the node with the globally smallest
/// identity within its radius-`t` view selects itself. When `t` is at least
/// the diameter this selects exactly one node (a correct, non-constant-time
/// construction); for smaller `t` several local minima may select
/// themselves, which is exactly the failure mode that makes `amos`
/// interesting.
#[derive(Debug, Clone, Copy)]
pub struct SelectLocalMinimum {
    radius: u32,
}

impl SelectLocalMinimum {
    /// Selects nodes that hold the minimum identity of their radius-`radius`
    /// view.
    pub fn new(radius: u32) -> Self {
        SelectLocalMinimum { radius }
    }
}

impl LocalAlgorithm for SelectLocalMinimum {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn output(&self, view: &View) -> Label {
        let min_id = (0..view.len()).map(|i| view.id(i)).min().unwrap();
        Label::from_bool(view.center_id() == min_id)
    }

    fn name(&self) -> String {
        format!("select-local-minimum(t={})", self.radius)
    }
}

/// The zero-round Bernoulli constructor for `amos`: every node selects
/// itself independently with probability `q`. It fails (two or more nodes
/// selected) with probability `1 − (1−q)^n − n·q·(1−q)^{n−1}`, which is the
/// positive failure rate β the derandomization pipeline's Claim-2/Claim-3
/// stages need from a concrete randomized constructor.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliSelection {
    q: f64,
}

impl BernoulliSelection {
    /// Each node selects itself with probability `q`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "selection probability must lie in [0, 1]");
        BernoulliSelection { q }
    }

    /// Theoretical failure probability (`≥ 2` selected) on an `n`-node
    /// instance.
    pub fn failure_probability(&self, n: usize) -> f64 {
        let keep = (1.0 - self.q).powi(n as i32 - 1);
        1.0 - keep * (1.0 - self.q) - n as f64 * self.q * keep
    }
}

impl RandomizedLocalAlgorithm for BernoulliSelection {
    fn radius(&self) -> u32 {
        0
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        Label::from_bool(coins.for_center(view).random_bool(self.q))
    }

    fn name(&self) -> String {
        format!("bernoulli-selection(q={})", self.q)
    }
}

/// Builds an output labeling with exactly the given nodes selected.
pub fn selection_output(n: usize, selected: &[NodeId]) -> Labeling {
    let mut labeling = Labeling::new(vec![Label::from_bool(false); n]);
    for &v in selected {
        labeling.set(v, Label::from_bool(true));
    }
    labeling
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::decision::acceptance_probability;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::{cycle, path};
    use rlnc_graph::IdAssignment;

    #[test]
    fn amos_membership_counts_selected_nodes() {
        let g = cycle(7);
        let x = Labeling::empty(7);
        let lang = Amos::new();
        for (selected, expect) in [(vec![], true), (vec![NodeId(3)], true), (vec![NodeId(1), NodeId(5)], false)] {
            let y = selection_output(7, &selected);
            let io = IoConfig::new(&g, &x, &y);
            assert_eq!(lang.contains(&io), expect);
            assert_eq!(Amos::selected_count(&io), selected.len());
        }
        assert_eq!(lang.name(), "amos");
    }

    #[test]
    fn golden_guarantee_is_the_fixed_point() {
        let p = GOLDEN_GUARANTEE;
        assert!((p * p + p - 1.0).abs() < 1e-12, "p² + p = 1 must hold");
        let decider = AmosGoldenDecider::new();
        assert!((decider.theoretical_guarantee() - p).abs() < 1e-12);
        // Any other p gives a strictly smaller guarantee.
        for other in [0.5, 0.55, 0.65, 0.7, 0.9] {
            assert!(AmosGoldenDecider::with_probability(other).theoretical_guarantee() < p);
        }
    }

    #[test]
    fn measured_acceptance_matches_theory_per_selected_count() {
        let g = cycle(12);
        let x = Labeling::empty(12);
        let ids = IdAssignment::consecutive(&g);
        let decider = AmosGoldenDecider::new();
        for (selected, expected) in [
            (vec![], 1.0),
            (vec![NodeId(0)], GOLDEN_GUARANTEE),
            (vec![NodeId(0), NodeId(6)], GOLDEN_GUARANTEE * GOLDEN_GUARANTEE),
            (
                vec![NodeId(0), NodeId(4), NodeId(8)],
                GOLDEN_GUARANTEE.powi(3),
            ),
        ] {
            let y = selection_output(12, &selected);
            let io = IoConfig::new(&g, &x, &y);
            let est = acceptance_probability(&decider, &io, &ids, 6000, 17);
            assert!(
                (est.p_hat - expected).abs() < 0.03,
                "selected={}: measured {} vs theory {}",
                selected.len(),
                est.p_hat,
                expected
            );
        }
    }

    #[test]
    fn decider_guarantee_exceeds_one_half_on_both_sides() {
        let g = path(9);
        let x = Labeling::empty(9);
        let ids = IdAssignment::consecutive(&g);
        let decider = AmosGoldenDecider::new();
        // Yes-instance: one selected node.
        let yes = selection_output(9, &[NodeId(4)]);
        let io_yes = IoConfig::new(&g, &x, &yes);
        let yes_acc = acceptance_probability(&decider, &io_yes, &ids, 6000, 3);
        assert!(yes_acc.p_hat > 0.55);
        // No-instance: two selected nodes at the two ends (distance 8 — no
        // node can see both within o(D) rounds, yet the randomized decider
        // still rejects with probability > 1/2).
        let no = selection_output(9, &[NodeId(0), NodeId(8)]);
        let io_no = IoConfig::new(&g, &x, &no);
        let no_acc = acceptance_probability(&decider, &io_no, &ids, 6000, 4);
        assert!(1.0 - no_acc.p_hat > 0.55);
    }

    #[test]
    fn local_minimum_selection_is_correct_with_global_view_only() {
        let g = cycle(16);
        let x = Labeling::empty(16);
        let ids = IdAssignment::random_permutation(&g, &mut rand::rng());
        let inst = Instance::new(&g, &x, &ids);
        let lang = Amos::new();
        // Global view (radius ≥ diameter): exactly one node selects.
        let global = SelectLocalMinimum::new(8);
        let out = Simulator::new().run(&global, &inst);
        assert!(lang.contains(&IoConfig::new(&g, &x, &out)));
        assert_eq!(Amos::selected_count(&IoConfig::new(&g, &x, &out)), 1);
        // Radius-1 view on a 16-cycle: several local minima select.
        let local = SelectLocalMinimum::new(1);
        let out = Simulator::new().run(&local, &inst);
        assert!(Amos::selected_count(&IoConfig::new(&g, &x, &out)) >= 2);
    }

    #[test]
    fn bernoulli_selection_fails_with_the_predicted_probability() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let constructor = BernoulliSelection::new(0.2);
        assert_eq!(RandomizedLocalAlgorithm::radius(&constructor), 0);
        assert!(constructor.name().contains("0.2"));
        let lang = Amos::new();
        let est = Simulator::new().construction_success(&constructor, &inst, &lang, 6000, 17);
        let failure = constructor.failure_probability(10);
        assert!(failure > 0.3 && failure < 0.9, "failure {failure} not informative");
        assert!(
            ((1.0 - est.p_hat) - failure).abs() < 0.03,
            "measured failure {} vs theory {failure}",
            1.0 - est.p_hat
        );
    }

    #[test]
    #[should_panic(expected = "selection probability")]
    fn bernoulli_selection_rejects_bad_probability() {
        let _ = BernoulliSelection::new(1.5);
    }
}
