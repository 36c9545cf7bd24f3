//! The `majority` language (§2.2.2).
//!
//! `majority` requires that a (strict) majority of the nodes output the
//! selected mark `★`. The paper uses it as the canonical example of a
//! language that is **constructible** in constant time (zero rounds: every
//! node selects itself) but **not decidable** in constant time — counting
//! selected nodes against `n/2` is a global property. It is the mirror
//! image of coloring, which is decidable but not constructible in constant
//! time.

use rlnc_core::prelude::*;
use rand::Rng;

/// The `majority` distributed language.
#[derive(Debug, Clone, Copy, Default)]
pub struct Majority;

impl Majority {
    /// Creates the language.
    pub fn new() -> Self {
        Majority
    }

    /// Number of selected nodes in a configuration.
    pub fn selected_count(io: &IoConfig<'_>) -> usize {
        io.graph.nodes().filter(|&v| io.output.get(v).as_bool()).count()
    }
}

impl DistributedLanguage for Majority {
    fn contains(&self, io: &IoConfig<'_>) -> bool {
        2 * Self::selected_count(io) > io.node_count()
    }

    fn name(&self) -> String {
        "majority".to_string()
    }
}

/// The zero-round constructor: every node selects itself. Trivially correct
/// for `majority` on every graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllSelected;

impl LocalAlgorithm for AllSelected {
    fn radius(&self) -> u32 {
        0
    }

    fn output(&self, _view: &View) -> Label {
        Label::from_bool(true)
    }

    fn name(&self) -> String {
        "all-selected".to_string()
    }
}

/// A natural but doomed constant-radius decider attempt for `majority`:
/// accept iff at least half of the nodes in the radius-`t` view are
/// selected. Useful in tests and experiments to exhibit configurations
/// where every local view looks balanced while the global count is not.
#[derive(Debug, Clone, Copy)]
pub struct LocalMajorityDecider {
    radius: u32,
}

impl LocalMajorityDecider {
    /// The decider that looks at radius-`radius` views.
    pub fn new(radius: u32) -> Self {
        LocalMajorityDecider { radius }
    }
}

impl LocalDecider for LocalMajorityDecider {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn accepts(&self, view: &View) -> bool {
        let selected = (0..view.len()).filter(|&i| view.output(i).as_bool()).count();
        2 * selected >= view.len()
    }

    fn name(&self) -> String {
        format!("local-majority-decider(t={})", self.radius)
    }
}

/// The one-sided randomized decider built on the doomed local-majority
/// proxy: a node whose radius-`t` view is at least half selected accepts;
/// otherwise it rejects with probability `p`. `majority` is not in BPLD —
/// no local decider has a real guarantee — but the pipeline's boosting and
/// gluing stages only need *a* randomized decider whose acceptance decays
/// with the number of under-selected regions, which this one supplies (and
/// its local-proxy errors are exactly the phenomenon
/// [`LocalMajorityDecider`] exhibits deterministically).
#[derive(Debug, Clone, Copy)]
pub struct OneSidedLocalMajorityDecider {
    radius: u32,
    p: f64,
}

impl OneSidedLocalMajorityDecider {
    /// The decider over radius-`radius` views with rejection probability
    /// `p` at under-selected centers.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn new(radius: u32, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rejection probability must lie in [0, 1]");
        OneSidedLocalMajorityDecider { radius, p }
    }
}

impl RandomizedDecider for OneSidedLocalMajorityDecider {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn accepts(&self, view: &View, coins: &Coins) -> bool {
        let selected = (0..view.len()).filter(|&i| view.output(i).as_bool()).count();
        if 2 * selected >= view.len() {
            return true;
        }
        !coins.for_center(view).random_bool(self.p)
    }

    fn name(&self) -> String {
        format!("one-sided-local-majority(t={}, p={})", self.radius, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::decision::decide;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::{IdAssignment, NodeId};

    #[test]
    fn majority_counts_strictly() {
        let g = cycle(4);
        let x = Labeling::empty(4);
        let half = Labeling::from_fn(&g, |v| Label::from_bool(v.0 < 2));
        assert!(!Majority::new().contains(&IoConfig::new(&g, &x, &half)));
        let three = Labeling::from_fn(&g, |v| Label::from_bool(v.0 < 3));
        assert!(Majority::new().contains(&IoConfig::new(&g, &x, &three)));
        assert_eq!(Majority::selected_count(&IoConfig::new(&g, &x, &three)), 3);
    }

    #[test]
    fn all_selected_constructs_majority_in_zero_rounds() {
        let g = cycle(11);
        let x = Labeling::empty(11);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let out = Simulator::new().run(&AllSelected, &inst);
        assert!(Majority::new().contains(&IoConfig::new(&g, &x, &out)));
    }

    #[test]
    fn one_sided_local_majority_decider_is_one_sided() {
        use rlnc_core::decision::{acceptance_probability, decide_randomized};
        use rlnc_par::SeedSequence;
        let g = cycle(8);
        let x = Labeling::empty(8);
        let ids = IdAssignment::consecutive(&g);
        let decider = OneSidedLocalMajorityDecider::new(1, 0.75);
        assert_eq!(RandomizedDecider::radius(&decider), 1);
        // All selected: every view is majority-selected, deterministic accept.
        let all = Labeling::from_fn(&g, |_| Label::from_bool(true));
        let io = IoConfig::new(&g, &x, &all);
        for t in 0..8 {
            assert!(decide_randomized(&decider, &io, &ids, SeedSequence::new(t)));
        }
        // None selected: every center is under-selected, acceptance
        // ≈ (1 − p)^n — far below 1/2, the decay the pipeline feeds on.
        let none = Labeling::from_fn(&g, |_| Label::from_bool(false));
        let io = IoConfig::new(&g, &x, &none);
        let est = acceptance_probability(&decider, &io, &ids, 4000, 7);
        let expected = 0.25f64.powi(8);
        assert!((est.p_hat - expected).abs() < 0.02);
    }

    #[test]
    fn local_decider_errs_on_clustered_selections() {
        // The natural constant-radius rule ("accept iff my view is at least
        // half selected") cannot decide majority: when the selected nodes
        // are clustered, nodes deep inside the unselected region see no
        // selected node at all and reject, even though globally a strict
        // majority is selected — a yes-instance wrongly rejected. This is
        // the local-indistinguishability phenomenon that keeps majority out
        // of LD.
        let g = cycle(16);
        let x = Labeling::empty(16);
        let ids = IdAssignment::consecutive(&g);
        // Nodes 0..=8 selected: 9 of 16 — a strict majority, but clustered.
        let clustered = Labeling::from_fn(&g, |v| Label::from_bool(v.0 <= 8));
        let io = IoConfig::new(&g, &x, &clustered);
        assert!(Majority::new().contains(&io));
        let decider = LocalMajorityDecider::new(1);
        assert!(
            !decide(&decider, &io, &ids),
            "node 12's view is all-unselected, so the local rule wrongly rejects"
        );
        // The same rule accepts an evenly spread 50% selection, which is NOT
        // a strict majority — wrong in the other direction too (every
        // unselected node sees 2 of 3 selected; every selected node sees 1
        // of 3 and... the rule uses ≥ half of the view, so 1 of 3 rejects).
        // Verify at least the yes-side failure and the trivial cases.
        let all = Labeling::from_fn(&g, |_| Label::from_bool(true));
        assert!(decide(&decider, &IoConfig::new(&g, &x, &all), &ids));
        let none = Labeling::from_fn(&g, |_| Label::from_bool(false));
        assert!(!decide(&decider, &IoConfig::new(&g, &x, &none), &ids));
        let _ = NodeId(0);
    }
}
