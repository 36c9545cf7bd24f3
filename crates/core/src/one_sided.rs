//! The generic one-sided BPLD decider for LCL languages.
//!
//! Promoted from `rlnc-derand` (which re-exports it) so that every layer —
//! the language registry in `rlnc-langs`, the sweep workloads, the
//! derandomization pipeline — can build the standard decider for an
//! arbitrary LCL language without depending on the pipeline crate.

use crate::algorithm::Coins;
use crate::decision::RandomizedDecider;
use crate::language::{is_bad_view, LclLanguage};
use crate::view::View;
use rand::Rng;

/// The standard one-sided randomized decider for an arbitrary LCL language:
/// a node whose radius-`t` ball is good always accepts; a node whose ball
/// is bad rejects with probability `p` (and accepts with probability
/// `1 − p`).
///
/// On a yes-instance every node accepts deterministically; on a no-instance
/// with `b ≥ 1` bad balls the acceptance probability is `(1 − p)^b`. This
/// is the decider shape Claim 3 and the gluing argument feed on; the
/// boosting and glued-decay sweep workloads run its `ProperColoring`
/// instantiation (one `random_bool(p)` draw at bad centers, none at good
/// centers).
///
/// The verdict is the language's own bad-ball predicate on the view's
/// ball ([`is_bad_view`]), which borrows the view's labels, so it performs
/// **zero heap allocations** per node for every language whose
/// [`LclLanguage::is_bad_ball`] allocates nothing (all of `rlnc-langs`).
#[derive(Debug, Clone, Copy)]
pub struct OneSidedLclDecider<L> {
    language: L,
    p: f64,
}

impl<L: LclLanguage> OneSidedLclDecider<L> {
    /// Builds the decider with rejection probability `p` at bad-ball
    /// centers.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn new(language: L, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rejection probability must lie in [0, 1]");
        OneSidedLclDecider { language, p }
    }
}

impl<L: LclLanguage> RandomizedDecider for OneSidedLclDecider<L> {
    fn radius(&self) -> u32 {
        self.language.radius()
    }

    fn accepts(&self, view: &View, coins: &Coins) -> bool {
        if !is_bad_view(&self.language, view) {
            return true;
        }
        !coins.for_center(view).random_bool(self.p)
    }

    fn name(&self) -> String {
        format!("one-sided(p={}, {})", self.p, self.language.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;
    use crate::decision::decide_randomized;
    use crate::labels::{Label, Labeling};
    use crate::language::FnLcl;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::{IdAssignment, NodeId};
    use rlnc_par::rng::SeedSequence;

    fn coloring_lcl() -> FnLcl<impl Fn(&IoConfig<'_>, NodeId) -> bool + Sync> {
        FnLcl::new("proper-coloring", 1, |io: &IoConfig<'_>, v: NodeId| {
            io.graph
                .neighbor_ids(v)
                .any(|w| io.output.get(w) == io.output.get(v))
        })
    }

    #[test]
    fn accepts_proper_configurations_deterministically() {
        let g = cycle(12);
        let x = Labeling::empty(12);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2) + 1));
        let ids = IdAssignment::consecutive(&g);
        let io = IoConfig::new(&g, &x, &y);
        let d = OneSidedLclDecider::new(coloring_lcl(), 0.8);
        assert_eq!(RandomizedDecider::radius(&d), 1);
        assert!(d.name().contains("0.8"));
        for t in 0..10 {
            assert!(decide_randomized(&d, &io, &ids, SeedSequence::new(t)));
        }
    }

    #[test]
    fn rejects_bad_configurations_per_bad_ball() {
        use crate::decision::acceptance_probability;
        // All nodes share one label: every ball is bad, acceptance = (1-p)^n.
        let g = cycle(6);
        let x = Labeling::empty(6);
        let y = Labeling::from_fn(&g, |_| Label::from_u64(1));
        let ids = IdAssignment::consecutive(&g);
        let io = IoConfig::new(&g, &x, &y);
        let p = 0.5;
        let d = OneSidedLclDecider::new(coloring_lcl(), p);
        let est = acceptance_probability(&d, &io, &ids, 6000, 9);
        let expected = (1.0 - p).powi(6);
        assert!(
            (est.p_hat - expected).abs() < 0.02,
            "measured {} vs theory {expected}",
            est.p_hat
        );
    }

    #[test]
    #[should_panic(expected = "rejection probability")]
    fn rejects_bad_p() {
        let _ = OneSidedLclDecider::new(coloring_lcl(), -0.1);
    }
}
