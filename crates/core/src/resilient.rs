//! The Corollary-1 randomized decider for `f`-resilient relaxations.
//!
//! Corollary 1 proves `L_f ∈ BPLD` by exhibiting a zero-error-radius
//! randomized decider: every node inspects its radius-`t` ball; nodes whose
//! ball is good accept; nodes whose ball is bad accept with probability `p`
//! and reject with probability `1 − p`, where
//!
//! `p ∈ ( 2^{-1/f}, 2^{-1/(f+1)} )`.
//!
//! * If `(G,(x,y)) ∈ L_f`, there are at most `f` bad balls, so all nodes
//!   accept with probability `p^{|F(G)|} ≥ p^f > 1/2`.
//! * If `(G,(x,y)) ∉ L_f`, there are at least `f + 1` bad balls, so some
//!   node rejects with probability `1 − p^{|F(G)|} ≥ 1 − p^{f+1} > 1/2`.
//!
//! This is the decider fed into Theorem 1 to conclude that randomization
//! does not help for `f`-resilient construction tasks.

use crate::algorithm::Coins;
use crate::decision::RandomizedDecider;
use crate::language::{is_bad_view, LclLanguage};
use crate::view::View;
use rand::Rng;

/// The acceptance probability used at bad-ball centers: the geometric-style
/// midpoint of the open interval `(2^{-1/f}, 2^{-1/(f+1)})` prescribed by
/// the proof of Corollary 1.
pub fn resilient_acceptance_probability(f: usize) -> f64 {
    assert!(f > 0, "the f-resilient decider requires f > 0");
    let exponent = 0.5 * (1.0 / f as f64 + 1.0 / (f as f64 + 1.0));
    2f64.powf(-exponent)
}

/// Theoretical acceptance probability of the decider on a configuration
/// with `bad` bad balls: `p^{bad}`.
pub fn theoretical_acceptance(f: usize, bad: usize) -> f64 {
    resilient_acceptance_probability(f).powi(bad as i32)
}

/// The Corollary-1 decider for `L_f`, parameterized by the underlying LCL
/// language (which supplies `Bad(L)` and the checking radius `t`).
#[derive(Debug, Clone)]
pub struct ResilientDecider<L> {
    language: L,
    f: usize,
    p: f64,
}

impl<L: LclLanguage> ResilientDecider<L> {
    /// Builds the decider for the `f`-resilient relaxation of `language`.
    pub fn new(language: L, f: usize) -> Self {
        let p = resilient_acceptance_probability(f);
        ResilientDecider { language, f, p }
    }

    /// Builds the decider with an explicit acceptance probability (for
    /// sensitivity experiments outside the prescribed interval).
    pub fn with_probability(language: L, f: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        ResilientDecider { language, f, p }
    }

    /// Checks the two strict inequalities from the proof of Corollary 1:
    /// `p^f > 1/2` and `1 − p^{f+1} > 1/2`.
    pub fn interval_is_valid(&self) -> bool {
        self.p.powi(self.f as i32) > 0.5 && self.p.powi(self.f as i32 + 1) < 0.5
    }
}

impl<L: LclLanguage> RandomizedDecider for ResilientDecider<L> {
    fn radius(&self) -> u32 {
        self.language.radius()
    }

    fn accepts(&self, view: &View, coins: &Coins) -> bool {
        // An LCL predicate of radius t evaluated at the center of a
        // radius-t view only reads data inside the view, so the language's
        // own predicate on the view's ball is exact, and it copies nothing.
        if !is_bad_view(&self.language, view) {
            return true;
        }
        coins.for_center(view).random_bool(self.p)
    }

    fn name(&self) -> String {
        format!("resilient-decider(f={}, {})", self.f, self.language.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;
    use crate::decision::{acceptance_probability, decide_randomized};
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
    fn acceptance_probability_lies_in_prescribed_interval() {
        for f in 1..=16 {
            let p = resilient_acceptance_probability(f);
            let lower = 2f64.powf(-1.0 / f as f64);
            let upper = 2f64.powf(-1.0 / (f as f64 + 1.0));
            assert!(lower < p && p < upper, "f={f}: p={p} outside ({lower}, {upper})");
            // The two strict inequalities the proof needs.
            assert!(p.powi(f as i32) > 0.5);
            assert!(p.powi(f as i32 + 1) < 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "f > 0")]
    fn zero_resilience_rejected() {
        let _ = resilient_acceptance_probability(0);
    }

    #[test]
    fn decider_always_accepts_proper_configurations() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let ids = IdAssignment::consecutive(&g);
        let io = IoConfig::new(&g, &x, &y);
        let decider = ResilientDecider::new(coloring_lcl(), 2);
        assert!(decider.interval_is_valid());
        for trial in 0..50 {
            assert!(decide_randomized(
                &decider,
                &io,
                &ids,
                SeedSequence::new(1).child(trial)
            ));
        }
    }

    #[test]
    fn acceptance_decays_as_p_to_the_number_of_bad_balls() {
        // All nodes colored 1 on C_8: every ball is bad, |F| = 8 > f + 1.
        let g = cycle(8);
        let x = Labeling::empty(8);
        let y = Labeling::from_fn(&g, |_| Label::from_u64(1));
        let ids = IdAssignment::consecutive(&g);
        let io = IoConfig::new(&g, &x, &y);
        let f = 3;
        let decider = ResilientDecider::new(coloring_lcl(), f);
        let est = acceptance_probability(&decider, &io, &ids, 6000, 11);
        let expected = theoretical_acceptance(f, 8);
        assert!(
            (est.p_hat - expected).abs() < 0.03,
            "measured {} vs theory {}",
            est.p_hat,
            expected
        );
        // Rejection probability exceeds 1/2 as the corollary requires.
        assert!(1.0 - est.p_hat > 0.5);
    }

    #[test]
    fn yes_instances_accepted_with_probability_above_half() {
        // Plant exactly f bad balls... on a cycle a single recoloring makes
        // 3 bad balls; use f = 3 so the instance is a yes-instance of L_f.
        let g = cycle(12);
        let x = Labeling::empty(12);
        let mut y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        y.set(NodeId(4), Label::from_u64(1)); // conflicts with 3 and 5
        let ids = IdAssignment::consecutive(&g);
        let io = IoConfig::new(&g, &x, &y);
        let lang = coloring_lcl();
        let bad = crate::language::bad_ball_count(&lang, &io);
        assert_eq!(bad, 3);
        let decider = ResilientDecider::new(coloring_lcl(), bad);
        let est = acceptance_probability(&decider, &io, &ids, 6000, 13);
        assert!(est.p_hat > 0.5, "yes-instance acceptance {} must exceed 1/2", est.p_hat);
        assert!((est.p_hat - theoretical_acceptance(bad, bad)).abs() < 0.03);
    }

    #[test]
    fn with_probability_overrides_p() {
        let d = ResilientDecider::with_probability(coloring_lcl(), 2, 0.99);
        assert!(!d.interval_is_valid(), "0.99^3 > 1/2 so the no-side fails");
        assert!(RandomizedDecider::name(&d).contains("resilient"));
        assert_eq!(RandomizedDecider::radius(&d), 1);
    }
}
