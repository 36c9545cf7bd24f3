//! Error boosting on disjoint unions (Claim 3).
//!
//! If a randomized constructor `C` fails on each hard instance `H_i` with
//! probability at least `β`, and the decider `D` rejects non-members with
//! probability at least `p`, then on the disjoint union `G = H_1 ∪ … ∪ H_ν`
//! the probability that `D` accepts `C(G)` is at most `(1 − βp)^ν`, because
//! the decider runs independently in each component. Choosing
//!
//! `ν = 1 + ⌈ ln(r·p) / ln(1 − β·p) ⌉`      (Eq. (3))
//!
//! drives this below `r·p`, contradicting `Pr[D accepts C(G)] ≥ p · Pr[C(G) ∈ L]
//! ≥ p·r` — which is how Claim 3 rules out the existence of `C` for
//! languages over possibly-disconnected graphs.

use super::gluing::acceptance_far_from;
use super::hard_instances::HardInstance;
use crate::algorithm::RandomizedLocalAlgorithm;
use crate::decision::RandomizedDecider;
use rlnc_par::stats::Estimate;

/// Eq. (3): the number of disjoint copies needed to push the acceptance
/// probability below `r · p`.
///
/// # Panics
/// Panics unless `0 < r ≤ 1`, `1/2 < p ≤ 1`, and `0 < beta ≤ 1`.
pub fn boosting_repetitions(r: f64, p: f64, beta: f64) -> usize {
    assert!(r > 0.0 && r <= 1.0, "construction success probability r must be in (0, 1]");
    assert!(p > 0.5 && p <= 1.0, "decision guarantee p must be in (1/2, 1]");
    assert!(beta > 0.0 && beta <= 1.0, "failure probability beta must be in (0, 1]");
    let ratio = (r * p).ln() / (1.0 - beta * p).ln();
    1 + ratio.ceil().max(0.0) as usize
}

/// The theoretical upper bound `(1 − βp)^ν` on the acceptance probability
/// of the disjoint union of `ν` hard instances.
pub fn boosting_bound(p: f64, beta: f64, nu: usize) -> f64 {
    (1.0 - beta * p).powi(nu as i32)
}

/// The disjoint union of the first `nu` hard instances (cycling through the
/// supplied list if `nu` exceeds its length), with identity ranges made
/// disjoint, as in the proof of Claim 3: [`HardInstance::compose`] with no
/// anchors.
pub fn build_disjoint_union(hard: &[HardInstance], nu: usize) -> HardInstance {
    assert!(!hard.is_empty(), "need at least one hard instance");
    assert!(nu >= 1, "need at least one copy");
    let chosen: Vec<&HardInstance> = (0..nu).map(|i| &hard[i % hard.len()]).collect();
    HardInstance::compose(&chosen, &[])
}

/// Estimates `Pr[D accepts C(G)]` where `G` is the disjoint union of `nu`
/// hard instances, over the coins of both the constructor and the decider.
pub fn disjoint_union_acceptance<C, D>(
    constructor: &C,
    decider: &D,
    hard: &[HardInstance],
    nu: usize,
    trials: u64,
    seed: u64,
) -> Estimate
where
    C: RandomizedLocalAlgorithm + ?Sized,
    D: RandomizedDecider + ?Sized,
{
    let union = build_disjoint_union(hard, nu);
    acceptance_of_constructed(constructor, decider, &union, trials, seed)
}

/// Estimates `Pr[D accepts C(H)]` on a single (possibly composite) instance,
/// over the coins of both algorithms: [`acceptance_far_from`] with no
/// anchors, so every node takes part.
pub fn acceptance_of_constructed<C, D>(
    constructor: &C,
    decider: &D,
    instance: &HardInstance,
    trials: u64,
    seed: u64,
) -> Estimate
where
    C: RandomizedLocalAlgorithm + ?Sized,
    D: RandomizedDecider + ?Sized,
{
    acceptance_far_from(constructor, decider, instance, &[], 0, trials, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Coins, FnRandomizedAlgorithm};
    use crate::decision::FnRandomizedDecider;
    use crate::derand::hard_instances::consecutive_cycle_candidates;
    use crate::labels::Label;
    use crate::view::View;
    use rand::Rng;

    #[test]
    fn repetition_formula_matches_eq3() {
        // r = 2/3, p = 0.8, beta = 0.5: ln(0.5333)/ln(0.6) = 1.231 → ν = 1 + 2 = 3.
        assert_eq!(boosting_repetitions(2.0 / 3.0, 0.8, 0.5), 3);
        // Larger beta needs fewer copies.
        assert!(boosting_repetitions(0.9, 0.9, 0.9) <= boosting_repetitions(0.9, 0.9, 0.1));
        // The bound at ν from Eq. (3) is below r·p.
        for &(r, p, beta) in &[(0.9, 0.75, 0.3), (0.5, 0.6, 0.2), (0.99, 0.95, 0.05)] {
            let nu = boosting_repetitions(r, p, beta);
            assert!(
                boosting_bound(p, beta, nu) < r * p,
                "bound {} not below r*p {}",
                boosting_bound(p, beta, nu),
                r * p
            );
        }
    }

    #[test]
    #[should_panic(expected = "guarantee p")]
    fn repetition_formula_rejects_low_p() {
        let _ = boosting_repetitions(0.9, 0.4, 0.5);
    }

    #[test]
    fn disjoint_union_builder_cycles_and_shifts_ids() {
        let hard = consecutive_cycle_candidates([5, 7]);
        let union = build_disjoint_union(&hard, 3);
        assert_eq!(union.node_count(), 5 + 7 + 5);
        assert_eq!(union.ids.max_id(), 17);
        assert_eq!(rlnc_graph::connected_components(&union.graph).iter().max().unwrap() + 1, 3);
    }

    #[test]
    fn acceptance_decays_geometrically_with_copies() {
        // Constructor: each node outputs a bit that is 1 with probability
        // 0.5; "failure" of a component is all-zero... we instead use a
        // constructor that fails on a whole component with probability beta
        // by keying on the component's minimum id parity... Simpler: every
        // node outputs 1 with prob q independently; decider rejects at a
        // node that outputs 0, with probability p (1-sided). Then per
        // component of size m: Pr[D accepts component] = (q + (1-q)(1-p))^m.
        let q = 0.7f64;
        let p = 0.8f64;
        let constructor = FnRandomizedAlgorithm::new(0, "bernoulli-bit", move |v: &View, c: &Coins| {
            Label::from_bool(c.for_center(v).random_bool(q))
        });
        let decider = FnRandomizedDecider::new(0, "reject-zeros", move |v: &View, c: &Coins| {
            if v.output(v.center_local()).as_bool() {
                true
            } else {
                !c.for_center(v).random_bool(p)
            }
        });
        let hard = consecutive_cycle_candidates([4]);
        let per_node = q + (1.0 - q) * (1.0 - p);
        let mut previous = 1.0f64;
        for nu in [1usize, 2, 3] {
            let est = disjoint_union_acceptance(&constructor, &decider, &hard, nu, 4000, 42);
            let expected = per_node.powi((4 * nu) as i32);
            assert!(
                (est.p_hat - expected).abs() < 0.04,
                "nu={nu}: measured {} vs expected {}",
                est.p_hat,
                expected
            );
            assert!(est.p_hat < previous + 0.02, "acceptance must decay with nu");
            previous = est.p_hat;
        }
    }
}
