//! The generic one-sided BPLD decider (`rlnc_core::one_sided`) on the
//! concrete languages of this crate: coin-for-coin agreement with the
//! verdicts the derandomization pipeline attacks.

use rand::Rng;
use rlnc_core::algorithm::Coins;
use rlnc_core::config::IoConfig;
use rlnc_core::decision::{acceptance_probability, decide_randomized, RandomizedDecider};
use rlnc_core::labels::{Label, Labeling};
use rlnc_core::one_sided::OneSidedLclDecider;
use rlnc_graph::generators::cycle;
use rlnc_graph::{IdAssignment, NodeId};
use rlnc_langs::coloring::ProperColoring;
use rlnc_par::SeedSequence;

#[test]
fn accepts_proper_colorings_deterministically() {
    let g = cycle(12);
    let x = Labeling::empty(12);
    let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2) + 1));
    let ids = IdAssignment::consecutive(&g);
    let io = IoConfig::new(&g, &x, &y);
    let d = OneSidedLclDecider::new(ProperColoring::new(2), 0.8);
    assert_eq!(RandomizedDecider::radius(&d), 1);
    assert!(d.name().contains("0.8"));
    for t in 0..10 {
        assert!(decide_randomized(&d, &io, &ids, SeedSequence::new(t)));
    }
}

#[test]
fn rejects_bad_configurations_per_bad_ball() {
    // All nodes colored 1: every ball is bad, acceptance = (1-p)^n.
    let g = cycle(6);
    let x = Labeling::empty(6);
    let y = Labeling::from_fn(&g, |_| Label::from_u64(1));
    let ids = IdAssignment::consecutive(&g);
    let io = IoConfig::new(&g, &x, &y);
    let p = 0.5;
    let d = OneSidedLclDecider::new(ProperColoring::new(3), p);
    let est = acceptance_probability(&d, &io, &ids, 6000, 9);
    let expected = (1.0 - p).powi(6);
    assert!(
        (est.p_hat - expected).abs() < 0.02,
        "measured {} vs theory {expected}",
        est.p_hat
    );
}

#[test]
fn matches_the_coloring_specific_decider_coin_for_coin() {
    // The boosting and glued-decay workloads (and E7) decide with the
    // ProperColoring instantiation of this decider, so its verdicts must
    // keep the coloring-specific draw pattern on every (configuration,
    // seed) pair: one random_bool at bad centers only.
    let g = cycle(8);
    let x = Labeling::empty(8);
    let mut y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2) + 1));
    // Recolor node 3 to match both neighbors: balls 2, 3, 4 become bad.
    y.set(NodeId(3), Label::from_u64(1));
    let ids = IdAssignment::consecutive(&g);
    let io = IoConfig::new(&g, &x, &y);
    let d = OneSidedLclDecider::new(ProperColoring::new(2), 0.3);
    // 3 bad balls (nodes 2, 3, 4); acceptance = 0.7^3 in expectation.
    // Per seed, the verdict is exactly "no bad center's first draw
    // rejects": good centers draw nothing.
    for seed in 0..64 {
        let coins = Coins::new(SeedSequence::new(seed));
        let expected = [2u32, 3, 4]
            .iter()
            .all(|&v| !coins.for_node(NodeId(v)).random_bool(0.3));
        assert_eq!(decide_randomized(&d, &io, &ids, SeedSequence::new(seed)), expected);
    }
}
