//! The Theorem-1 machinery end to end: hard instances, anchors, gluing, and
//! the decay of the acceptance probability.
//!
//! ```text
//! cargo run --release --example derandomization_gluing
//! ```

use rlnc::langs::coloring::{GlobalGreedyColoring, ProperColoring};
use rlnc::langs::faulty::FaultyConstructor;
use rlnc::prelude::*;
use rlnc_core::algorithm::Coins;
use rlnc_core::decision::FnRandomizedDecider;
use rlnc_core::derand::boosting::{boosting_bound, boosting_repetitions};
use rlnc_core::derand::gluing::{anchor_candidates, anchor_count, separation_distance};
use rlnc_core::derand::hard_instances::consecutive_cycle_candidates;
use rlnc_derand::failure_probability_with;
use rlnc_graph::traversal::is_connected;
use rand::Rng;

fn main() {
    let p = 0.75f64; // decider guarantee
    let r = 0.9f64; // claimed constructor success probability
    let trials = 3_000;
    let cycle_size = 24usize;

    // A "Monte-Carlo constructor that errs": a correct greedy 3-coloring
    // with 5% per-node corruption.
    let constructor = FaultyConstructor::new(
        GlobalGreedyColoring::new(cycle_size as u32, 3),
        0.05,
        Label::from_u64(0),
    );
    // A BPLD decider: accept at good balls, reject at bad balls with
    // probability p.
    let decider = FnRandomizedDecider::new(1, "reject-bad-balls", move |view: &View, coins: &Coins| {
        let mine = view.output(view.center_local());
        let ok = mine.as_u64() >= 1
            && mine.as_u64() <= 3
            && view.center_neighbors().all(|i| view.output(i) != mine);
        if ok {
            true
        } else {
            !coins.for_center(view).random_bool(p)
        }
    });

    let language = ProperColoring::new(3);
    let params = PipelineParams {
        r,
        p,
        t: 0,
        t_prime: 1,
    };
    let pipeline = DerandPipeline::new(&constructor, &decider, &language, params);
    let hard = consecutive_cycle_candidates([cycle_size]);
    let beta = failure_probability_with(&constructor, &language, &hard[0], trials, 7).p_hat;
    println!("== Theorem 1 machinery ==\n");
    println!("constructor failure probability on the hard instance: β ≈ {beta:.3}");
    println!("decider guarantee: p = {p}\n");

    // Claim 3: disjoint-union boosting.
    let nu = boosting_repetitions(r, p, beta);
    println!("Claim 3 (disjoint unions): ν = 1 + ⌈ln(rp)/ln(1−βp)⌉ = {nu}");
    println!("{:>4} {:>22} {:>18}", "ν", "Pr[D accepts C(G)]", "bound (1−βp)^ν");
    for copies in [1usize, 2, 4, nu.min(8)] {
        let union = pipeline.union_stage(&hard, copies).plan;
        let seed = 11 + copies as u64;
        let est = union
            .plan()
            .acceptance(&constructor, &decider, None, trials, seed);
        println!("{:>4} {:>22.3} {:>18.3}", copies, est.p_hat, boosting_bound(p, beta, copies));
    }

    // Theorem 1: the connected gluing.
    let mu = anchor_count(p);
    let needed = separation_distance(0, 1, p);
    println!("\nTheorem 1 (connected gluing): µ = ⌈1/(2p−1)⌉ = {mu}, anchors pairwise ≥ {needed} apart");
    for parts_count in [2usize, 4, 8] {
        let parts = consecutive_cycle_candidates(vec![cycle_size; parts_count]);
        let anchors: Vec<_> = parts.iter().map(|h| anchor_candidates(h, 0, 1, p)[0]).collect();
        let glued = pipeline.glued_stage(parts, anchors);
        let far_nodes = Some(glued.plan.participants());
        let far = glued
            .plan
            .plan()
            .acceptance(&constructor, &decider, far_nodes, trials, 23);
        println!(
            "ν' = {parts_count}: glued graph connected = {}, max degree = {}, Pr[accept far from anchors] = {:.3}",
            is_connected(&glued.instance.graph),
            glued.instance.graph.max_degree(),
            far.p_hat
        );
    }
    println!(
        "\nThe acceptance probability decays geometrically, so a constructor with success \
probability r and a BPLD decider cannot coexist with the assumption that no \
deterministic O(1)-round algorithm exists — which is the contradiction at the \
heart of Theorem 1."
    );
}
