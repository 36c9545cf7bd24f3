//! `f`-resilient coloring (§4, Corollary 1): why randomization does not
//! help.
//!
//! On the consecutive-identity cycle, every order-invariant constant-round
//! algorithm colors almost all nodes identically, so it cannot land in the
//! `f`-resilient relaxation of 3-coloring; and the Corollary-1 randomized
//! decider certifies membership in `L_f` with guarantee above 1/2, which is
//! exactly what feeds Theorem 1.
//!
//! ```text
//! cargo run --release --example resilient_coloring
//! ```

use rlnc::langs::coloring::{improperly_colored_nodes, ProperColoring, RankColoring};
use rlnc::prelude::*;
use rlnc_core::relaxation::FResilient;
use rlnc_core::resilient::{resilient_acceptance_probability, ResilientDecider};
use rlnc_graph::generators::cycle;

fn main() {
    let n = 4096;
    let f = 8usize;
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);
    let language = ProperColoring::new(3);
    let relaxed = FResilient::new(ProperColoring::new(3), f);

    println!("== {f}-resilient 3-coloring on the consecutive-ID {n}-cycle ==\n");
    println!("{:<24} {:>10} {:>14} {:>18}", "order-invariant algo", "radius t", "bad balls", "in L_f (f = 8)?");
    for t in 0..=3u32 {
        let algo = RankColoring::new(t, 3);
        let output = Simulator::new().run(&algo, &instance);
        let io = IoConfig::new(&graph, &input, &output);
        let bad = improperly_colored_nodes(&language, &io);
        println!(
            "{:<24} {:>10} {:>14} {:>18}",
            format!("rank-coloring(t={t})"),
            t,
            bad,
            relaxed.contains(&io)
        );
    }
    println!(
        "\nEvery order-invariant t-round algorithm outputs one color at ≥ n − (2t−1) \
nodes of this cycle, so the number of bad balls scales with n — never ≤ f."
    );

    // The Corollary-1 decider: membership in L_f is certified with
    // probability > 1/2 on both sides.
    let decider = ResilientDecider::new(ProperColoring::new(3), f);
    println!(
        "\nCorollary-1 decider: p = {:.4} ∈ (2^(-1/f), 2^(-1/(f+1))) = ({:.4}, {:.4})",
        resilient_acceptance_probability(f),
        2f64.powf(-1.0 / f as f64),
        2f64.powf(-1.0 / (f as f64 + 1.0)),
    );
    // Yes-instance: a proper coloring with a handful of planted conflicts.
    let mut planted = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0 % 2) + 1));
    planted.set(NodeId(100), Label::from_u64(1));
    let io_yes = IoConfig::new(&graph, &input, &planted);
    let bad_yes = improperly_colored_nodes(&language, &io_yes);
    let est_yes =
        ExecutionPlan::for_io(&io_yes, &ids, decider.radius()).acceptance(&decider, 20_000, 1);
    println!(
        "yes-instance ({bad_yes} bad balls ≤ f): Pr[all accept] = {:.3} (> 1/2: {})",
        est_yes.p_hat,
        est_yes.p_hat > 0.5
    );
    // No-instance: the all-ones coloring.
    let all_ones = Labeling::from_fn(&graph, |_| Label::from_u64(1));
    let io_no = IoConfig::new(&graph, &input, &all_ones);
    let est_no =
        ExecutionPlan::for_io(&io_no, &ids, decider.radius()).acceptance(&decider, 20_000, 2);
    println!(
        "no-instance ({n} bad balls > f): Pr[some reject] = {:.6} (> 1/2: {})",
        1.0 - est_no.p_hat,
        1.0 - est_no.p_hat > 0.5
    );
    println!("\nL_f ∈ BPLD ⟹ (Theorem 1) a randomized O(1)-round constructor for L_f would imply a deterministic one — which E4 shows cannot exist.");
}
