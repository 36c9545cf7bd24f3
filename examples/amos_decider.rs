//! The `amos` golden-ratio decider (§2.3.1 of the paper): a zero-round
//! randomized decider with guarantee `(√5 − 1)/2 ≈ 0.618` for a language no
//! deterministic constant-round algorithm can decide.
//!
//! ```text
//! cargo run --release --example amos_decider
//! ```

use rlnc::langs::amos::{selection_output, Amos, AmosGoldenDecider, GOLDEN_GUARANTEE};
use rlnc::prelude::*;
use rlnc_graph::generators::path;

fn main() {
    let n = 101;
    let trials = 50_000;
    let graph = path(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let decider = AmosGoldenDecider::new();
    let language = Amos::new();

    println!("== amos on the {n}-node path (diameter {}) ==", n - 1);
    println!("golden-ratio guarantee p = {GOLDEN_GUARANTEE:.6}\n");
    println!("{:<12} {:>12} {:>14} {:>14} {:>10}", "selected", "in amos?", "Pr[accept]", "theory p^k", "side ok?");

    for k in 0..=4usize {
        // Spread the selected nodes across the path — far apart, so no node
        // can see two of them within any constant radius.
        let selected: Vec<NodeId> = (0..k).map(|i| NodeId::from_index(i * (n - 1) / k.max(1))).collect();
        let output = selection_output(n, &selected);
        let io = IoConfig::new(&graph, &input, &output);
        let in_language = language.contains(&io);
        let plan = ExecutionPlan::for_io(&io, &ids, decider.radius());
        let est = plan.acceptance(&decider, trials, 618 + k as u64);
        let theory = GOLDEN_GUARANTEE.powi(k as i32);
        let side_ok = if in_language { est.p_hat > 0.5 } else { 1.0 - est.p_hat > 0.5 };
        println!(
            "{:<12} {:>12} {:>14.4} {:>14.4} {:>10}",
            k, in_language, est.p_hat, theory, side_ok
        );
    }

    println!(
        "\nBoth error sides stay above 1/2, so amos ∈ BPLD, while deciding it \
deterministically needs Ω(diameter) rounds — the separation that motivates \
extending Naor–Stockmeyer derandomization from LD to BPLD."
    );
}
