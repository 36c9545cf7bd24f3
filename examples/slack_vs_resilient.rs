//! ε-slack vs f-resilient relaxations (§1.1, §4, §5): randomization helps
//! for the former and not for the latter.
//!
//! ```text
//! cargo run --release --example slack_vs_resilient
//! ```

use rlnc::langs::coloring::{ProperColoring, RankColoring};
use rlnc::langs::random_coloring::RandomColoring;
use rlnc::prelude::*;
use rlnc_core::relaxation::{EpsilonSlack, FResilient};
use rlnc_core::DistributedLanguage;
use rlnc_graph::generators::cycle;

fn main() {
    let n = 2048;
    let trials = 300;
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);

    let random = RandomColoring::new(3);
    let random_plan = ExecutionPlan::for_instance(&instance, random.radius());
    let order_invariant = RankColoring::new(2, 3);

    println!("== ε-slack vs f-resilient 3-coloring on the {n}-cycle ==\n");
    println!(
        "{:<34} {:>26} {:>26}",
        "relaxation", "random 3-coloring (0 rounds)", "rank coloring (t = 2)"
    );

    let relaxations: Vec<(String, Box<dyn DistributedLanguage>)> = vec![
        ("0.60-slack".into(), Box::new(EpsilonSlack::new(ProperColoring::new(3), 0.60))),
        ("0.58-slack".into(), Box::new(EpsilonSlack::new(ProperColoring::new(3), 0.58))),
        ("8-resilient".into(), Box::new(FResilient::new(ProperColoring::new(3), 8))),
        ("64-resilient".into(), Box::new(FResilient::new(ProperColoring::new(3), 64))),
    ];

    for (name, relaxation) in &relaxations {
        let random_success = random_plan.estimate(&random, trials, 42, |out| {
            relaxation.contains(&IoConfig::from_instance(&instance, out))
        });
        // The rank coloring is deterministic: it either lands in the
        // relaxation or it does not.
        let deterministic_output = Simulator::new().run(&order_invariant, &instance);
        let deterministic_ok =
            relaxation.contains(&IoConfig::new(&graph, &input, &deterministic_output));
        println!(
            "{:<34} {:>26} {:>26}",
            name,
            format!("Pr[success] = {:.3}", random_success.p_hat),
            if deterministic_ok { "succeeds" } else { "fails" }
        );
    }

    println!(
        "\nRandomization buys the ε-slack relaxations (success probability ≈ 1) but not \
the f-resilient ones (success probability 0 for every constant-round algorithm, \
randomized or not — Corollary 1)."
    );
}
