//! Quickstart: build a ring, 3-color it with Cole–Vishkin, check the result
//! locally, and contrast it with the zero-round random coloring.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rlnc::langs::cole_vishkin::{oriented_ring_instance, ColeVishkinRingColoring};
use rlnc::langs::coloring::{improperly_colored_nodes, ColoringDecider, ProperColoring};
use rlnc::langs::random_coloring::RandomColoring;
use rlnc::prelude::*;
use rlnc_core::decision::decide;
use rlnc_core::RandomizedLocalAlgorithm;

fn main() {
    let n = 1 << 12;
    println!("== rlnc quickstart: 3-coloring the {n}-node oriented ring ==\n");

    // 1. Build the instance: cycle + consecutive identities + orientation inputs.
    let (graph, input, ids) = oriented_ring_instance(n);
    let instance = Instance::new(&graph, &input, &ids);

    // 2. Run the Cole–Vishkin O(log* n)-round 3-coloring.
    let algo = ColeVishkinRingColoring::for_ring_size(n);
    println!(
        "Cole–Vishkin: {} color-reduction iterations, {} communication rounds",
        algo.iterations(),
        algo.rounds()
    );
    let output = Simulator::new().run(&algo, &instance);

    // 3. Check the output: globally (language membership) and locally (the
    //    one-round decider every node could run).
    let language = ProperColoring::new(3);
    let io = IoConfig::new(&graph, &input, &output);
    println!("proper 3-coloring: {}", language.contains(&io));
    println!(
        "one-round decider accepts at every node: {}",
        decide(&ColoringDecider::new(3), &io, &ids)
    );

    // 4. Contrast with the zero-round random coloring (the ε-slack
    //    constructor of §1.1): fast, but only *almost* proper.
    let random = RandomColoring::new(3);
    let random_output = ExecutionPlan::for_instance(&instance, random.radius())
        .run_randomized(&random, SeedSequence::new(2015));
    let random_io = IoConfig::new(&graph, &input, &random_output);
    let improper = improperly_colored_nodes(&language, &random_io);
    println!(
        "\nzero-round random coloring ({}): {} of {} nodes improperly colored ({:.1}%, theory 5/9 ≈ 55.6%)",
        random.name(),
        improper,
        n,
        100.0 * improper as f64 / n as f64
    );
}
