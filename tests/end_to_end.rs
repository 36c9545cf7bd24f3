//! Cross-crate integration tests: each test exercises the public API the
//! way the examples and the experiment harness do, at reduced scale.

use rlnc::langs::amos::{selection_output, Amos, AmosGoldenDecider, GOLDEN_GUARANTEE};
use rlnc::langs::cole_vishkin::{oriented_ring_instance, ColeVishkinRingColoring};
use rlnc::langs::coloring::{improperly_colored_nodes, ColoringDecider, ProperColoring, RankColoring};
use rlnc::langs::mis::{LubyMis, MaximalIndependentSet};
use rlnc::langs::random_coloring::RandomColoring;
use rlnc::prelude::*;
use rlnc_core::decision::{acceptance_probability, decide};
use rlnc_core::relaxation::{EpsilonSlack, FResilient};
use rlnc_core::resilient::ResilientDecider;
use rlnc_core::rounds::run_randomized_via_rounds;
use rlnc_graph::generators::cycle;
use rlnc_par::Scale;

#[test]
fn cole_vishkin_pipeline_produces_locally_checkable_colorings() {
    for n in [16usize, 65, 256] {
        let (graph, input, ids) = oriented_ring_instance(n);
        let algo = ColeVishkinRingColoring::for_ring_size(n);
        let instance = Instance::new(&graph, &input, &ids);
        let output = Simulator::new().run(&algo, &instance);
        let io = IoConfig::new(&graph, &input, &output);
        assert!(ProperColoring::new(3).contains(&io));
        assert!(decide(&ColoringDecider::new(3), &io, &ids));
        // The promise F_k holds with k = 8 (degree 2, labels ≤ 8 bytes).
        assert!(FkPromise::new(8).check(&graph, &input, &output));
    }
}

#[test]
fn amos_decider_guarantee_holds_end_to_end() {
    let graph = cycle(40);
    let input = Labeling::empty(40);
    let ids = IdAssignment::consecutive(&graph);
    let decider = AmosGoldenDecider::new();
    // One selected node: acceptance ≈ p.
    let one = selection_output(40, &[NodeId(7)]);
    let io = IoConfig::new(&graph, &input, &one);
    assert!(Amos::new().contains(&io));
    let est = acceptance_probability(&decider, &io, &ids, 4000, 1);
    assert!((est.p_hat - GOLDEN_GUARANTEE).abs() < 0.04);
    // Two antipodal selected nodes: rejection ≥ p.
    let two = selection_output(40, &[NodeId(0), NodeId(20)]);
    let io = IoConfig::new(&graph, &input, &two);
    assert!(!Amos::new().contains(&io));
    let est = acceptance_probability(&decider, &io, &ids, 4000, 2);
    assert!(1.0 - est.p_hat > 0.55);
}

#[test]
fn randomization_helps_for_slack_but_not_for_resilient() {
    let n = 512;
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);
    let random = RandomColoring::new(3);
    // ε-slack: the zero-round randomized constructor succeeds with high
    // probability.
    let slack = EpsilonSlack::new(ProperColoring::new(3), 0.62);
    let est = Simulator::new().construction_success(&random, &instance, &slack, 200, 3);
    assert!(est.p_hat > 0.9);
    // f-resilient: neither the randomized nor the order-invariant
    // deterministic constructor ever succeeds.
    let resilient = FResilient::new(ProperColoring::new(3), 8);
    let est = Simulator::new().construction_success(&random, &instance, &resilient, 100, 4);
    assert_eq!(est.successes, 0);
    let rank_output = Simulator::new().run(&RankColoring::new(2, 3), &instance);
    assert!(!resilient.contains(&IoConfig::new(&graph, &input, &rank_output)));
}

#[test]
fn resilient_decider_is_a_bpld_witness_for_l_f() {
    let n = 64;
    let f = 3usize;
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let decider = ResilientDecider::new(ProperColoring::new(2), f);
    // Yes-instance: proper 2-coloring with one planted conflict (3 bad balls).
    let mut output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0 % 2) + 1));
    output.set(NodeId(10), Label::from_u64(1));
    let io = IoConfig::new(&graph, &input, &output);
    let bad = improperly_colored_nodes(&ProperColoring::new(2), &io);
    assert!(bad <= f);
    let yes = acceptance_probability(&decider, &io, &ids, 6000, 5);
    assert!(yes.p_hat > 0.5);
    // No-instance: all-ones (every ball bad).
    let all_ones = Labeling::from_fn(&graph, |_| Label::from_u64(1));
    let io = IoConfig::new(&graph, &input, &all_ones);
    let no = acceptance_probability(&decider, &io, &ids, 6000, 6);
    assert!(1.0 - no.p_hat > 0.5);
}

#[test]
fn message_passing_and_ball_views_agree_for_library_algorithms() {
    let n = 48;
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::spread(&graph, 11);
    let instance = Instance::new(&graph, &input, &ids);
    let algo = RankColoring::new(2, 3);
    assert_eq!(
        Simulator::new().run(&algo, &instance),
        run_randomized_via_rounds(&algo, &instance, SeedSequence::new(0))
    );
}

#[test]
fn luby_mis_is_verified_by_the_lcl_language_across_families() {
    let mut rng = rand::rng();
    for family in [
        rlnc_graph::generators::Family::Cycle,
        rlnc_graph::generators::Family::Grid,
        rlnc_graph::generators::Family::Cubic,
    ] {
        let graph = family.generate(48, &mut rng);
        let n = graph.node_count();
        let input = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&graph);
        let instance = Instance::new(&graph, &input, &ids);
        let algo = LubyMis::for_graph_size(n);
        let output = Simulator::new().run_randomized(&algo, &instance, SeedSequence::new(17));
        let io = IoConfig::new(&graph, &input, &output);
        assert!(
            MaximalIndependentSet::new().contains(&io),
            "Luby MIS failed on {}",
            family.name()
        );
    }
}

#[test]
fn experiment_harness_smoke_run_is_consistent_with_the_paper() {
    for report in rlnc::experiments::run_all(Scale::Smoke, 0) {
        assert!(
            report.all_consistent(),
            "experiment {} disagrees with the paper: {:?}",
            report.id,
            report.findings
        );
    }
}
