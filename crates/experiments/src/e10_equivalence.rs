//! E10 — the message-passing and ball-view formulations of the LOCAL model
//! coincide (§2.1).
//!
//! Runs a collection of deterministic algorithms on several graph families
//! both through the steppable round system (full-information gather by
//! explicit per-round message exchange, then apply the output function)
//! and through the direct ball-view simulator, and checks the outputs
//! agree node for node — and that the system goes quiet after exactly the
//! declared number of rounds.

use crate::report::{ExperimentReport, Finding, Table};
use rlnc_core::prelude::*;
use rlnc_core::rounds::{GatherRun, RoundSystem};
use rlnc_graph::generators::Family;
use rlnc_graph::IdAssignment;
use rlnc_langs::coloring::{GlobalGreedyColoring, RankColoring};
use rlnc_par::Scale;
use rlnc_par::rng::SeedSequence;

/// Runs the experiment; `seed` perturbs every random stream (`0`
/// is the CLI's default).
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    let n = scale.size(48);
    let mut rng = SeedSequence::new(seed ^ 0xE10).rng();

    let algorithms: Vec<(String, Box<dyn LocalAlgorithm>)> = vec![
        ("rank-coloring(t=1)".into(), Box::new(RankColoring::new(1, 3))),
        ("rank-coloring(t=2)".into(), Box::new(RankColoring::new(2, 3))),
        ("global-greedy(t=3)".into(), Box::new(GlobalGreedyColoring::new(3, 4))),
        (
            "ball-fingerprint(t=2)".into(),
            Box::new(FnAlgorithm::new(2, "fingerprint", |view: &View| {
                let ids: u64 = (0..view.len()).map(|i| view.id(i)).sum();
                let edges = view.local_graph().edge_count() as u64;
                Label::from_u64(ids * 64 + edges)
            })),
        ),
    ];

    let mut table = Table::new(&["family", "n", "algorithm", "outputs identical?"]);
    let mut all_equal = true;

    for family in [Family::Cycle, Family::Grid, Family::BinaryTree, Family::Cubic] {
        let graph = family.generate(n, &mut rng);
        let nodes = graph.node_count();
        let input = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0 % 5)));
        let ids = IdAssignment::spread(&graph, 7);
        let inst = Instance::new(&graph, &input, &ids);
        for (name, algo) in &algorithms {
            let direct = Simulator::new().run(algo.as_ref(), &inst);
            // The operational semantics, stepped round by round: after
            // exactly t rounds of flooding the system must be quiet, and
            // the gathered views must reproduce the ball-view outputs (the
            // algorithms are deterministic, so the coins go unread).
            let gather = GatherRun::new(algo.as_ref(), Coins::new(SeedSequence::new(seed)));
            let mut system = RoundSystem::new(&gather, &inst);
            let rounds_stepped = system.step_until_quiet();
            let via_messages = system.outputs();
            let equal = direct == via_messages && rounds_stepped == algo.radius();
            all_equal &= equal;
            table.push_row(vec![
                family.name().to_string(),
                nodes.to_string(),
                name.clone(),
                equal.to_string(),
            ]);
        }
    }

    let findings = vec![Finding::new(
        "§2.1: a t-round message-passing algorithm is equivalent to collecting B_G(v,t) and mapping it to an output",
        format!("outputs identical across all families and algorithms: {all_equal}"),
        all_equal,
    )];

    ExperimentReport {
        id: "E10".into(),
        title: "message-passing execution ≡ ball-view execution".into(),
        paper_reference: "§2.1.1 (the simulation argument)".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_equivalence_holds() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        assert_eq!(report.table.rows.len(), 16);
    }

    /// Routing E10 through the steppable [`RoundSystem`] and the host-keyed
    /// gather must not move a byte of its historical seed-0 output: this
    /// digest was recorded from the original one-shot identity-keyed
    /// gather.
    #[test]
    fn e10_seed_zero_table_is_byte_identical_to_the_historical_output() {
        let report = run(Scale::Smoke, 0);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for row in &report.table.rows {
            for cell in row {
                for byte in cell.as_bytes() {
                    digest ^= u64::from(*byte);
                    digest = digest.wrapping_mul(0x0100_0000_01b3);
                }
                digest ^= 0xFF;
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0x942e_95b2_c63b_3781);
        assert!(report.table.rows.iter().all(|row| row[3] == "true"));
    }
}
