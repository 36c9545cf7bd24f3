//! E1 — the `amos` golden-ratio decider (§2.3.1).
//!
//! Measures `Pr[all accept]` of the zero-round golden-ratio decider for 0,
//! 1, 2, 3 selected nodes across graph families and checks that the
//! empirical guarantee matches `p = (√5 − 1)/2 ≈ 0.618` on both sides.

use crate::report::{fmt_prob, ExperimentReport, Finding, Table};
use rlnc_core::prelude::*;
use rlnc_engine::ExecutionPlan;
use rlnc_graph::generators::Family;
use rlnc_graph::{IdAssignment, NodeId};
use rlnc_langs::amos::{selection_output, Amos, AmosGoldenDecider, GOLDEN_GUARANTEE};
use rlnc_par::Scale;
use rlnc_par::rng::SeedSequence;

/// Runs the experiment; `seed` perturbs every random stream (`0`
/// is the CLI's default).
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    let trials = scale.trials(20_000);
    let n = scale.size(64);
    let decider = AmosGoldenDecider::new();
    let language = Amos::new();
    let mut table = Table::new(&[
        "family",
        "n",
        "selected",
        "Pr[all accept] (measured)",
        "Pr[all accept] (theory p^k)",
        "guarantee side",
    ]);

    let mut worst_yes = 1.0f64;
    let mut worst_no = 1.0f64;
    let mut rng = SeedSequence::new(seed ^ 0xE1).rng();

    for family in [Family::Cycle, Family::Path, Family::Grid] {
        let graph = family.generate(n, &mut rng);
        let nodes = graph.node_count();
        let ids = IdAssignment::consecutive(&graph);
        let input = Labeling::empty(nodes);
        for selected_count in 0..=3usize {
            // Spread the selected nodes as far apart as index spacing allows.
            let selected: Vec<NodeId> = (0..selected_count)
                .map(|i| NodeId::from_index(i * nodes / selected_count.max(1)))
                .collect();
            let output = selection_output(nodes, &selected);
            let io = IoConfig::new(&graph, &input, &output);
            let est = ExecutionPlan::for_io(&io, &ids, decider.radius()).acceptance(
                &decider,
                trials,
                seed ^ (0xE1 + selected_count as u64),
            );
            let theory = GOLDEN_GUARANTEE.powi(selected_count as i32);
            let in_language = language.contains(&io);
            if in_language {
                worst_yes = worst_yes.min(est.p_hat);
            } else {
                worst_no = worst_no.min(1.0 - est.p_hat);
            }
            table.push_row(vec![
                family.name().to_string(),
                nodes.to_string(),
                selected_count.to_string(),
                fmt_prob(est.p_hat),
                fmt_prob(theory),
                if in_language { "yes-instance".into() } else { "no-instance".into() },
            ]);
        }
    }

    let guarantee = worst_yes.min(worst_no);
    let findings = vec![
        Finding::new(
            "§2.3.1: amos is randomly decidable in zero rounds with guarantee p = (√5−1)/2 ≈ 0.618",
            format!("empirical guarantee {:.3} (worst yes {:.3}, worst no {:.3})", guarantee, worst_yes, worst_no),
            (guarantee - GOLDEN_GUARANTEE).abs() < 0.05 || guarantee > GOLDEN_GUARANTEE,
        ),
        Finding::new(
            "Eq. (1): both error sides stay above 1/2, so amos ∈ BPLD \\ LD",
            format!("worst-case side {:.3} > 0.5", guarantee),
            guarantee > 0.5,
        ),
    ];

    ExperimentReport {
        id: "E1".into(),
        title: "amos golden-ratio zero-round decider".into(),
        paper_reference: "§2.3.1 (example `amos`), Eq. (1)".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reproduces_the_golden_ratio_guarantee() {
        let report = run(Scale::Smoke, 0);
        assert_eq!(report.id, "E1");
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        assert_eq!(report.table.rows.len(), 12);
    }
}
