//! E9 — randomization helps for ε-slack, deterministic constant-round
//! algorithms do not (§1.1 and §5).
//!
//! The zero-round random `(Δ+1)`-coloring lands in the ε-slack relaxation
//! with probability close to 1, while *every* order-invariant constant-round
//! deterministic algorithm (enumerated exhaustively for radius 0, and the
//! rank-based ones for radius 1, 2) leaves a constant *fraction* of the
//! consecutive-ID cycle improperly colored — far outside any ε-slack
//! relaxation with small ε and outside every f-resilient relaxation.
//!
//! The randomized row is the `slack-ring` registry scenario's workload at
//! ε = 0.62 on its 256-node ring, run on the `rlnc-sweep` engine; the
//! deterministic rows run on the same ring.

use crate::report::{fmt_prob, ExperimentReport, Finding, Table};
use rlnc_core::order_invariant::{collect_signatures, enumerate_algorithms};
use rlnc_core::prelude::*;
use rlnc_core::relaxation::EpsilonSlack;
use rlnc_graph::generators::cycle;
use rlnc_graph::IdAssignment;
use rlnc_langs::coloring::{improperly_colored_nodes, ProperColoring, RankColoring};
use rlnc_par::Scale;
use rlnc_sweep::registry::slack_ring_spec;
use rlnc_sweep::{SweepExecutor, Workload};

/// Runs the experiment; `seed` perturbs every random stream.
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    let epsilon = 0.62; // above the 5/9 expected improper fraction of the random coloring

    let mut spec = slack_ring_spec();
    let Workload::SlackColoring { colors, .. } = spec.workload else {
        unreachable!("slack_ring_spec always carries a SlackColoring workload");
    };
    spec.sizes.retain(|&size| size == 256);
    spec.workload = Workload::SlackColoring { colors, epsilon };
    let sweep = SweepExecutor::new(scale).with_seed(seed ^ 0xE9).run(&spec);
    let random = &sweep.records[0];

    let n = random.n as usize;
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let inst = Instance::new(&graph, &input, &ids);
    let lang = ProperColoring::new(colors);
    let relaxed = EpsilonSlack::new(ProperColoring::new(colors), epsilon);

    let mut table = Table::new(&[
        "algorithm",
        "randomized?",
        "rounds",
        "improper fraction (mean)",
        "Pr[in 0.62-slack]",
    ]);

    // Randomized zero-round coloring.
    table.push_row(vec![
        "random-3-coloring".into(),
        "yes".into(),
        "0".into(),
        fmt_prob(random.mean_value),
        fmt_prob(random.p_hat),
    ]);

    // Every deterministic order-invariant radius-0 algorithm (3 of them on
    // the input-less cycle), plus rank colorings of radius 1 and 2.
    let mut worst_det_fraction = 0.0f64;
    let mut any_det_in_slack = false;
    let signatures = collect_signatures(&[Instance::new(&graph, &input, &ids)], 0);
    let outputs: Vec<Label> = (1..=3).map(Label::from_u64).collect();
    let enumerated: Vec<_> = enumerate_algorithms(&signatures, &outputs, 0).collect();
    let mut deterministic: Vec<(String, Box<dyn LocalAlgorithm>)> = Vec::new();
    for algo in enumerated {
        deterministic.push((LocalAlgorithm::name(&algo), Box::new(algo)));
    }
    deterministic.push(("rank-3-coloring(t=1)".into(), Box::new(RankColoring::new(1, 3))));
    deterministic.push(("rank-3-coloring(t=2)".into(), Box::new(RankColoring::new(2, 3))));

    for (name, algo) in &deterministic {
        let out = Simulator::new().run(algo.as_ref(), &inst);
        let io = IoConfig::new(&graph, &input, &out);
        let fraction = improperly_colored_nodes(&lang, &io) as f64 / n as f64;
        let in_slack = relaxed.contains(&io);
        worst_det_fraction = worst_det_fraction.max(0.0f64.max(fraction));
        any_det_in_slack |= in_slack;
        table.push_row(vec![
            name.clone(),
            "no".into(),
            algo.radius().to_string(),
            fmt_prob(fraction),
            if in_slack { "1.000".into() } else { "0.000".into() },
        ]);
    }

    let findings = vec![
        Finding::new(
            "§1.1/§5: the zero-round randomized coloring solves the ε-slack relaxation with constant (here ≈ 1) probability",
            format!("Pr[in 0.62-slack] = {:.3}", random.p_hat),
            random.p_hat > 0.5,
        ),
        Finding::new(
            "no constant-round deterministic (order-invariant) algorithm solves the ε-slack relaxation on the consecutive-ID cycle",
            format!(
                "every tested deterministic algorithm leaves ≥ {:.0}% of the nodes improper and none lands in the 0.62-slack relaxation",
                100.0 * (1.0 - epsilon).min(worst_det_fraction)
            ),
            !any_det_in_slack,
        ),
        Finding::new(
            "so randomization helps for ε-slack (while E4/E5 show it does not for f-resilient) — the separation the paper draws",
            format!(
                "randomized success {:.3} vs deterministic success 0.000",
                random.p_hat
            ),
            random.p_hat > 0.5 && !any_det_in_slack,
        ),
    ];

    ExperimentReport {
        id: "E9".into(),
        title: "ε-slack: randomized vs deterministic constant-round algorithms".into(),
        paper_reference: "§1.1, §5 (BPLD#node)".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_randomization_helps_for_slack() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        assert!(report.table.rows.len() >= 6);
    }
}
