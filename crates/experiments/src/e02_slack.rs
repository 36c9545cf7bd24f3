//! E2 — the ε-slack relaxation is solvable by the zero-round random
//! coloring (§1.1).
//!
//! Measures, on rings of increasing size, the fraction of properly colored
//! nodes produced by the uniform random 3-coloring and the probability that
//! the outcome lies in the ε-slack relaxation for several ε.
//!
//! The rings are the `slack-ring` registry scenario, run once per ε on the
//! `rlnc-sweep` engine. The runs differ only in ε, so they share the
//! scenario's name and point indices and therefore every trial's coloring:
//! each row's ε columns count nested events of the same colorings.

use crate::report::{fmt_prob, ExperimentReport, Finding, Table};
use rlnc_par::Scale;
use rlnc_sweep::registry::slack_ring_spec;
use rlnc_sweep::{SweepExecutor, SweepRun, Workload};

/// The slack fractions of the table's columns, largest first.
const EPSILONS: [f64; 3] = [0.60, 0.58, 0.52];

/// Runs the experiment; `seed` perturbs every random stream.
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    let spec = slack_ring_spec();
    let Workload::SlackColoring { colors, .. } = spec.workload else {
        unreachable!("slack_ring_spec always carries a SlackColoring workload");
    };
    let executor = SweepExecutor::new(scale).with_seed(seed ^ 0xE2);
    let runs: Vec<SweepRun> = EPSILONS
        .iter()
        .map(|&epsilon| {
            let mut spec = spec.clone();
            spec.workload = Workload::SlackColoring { colors, epsilon };
            executor.run(&spec)
        })
        .collect();
    let expected_improper = 1.0 - 4.0 / 9.0; // 5/9 on the ring with 3 colors

    let mut table = Table::new(&[
        "n",
        "E[improper fraction] (measured)",
        "theory 5/9",
        "Pr[in 0.60-slack]",
        "Pr[in 0.58-slack]",
        "Pr[in 0.52-slack]",
    ]);
    for (i, record) in runs[0].records.iter().enumerate() {
        let mut row = vec![
            record.n.to_string(),
            fmt_prob(record.mean_value),
            fmt_prob(expected_improper),
        ];
        row.extend(runs.iter().map(|run| fmt_prob(run.records[i].p_hat)));
        table.push_row(row);
    }

    // Concentration kicks in as n grows, so the headline check uses the
    // largest ring; smaller rings are reported for the trend.
    let records = &runs[0].records;
    let largest_ring_eps_prob = records.last().map_or(0.0, |r| r.p_hat);
    let mean_improper_overall =
        records.iter().map(|r| r.mean_value).sum::<f64>() / records.len() as f64;

    let findings = vec![
        Finding::new(
            "§1.1: the uniform random 3-coloring leaves a 1−ε fraction properly colored with constant probability",
            format!("Pr[within 0.60-slack] = {:.3} on the largest tested ring", largest_ring_eps_prob),
            largest_ring_eps_prob > 0.5,
        ),
        Finding::new(
            "the expected improper fraction on the ring is 1 − (2/3)² = 5/9",
            format!("measured {:.3} vs 0.556", mean_improper_overall),
            (mean_improper_overall - expected_improper).abs() < 0.03,
        ),
    ];

    ExperimentReport {
        id: "E2".into(),
        title: "ε-slack relaxation via the zero-round random coloring".into(),
        paper_reference: "§1.1 (ε-slack), §5 (BPLD#node discussion)".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_random_coloring_lands_in_slack_relaxation() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        assert_eq!(report.table.rows.len(), 3);
    }

    #[test]
    fn e2_slack_columns_are_monotone_in_epsilon() {
        // A coloring within 0.52-slack is within 0.58-slack, and that one
        // within 0.60-slack, so no row may rank the columns otherwise.
        for scale in [Scale::Smoke, Scale::Standard] {
            for seed in [0, 7] {
                let report = run(scale, seed);
                for row in &report.table.rows {
                    let p: Vec<f64> = row[3..].iter().map(|c| c.parse().unwrap()).collect();
                    assert!(
                        p[2] <= p[1] && p[1] <= p[0],
                        "{scale} seed {seed}: row {row:?} is not monotone in ε"
                    );
                }
            }
        }
    }
}
