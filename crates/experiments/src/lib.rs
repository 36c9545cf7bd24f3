//! # rlnc-experiments — the experiment harness
//!
//! The paper contains no numbered tables or figures; its "evaluation" is a
//! chain of quantitative claims (decider guarantees, probability bounds,
//! growth rates, decay rates). Each module here regenerates one of those
//! claims as a table or series, following the experiment index of
//! `docs/ARCHITECTURE.md`. Where a claim has a registry scenario, the
//! experiment renders it from that scenario's `rlnc-sweep` records (the
//! scenario column), so the report and `rlnc-experiments sweep --scenario
//! NAME` measure one workload:
//!
//! | Id | Claim | Scenario |
//! |----|-------|----------|
//! | E1 | `amos` golden-ratio decider guarantee ≈ 0.618 (§2.3.1) | |
//! | E2 | random 3-coloring solves the ε-slack relaxation (§1.1) | `slack-ring` |
//! | E3 | Cole–Vishkin 3-colors rings in `O(log* n)` rounds (§1.1) | |
//! | E4 | order-invariant algorithms are monochromatic on consecutive-ID cycles (§4) | |
//! | E5 | the `L_f` decider of Corollary 1 has guarantee `> 1/2` | `resilient-boundary` |
//! | E6 | disjoint-union boosting: acceptance ≤ `(1−βp)^ν` (Claim 3) | `boosting-decay` |
//! | E7 | gluing: connected, degree ≤ k, acceptance decays with ν′ (Theorem 1) | `glued-decay` |
//! | E8 | Ramsey lift: order-invariance + agreement on consistent ID sets (Claim 1 / Appendix A) | `ramsey-lift` |
//! | E9 | ε-slack: randomization helps, constant-round deterministic algorithms do not (§5) | `slack-ring` |
//! | E10 | message-passing execution ≡ ball-view execution (§2.1) | |
//!
//! Every experiment returns an [`ExperimentReport`] holding a rendered
//! table plus a list of [`Finding`]s (paper claim vs measured value), which
//! the `rlnc-experiments` binary prints as one markdown document (and
//! writes to a file with `--markdown FILE`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e01_amos;
pub mod e02_slack;
pub mod e03_cole_vishkin;
pub mod e04_order_invariant;
pub mod e05_resilient_decider;
pub mod e06_boosting;
pub mod e07_gluing;
pub mod e08_ramsey;
pub mod e09_slack_vs_det;
pub mod e10_equivalence;
pub mod report;
pub mod status;
pub mod trace;

pub use report::{ExperimentReport, Finding, Table};
use rlnc_par::Scale;

/// One entry of the [`EXPERIMENTS`] runner table: identifier, one-line
/// description, and the seeded runner.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Canonical lower-case identifier (`"e1"`, ..., `"e10"`).
    pub id: &'static str,
    /// One-line description (shown by `rlnc-experiments --list`).
    pub description: &'static str,
    /// The runner; the seed perturbs every random stream (`0` is the
    /// historical default).
    pub run: fn(Scale, u64) -> ExperimentReport,
}

/// The experiment runners in index order — the single source of truth for
/// which experiments exist (experiment `eN` is `EXPERIMENTS[N - 1]`).
pub const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        id: "e1",
        description: "amos golden-ratio zero-round decider (§2.3.1)",
        run: e01_amos::run,
    },
    Experiment {
        id: "e2",
        description: "ε-slack relaxation via the zero-round random coloring (§1.1)",
        run: e02_slack::run,
    },
    Experiment {
        id: "e3",
        description: "Cole–Vishkin 3-colors oriented rings in O(log* n) rounds (§1.1)",
        run: e03_cole_vishkin::run,
    },
    Experiment {
        id: "e4",
        description: "order-invariant algorithms are monochromatic on consecutive-ID cycles (§4)",
        run: e04_order_invariant::run,
    },
    Experiment {
        id: "e5",
        description: "the f-resilient decider of Corollary 1 has guarantee > 1/2 (§4)",
        run: e05_resilient_decider::run,
    },
    Experiment {
        id: "e6",
        description: "disjoint-union boosting: acceptance ≤ (1−βp)^ν (Claim 3)",
        run: e06_boosting::run,
    },
    Experiment {
        id: "e7",
        description: "gluing: connected, degree ≤ k, acceptance decays with ν′ (Theorem 1)",
        run: e07_gluing::run,
    },
    Experiment {
        id: "e8",
        description: "Ramsey lift: consistent ID sets force order-invariance (Claim 1)",
        run: e08_ramsey::run,
    },
    Experiment {
        id: "e9",
        description: "ε-slack: randomization helps, constant-round determinism does not (§5)",
        run: e09_slack_vs_det::run,
    },
    Experiment {
        id: "e10",
        description: "message-passing execution ≡ ball-view execution (§2.1)",
        run: e10_equivalence::run,
    },
];

/// Runs every experiment at the given scale and master seed, in index
/// order.
pub fn run_all(scale: Scale, seed: u64) -> Vec<ExperimentReport> {
    EXPERIMENTS.iter().map(|e| (e.run)(scale, seed)).collect()
}

/// Parses an experiment identifier (`"e1"`, `"E07"`, `"7"`) into its
/// number, returning `None` for ids that name no experiment.
pub fn parse_experiment_id(id: &str) -> Option<usize> {
    let normalized = id.trim().to_ascii_lowercase();
    let number: usize = normalized.trim_start_matches('e').parse().ok()?;
    (1..=EXPERIMENTS.len()).contains(&number).then_some(number)
}

/// Runs a single experiment by its identifier (e.g. `"e1"`, `"E07"`) at
/// the given scale and master seed.
pub fn run_by_id(id: &str, scale: Scale, seed: u64) -> Option<ExperimentReport> {
    let experiment = EXPERIMENTS[parse_experiment_id(id)? - 1];
    Some((experiment.run)(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_by_id_accepts_flexible_spelling() {
        assert!(run_by_id("e1", Scale::Smoke, 0).is_some());
        assert!(run_by_id("E03", Scale::Smoke, 0).is_some());
        assert!(run_by_id("7", Scale::Smoke, 0).is_some());
        assert!(run_by_id("e99", Scale::Smoke, 0).is_none());
        assert!(run_by_id("nonsense", Scale::Smoke, 0).is_none());
    }

    #[test]
    fn experiments_table_ids_and_descriptions_are_well_formed() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(e.id, format!("e{}", i + 1));
            assert!(!e.description.is_empty());
            assert_eq!(parse_experiment_id(e.id), Some(i + 1));
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = run_by_id("e1", Scale::Smoke, 42).unwrap();
        let b = run_by_id("e1", Scale::Smoke, 42).unwrap();
        assert_eq!(a.table.rows, b.table.rows);
    }

    #[test]
    fn all_experiments_produce_consistent_reports_at_smoke_scale() {
        for report in run_all(Scale::Smoke, 0) {
            assert!(!report.id.is_empty());
            assert!(!report.table.columns.is_empty());
            assert!(!report.table.rows.is_empty());
            assert!(!report.findings.is_empty());
            for row in &report.table.rows {
                assert_eq!(row.len(), report.table.columns.len(), "ragged row in {}", report.id);
            }
            let markdown = report.to_markdown();
            assert!(markdown.contains(&report.id));
            assert!(markdown.contains('|'));
        }
    }
}
