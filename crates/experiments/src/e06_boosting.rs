//! E6 — Claim 3: disjoint-union error boosting.
//!
//! Running a constructor that fails with probability ≥ β on each hard
//! instance over the disjoint union of ν copies, and then a decider with
//! guarantee p, the acceptance probability is at most `(1 − βp)^ν`; with
//! `ν` from Eq. (3) it drops below `r·p`. We instantiate the constructor as
//! a fault-injected correct colorer with measured β, use a one-sided
//! per-bad-ball rejecting decider with parameter p, and measure the decay.
//!
//! After β is measured — through the `rlnc-derand` pipeline's engine-backed
//! Claim-2 estimator — the ν-grid runs on the `rlnc-sweep` engine (the
//! `boosting-decay` registry scenario, truncated to the Eq.-(3) ν*). Its
//! `boosting-union` workload plans the union once with
//! `DerandPipeline::union_stage`, and each trial constructs and decides
//! through `ConstructDecidePlan::accept_once`. β, `r` and `p` come from the
//! same `Decay` kernel the workload runs.

use crate::report::{fmt_prob, ExperimentReport, Finding, Table};
use rlnc_core::derand::boosting::{boosting_bound, boosting_repetitions};
use rlnc_derand::{failure_probability_with, PipelineParams};
use rlnc_par::Scale;
use rlnc_sweep::registry::boosting_spec;
use rlnc_sweep::workload::BOOSTING_TOLERANCE;
use rlnc_sweep::{SweepExecutor, Workload};

/// Runs the experiment; `seed` perturbs every random stream.
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    // The grid and the kernel come from the shared scenario; β is measured
    // on the kernel's constructor up front, with the scenario's own trial
    // count (its 4σ floor included) so its confidence width matches the
    // sweep's statistical resolution.
    let mut spec = boosting_spec(1);
    let trials = spec.grid(scale)[0].trials;
    let Workload::BoostingUnion(decay) = spec.workload else {
        unreachable!("boosting_spec always carries a BoostingUnion workload");
    };
    // `r` is the success probability the hypothetical constructor claims.
    let PipelineParams { r, p, .. } = decay.params();
    // β comes out of the pipeline's engine-backed Claim-2 estimator
    // (cached views, bit-identical to the legacy HardInstanceSearch path);
    // the Claim-2 stage involves no decider, so the standalone form fits.
    let beta = failure_probability_with(
        &decay.constructor(),
        &decay.language(),
        &decay.hard_cycle(),
        trials,
        seed ^ 0xE6,
    )
    .p_hat;
    let nu_star = boosting_repetitions(r, p, beta);
    let max_nu = nu_star.clamp(4, 12);
    spec = boosting_spec(max_nu as u64);

    let sweep = SweepExecutor::new(scale).with_seed(seed ^ 0xE6).run(&spec);

    let mut table = Table::new(&[
        "ν (copies)",
        "Pr[D accepts C(G)] measured",
        "bound (1-βp)^ν",
        "below r·p?",
    ]);

    let mut monotone = true;
    let mut previous = 1.0f64;
    let mut bound_respected = true;
    for record in &sweep.records {
        let nu = record.param_a as usize;
        let bound = boosting_bound(p, beta, nu);
        monotone &= record.p_hat <= previous + BOOSTING_TOLERANCE;
        bound_respected &= record.p_hat <= bound + BOOSTING_TOLERANCE;
        previous = record.p_hat;
        table.push_row(vec![
            nu.to_string(),
            fmt_prob(record.p_hat),
            fmt_prob(bound),
            (record.p_hat < r * p).to_string(),
        ]);
    }
    let final_acceptance = previous;

    let findings = vec![
        Finding::new(
            "Claim 3: Pr[D accepts C(G)] ≤ (1 − βp)^ν on the disjoint union of ν hard instances",
            format!(
                "measured β = {:.3}; acceptance decays monotonically and stays within +{} of the bound: {}",
                beta,
                BOOSTING_TOLERANCE,
                monotone && bound_respected
            ),
            monotone && bound_respected,
        ),
        Finding::new(
            "Eq. (3): ν = 1 + ⌈ln(rp)/ln(1−βp)⌉ copies push the acceptance below r·p, contradicting a success probability of r",
            format!(
                "ν* = {}, acceptance at the largest tested ν ({}) is {:.3} vs r·p = {:.3}",
                nu_star,
                max_nu,
                final_acceptance,
                r * p
            ),
            final_acceptance < r * p || max_nu < nu_star,
        ),
    ];

    ExperimentReport {
        id: "E6".into(),
        title: "disjoint-union error boosting (Claim 3)".into(),
        paper_reference: "§3, Claim 3 and Eq. (3)".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_boosting_decay() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        assert!(report.table.rows.len() >= 4);
    }

    /// Smoke's 150 trials, without the 4σ floor, leave seeds 1, 10, 12 and
    /// 15 more than the tolerance above the bound; with it every seed holds.
    #[test]
    fn e6_holds_at_smoke_for_seeds_0_to_15() {
        for seed in 0..16 {
            let report = run(Scale::Smoke, seed);
            assert!(
                report.all_consistent(),
                "seed {seed}: {:?}",
                report.findings
            );
        }
    }
}
