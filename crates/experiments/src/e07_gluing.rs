//! E7 — Theorem 1's connected gluing construction.
//!
//! Verifies the structural properties the proof needs — the glued graph is
//! connected, keeps maximum degree ≤ k (= 3 here), hosts µ = ⌈1/(2p−1)⌉
//! anchors pairwise ≥ 2(t+t′) apart whenever the hard instances have
//! diameter ≥ 2µ(t+t′) — and measures how the probability that the decider
//! accepts the constructed output *far from every anchor* decays with the
//! number ν′ of glued instances, against the `(1 − β(1−p)/µ)^{ν′}` shape.
//!
//! After β is measured — through the `rlnc-derand` pipeline's engine-backed
//! Claim-2 estimator, as E6 measures it — the ν′-grid runs on the
//! `rlnc-sweep` engine: the `glued-decay` registry scenario, whose records
//! carry the far-from-every-anchor acceptance as their success channel and
//! the all-nodes acceptance as their value channel.

use crate::report::{fmt_prob, ExperimentReport, Finding, Table};
use rlnc_core::derand::gluing::{
    anchor_candidates, claim5_bound, gluing_repetitions, GluingExperiment,
};
use rlnc_derand::{failure_probability_with, PipelineParams};
use rlnc_graph::traversal::{distance, is_connected};
use rlnc_par::Scale;
use rlnc_sweep::registry::glued_decay_spec;
use rlnc_sweep::{SweepExecutor, Workload};

/// Runs the experiment; `seed` perturbs every random stream.
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    // The kernel comes from the shared scenario; β is measured on its
    // constructor up front, with the scenario's own trial budget.
    let spec = glued_decay_spec();
    let trials = scale.trials(spec.base_trials);
    let Workload::GluedDecay(decay) = spec.workload else {
        unreachable!("glued_decay_spec always carries a GluedDecay workload");
    };
    // `r` is the success probability the hypothetical constructor claims;
    // `(t, t′)` are the anchor radii the workload glues with.
    let params = decay.params();
    let PipelineParams { r, p, t, t_prime } = params;
    let mu = params.mu();

    let beta = failure_probability_with(
        &decay.constructor(),
        &decay.language(),
        &decay.hard_cycle(),
        trials,
        seed ^ 0xE7,
    )
    .p_hat;
    let nu_prime_star = gluing_repetitions(r, p, beta);

    // Structural checks on one gluing of 3 parts.
    let parts = vec![decay.hard_cycle(); 3];
    let anchors: Vec<_> = parts
        .iter()
        .map(|h| anchor_candidates(h, t, t_prime, p))
        .collect();
    let anchors_found = anchors.iter().all(|a| a.len() >= mu);
    let min_anchor_distance = anchors[0]
        .iter()
        .enumerate()
        .flat_map(|(i, &u)| anchors[0].iter().skip(i + 1).map(move |&v| (u, v)))
        .filter_map(|(u, v)| distance(&parts[0].graph, u, v))
        .min()
        .unwrap_or(0);
    let chosen: Vec<_> = anchors.iter().map(|a| a[0]).collect();
    let structural = GluingExperiment::build(parts, chosen, t, t_prime);
    let connected = is_connected(structural.graph());
    let degree_ok = structural.graph().max_degree() <= 3;

    let sweep = SweepExecutor::new(scale).with_seed(seed ^ 0xE7).run(&spec);

    let mut table = Table::new(&[
        "ν' (glued instances)",
        "Pr[accept far from all anchors]",
        "bound (1-β(1-p)/µ)^ν'",
        "Pr[D accepts C(G)] (all nodes)",
    ]);

    let mut previous_far = 1.0f64;
    let mut monotone = true;
    for record in &sweep.records {
        let nu = record.param_a as i32;
        let bound = claim5_bound(beta, p, mu).powi(nu);
        monotone &= record.p_hat <= previous_far + 0.05;
        previous_far = record.p_hat;
        table.push_row(vec![
            nu.to_string(),
            fmt_prob(record.p_hat),
            fmt_prob(bound),
            fmt_prob(record.mean_value),
        ]);
    }

    let findings = vec![
        Finding::new(
            "the gluing preserves connectivity and the degree bound k = 3 (k > 2)",
            format!("connected: {connected}, max degree ≤ 3: {degree_ok}"),
            connected && degree_ok,
        ),
        Finding::new(
            "µ = ⌈1/(2p−1)⌉ anchors pairwise ≥ 2(t+t') apart exist when the diameter is ≥ 2µ(t+t')",
            format!(
                "µ = {mu}, found {} anchor(s) per instance with pairwise distance ≥ {} (needed {})",
                anchors_found,
                min_anchor_distance,
                2 * (t + t_prime)
            ),
            anchors_found && min_anchor_distance >= 2 * (t + t_prime),
        ),
        Finding::new(
            "the probability that the decider accepts far from every anchor decays geometrically with ν' (Claims 4–5)",
            format!("measured β = {beta:.3}, ν'* = {nu_prime_star}, acceptance decreases monotonically: {monotone}"),
            monotone,
        ),
    ];

    ExperimentReport {
        id: "E7".into(),
        title: "the Theorem-1 gluing: structure and acceptance decay".into(),
        paper_reference: "§3, Claims 4–5 and the gluing construction".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_gluing_structure_and_decay() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        // The scenario's ν' ∈ {2, ..., 6} grid, on every scale.
        assert_eq!(report.table.rows.len(), 5);
    }
}
