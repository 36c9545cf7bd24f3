//! E5 — the Corollary-1 decider for `L_f` has guarantee above 1/2.
//!
//! For `f ∈ {1, 2, 4, 8}` and planted bad-ball counts `|F| ∈ {0, 3, 6, 9}`
//! the experiment measures `Pr[all accept]` of the decider with
//! `p ∈ (2^{-1/f}, 2^{-1/(f+1)})` and compares it with the theoretical
//! `p^{|F|}`, checking the two inequalities `p^f > 1/2` (yes-side) and
//! `1 − p^{f+1} > 1/2` (no-side) that the proof of Corollary 1 relies on.
//!
//! The `(f, planted)` grid runs on the `rlnc-sweep` engine (the
//! `resilient-boundary` registry scenario), which also enforces the
//! margin-aware per-row trial floor: near the resilience boundary the
//! tested inequality can be razor-thin (`f = 8`, `|F| = 9` leaves
//! `1/2 − p⁹ ≈ 0.016`), so each grid point gets enough trials to resolve
//! its own margin at ≈4σ.

use crate::report::{fmt_prob, ExperimentReport, Finding, Table};
use rlnc_core::resilient::{resilient_acceptance_probability, theoretical_acceptance};
use rlnc_par::Scale;
use rlnc_sweep::registry::resilient_boundary_spec;
use rlnc_sweep::workload::planted_bad_balls;
use rlnc_sweep::SweepExecutor;

/// Runs the experiment; `seed` perturbs every random stream.
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    let spec = resilient_boundary_spec();
    let sweep = SweepExecutor::new(scale).with_seed(seed ^ 0xE5).run(&spec);

    let mut table = Table::new(&[
        "f",
        "p (decider)",
        "planted bad balls |F|",
        "instance side",
        "Pr[all accept] measured",
        "theory p^|F|",
        "required inequality",
    ]);

    let mut all_sides_ok = true;
    let mut all_match_theory = true;

    for r in &sweep.records {
        let f = r.param_a as usize;
        let p = resilient_acceptance_probability(f);
        let bad = planted_bad_balls(r.n as usize, r.param_b);
        let theory = theoretical_acceptance(f, bad);
        let yes_side = bad <= f;
        let side_ok = if yes_side { r.p_hat > 0.5 } else { 1.0 - r.p_hat > 0.5 };
        // The inequality is only *required* at |F| ≤ f (yes) or ≥ f+1 (no);
        // measured probabilities must track p^{|F|} everywhere (up to the
        // Monte-Carlo confidence width).
        let half_width = (r.upper - r.lower) / 2.0;
        all_match_theory &= (r.p_hat - theory).abs() < half_width + 0.03;
        if yes_side || bad > f {
            all_sides_ok &= side_ok;
        }
        table.push_row(vec![
            f.to_string(),
            fmt_prob(p),
            bad.to_string(),
            if yes_side { "yes (|F| ≤ f)".into() } else { "no (|F| > f)".into() },
            fmt_prob(r.p_hat),
            fmt_prob(theory),
            if yes_side {
                format!("accept > 1/2: {}", r.p_hat > 0.5)
            } else {
                format!("reject > 1/2: {}", 1.0 - r.p_hat > 0.5)
            },
        ]);
    }

    let findings = vec![
        Finding::new(
            "Corollary 1 proof: with p ∈ (2^{-1/f}, 2^{-1/(f+1)}), yes-instances are accepted w.p. ≥ p^f > 1/2 and no-instances rejected w.p. ≥ 1 − p^{f+1} > 1/2 (so L_f ∈ BPLD)",
            format!("both sides above 1/2 in every tested configuration: {all_sides_ok}"),
            all_sides_ok,
        ),
        Finding::new(
            "the acceptance probability is exactly p^{|F(G)|}",
            format!("measured values within ±0.05 of p^|F|: {all_match_theory}"),
            all_match_theory,
        ),
    ];

    ExperimentReport {
        id: "E5".into(),
        title: "the f-resilient decider of Corollary 1".into(),
        paper_reference: "§4, Corollary 1 and its proof".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_resilient_decider_guarantee() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        // The sweep grid covers f ∈ {1,2,4,8} × planted ∈ {0..3}.
        assert_eq!(report.table.rows.len(), 16);
    }

    #[test]
    fn e5_is_reproducible_and_seed_sensitive() {
        let a = run(Scale::Smoke, 7);
        let b = run(Scale::Smoke, 7);
        assert_eq!(a.table.rows, b.table.rows);
        assert!(a.all_consistent(), "findings: {:?}", a.findings);
    }
}
