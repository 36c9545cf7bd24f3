//! E8 — Claim 1 / Appendix A: the order-invariant lift.
//!
//! Verifies the two computational halves of the Ramsey argument: (i) the
//! lifted algorithm `A'` (relabel the ball with the smallest identities of
//! a fixed set, respecting order, then run `A`) is order-invariant even
//! when `A` is not; (ii) refining the identity universe until `A` is
//! consistent on every ball type makes `A'` agree with `A` on instances
//! whose identities come from the refined set.
//!
//! Both halves run on the `ramsey-lift` registry scenario: one row per
//! record (graph family × wrapped algorithm). The agreement column is the
//! record's success count over fresh in-set identity draws; the refined
//! set and the order-invariance checks come from the grid point that
//! `Workload::prepare` builds under the executor's own seed branch.

use crate::report::{ExperimentReport, Finding, Table};
use rlnc_core::derand::ramsey::OrderInvariantLift;
use rlnc_core::order_invariant::{check_order_invariance, standard_monotone_maps};
use rlnc_core::prelude::*;
use rlnc_par::Scale;
use rlnc_sweep::registry::ramsey_lift_spec;
use rlnc_sweep::workload::Prepared;
use rlnc_sweep::SweepExecutor;

/// Runs the experiment; `seed` perturbs every random stream.
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    let spec = ramsey_lift_spec();
    let executor = SweepExecutor::new(scale).with_seed(seed ^ 0xE8);
    let sweep = executor.run(&spec);
    let scenario = executor.scenario_sequence(&spec.name);

    let maps = standard_monotone_maps();
    let map_refs: Vec<&dyn Fn(u64) -> u64> = maps
        .iter()
        .map(|m| m.as_ref() as &dyn Fn(u64) -> u64)
        .collect();

    let mut table = Table::new(&[
        "family",
        "wrapped algorithm",
        "A order-invariant?",
        "A' (lift) order-invariant?",
        "refined ID set size",
        "A ≡ A' on in-set draws",
    ]);

    let mut all_lifts_invariant = true;
    let mut all_agreements = true;

    for (point, record) in spec.grid(scale).iter().zip(&sweep.records) {
        let Prepared::Ramsey {
            graph,
            input,
            ids,
            algo,
            id_set,
            ..
        } = spec.workload.prepare(point, scenario.child(point.index))
        else {
            unreachable!("ramsey_lift_spec always prepares Ramsey points");
        };
        let inner_invariant = check_order_invariance(&*algo, &graph, &input, &ids, &map_refs);
        let lift = OrderInvariantLift::new(&*algo, id_set.clone());
        let lift_invariant = check_order_invariance(&lift, &graph, &input, &ids, &map_refs);
        all_lifts_invariant &= lift_invariant;
        all_agreements &= record.successes == record.trials;

        table.push_row(vec![
            record.family.clone(),
            LocalAlgorithm::name(&*algo),
            inner_invariant.to_string(),
            lift_invariant.to_string(),
            id_set.len().to_string(),
            format!("{}/{}", record.successes, record.trials),
        ]);
    }

    let findings = vec![
        Finding::new(
            "Appendix A: the relabel-and-run algorithm A' is order-invariant",
            format!("every lift passed the order-invariance check: {all_lifts_invariant}"),
            all_lifts_invariant,
        ),
        Finding::new(
            "Appendix A: restricted to identities from the (Ramsey-refined) set U, A and A' compute the same outputs",
            format!("agreement on every in-set draw for every wrapped algorithm: {all_agreements}"),
            all_agreements,
        ),
    ];

    ExperimentReport {
        id: "E8".into(),
        title: "the order-invariant lift (Claim 1 / Appendix A)".into(),
        paper_reference: "Claim 1, Appendix A".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_order_invariant_lift() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        // One row per ramsey-lift record: 2 families × 3 wrapped algorithms.
        assert_eq!(report.table.rows.len(), 6);
    }
}
