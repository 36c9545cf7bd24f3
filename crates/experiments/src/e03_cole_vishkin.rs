//! E3 — 3-coloring the ring takes `Θ(log* n)` rounds (§1.1).
//!
//! Upper bound: Cole–Vishkin 3-colors oriented rings, and its round count
//! grows like `log* n` (plus a constant). Lower-bound side: the zero-round
//! and one-round order-invariant attempts fail on consecutive-identity
//! rings (covered in more depth by E4); here we tabulate the round counts
//! and verify correctness at every size.

use crate::report::{ExperimentReport, Finding, Table};
use rlnc_core::prelude::*;
use rlnc_langs::cole_vishkin::{cv_iterations, log_star, oriented_ring_instance, ColeVishkinRingColoring};
use rlnc_langs::coloring::ProperColoring;
use rlnc_par::Scale;

/// Runs the experiment; the experiment is deterministic, so `seed` is
/// unused (kept for the uniform runner-table signature).
pub fn run(scale: Scale, _seed: u64) -> ExperimentReport {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![8, 16, 64],
        Scale::Standard => vec![16, 64, 256, 1024, 4096],
        Scale::Full => vec![16, 64, 256, 1024, 4096, 16_384, 65_536],
    };

    let mut table = Table::new(&["n", "log*(n)", "CV iterations", "total rounds", "proper 3-coloring?"]);
    let mut all_proper = true;
    let mut rounds_small = 0u32;
    let mut rounds_large = 0u32;
    let lang = ProperColoring::new(3);

    for (i, &n) in sizes.iter().enumerate() {
        let algo = ColeVishkinRingColoring::for_ring_size(n);
        let (graph, input, ids) = oriented_ring_instance(n);
        let inst = Instance::new(&graph, &input, &ids);
        let out = Simulator::new().run(&algo, &inst);
        let proper = lang.contains(&IoConfig::new(&graph, &input, &out));
        all_proper &= proper;
        if i == 0 {
            rounds_small = algo.rounds();
        }
        rounds_large = algo.rounds();
        table.push_row(vec![
            n.to_string(),
            log_star(n as u64).to_string(),
            algo.iterations().to_string(),
            algo.rounds().to_string(),
            proper.to_string(),
        ]);
    }

    let max_rounds = sizes
        .iter()
        .map(|&n| ColeVishkinRingColoring::for_ring_size(n).rounds())
        .max()
        .unwrap_or(0);

    let findings = vec![
        Finding::new(
            "§1.1: 3-coloring the n-ring is possible in O(log* n) rounds (Cole–Vishkin upper bound)",
            format!(
                "proper 3-colorings at every size; rounds grow from {} to {} while n grows {}×",
                rounds_small,
                rounds_large,
                sizes.last().unwrap() / sizes.first().unwrap()
            ),
            all_proper,
        ),
        Finding::new(
            "the round count stays far below n (it tracks the iterated logarithm, not n)",
            format!("max rounds {} on rings of up to {} nodes", max_rounds, sizes.last().unwrap()),
            (max_rounds as usize) < sizes[sizes.len() - 1] / 2,
        ),
        Finding::new(
            "cv_iterations is monotone in the identity range (log*-like growth)",
            format!(
                "iterations({}) = {} ≤ iterations(2^40) = {}",
                sizes[0],
                cv_iterations(sizes[0] as u64),
                cv_iterations(1 << 40)
            ),
            cv_iterations(sizes[0] as u64) <= cv_iterations(1 << 40),
        ),
    ];

    ExperimentReport {
        id: "E3".into(),
        title: "Cole–Vishkin 3-coloring of oriented rings: rounds vs log* n".into(),
        paper_reference: "§1.1 (Linial bound [25], randomized bound [27])".into(),
        table,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_cole_vishkin_round_growth() {
        let report = run(Scale::Smoke, 0);
        assert!(report.all_consistent(), "findings: {:?}", report.findings);
    }
}
