//! Batched multi-algorithm equivalence: `run_many` must be
//! **bit-identical** to K independent references — per-algorithm
//! [`ExecutionPlan::run`] and legacy `Simulator` runs — across the
//! registry's language cases, the connected regular families the Claim-2
//! scan sweeps (cycle, circulant-2, prism), identity schemes, and seeds.
//! The schedule axis is covered across processes by CI running this suite
//! in both the default and `RLNC_THREADS=1` legs (the pool reads the
//! variable once per process); `tests/fan_out.rs` checks that the walk
//! goes to the pool, on work spanning several ranges, whenever it has
//! more than one thread.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rlnc_core::algorithm::LocalAlgorithm;
use rlnc_core::prelude::*;
use rlnc_engine::ExecutionPlan;
use rlnc_graph::generators::Family;
use rlnc_graph::IdAssignment;
use rlnc_langs::registry::CaseId;

/// The families the `claim2-scan` scenario sweeps.
const FAMILIES: [Family; 3] = [Family::Cycle, Family::Circulant2, Family::Prism];

/// Graph + identity assignment for one property case; odd seeds take the
/// random-permutation identity scheme.
fn graph_and_ids(family: Family, n: usize, seed: u64) -> (rlnc_graph::Graph, IdAssignment) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = family.generate(n, &mut rng);
    let ids = if seed % 2 == 0 {
        IdAssignment::consecutive(&graph)
    } else {
        IdAssignment::random_permutation(&graph, &mut rng)
    };
    (graph, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_runs_match_sequential_runs_across_registry_cases(
        family_index in 0usize..FAMILIES.len(),
        case_index in 0u64..CaseId::ALL.len() as u64,
        n in 8usize..32,
        seed in 0u64..1_000_000,
    ) {
        let case = CaseId::from_index(case_index).case();
        let family = case.candidate_family(FAMILIES[family_index]);
        let (graph, ids) = graph_and_ids(family, n, seed);
        let input = case.build_input(&graph, &ids);
        let instance = Instance::new(&graph, &input, &ids);
        // The registry's deterministic families can mix radii; the
        // batched kernel runs one same-radius slice per plan, exactly
        // like the rewired Claim-2 scan does.
        let mut radii: Vec<u32> = case.det_family.iter().map(|a| a.radius()).collect();
        radii.sort_unstable();
        radii.dedup();
        for radius in radii {
            let refs: Vec<&dyn LocalAlgorithm> = case
                .det_family
                .iter()
                .map(|a| &**a)
                .filter(|a| a.radius() == radius)
                .collect();
            let plan = ExecutionPlan::for_instance(&instance, radius);
            let many = plan.run_many(&refs);
            prop_assert_eq!(many.len(), refs.len());
            for (algo, batched) in refs.iter().zip(&many) {
                prop_assert_eq!(batched, &plan.run(*algo));
            }
        }
    }
}

/// Pinned full-catalog pass at the default seed: every registry case's
/// whole deterministic family (all radii) through the batched kernel on
/// one prism instance, byte-compared against the legacy simulator.
#[test]
fn every_registry_case_batches_bit_identically_at_seed_zero() {
    for case_index in 0..CaseId::ALL.len() as u64 {
        let case = CaseId::from_index(case_index).case();
        let family = case.candidate_family(Family::Prism);
        let (graph, ids) = graph_and_ids(family, 16, 0);
        let input = case.build_input(&graph, &ids);
        let instance = Instance::new(&graph, &input, &ids);
        let mut radii: Vec<u32> = case.det_family.iter().map(|a| a.radius()).collect();
        radii.sort_unstable();
        radii.dedup();
        for radius in radii {
            let refs: Vec<&dyn LocalAlgorithm> = case
                .det_family
                .iter()
                .map(|a| &**a)
                .filter(|a| a.radius() == radius)
                .collect();
            let plan = ExecutionPlan::for_instance(&instance, radius);
            let many = plan.run_many(&refs);
            for (algo, batched) in refs.iter().zip(&many) {
                assert_eq!(
                    batched,
                    &Simulator::new().run(*algo, &instance),
                    "case '{}' radius {radius}",
                    case.name
                );
            }
        }
    }
}
