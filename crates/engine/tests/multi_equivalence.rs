//! Batched multi-algorithm equivalence: `run_many` / `acceptance_many`
//! must be **bit-identical** to K independent references — per-algorithm
//! [`ExecutionPlan::run`] and legacy `Simulator` runs, and per-trial
//! [`ExecutionPlan::decide_randomized`] loops — across the registry's
//! language cases, the connected regular families the Claim-2 scan sweeps
//! (cycle, circulant-2, prism), identity schemes, and seeds. The schedule
//! axis is covered twice: in-process by running every property through
//! the default and odd-block runners, and across processes by CI running
//! this suite in both the default and `RLNC_THREADS=1` legs (the pool
//! reads the variable once per process).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlnc_core::algorithm::LocalAlgorithm;
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::prelude::*;
use rlnc_engine::{BatchRunner, ExecutionPlan};
use rlnc_graph::generators::Family;
use rlnc_graph::IdAssignment;
use rlnc_langs::registry::{CaseId, CaseRegistry};
use rlnc_par::rng::SeedSequence;

/// The families the `claim2-scan` scenario sweeps.
const FAMILIES: [Family; 3] = [Family::Cycle, Family::Circulant2, Family::Prism];

/// The schedule variants every property runs through.
fn runners() -> [BatchRunner; 2] {
    [BatchRunner::new(), BatchRunner::new().with_block(7)]
}

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

/// A family of output-and-coin-mixing radius-1 deciders with distinct
/// accept rates, so the per-trial verdict bitset settles at different
/// views for different members.
fn graded_decider(j: u64) -> FnRandomizedDecider<impl Fn(&View, &Coins) -> bool + Sync> {
    FnRandomizedDecider::new(1, "graded-mix", move |view: &View, coins: &Coins| {
        let mut digest = view.output(view.center_local()).as_u64().wrapping_mul(j + 2);
        for &i in &view.center_neighbors() {
            digest = digest.wrapping_mul(31).wrapping_add(view.output(i).as_u64());
        }
        let mut rng = coins.for_center(view);
        (digest ^ rng.random::<u64>()) % (3 + j) != 0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_runs_match_sequential_runs_across_registry_cases(
        family_index in 0usize..FAMILIES.len(),
        case_index in 0u64..CaseRegistry::builtin().len() as u64,
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
            for runner in runners() {
                let many = runner.run_many(&refs, &plan);
                prop_assert_eq!(many.len(), refs.len());
                for (algo, batched) in refs.iter().zip(&many) {
                    prop_assert_eq!(batched, &plan.run(*algo));
                }
            }
        }
    }

    #[test]
    fn batched_acceptances_match_sequential_acceptances(
        family_index in 0usize..FAMILIES.len(),
        k in 1u64..10,
        n in 8usize..28,
        seed in 0u64..1_000_000,
        trials in 10u64..60,
    ) {
        let (graph, ids) = graph_and_ids(FAMILIES[family_index], n, seed);
        let input = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 3));
        let output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 2));
        let io = IoConfig::new(&graph, &input, &output);
        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        let deciders: Vec<_> = (0..k).map(graded_decider).collect();
        let refs: Vec<&dyn RandomizedDecider> =
            deciders.iter().map(|d| d as &dyn RandomizedDecider).collect();
        let root = SeedSequence::new(seed ^ 0xA5);
        for runner in runners() {
            let many = runner.acceptance_many(&refs, &plan, trials, seed ^ 0xA5);
            prop_assert_eq!(many.len(), refs.len());
            for (decider, batched) in refs.iter().zip(&many) {
                let accepted = (0..trials)
                    .filter(|&t| plan.decide_randomized(*decider, root.child(t)))
                    .count() as u64;
                prop_assert_eq!(batched.successes, accepted);
            }
        }
    }
}

/// Pinned full-catalog pass at the default seed: every registry case's
/// whole deterministic family (all radii) through the batched kernel on
/// one prism instance, byte-compared against the legacy simulator.
#[test]
fn every_registry_case_batches_bit_identically_at_seed_zero() {
    for case_index in 0..CaseRegistry::builtin().len() as u64 {
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
            let many = BatchRunner::new().run_many(&refs, &plan);
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
