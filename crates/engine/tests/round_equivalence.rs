//! Property-based equivalence suite for the **round backend**: fault-free
//! executions through explicit message passing ([`RoundPlan`]) must be
//! **bit-identical** to the ball-extraction engine ([`ExecutionPlan`] /
//! [`DecisionScratch`]) for the same `(seed, node)` coin derivation —
//! across random graph families, sizes, radii, identity assignments,
//! seeds, synthetic coin-mixing algorithms, and **every language case in
//! the registry** (constructor and decider alike).
//!
//! This is the proof obligation that makes the fault axis trustworthy:
//! once the fault-free round backend is pinned to the engine bit-for-bit,
//! any divergence under a [`FaultPlan`](rlnc_core::FaultPlan) is
//! attributable to the injected faults alone.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlnc_core::prelude::*;
use rlnc_engine::{ExecutionPlan, RoundPlan};
use rlnc_graph::generators::Family;
use rlnc_graph::IdAssignment;
use rlnc_langs::registry::{CaseId, LanguageCase};
use rlnc_par::rng::SeedSequence;

/// The candidate families the `fault-matrix` sweep scenario exercises —
/// the registry equivalence tests draw from the same pool (each case may
/// still pin its own family, e.g. Cole–Vishkin pins the cycle).
const SWEEP_FAMILIES: [Family; 3] = [Family::Cycle, Family::Circulant2, Family::Prism];

/// Builds a family member plus inputs and an identity assignment, all
/// derived from one seed — same shape as the engine equivalence suite.
fn instance_parts(
    family: Family,
    n: usize,
    seed: u64,
) -> (rlnc_graph::Graph, Labeling, IdAssignment) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = family.generate(n, &mut rng);
    let input = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 5));
    let ids = if seed % 2 == 0 {
        IdAssignment::consecutive(&graph)
    } else {
        IdAssignment::random_permutation(&graph, &mut rng)
    };
    (graph, input, ids)
}

/// A candidate instance for a registry case: the case's candidate family
/// (honoring pinned families), an identity scheme below every case's id
/// bound, and the case's own input convention.
fn case_instance_parts(
    case: &LanguageCase,
    requested: Family,
    n: usize,
    seed: u64,
) -> (rlnc_graph::Graph, Labeling, IdAssignment) {
    let family = case.candidate_family(requested);
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = family.generate(n, &mut rng);
    let ids = match seed % 3 {
        0 => IdAssignment::consecutive(&graph),
        1 => IdAssignment::random_permutation(&graph, &mut rng),
        _ => IdAssignment::spread(&graph, 7),
    };
    let input = case.build_input(&graph, &ids);
    (graph, input, ids)
}

/// A randomized algorithm that reads its own coins **and** the coins of
/// every node in its view — the shared-randomness semantics the gathered
/// views must preserve exactly (host-keyed coin streams).
fn coin_mixing_algo(radius: u32) -> FnRandomizedAlgorithm<impl Fn(&View, &Coins) -> Label + Sync> {
    FnRandomizedAlgorithm::new(radius, "coin-mixing", |v: &View, c: &Coins| {
        let mut digest = 0u64;
        for i in 0..v.len() {
            let mut rng = c.for_view_node(v, i);
            digest = digest.wrapping_mul(37).wrapping_add(rng.random::<u64>() >> 8);
        }
        let mut own = c.for_center(v);
        Label::from_u64(digest ^ own.random::<u64>())
    })
}

/// A decider mixing structure, outputs, and coins — enough entropy to
/// catch any divergence in reconstructed decision views.
fn mixing_decider(radius: u32) -> FnRandomizedDecider<impl Fn(&View, &Coins) -> bool + Sync> {
    FnRandomizedDecider::new(radius, "mixing", |view: &View, coins: &Coins| {
        let mut digest = view.center_id() ^ u64::from(view.center_degree() as u32);
        for i in 0..view.len() {
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(view.output(i).as_u64() ^ view.id(i))
                .wrapping_add(u64::from(view.distance(i)));
        }
        let mut rng = coins.for_center(view);
        (digest ^ rng.random::<u64>()) % 7 != 0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free round executions equal ball-extraction executions for
    /// an algorithm that drains every node's coin stream — across all
    /// graph families, radii (including 0), id schemes, and seeds.
    #[test]
    fn round_runs_are_bit_identical_to_the_engine(
        family_index in 0usize..Family::ALL.len(),
        n in 8usize..40,
        radius in 0u32..3,
        seed in 0u64..1_000_000,
        execution in 0u64..1_000,
    ) {
        let family = Family::ALL[family_index];
        let (graph, input, ids) = instance_parts(family, n, seed);
        let instance = Instance::new(&graph, &input, &ids);
        let algo = coin_mixing_algo(radius);
        let ball_plan = ExecutionPlan::for_instance(&instance, radius);
        let round_plan = RoundPlan::for_instance(&instance, radius);
        let execution_seed = SeedSequence::new(seed).child(execution);
        let reference = ball_plan.run_randomized(&algo, execution_seed);
        prop_assert_eq!(&round_plan.run_randomized(&algo, execution_seed), &reference);
        // A fault-free schedule must change nothing.
        let schedule = FaultSchedule::fault_free(graph.node_count(), SeedSequence::new(seed));
        prop_assert_eq!(
            &round_plan.run_with_faults(&algo, execution_seed, &schedule),
            &reference
        );
    }

    /// Decision by gathered views equals decision by extracted balls —
    /// the all-nodes-accept verdict is bit-identical per seed.
    #[test]
    fn round_decisions_are_bit_identical_to_the_scratch(
        family_index in 0usize..Family::ALL.len(),
        n in 8usize..32,
        radius in 1u32..3,
        seed in 0u64..1_000_000,
        trial in 0u64..500,
    ) {
        let family = Family::ALL[family_index];
        let (graph, input, ids) = instance_parts(family, n, seed);
        let instance = Instance::new(&graph, &input, &ids);
        let output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 2));
        let decider = mixing_decider(radius);
        let ball_plan = ExecutionPlan::for_instance(&instance, radius);
        let mut scratch = ball_plan.decision_scratch();
        let round_plan = RoundPlan::for_instance(&instance, radius);
        let execution_seed = SeedSequence::new(seed ^ 0xD0).child(trial);
        prop_assert_eq!(
            round_plan.decide_randomized(&decider, &output, execution_seed),
            scratch.decide_randomized(&decider, &output, execution_seed)
        );
    }

    /// **Every registry case**: the case's own randomized constructor
    /// run through the round backend is bit-identical to the engine, and
    /// the case's own decider reaches the same verdict on the constructed
    /// output — the construct-then-decide shape the fault-matrix sweep
    /// runs, proven fault-free-equivalent case by case.
    #[test]
    fn registry_cases_construct_and_decide_identically(
        case_index in 0usize..CaseId::ALL.len(),
        family_index in 0usize..SWEEP_FAMILIES.len(),
        half_n in 5usize..12,
        seed in 0u64..1_000_000,
        trial in 0u64..200,
    ) {
        let case = CaseId::ALL[case_index].case();
        let n = 2 * half_n;
        let (graph, input, ids) =
            case_instance_parts(&case, SWEEP_FAMILIES[family_index], n, seed);
        let instance = Instance::new(&graph, &input, &ids);
        let t = case.constructor_radius();
        let t_prime = case.checking_radius();

        let trial_seed = SeedSequence::new(seed).child(trial);
        let construct_seed = trial_seed.child(1);
        let decide_seed = trial_seed.child(2);

        let ball_plan = ExecutionPlan::for_instance(&instance, t);
        let round_plan = RoundPlan::for_instance(&instance, t);
        let reference = ball_plan.run_randomized(case.constructor.as_ref(), construct_seed);
        let output = round_plan.run_randomized(case.constructor.as_ref(), construct_seed);
        prop_assert_eq!(&output, &reference);

        let decision_plan = ExecutionPlan::for_instance(&instance, t_prime);
        let mut scratch = decision_plan.decision_scratch();
        let decision_round_plan = RoundPlan::for_instance(&instance, t_prime);
        prop_assert_eq!(
            decision_round_plan.decide_randomized(case.decider.as_ref(), &output, decide_seed),
            scratch.decide_randomized(case.decider.as_ref(), &output, decide_seed)
        );
    }
}

/// Pinned seed-0 regression across the **whole catalog**: for every one of
/// the ten registry cases, eight construct-then-decide trials at master
/// seed 0 go through both backends and must agree bit-for-bit on outputs
/// and verdicts. This is the exact seed discipline the `fault-matrix`
/// scenario uses (`trial.child(1)` constructor coins, `trial.child(2)`
/// decider coins).
#[test]
fn all_registry_cases_match_the_engine_at_seed_zero() {
    let root = SeedSequence::new(0);
    for id in CaseId::ALL {
        let case = id.case();
        let (graph, input, ids) = case_instance_parts(&case, Family::Cycle, 12, 0);
        let instance = Instance::new(&graph, &input, &ids);
        let t = case.constructor_radius();
        let t_prime = case.checking_radius();

        let ball_plan = ExecutionPlan::for_instance(&instance, t);
        let round_plan = RoundPlan::for_instance(&instance, t);
        let decision_plan = ExecutionPlan::for_instance(&instance, t_prime);
        let mut scratch = decision_plan.decision_scratch();
        let decision_round_plan = RoundPlan::for_instance(&instance, t_prime);

        for trial in 0..8u64 {
            let trial_seed = root.child(trial);
            let reference = ball_plan.run_randomized(case.constructor.as_ref(), trial_seed.child(1));
            let output = round_plan.run_randomized(case.constructor.as_ref(), trial_seed.child(1));
            assert_eq!(output, reference, "case {} trial {trial} output", case.name);
            assert_eq!(
                decision_round_plan.decide_randomized(
                    case.decider.as_ref(),
                    &output,
                    trial_seed.child(2)
                ),
                scratch.decide_randomized(case.decider.as_ref(), &output, trial_seed.child(2)),
                "case {} trial {trial} verdict",
                case.name
            );
        }
    }
}

/// Pinned fault-schedule determinism: the same `(plan, graph, seed)`
/// triple materializes byte-identical schedules no matter how many times
/// or in what order it is drawn, and distinct seeds diverge.
#[test]
fn fault_schedules_are_pinned_at_seed_zero() {
    let (graph, _, _) = instance_parts(Family::Circulant2, 24, 0);
    let mut fingerprints = Vec::new();
    for kind in 0..rlnc_core::FAULT_PLAN_KINDS {
        let plan = FaultPlan::from_index(kind, 0.4);
        let a = plan.schedule(&graph, SeedSequence::new(0).child(7));
        let b = plan.schedule(&graph, SeedSequence::new(0).child(7));
        assert_eq!(a.fingerprint(), b.fingerprint(), "plan {} replay", plan.name());
        let other = plan.schedule(&graph, SeedSequence::new(0).child(8));
        assert_ne!(a.fingerprint(), other.fingerprint(), "plan {} seed split", plan.name());
        fingerprints.push(a.fingerprint());
    }
    // The four plan kinds draw from disjoint coin streams — at a fixed
    // seed their schedules are pairwise distinct.
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), rlnc_core::FAULT_PLAN_KINDS);
}

/// FNV-1a over every node's output, in node order.
fn output_digest(out: &Labeling) -> u64 {
    out.as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, label| {
            label
                .as_bytes()
                .iter()
                .chain([&0xFF])
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
}

/// A ring of [`FAN_OUT_WORK`](rlnc_par::pool::FAN_OUT_WORK) nodes, pinned
/// to the same values under the default pool and under `RLNC_THREADS=1`.
/// Rounds step on the caller at any size, so a thread count that moved
/// these digests would be a determinism bug outside the round loop. The
/// algorithm reads identities as well as coins, so Byzantine relabeling
/// moves its outputs.
#[test]
fn fan_out_sized_ring_steps_identically_on_every_thread_count() {
    let n = rlnc_par::pool::FAN_OUT_WORK as usize;
    let graph = rlnc_graph::generators::cycle(n);
    let input = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 5));
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);
    let algo = FnRandomizedAlgorithm::new(1, "id-coin-mixing", |v: &View, c: &Coins| {
        let mut digest = 0u64;
        for i in 0..v.len() {
            let coin = c.for_view_node(v, i).random::<u64>() >> 8;
            digest = digest.wrapping_mul(37).wrapping_add(coin ^ v.id(i));
        }
        Label::from_u64(digest)
    });
    let seed = SeedSequence::new(23);
    let round_plan = RoundPlan::for_instance(&instance, 1);
    assert_eq!(
        round_plan.run_randomized(&algo, seed),
        ExecutionPlan::for_instance(&instance, 1).run_randomized(&algo, seed)
    );
    // Crash cascade and Byzantine relabeling, at intensity 0.4.
    for (kind, expected) in [(2, 0x139f_8528_180c_7152u64), (3, 0x8798_6520_b0ad_dc85)] {
        let plan = FaultPlan::from_index(kind, 0.4);
        let schedule = plan.schedule(&graph, seed.child(0));
        let out = round_plan.run_with_faults(&algo, seed.child(1), &schedule);
        assert_eq!(output_digest(&out), expected, "{}", plan.name());
    }
}
