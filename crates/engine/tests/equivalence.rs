//! Property-based equivalence suite: the engine must be **bit-identical**
//! to the legacy per-trial `View::collect` path for the same `(seed, node)`
//! coin derivation — across random graph families, sizes, radii, identity
//! assignments, seeds, and both deterministic and randomized algorithms.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlnc_core::derand::boosting::disjoint_union_acceptance;
use rlnc_core::derand::gluing::{anchor_candidates, GluingExperiment};
use rlnc_core::derand::hard_instances::consecutive_cycle_candidates;
use rlnc_core::prelude::*;
use rlnc_engine::{ExecutionPlan, GluedPlan, UnionPlan};
use rlnc_graph::generators::Family;
use rlnc_graph::{IdAssignment, NodeId};
use rlnc_par::rng::SeedSequence;
use rlnc_par::trials::MonteCarlo;

/// Builds a family member plus inputs and an identity assignment, all
/// derived from one seed (the randomized families draw their structure
/// from it too).
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

/// A deterministic algorithm that reads everything a view exposes:
/// structure, distances, identities, ranks, inputs.
fn structural_algo(radius: u32) -> FnAlgorithm<impl Fn(&View) -> Label + Sync> {
    FnAlgorithm::new(radius, "structural-digest", |v: &View| {
        let mut digest = v.center_id() ^ (v.center_degree() as u64) << 7;
        for i in 0..v.len() {
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(v.id(i) ^ u64::from(v.distance(i)) << 3)
                .wrapping_add(v.input(i).as_u64())
                .wrapping_add(v.rank(i) as u64);
        }
        for w in v.center_neighbors() {
            digest = digest.rotate_left(5) ^ v.id(w);
        }
        Label::from_u64(digest)
    })
}

/// A randomized algorithm that reads its own coins **and** the coins of
/// every node in its view — the shared-randomness semantics whose
/// `(seed, node)` derivation the engine must preserve exactly.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deterministic_runs_are_bit_identical(
        family_index in 0usize..Family::ALL.len(),
        n in 8usize..48,
        radius in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let family = Family::ALL[family_index];
        let (graph, input, ids) = instance_parts(family, n, seed);
        let instance = Instance::new(&graph, &input, &ids);
        let algo = structural_algo(radius);
        let plan = ExecutionPlan::for_instance(&instance, radius);
        let legacy = Simulator::new().run(&algo, &instance);
        prop_assert_eq!(&plan.run(&algo), &legacy);
    }

    #[test]
    fn randomized_runs_are_bit_identical(
        family_index in 0usize..Family::ALL.len(),
        n in 8usize..48,
        radius in 0u32..3,
        seed in 0u64..1_000_000,
        execution in 0u64..1_000,
    ) {
        let family = Family::ALL[family_index];
        let (graph, input, ids) = instance_parts(family, n, seed);
        let instance = Instance::new(&graph, &input, &ids);
        let algo = coin_mixing_algo(radius);
        let plan = ExecutionPlan::for_instance(&instance, radius);
        let execution_seed = SeedSequence::new(seed).child(execution);
        let legacy = Simulator::new().run_randomized(&algo, &instance, execution_seed);
        prop_assert_eq!(&plan.run_randomized(&algo, execution_seed), &legacy);
    }

    #[test]
    fn monte_carlo_success_streams_are_bit_identical(
        family_index in 0usize..Family::ALL.len(),
        n in 8usize..32,
        seed in 0u64..1_000_000,
    ) {
        let family = Family::ALL[family_index];
        let (graph, input, ids) = instance_parts(family, n, seed);
        let instance = Instance::new(&graph, &input, &ids);
        let algo = coin_mixing_algo(1);
        let plan = ExecutionPlan::for_instance(&instance, 1);
        let success = |out: &Labeling| out.get(NodeId(0)).as_u64() % 3 == 0;
        let legacy = MonteCarlo::new(60).with_seed(seed ^ 0xBEEF).estimate(|s| {
            let out = Simulator::new().run_randomized(&algo, &instance, s);
            success(&out)
        });
        let engine = plan.estimate(&algo, 60, seed ^ 0xBEEF, success);
        prop_assert_eq!(engine.successes, legacy.successes);
        prop_assert_eq!(engine.p_hat, legacy.p_hat);
    }

    #[test]
    fn decision_plans_and_scratches_are_bit_identical(
        family_index in 0usize..Family::ALL.len(),
        n in 8usize..32,
        seed in 0u64..1_000_000,
        trial in 0u64..500,
    ) {
        let family = Family::ALL[family_index];
        let (graph, input, ids) = instance_parts(family, n, seed);
        let output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 2));
        let io = IoConfig::new(&graph, &input, &output);
        // A decider reading outputs, neighbor coins, and its own coins.
        let decider = FnRandomizedDecider::new(1, "noisy-conflict", |view: &View, coins: &Coins| {
            let mine = view.output(view.center_local());
            let conflict = view.center_neighbors().any(|i| view.output(i) == mine);
            if !conflict {
                true
            } else {
                !coins.for_center(view).random_bool(0.8)
            }
        });
        let execution_seed = SeedSequence::new(seed ^ 0xD0).child(trial);
        let legacy = decide_randomized(&decider, &io, &ids, execution_seed);

        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        prop_assert_eq!(plan.decide_randomized(&decider, execution_seed), legacy);

        // The construct-then-decide shape: a construction plan plus a
        // scratch whose outputs are refreshed per trial.
        let instance = Instance::new(&graph, &input, &ids);
        let construction = ExecutionPlan::for_instance(&instance, 1);
        let mut scratch = construction.decision_scratch();
        prop_assert_eq!(
            scratch.decide_randomized(&decider, &output, execution_seed),
            legacy
        );
        // And again with different outputs, to prove the refresh overwrites.
        let flipped = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0 + 1) % 2));
        let io_flipped = IoConfig::new(&graph, &input, &flipped);
        prop_assert_eq!(
            scratch.decide_randomized(&decider, &flipped, execution_seed),
            decide_randomized(&decider, &io_flipped, &ids, execution_seed)
        );
    }

    #[test]
    fn construction_success_matches_engine_estimate(
        n in 8usize..24,
        seed in 0u64..100_000,
    ) {
        // The Simulator's own cached-view Monte-Carlo path and the plan's
        // estimate must agree with each other (both being bit-identical
        // to the historical per-trial resimulation stream).
        let (graph, input, ids) = instance_parts(Family::Cycle, n, seed);
        let instance = Instance::new(&graph, &input, &ids);
        let algo = FnRandomizedAlgorithm::new(0, "bit", |v: &View, c: &Coins| {
            Label::from_bool(c.for_center(v).random_bool(0.5))
        });
        let lang = FnLanguage::new("first-node-true", |io: &IoConfig<'_>| {
            io.output.get(NodeId(0)).as_bool()
        });
        let legacy = Simulator::new().construction_success(&algo, &instance, &lang, 40, seed);
        let plan = ExecutionPlan::for_instance(&instance, 0);
        let engine = plan.estimate(&algo, 40, seed, |out| {
            let io = IoConfig::from_instance(&instance, out);
            lang.contains(&io)
        });
        prop_assert_eq!(engine.successes, legacy.successes);
    }

    #[test]
    fn union_plans_match_legacy_disjoint_union_acceptance(
        part_a in 4usize..10,
        part_b in 4usize..10,
        nu in 1usize..5,
        seed in 0u64..100_000,
    ) {
        // The Claim-3 kernel: the engine's UnionPlan must reproduce the
        // legacy per-trial estimator bit-for-bit — same union construction
        // (cycled parts, disjoint identity ranges), same (master, trial)
        // seed tree, same child(0)/child(1) constructor/decider split.
        let hard = consecutive_cycle_candidates([part_a, part_b]);
        let constructor = coin_mixing_algo(0);
        let decider = parity_decider();
        let legacy = disjoint_union_acceptance(&constructor, &decider, &hard, nu, 60, seed);
        let union = UnionPlan::for_parts(&hard, nu, 0, 1);
        prop_assert_eq!(union.components(), nu);
        let engine = union.plan().acceptance(&constructor, &decider, None, 60, seed);
        prop_assert_eq!(engine.successes, legacy.successes);
        prop_assert_eq!(engine.p_hat, legacy.p_hat);
    }

    #[test]
    fn glued_plans_match_legacy_gluing_experiment(
        part_size in 8usize..16,
        nu in 2usize..5,
        seed in 0u64..100_000,
    ) {
        // The Claims-4/5 kernels: all-nodes acceptance and the
        // far-from-every-anchor event, against the legacy GluingExperiment
        // estimators (which re-run one BFS per anchor per trial to find the
        // participation set the GluedPlan precomputes).
        let parts = consecutive_cycle_candidates(vec![part_size; nu]);
        let anchors: Vec<NodeId> = parts
            .iter()
            .map(|h| anchor_candidates(h, 0, 1, 0.75)[0])
            .collect();
        let experiment = GluingExperiment::build(parts, anchors, 0, 1);
        let constructor = coin_mixing_algo(0);
        let decider = parity_decider();

        let glued_anchors: Vec<NodeId> = (0..nu).map(|i| experiment.glued_anchor(i)).collect();
        let instance = experiment.as_hard_instance();
        let plan = GluedPlan::new(
            &instance.as_instance(),
            glued_anchors,
            experiment.exclusion_radius,
            0,
            1,
        );

        let far_legacy = experiment.acceptance_far_from_all_anchors(&constructor, &decider, 50, seed);
        let full_legacy = experiment.acceptance(&constructor, &decider, 50, seed ^ 0xF);
        let participants = Some(plan.participants());
        let far = plan.plan().acceptance(&constructor, &decider, participants, 50, seed);
        prop_assert_eq!(far.successes, far_legacy.successes);
        let full = plan.plan().acceptance(&constructor, &decider, None, 50, seed ^ 0xF);
        prop_assert_eq!(full.successes, full_legacy.successes);
    }
}

/// A radius-1 decider mixing outputs and coins — enough entropy to catch
/// any stream divergence between the composite kernels and the legacy
/// estimators.
fn parity_decider() -> FnRandomizedDecider<impl Fn(&View, &Coins) -> bool + Sync> {
    FnRandomizedDecider::new(1, "parity-coin", |view: &View, coins: &Coins| {
        let mut digest = view.output(view.center_local()).as_u64();
        for i in view.center_neighbors() {
            digest = digest.wrapping_mul(31).wrapping_add(view.output(i).as_u64());
        }
        let mut rng = coins.for_center(view);
        (digest ^ rng.random::<u64>()) % 5 != 0
    })
}

/// With the counting allocator installed, the engine's per-trial decision
/// loop — the hot path every Monte-Carlo estimate spins on — must perform
/// zero heap allocations, *with observability enabled*. This pins the
/// obs cost model: resolved counter handles are plain atomic adds.
#[cfg(feature = "count-alloc")]
#[test]
fn instrumented_decision_loop_does_not_allocate() {
    use rlnc_core::decision::FnRandomizedDecider;
    use rlnc_obs::alloc_counter::allocations;

    let (graph, input, ids) = instance_parts(Family::Cycle, 24, 3);
    let output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 2));
    let instance = Instance::new(&graph, &input, &ids);
    let plan = ExecutionPlan::for_instance(&instance, 1);
    let mut scratch = plan.decision_scratch();
    let decider = FnRandomizedDecider::new(1, "coin-parity", |view: &View, coins: &Coins| {
        let mine = view.output(view.center_local()).as_u64();
        coins.for_center(view).random::<u64>().wrapping_add(mine) % 3 != 0
    });

    rlnc_obs::set_enabled(true);
    let root = SeedSequence::new(11);
    // Warm-up: interns the obs cells and materializes every view's output
    // buffer. The always-accept pass matters — `decide_randomized`
    // short-circuits on the first rejecting node, so a rejecting warm-up
    // trial would leave deeper views untouched and their first real
    // refresh would allocate mid-measurement.
    let accept_all = FnRandomizedDecider::new(1, "accept-all", |_: &View, _: &Coins| true);
    scratch.decide_randomized(&accept_all, &output, root.child(0));
    for trial in 0..8u64 {
        scratch.decide_randomized(&decider, &output, root.child(trial));
    }
    let before = allocations();
    for trial in 8..1008u64 {
        scratch.decide_randomized(&decider, &output, root.child(trial));
    }
    let after = allocations();
    rlnc_obs::set_enabled(false);
    assert_eq!(
        after - before,
        0,
        "instrumented decision loop allocated {} times over 1000 trials",
        after - before
    );
}

/// For every registered LCL case, the bad-ball predicate performs zero
/// heap allocations: on decision views once they exist, and over the full
/// host configuration.
#[cfg(feature = "count-alloc")]
#[test]
fn view_native_verdicts_do_not_allocate() {
    use rlnc_core::language::is_bad_view;
    use rlnc_langs::registry::CaseId;
    use rlnc_obs::alloc_counter::allocations;

    for id in CaseId::ALL {
        let case = id.case();
        let Some(lcl) = &case.lcl else { continue };
        let family = case.candidate_family(rlnc_graph::generators::Family::Cycle);
        let mut rng = SeedSequence::new(5).rng();
        let graph = family.generate(32, &mut rng);
        let ids = IdAssignment::consecutive(&graph);
        let input = case.build_input(&graph, &ids);
        let inst = Instance::new(&graph, &input, &ids);
        let out = rlnc_core::Simulator::new().run_randomized(
            &*case.constructor,
            &inst,
            SeedSequence::new(1).child(0),
        );
        let io = IoConfig::new(&graph, &input, &out);
        let views: Vec<View> = graph
            .nodes()
            .map(|v| View::collect_io(&io, &ids, v, lcl.radius()))
            .collect();
        // Warm-up pass (nothing to warm, but keep the protocol uniform),
        // then the counted passes: on the views, then on the host.
        let bad_views = || views.iter().filter(|v| is_bad_view(&**lcl, v)).count();
        let warm = bad_views();
        let before = allocations();
        let counted = bad_views();
        let after_views = allocations();
        let host = bad_ball_count(&**lcl, &io);
        let after_host = allocations();
        assert_eq!(warm, counted);
        assert_eq!(host, counted, "case '{}': verdicts differ", case.name);
        assert_eq!(
            after_views - before,
            0,
            "case '{}': view-native verdicts allocated {} times",
            case.name,
            after_views - before
        );
        assert_eq!(
            after_host - after_views,
            0,
            "case '{}': host-configuration verdicts allocated {} times",
            case.name,
            after_host - after_views
        );
    }
}

/// Warms a construct-then-decide loop on `instance`, then asserts that
/// 1000 more trials allocate nothing.
#[cfg(feature = "count-alloc")]
fn assert_construct_decide_loop_does_not_allocate<C, D>(
    instance: &Instance<'_>,
    construction_radius: u32,
    constructor: &C,
    decider: &D,
    root: SeedSequence,
) where
    C: RandomizedLocalAlgorithm + ?Sized,
    D: RandomizedDecider + ?Sized,
{
    use rlnc_engine::ConstructDecidePlan;
    use rlnc_obs::alloc_counter::allocations;

    let plan = ConstructDecidePlan::new(instance, construction_radius, 1);
    let mut scratch = plan.decision_scratch();
    let mut out = Labeling::empty(plan.node_count());

    rlnc_obs::set_enabled(true);
    // Warm-up: an always-accepting decider visits every node, so every
    // cached view's output buffer exists before the counted loop.
    let accept_all = FnRandomizedDecider::new(1, "accept-all", |_: &View, _: &Coins| true);
    plan.accept_once(
        &mut scratch,
        &mut out,
        constructor,
        &accept_all,
        None,
        root.child(0),
    );
    let mut trial = |t: u64| {
        plan.accept_once(
            &mut scratch,
            &mut out,
            constructor,
            decider,
            None,
            root.child(t),
        )
    };
    for t in 0..8u64 {
        trial(t);
    }
    let before = allocations();
    for t in 8..1008u64 {
        trial(t);
    }
    let after = allocations();
    rlnc_obs::set_enabled(false);
    assert_eq!(
        after - before,
        0,
        "construct-decide loop allocated {} times over 1000 trials",
        after - before
    );
}

/// A warmed construct-then-decide trial allocates nothing: constructed
/// labels are inline values written into the reusable output buffer, and
/// the decision scratch copies them into its cached views in place.
#[cfg(feature = "count-alloc")]
#[test]
fn construct_decide_loop_does_not_allocate() {
    use rlnc_langs::coloring::ProperColoring;
    use rlnc_langs::random_coloring::RandomColoring;

    let n = 24;
    let graph = rlnc_graph::generators::cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);
    let constructor = RandomColoring::new(3);
    let decider = OneSidedLclDecider::new(ProperColoring::new(3), 0.75);
    assert_construct_decide_loop_does_not_allocate(
        &instance,
        0,
        &constructor,
        &decider,
        SeedSequence::new(17),
    );
}

/// The radius-10 fault-injected Cole–Vishkin constructor allocates nothing
/// per trial either: it replays the center's successor chain in a stack
/// array.
#[cfg(feature = "count-alloc")]
#[test]
fn cole_vishkin_construct_decide_loop_does_not_allocate() {
    use rlnc_langs::registry::CaseId;

    let case = CaseId::ColeVishkin.case();
    let graph = rlnc_graph::generators::cycle(32);
    let ids = IdAssignment::consecutive(&graph);
    let input = case.build_input(&graph, &ids);
    let instance = Instance::new(&graph, &input, &ids);
    assert_construct_decide_loop_does_not_allocate(
        &instance,
        case.constructor.radius(),
        &*case.constructor,
        &*case.decider,
        SeedSequence::new(19),
    );
}

/// A warmed radius-0 gathered output allocates only its view's buffers
/// (members, distances, CSR offsets, identities, inputs; a radius-0 ball
/// has no neighbor list): the learned CSR and the ball are built in a
/// reused per-thread scratch. Five per node plus the output labeling,
/// bounded at six per node.
#[cfg(feature = "count-alloc")]
#[test]
fn gathered_outputs_allocate_only_their_views() {
    use rlnc_core::rounds::{GatherRun, RoundSystem};
    use rlnc_obs::alloc_counter::allocations;

    let n = 16;
    let graph = rlnc_graph::generators::cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);
    let algo = FnRandomizedAlgorithm::new(0, "id-degree", |v: &View, _: &Coins| {
        Label::from_u64(v.center_id() ^ (v.center_degree() as u64) << 32)
    });
    let gather = GatherRun::new(&algo, Coins::new(SeedSequence::new(3)));
    let mut system = RoundSystem::new(&gather, &instance);
    system.step_until_quiet();
    let warm = system.outputs();
    let before = allocations();
    let outputs = system.outputs();
    let after = allocations();
    assert_eq!(outputs, warm);
    assert!(
        after - before <= 6 * n as u64,
        "{} allocations for {n} gathered outputs",
        after - before
    );
}

/// Stepping the radius-10 Cole–Vishkin gather on a 16-node oriented ring
/// allocates at most 730 times, with or without every node Byzantine: a
/// sender wraps one snapshot of its state per round (the snapshot and its
/// two lists), and a Byzantine sender's forged snapshot has no other
/// owner, so `GatherRun::forge` copies nothing.
#[cfg(feature = "count-alloc")]
#[test]
fn cole_vishkin_gather_steps_within_its_allocation_budget() {
    use rlnc_core::rounds::{GatherRun, MessagePassingAlgorithm, RoundSystem};
    use rlnc_langs::registry::CaseId;
    use rlnc_obs::alloc_counter::allocations;

    let case = CaseId::ColeVishkin.case();
    let graph = rlnc_graph::generators::cycle(16);
    let ids = IdAssignment::consecutive(&graph);
    let input = case.build_input(&graph, &ids);
    let instance = Instance::new(&graph, &input, &ids);
    let gather = GatherRun::new(&*case.constructor, Coins::new(SeedSequence::new(29)));
    assert_eq!(gather.rounds(), 10);
    let byzantine =
        FaultPlan::ByzantineRelabel { probability: 1.0 }.schedule(&graph, SeedSequence::new(31));
    for schedule in [None, Some(&byzantine)] {
        let mut system = RoundSystem::new(&gather, &instance);
        if let Some(schedule) = schedule {
            system = system.with_faults(schedule);
        }
        let before = allocations();
        assert_eq!(system.step_until_quiet(), 10);
        let stepped = allocations() - before;
        assert!(
            stepped <= 730,
            "{stepped} allocations stepping (byzantine: {})",
            schedule.is_some()
        );
    }
}

/// The Claim-1 refinement builds one evaluation view per ball template
/// and only re-labels it per sample: on a 16-template probe, 40 samples
/// per template cost at most three allocations per evaluation on average.
/// The sampler (`choose_multiple`) allocates two per sample by itself, and
/// building a view once per template adds well under one per evaluation.
#[cfg(feature = "count-alloc")]
#[test]
fn ramsey_refinement_reuses_one_view_per_template() {
    use rlnc_core::derand::ramsey::{collect_templates, consistent_id_set};
    use rlnc_obs::alloc_counter::allocations;

    let graph = rlnc_graph::generators::cycle(16);
    let ids = IdAssignment::consecutive(&graph);
    let input = Labeling::from_fn(&graph, |v| Label::from_u64(ids.id(v)));
    let instance = Instance::new(&graph, &input, &ids);
    let templates = collect_templates(&[instance], 1);
    assert_eq!(
        templates.len(),
        16,
        "identity inputs make every ball its own type"
    );
    let algo = FnAlgorithm::new(1, "constant", |_: &View| Label::from_u64(1));
    let universe: Vec<u64> = (1..=64).collect();
    let samples = 40;
    let before = allocations();
    let refined = consistent_id_set(&algo, &templates, &universe, samples, 9);
    let after = allocations();
    assert_eq!(refined, universe, "a constant algorithm refines nothing");
    let evaluations = (templates.len() * (samples + 1)) as u64;
    assert!(
        after - before <= 3 * evaluations,
        "{} allocations over {evaluations} evaluations",
        after - before
    );
}

/// Pinned seed-0 regression of both composite kernels.
#[test]
fn union_and_glued_kernels_match_legacy_at_seed_zero() {
    let hard = consecutive_cycle_candidates([12]);
    let constructor = coin_mixing_algo(0);
    let decider = parity_decider();
    for nu in [1usize, 4, 8] {
        let legacy = disjoint_union_acceptance(&constructor, &decider, &hard, nu, 200, 0);
        let union = UnionPlan::for_parts(&hard, nu, 0, 1);
        let engine = union
            .plan()
            .acceptance(&constructor, &decider, None, 200, 0);
        assert_eq!(engine.successes, legacy.successes, "union nu={nu}");
    }

    let parts = consecutive_cycle_candidates(vec![16; 3]);
    let anchors: Vec<NodeId> = parts
        .iter()
        .map(|h| anchor_candidates(h, 0, 1, 0.75)[0])
        .collect();
    let experiment = GluingExperiment::build(parts, anchors, 0, 1);
    let glued_anchors: Vec<NodeId> = (0..3).map(|i| experiment.glued_anchor(i)).collect();
    let instance = experiment.as_hard_instance();
    let plan = GluedPlan::new(&instance.as_instance(), glued_anchors, 1, 0, 1);
    let far_legacy = experiment.acceptance_far_from_all_anchors(&constructor, &decider, 200, 0);
    let participants = Some(plan.participants());
    let far_engine = plan
        .plan()
        .acceptance(&constructor, &decider, participants, 200, 0);
    assert_eq!(far_engine.successes, far_legacy.successes);
    let full_legacy = experiment.acceptance(&constructor, &decider, 200, 0);
    let full_engine = plan.plan().acceptance(&constructor, &decider, None, 200, 0);
    assert_eq!(full_engine.successes, full_legacy.successes);
}
