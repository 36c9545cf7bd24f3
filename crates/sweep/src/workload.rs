//! Workload kernels: what one Monte-Carlo trial at a grid point actually
//! does.
//!
//! A [`Workload`] is the declarative half (an enum that names the kernel
//! and its fixed parameters, recorded in every [`crate::RunRecord`]); a
//! [`Prepared`] point is the executable half, built once per grid point by
//! [`Workload::prepare`] and then driven trial-by-trial with independent
//! [`SeedSequence`]s by the executor.
//!
//! Preparation goes through the `rlnc-engine` planner: everything that is
//! fixed across a grid point's trials (graphs, identity assignments,
//! planted outputs — and, crucially, every node's extracted ball) is baked
//! into [`ExecutionPlan`]s once, so a trial only evaluates algorithm and
//! decider output functions against cached views. The trial streams are
//! bit-identical to the legacy collect-per-trial path (the engine's
//! equivalence suite pins this down).

use crate::spec::{GridPoint, IdScheme};
use rlnc_core::algorithm::LocalAlgorithm;
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::derand::hard_instances::{consecutive_cycle_candidates, HardInstance};
use rlnc_core::derand::ramsey::OrderInvariantLift;
use rlnc_core::faults::FaultPlan;
use rlnc_core::language::DistributedLanguage;
use rlnc_core::one_sided::OneSidedLclDecider;
use rlnc_core::prelude::{
    FnAlgorithm, Instance, IoConfig, Label, Labeling, RandomizedLocalAlgorithm, Simulator, View,
};
use rlnc_core::relaxation::EpsilonSlack;
use rlnc_core::resilient::{theoretical_acceptance, ResilientDecider};
use rlnc_derand::{DerandPipeline, PipelineParams};
use rlnc_engine::{
    ConstructDecidePlan, DecisionScratch, ExecutionPlan, GluedPlan, PlanCache, RoundPlan, UnionPlan,
};
use rlnc_graph::generators::{cycle, Family};
use rlnc_graph::{Graph, IdAssignment, NodeId};
use rlnc_langs::coloring::{improperly_colored_nodes, GlobalGreedyColoring, ProperColoring};
use rlnc_langs::faulty::FaultyConstructor;
use rlnc_langs::random_coloring::RandomColoring;
use rlnc_langs::registry::{CaseId, LanguageCase};
use rlnc_par::rng::SeedSequence;
use rlnc_par::trials::TrialOutcome;
use rand::seq::IndexedRandom;
use rand::Rng;

/// The Monte-Carlo kernel a scenario runs at every grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Zero-round uniformly random `colors`-coloring; a trial succeeds if
    /// the output lands in the ε-slack relaxation of proper coloring
    /// (§1.1). The trial value is the improper-node fraction. Ignores
    /// [`crate::Params`]. Works on every graph family.
    SlackColoring {
        /// Palette size of the random coloring.
        colors: u64,
        /// Slack fraction ε of tolerated bad balls.
        epsilon: f64,
    },
    /// The Corollary-1 `f`-resilient decider on an even cycle with planted
    /// 2-coloring conflicts (§4). Reads `params.a` as the resilience `f`
    /// and `params.b` as the number of planted conflicts (each planted
    /// conflict creates 3 bad balls). A trial succeeds if every node
    /// accepts. Requires [`Family::Cycle`].
    ResilientBoundary {
        /// Palette size of the underlying proper coloring (the paper's
        /// boundary instance uses 2).
        colors: u64,
    },
    /// Claim-3 error boosting: the [`Decay`] kernel's constructor runs on
    /// the disjoint union of `params.a` copies of its hard cycle, planned
    /// by [`DerandPipeline::union_stage`]; its decider then decides the
    /// result. A trial succeeds if the decider accepts everywhere.
    /// Requires [`Family::Cycle`].
    BoostingUnion(Decay),
    /// Claims 4–5 glued decay: the [`Decay`] kernel's constructor runs on
    /// the connected gluing of `params.a` copies of its hard cycle,
    /// planned by [`DerandPipeline::glued_stage_auto`]; the engine's
    /// [`GluedPlan`] evaluates both the "accepts far from every anchor"
    /// event (the trial's success) and the all-nodes acceptance (the
    /// trial's value) against cached views and a precomputed participation
    /// set. Requires [`Family::Cycle`].
    GluedDecay(Decay),
    /// Claim 1 Ramsey lift: refine an identity universe until the wrapped
    /// algorithm (selected by `params.a`: 0 = rank coloring, 1 = id
    /// parity, 2 = id mod 3) is consistent on every ball type, then test
    /// per trial that the lift `A'` agrees with `A` on a fresh instance
    /// whose identities are drawn from the refined set. The trial value is
    /// the refined set's survival rate. Works on every graph family.
    RamseyLift {
        /// Identity-universe size (raised to `6 × n` when smaller, so the
        /// refined set can always relabel a whole instance).
        universe: u64,
        /// Consistency samples per template per refinement round.
        samples: u32,
    },
    /// The **language workload**: the full four-stage Theorem-1 pipeline
    /// (ramsey lift → hard-instance search → boosted disjoint union →
    /// connected gluing) for the registry case selected by `params.b`
    /// ([`CaseId::from_index`] — coloring, `amos`, weak coloring, MIS,
    /// matching, dominating set, LLL, frugal coloring, Cole–Vishkin,
    /// majority); `params.a` is the repetition count `ν`. A trial
    /// constructs and decides once on the planned union (the trial's
    /// value) and once on the planned gluing's far-from-anchors event (the
    /// trial's success). Candidate instances follow the case's input
    /// convention (identity names for matching, ring orientation for
    /// Cole–Vishkin — which also pins its candidates to the cycle family
    /// regardless of the grid's family axis). Requires a connected regular
    /// family (cycle, circulant, prism, torus).
    LanguagePipeline,
    /// The **fault matrix**: one registry case's constructor runs through
    /// the round backend ([`RoundPlan`]) under a seeded
    /// [`FaultPlan`] — crashes, crash cascades, or
    /// Byzantine identity relabeling — and the case's decider then judges
    /// the (possibly corrupted) output on the fault-free engine path.
    /// `params.a` encodes the fault axis as
    /// `plan_kind × 1000 + intensity‰` (see
    /// [`decode_fault_params`]); `params.b` selects the case via
    /// [`CaseId::from_index`]. A trial succeeds iff every node accepts;
    /// the trial value is the schedule's realized faulty-node fraction.
    /// Requires a connected regular family.
    FaultMatrix,
    /// The **batched Claim-2 scan**: the K-axis of the multi-algorithm
    /// hard-instance search. `params.a` is the width `K` of the
    /// deterministic probe family (the registry case's algorithms,
    /// widened with same-radius synthesized variants); `params.b`
    /// selects the case via [`CaseId::from_index`]. Preparation runs the
    /// batched [`DerandPipeline::hard_instance_stage_cached`] scan —
    /// one `run_many` pass settles a whole same-radius algorithm slice
    /// per cached candidate — and a trial then estimates the found hard
    /// instance's constructor failure rate (the trial's success); the
    /// value channel records the scan's pool coverage `found / K`.
    /// Requires a connected regular family.
    Claim2Scan,
}

/// The Claims 3–5 decay kernel: a fault-injected greedy colorer on
/// consecutive-identity hard cycles, judged by a one-sided per-bad-ball
/// rejecting decider. The `boosting-decay` and `glued-decay` workloads, E6
/// and E7 all build its parts through these methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decay {
    /// Size of each hard cycle copy.
    pub cycle_size: usize,
    /// Per-node corruption probability of the faulty constructor.
    pub per_node_fault: f64,
    /// Palette size of the greedy colorer and of the decider's range check.
    pub colors: u64,
    /// Rejection probability at bad-ball centers (the decider's one-sided
    /// guarantee `p`).
    pub decider_p: f64,
}

impl Decay {
    /// The correct greedy colorer (it sees the whole hard cycle), with
    /// each node's output corrupted to color 0 at rate `per_node_fault`.
    pub fn constructor(&self) -> FaultyConstructor<GlobalGreedyColoring> {
        FaultyConstructor::new(
            GlobalGreedyColoring::new(self.cycle_size as u32, self.colors),
            self.per_node_fault,
            Label::from_u64(0),
        )
    }

    /// The one-sided decider: rejects at each bad ball with probability
    /// `decider_p`.
    pub fn decider(&self) -> OneSidedLclDecider<ProperColoring> {
        OneSidedLclDecider::new(self.language(), self.decider_p)
    }

    /// The language: proper `colors`-coloring.
    pub fn language(&self) -> ProperColoring {
        ProperColoring::new(self.colors)
    }

    /// The Theorem-1 knobs: the claimed success probability `r = 0.9`, the
    /// decider's `p`, and the anchor radii `(t, t′) = (0, 1)` — the
    /// relevant radius is the decider's, however far the greedy colorer
    /// reads.
    pub fn params(&self) -> PipelineParams {
        PipelineParams {
            r: 0.9,
            p: self.decider_p,
            t: 0,
            t_prime: 1,
        }
    }

    /// The hard instance: a `cycle_size`-cycle with consecutive identities.
    pub fn hard_cycle(&self) -> HardInstance {
        consecutive_cycle_candidates([self.cycle_size]).remove(0)
    }
}

/// How far above the Claim-3 bound `(1 − βp)^ν`, and above the previous
/// ν's estimate, E6 lets a `boosting-decay` acceptance estimate lie; the
/// boosting kernel's trial floor ([`Workload::min_trials`]) resolves it.
pub const BOOSTING_TOLERANCE: f64 = 0.05;

/// The trials that resolve a probability estimate to within `margin` at
/// ≈4σ whatever the probability: σ ≤ √(0.25 / trials).
fn four_sigma_trials(margin: f64) -> u64 {
    (0.25 * (4.0 / margin).powi(2)).ceil() as u64
}

/// Decodes the fault-matrix `params.a` axis: the thousands digit group
/// selects the [`FaultPlan`] kind and the low three
/// digits its intensity in permille (`2_250` → kind 2 at intensity 0.25).
pub fn decode_fault_params(a: u64) -> (usize, f64) {
    ((a / 1000) as usize, (a % 1000) as f64 / 1000.0)
}

impl Workload {
    /// The name recorded in [`crate::RunRecord`]s.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::SlackColoring { .. } => "slack-coloring",
            Workload::ResilientBoundary { .. } => "resilient-boundary",
            Workload::BoostingUnion(_) => "boosting-union",
            Workload::GluedDecay(_) => "glued-decay",
            Workload::RamseyLift { .. } => "ramsey-lift",
            Workload::LanguagePipeline => "language-pipeline",
            Workload::FaultMatrix => "fault-matrix",
            Workload::Claim2Scan => "claim2-scan",
        }
    }

    /// Rejects grid families the kernel cannot run on.
    pub fn check_family(&self, family: Family) -> Result<(), String> {
        match self {
            Workload::SlackColoring { .. } | Workload::RamseyLift { .. } => Ok(()),
            Workload::ResilientBoundary { .. }
            | Workload::BoostingUnion(_)
            | Workload::GluedDecay(_) => {
                if family == Family::Cycle {
                    Ok(())
                } else {
                    Err(format!(
                        "workload '{}' runs on the cycle family only, got '{}'",
                        self.name(),
                        family.name()
                    ))
                }
            }
            Workload::LanguagePipeline | Workload::FaultMatrix | Workload::Claim2Scan => {
                if matches!(
                    family,
                    Family::Cycle | Family::Circulant2 | Family::Prism | Family::Torus
                ) {
                    Ok(())
                } else {
                    Err(format!(
                        "workload '{}' needs a connected regular family \
                         (cycle, circulant-2, prism, torus), got '{}'",
                        self.name(),
                        family.name()
                    ))
                }
            }
        }
    }

    /// Adjusts a scaled size to the kernel's structural requirements (the
    /// planted-conflict construction needs an even cycle with room for the
    /// planted regions).
    pub fn normalize_size(&self, n: usize) -> usize {
        match self {
            Workload::ResilientBoundary { .. } => (n.max(48) / 6) * 6,
            // The boosting and gluing kernels always build their composites
            // out of copies of a fixed hard cycle, so the recorded size is
            // pinned to the copy size (the scale knob varies trials, not
            // the instance).
            Workload::BoostingUnion(decay) | Workload::GluedDecay(decay) => decay.cycle_size,
            // The pipeline's hard-instance candidates need room for anchors
            // pairwise 2(t + t') apart and a usable Ramsey probe.
            Workload::LanguagePipeline | Workload::FaultMatrix | Workload::Claim2Scan => {
                n.max(12)
            }
            Workload::RamseyLift { .. } => n.max(8),
            Workload::SlackColoring { .. } => n,
        }
    }

    /// A statistical floor on the trial count of a grid point.
    ///
    /// Near the resilience boundary the inequality under test can be
    /// razor-thin (`f = 8`, `|F| = 9` leaves `1/2 − p⁹ ≈ 0.016`), so the
    /// resilient kernel demands enough trials to resolve its own margin at
    /// ≈4σ; the 0.015 margin floor caps the demand at ≈17.8k trials. The
    /// boosting kernel resolves [`BOOSTING_TOLERANCE`] the same way
    /// (1,600 trials).
    pub fn min_trials(&self, point: &GridPoint) -> u64 {
        match self {
            Workload::ResilientBoundary { .. } => {
                let f = point.params.a.max(1) as usize;
                let bad = planted_bad_balls(point.n, point.params.b);
                let theory = theoretical_acceptance(f, bad);
                four_sigma_trials((theory - 0.5).abs().max(0.015))
            }
            Workload::BoostingUnion(_) => four_sigma_trials(BOOSTING_TOLERANCE),
            Workload::SlackColoring { .. }
            | Workload::GluedDecay(_)
            | Workload::RamseyLift { .. }
            | Workload::LanguagePipeline
            | Workload::FaultMatrix
            | Workload::Claim2Scan => 0,
        }
    }

    /// Builds the per-point state (graphs, labelings, deciders) once, so
    /// trial batches only pay for the Monte-Carlo part. `point_seed` is the
    /// grid point's branch of the scenario seed tree; preparation draws
    /// from its child `0`, trials from its child `1` (see
    /// [`crate::SweepExecutor`]).
    pub fn prepare(&self, point: &GridPoint, point_seed: SeedSequence) -> Prepared {
        let mut prep_rng = point_seed.child(0).rng();
        match *self {
            Workload::SlackColoring { colors, epsilon } => {
                // Deterministic families (and id schemes) produce the same
                // instance every trial, so build them once here; randomized
                // ones are regenerated per trial from the trial seed. The
                // trial streams are identical either way (the setup draws
                // from dedicated seed children).
                let fixed = if point.family.is_randomized() {
                    None
                } else {
                    let graph = point.family.generate(point.n, &mut prep_rng);
                    let input = Labeling::empty(graph.node_count());
                    let ids = if point.id_scheme.is_randomized() {
                        None
                    } else {
                        Some(point.id_scheme.build(&graph, &mut prep_rng))
                    };
                    Some((graph, input, ids))
                };
                // Fully fixed instances (deterministic family *and* id
                // scheme) are planned once: the engine caches every node's
                // view for all trials of the grid point.
                // Plan construction goes through the process-global shared
                // cache (`rlnc-engine`), which is a plain `for_instance`
                // unless a resident server opted in — then repeat requests
                // reuse the plan across requests.
                let plan = match &fixed {
                    Some((graph, input, Some(ids))) => {
                        let instance = Instance::new(graph, input, ids);
                        Some(rlnc_engine::shared_plan_for_instance(&instance, 0))
                    }
                    _ => None,
                };
                Prepared::Slack {
                    colors,
                    epsilon,
                    family: point.family,
                    n: point.n,
                    id_scheme: point.id_scheme,
                    fixed,
                    plan,
                }
            }
            Workload::ResilientBoundary { colors } => {
                let f = point.params.a.max(1) as usize;
                let (graph, input, output) = planted_cycle_configuration(point.n, point.params.b);
                let ids = point.id_scheme.build(&graph, &mut prep_rng);
                let decider = ResilientDecider::new(ProperColoring::new(colors), f);
                // Graph, identities, *and* outputs are fixed, so the whole
                // decision configuration is planned once; a trial only
                // re-draws the decider's coins.
                let io = IoConfig::new(&graph, &input, &output);
                let plan =
                    rlnc_engine::shared_plan_for_io(&io, &ids, RandomizedDecider::radius(&decider));
                Prepared::Resilient { decider, plan }
            }
            Workload::BoostingUnion(decay) => {
                // The union of ν copies of the hard cycle — both view sets —
                // is planned once by the pipeline's union stage; trials only
                // flip coins.
                let (constructor, decider, language) =
                    (decay.constructor(), decay.decider(), decay.language());
                let stage = DerandPipeline::new(&constructor, &decider, &language, decay.params())
                    .union_stage(&[decay.hard_cycle()], point.params.a.max(1) as usize);
                Prepared::Boosting {
                    constructor,
                    decider,
                    plan: stage.plan,
                }
            }
            Workload::GluedDecay(decay) => {
                // The whole glued composite — ν' copies of the hard cycle,
                // each anchored at its first spread-set candidate, both view
                // sets and the Claims-4/5 participation mask — is planned
                // once by the pipeline's gluing stage; trials only flip coins.
                let (constructor, decider, language) =
                    (decay.constructor(), decay.decider(), decay.language());
                let stage = DerandPipeline::new(&constructor, &decider, &language, decay.params())
                    .glued_stage_auto(&[decay.hard_cycle()], point.params.a.max(2) as usize);
                Prepared::Glued {
                    constructor,
                    decider,
                    plan: stage.plan,
                }
            }
            Workload::RamseyLift { universe, samples } => {
                let graph = point.family.generate(point.n, &mut prep_rng);
                let n = graph.node_count();
                let input = Labeling::empty(n);
                let ids = point.id_scheme.build(&graph, &mut prep_rng);
                let algo = ramsey_algorithm(point.params.a);
                let universe: Vec<u64> = (1..=universe.max(6 * n as u64)).collect();
                let stage = rlnc_derand::ramsey_stage(
                    &*algo,
                    &[Instance::new(&graph, &input, &ids)],
                    &universe,
                    samples as usize,
                    point_seed.child(0).seed(),
                );
                Prepared::Ramsey {
                    graph,
                    input,
                    ids,
                    algo,
                    id_set: stage.id_set,
                    universe_size: stage.universe_size,
                }
            }
            Workload::LanguagePipeline => prepare_case_pipeline(
                CaseId::from_index(point.params.b).case(),
                point,
                &mut prep_rng,
                point_seed,
            ),
            Workload::FaultMatrix => {
                let (plan_kind, intensity) = decode_fault_params(point.params.a);
                let case = CaseId::from_index(point.params.b).case();
                // One candidate instance per grid point, in the case's own
                // convention (candidate family, inputs); identities follow
                // the grid's scheme. Everything fixed across trials is
                // planned once: the round backend's delivery topology and
                // the decider's cached views.
                let family = case.candidate_family(point.family);
                let graph = family.generate(point.n, &mut prep_rng);
                let ids = point.id_scheme.build(&graph, &mut prep_rng);
                let input = case.build_input(&graph, &ids);
                let instance = Instance::new(&graph, &input, &ids);
                let round_plan = RoundPlan::for_instance(&instance, case.constructor_radius());
                let decision_plan =
                    rlnc_engine::shared_plan_for_instance(&instance, case.checking_radius());
                Prepared::FaultMatrix {
                    constructor: case.constructor,
                    decider: case.decider,
                    fault_plan: FaultPlan::from_index(plan_kind, intensity),
                    round_plan,
                    decision_plan,
                }
            }
            Workload::Claim2Scan => {
                let mut case = CaseId::from_index(point.params.b).case();
                let k = point.params.a.max(1) as usize;
                let candidates = case_candidates(&case, point, &mut prep_rng);
                let algos = scan_family(std::mem::take(&mut case.det_family), k);
                // The batched scan itself: one `run_many` pass per cached
                // candidate settles verdicts for the whole same-radius
                // algorithm slice, so widening K widens the batch instead
                // of multiplying view walks.
                let (found, target) = {
                    let refs: Vec<&dyn LocalAlgorithm> =
                        algos.iter().map(|b| &**b).collect();
                    let pipeline = DerandPipeline::new(
                        &*case.constructor,
                        &*case.decider,
                        &*case.language,
                        case.params,
                    );
                    let mut cache = PlanCache::new();
                    let mut hard =
                        pipeline.hard_instance_stage_cached(&refs, &candidates, 0, 1, &mut cache);
                    let found = hard.pool.len();
                    let target = if hard.pool.is_empty() {
                        candidates[0].clone()
                    } else {
                        hard.pool.remove(0)
                    };
                    (found, target)
                };
                let plan = {
                    let instance = target.as_instance();
                    rlnc_engine::shared_plan_for_instance(&instance, case.constructor_radius())
                };
                Prepared::Claim2Scan {
                    constructor: case.constructor,
                    language: case.language,
                    target,
                    plan,
                    found,
                    k,
                }
            }
        }
    }
}

/// Widens a case's deterministic family to `k` probe algorithms for the
/// `claim2-scan` workload: the registry algorithms first, then synthesized
/// identity-keyed variants at the family's radius, so the batched
/// hard-instance scan has a real same-radius slice to amortize each
/// cached-view walk over.
fn scan_family(
    mut algos: Vec<Box<dyn LocalAlgorithm>>,
    k: usize,
) -> Vec<Box<dyn LocalAlgorithm>> {
    let radius = algos.first().map_or(1, |a| a.radius());
    for i in algos.len()..k {
        let i = i as u64;
        algos.push(Box::new(FnAlgorithm::new(radius, "scan-probe", move |v: &View| {
            Label::from_u64((v.center_id() + i) % (2 + i % 3))
        })));
    }
    algos.truncate(k.max(1));
    algos
}

/// The Claim-2 candidates of a case at one grid point, shared by the
/// `language-pipeline` and `claim2-scan` workloads: three members of the
/// case's candidate family (the grid's family, unless the case pins one —
/// Cole–Vishkin needs oriented rings) of increasing size, consecutive
/// identities, inputs per the case's convention (empty / identity names /
/// ring orientation).
fn case_candidates(
    case: &LanguageCase,
    point: &GridPoint,
    prep_rng: &mut impl Rng,
) -> Vec<HardInstance> {
    let family = case.candidate_family(point.family);
    [point.n, point.n + 2, point.n + 4]
        .iter()
        .map(|&size| {
            let graph = family.generate(size, prep_rng);
            let ids = IdAssignment::consecutive(&graph);
            let input = case.build_input(&graph, &ids);
            HardInstance::new(graph, input, ids)
        })
        .collect()
}

/// The `language-pipeline` workload's preparation: stages the full
/// four-stage Theorem-1 argument for one registry case at one grid point.
fn prepare_case_pipeline(
    case: LanguageCase,
    point: &GridPoint,
    prep_rng: &mut impl Rng,
    point_seed: SeedSequence,
) -> Prepared {
    let nu = point.params.a.max(2) as usize;
    let candidates = case_candidates(&case, point, prep_rng);
    let pipeline = DerandPipeline::new(
        &*case.constructor,
        &*case.decider,
        &*case.language,
        case.params,
    );
    // Stage 1: the Ramsey refinement of the first deterministic algorithm
    // over a universe sized to the probe. Its output feeds stage 2: the
    // smallest surviving identity becomes the hard-instance floor,
    // restricting the pool toward the refined universe exactly as Claim 1
    // hands Claim 2 the consistent set.
    let universe: Vec<u64> = (1..=(4 * point.n as u64).max(48)).collect();
    let ramsey = pipeline.ramsey_stage(
        &*case.det_family[0],
        &[candidates[0].as_instance()],
        &universe,
        40,
        point_seed.child(0).seed(),
    );
    let id_floor = ramsey.id_set.first().copied().unwrap_or(1);
    // Stage 2: one hard instance per deterministic algorithm, identity
    // ranges pairwise disjoint above the Claim-1 floor. Candidate plans are
    // shared through one cache across the whole algorithm family.
    let algos: Vec<&dyn LocalAlgorithm> = case.det_family.iter().map(|b| &**b).collect();
    let mut cache = PlanCache::new();
    let hard = pipeline.hard_instance_stage_cached(&algos, &candidates, 0, id_floor, &mut cache);
    assert!(
        !hard.pool.is_empty(),
        "language pipeline: no hard instance found for case '{}'",
        case.name
    );
    // Stages 3 and 4: both composites planned once.
    let union = pipeline.union_stage(&hard.pool, nu);
    let glued = pipeline.glued_stage_auto(&hard.pool, nu);
    Prepared::Pipeline {
        constructor: case.constructor,
        decider: case.decider,
        union: union.plan,
        glued: glued.plan,
    }
}

/// The wrapped algorithms of the `ramsey-lift` workload, by parameter
/// index: 0 = rank coloring (already order-invariant), 1 = id parity,
/// 2 = id mod 3.
fn ramsey_algorithm(index: u64) -> Box<dyn LocalAlgorithm> {
    match index % 3 {
        0 => Box::new(FnAlgorithm::new(1, "rank", |v: &View| {
            Label::from_u64(v.center_rank() as u64)
        })),
        1 => Box::new(FnAlgorithm::new(0, "id-parity", |v: &View| {
            Label::from_u64(v.center_id() % 2)
        })),
        _ => Box::new(FnAlgorithm::new(0, "id-mod-3", |v: &View| {
            Label::from_u64(v.center_id() % 3)
        })),
    }
}

/// The executable state of one grid point (see [`Workload::prepare`]).
pub enum Prepared {
    /// ε-slack random coloring: deterministic instances are prebuilt (and,
    /// when the identities are deterministic too, planned into cached
    /// views); randomized families/id schemes are rebuilt per trial from
    /// the trial seed.
    Slack {
        /// Palette size.
        colors: u64,
        /// Slack fraction.
        epsilon: f64,
        /// Graph family to instantiate per trial.
        family: Family,
        /// Target node count.
        n: usize,
        /// Identity scheme per trial.
        id_scheme: IdScheme,
        /// Prebuilt `(graph, input, ids)` when the family (and, for the
        /// ids, the scheme) is deterministic; `None` means per-trial
        /// regeneration.
        fixed: Option<(Graph, Labeling, Option<IdAssignment>)>,
        /// The engine plan over the fully fixed instance (present exactly
        /// when `fixed` carries an identity assignment).
        plan: Option<ExecutionPlan>,
    },
    /// Resilient-decider boundary: the planted configuration is fixed, so
    /// the whole decision plan (views with outputs) is cached; only the
    /// decider's coins vary per trial.
    Resilient {
        /// The Corollary-1 decider.
        decider: ResilientDecider<ProperColoring>,
        /// Cached decision views of the planted configuration.
        plan: ExecutionPlan,
    },
    /// Boosting union: the union is planned once; a trial constructs and
    /// decides with fresh coins.
    Boosting {
        /// The fault-injected colorer.
        constructor: FaultyConstructor<GlobalGreedyColoring>,
        /// The one-sided rejecting decider.
        decider: OneSidedLclDecider<ProperColoring>,
        /// The engine plan over the disjoint union.
        plan: UnionPlan,
    },
    /// Glued decay: the glued composite is planned once (views, anchors,
    /// far-from-anchors participants); a trial constructs with fresh coins
    /// and evaluates both acceptance events.
    Glued {
        /// The fault-injected colorer.
        constructor: FaultyConstructor<GlobalGreedyColoring>,
        /// The one-sided rejecting decider.
        decider: OneSidedLclDecider<ProperColoring>,
        /// The engine plan over the glued instance.
        plan: GluedPlan,
    },
    /// Ramsey lift: the refined identity set is computed once per grid
    /// point; a trial draws a fresh in-set identity assignment and checks
    /// that the lift agrees with the wrapped algorithm.
    Ramsey {
        /// The (fixed) host graph.
        graph: Graph,
        /// The (empty) input labeling.
        input: Labeling,
        /// The identities the refinement probed, from the grid's scheme.
        ids: IdAssignment,
        /// The wrapped algorithm `A`.
        algo: Box<dyn LocalAlgorithm>,
        /// The refined identity set `U`.
        id_set: Vec<u64>,
        /// Size of the universe the refinement started from.
        universe_size: usize,
    },
    /// Full Theorem-1 pipeline: both composites (union and gluing, built
    /// from the hard-instance pool of the case's deterministic family) are
    /// planned once; a trial evaluates one construct-decide on each.
    Pipeline {
        /// The case's randomized constructor.
        constructor: Box<dyn RandomizedLocalAlgorithm>,
        /// The case's randomized decider.
        decider: Box<dyn RandomizedDecider>,
        /// The planned Claim-3 disjoint union.
        union: UnionPlan,
        /// The planned Claims-4/5 gluing.
        glued: GluedPlan,
    },
    /// Fault matrix: the candidate instance is fixed per grid point, so
    /// the round backend's topology and the decider's cached views are
    /// planned once; a trial materializes a fault schedule, constructs
    /// through the (faulty) round backend, and decides on the engine path.
    FaultMatrix {
        /// The case's randomized constructor.
        constructor: Box<dyn RandomizedLocalAlgorithm>,
        /// The case's randomized decider.
        decider: Box<dyn RandomizedDecider>,
        /// The declarative fault axis this grid point injects.
        fault_plan: FaultPlan,
        /// The planned round-backend instance (constructor radius).
        round_plan: RoundPlan,
        /// Cached decision views (checking radius) whose outputs a
        /// [`DecisionScratch`] refreshes per trial.
        decision_plan: ExecutionPlan,
    },
    /// Batched Claim-2 scan: the hard-instance pool is found at prepare
    /// time by one batched multi-algorithm pass per cached candidate; a
    /// trial runs the case's randomized constructor on the first found
    /// instance and checks whether the output leaves the language.
    Claim2Scan {
        /// The case's randomized constructor.
        constructor: Box<dyn RandomizedLocalAlgorithm>,
        /// The case's language (the trial's failure check).
        language: Box<dyn DistributedLanguage>,
        /// The first hard instance the scan found (or the smallest
        /// candidate when the probe family never fails).
        target: HardInstance,
        /// Cached construction views over `target`.
        plan: ExecutionPlan,
        /// Pool size the scan produced.
        found: usize,
        /// Width of the probe family (the K axis).
        k: usize,
    },
}

/// Reusable per-batch state for [`Prepared::run_trial_with`]: holds the
/// decision scratches (cloned cached views whose output labels are
/// overwritten per trial) and output buffers of the composite kernels.
/// Create one per trial batch via [`Prepared::scratch`], not per trial.
pub struct TrialScratch {
    decision: Option<DecisionScratch>,
    glued: Option<(DecisionScratch, Labeling)>,
    union: Option<(DecisionScratch, Labeling)>,
}

/// The panic message of a trial run against another point's scratch.
const FOREIGN_SCRATCH: &str =
    "TrialScratch does not belong to this grid point (build it with this Prepared's scratch())";

impl Prepared {
    /// Creates the per-batch scratch for this grid point.
    pub fn scratch(&self) -> TrialScratch {
        let mut scratch = TrialScratch {
            decision: None,
            glued: None,
            union: None,
        };
        let composite = |plan: &ConstructDecidePlan| {
            (plan.decision_scratch(), Labeling::empty(plan.node_count()))
        };
        match self {
            Prepared::FaultMatrix { decision_plan, .. } => {
                scratch.decision = Some(decision_plan.decision_scratch());
            }
            Prepared::Boosting { plan, .. } => scratch.union = Some(composite(plan.plan())),
            Prepared::Glued { plan, .. } => scratch.glued = Some(composite(plan.plan())),
            Prepared::Pipeline { union, glued, .. } => {
                scratch.union = Some(composite(union.plan()));
                scratch.glued = Some(composite(glued.plan()));
            }
            _ => {}
        }
        scratch
    }

    /// Runs one Monte-Carlo trial against a reusable [`TrialScratch`] built
    /// by this point's [`Prepared::scratch`]; `seed` is this trial's leaf of
    /// the `(scenario, grid point, trial)` seed tree.
    pub fn run_trial_with(&self, scratch: &mut TrialScratch, seed: SeedSequence) -> TrialOutcome {
        match self {
            Prepared::Slack {
                colors,
                epsilon,
                family,
                n,
                id_scheme,
                fixed,
                plan,
            } => {
                let algo = RandomColoring::new(*colors);
                let generated: Option<(Graph, Labeling)>;
                let (graph, input): (&Graph, &Labeling) = match fixed {
                    Some((graph, input, _)) => (graph, input),
                    None => {
                        let mut graph_rng = seed.child(0).rng();
                        let graph = family.generate(*n, &mut graph_rng);
                        let input = Labeling::empty(graph.node_count());
                        generated = Some((graph, input));
                        let (g, i) = generated.as_ref().unwrap();
                        (g, i)
                    }
                };
                let out = match plan {
                    // Fully fixed instance: evaluate against cached views.
                    Some(plan) => plan.run_randomized(&algo, seed.child(2)),
                    None => {
                        let generated_ids: Option<IdAssignment>;
                        let ids: &IdAssignment =
                            match fixed.as_ref().and_then(|(_, _, ids)| ids.as_ref()) {
                                Some(ids) => ids,
                                None => {
                                    generated_ids =
                                        Some(id_scheme.build(graph, &mut seed.child(1).rng()));
                                    generated_ids.as_ref().unwrap()
                                }
                            };
                        let inst = Instance::new(graph, input, ids);
                        Simulator::new().run_randomized(&algo, &inst, seed.child(2))
                    }
                };
                let actual_n = graph.node_count();
                let io = IoConfig::new(graph, input, &out);
                let lang = ProperColoring::new(*colors);
                let improper = improperly_colored_nodes(&lang, &io) as f64 / actual_n as f64;
                let relaxed = EpsilonSlack::new(ProperColoring::new(*colors), *epsilon);
                TrialOutcome {
                    success: relaxed.contains(&io),
                    value: improper,
                }
            }
            Prepared::Resilient { decider, plan } => {
                TrialOutcome::from_bool(plan.decide_randomized(decider, seed))
            }
            Prepared::Boosting {
                constructor,
                decider,
                plan,
            } => {
                let (scratch, out) = scratch.union.as_mut().expect(FOREIGN_SCRATCH);
                TrialOutcome::from_bool(plan.plan().accept_once(
                    scratch,
                    out,
                    constructor,
                    decider,
                    None,
                    seed,
                ))
            }
            Prepared::Glued {
                constructor,
                decider,
                plan,
            } => {
                let (scratch, out) = scratch.glued.as_mut().expect(FOREIGN_SCRATCH);
                // Construct once, then evaluate the far-from-anchors event
                // (success) and the all-nodes acceptance (value) from the
                // same execution: the decider's verdict at a node depends
                // only on (trial seed, node), so the second pass reuses the
                // same coins.
                let far = plan.plan().accept_once(
                    scratch,
                    out,
                    constructor,
                    decider,
                    Some(plan.participants()),
                    seed,
                );
                let full = scratch.decide_randomized(decider, out, seed.child(1));
                TrialOutcome {
                    success: far,
                    value: f64::from(u8::from(full)),
                }
            }
            Prepared::Ramsey {
                graph,
                input,
                algo,
                id_set,
                universe_size,
                ..
            } => {
                // Fresh in-set identities each trial: sample n distinct
                // identities from the refined set, assign in node order.
                let mut rng = seed.child(0).rng();
                let n = graph.node_count();
                let mut chosen: Vec<u64> =
                    id_set.choose_multiple(&mut rng, n).copied().collect();
                assert_eq!(chosen.len(), n, "refined identity set too small to relabel");
                chosen.sort_unstable();
                let ids = IdAssignment::new(chosen);
                let inst = Instance::new(graph, input, &ids);
                // One arena pass serves both deterministic evaluations.
                let plan = ExecutionPlan::for_instance(&inst, algo.radius());
                let lift = OrderInvariantLift::new(&**algo, id_set.clone());
                let agree = plan.run(&**algo) == plan.run(&lift);
                TrialOutcome {
                    success: agree,
                    value: id_set.len() as f64 / *universe_size as f64,
                }
            }
            Prepared::Pipeline {
                constructor,
                decider,
                union,
                glued,
            } => {
                let (union_scratch, union_out) = scratch.union.as_mut().expect(FOREIGN_SCRATCH);
                let union_accept = union.plan().accept_once(
                    union_scratch,
                    union_out,
                    &**constructor,
                    &**decider,
                    None,
                    seed.child(0),
                );
                let (glued_scratch, glued_out) = scratch.glued.as_mut().expect(FOREIGN_SCRATCH);
                let glued_far = glued.plan().accept_once(
                    glued_scratch,
                    glued_out,
                    &**constructor,
                    &**decider,
                    Some(glued.participants()),
                    seed.child(1),
                );
                TrialOutcome {
                    success: glued_far,
                    value: f64::from(u8::from(union_accept)),
                }
            }
            Prepared::FaultMatrix {
                constructor,
                decider,
                fault_plan,
                round_plan,
                decision_plan,
            } => {
                // Trial seed discipline: child(0) materializes the fault
                // schedule, child(1) drives the constructor's coins through
                // the round backend, child(2) the decider's — so the same
                // trial replays byte-identically whatever the batching.
                let schedule = fault_plan.schedule(round_plan.graph(), seed.child(0));
                let out = round_plan.run_with_faults(&**constructor, seed.child(1), &schedule);
                let decision = scratch.decision.as_mut().expect(FOREIGN_SCRATCH);
                assert_eq!(decision.plan_id(), decision_plan.id(), "{FOREIGN_SCRATCH}");
                let accept = decision.decide_randomized(&**decider, &out, seed.child(2));
                TrialOutcome {
                    success: accept,
                    value: schedule.faulty_fraction(),
                }
            }
            Prepared::Claim2Scan {
                constructor,
                language,
                target,
                plan,
                found,
                k,
            } => {
                let out = plan.run_randomized(&**constructor, seed.child(0));
                let inst = target.as_instance();
                let io = IoConfig::from_instance(&inst, &out);
                TrialOutcome {
                    success: !language.contains(&io),
                    value: *found as f64 / (*k).max(1) as f64,
                }
            }
        }
    }
}

/// Plants `planted` recolorings on a properly 2-colored even cycle of size
/// `n`: each recolored node matches both of its neighbors, so the victim's
/// ball and both neighbors' balls become bad — exactly 3 bad balls per
/// planted conflict while the planted regions stay at distance ≥ 4 apart.
/// The conflict count is capped at `n / 6` so regions never merge.
///
/// # Panics
/// Panics unless `n` is an even multiple of 6 (use
/// [`Workload::normalize_size`]).
pub fn planted_cycle_configuration(n: usize, planted: u64) -> (Graph, Labeling, Labeling) {
    assert!(n % 6 == 0 && n % 2 == 0, "need an even multiple of 6, got {n}");
    let conflicts = (planted as usize).min(n / 6);
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let mut output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0 % 2) + 1));
    for c in 0..conflicts {
        // Recolor node 6c+1 to match node 6c+2 (both get color 1).
        output.set(NodeId((6 * c + 1) as u32), Label::from_u64(1));
    }
    (graph, input, output)
}

/// The number of bad balls created by [`planted_cycle_configuration`]:
/// 3 per planted conflict, with the same `n / 6` cap.
pub fn planted_bad_balls(n: usize, planted: u64) -> usize {
    3 * (planted as usize).min(n / 6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Params;
    use rlnc_core::language::bad_ball_count;
    use rlnc_par::Scale;

    #[test]
    fn planted_configuration_creates_three_bad_balls_per_conflict() {
        for planted in 0..4 {
            let (graph, input, output) = planted_cycle_configuration(48, planted);
            let lang = ProperColoring::new(2);
            let bad = bad_ball_count(&lang, &IoConfig::new(&graph, &input, &output));
            assert_eq!(bad, planted_bad_balls(48, planted));
            assert_eq!(bad, 3 * planted as usize);
        }
    }

    #[test]
    fn normalize_size_produces_even_multiples_of_six() {
        let w = Workload::ResilientBoundary { colors: 2 };
        assert_eq!(w.normalize_size(8), 48);
        assert_eq!(w.normalize_size(96), 96);
        assert_eq!(w.normalize_size(100), 96);
        let s = Workload::SlackColoring { colors: 3, epsilon: 0.6 };
        assert_eq!(s.normalize_size(100), 100);
        // Boosting always runs ν copies of its fixed hard cycle; the
        // recorded size must say so instead of echoing the scaled axis.
        let b = crate::registry::boosting_spec(1).workload;
        assert_eq!(b.normalize_size(8), 12);
        assert_eq!(b.normalize_size(48), 12);
    }

    #[test]
    fn min_trials_scales_with_the_boundary_margin() {
        let w = Workload::ResilientBoundary { colors: 2 };
        let easy = GridPoint {
            index: 0,
            family: Family::Cycle,
            n: 96,
            id_scheme: IdScheme::Consecutive,
            params: Params::two(1, 0),
            trials: 0,
        };
        let hard = GridPoint {
            params: Params::two(8, 3),
            ..easy
        };
        // f = 8 with 9 planted bad balls sits ~0.016 from 1/2 and needs far
        // more trials than the comfortable f = 1, |F| = 0 row.
        assert!(w.min_trials(&hard) > 10 * w.min_trials(&easy));
        assert!(w.min_trials(&hard) <= 18_000);
        let s = Workload::SlackColoring { colors: 3, epsilon: 0.6 };
        assert_eq!(s.min_trials(&easy), 0);
    }

    #[test]
    fn boosting_min_trials_resolve_the_e6_tolerance_at_four_sigma() {
        let boosting = crate::registry::boosting_spec(3);
        let point = boosting.grid(Scale::Smoke)[0];
        // ⌈0.25 · (4 / 0.05)²⌉: 4σ of any estimate stays within 0.05.
        assert_eq!(boosting.workload.min_trials(&point), 1_600);
        // Standard and full already run more.
        let expected = [
            (Scale::Smoke, 1_600),
            (Scale::Standard, 3_000),
            (Scale::Full, 15_000),
        ];
        for (scale, trials) in expected {
            assert!(
                boosting.grid(scale).iter().all(|p| p.trials == trials),
                "{scale:?}"
            );
        }
    }

    #[test]
    fn slack_hoisting_is_stream_transparent() {
        // A prepared point with a deterministic family prebuilds the graph
        // and ids; the outcome must be identical to the per-trial path.
        let workload = Workload::SlackColoring { colors: 3, epsilon: 0.6 };
        let point = GridPoint {
            index: 0,
            family: Family::Torus,
            n: 36,
            id_scheme: IdScheme::Consecutive,
            params: Params::ZERO,
            trials: 8,
        };
        let point_seed = SeedSequence::new(42).child(0);
        let hoisted = workload.prepare(&point, point_seed);
        assert!(matches!(
            &hoisted,
            Prepared::Slack { fixed: Some(_), plan: Some(_), .. }
        ));
        let per_trial = Prepared::Slack {
            colors: 3,
            epsilon: 0.6,
            family: Family::Torus,
            n: 36,
            id_scheme: IdScheme::Consecutive,
            fixed: None,
            plan: None,
        };
        for trial in 0..8 {
            let seed = point_seed.child(1).child(trial);
            assert_eq!(
                hoisted.run_trial_with(&mut hoisted.scratch(), seed),
                per_trial.run_trial_with(&mut per_trial.scratch(), seed)
            );
        }
        // Randomized families stay on the per-trial path.
        let random_point = GridPoint {
            family: Family::RandomRegular4,
            ..point
        };
        let prepared = workload.prepare(&random_point, point_seed);
        assert!(matches!(&prepared, Prepared::Slack { fixed: None, plan: None, .. }));
        // Deterministic graph + randomized ids: prebuilt graph, no plan.
        let mixed_point = GridPoint {
            id_scheme: IdScheme::RandomPermutation,
            ..point
        };
        let mixed = workload.prepare(&mixed_point, point_seed);
        assert!(matches!(&mixed, Prepared::Slack { fixed: Some(_), plan: None, .. }));
        for trial in 0..4 {
            let seed = point_seed.child(1).child(trial);
            assert_eq!(
                mixed.run_trial_with(&mut mixed.scratch(), seed),
                mixed.run_trial_with(&mut mixed.scratch(), seed)
            );
        }
    }

    #[test]
    fn workload_family_checks() {
        let slack = Workload::SlackColoring { colors: 3, epsilon: 0.6 };
        assert!(slack.check_family(Family::Torus).is_ok());
        let res = Workload::ResilientBoundary { colors: 2 };
        assert!(res.check_family(Family::Cycle).is_ok());
        assert!(res.check_family(Family::Torus).is_err());
        let boost = crate::registry::boosting_spec(1).workload;
        assert!(boost.check_family(Family::Grid).is_err());
        assert!(Workload::LanguagePipeline.check_family(Family::Circulant2).is_ok());
        assert!(Workload::LanguagePipeline.check_family(Family::Path).is_err());
        assert_eq!(Workload::LanguagePipeline.normalize_size(4), 12);
    }

    #[test]
    fn language_pipeline_runs_every_registered_case() {
        // The whole catalog — including the id-named matching case and the
        // family-pinned Cole–Vishkin case — stages and runs end to end.
        for (index, id) in CaseId::ALL.into_iter().enumerate() {
            let point = GridPoint {
                index: index as u64,
                family: Family::Prism,
                n: 12,
                id_scheme: IdScheme::Consecutive,
                params: Params::two(2, index as u64),
                trials: 2,
            };
            let point_seed = SeedSequence::new(3).child(point.index);
            let prepared = Workload::LanguagePipeline.prepare(&point, point_seed);
            assert!(matches!(&prepared, Prepared::Pipeline { .. }));
            for trial in 0..2u64 {
                let seed = point_seed.child(1).child(trial);
                let outcome = prepared.run_trial_with(&mut prepared.scratch(), seed);
                assert!(
                    (0.0..=1.0).contains(&outcome.value),
                    "case '{}' produced an out-of-range value",
                    id.name()
                );
            }
        }
    }
}
