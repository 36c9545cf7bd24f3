//! Layer-by-layer decomposition of one grid point, for the traced run.
//!
//! Each local workload's `prepare` and trial are re-stated here as the
//! sequence of public layer calls that `rlnc_sweep::workload` makes, one
//! span per call, so the trace can attribute time to `rlnc-graph`,
//! `rlnc-engine`, `rlnc-core`, `rlnc-langs` and `rlnc-derand`. A
//! decomposed trial must reproduce `Prepared::run_trial_with` bit for bit;
//! the traced run checks that for every trial it decomposes. Each
//! workload's decomposition lives in one `prepare_*` / `trial_*` pair.

use crate::trace::Tracer;
use rlnc_core::algorithm::{Coins, LocalAlgorithm, RandomizedLocalAlgorithm};
use rlnc_core::derand::gluing::{anchor_candidates, GluingExperiment};
use rlnc_core::derand::hard_instances::HardInstance;
use rlnc_core::faults::FaultPlan;
use rlnc_core::language::DistributedLanguage;
use rlnc_core::prelude::{Instance, IoConfig, Labeling, Simulator};
use rlnc_core::relaxation::EpsilonSlack;
use rlnc_derand::{DerandPipeline, PipelineParams};
use rlnc_engine::{DecisionScratch, ExecutionPlan, GluedPlan, PlanCache, RoundPlan, UnionPlan};
use rlnc_graph::{Graph, IdAssignment, NodeId};
use rlnc_langs::coloring::{improperly_colored_nodes, ProperColoring};
use rlnc_langs::random_coloring::RandomColoring;
use rlnc_langs::registry::{CaseId, LanguageCase};
use rlnc_obs::Section;
use rlnc_par::rng::SeedSequence;
use rlnc_par::trials::TrialOutcome;
use rlnc_sweep::{decode_fault_params, Family, GridPoint, IdScheme, Workload};

/// Work counts gathered alongside the spans: the denominators of the
/// per-unit layer costs.
#[derive(Debug, Default)]
pub struct Work {
    /// Nodes of graphs built by `Family::generate`.
    pub generated_nodes: u64,
    /// Nodes given identities by an id scheme.
    pub id_nodes: u64,
    /// `graph.arena.members` extracted by the plan builds timed alone
    /// (not those inside the hard-instance search's `PlanCache`).
    pub plan_members: u64,
    /// Views (one per node) in directly built plans.
    pub plan_views: u64,
    /// Ball members evaluated by constructor passes over cached views.
    pub construct_members: u64,
    /// `core.rounds.messages_delivered` during faulty round runs.
    pub messages: u64,
    /// Nodes run through `Simulator::run_randomized`.
    pub simulated_nodes: u64,
    /// Nodes judged by the `rlnc-langs` verdict.
    pub verdict_nodes: u64,
    /// `engine.plan_cache.hits` in the hard-instance search's
    /// `PlanCache` (a local cache, not the shared one).
    pub cache_hits: u64,
    /// `engine.plan_cache.misses` in the same search.
    pub cache_misses: u64,
}

/// Reads a deterministic `rlnc-obs` counter.
fn obs_counter(name: &'static str) -> u64 {
    rlnc_obs::counter(name, Section::Deterministic).get()
}

/// Runs `f` and returns its result with the growth of counter `name`.
fn counted<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let before = obs_counter(name);
    let out = f();
    (out, obs_counter(name) - before)
}

/// The registry case a grid point runs, for workloads with a case axis.
pub fn case_of(workload: &Workload, point: &GridPoint) -> Option<CaseId> {
    match workload {
        Workload::FaultMatrix | Workload::LanguagePipeline => {
            Some(CaseId::from_index(point.params.b))
        }
        _ => None,
    }
}

/// The decomposed state of one grid point.
pub enum PointState {
    /// `fault-matrix`: round plan, fault plan, decision scratch.
    Fault(FaultPoint),
    /// `language-matrix`: union and glued construct-decide plans.
    Pipeline(Box<PipelinePoint>),
    /// `slack-topologies`: fixed instance (if any) and its plan.
    Slack(SlackPoint),
}

/// See [`PointState::Fault`].
pub struct FaultPoint {
    case: LanguageCase,
    fault_plan: FaultPlan,
    round_plan: RoundPlan,
    decision: DecisionScratch,
}

/// See [`PointState::Pipeline`].
pub struct PipelinePoint {
    case: LanguageCase,
    union: UnionPlan,
    glued: GluedPlan,
    union_scratch: DecisionScratch,
    union_out: Labeling,
    glued_scratch: DecisionScratch,
    glued_out: Labeling,
}

/// See [`PointState::Slack`].
pub struct SlackPoint {
    colors: u64,
    epsilon: f64,
    family: Family,
    n: usize,
    id_scheme: IdScheme,
    fixed: Option<(Graph, Labeling, Option<IdAssignment>)>,
    plan: Option<ExecutionPlan>,
}

/// Decomposed `Workload::prepare` for one grid point, under the open span.
pub fn prepare(
    workload: &Workload,
    point: &GridPoint,
    point_seq: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> Result<PointState, String> {
    match *workload {
        Workload::FaultMatrix => Ok(PointState::Fault(prepare_fault(point, point_seq, t, work))),
        Workload::LanguagePipeline => {
            prepare_pipeline(point, point_seq, t, work).map(|p| PointState::Pipeline(Box::new(p)))
        }
        Workload::SlackColoring { colors, epsilon } => Ok(PointState::Slack(prepare_slack(
            colors, epsilon, point, point_seq, t, work,
        ))),
        other => Err(format!(
            "no layer decomposition for workload '{}'",
            other.name()
        )),
    }
}

/// Decomposed `Prepared::run_trial_with` for one trial seed.
pub fn trial(
    state: &mut PointState,
    seed: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> TrialOutcome {
    match state {
        PointState::Fault(p) => trial_fault(p, seed, t, work),
        PointState::Pipeline(p) => trial_pipeline(p, seed, t, work),
        PointState::Slack(p) => trial_slack(p, seed, t, work),
    }
}

/// Builds a plan under the `engine.plan.build` span and counts its arena
/// members and its `views` (one per node of each `ExecutionPlan` built).
fn build_plan<P>(
    t: &mut Tracer,
    work: &mut Work,
    build: impl FnOnce() -> P,
    views: impl FnOnce(&P) -> usize,
) -> P {
    let (plan, members) = t.leaf("engine.plan.build", || {
        counted("graph.arena.members", build)
    });
    work.plan_members += members;
    work.plan_views += views(&plan) as u64;
    plan
}

// ---- fault-matrix -------------------------------------------------------

fn prepare_fault(
    point: &GridPoint,
    point_seq: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> FaultPoint {
    let (plan_kind, intensity) = decode_fault_params(point.params.a);
    let case = CaseId::from_index(point.params.b).case();
    let mut rng = point_seq.child(0).rng();
    let family = case.candidate_family(point.family);
    let graph = t.leaf("graph.generate", || family.generate(point.n, &mut rng));
    let ids = t.leaf("graph.ids", || point.id_scheme.build(&graph, &mut rng));
    let input = t.leaf("langs.build_input", || case.build_input(&graph, &ids));
    let n = graph.node_count();
    work.generated_nodes += n as u64;
    work.id_nodes += n as u64;
    let instance = Instance::new(&graph, &input, &ids);
    let round_plan = build_plan(
        t,
        work,
        || RoundPlan::for_instance(&instance, case.constructor_radius()),
        |_| n,
    );
    let decision_plan = build_plan(
        t,
        work,
        || rlnc_engine::shared_plan_for_instance(&instance, case.checking_radius()),
        |_| n,
    );
    let decision = t.leaf("engine.decision_scratch", || {
        decision_plan.decision_scratch()
    });
    FaultPoint {
        fault_plan: FaultPlan::from_index(plan_kind, intensity),
        case,
        round_plan,
        decision,
    }
}

fn trial_fault(
    p: &mut FaultPoint,
    seed: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> TrialOutcome {
    let schedule = t.leaf("core.faults.schedule", || {
        p.fault_plan.schedule(p.round_plan.graph(), seed.child(0))
    });
    let (out, messages) = t.leaf("core.rounds.run_with_faults", || {
        counted("core.rounds.messages_delivered", || {
            p.round_plan
                .run_with_faults(&*p.case.constructor, seed.child(1), &schedule)
        })
    });
    work.messages += messages;
    let accept = t.leaf("engine.decide", || {
        p.decision
            .decide_randomized(&*p.case.decider, &out, seed.child(2))
    });
    TrialOutcome {
        success: accept,
        value: schedule.faulty_fraction(),
    }
}

// ---- language-matrix ----------------------------------------------------

fn prepare_pipeline(
    point: &GridPoint,
    point_seq: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> Result<PipelinePoint, String> {
    let case = CaseId::from_index(point.params.b).case();
    let nu = point.params.a.max(2) as usize;
    let family = case.candidate_family(point.family);
    let mut rng = point_seq.child(0).rng();
    let candidates: Vec<HardInstance> = [point.n, point.n + 2, point.n + 4]
        .iter()
        .map(|&size| {
            let graph = t.leaf("graph.generate", || family.generate(size, &mut rng));
            let ids = t.leaf("graph.ids", || IdAssignment::consecutive(&graph));
            let input = t.leaf("langs.build_input", || case.build_input(&graph, &ids));
            work.generated_nodes += graph.node_count() as u64;
            work.id_nodes += graph.node_count() as u64;
            HardInstance::new(graph, input, ids)
        })
        .collect();
    let params: PipelineParams = case.params.into();
    let pipeline = DerandPipeline::new(&*case.constructor, &*case.decider, &*case.language, params);
    let universe: Vec<u64> = (1..=(4 * point.n as u64).max(48)).collect();
    let ramsey = t.leaf("derand.ramsey_stage", || {
        pipeline.ramsey_stage(
            &*case.det_family[0],
            &[candidates[0].as_instance()],
            &universe,
            40,
            point_seq.child(0).seed(),
        )
    });
    let id_floor = ramsey.id_set.first().copied().unwrap_or(1);
    let algos: Vec<&dyn LocalAlgorithm> = case.det_family.iter().map(|b| &**b).collect();
    let mut cache = PlanCache::new();
    let ((hard, hits), misses) = t.leaf("derand.hard_instance_stage", || {
        counted("engine.plan_cache.misses", || {
            counted("engine.plan_cache.hits", || {
                pipeline.hard_instance_stage_cached(&algos, &candidates, 0, id_floor, &mut cache)
            })
        })
    });
    work.cache_hits += hits;
    work.cache_misses += misses;
    if hard.pool.is_empty() {
        return Err(format!("no hard instance for case '{}'", case.name));
    }
    // A `ConstructDecidePlan` builds one `ExecutionPlan`, or two when
    // the radii differ. The union stage is one `UnionPlan::for_parts`
    // call, so all of it is plan building. The glued stage is re-stated
    // from `glued_stage_auto` so its `GluedPlan::new` is timed alone.
    let (radius, decision_radius) = (case.constructor.radius(), case.decider.radius());
    let plans = if radius == decision_radius { 1 } else { 2 };
    let union = t
        .span("derand.union_stage", |t| {
            build_plan(
                t,
                work,
                || pipeline.union_stage(&hard.pool, nu),
                |stage| plans * stage.plan.node_count(),
            )
        })
        .0
        .plan;
    let glued = t
        .span("derand.glued_stage", |t| {
            let (instance, anchors, exclusion_radius) = t.leaf("derand.glued.assemble", || {
                let parts: Vec<HardInstance> = (0..nu)
                    .map(|i| hard.pool[i % hard.pool.len()].clone())
                    .collect();
                let anchors: Vec<NodeId> = parts
                    .iter()
                    .map(|part| anchor_candidates(part, params.t, params.t_prime, params.p)[0])
                    .collect();
                let experiment = GluingExperiment::build(parts, anchors, params.t, params.t_prime);
                let glued_anchors: Vec<NodeId> =
                    (0..nu).map(|i| experiment.glued_anchor(i)).collect();
                (
                    experiment.as_hard_instance(),
                    glued_anchors,
                    experiment.exclusion_radius,
                )
            });
            build_plan(
                t,
                work,
                || {
                    GluedPlan::new(
                        &instance.as_instance(),
                        anchors,
                        exclusion_radius,
                        radius,
                        decision_radius,
                    )
                },
                |plan| plans * plan.node_count(),
            )
        })
        .0;
    let union_scratch = t.leaf("engine.decision_scratch", || {
        union.plan().decision_scratch()
    });
    let glued_scratch = t.leaf("engine.decision_scratch", || {
        glued.plan().decision_scratch()
    });
    Ok(PipelinePoint {
        union_out: Labeling::empty(union.node_count()),
        glued_out: Labeling::empty(glued.node_count()),
        case,
        union,
        glued,
        union_scratch,
        glued_scratch,
    })
}

/// The constructor pass of `ConstructDecidePlan::accept_once`: every
/// cached construction view's output, written into `out`.
fn construct(
    plan: &ExecutionPlan,
    constructor: &dyn RandomizedLocalAlgorithm,
    out: &mut Labeling,
    seed: SeedSequence,
) {
    let coins = Coins::new(seed);
    for (i, view) in plan.views().iter().enumerate() {
        out.set(NodeId::from_index(i), constructor.output(view, &coins));
    }
}

fn trial_pipeline(
    p: &mut PipelinePoint,
    seed: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> TrialOutcome {
    let constructor = &*p.case.constructor;
    let decider = &*p.case.decider;
    let union_seed = seed.child(0);
    let union_views = p.union.plan().construction();
    t.leaf("engine.construct", || {
        construct(
            union_views,
            constructor,
            &mut p.union_out,
            union_seed.child(0),
        )
    });
    let union_accept = t.leaf("engine.decide", || {
        p.union_scratch
            .decide_randomized(decider, &p.union_out, union_seed.child(1))
    });
    let glued_seed = seed.child(1);
    let glued_views = p.glued.plan().construction();
    t.leaf("engine.construct", || {
        construct(
            glued_views,
            constructor,
            &mut p.glued_out,
            glued_seed.child(0),
        )
    });
    let glued_far = t.leaf("engine.decide", || {
        p.glued_scratch.decide_randomized_at(
            decider,
            &p.glued_out,
            p.glued.participants(),
            glued_seed.child(1),
        )
    });
    work.construct_members +=
        (union_views.work_per_execution() + glued_views.work_per_execution()) as u64;
    TrialOutcome {
        success: glued_far,
        value: f64::from(u8::from(union_accept)),
    }
}

// ---- slack-topologies ---------------------------------------------------

fn prepare_slack(
    colors: u64,
    epsilon: f64,
    point: &GridPoint,
    point_seq: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> SlackPoint {
    let mut rng = point_seq.child(0).rng();
    let fixed = if point.family.is_randomized() {
        None
    } else {
        let graph = t.leaf("graph.generate", || {
            point.family.generate(point.n, &mut rng)
        });
        work.generated_nodes += graph.node_count() as u64;
        let input = Labeling::empty(graph.node_count());
        let ids = if point.id_scheme.is_randomized() {
            None
        } else {
            work.id_nodes += graph.node_count() as u64;
            Some(t.leaf("graph.ids", || point.id_scheme.build(&graph, &mut rng)))
        };
        Some((graph, input, ids))
    };
    let plan = match &fixed {
        Some((graph, input, Some(ids))) => {
            let instance = Instance::new(graph, input, ids);
            Some(build_plan(
                t,
                work,
                || rlnc_engine::shared_plan_for_instance(&instance, 0),
                |_| graph.node_count(),
            ))
        }
        _ => None,
    };
    SlackPoint {
        colors,
        epsilon,
        family: point.family,
        n: point.n,
        id_scheme: point.id_scheme,
        fixed,
        plan,
    }
}

fn trial_slack(
    p: &mut SlackPoint,
    seed: SeedSequence,
    t: &mut Tracer,
    work: &mut Work,
) -> TrialOutcome {
    let algo = RandomColoring::new(p.colors);
    let generated: (Graph, Labeling);
    let (graph, input) = match &p.fixed {
        Some((graph, input, _)) => (graph, input),
        None => {
            let graph = t.leaf("graph.generate", || {
                p.family.generate(p.n, &mut seed.child(0).rng())
            });
            work.generated_nodes += graph.node_count() as u64;
            let input = Labeling::empty(graph.node_count());
            generated = (graph, input);
            (&generated.0, &generated.1)
        }
    };
    let n = graph.node_count();
    let out = match &p.plan {
        Some(plan) => {
            work.construct_members += plan.work_per_execution() as u64;
            t.leaf("engine.construct", || {
                plan.run_randomized(&algo, seed.child(2))
            })
        }
        None => {
            let built: IdAssignment;
            let ids = match p.fixed.as_ref().and_then(|(_, _, ids)| ids.as_ref()) {
                Some(ids) => ids,
                None => {
                    work.id_nodes += n as u64;
                    built = t.leaf("graph.ids", || {
                        p.id_scheme.build(graph, &mut seed.child(1).rng())
                    });
                    &built
                }
            };
            work.simulated_nodes += n as u64;
            let instance = Instance::new(graph, input, ids);
            t.leaf("core.simulator.run_randomized", || {
                Simulator::new().run_randomized(&algo, &instance, seed.child(2))
            })
        }
    };
    work.verdict_nodes += n as u64;
    t.leaf("langs.verdict", || {
        let io = IoConfig::new(graph, input, &out);
        let improper =
            improperly_colored_nodes(&ProperColoring::new(p.colors), &io) as f64 / n as f64;
        let relaxed = EpsilonSlack::new(ProperColoring::new(p.colors), p.epsilon);
        TrialOutcome {
            success: relaxed.contains(&io),
            value: improper,
        }
    })
}

/// Bit-level equality of two trial outcomes.
pub fn same_outcome(a: &TrialOutcome, b: &TrialOutcome) -> bool {
    a.success == b.success && a.value.to_bits() == b.value.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_par::Scale;
    use rlnc_sweep::{Registry, SweepExecutor};

    /// Every trial of a smoke grid, decomposed, equals `run_trial_with`.
    /// Returns the trace and work counts.
    fn decomposition_reproduces(scenario: &str, trials_per_point: u64) -> (Tracer, Work) {
        let registry = Registry::builtin();
        let spec = registry.get(scenario).expect("registry scenario");
        let exec = SweepExecutor::new(Scale::Smoke).with_seed(0xBE7C);
        let seq = exec.scenario_sequence(&spec.name);
        let mut t = Tracer::new();
        let mut work = Work::default();
        for point in spec.grid(Scale::Smoke) {
            let point_seq = seq.child(point.index);
            let official = spec.workload.prepare(&point, point_seq);
            let mut scratch = official.scratch();
            let mut state = t
                .span("prepare", |t| {
                    prepare(&spec.workload, &point, point_seq, t, &mut work)
                })
                .0
                .expect("decomposable");
            for trial_index in 0..trials_per_point.min(point.trials) {
                let seed = point_seq.child(1).child(trial_index);
                let expected = official.run_trial_with(&mut scratch, seed);
                let got = t.span("trial", |t| trial(&mut state, seed, t, &mut work)).0;
                assert!(
                    same_outcome(&expected, &got),
                    "{scenario} point {} trial {trial_index}: {expected:?} != {got:?}",
                    point.index
                );
            }
        }
        assert!(t.coverage() > 0.5, "{scenario} coverage {}", t.coverage());
        (t, work)
    }

    #[test]
    fn fault_matrix_decomposition_equals_run_trial_with() {
        decomposition_reproduces("fault-matrix", 4);
    }

    #[test]
    fn language_matrix_decomposition_equals_run_trial_with() {
        let (t, work) = decomposition_reproduces("language-matrix", 4);
        // The union and glued plans are timed as plan builds.
        let points = t.count("derand.union_stage");
        assert_eq!(t.count("engine.plan.build"), 2 * points);
        assert!(work.plan_views > 0);
    }

    #[test]
    fn slack_topologies_decomposition_equals_run_trial_with() {
        decomposition_reproduces("slack-topologies", 4);
    }

    #[test]
    fn workloads_without_a_decomposition_are_refused() {
        let registry = Registry::builtin();
        let spec = registry.get("boosting-decay").unwrap();
        let point = spec.grid(Scale::Smoke)[0];
        let err = prepare(
            &spec.workload,
            &point,
            SeedSequence::new(1),
            &mut Tracer::new(),
            &mut Work::default(),
        );
        assert!(err.is_err());
    }
}
