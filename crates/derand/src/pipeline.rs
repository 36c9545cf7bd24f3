//! The staged, engine-backed Theorem-1 pipeline and its typed artifacts.
//!
//! Stage order follows the proof: **ramsey** (Claim 1) → **hard instances**
//! (Claim 2) → **boosted disjoint union** (Claim 3) → **connected gluing**
//! (Claims 4–5). Each stage returns an owned artifact that can be cached
//! across trial batches, inspected, and fed to the next stage; all
//! Monte-Carlo estimation routes through `rlnc-engine` plans built once per
//! composite instance.
//!
//! ## Determinism contract
//!
//! Every estimate over a stage's artifact reproduces the legacy
//! `rlnc_core::derand` streams bit-for-bit:
//!
//! * [`failure_probability_with`] matches
//!   `HardInstanceSearch::failure_probability` (cached views + the
//!   `MonteCarlo` `(master, trial)` derivation),
//! * [`ConstructDecidePlan::acceptance`](rlnc_engine::ConstructDecidePlan::acceptance)
//!   over a [`UnionStage`]'s plan matches
//!   `boosting::disjoint_union_acceptance`,
//! * the same kernel over a [`GluedStage`]'s plan, with or without its
//!   participants, matches the two `GluingExperiment` estimators (the far
//!   event's per-trial BFS is replaced by a participation set computed
//!   once — same verdicts, since a node's coins depend only on
//!   `(trial seed, node)`).
//!
//! This module's tests and the engine equivalence suite
//! (`crates/engine/tests/equivalence.rs`) pin these claims down at seed 0
//! and beyond.

use rlnc_core::algorithm::{LocalAlgorithm, RandomizedLocalAlgorithm};
use rlnc_core::config::{Instance, IoConfig};
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::derand::gluing::{anchor_candidates, GluingExperiment};
use rlnc_core::derand::hard_instances::HardInstance;
use rlnc_core::derand::ramsey::{collect_templates, consistent_id_set};
use rlnc_core::language::DistributedLanguage;
use rlnc_engine::{ExecutionPlan, GluedPlan, PlanCache, UnionPlan};
use rlnc_graph::NodeId;
use rlnc_par::stats::Estimate;

pub use rlnc_core::derand::PipelineParams;

/// Stage-1 artifact (Claim 1 / Appendix A): the Ramsey-refined identity
/// set on which the wrapped algorithm is consistent for every observed
/// ball type.
#[derive(Debug, Clone)]
pub struct RamseyStage {
    /// The refined (sorted) identity set `U`.
    pub id_set: Vec<u64>,
    /// Size of the universe the refinement started from.
    pub universe_size: usize,
    /// Number of distinct ball templates consistency was enforced on.
    pub templates: usize,
}

/// Stage-2 artifact (Claim 2): one failing instance per candidate
/// algorithm, identity ranges pairwise disjoint.
#[derive(Debug, Clone)]
pub struct HardInstanceStage {
    /// The hard-instance pool, in algorithm order.
    pub pool: Vec<HardInstance>,
    /// Algorithms for which no failing candidate was found.
    pub missing: usize,
}

/// Stage-3 artifact (Claim 3): the disjoint union of `ν` hard instances,
/// planned once for batched evaluation.
#[derive(Debug, Clone)]
pub struct UnionStage {
    /// Number of components `ν`.
    pub nu: usize,
    /// The engine plan over the combined CSR.
    pub plan: UnionPlan,
}

/// Stage-4 artifact (Claims 4–5): the connected gluing, planned once, with
/// the far-from-anchors participation set precomputed.
#[derive(Debug, Clone)]
pub struct GluedStage {
    /// Number of glued parts `ν'`.
    pub nu: usize,
    /// The engine plan (anchors, exclusion radius, participants baked in).
    pub plan: GluedPlan,
    /// The glued instance itself, for structural inspection (connectivity,
    /// degree bound) and export.
    pub instance: HardInstance,
}

/// The staged derandomization pipeline, generic over the language and the
/// constructor/decider pair under attack.
#[derive(Debug, Clone, Copy)]
pub struct DerandPipeline<'a, C: ?Sized, D: ?Sized, L: ?Sized> {
    constructor: &'a C,
    decider: &'a D,
    language: &'a L,
    params: PipelineParams,
}

impl<'a, C, D, L> DerandPipeline<'a, C, D, L>
where
    C: RandomizedLocalAlgorithm + ?Sized,
    D: RandomizedDecider + ?Sized,
    L: DistributedLanguage + ?Sized,
{
    /// Assembles the pipeline around one language / constructor / decider
    /// triple.
    pub fn new(constructor: &'a C, decider: &'a D, language: &'a L, params: PipelineParams) -> Self {
        DerandPipeline {
            constructor,
            decider,
            language,
            params,
        }
    }

    // ---- Stage 1: Ramsey lift (Claim 1 / Appendix A) ------------------

    /// The free-function [`ramsey_stage`], as a pipeline method for staged
    /// call sites. The stage reads none of the constructor/decider/language
    /// state — Claim 1 is about the wrapped deterministic algorithm alone —
    /// so callers that only need the lift (e.g. the `ramsey-lift` sweep
    /// workload) can use the free function directly.
    pub fn ramsey_stage<A: LocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        probes: &[Instance<'_>],
        universe: &[u64],
        samples_per_round: usize,
        seed: u64,
    ) -> RamseyStage {
        ramsey_stage(algo, probes, universe, samples_per_round, seed)
    }

    // ---- Stage 2: hard instances (Claim 2) ----------------------------

    /// Builds the Claim-2 pool: for each algorithm, the first candidate
    /// (after enforcing the running identity floor, by shifting) of
    /// diameter at least `min_diameter` on which it fails. Identity ranges
    /// come out pairwise disjoint, exactly like
    /// `HardInstanceSearch::hard_instance_family`. Every probe plans the
    /// shifted candidate through `cache`, so pass a fresh [`PlanCache`]
    /// for a self-contained search, or a shared one to reuse plans across
    /// searches (and to read the hit statistics).
    ///
    /// The cache is what makes large algorithm families tractable: an
    /// algorithm that fails on *no* candidate leaves the identity floor
    /// unchanged, so the next algorithm re-probes the exact same shifted
    /// candidates — every one of those probes is a cache hit instead of a
    /// fresh ball-arena pass. In the real `N = |order-invariant
    /// algorithms|` regime, most algorithms share radii and most scans
    /// are misses, so the amortized cost per algorithm approaches the pure
    /// evaluation cost.
    pub fn hard_instance_stage_cached<A: LocalAlgorithm + ?Sized>(
        &self,
        algorithms: &[&A],
        candidates: &[HardInstance],
        min_diameter: u32,
        min_id: u64,
        cache: &mut PlanCache,
    ) -> HardInstanceStage {
        /// Candidate `ci` under the current identity floor: its shifted
        /// instance and every algorithm's verdict on it so far.
        struct Probe {
            instance: HardInstance,
            verdicts: Vec<Option<bool>>,
        }
        let mut pool = Vec::new();
        let mut missing = 0usize;
        let mut floor = min_id.max(1);
        // The diameter reads only the graph, which no identity shift
        // changes: one double sweep per candidate, none without a floor.
        let eligible: Vec<bool> = candidates
            .iter()
            .map(|c| min_diameter == 0 || c.diameter_lower_bound() >= min_diameter)
            .collect();
        // A probed candidate's content is a function of `(ci, floor)`, and
        // the floor only rises, so the table is cleared when it moves.
        // Whenever a probe lands on an unsettled verdict we batch one
        // `run_many` pass over *all* still-unsettled same-radius
        // algorithms from the prober onward — the cached views are walked
        // once per batch instead of once per algorithm.
        let mut probes: Vec<Option<Probe>> = candidates.iter().map(|_| None).collect();
        for (j, algo) in algorithms.iter().enumerate() {
            let radius = algo.radius();
            let mut found = None;
            for (ci, candidate) in candidates.iter().enumerate() {
                if !eligible[ci] {
                    continue;
                }
                let Probe { instance, verdicts } = probes[ci].get_or_insert_with(|| Probe {
                    instance: if candidate.min_id() >= floor {
                        candidate.clone()
                    } else {
                        candidate.shifted_ids(floor - candidate.min_id())
                    },
                    verdicts: vec![None; algorithms.len()],
                });
                let inst = instance.as_instance();
                // Every probe still routes through the plan cache, so
                // hit/miss statistics match the sequential scan exactly;
                // only the `run` calls are batched.
                let plan = cache.plan_for(&inst, radius);
                if verdicts[j].is_none() {
                    let batch: Vec<usize> = (j..algorithms.len())
                        .filter(|&jj| algorithms[jj].radius() == radius && verdicts[jj].is_none())
                        .collect();
                    let refs: Vec<&A> = batch.iter().map(|&jj| algorithms[jj]).collect();
                    for (&jj, output) in batch.iter().zip(plan.run_many(&refs)) {
                        let io = IoConfig::from_instance(&inst, &output);
                        verdicts[jj] = Some(!self.language.contains(&io));
                    }
                }
                if verdicts[j].expect("batched scan settles the probing algorithm's verdict") {
                    found = Some(instance.clone());
                    break;
                }
            }
            match found {
                Some(instance) => {
                    floor = instance.max_id() + 1;
                    probes.fill_with(|| None);
                    pool.push(instance);
                }
                None => missing += 1,
            }
        }
        HardInstanceStage { pool, missing }
    }

    // ---- Stage 3: boosted disjoint union (Claim 3) --------------------

    /// Plans the disjoint union of `nu` pool instances (cycling through the
    /// pool, identity ranges made disjoint — the Claim-3 composite) once.
    pub fn union_stage(&self, pool: &[HardInstance], nu: usize) -> UnionStage {
        let plan = UnionPlan::for_parts(pool, nu, self.constructor.radius(), self.decider.radius());
        UnionStage { nu, plan }
    }

    // ---- Stage 4: connected gluing (Claims 4–5) -----------------------

    /// Glues the given parts at the given anchors (one per part) and plans
    /// the result, precomputing the far-from-anchors participation set.
    pub fn glued_stage(&self, parts: Vec<HardInstance>, anchors: Vec<NodeId>) -> GluedStage {
        let experiment = GluingExperiment::build(parts, anchors, self.params.t, self.params.t_prime);
        let glued_anchors: Vec<NodeId> = (0..experiment.parts.len())
            .map(|i| experiment.glued_anchor(i))
            .collect();
        let nu = experiment.parts.len();
        let instance = experiment.as_hard_instance();
        let plan = GluedPlan::new(
            &instance.as_instance(),
            glued_anchors,
            experiment.exclusion_radius,
            self.constructor.radius(),
            self.decider.radius(),
        );
        GluedStage { nu, plan, instance }
    }

    /// [`DerandPipeline::glued_stage`] with automatic part and anchor
    /// selection: cycles `nu` parts from the pool and anchors each at its
    /// first spread-set candidate (distance `≥ 2(t + t')` apart, as
    /// Claim 4 requires).
    ///
    /// # Panics
    /// Panics if the pool is empty or `nu < 2`.
    pub fn glued_stage_auto(&self, pool: &[HardInstance], nu: usize) -> GluedStage {
        assert!(!pool.is_empty(), "gluing needs a non-empty hard-instance pool");
        assert!(nu >= 2, "gluing needs at least two parts");
        let parts: Vec<HardInstance> = (0..nu).map(|i| pool[i % pool.len()].clone()).collect();
        let anchors: Vec<NodeId> = parts
            .iter()
            .map(|part| {
                let candidates =
                    anchor_candidates(part, self.params.t, self.params.t_prime, self.params.p);
                assert!(
                    !candidates.is_empty(),
                    "no anchor candidate in a {}-node part",
                    part.node_count()
                );
                candidates[0]
            })
            .collect();
        self.glued_stage(parts, anchors)
    }
}

/// Stage 1 standalone (Claim 1 / Appendix A): refines `universe` until
/// `algo` is consistent on every ball type of the probe instances (at
/// `algo`'s radius). The refinement itself is
/// `rlnc_core::derand::ramsey::consistent_id_set` verbatim, so seeded
/// streams match a direct call exactly.
pub fn ramsey_stage<A: LocalAlgorithm + ?Sized>(
    algo: &A,
    probes: &[Instance<'_>],
    universe: &[u64],
    samples_per_round: usize,
    seed: u64,
) -> RamseyStage {
    let templates = collect_templates(probes, algo.radius());
    let id_set = consistent_id_set(algo, &templates, universe, samples_per_round, seed);
    RamseyStage {
        id_set,
        universe_size: universe.len(),
        templates: templates.len(),
    }
}

/// Stage-2 standalone (Claim 2): engine-backed failure probability β of a
/// randomized constructor on a fixed instance, `Pr[C(H, x, id) ∉ L]` —
/// the decider plays no part in this stage. Bit-identical to
/// `HardInstanceSearch::failure_probability` (cached views, same per-trial
/// seed derivation, complemented counts).
pub fn failure_probability_with<C, L>(
    constructor: &C,
    language: &L,
    instance: &HardInstance,
    trials: u64,
    seed: u64,
) -> Estimate
where
    C: RandomizedLocalAlgorithm + ?Sized,
    L: DistributedLanguage + ?Sized,
{
    let inst = instance.as_instance();
    let plan = ExecutionPlan::for_instance(&inst, constructor.radius());
    plan.estimate(constructor, trials, seed, |out| {
        let io = IoConfig::from_instance(&inst, out);
        !language.contains(&io)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::algorithm::FnAlgorithm;
    use rlnc_core::derand::boosting::disjoint_union_acceptance;
    use rlnc_core::derand::hard_instances::{consecutive_cycle_candidates, HardInstanceSearch};
    use rlnc_core::derand::ramsey::OrderInvariantLift;
    use rlnc_core::labels::Label;
    use rlnc_core::one_sided::OneSidedLclDecider;
    use rlnc_core::view::View;
    use rlnc_graph::traversal::is_connected;
    use rlnc_langs::coloring::ProperColoring;
    use rlnc_langs::random_coloring::RandomColoring;
    use rlnc_langs::registry::CaseId;

    /// The knobs of the 3-coloring triple below: a one-sided decider with
    /// `p = 0.75` at the language's radius 1 over a radius-0 constructor.
    const COLORING_PARAMS: PipelineParams = PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 };

    fn coloring_pipeline() -> (RandomColoring, OneSidedLclDecider<ProperColoring>, ProperColoring) {
        (
            RandomColoring::new(3),
            OneSidedLclDecider::new(ProperColoring::new(3), COLORING_PARAMS.p),
            ProperColoring::new(3),
        )
    }

    #[test]
    fn params_arithmetic() {
        let params = PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 };
        assert_eq!(params.exclusion_radius(), 1);
        assert_eq!(params.mu(), 2);
    }

    #[test]
    fn hard_instance_stage_matches_legacy_search() {
        let (constructor, decider, language) = coloring_pipeline();
        let pipeline = DerandPipeline::new(&constructor, &decider, &language, COLORING_PARAMS);
        let c1 = FnAlgorithm::new(1, "always-1", |_: &View| Label::from_u64(1));
        let c2 = FnAlgorithm::new(1, "always-2", |_: &View| Label::from_u64(2));
        let algos: [&dyn LocalAlgorithm; 2] = [&c1, &c2];
        let candidates = consecutive_cycle_candidates([8, 10]);
        let mut cache = PlanCache::new();
        let stage = pipeline.hard_instance_stage_cached(&algos, &candidates, 0, 1, &mut cache);
        assert_eq!(stage.missing, 0);
        assert_eq!(stage.pool.len(), 2);
        // Same pool as the legacy search (disjoint id ranges included).
        let legacy = HardInstanceSearch::new(&language).with_min_id(1);
        let dyn_algos: Vec<&dyn LocalAlgorithm> = vec![&c1, &c2];
        let (reference, missing) = legacy.hard_instance_family(dyn_algos, &candidates);
        assert_eq!(missing, 0);
        for (ours, theirs) in stage.pool.iter().zip(&reference) {
            assert_eq!(ours.graph, theirs.graph);
            assert_eq!(ours.ids.as_slice(), theirs.ids.as_slice());
        }
    }

    #[test]
    fn cached_hard_instance_search_reuses_plans_across_missing_algorithms() {
        let (constructor, decider, language) = coloring_pipeline();
        let pipeline = DerandPipeline::new(&constructor, &decider, &language, COLORING_PARAMS);
        // Two algorithms that never fail on even cycles (id-parity is a
        // proper 2-coloring there) followed by one that always fails: the
        // parity algorithms scan the whole candidate list at the same
        // identity floor, so the second scan must be pure cache hits.
        let p1 = FnAlgorithm::new(0, "id-parity", |v: &View| Label::from_u64(v.center_id() % 2 + 1));
        let p2 = FnAlgorithm::new(0, "id-parity-flipped", |v: &View| {
            Label::from_u64((v.center_id() + 1) % 2 + 1)
        });
        let c1 = FnAlgorithm::new(0, "always-1", |_: &View| Label::from_u64(1));
        let algos: [&dyn LocalAlgorithm; 3] = [&p1, &p2, &c1];
        let candidates = consecutive_cycle_candidates([8, 10, 12]);
        let mut cache = PlanCache::new();
        let cached = pipeline.hard_instance_stage_cached(&algos, &candidates, 0, 1, &mut cache);
        assert_eq!(cached.missing, 2);
        assert_eq!(cached.pool.len(), 1);
        // First algorithm: 3 misses. Second: 3 hits. Third: 1 hit.
        assert_eq!(cache.misses(), 3, "one plan per distinct candidate");
        assert_eq!(cache.hits(), 4, "repeat scans must hit the cache");
        // A second search over the warm cache plans nothing new and finds
        // the same pool.
        let warm = pipeline.hard_instance_stage_cached(&algos, &candidates, 0, 1, &mut cache);
        assert_eq!(cache.misses(), 3, "the warm search is all hits");
        assert_eq!(warm.missing, cached.missing);
        assert_eq!(warm.pool.len(), cached.pool.len());
        for (a, b) in cached.pool.iter().zip(&warm.pool) {
            assert_eq!(a.graph, b.graph);
            assert_eq!(a.ids.as_slice(), b.ids.as_slice());
        }
    }

    #[test]
    fn batched_hard_instance_scan_is_pinned() {
        let (constructor, decider, language) = coloring_pipeline();
        let pipeline = DerandPipeline::new(&constructor, &decider, &language, COLORING_PARAMS);
        // A mixed-radius family: the batched scan settles one same-radius
        // slice per `run_many` call, so radius-0 and radius-1 algorithms
        // land in separate batches while the identity floor keeps
        // threading through in family order.
        let p1 = FnAlgorithm::new(0, "id-parity", |v: &View| Label::from_u64(v.center_id() % 2 + 1));
        let c1 = FnAlgorithm::new(1, "always-1", |_: &View| Label::from_u64(1));
        let p2 = FnAlgorithm::new(0, "id-mod-3", |v: &View| Label::from_u64(v.center_id() % 3 + 1));
        let c2 = FnAlgorithm::new(1, "always-2", |_: &View| Label::from_u64(2));
        let algos: [&dyn LocalAlgorithm; 4] = [&p1, &c1, &p2, &c2];
        let candidates = consecutive_cycle_candidates([8, 10, 12]);
        let mut cache = PlanCache::new();
        let stage = pipeline.hard_instance_stage_cached(&algos, &candidates, 0, 1, &mut cache);
        // Bit-identical to the legacy probe-by-probe search...
        let legacy = HardInstanceSearch::new(&language).with_min_id(1);
        let (reference, missing) = legacy.hard_instance_family(algos.to_vec(), &candidates);
        assert_eq!(stage.missing, missing);
        assert_eq!(stage.pool.len(), reference.len());
        for (ours, theirs) in stage.pool.iter().zip(&reference) {
            assert_eq!(ours.graph, theirs.graph);
            assert_eq!(ours.ids.as_slice(), theirs.ids.as_slice());
        }
        // ...and pinned in shape: id-parity 2-colors even cycles properly
        // (missing), always-1 fails the 8-cycle, id-mod-3 first fails on
        // the shifted 10-cycle (its closing edge collides mod 3), always-2
        // fails the next shifted 8-cycle — identity ranges pairwise
        // disjoint above the floor.
        assert_eq!(stage.missing, 1);
        let shape: Vec<(usize, u64, u64)> = stage
            .pool
            .iter()
            .map(|h| (h.graph.node_count(), h.min_id(), h.max_id()))
            .collect();
        assert_eq!(shape, [(8, 1, 8), (10, 9, 18), (8, 19, 26)]);
    }

    #[test]
    fn hard_instance_stage_honours_a_positive_min_diameter() {
        let (constructor, decider, language) = coloring_pipeline();
        let pipeline = DerandPipeline::new(&constructor, &decider, &language, COLORING_PARAMS);
        let c1 = FnAlgorithm::new(1, "always-1", |_: &View| Label::from_u64(1));
        let c2 = FnAlgorithm::new(1, "always-2", |_: &View| Label::from_u64(2));
        let algos: [&dyn LocalAlgorithm; 2] = [&c1, &c2];
        // Diameters 2, 3, 4, 5: a floor of 4 skips the 4- and 6-cycles.
        let candidates = consecutive_cycle_candidates([4, 6, 8, 10]);
        let mut cache = PlanCache::new();
        let stage = pipeline.hard_instance_stage_cached(&algos, &candidates, 4, 1, &mut cache);
        let legacy = HardInstanceSearch::new(&language)
            .with_min_id(1)
            .with_min_diameter(4);
        let (reference, missing) = legacy.hard_instance_family(algos.to_vec(), &candidates);
        assert_eq!((stage.missing, missing), (0, 0));
        assert_eq!(stage.pool.len(), reference.len());
        for (ours, theirs) in stage.pool.iter().zip(&reference) {
            assert_eq!(ours.graph, theirs.graph);
            assert_eq!(ours.ids.as_slice(), theirs.ids.as_slice());
        }
        let shape: Vec<(usize, u64, u64)> = stage
            .pool
            .iter()
            .map(|h| (h.graph.node_count(), h.min_id(), h.max_id()))
            .collect();
        assert_eq!(shape, [(8, 1, 8), (8, 9, 16)]);
        // Skipped candidates are never planned.
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn failure_probability_matches_legacy_search() {
        let (constructor, _, language) = coloring_pipeline();
        let instance = consecutive_cycle_candidates([6]).remove(0);
        let engine = failure_probability_with(&constructor, &language, &instance, 500, 3);
        let legacy = HardInstanceSearch::new(&language)
            .failure_probability(&constructor, &instance, 500, 3);
        assert_eq!(engine.successes, legacy.successes);
        assert_eq!(engine.p_hat, legacy.p_hat);
    }

    #[test]
    fn union_acceptance_matches_legacy_boosting() {
        let (constructor, decider, language) = coloring_pipeline();
        let pipeline = DerandPipeline::new(&constructor, &decider, &language, COLORING_PARAMS);
        let pool = consecutive_cycle_candidates([6, 8]);
        for nu in [1usize, 3] {
            let stage = pipeline.union_stage(&pool, nu);
            assert_eq!(stage.plan.components(), nu);
            let engine = stage.plan.plan().acceptance(&constructor, &decider, None, 400, 0);
            let legacy = disjoint_union_acceptance(&constructor, &decider, &pool, nu, 400, 0);
            assert_eq!(engine.successes, legacy.successes);
        }
    }

    #[test]
    fn glued_stage_matches_legacy_gluing_experiment() {
        let (constructor, decider, language) = coloring_pipeline();
        let pipeline = DerandPipeline::new(&constructor, &decider, &language, COLORING_PARAMS);
        let pool = consecutive_cycle_candidates([12, 14]);
        let stage = pipeline.glued_stage_auto(&pool, 3);
        assert_eq!(stage.nu, 3);
        assert!(is_connected(&stage.instance.graph));
        assert!(stage.instance.graph.max_degree() <= 3);

        // Reference: the legacy experiment with the same parts and anchors.
        let parts: Vec<HardInstance> = (0..3).map(|i| pool[i % 2].clone()).collect();
        let anchors: Vec<NodeId> = parts
            .iter()
            .map(|p| anchor_candidates(p, 0, 1, 0.75)[0])
            .collect();
        let experiment = GluingExperiment::build(parts, anchors, 0, 1);
        let plan = stage.plan.plan();
        let far = Some(stage.plan.participants());
        let far_engine = plan.acceptance(&constructor, &decider, far, 300, 0);
        let far_legacy =
            experiment.acceptance_far_from_all_anchors(&constructor, &decider, 300, 0);
        assert_eq!(far_engine.successes, far_legacy.successes);
        let full_engine = plan.acceptance(&constructor, &decider, None, 300, 7);
        let full_legacy = experiment.acceptance(&constructor, &decider, 300, 7);
        assert_eq!(full_engine.successes, full_legacy.successes);
    }

    #[test]
    fn ramsey_stage_refines_and_lift_agrees() {
        let (constructor, decider, language) = coloring_pipeline();
        let pipeline = DerandPipeline::new(&constructor, &decider, &language, COLORING_PARAMS);
        let probe = consecutive_cycle_candidates([8]).remove(0);
        let algo = FnAlgorithm::new(0, "id-parity", |v: &View| Label::from_u64(v.center_id() % 2));
        let universe: Vec<u64> = (1..=60).collect();
        let stage = pipeline.ramsey_stage(&algo, &[probe.as_instance()], &universe, 300, 7);
        assert_eq!(stage.templates, 1);
        assert!(!stage.id_set.is_empty() && stage.id_set.len() <= stage.universe_size);
        let parities: std::collections::HashSet<u64> =
            stage.id_set.iter().map(|x| x % 2).collect();
        assert_eq!(parities.len(), 1, "refined set must land in one parity class");
        // Agreement on an instance whose ids come from the refined set.
        let in_set = HardInstance::new(
            probe.graph.clone(),
            probe.input.clone(),
            rlnc_graph::IdAssignment::new(stage.id_set.iter().take(8).copied().collect()),
        );
        let lift = OrderInvariantLift::new(&algo, stage.id_set.clone());
        let plan = ExecutionPlan::for_instance(&in_set.as_instance(), LocalAlgorithm::radius(&algo));
        assert_eq!(plan.run(&algo), plan.run(&lift));
    }

    #[test]
    fn every_case_runs_the_four_stages_end_to_end_on_cycles() {
        for id in &CaseId::ALL[..3] {
            let case = id.case();
            let pipeline = DerandPipeline::new(
                &*case.constructor,
                &*case.decider,
                &*case.language,
                case.params,
            );
            let candidates = consecutive_cycle_candidates([12, 14, 16]);
            // Stage 1: the refinement terminates and keeps enough ids.
            let probe = candidates[0].as_instance();
            let algo = &*case.det_family[0];
            let universe: Vec<u64> = (1..=48).collect();
            let ramsey = pipeline.ramsey_stage(algo, &[probe], &universe, 60, 11);
            assert!(ramsey.id_set.len() >= 3, "{}: refined set too small", case.name);
            // Stage 2: every deterministic algorithm has a hard instance.
            let algos: Vec<&dyn LocalAlgorithm> = case.det_family.iter().map(|b| &**b).collect();
            let mut cache = PlanCache::new();
            let stage = pipeline.hard_instance_stage_cached(&algos, &candidates, 0, 1, &mut cache);
            assert_eq!(stage.missing, 0, "{}: search came up empty", case.name);
            assert_eq!(stage.pool.len(), case.det_family.len());
            // β is strictly positive (the constructor really fails).
            let beta =
                failure_probability_with(&*case.constructor, &*case.language, &stage.pool[0], 300, 5);
            assert!(beta.p_hat > 0.05, "{}: beta {} too small", case.name, beta.p_hat);
            // Stage 3: union acceptance decays with ν.
            let u2 = pipeline.union_stage(&stage.pool, 2);
            let u4 = pipeline.union_stage(&stage.pool, 4);
            let (constructor, decider) = (&*case.constructor, &*case.decider);
            let a2 = u2.plan.plan().acceptance(constructor, decider, None, 300, 0);
            let a4 = u4.plan.plan().acceptance(constructor, decider, None, 300, 0);
            assert!(
                a4.p_hat <= a2.p_hat + 0.1,
                "{}: union acceptance must not grow with nu ({} vs {})",
                case.name,
                a4.p_hat,
                a2.p_hat
            );
            // Stage 4: the gluing is connected and evaluable.
            let glued = pipeline.glued_stage_auto(&stage.pool, 2);
            assert!(is_connected(&glued.instance.graph));
            let participants = Some(glued.plan.participants());
            let far = glued.plan.plan().acceptance(constructor, decider, participants, 200, 0);
            assert!((0.0..=1.0).contains(&far.p_hat));
        }
    }
}
