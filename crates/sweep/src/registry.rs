//! The registry of named, ready-to-run scenarios.
//!
//! Scenario names are the CLI's currency (`rlnc-experiments sweep
//! --scenario NAME`) and the first component of every trial's seed path,
//! so they must be unique. [`Registry::builtin`] assembles the scenarios
//! shipped with the workspace from `rlnc-langs` and `rlnc-graph` building
//! blocks; callers can [`Registry::insert`] their own.

use crate::spec::{IdScheme, Params, ScenarioSpec};
use crate::workload::{Decay, Workload};
use rlnc_graph::generators::Family;
use rlnc_langs::registry::CaseId;

/// A collection of named scenarios.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    scenarios: Vec<ScenarioSpec>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The scenarios shipped with the workspace.
    pub fn builtin() -> Self {
        let mut registry = Registry::new();
        registry.insert(ScenarioSpec {
            name: "smoke".into(),
            description: "tiny ε-slack sweep over a cycle and a torus (CI front door)".into(),
            families: vec![Family::Cycle, Family::Torus],
            sizes: vec![36],
            id_schemes: vec![IdScheme::Consecutive],
            params: vec![Params::ZERO],
            base_trials: 400,
            workload: Workload::SlackColoring { colors: 3, epsilon: 0.60 },
        });
        registry.insert(slack_ring_spec());
        registry.insert(ScenarioSpec {
            name: "slack-topologies".into(),
            description: "ε-slack random coloring across bounded-degree topologies the paper never tests (torus, random 4-regular, circulant, prism) and identity schemes".into(),
            families: vec![
                Family::Cycle,
                Family::Grid,
                Family::BinaryTree,
                Family::Cubic,
                Family::Torus,
                Family::RandomRegular4,
                Family::Circulant2,
                Family::Prism,
            ],
            sizes: vec![64, 144],
            id_schemes: vec![IdScheme::Consecutive, IdScheme::RandomPermutation],
            params: vec![Params::ZERO],
            base_trials: 300,
            workload: Workload::SlackColoring { colors: 3, epsilon: 0.60 },
        });
        registry.insert(resilient_boundary_spec());
        registry.insert(boosting_spec(8));
        registry.insert(glued_decay_spec());
        registry.insert(ramsey_lift_spec());
        registry.insert(theorem1_pipeline_spec());
        registry.insert(language_matrix_spec());
        registry.insert(fault_matrix_spec());
        registry.insert(claim2_scan_spec());
        registry
    }

    /// Adds or replaces (by name) a scenario.
    pub fn insert(&mut self, spec: ScenarioSpec) {
        if let Some(existing) = self.scenarios.iter_mut().find(|s| s.name == spec.name) {
            *existing = spec;
        } else {
            self.scenarios.push(spec);
        }
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All scenario names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name.as_str()).collect()
    }

    /// Iterates over the registered scenarios.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.scenarios.iter()
    }
}

/// The E2 and E9 rings as a scenario: the §1.1 zero-round random
/// 3-coloring against the 0.60-slack relaxation on rings of 64, 256 and
/// 1024 nodes (E2 re-runs it at other ε, E9 on the 256-node ring alone).
pub fn slack_ring_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "slack-ring".into(),
        description: "§1.1: zero-round random 3-coloring vs the 0.60-slack relaxation on growing rings".into(),
        families: vec![Family::Cycle],
        sizes: vec![64, 256, 1024],
        id_schemes: vec![IdScheme::Consecutive],
        params: vec![Params::ZERO],
        base_trials: 400,
        workload: Workload::SlackColoring { colors: 3, epsilon: 0.60 },
    }
}

/// The E5 grid as a scenario: the Corollary-1 decider at the resilience
/// boundary, `f ∈ {1, 2, 4, 8}` × planted conflicts `∈ {0, 1, 2, 3}`.
pub fn resilient_boundary_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "resilient-boundary".into(),
        description: "Corollary 1: the f-resilient decider's acceptance probability across the |F| ≤ f boundary".into(),
        families: vec![Family::Cycle],
        sizes: vec![96],
        id_schemes: vec![IdScheme::Consecutive],
        params: [1u64, 2, 4, 8]
            .iter()
            .flat_map(|&f| (0u64..4).map(move |planted| Params::two(f, planted)))
            .collect(),
        base_trials: 10_000,
        workload: Workload::ResilientBoundary { colors: 2 },
    }
}

/// The E6 grid as a scenario: Claim-3 disjoint-union boosting with
/// `ν ∈ {1, ..., max_nu}` copies (E6 picks `max_nu` from the measured
/// constructor failure probability β).
pub fn boosting_spec(max_nu: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "boosting-decay".into(),
        description: "Claim 3: decider acceptance on the disjoint union of ν hard cycles decays as (1−βp)^ν".into(),
        families: vec![Family::Cycle],
        sizes: vec![12],
        id_schemes: vec![IdScheme::Consecutive],
        params: (1..=max_nu.max(1)).map(Params::one).collect(),
        base_trials: 3_000,
        workload: Workload::BoostingUnion(Decay {
            cycle_size: 12,
            per_node_fault: 0.05,
            colors: 3,
            decider_p: 0.8,
        }),
    }
}

/// The E7 decay grid as a scenario: Claims 4–5 glued acceptance across
/// `ν' ∈ {2, ..., 6}` glued hard cycles, evaluated through the engine's
/// [`GluedPlan`](rlnc_engine::GluedPlan) kernels.
pub fn glued_decay_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "glued-decay".into(),
        description: "Claims 4–5: acceptance far from every anchor on the connected gluing of ν' hard cycles decays like (1−β(1−p)/µ)^ν'".into(),
        families: vec![Family::Cycle],
        sizes: vec![16],
        id_schemes: vec![IdScheme::Consecutive],
        params: (2..=6).map(Params::one).collect(),
        base_trials: 1_500,
        workload: Workload::GluedDecay(Decay {
            cycle_size: 16,
            per_node_fault: 0.05,
            colors: 3,
            decider_p: 0.75,
        }),
    }
}

/// The Claim-1 grid as a scenario (E8's): the Ramsey-refined identity set
/// and the order-invariant lift's agreement, for three wrapped algorithms.
pub fn ramsey_lift_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "ramsey-lift".into(),
        description: "Claim 1 / Appendix A: the lift A' agrees with A on instances whose identities come from the Ramsey-refined set".into(),
        families: vec![Family::Cycle, Family::Torus],
        sizes: vec![24],
        id_schemes: vec![IdScheme::Consecutive],
        params: (0..3).map(Params::one).collect(),
        base_trials: 200,
        // The per-round sample count must stay high regardless of scale, or
        // the refined set can retain stray identities.
        workload: Workload::RamseyLift {
            universe: 160,
            samples: 400,
        },
    }
}

/// The end-to-end Theorem-1 scenario: the full four-stage pipeline across
/// graph families, a ν grid, and the first three registry cases
/// (3-coloring, `amos`, weak 2-coloring — `CaseId::ALL[..3]`), run by the
/// same `language-pipeline` workload as `language-matrix`.
pub fn theorem1_pipeline_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "theorem1-pipeline".into(),
        description: "Theorem 1 end to end: ramsey lift → hard-instance search → boosted union → connected gluing, for 3-coloring, amos, and weak 2-coloring".into(),
        families: vec![Family::Cycle, Family::Circulant2, Family::Prism],
        sizes: vec![16],
        id_schemes: vec![IdScheme::Consecutive],
        params: (0..3)
            .flat_map(|case| [2u64, 4].iter().map(move |&nu| Params::two(nu, case)))
            .collect(),
        base_trials: 240,
        workload: Workload::LanguagePipeline,
    }
}

/// The full-catalog scenario: every case in [`CaseId::ALL`] — coloring,
/// `amos`, weak coloring, MIS, matching, dominating set, LLL, frugal
/// coloring, Cole–Vishkin, majority — through the four-stage Theorem-1
/// pipeline, across connected regular families and a ν grid. The case is
/// the `params.b` axis ([`CaseId::from_index`]); `params.a` is ν.
pub fn language_matrix_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "language-matrix".into(),
        description: format!(
            "the whole language catalog through the Theorem-1 pipeline: {} registered cases ({}) × families × ν",
            CaseId::ALL.len(),
            case_names()
        ),
        families: vec![Family::Cycle, Family::Circulant2, Family::Prism],
        sizes: vec![16],
        id_schemes: vec![IdScheme::Consecutive],
        params: (0..CaseId::ALL.len() as u64)
            .flat_map(|case| [2u64, 4].iter().map(move |&nu| Params::two(nu, case)))
            .collect(),
        base_trials: 160,
        workload: Workload::LanguagePipeline,
    }
}

/// The fault-resilience scenario: every registered language case's
/// constructor runs through the **round backend** under each
/// [`FaultPlan`](rlnc_core::FaultPlan) kind (crash-on-start,
/// crash-at-round, crash-cascade, byzantine-relabel) at two intensities,
/// then the case's decider judges the corrupted output. The fault axis is
/// `params.a` (`plan kind × 1000 + intensity‰`, see
/// [`crate::workload::decode_fault_params`]); the case is `params.b`.
/// Success tracks the all-nodes-accept rate as faults intensify; the value
/// channel records the realized faulty-node fraction.
pub fn fault_matrix_spec() -> ScenarioSpec {
    let cases = CaseId::ALL.len() as u64;
    let intensities_permille = [150u64, 350];
    ScenarioSpec {
        name: "fault-matrix".into(),
        description: format!(
            "fault plans × intensity × the whole language catalog on the round backend: \
             crash-on-start, crash-at-round, crash-cascade, byzantine-relabel against {} cases ({})",
            cases,
            case_names()
        ),
        families: vec![Family::Cycle, Family::Circulant2, Family::Prism],
        sizes: vec![16],
        id_schemes: vec![IdScheme::Consecutive],
        params: (0..rlnc_core::FAULT_PLAN_KINDS as u64)
            .flat_map(|plan| {
                intensities_permille.iter().flat_map(move |&permille| {
                    (0..cases).map(move |case| Params::two(plan * 1000 + permille, case))
                })
            })
            .collect(),
        base_trials: 200,
        workload: Workload::FaultMatrix,
    }
}

/// Every registry case's slug, in [`CaseId::ALL`] order, comma-separated.
fn case_names() -> String {
    CaseId::ALL.map(CaseId::name).join(", ")
}

/// The batched Claim-2 scan as a scenario: the K-axis of the
/// multi-algorithm hard-instance search. `params.a` is the width `K` of
/// the deterministic probe family (the registry case's algorithms widened
/// with same-radius variants — see
/// [`crate::workload::Workload::Claim2Scan`]); `params.b` selects the
/// case. A trial estimates the found instance's constructor failure rate;
/// the value channel records the scan's pool coverage `found / K`.
pub fn claim2_scan_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "claim2-scan".into(),
        description: "Claim 2, batched: K deterministic probes scan the candidate pool in one \
                      multi-algorithm pass per cached instance (3-coloring, amos, weak \
                      2-coloring), then trials estimate constructor failure on the found hard \
                      instance"
            .into(),
        families: vec![Family::Cycle, Family::Circulant2, Family::Prism],
        sizes: vec![16],
        id_schemes: vec![IdScheme::Consecutive],
        params: [1u64, 4, 8, 16]
            .iter()
            .flat_map(|&k| (0..3u64).map(move |case| Params::two(k, case)))
            .collect(),
        base_trials: 200,
        workload: Workload::Claim2Scan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_scenarios_are_unique_and_valid() {
        let registry = Registry::builtin();
        let names = registry.names();
        assert!(names.len() >= 5);
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate scenario names");
        for spec in registry.iter() {
            spec.validate().unwrap_or_else(|e| panic!("{e}"));
            assert!(!spec.description.is_empty(), "{} lacks a description", spec.name);
        }
        assert!(registry.get("smoke").is_some());
        assert!(registry.get("resilient-boundary").is_some());
        assert!(registry.get("no-such-scenario").is_none());
    }

    #[test]
    fn insert_replaces_by_name() {
        let mut registry = Registry::builtin();
        let before = registry.names().len();
        let mut spec = registry.get("smoke").unwrap().clone();
        spec.base_trials = 7;
        registry.insert(spec);
        assert_eq!(registry.names().len(), before);
        assert_eq!(registry.get("smoke").unwrap().base_trials, 7);
    }

    #[test]
    fn slack_topologies_covers_the_prism_family() {
        let registry = Registry::builtin();
        let spec = registry.get("slack-topologies").expect("slack-topologies");
        assert!(
            spec.families.contains(&Family::Prism),
            "the prism generator must be exercised by a registry scenario"
        );
        // And the grid actually materializes prism points that run.
        let grid = spec.grid(rlnc_par::Scale::Smoke);
        let prism_point = grid
            .iter()
            .find(|p| p.family == Family::Prism)
            .expect("a prism grid point");
        let prepared = spec
            .workload
            .prepare(prism_point, rlnc_par::SeedSequence::new(1).child(prism_point.index));
        let seed = rlnc_par::SeedSequence::new(1).child(0);
        let outcome = prepared.run_trial_with(&mut prepared.scratch(), seed);
        assert!((0.0..=1.0).contains(&outcome.value));
    }

    #[test]
    fn parameterized_spec_builders() {
        assert_eq!(resilient_boundary_spec().params.len(), 16);
        assert_eq!(boosting_spec(5).params.len(), 5);
        assert_eq!(boosting_spec(0).params.len(), 1, "ν is clamped to at least 1");
        assert!(boosting_spec(3).validate().is_ok());
        assert_eq!(glued_decay_spec().params.len(), 5);
        assert!(glued_decay_spec().validate().is_ok());
        assert!(ramsey_lift_spec().validate().is_ok());
        assert!(theorem1_pipeline_spec().validate().is_ok());
    }

    #[test]
    fn derand_scenarios_are_registered() {
        let registry = Registry::builtin();
        for name in [
            "glued-decay",
            "ramsey-lift",
            "theorem1-pipeline",
            "language-matrix",
            "claim2-scan",
        ] {
            assert!(registry.get(name).is_some(), "{name} missing from the registry");
        }
    }

    #[test]
    fn claim2_scan_exposes_a_real_k_axis() {
        let spec = claim2_scan_spec();
        assert!(spec.validate().is_ok());
        let ks: std::collections::HashSet<u64> = spec.params.iter().map(|p| p.a).collect();
        assert!(ks.len() >= 3, "the K axis must be a real grid");
        assert!(ks.contains(&8), "the ≥3×-at-K≥8 regime must be on the axis");
        let cases: std::collections::HashSet<u64> = spec.params.iter().map(|p| p.b).collect();
        assert_eq!(cases.len(), 3, "the three legacy cases ride the case axis");
    }

    #[test]
    fn claim2_scan_smoke_grid_point_runs_and_covers_the_pool() {
        let spec = claim2_scan_spec();
        let grid = spec.grid(rlnc_par::Scale::Smoke);
        let point = grid
            .iter()
            .find(|p| p.params.a == 8 && p.params.b == 0)
            .expect("a K = 8 coloring grid point");
        let point_seed = rlnc_par::SeedSequence::new(17).child(point.index);
        let prepared = spec.workload.prepare(point, point_seed);
        let outcome =
            prepared.run_trial_with(&mut prepared.scratch(), point_seed.child(1).child(0));
        assert!((0.0..=1.0).contains(&outcome.value));
        // The widened probe family finds hard instances: the coverage
        // channel must report a non-empty pool.
        assert!(outcome.value > 0.0, "the scan found no hard instance");
    }

    #[test]
    fn language_matrix_covers_every_registered_case() {
        let spec = language_matrix_spec();
        assert!(spec.validate().is_ok());
        let cases: std::collections::HashSet<u64> = spec.params.iter().map(|p| p.b).collect();
        assert_eq!(
            cases.len(),
            CaseId::ALL.len(),
            "every registered language case must appear on the sweep axis"
        );
        for name in CaseId::ALL.map(CaseId::name) {
            assert!(
                spec.description.contains(name),
                "description must surface case '{name}'"
            );
        }
        let nus: std::collections::HashSet<u64> = spec.params.iter().map(|p| p.a).collect();
        assert!(nus.len() >= 2, "the ν axis must be a real grid");
    }

    #[test]
    fn language_matrix_smoke_grid_runs_the_non_legacy_cases() {
        // The first three cases are pinned by the theorem1-pipeline
        // regression test; here the rest of the catalog runs end to end
        // through real grid points.
        let spec = language_matrix_spec();
        let grid = spec.grid(rlnc_par::Scale::Smoke);
        for case in 3..CaseId::ALL.len() as u64 {
            let point = grid
                .iter()
                .find(|p| p.params.b == case)
                .expect("a grid point per case");
            let prepared = spec
                .workload
                .prepare(point, rlnc_par::SeedSequence::new(11).child(point.index));
            let seed = rlnc_par::SeedSequence::new(11).child(1).child(0);
            let outcome = prepared.run_trial_with(&mut prepared.scratch(), seed);
            assert!((0.0..=1.0).contains(&outcome.value), "case {case}");
        }
    }

    #[test]
    fn fault_matrix_covers_every_plan_intensity_and_case() {
        let spec = fault_matrix_spec();
        assert!(spec.validate().is_ok());
        let cases: std::collections::HashSet<u64> = spec.params.iter().map(|p| p.b).collect();
        assert_eq!(
            cases.len(),
            CaseId::ALL.len(),
            "every registered language case must appear on the fault axis"
        );
        for name in CaseId::ALL.map(CaseId::name) {
            assert!(
                spec.description.contains(name),
                "description must surface case '{name}'"
            );
        }
        let plans: std::collections::HashSet<usize> = spec
            .params
            .iter()
            .map(|p| crate::workload::decode_fault_params(p.a).0)
            .collect();
        assert_eq!(
            plans.len(),
            rlnc_core::FAULT_PLAN_KINDS,
            "every fault-plan kind must appear on the sweep axis"
        );
        let intensities: std::collections::HashSet<u64> =
            spec.params.iter().map(|p| p.a % 1000).collect();
        assert!(intensities.len() >= 2, "the intensity axis must be a real grid");
        assert!(spec.families.len() >= 3, "need several graph families");
    }

    #[test]
    fn fault_matrix_smoke_grid_runs_every_plan_kind() {
        let spec = fault_matrix_spec();
        let grid = spec.grid(rlnc_par::Scale::Smoke);
        for plan in 0..rlnc_core::FAULT_PLAN_KINDS as u64 {
            let point = grid
                .iter()
                .find(|p| crate::workload::decode_fault_params(p.params.a).0 == plan as usize)
                .expect("a grid point per fault-plan kind");
            let prepared = spec
                .workload
                .prepare(point, rlnc_par::SeedSequence::new(13).child(point.index));
            let seed = rlnc_par::SeedSequence::new(13).child(1).child(0);
            let outcome = prepared.run_trial_with(&mut prepared.scratch(), seed);
            assert!((0.0..=1.0).contains(&outcome.value), "plan {plan}");
        }
    }

    #[test]
    fn fault_matrix_trials_are_bit_reproducible() {
        // The same (scenario, point, trial) leaf replays byte-identically
        // no matter how often or in which scratch the trial runs — the
        // executor's batching/thread freedom rests on this.
        let spec = fault_matrix_spec();
        let grid = spec.grid(rlnc_par::Scale::Smoke);
        let point = &grid[3];
        let point_seed =
            rlnc_par::SeedSequence::new(crate::DEFAULT_SWEEP_SEED).child(point.index);
        let prepared = spec.workload.prepare(point, point_seed);
        for trial in 0..4u64 {
            let seed = point_seed.child(1).child(trial);
            let mut scratch_a = prepared.scratch();
            let mut scratch_b = prepared.scratch();
            let a = prepared.run_trial_with(&mut scratch_a, seed);
            let b = prepared.run_trial_with(&mut scratch_b, seed);
            assert_eq!(a, b, "trial {trial} must replay identically");
        }
    }

    #[test]
    fn fault_matrix_streams_are_pinned_at_seed_7() {
        // Every record of the smoke sweep, all four fault kinds including
        // Byzantine relabeling: faulty round executions must not move when
        // the round backend around them changes.
        let run = crate::SweepExecutor::new(rlnc_par::Scale::Smoke)
            .with_seed(7)
            .run(&fault_matrix_spec());
        assert_eq!(run.records.len(), 240);
        let lines: Vec<String> = run.records.iter().map(crate::emit::record_json).collect();
        // `scenario_tag` is FNV-1a over the bytes.
        assert_eq!(
            crate::executor::scenario_tag(&lines.join("\n")),
            0xbc61_62e2_0822_6cdd
        );
        let mut successes = [0u64; rlnc_core::FAULT_PLAN_KINDS];
        for r in &run.records {
            successes[crate::workload::decode_fault_params(r.param_a).0] += r.successes;
        }
        assert_eq!(successes, [175, 211, 188, 211]);
    }

    #[test]
    fn boosting_and_glued_decay_streams_are_pinned_at_seed_7() {
        // Every record of both Claim-3/4/5 decay sweeps at smoke scale:
        // their preparation (hard-cycle search, anchors, gluing) and trial
        // streams must not move when the pipeline code around them changes.
        for (spec, records, digest) in [
            (boosting_spec(8), 8, 0x0569_0722_fcc4_e68f),
            (glued_decay_spec(), 5, 0x2f10_08f3_7840_40f2),
        ] {
            let run = crate::SweepExecutor::new(rlnc_par::Scale::Smoke).with_seed(7).run(&spec);
            assert_eq!(run.records.len(), records, "{}", spec.name);
            let lines: Vec<String> = run.records.iter().map(crate::emit::record_json).collect();
            assert_eq!(
                crate::executor::scenario_tag(&lines.join("\n")),
                digest,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn language_slack_and_claim2_streams_are_pinned_at_seed_7() {
        // Every record of the scenarios whose trial kernels run through the
        // engine's construct and decide loops: the whole language catalog
        // (language-matrix), both slack-coloring paths (slack-topologies),
        // and the batched probe scan plus constructor trials (claim2-scan).
        let registry = Registry::builtin();
        for (name, records, successes, digest) in [
            ("language-matrix", 60, 240, 0xa650_d165_820f_1dc8),
            ("slack-topologies", 32, 159, 0x5fed_f149_209d_5dd4),
            ("claim2-scan", 36, 537, 0x99a8_c4ba_bb99_098b),
        ] {
            let spec = registry.get(name).expect("builtin scenario");
            let run = crate::SweepExecutor::new(rlnc_par::Scale::Smoke).with_seed(7).run(spec);
            assert_eq!(run.records.len(), records, "{name}");
            assert_eq!(run.records.iter().map(|r| r.successes).sum::<u64>(), successes, "{name}");
            let lines: Vec<String> = run.records.iter().map(crate::emit::record_json).collect();
            assert_eq!(
                crate::executor::scenario_tag(&lines.join("\n")),
                digest,
                "{name}"
            );
        }
    }

    #[test]
    fn theorem1_pipeline_covers_three_cases_and_families() {
        let spec = theorem1_pipeline_spec();
        assert!(spec.families.len() >= 3, "need several graph families");
        let cases: std::collections::HashSet<u64> = spec.params.iter().map(|p| p.b).collect();
        assert_eq!(cases.len(), 3, "all three language/algorithm pairs must appear");
        let nus: std::collections::HashSet<u64> = spec.params.iter().map(|p| p.a).collect();
        assert!(nus.len() >= 2, "the ν axis must be a real grid");
    }

    #[test]
    fn theorem1_pipeline_smoke_grid_point_runs_every_case() {
        let spec = theorem1_pipeline_spec();
        let grid = spec.grid(rlnc_par::Scale::Smoke);
        for case in 0..3u64 {
            let point = grid
                .iter()
                .find(|p| p.params.b == case)
                .expect("a grid point per case");
            let prepared = spec
                .workload
                .prepare(point, rlnc_par::SeedSequence::new(7).child(point.index));
            let seed = rlnc_par::SeedSequence::new(7).child(1).child(0);
            let outcome = prepared.run_trial_with(&mut prepared.scratch(), seed);
            assert!((0.0..=1.0).contains(&outcome.value), "case {case}");
        }
    }

    #[test]
    fn theorem1_pipeline_streams_are_pinned_at_seed_7() {
        // Every point's success count and value channel at smoke scale:
        // the scenario's trial streams must not move when the pipeline
        // code around them changes.
        let run = crate::SweepExecutor::new(rlnc_par::Scale::Smoke)
            .with_seed(7)
            .run(&theorem1_pipeline_spec());
        assert!(run.records.iter().all(|r| r.workload == "language-pipeline"));
        let successes: Vec<u64> = run.records.iter().map(|r| r.successes).collect();
        assert_eq!(successes, [0, 0, 5, 2, 0, 0, 0, 0, 4, 1, 8, 5, 0, 0, 3, 1, 3, 0]);
        let mean_values: Vec<f64> = run.records.iter().map(|r| r.mean_value).collect();
        assert_eq!(
            mean_values,
            [
                0.0, 0.0, 0.2, 0.05, 0.0, 0.0, 0.0, 0.0, 0.15, 0.1, 0.5, 0.2, 0.0, 0.0, 0.1, 0.05,
                0.0, 0.0
            ]
        );
    }

    #[test]
    fn glued_decay_acceptance_decays_with_parts() {
        let spec = glued_decay_spec();
        let run = crate::SweepExecutor::new(rlnc_par::Scale::Smoke).with_seed(3).run(&spec);
        assert_eq!(run.records.len(), 5);
        let first = &run.records[0];
        let last = &run.records[run.records.len() - 1];
        assert!(
            last.p_hat <= first.p_hat + 0.15,
            "far-acceptance should not grow with ν' ({} -> {})",
            first.p_hat,
            last.p_hat
        );
        // The value channel records the (all-nodes) acceptance, which can
        // only be rarer than the far event.
        for record in &run.records {
            assert!(record.mean_value <= record.p_hat + 1e-9);
        }
    }

    #[test]
    fn glued_decay_plans_exclude_every_anchor_ball() {
        // Claims 4–5 quantify over the nodes beyond every anchor's
        // exclusion ball. The construction views reach at least that far,
        // so each anchor's view lists the ball its plan must leave out.
        let spec = glued_decay_spec();
        for point in spec.grid(rlnc_par::Scale::Smoke) {
            let point_seed = rlnc_par::SeedSequence::new(1).child(point.index);
            let crate::workload::Prepared::Glued { plan, .. } =
                spec.workload.prepare(&point, point_seed)
            else {
                unreachable!("glued-decay prepares glued points");
            };
            let views = plan.plan().construction();
            assert!(views.radius() >= plan.exclusion_radius());
            let mut near = vec![false; plan.node_count()];
            for anchor in plan.anchors() {
                let view = &views.views()[anchor.index()];
                for i in (0..view.len()).filter(|&i| view.distance(i) <= plan.exclusion_radius()) {
                    near[view.host_node(i).index()] = true;
                }
            }
            let far: Vec<usize> = (0..near.len()).filter(|&v| !near[v]).collect();
            assert!(!far.is_empty(), "ν' = {}: no participant", point.params.a);
            assert_eq!(plan.participants(), &far[..], "ν' = {}", point.params.a);
        }
    }

    #[test]
    fn ramsey_lift_scenario_agrees_on_in_set_instances() {
        let spec = ramsey_lift_spec();
        let run = crate::SweepExecutor::new(rlnc_par::Scale::Smoke).with_seed(5).run(&spec);
        for record in &run.records {
            assert_eq!(
                record.successes, record.trials,
                "lift must agree with the wrapped algorithm on in-set instances (point {})",
                record.point
            );
            assert!(record.mean_value > 0.0 && record.mean_value <= 1.0);
        }
    }
}
