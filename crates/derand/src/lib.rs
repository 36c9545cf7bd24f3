//! # rlnc-derand — the engine-backed Theorem-1 derandomization pipeline
//!
//! The proof of Theorem 1 is a four-stage machine: the Ramsey lift of
//! Claim 1 (restrict to an identity set on which the algorithm is
//! order-invariant), the hard-instance search of Claim 2 (one failing
//! instance per candidate algorithm, with diameter and identity-floor side
//! conditions), the error boosting of Claim 3 (acceptance on the disjoint
//! union of `ν` hard instances decays like `(1 − βp)^ν`), and the connected
//! gluing of Claims 4–5 (reconnect the union without hiding the failure).
//! `rlnc_core::derand` implements each stage faithfully — but its
//! estimators re-extract every ball on every Monte-Carlo trial and re-run
//! one BFS per anchor per trial.
//!
//! This crate turns the argument into a reusable subsystem:
//!
//! * [`DerandPipeline`] drives the four stages **generically** over any
//!   [`DistributedLanguage`](rlnc_core::DistributedLanguage) plus
//!   constructor/decider pair, producing one typed, cacheable artifact per
//!   stage ([`RamseyStage`], [`HardInstanceStage`], [`UnionStage`],
//!   [`GluedStage`]) that downstream callers — the sweep workloads and,
//!   through their scenarios, E6–E8 — can inspect, reuse across trial
//!   batches, and export.
//! * Every estimator routes through `rlnc-engine`: composite instances are
//!   planned once ([`UnionPlan`](rlnc_engine::UnionPlan) /
//!   [`GluedPlan`](rlnc_engine::GluedPlan), one
//!   [`BallArena`](rlnc_graph::arena::BallArena) pass over the combined
//!   CSR) and evaluated for K seeds by the plans' own batched passes
//!   ([`ConstructDecidePlan::acceptance`](rlnc_engine::ConstructDecidePlan::acceptance)
//!   over a stage's plan for Claims 3–5,
//!   [`ExecutionPlan::estimate`](rlnc_engine::ExecutionPlan::estimate)
//!   for β in [`failure_probability_with`],
//!   [`ExecutionPlan::run_many`](rlnc_engine::ExecutionPlan::run_many)
//!   for the Claim-2 scan). The per-trial streams are **bit-identical**
//!   to the legacy `rlnc_core::derand` estimators (same `(master, trial)`
//!   seed tree, same `child(0)`/`child(1)` constructor/decider split) —
//!   the engine equivalence suite proves it against
//!   `boosting::disjoint_union_acceptance` and the `GluingExperiment`
//!   estimators, which remain in `rlnc-core` as the reference
//!   implementations.
//! * The pipeline runs on any `rlnc-langs` case as is: a
//!   [`CaseId`](rlnc_langs::registry::CaseId) names the case, and
//!   its [`LanguageCase`](rlnc_langs::registry::LanguageCase) supplies the
//!   language, the constructor/decider pair, the deterministic family the
//!   Claim-2 search runs against and the [`PipelineParams`] (defined in
//!   `rlnc_core::derand`, re-exported here).
//! * The Claim-2 search ([`DerandPipeline::hard_instance_stage_cached`])
//!   probes every candidate through a caller-provided
//!   [`PlanCache`](rlnc_engine::PlanCache), so large algorithm families
//!   probe each candidate instance through one cached plan instead of
//!   re-planning per `(algorithm, candidate)` pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;

pub use pipeline::{
    failure_probability_with, ramsey_stage, DerandPipeline, GluedStage, HardInstanceStage,
    PipelineParams, RamseyStage, UnionStage,
};
