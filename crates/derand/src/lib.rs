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
//! one BFS per anchor per trial, and the E6–E8 drivers were hard-wired to
//! one concrete coloring constructor.
//!
//! This crate turns the argument into a reusable subsystem:
//!
//! * [`DerandPipeline`] drives the four stages **generically** over any
//!   [`DistributedLanguage`](rlnc_core::DistributedLanguage) plus
//!   constructor/decider pair, producing one typed, cacheable artifact per
//!   stage ([`RamseyStage`], [`HardInstanceStage`], [`UnionStage`],
//!   [`GluedStage`]) that downstream callers — the sweep workloads, the
//!   E6–E8 drivers, `bench-export` — can inspect, reuse across trial
//!   batches, and export.
//! * Every estimator routes through `rlnc-engine`: composite instances are
//!   planned once ([`UnionPlan`](rlnc_engine::UnionPlan) /
//!   [`GluedPlan`](rlnc_engine::GluedPlan), one
//!   [`BallArena`](rlnc_graph::arena::BallArena) pass over the combined
//!   CSR) and evaluated for K seeds in blocked passes. The per-trial
//!   streams are **bit-identical** to the legacy
//!   `rlnc_core::derand` estimators (same `(master, trial)` seed tree, same
//!   `child(0)`/`child(1)` constructor/decider split) — the engine
//!   equivalence suite proves it against
//!   `boosting::disjoint_union_acceptance` and the `GluingExperiment`
//!   estimators, which remain in `rlnc-core` as the reference
//!   implementations.
//! * `rlnc_core::one_sided::OneSidedLclDecider` is the standard one-sided
//!   BPLD decider for **any** LCL language (accept good centers, reject
//!   bad centers with probability `p`, verdicts through the
//!   allocation-free `LclLanguage::is_bad_view` hook), and
//!   [`cases`] adapts the `rlnc-langs` **case registry**
//!   ([`rlnc_langs::registry::CaseRegistry`] — the full language catalog:
//!   coloring, `amos`, weak coloring, MIS, matching, dominating set, LLL,
//!   frugal coloring, Cole–Vishkin, majority) into pipeline bundles; the
//!   legacy [`PipelineCase`] axis of the
//!   `theorem1-pipeline` scenario is the registry's three-case prefix.
//! * The Claim-2 search accepts a shared
//!   [`PlanCache`](rlnc_engine::PlanCache)
//!   ([`DerandPipeline::hard_instance_stage_cached`]), so large algorithm
//!   families probe each candidate instance through one cached plan
//!   instead of re-planning per `(algorithm, candidate)` pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod pipeline;

pub use cases::{CaseBundle, CaseId, CaseRegistry, LanguageCase, PipelineCase};
pub use pipeline::{
    deterministic_agreement, failure_probability_with, lift_agrees_with, ramsey_stage,
    DerandPipeline, GluedStage, HardInstanceStage, PipelineParams, RamseyStage, UnionStage,
};
