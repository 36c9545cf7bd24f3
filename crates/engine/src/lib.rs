//! # rlnc-engine — the batched LOCAL execution engine
//!
//! Every quantitative claim in the reproduced paper is estimated by
//! Monte-Carlo loops of the shape *"fix an instance, run an algorithm with
//! K independent coin seeds, aggregate"*. The legacy path re-derives each
//! node's radius-`t` ball on **every** trial, even though the topology,
//! identities, and ball membership never change across the trials of a
//! grid point. This crate separates **planning** from **execution**:
//!
//! * [`ExecutionPlan`] is built **once** per `(graph, ids, radius)` (plus
//!   the fixed inputs, and optionally fixed outputs for decision plans).
//!   It extracts every node's ball through a single
//!   [`BallArena`](rlnc_graph::arena::BallArena) — flat member/distance/
//!   offset arrays filled by one shared bounded-BFS scratch, no per-node
//!   hash maps — and caches the per-ball layout as ready-to-evaluate
//!   [`View`](rlnc_core::View)s.
//! * The plan then runs its own batched passes against the cached views:
//!   [`ExecutionPlan::estimate`] (K seeds, one reused output buffer per
//!   range of trials), [`ExecutionPlan::run_many`] (K deterministic
//!   algorithms in one view walk) and [`ExecutionPlan::acceptance_many`]
//!   (K deciders per trial). Every pass goes through
//!   [`map_ranges`](rlnc_par::pool::map_ranges): it is split into ranges
//!   on the pool iff the workspace's one rule,
//!   [`fans_out`](rlnc_par::pool::fans_out), says so for its total work
//!   (plan size × trials × algorithms), so it never fans out inside an
//!   already-parallel region.
//! * [`DecisionScratch`] covers the remaining shape — deciders whose
//!   *outputs* change per trial (e.g. "construct, then decide") — by
//!   refreshing only the output labels of cloned cached views.
//! * [`ConstructDecidePlan`], [`UnionPlan`], and [`GluedPlan`]
//!   (mod [`composite`]) package the derandomization pipeline's hot shape —
//!   construct on a disjoint union or gluing of hard instances, then decide
//!   — into plans built once per composite instance, including the
//!   precomputed "far from every anchor" participation set of Claims 4–5;
//!   [`ConstructDecidePlan::acceptance`] is their one batched pass.
//! * [`PlanCache`] (mod [`cache`]) memoizes plans by a content fingerprint
//!   of `(graph, ids, inputs, radius)`, so searches that evaluate many
//!   algorithms against the same candidate instances (the Claim-2
//!   hard-instance search) plan each candidate once instead of once per
//!   `(algorithm, candidate)` pair.
//! * [`RoundPlan`] (mod [`round`]) is the same planning step over the
//!   **round backend** — explicit message passing instead of ball
//!   extraction — with seeded fault injection
//!   ([`FaultPlan`](rlnc_core::FaultPlan)) the ball path cannot express.
//!   Fault-free round executions are proven bit-identical to the engine
//!   path by `tests/round_equivalence.rs`.
//!
//! ## Determinism
//!
//! Results are **bit-identical** to the legacy
//! [`Simulator`](rlnc_core::Simulator) path. Coins are derived from
//! `(execution seed, node)` exactly as before
//! ([`Coins`](rlnc_core::Coins) hands node `v` the stream
//! `seed.child(v)` no matter who asks), cached views are bit-identical to
//! freshly collected ones ([`View::collect_all`](rlnc_core::View::collect_all)
//! is tested against [`View::collect`](rlnc_core::View::collect) per
//! node), and trial seeds follow the same `(master, trial)` derivation as
//! [`MonteCarlo`](rlnc_par::MonteCarlo). The proptest suite in
//! `tests/equivalence.rs` pins all of this down across random graph
//! families, radii, seeds, and both deterministic and randomized
//! algorithms.
//!
//! ## Example
//!
//! ```
//! use rand::Rng;
//! use rlnc_core::prelude::*;
//! use rlnc_engine::ExecutionPlan;
//! use rlnc_graph::{generators::cycle, IdAssignment};
//!
//! let graph = cycle(64);
//! let input = Labeling::empty(64);
//! let ids = IdAssignment::consecutive(&graph);
//! let instance = Instance::new(&graph, &input, &ids);
//!
//! // Plan once...
//! let algo = FnRandomizedAlgorithm::new(0, "coin", |v: &View, c: &Coins| {
//!     Label::from_bool(c.for_center(v).random_bool(0.5))
//! });
//! let plan = ExecutionPlan::for_instance(&instance, 0);
//!
//! // ...execute many times against the cached views.
//! let est = plan.estimate(&algo, 500, 7, |out| {
//!     out.get(rlnc_graph::NodeId(0)).as_bool()
//! });
//! assert!(est.p_hat > 0.3 && est.p_hat < 0.7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod composite;
pub mod plan;
pub mod round;
mod runner;

pub use cache::{
    set_shared_plan_cache, shared_plan_cache_clear, shared_plan_cache_enabled,
    shared_plan_cache_stats, shared_plan_for_instance, shared_plan_for_io, PlanCache,
    SharedCacheStats,
};
pub use composite::{ConstructDecidePlan, GluedPlan, UnionPlan};
pub use plan::{DecisionScratch, ExecutionPlan};
pub use round::RoundPlan;
