//! # rlnc-sweep — the declarative scenario-sweep engine
//!
//! The paper's claims (Theorem 1, Corollary 1) are statements over
//! *families* of instances — graph family × identity scheme × algorithm ×
//! language/relaxation — and the experiment drivers in `rlnc-experiments`
//! all need the same machinery to quantify over such families: build a grid
//! of configurations, run a batch of Monte-Carlo trials at every grid
//! point, and collect the estimates. This crate turns that pattern into a
//! first-class subsystem:
//!
//! * [`spec`] — [`ScenarioSpec`]: a named grid over graph [`Family`],
//!   size range, [`IdScheme`], workload parameters, and a trial budget.
//! * [`workload`] — the [`Workload`] kernels a grid point can run
//!   (ε-slack random coloring, the Corollary-1 resilient-decider boundary,
//!   Claim-3 disjoint-union boosting).
//! * [`registry`] — a [`Registry`] of named, ready-to-run scenarios
//!   assembled from `rlnc-langs` and `rlnc-graph` building blocks; the
//!   `rlnc-experiments sweep` subcommand looks scenarios up here.
//! * [`executor`] — [`SweepExecutor`]: a batched parallel executor that
//!   derives every trial's [`rlnc_par::SeedSequence`] from
//!   `(scenario, grid point, trial)`, so runs are bit-reproducible
//!   regardless of thread scheduling, and resumable from
//!   previously exported records.
//! * [`record`] — structured [`RunRecord`] results ([`SweepRun`] bundles
//!   them with the scenario metadata and renders them as markdown).
//! * [`emit`] — deterministic JSON / CSV emitters plus a JSON
//!   parser, so exported runs round-trip exactly (the CI smoke check and
//!   the executor's resume path both rely on this).
//!
//! ## Example
//!
//! ```
//! use rlnc_par::Scale;
//! use rlnc_sweep::{Registry, SweepExecutor};
//!
//! let registry = Registry::builtin();
//! let spec = registry.get("smoke").expect("built-in scenario");
//! let run = SweepExecutor::new(Scale::Smoke).with_seed(7).run(spec);
//! assert_eq!(run.records.len(), spec.grid(Scale::Smoke).len());
//! // Export and re-import without losing a bit.
//! let json = rlnc_sweep::emit::to_json(&run);
//! assert_eq!(rlnc_sweep::emit::from_json(&json).unwrap(), run);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod executor;
pub mod record;
pub mod registry;
pub mod spec;
pub mod workload;

pub use executor::{SweepExecutor, DEFAULT_SWEEP_SEED};
pub use record::{RunRecord, SweepRun};
pub use registry::Registry;
pub use spec::{GridPoint, IdScheme, Params, ScenarioSpec};
pub use workload::{decode_fault_params, Decay, Workload};

// Re-exported so scenario authors don't need a direct rlnc-graph dep.
pub use rlnc_graph::generators::Family;
