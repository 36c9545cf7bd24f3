//! # rlnc — Randomized Local Network Computing
//!
//! A LOCAL-model simulation and derandomization toolkit reproducing
//! *Randomized Local Network Computing* (Feuilloley & Fraigniaud,
//! SPAA 2015). This facade crate re-exports the workspace members:
//!
//! * [`graph`] — graphs, generators, identity assignments, balls, gluing.
//! * [`par`] — parallel Monte-Carlo trials, deterministic RNG streams,
//!   statistics.
//! * [`core`] — the LOCAL model, languages, decision classes (LD/BPLD),
//!   relaxations, and the Theorem-1 derandomization machinery.
//! * [`engine`] — the batched execution engine: build an `ExecutionPlan`
//!   once per fixed instance, then let the plan run `algorithm × K seeds`
//!   against its cached views (bit-identical to the per-trial path),
//!   including composite `UnionPlan`/`GluedPlan` kernels for the
//!   derandomization argument.
//! * [`derand`] — the staged, engine-backed Theorem-1 pipeline
//!   (`DerandPipeline`): ramsey lift → hard-instance search → boosted
//!   disjoint union → connected gluing, generic over any language plus
//!   constructor/decider pair.
//! * [`langs`] — concrete languages and algorithms (coloring, Cole–Vishkin,
//!   MIS, matching, AMOS, LLL, ...).
//! * [`sweep`] — the declarative scenario-sweep engine: named grids over
//!   graph family × size × identity scheme × workload, a batched
//!   reproducible executor, and JSON/CSV/markdown result export.
//! * [`serve`] — sharded sweep execution (`ShardSpec`, `sweep --shard`)
//!   and the resident `sweep-serve` service: a line-protocol server with
//!   warm plan caches, streamed records, and a matching client.
//! * [`obs`] — zero-dependency observability: a process-global registry of
//!   atomic counters/gauges/histograms/spans, disabled by default, whose
//!   exports split into a *deterministic* section (byte-identical across
//!   thread schedules and batch sizes) and a *timing* section.
//! * [`experiments`] — the harness that regenerates the paper's
//!   quantitative claims.
//!
//! ## Quickstart
//!
//! ```
//! use rlnc::prelude::*;
//!
//! // Build an oriented ring, 3-color it with Cole–Vishkin, and verify.
//! let (graph, input, ids) = rlnc::langs::cole_vishkin::oriented_ring_instance(64);
//! let algo = rlnc::langs::cole_vishkin::ColeVishkinRingColoring::for_ring_size(64);
//! let instance = Instance::new(&graph, &input, &ids);
//! let output = Simulator::new().run(&algo, &instance);
//! let coloring = rlnc::langs::coloring::ProperColoring::new(3);
//! assert!(coloring.contains(&IoConfig::new(&graph, &input, &output)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rlnc_core as core;
pub use rlnc_derand as derand;
pub use rlnc_engine as engine;
pub use rlnc_experiments as experiments;
pub use rlnc_graph as graph;
pub use rlnc_langs as langs;
pub use rlnc_obs as obs;
pub use rlnc_par as par;
pub use rlnc_serve as serve;
pub use rlnc_sweep as sweep;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use rlnc_core::prelude::*;
    pub use rlnc_derand::{DerandPipeline, PipelineParams};
    pub use rlnc_engine::{ExecutionPlan, GluedPlan, UnionPlan};
    pub use rlnc_graph::{Graph, GraphBuilder, IdAssignment, NodeId};
    pub use rlnc_par::{MonteCarlo, Scale, SeedSequence};
    pub use rlnc_sweep::{Registry, SweepExecutor};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let graph = crate::graph::generators::cycle(5);
        assert_eq!(graph.node_count(), 5);
        let est = crate::par::MonteCarlo::new(100).estimate(|_| true);
        assert_eq!(est.successes, 100);
        assert!(crate::sweep::Registry::builtin().get("smoke").is_some());
        let input = crate::core::labels::Labeling::empty(5);
        let ids = crate::graph::IdAssignment::consecutive(&graph);
        let instance = crate::core::config::Instance::new(&graph, &input, &ids);
        let plan = crate::engine::ExecutionPlan::for_instance(&instance, 1);
        assert_eq!(plan.node_count(), 5);
        let params = crate::derand::PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 };
        assert_eq!(params.mu(), 2);
        // Observability is disabled by default; a snapshot still renders.
        assert!(!crate::obs::enabled());
        assert!(crate::obs::snapshot().to_json().contains("rlnc-trace-v1"));
    }
}
