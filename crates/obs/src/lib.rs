//! # rlnc-obs — the deterministic observability spine
//!
//! A zero-dependency, thread-safe metrics/tracing registry: atomic
//! counters, max-watermark gauges, fixed-bucket histograms, and
//! lightweight wall-clock spans, shared by every layer of the workspace
//! (arena → plan → runner → rounds → sweep → CLI).
//!
//! ## The determinism contract
//!
//! The rest of the repo lives by bit-reproducibility — the same seed tree
//! yields byte-identical exports across thread schedules and batch sizes —
//! and the observability layer inherits that contract. Every metric is
//! registered under one of two sections:
//!
//! * [`Section::Deterministic`] — counts, bytes, cardinalities. These are
//!   functions of *what work was done*, never of *how it was scheduled*:
//!   trials executed, balls extracted, messages delivered, faults
//!   materialized. The aggregated deterministic section is byte-identical
//!   across thread schedules and thread counts (pinned by
//!   `trace_determinism` in `rlnc-sweep`).
//! * [`Section::Timing`] — wall-clock spans and anything
//!   schedule-dependent: pass counts, parallel-vs-sequential dispatch
//!   decisions (a function of core count and nesting), the work-stealing
//!   pool's task/steal/park/worker counts. Excluded from all determinism
//!   checks.
//!
//! ## Cost model
//!
//! Collection is **off by default**. Every sink first performs one relaxed
//! atomic load ([`enabled`]) and branches away — a disabled counter in a
//! hot loop costs a couple of instructions and never allocates, which is
//! asserted under the counting allocator (the `alloc_counter` module,
//! promoted here from `rlnc-experiments`, behind the `count-alloc`
//! feature). When enabled, each site resolves its registry cell once
//! through a [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] static and
//! the hot path is a single `fetch_add` on a leaked atomic — still
//! allocation-free after first touch.
//!
//! ## Export
//!
//! [`snapshot`] walks the registry into a [`TraceDocument`] — two sorted
//! name→value maps ([`MetricsSnapshot`]) — whose [`TraceDocument::to_json`]
//! emission is exact and deterministic (sorted keys, integer-only values).
//! Shard-local snapshots merge commutatively and associatively
//! ([`MetricsSnapshot::merge`]): counters add, gauges take the max,
//! histograms add bucket-wise, spans combine count/total/min/max — so
//! merging registries in any order yields the same deterministic section
//! (property-tested in `rlnc-experiments`).

// The counting allocator needs one `unsafe impl GlobalAlloc`; everything
// else stays forbidden-unsafe, and without the feature the whole crate is.
#![cfg_attr(not(feature = "count-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-alloc", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "count-alloc")]
pub mod alloc_counter;
mod registry;
mod snapshot;

pub use registry::{
    counter, enabled, gauge, histogram, record_span, reset, set_enabled, snapshot, Counter, Gauge,
    Histogram, LazyCounter, LazyGauge, LazyHistogram, LazySpan, Section, SpanGuard, POW2_BUCKETS,
};
pub use snapshot::{escape_json, MetricValue, MetricsSnapshot, TraceDocument};
