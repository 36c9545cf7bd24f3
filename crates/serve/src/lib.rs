//! # rlnc-serve — sharded sweep execution and a resident sweep service
//!
//! The sweep executor's `(scenario, point, trial)` seed tree makes every
//! grid point an independent, bit-reproducible unit of work, so a
//! scenario partitions trivially. This crate turns that property into two
//! layers of infrastructure:
//!
//! * [`shard`] — [`ShardSpec`]: a deterministic round-robin partition of a
//!   scenario's grid points. `sweep --shard i/N` runs one shard per
//!   process; `sweep-merge` reassembles the N exports into a document
//!   byte-identical to the single-process run (`emit::merge_runs`).
//! * [`protocol`] — the line-delimited JSON wire protocol of the resident
//!   service: [`Request`]s (`list-scenarios`, `run`, `status`,
//!   `shutdown`) and streamed [`Response`] lines, built on the exact JSON
//!   layer in `rlnc-sweep::emit` so streamed records reassemble into
//!   byte-identical exports.
//! * [`server`] — [`SweepServer`]: listens on a Unix socket or TCP
//!   address ([`Endpoint`]), serves concurrent clients on scoped threads,
//!   streams `RunRecord` lines back as grid points complete, and keeps
//!   the process-global `rlnc-engine` plan cache warm across requests
//!   (per-request hit deltas are reported on every `run-end` line).
//! * [`client`] — [`Connection`]: a client for that protocol, used by the
//!   `serve-client` CLI subcommand, the tests, and CI.
//!
//! Everything here is plain `std` — no new dependencies; the workspace
//! builds hermetically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::{connect, connect_with_retry, Connection, RunOutcome};
pub use protocol::{Request, Response, StatusReport};
pub use server::{BoundServer, Endpoint, SweepServer, MAX_REQUEST_LINE};
pub use shard::ShardSpec;
