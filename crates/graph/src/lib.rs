//! # rlnc-graph — graph substrate for the LOCAL-model toolkit
//!
//! The networks considered in *Randomized Local Network Computing*
//! (Feuilloley & Fraigniaud, SPAA 2015) are **connected simple graphs** of
//! bounded degree, whose nodes carry **pairwise-distinct positive integer
//! identities**. This crate provides everything the rest of the workspace
//! needs to manipulate such networks:
//!
//! * [`Graph`]: an immutable, cache-friendly CSR adjacency structure.
//! * [`GraphBuilder`]: a mutable adjacency-list builder with validation.
//! * [`generators`]: the graph families used throughout the paper's proofs
//!   and examples (cycles, paths, grids, trees, bounded-degree random
//!   graphs, ...).
//! * [`ids`]: identity assignments (consecutive, random, spread) and
//!   order-type utilities — the paper's lower-bound arguments hinge on the
//!   *relative order* of identities, not their values.
//! * [`traversal`]: BFS distances, connected components, diameter.
//! * [`ball`]: extraction of the radius-`t` ball `B_G(v,t)` exactly as
//!   defined in §2.1 of the paper, plus canonical encodings of labeled
//!   balls used by the order-invariant machinery.
//! * [`arena`]: the one per-ball routine over a reusable bounded-BFS
//!   scratch, and batched extraction of *every* node's ball into flat
//!   shared arrays — the allocation-free substrate of the `rlnc-engine`
//!   execution planner and of the round backend's gathered views.
//!
//! The composites of the paper's proofs (Claim 3's disjoint union and
//! Theorem 1's gluing) are built in `rlnc-core`, by
//! `HardInstance::compose`, which places graphs, inputs and identities in
//! one pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod ball;
pub mod builder;
pub mod csr;
pub mod generators;
pub mod ids;
pub mod traversal;

pub use arena::{BallArena, BallParts, BfsScratch};
pub use ball::{Ball, BallSignature};
pub use builder::GraphBuilder;
pub use csr::{Graph, NodeId};
pub use ids::IdAssignment;
pub use traversal::{bfs_distances, connected_components, diameter, is_connected};
