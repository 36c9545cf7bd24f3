//! The derandomization machinery of Theorem 1 and Appendix A.
//!
//! The proof of Theorem 1 has four moving parts, each with its own module:
//!
//! * [`hard_instances`] — Claim 2: for every (order-invariant) algorithm
//!   that is not correct, find instances on which it fails, with
//!   constraints on the diameter and on the minimum identity so the
//!   instances can later be combined.
//! * [`boosting`] — Claim 3: running the construction algorithm on the
//!   disjoint union of `ν` hard instances drives the probability that the
//!   decider accepts below any threshold, with `ν` given by Eq. (3).
//! * [`gluing`] — Claims 4–5 and the final construction: anchor sets of
//!   `µ = ⌈1/(2p−1)⌉` far-apart nodes, the "accepts far from `u`" events,
//!   and the connected gluing with its `ν′` bound.
//! * [`ramsey`] — Appendix A / Claim 1: turning an arbitrary algorithm into
//!   an order-invariant one by restricting identities to a Ramsey-style
//!   consistent ID set.
//!
//! The Monte-Carlo estimators in these modules are the **reference
//! implementations**: simple per-trial loops that re-collect every view
//! (and, for the gluing's far-from-anchor events, re-run one BFS per
//! anchor) on every trial. The production path lives in the `rlnc-derand`
//! crate, whose staged pipeline routes the same computations through
//! `rlnc-engine` composite plans — bit-identical streams (the engine's
//! equivalence suite proves it against the functions here) without the
//! per-trial view collection.
//!
//! [`PipelineParams`] holds the argument's four knobs. It lives here, below
//! both the language registry of `rlnc-langs` (every case carries one) and
//! the `rlnc-derand` pipeline (which runs on one).

pub mod boosting;
pub mod gluing;
pub mod hard_instances;
pub mod ramsey;

pub use boosting::{boosting_repetitions, disjoint_union_acceptance};
pub use gluing::{anchor_count, gluing_repetitions, separation_distance, GluingExperiment};
pub use hard_instances::{HardInstance, HardInstanceSearch};
pub use ramsey::{consistent_id_set, OrderInvariantLift};

/// The quantitative knobs of the Theorem-1 argument.
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// The success probability `r` the hypothetical constructor claims.
    pub r: f64,
    /// The decider's guarantee `p > 1/2`.
    pub p: f64,
    /// The constructor's radius `t` (enters the anchor separation).
    pub t: u32,
    /// The decider's radius `t'`.
    pub t_prime: u32,
}

impl PipelineParams {
    /// The exclusion radius `t + t'` of the far-from-anchor events.
    pub fn exclusion_radius(&self) -> u32 {
        self.t + self.t_prime
    }

    /// `µ = ⌈1/(2p−1)⌉`, the Claim-4 anchor count.
    pub fn mu(&self) -> usize {
        anchor_count(self.p)
    }
}
