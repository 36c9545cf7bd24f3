//! # rlnc-core — the LOCAL model, local decision, and derandomization
//!
//! This crate is the primary contribution of the workspace: a faithful,
//! executable rendering of the framework of *Randomized Local Network
//! Computing* (Feuilloley & Fraigniaud, SPAA 2015).
//!
//! ## Map from paper to modules
//!
//! | Paper section | Module |
//! |---|---|
//! | §2.1 LOCAL model, balls, views | [`view`], [`simulator`], [`rounds`] |
//! | §2.1.1 operational (message-passing) model | [`rounds`] (round backend), [`faults`] (fault plans) |
//! | §2.1.1 order-invariant algorithms | [`order_invariant`] |
//! | §2.1.2 randomized Monte-Carlo algorithms | [`algorithm`] (coins), [`simulator`] |
//! | §2.2 languages, construction & decision tasks | [`labels`], [`config`], [`language`], [`decision`] |
//! | §2.2.3 the promise `F_k` | [`labels::FkPromise`] |
//! | §2.3 randomized decision, BPLD | [`decision`] |
//! | §3 Theorem 1 (Claims 2–5) | [`derand`] |
//! | §4 resilient relaxations, Corollary 1 | [`relaxation`], [`resilient`] |
//! | Appendix A (Claim 1, Ramsey) | [`derand::ramsey`], [`order_invariant`] |
//!
//! Concrete languages (coloring, AMOS, MIS, ...) and concrete construction
//! algorithms (Cole–Vishkin, Luby, random coloring, ...) live in the
//! companion crate `rlnc-langs`; experiment drivers live in
//! `rlnc-experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod config;
pub mod decision;
pub mod derand;
pub mod faults;
pub mod labels;
pub mod language;
pub mod one_sided;
pub mod order_invariant;
pub mod relaxation;
pub mod resilient;
pub mod rounds;
pub mod simulator;
pub mod view;

pub use algorithm::{Coins, FnAlgorithm, FnRandomizedAlgorithm, LocalAlgorithm, RandomizedLocalAlgorithm};
pub use config::{Instance, IoConfig};
pub use decision::{
    decide, decide_randomized, FnDecider, FnRandomizedDecider, LocalDecider, RandomizedDecider,
};
pub use faults::{FaultPlan, FaultSchedule, FAULT_PLAN_KINDS};
pub use labels::{FkPromise, Label, Labeling};
pub use language::{DistributedLanguage, FnLanguage, FnLcl, LclLanguage};
pub use one_sided::OneSidedLclDecider;
pub use order_invariant::OrderInvariantTable;
pub use relaxation::{EpsilonSlack, FResilient};
pub use resilient::ResilientDecider;
pub use rounds::{
    decide_randomized_via_rounds, run_randomized_via_rounds, GatherRun, MessagePassingAlgorithm,
    NodeInit, RoundSystem,
};
pub use simulator::Simulator;
pub use view::View;

/// Commonly used items, for `use rlnc_core::prelude::*`.
pub mod prelude {
    pub use crate::algorithm::{Coins, FnAlgorithm, FnRandomizedAlgorithm, LocalAlgorithm, RandomizedLocalAlgorithm};
    pub use crate::config::{Instance, IoConfig};
    pub use crate::decision::{decide, decide_randomized, FnDecider, FnRandomizedDecider, LocalDecider, RandomizedDecider};
    pub use crate::faults::{FaultPlan, FaultSchedule};
    pub use crate::labels::{FkPromise, Label, Labeling};
    pub use crate::language::{bad_ball_count, bad_nodes, DistributedLanguage, FnLanguage, FnLcl, LclLanguage};
    pub use crate::one_sided::OneSidedLclDecider;
    pub use crate::relaxation::{EpsilonSlack, FResilient};
    pub use crate::resilient::ResilientDecider;
    pub use crate::simulator::Simulator;
    pub use crate::view::View;
}
