//! # rlnc-langs — concrete distributed languages, constructors, and deciders
//!
//! The paper motivates its theory with a zoo of classical LOCAL-model
//! tasks: proper and `(Δ+1)`-coloring, 3-coloring of rings, weak coloring,
//! maximal independent set, maximal matching, minimal dominating set,
//! `amos` ("at most one selected"), `majority`, frugal coloring, and the
//! constructive Lovász Local Lemma. This crate implements each of them as a
//! [`rlnc_core::LclLanguage`] or [`rlnc_core::DistributedLanguage`],
//! together with the construction algorithms and local deciders the
//! experiments need:
//!
//! * [`coloring`] — proper `c`-coloring, greedy and rank-based colorers,
//!   the one-round decider.
//! * [`cole_vishkin`] — the Cole–Vishkin / Linial `O(log* n)` 3-coloring of
//!   oriented rings.
//! * [`random_coloring`] — the zero-round uniformly random coloring
//!   (the ε-slack constructor of §1.1).
//! * [`weak_coloring`] — weak 2-coloring and simple constructors.
//! * [`mis`] — maximal independent set and Luby's algorithm.
//! * [`matching`] — maximal matching.
//! * [`dominating`] — (minimal) dominating sets.
//! * [`amos`] — the `amos` language and its golden-ratio randomized decider.
//! * [`majority`] — the `majority` language (constructible, not locally
//!   decidable).
//! * [`lll`] — a neighborhood-monochromaticity LLL instance with a
//!   resampling constructor.
//! * [`frugal`] — frugal coloring (§4's example of a language where local
//!   fixing is non-trivial).
//! * [`faulty`] — a fault-injection wrapper used to realize constructors
//!   with a prescribed failure probability β for the derandomization
//!   experiments.
//! * [`registry`] — the language-case registry: every language above as an
//!   enumerable `(language, constructor, decider)` bundle ([`CaseId`] →
//!   [`LanguageCase`]), the sweep engine's `language-matrix` axis and the
//!   derandomization pipeline's case source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amos;
pub mod coloring;
pub mod cole_vishkin;
pub mod dominating;
pub mod faulty;
pub mod frugal;
pub mod lll;
pub mod majority;
pub mod matching;
pub mod mis;
pub mod random_coloring;
pub mod registry;
pub mod weak_coloring;

pub use amos::{Amos, AmosGoldenDecider, BernoulliSelection, GOLDEN_GUARANTEE};
pub use coloring::{ColoringDecider, GlobalGreedyColoring, ProperColoring, RankColoring};
pub use cole_vishkin::{oriented_ring_instance, ColeVishkinRingColoring};
pub use dominating::{DominatingSet, MinIdPointerDominatingSet, MinimalDominatingSet};
pub use faulty::FaultyConstructor;
pub use frugal::FrugalColoring;
pub use lll::{NeighborhoodLll, ResamplingLll};
pub use majority::{AllSelected, Majority, OneSidedLocalMajorityDecider};
pub use matching::{MaximalMatching, ProposalMatching, RandomizedMatching};
pub use mis::{LocalMinimumMis, LubyMis, MaximalIndependentSet};
pub use random_coloring::RandomColoring;
pub use registry::{CaseId, InputKind, LanguageCase};
pub use weak_coloring::{LocalMinimumMarking, WeakColoring};
