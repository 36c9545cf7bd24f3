//! # rlnc-par — parallel Monte-Carlo execution, deterministic RNG streams,
//! and statistics
//!
//! Every quantitative claim in *Randomized Local Network Computing* is a
//! probability statement: the guarantee of a decider, the success
//! probability of a Monte-Carlo constructor, the decay of the acceptance
//! probability on glued instances. The experiment harness therefore spends
//! nearly all of its time running independent Monte-Carlo trials, which is
//! embarrassingly parallel work; this crate provides:
//!
//! * [`rng`]: SplitMix64-based seed derivation and per-trial/per-node
//!   ChaCha streams, so that every experiment is reproducible bit-for-bit
//!   regardless of how trials are scheduled across threads.
//! * [`trials`]: a Rayon-backed Monte-Carlo runner that turns a
//!   `Fn(seed) -> bool` (or `-> f64`) into a Bernoulli / mean estimate with
//!   confidence intervals.
//! * [`stats`]: Wilson score intervals, summary statistics, histograms.
//! * [`sweep`]: chunked parallel parameter sweeps.
//! * [`pool`]: the persistent work-stealing pool that executes all of the
//!   above — the one fan-out rule ([`pool::fans_out`]) every runner in
//!   the workspace asks, plus introspection (size, task/steal/park
//!   counters, the `RLNC_THREADS` override).
//! * [`scale`]: the shared smoke/standard/full work-scaling knob used by
//!   the experiment drivers, the sweep engine, and the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod rng;
pub mod scale;
pub mod stats;
pub mod sweep;
pub mod trials;

pub use rng::{derive_seed, SeedSequence};
pub use scale::Scale;
pub use stats::{mean, wilson_interval, Estimate, Summary};
pub use trials::{MonteCarlo, TrialOutcome};
