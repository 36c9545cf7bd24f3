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
//! * [`trials`]: a Monte-Carlo runner that turns a `Fn(seed) -> bool`
//!   (or `-> f64`) into a Bernoulli / mean estimate with confidence
//!   intervals.
//! * [`stats`]: Wilson score intervals, summary statistics, histograms.
//! * [`pool`]: the one way work reaches the persistent work-stealing pool
//!   ([`pool::map_ranges`] and its per-index form [`pool::map`]), the one
//!   fan-out rule they ask ([`pool::fans_out`]), and introspection (size,
//!   task/steal/park counters, the `RLNC_THREADS` override).
//! * [`scale`]: the shared smoke/standard/full work-scaling knob used by
//!   the experiment drivers, the sweep engine, and the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod rng;
pub mod scale;
pub mod stats;
pub mod trials;

pub use rng::{derive_seed, SeedSequence};
pub use scale::Scale;
pub use stats::{mean, wilson_interval, Estimate, Summary};
pub use trials::{MonteCarlo, TrialOutcome};

/// The crate's determinism contract, end to end: whichever path
/// [`pool::map`] takes, it returns what a sequential loop returns. Work
/// `0` always runs inline; `u64::MAX` fans out whenever the pool has
/// more than one thread.
#[cfg(test)]
mod tests {
    use crate::pool::{self, map, map_ranges};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let expected: Vec<usize> = (0..10_000).map(|i| i * 2).collect();
        assert_eq!(map(10_000, 0, |i| i * 2), expected);
        assert_eq!(map(10_000, u64::MAX, |i| i * 2), expected);
    }

    #[test]
    fn map_sum_matches_sequential() {
        // A float sum is order-sensitive: equal bits mean equal order.
        let term = |i: usize| 1.0 / (i as f64 + 1.0).powi(3);
        let sequential: f64 = (0..5_000).map(term).sum();
        let pooled: f64 = map(5_000, u64::MAX, term).into_iter().sum();
        assert_eq!(pooled.to_bits(), sequential.to_bits());
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let hits: Vec<AtomicU64> = (0..5_000).map(|_| AtomicU64::new(0)).collect();
        map_ranges(5_000, u64::MAX, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_regions_run_inline() {
        let nested: Vec<(bool, Vec<usize>)> = map(8, u64::MAX, |outer| {
            (pool::fans_out(u64::MAX), map(100, u64::MAX, |i| outer * i))
        });
        for (outer, (fans_out, inner)) in nested.iter().enumerate() {
            assert!(!fans_out, "a pool task never fans out again");
            assert_eq!(inner.len(), 100);
            assert_eq!(inner[99], outer * 99);
        }
    }

    #[test]
    fn pool_workers_are_spawned_once_and_counted() {
        let _ = map(10_000, u64::MAX, |i| i);
        let after_first = pool::stats().workers;
        let _ = map(10_000, u64::MAX, |i| i);
        // A persistent pool never re-spawns: the count is the number of
        // resident workers, not a per-region tally.
        assert_eq!(pool::stats().workers, after_first);
        if pool::thread_count() > 1 {
            assert_eq!(after_first, pool::thread_count() as u64 - 1);
            assert!(pool::stats().tasks > 0);
        } else {
            assert_eq!(after_first, 0);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        for work in [0, u64::MAX] {
            assert!(map(0, work, |i| i).is_empty());
            assert_eq!(map(1, work, |i| i + 7), vec![7]);
            assert_eq!(map_ranges(1, work, |r| r), vec![0..1]);
        }
        // Inline, an empty loop is still one (empty) range.
        assert_eq!(map_ranges(0, 0, |r| r), vec![0..0]);
    }
}
