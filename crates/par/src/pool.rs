//! Introspection over the persistent work-stealing pool.
//!
//! All parallelism in the workspace is executed by the process-global
//! pool inside the vendored `rayon` stub: parked workers with
//! per-worker deques, a shared injector, and helping callers. This
//! module is the workspace-facing chokepoint for its counters — the
//! observability layer reads [`stats`] once per trace export and
//! publishes the fields as the `pool.{tasks,steals,parks,workers}`
//! timing metrics (they depend on core count and scheduling luck, so
//! they are never part of the deterministic trace section).
//!
//! The pool size is fixed per process: the `RLNC_THREADS` environment
//! variable if set to an integer ≥ 1, else the machine's available
//! parallelism (see [`thread_count`]). `RLNC_THREADS=1` disables the
//! pool entirely — every region runs inline on its caller, which is
//! the sequential-equivalence configuration CI pins.
//!
//! [`fans_out`] is the workspace's one fan-out rule: every runner,
//! simulator and executor asks it whether a loop goes to the pool. No
//! result can depend on the answer, because every Monte-Carlo stream is
//! a function of `(seed, node)` alone.

pub use rayon::pool::PoolStats;

/// Work, counted in ball members, below which a loop runs inline: the
/// fan-out bookkeeping would dominate.
pub const FAN_OUT_WORK: u64 = 1 << 14;

/// Whether a loop carrying `work` ball members should fan out over the
/// pool: true iff `work >= FAN_OUT_WORK`, the pool has more than one
/// thread, and the caller is not already inside a pool task (nested
/// regions run inline).
pub fn fans_out(work: u64) -> bool {
    work >= FAN_OUT_WORK && thread_count() > 1 && rayon::current_thread_index().is_none()
}

/// Snapshot of the pool's lifetime counters: workers spawned, tasks
/// dispatched, steals, and parks. All zeros until the first parallel
/// region initializes the pool (or forever, with `RLNC_THREADS=1`).
pub fn stats() -> PoolStats {
    rayon::pool::stats()
}

/// The effective parallelism: `RLNC_THREADS` if set to an integer ≥ 1,
/// else available parallelism. Read once per process.
pub fn thread_count() -> usize {
    rayon::pool::thread_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_positive_and_stable() {
        let first = thread_count();
        assert!(first >= 1);
        assert_eq!(thread_count(), first);
    }

    #[test]
    fn fans_out_needs_the_threshold_several_threads_and_the_top_level() {
        assert!(!fans_out(FAN_OUT_WORK - 1));
        assert_eq!(fans_out(u64::MAX), thread_count() > 1);
        let nested = crate::sweep::sweep((0..8u64).collect(), |_| fans_out(u64::MAX));
        assert_eq!(nested, vec![false; 8]);
    }

    #[test]
    fn stats_are_monotone_across_regions() {
        let before = stats();
        let out = crate::sweep::sweep((0..64u64).collect(), |&x| x * 2);
        assert_eq!(out[63], 126);
        let after = stats();
        assert!(after.tasks >= before.tasks);
        assert!(after.workers >= before.workers);
        if thread_count() > 1 {
            // The pool is resident after the first region.
            assert_eq!(after.workers, thread_count() as u64 - 1);
        } else {
            assert_eq!(after, PoolStats::default());
        }
    }
}
