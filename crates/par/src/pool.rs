//! The one way work reaches the persistent work-stealing pool.
//!
//! All parallelism in the workspace runs on the process-global pool in
//! the vendored `rayon` package (`vendor/rayon/src/pool.rs`): parked
//! workers with per-worker deques, a shared injector, and helping
//! callers. [`map_ranges`] is the only caller of that pool, and [`map`]
//! is its per-index form; every batched pass, trial loop, sweep and
//! simulator in the workspace maps `0..n` through one of the two.
//!
//! [`fans_out`] is the workspace's one fan-out rule: [`map_ranges`] asks
//! it whether a loop goes to the pool. No result can depend on the
//! answer, because every Monte-Carlo stream is a function of
//! `(seed, node)` alone and results come back in index order.
//!
//! The pool size is fixed per process: the `RLNC_THREADS` environment
//! variable if set to an integer ≥ 1, else the machine's available
//! parallelism (see [`thread_count`]). `RLNC_THREADS=1` disables the
//! pool entirely — every loop runs inline on its caller, which is the
//! sequential-equivalence configuration CI pins. The observability
//! layer reads [`stats`] once per trace export and publishes the fields
//! as the `pool.{tasks,steals,parks,workers}` timing metrics (they
//! depend on core count and scheduling luck, so they are never part of
//! the deterministic trace section).

use std::ops::Range;
use std::sync::Mutex;

pub use rayon::pool::PoolStats;

/// Work, counted in ball members, below which a loop runs inline: the
/// fan-out bookkeeping would dominate.
pub const FAN_OUT_WORK: u64 = 1 << 14;

/// Ranges per pool thread when a loop fans out: mild oversubscription,
/// so stealing can even out uneven ranges without making tasks too fine.
const RANGES_PER_THREAD: usize = 2;

/// Whether a loop carrying `work` ball members should fan out over the
/// pool: true iff `work >= FAN_OUT_WORK`, the pool has more than one
/// thread, and the caller is not already inside a pool task (nested
/// regions run inline).
pub fn fans_out(work: u64) -> bool {
    work >= FAN_OUT_WORK && thread_count() > 1 && rayon::current_thread_index().is_none()
}

/// Maps `f` over ranges that split `0..n`, returning the results in
/// range order. Iff [`fans_out`]`(work)`, `0..n` is cut into at most
/// `2 × thread_count()` [balanced](balanced_ranges) nonempty ranges (so
/// none when `n = 0`), each one pool task; otherwise the result is
/// `vec![f(0..n)]`, computed on the caller, so a pass that does not fan
/// out builds its scratch once.
///
/// A panic in `f` reaches the caller on both paths; the pool stays
/// usable.
pub fn map_ranges<T, F>(n: usize, work: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if !fans_out(work) {
        return vec![f(0..n)];
    }
    let ranges = balanced_ranges(n, RANGES_PER_THREAD * thread_count());
    let slots: Vec<Mutex<Option<T>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    rayon::pool::run_region(ranges.len(), &|i| {
        let out = f(ranges[i].clone());
        *slots[i].lock().expect("map_ranges result slot poisoned") = Some(out);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("map_ranges result slot poisoned")
                .expect("run_region runs every task")
        })
        .collect()
}

/// `f(0), f(1), …, f(n - 1)` in index order, dispatched by
/// [`map_ranges`] under the same rule.
pub fn map<T, F>(n: usize, work: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut parts = map_ranges(n, work, |range| range.map(&f).collect::<Vec<T>>());
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Splits `0..n` into at most `chunks` contiguous ranges of nearly equal
/// size, in order (none when either is zero).
pub fn balanced_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    if n == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = chunks.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
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
        let nested = map(8, u64::MAX, |_| fans_out(u64::MAX));
        assert_eq!(nested, vec![false; 8]);
    }

    #[test]
    fn stats_are_monotone_across_regions() {
        let before = stats();
        let out = map(64, u64::MAX, |x| x * 2);
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

    #[test]
    fn balanced_ranges_cover_everything() {
        let ranges = balanced_ranges(10, 3);
        assert_eq!(ranges.len(), 3);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 10);
        // Degenerate cases.
        assert!(balanced_ranges(0, 4).is_empty());
        assert!(balanced_ranges(5, 0).is_empty());
        assert_eq!(balanced_ranges(3, 10).len(), 3);
    }

    #[test]
    fn map_ranges_runs_one_range_inline_or_balanced_ranges_on_the_pool() {
        assert_eq!(map_ranges(1000, FAN_OUT_WORK - 1, |r| r), vec![0..1000]);
        let ranges = map_ranges(1000, u64::MAX, |r| r);
        if thread_count() > 1 {
            assert_eq!(ranges, balanced_ranges(1000, 2 * thread_count()));
        } else {
            assert_eq!(ranges, vec![0..1000]);
        }
    }

    #[test]
    fn worker_threads_know_their_index() {
        assert_eq!(rayon::current_thread_index(), None);
        let indices = map(4 * thread_count(), u64::MAX, |_| {
            rayon::current_thread_index()
        });
        if thread_count() > 1 {
            // Pool workers and the helping caller all carry an index.
            assert!(indices
                .iter()
                .all(|i| i.is_some_and(|i| i < thread_count())));
        } else {
            assert!(indices.iter().all(Option::is_none));
        }
        // Back on the caller thread, the marker must be gone.
        assert_eq!(rayon::current_thread_index(), None);
    }

    #[test]
    fn a_panicking_task_re_panics_on_the_caller_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            map_ranges(64, u64::MAX, |range| {
                assert!(!range.contains(&17), "the range holding 17 panics");
                range.len()
            })
        });
        let payload = caught.expect_err("the task's panic reaches the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("the range holding 17 panics"));
        assert_eq!(rayon::current_thread_index(), None);
        let lens = map_ranges(64, u64::MAX, |range| range.len());
        assert_eq!(lens.iter().sum::<usize>(), 64);
    }
}
