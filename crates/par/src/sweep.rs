//! Parallel parameter sweeps.
//!
//! An experiment is usually a grid of configurations (graph size × relaxation
//! parameter × decider guarantee), each of which internally runs its own
//! Monte-Carlo estimate. [`sweep`] evaluates the grid in parallel while
//! keeping the output in input order.

use rayon::prelude::*;

/// Evaluates `f` on every configuration, in parallel, preserving order.
pub fn sweep<C, T, F>(configs: Vec<C>, f: F) -> Vec<T>
where
    C: Send + Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    configs.par_iter().map(|c| f(c)).collect()
}

/// Splits `0..n` into at most `chunks` contiguous ranges of nearly equal
/// size (used to batch per-node work in the simulator).
pub fn balanced_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let configs: Vec<u64> = (0..100).collect();
        let out = sweep(configs.clone(), |&c| c * c);
        assert_eq!(out, configs.iter().map(|c| c * c).collect::<Vec<_>>());
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
}
