//! A counting global allocator (behind the `count-alloc` feature), so
//! *any* crate's tests can assert allocation-freedom: with the feature
//! enabled, every allocation through the global allocator bumps one
//! relaxed atomic counter. The engine's equivalence suite asserts that
//! bad-ball verdicts, on decision views and on host configurations, and
//! instrumented engine kernels perform *zero* heap allocations; this
//! module's tests assert the same of the obs sinks.
//!
//! The counter uses `Ordering::Relaxed`: it is a statistic, not
//! synchronization, and the measured loops are single-threaded.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator: delegates to [`System`], counting on the way.
pub struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // A grow or shrink counts as one allocation event.
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        new_ptr
    }
}

/// Total number of allocation events since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_counted() {
        let before = allocations();
        // black_box keeps release-mode LLVM from eliding the unused heap
        // allocation entirely (malloc elision is legal for dead allocs).
        let v: Vec<u64> = std::hint::black_box((0..1024).collect());
        assert!(allocations() > before, "a fresh Vec must be counted");
        drop(std::hint::black_box(v));
    }

    #[test]
    fn disabled_obs_sinks_do_not_allocate() {
        use crate::{LazyCounter, LazyHistogram, Section, POW2_BUCKETS};

        static C: LazyCounter = LazyCounter::new("test.alloc.counter", Section::Deterministic);
        static H: LazyHistogram =
            LazyHistogram::new("test.alloc.hist", Section::Deterministic, &POW2_BUCKETS);

        assert!(!crate::enabled(), "count-alloc tests assume obs is off");
        let before = allocations();
        for i in 0..10_000u64 {
            C.add(i);
            H.observe(i);
        }
        assert_eq!(
            allocations() - before,
            0,
            "disabled sinks must be allocation-free"
        );
    }

    #[test]
    fn enabled_obs_sinks_do_not_allocate_after_interning() {
        use crate::{LazyCounter, LazyHistogram, Section, POW2_BUCKETS};

        static C: LazyCounter = LazyCounter::new("test.alloc.hot_counter", Section::Deterministic);
        static H: LazyHistogram =
            LazyHistogram::new("test.alloc.hot_hist", Section::Deterministic, &POW2_BUCKETS);

        // Interning allocates once (the leaked cell); the steady state
        // must not. Resolve the handles directly so the test holds whether
        // or not collection is globally enabled.
        let c = C.handle();
        let h = H.handle();
        c.add(1);
        h.observe(1);
        let before = allocations();
        for i in 0..10_000u64 {
            c.add(i);
            h.observe(i);
        }
        assert_eq!(
            allocations() - before,
            0,
            "resolved hot-path sinks must be allocation-free"
        );
    }
}
