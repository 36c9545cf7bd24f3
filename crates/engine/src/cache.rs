//! A shared plan cache keyed by instance content.
//!
//! The Claim-2 hard-instance search evaluates *many* deterministic
//! algorithms against *the same* candidate instances: for every
//! `(algorithm, candidate)` pair it needs the candidate's views at the
//! algorithm's radius. Without a cache that is one fresh
//! [`ExecutionPlan`] (one full ball-arena pass) per pair — wasteful
//! exactly in the regime the paper cares about, where the algorithm family
//! is large (`N = |order-invariant algorithms|`) and most algorithms scan
//! the whole candidate list without finding a failure (a missing algorithm
//! does not advance the identity floor, so the next algorithm re-plans the
//! very same shifted candidates).
//!
//! [`PlanCache`] memoizes plans by a content fingerprint of
//! `(graph, identities, inputs, radius)`. The key the issue tracker names
//! is `(graph, ids, radius)`; inputs are folded in as well because a
//! plan's cached views carry input labels, so two instances that differ
//! only in inputs must not share a plan. Hits return the cached plan
//! unchanged — results are bit-identical to planning from scratch (plans
//! are pure functions of the fingerprinted content).

use crate::plan::ExecutionPlan;
use rlnc_core::config::{Instance, IoConfig};
use rlnc_graph::IdAssignment;
use rlnc_obs::{LazyCounter, Section};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

// Hit/miss totals are order-invariant for a fixed multiset of lookups
// (misses = distinct fingerprints), so they qualify for the deterministic
// trace section.
static OBS_HITS: LazyCounter = LazyCounter::new("engine.plan_cache.hits", Section::Deterministic);
static OBS_MISSES: LazyCounter =
    LazyCounter::new("engine.plan_cache.misses", Section::Deterministic);

/// Memoizes [`ExecutionPlan`]s by instance-content fingerprint.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: HashMap<u64, ExecutionPlan>,
    hits: u64,
    misses: u64,
}

/// SplitMix64 finalizer — a strong 64-bit mixer for the fingerprint.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Content fingerprint of `(graph, ids, inputs, radius)`: a mixed running
/// hash over the node count, every edge, every identity, every input
/// label's bytes, and the radius. 64 bits of well-mixed state make
/// accidental collisions vanishingly unlikely for the instance counts a
/// search touches (and a collision could only ever occur between
/// *different* candidates deliberately fed to the same cache).
fn fingerprint(instance: &Instance<'_>, radius: u32) -> u64 {
    let mut h = mix(0x9e37_79b9_7f4a_7c15 ^ instance.graph.node_count() as u64);
    for (u, v) in instance.graph.edges() {
        h = mix(h ^ (u64::from(u.0) << 32 | u64::from(v.0)));
    }
    for v in instance.graph.nodes() {
        h = mix(h ^ instance.ids.id(v));
        for &b in instance.input.get(v).as_bytes() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ 0xA5);
    }
    mix(h ^ u64::from(radius))
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan of `instance` at `radius`: cached when this exact content
    /// was planned before, freshly built (and retained) otherwise.
    pub fn plan_for(&mut self, instance: &Instance<'_>, radius: u32) -> &ExecutionPlan {
        self.lookup(fingerprint(instance, radius), || {
            ExecutionPlan::for_instance(instance, radius)
        })
    }

    /// The hit/miss/insert body of every lookup, local or shared: the plan
    /// under `key`, built with `build` and retained on a miss.
    fn lookup(&mut self, key: u64, build: impl FnOnce() -> ExecutionPlan) -> &ExecutionPlan {
        match self.plans.entry(key) {
            Entry::Occupied(entry) => {
                self.hits += 1;
                OBS_HITS.inc();
                entry.into_mut()
            }
            Entry::Vacant(entry) => {
                self.misses += 1;
                OBS_MISSES.inc();
                entry.insert(build())
            }
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses (= plans built) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

// ---------------------------------------------------------------------------
// Process-global shared plan cache (opt-in)
// ---------------------------------------------------------------------------

/// Distinguishes construction plans from decision plans in the shared
/// fingerprint space: a `for_io` plan carries output labels its
/// `for_instance` twin does not, so identical graph/ids/inputs content must
/// not collide across the two constructors.
const IO_PLAN_TAG: u64 = 0x10C0_F160_0D1E_A5ED;

/// Generation cap of the shared cache: once this many distinct plans are
/// held the whole map is dropped and refilled, bounding resident memory of
/// a long-lived `sweep-serve` process without LRU bookkeeping. Repeat
/// requests touch far fewer distinct plans than this, so in practice the
/// cache never cycles mid-workload.
const SHARED_PLAN_CAP: usize = 1024;

static SHARED_ENABLED: AtomicBool = AtomicBool::new(false);

fn shared_cache() -> &'static Mutex<PlanCache> {
    static SHARED: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    SHARED.get_or_init(|| Mutex::new(PlanCache::new()))
}

/// Cumulative hit/miss/occupancy counters of the process-global shared
/// plan cache (see [`set_shared_plan_cache`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that built (and retained) a fresh plan.
    pub misses: u64,
    /// Distinct plans currently resident.
    pub plans: u64,
}

/// Enables (or disables) the process-global shared plan cache consulted by
/// [`shared_plan_for_instance`] / [`shared_plan_for_io`].
///
/// Disabled by default: every lookup then builds a fresh plan, which keeps
/// one-shot runs byte-identical in behavior *and* observability (no
/// `engine.plan_cache.*` counter traffic) to the pre-cache code. A
/// resident `sweep-serve` process enables it once at startup so repeat
/// requests for the same scenario reuse plans across requests. Disabling
/// clears the cache.
pub fn set_shared_plan_cache(enabled: bool) {
    SHARED_ENABLED.store(enabled, Ordering::Release);
    if !enabled {
        shared_plan_cache_clear();
    }
}

/// Whether the process-global shared plan cache is currently enabled.
pub fn shared_plan_cache_enabled() -> bool {
    SHARED_ENABLED.load(Ordering::Acquire)
}

/// Drops every resident plan and keeps the cumulative hit/miss counters.
pub fn shared_plan_cache_clear() {
    let mut cache = shared_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    cache.plans.clear();
}

/// Snapshot of the shared cache's hit/miss/occupancy counters. Counters
/// accumulate across enable/disable cycles; `sweep-serve` reports the
/// per-request deltas.
pub fn shared_plan_cache_stats() -> SharedCacheStats {
    let cache = shared_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    SharedCacheStats {
        hits: cache.hits,
        misses: cache.misses,
        plans: cache.plans.len() as u64,
    }
}

/// Shared-cache lookup: [`PlanCache`]'s own lookup under the lock, after
/// dropping every resident plan if a miss would grow the cache past its
/// cap. Returns a clone of the plan, which shares its views.
fn shared_lookup(key: u64, build: impl FnOnce() -> ExecutionPlan) -> ExecutionPlan {
    let mut cache = shared_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if cache.plans.len() >= SHARED_PLAN_CAP && !cache.plans.contains_key(&key) {
        cache.plans.clear();
    }
    cache.lookup(key, build).clone()
}

/// The plan of `instance` at `radius`, via the process-global shared cache
/// when [enabled](set_shared_plan_cache) (freshly built otherwise — exactly
/// [`ExecutionPlan::for_instance`]). Cached plans are pure functions of
/// the fingerprinted content, so results are bit-identical either way.
pub fn shared_plan_for_instance(instance: &Instance<'_>, radius: u32) -> ExecutionPlan {
    if !shared_plan_cache_enabled() {
        return ExecutionPlan::for_instance(instance, radius);
    }
    let key = fingerprint(instance, radius);
    shared_lookup(key, || ExecutionPlan::for_instance(instance, radius))
}

/// The decision plan of `io` at `radius`, via the process-global shared
/// cache when [enabled](set_shared_plan_cache) (freshly built otherwise —
/// exactly [`ExecutionPlan::for_io`]). The fingerprint folds the output
/// labels and an io tag on top of the instance content, so construction
/// and decision plans over the same graph never collide.
pub fn shared_plan_for_io(io: &IoConfig<'_>, ids: &IdAssignment, radius: u32) -> ExecutionPlan {
    if !shared_plan_cache_enabled() {
        return ExecutionPlan::for_io(io, ids, radius);
    }
    let instance = Instance::new(io.graph, io.input, ids);
    let mut h = fingerprint(&instance, radius) ^ IO_PLAN_TAG;
    for v in io.graph.nodes() {
        for &b in io.output.get(v).as_bytes() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ 0x5A);
    }
    shared_lookup(h, || ExecutionPlan::for_io(io, ids, radius))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::algorithm::FnAlgorithm;
    use rlnc_core::labels::{Label, Labeling};
    use rlnc_core::view::View;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;

    #[test]
    fn cache_hits_on_identical_content_and_misses_on_changes() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let mut cache = PlanCache::new();
        assert!(cache.plans.is_empty());
        let id_first = cache.plan_for(&inst, 1).id();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Same content (even via a different borrow): a hit, same plan.
        let g2 = cycle(10);
        let x2 = Labeling::empty(10);
        let ids2 = IdAssignment::consecutive(&g2);
        let inst2 = Instance::new(&g2, &x2, &ids2);
        assert_eq!(cache.plan_for(&inst2, 1).id(), id_first);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Different radius, identities, or inputs: misses.
        cache.plan_for(&inst, 2);
        let shifted = ids.shifted(5);
        cache.plan_for(&Instance::new(&g, &x, &shifted), 1);
        let named = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) + 1));
        cache.plan_for(&Instance::new(&g, &named, &ids), 1);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.plans.len(), 4);
    }

    #[test]
    fn cached_plans_evaluate_identically_to_fresh_plans() {
        let g = cycle(12);
        let x = Labeling::empty(12);
        let ids = IdAssignment::spread(&g, 7);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(2, "id-sum", |v: &View| {
            Label::from_u64((0..v.len()).map(|i| v.id(i)).sum())
        });
        let fresh = crate::plan::ExecutionPlan::for_instance(&inst, 2).run(&algo);
        let mut cache = PlanCache::new();
        let first = cache.plan_for(&inst, 2).run(&algo);
        let second = cache.plan_for(&inst, 2).run(&algo);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        assert_eq!(cache.hits(), 1);
    }

    // One combined test (not several) because the shared cache is
    // process-global and the test harness runs tests concurrently: a
    // second shared-cache test would race the enable/disable toggles.
    #[test]
    fn shared_cache_is_opt_in_warm_and_io_distinct() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(1, "id-min", |v: &View| {
            Label::from_u64((0..v.len()).map(|i| v.id(i)).min().unwrap_or(0))
        });
        let fresh = ExecutionPlan::for_instance(&inst, 1).run(&algo);

        // Disabled (the default): no state is retained, stats don't move.
        assert!(!shared_plan_cache_enabled());
        let before = shared_plan_cache_stats();
        let cold = shared_plan_for_instance(&inst, 1).run(&algo);
        assert_eq!(cold, fresh);
        assert_eq!(shared_plan_cache_stats(), before);

        // Enabled: first lookup misses, repeat lookups hit, results are
        // bit-identical to fresh planning.
        set_shared_plan_cache(true);
        let s0 = shared_plan_cache_stats();
        let first = shared_plan_for_instance(&inst, 1).run(&algo);
        let second = shared_plan_for_instance(&inst, 1).run(&algo);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        let s1 = shared_plan_cache_stats();
        assert_eq!(s1.misses - s0.misses, 1);
        assert!(s1.hits - s0.hits >= 1);
        assert!(s1.plans >= 1);

        // An io plan over the same graph/ids/inputs must not collide with
        // the instance plan (outputs + tag are folded into the key).
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) % 3));
        let io = IoConfig::new(&g, &x, &y);
        let io_plan = shared_plan_for_io(&io, &ids, 1);
        assert_ne!(io_plan.id(), shared_plan_for_instance(&inst, 1).id());
        let io_hit = shared_plan_for_io(&io, &ids, 1);
        assert_eq!(io_hit.id(), io_plan.id());

        // Disabling clears residency but keeps cumulative counters.
        set_shared_plan_cache(false);
        let cleared = shared_plan_cache_stats();
        assert_eq!(cleared.plans, 0);
        assert!(cleared.misses >= s1.misses);
    }
}
