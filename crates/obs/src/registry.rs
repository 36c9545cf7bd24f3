//! The process-global metric registry and its hot-path handles.
//!
//! Cells are interned once per metric name and leaked (`Box::leak`), so a
//! handle is a `Copy` reference to a `'static` atomic — the enabled hot
//! path is a single `fetch_add` with no locking and no allocation. The
//! registry mutex is only taken at interning and snapshot time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::snapshot::{MetricValue, MetricsSnapshot, TraceDocument};

/// Which half of the trace export a metric belongs to.
///
/// See the crate docs for the full contract; in short: if the value is a
/// function of *what work was done* it is [`Section::Deterministic`], if
/// it depends on wall clock, core count, batch size, or thread schedule it
/// is [`Section::Timing`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// Byte-identical across thread schedules and batch sizes.
    Deterministic,
    /// Wall-clock and schedule-dependent; excluded from determinism checks.
    Timing,
}

/// Power-of-two histogram bounds `1, 2, 4, …, 2^20` — the shared bucket
/// layout for size-like observations (ball members, CSR edges, messages
/// per round). The last implicit bucket catches everything above `2^20`.
pub const POW2_BUCKETS: [u64; 21] = [
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1024,
    2048,
    4096,
    8192,
    16384,
    32768,
    65536,
    131072,
    262144,
    524288,
    1048576,
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
    Span,
}

enum Data {
    Counter(AtomicU64),
    Gauge(AtomicU64),
    Histogram {
        bounds: &'static [u64],
        counts: Box<[AtomicU64]>,
        sum: AtomicU64,
    },
    Span {
        calls: AtomicU64,
        total_ns: AtomicU64,
        min_ns: AtomicU64,
        max_ns: AtomicU64,
    },
}

struct Cell {
    name: &'static str,
    section: Section,
    kind: Kind,
    data: Data,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn cells() -> &'static Mutex<HashMap<&'static str, &'static Cell>> {
    static CELLS: OnceLock<Mutex<HashMap<&'static str, &'static Cell>>> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether metric collection is on. Every sink checks this first (one
/// relaxed load), so disabled instrumentation compiles to near-nothing.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn intern(name: &'static str, section: Section, kind: Kind, make: impl FnOnce() -> Data) -> &'static Cell {
    let mut map = cells().lock().expect("obs registry poisoned");
    if let Some(cell) = map.get(name) {
        assert!(
            cell.kind == kind && cell.section == section,
            "metric '{name}' re-registered as {kind:?}/{section:?} but exists as {:?}/{:?}",
            cell.kind,
            cell.section,
        );
        return cell;
    }
    let cell: &'static Cell = Box::leak(Box::new(Cell {
        name,
        section,
        kind,
        data: make(),
    }));
    map.insert(name, cell);
    cell
}

/// A monotonically increasing event count.
#[derive(Clone, Copy)]
pub struct Counter(&'static Cell);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Data::Counter(v) = &self.0.data {
            v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        match &self.0.data {
            Data::Counter(v) => v.load(Ordering::Relaxed),
            _ => 0,
        }
    }
}

/// Resolves (interning on first use) the counter `name`.
pub fn counter(name: &'static str, section: Section) -> Counter {
    Counter(intern(name, section, Kind::Counter, || {
        Data::Counter(AtomicU64::new(0))
    }))
}

/// A max-watermark gauge: `record_max` keeps the largest observed value.
/// The max over a fixed set of observations is order-independent, which is
/// what keeps byte-size gauges eligible for the deterministic section.
#[derive(Clone, Copy)]
pub struct Gauge(&'static Cell);

impl Gauge {
    /// Raises the watermark to `v` if `v` is larger.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Data::Gauge(g) = &self.0.data {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }
}

/// Resolves (interning on first use) the gauge `name`.
pub fn gauge(name: &'static str, section: Section) -> Gauge {
    Gauge(intern(name, section, Kind::Gauge, || {
        Data::Gauge(AtomicU64::new(0))
    }))
}

/// A fixed-bucket histogram. Bucket `i` counts observations `v` with
/// `bounds[i-1] < v <= bounds[i]`; one extra overflow bucket counts
/// everything above the last bound.
#[derive(Clone, Copy)]
pub struct Histogram(&'static Cell);

impl Histogram {
    /// Records one observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Data::Histogram { bounds, counts, sum } = &self.0.data {
            let idx = bounds.partition_point(|&b| b < v);
            counts[idx].fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// Resolves (interning on first use) the histogram `name` with the given
/// bucket upper bounds (must be strictly increasing; typically
/// [`POW2_BUCKETS`]).
pub fn histogram(name: &'static str, section: Section, bounds: &'static [u64]) -> Histogram {
    let cell = intern(name, section, Kind::Histogram, || Data::Histogram {
        bounds,
        counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        sum: AtomicU64::new(0),
    });
    if let Data::Histogram { bounds: existing, .. } = &cell.data {
        assert_eq!(
            *existing, bounds,
            "histogram '{name}' re-registered with different bucket bounds"
        );
    }
    Histogram(cell)
}

/// Records one completed span of `ns` nanoseconds under `name`. Spans are
/// always [`Section::Timing`].
pub fn record_span(name: &'static str, ns: u64) {
    let cell = intern(name, Section::Timing, Kind::Span, || Data::Span {
        calls: AtomicU64::new(0),
        total_ns: AtomicU64::new(0),
        min_ns: AtomicU64::new(u64::MAX),
        max_ns: AtomicU64::new(0),
    });
    if let Data::Span {
        calls,
        total_ns,
        min_ns,
        max_ns,
    } = &cell.data
    {
        calls.fetch_add(1, Ordering::Relaxed);
        total_ns.fetch_add(ns, Ordering::Relaxed);
        min_ns.fetch_min(ns, Ordering::Relaxed);
        max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// RAII wall-clock timer returned by [`LazySpan::start`]; records into the
/// registry on drop. Inert (and allocation-free) when collection is off.
pub struct SpanGuard {
    inner: Option<(&'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.inner.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_span(name, ns);
        }
    }
}

/// A `const`-constructible static handle for a counter: resolves its
/// registry cell on first enabled use, then the hot path is one relaxed
/// load + one `fetch_add`.
pub struct LazyCounter {
    name: &'static str,
    section: Section,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Declares the counter (no registration happens until first use).
    pub const fn new(name: &'static str, section: Section) -> Self {
        Self {
            name,
            section,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` if collection is enabled; near-free otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.handle().add(n);
        }
    }

    /// Adds one if collection is enabled; near-free otherwise.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The resolved registry handle (interning on first call).
    pub fn handle(&self) -> Counter {
        *self
            .cell
            .get_or_init(|| counter(self.name, self.section))
    }
}

/// A `const`-constructible static handle for a max-watermark gauge.
pub struct LazyGauge {
    name: &'static str,
    section: Section,
    cell: OnceLock<Gauge>,
}

impl LazyGauge {
    /// Declares the gauge (no registration happens until first use).
    pub const fn new(name: &'static str, section: Section) -> Self {
        Self {
            name,
            section,
            cell: OnceLock::new(),
        }
    }

    /// Raises the watermark if collection is enabled; near-free otherwise.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if enabled() {
            self.handle().record_max(v);
        }
    }

    /// The resolved registry handle (interning on first call).
    pub fn handle(&self) -> Gauge {
        *self.cell.get_or_init(|| gauge(self.name, self.section))
    }
}

/// A `const`-constructible static handle for a fixed-bucket histogram.
pub struct LazyHistogram {
    name: &'static str,
    section: Section,
    bounds: &'static [u64],
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// Declares the histogram (no registration happens until first use).
    pub const fn new(name: &'static str, section: Section, bounds: &'static [u64]) -> Self {
        Self {
            name,
            section,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// Records one observation if collection is enabled; near-free
    /// otherwise.
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.handle().observe(v);
        }
    }

    /// The resolved registry handle (interning on first call).
    pub fn handle(&self) -> Histogram {
        *self
            .cell
            .get_or_init(|| histogram(self.name, self.section, self.bounds))
    }
}

/// A `const`-constructible static handle for a wall-clock span (always
/// [`Section::Timing`]).
pub struct LazySpan {
    name: &'static str,
}

impl LazySpan {
    /// Declares the span.
    pub const fn new(name: &'static str) -> Self {
        Self { name }
    }

    /// Starts timing; the returned guard records on drop. Inert when
    /// collection is off.
    #[inline]
    pub fn start(&self) -> SpanGuard {
        SpanGuard {
            inner: enabled().then(|| (self.name, Instant::now())),
        }
    }
}

/// Zeroes every registered metric (registrations are kept). Used between
/// executor variants by the determinism pin tests and between runs that
/// share a process.
pub fn reset() {
    let map = cells().lock().expect("obs registry poisoned");
    for cell in map.values() {
        match &cell.data {
            Data::Counter(v) => v.store(0, Ordering::Relaxed),
            Data::Gauge(g) => g.store(0, Ordering::Relaxed),
            Data::Histogram { counts, sum, .. } => {
                for c in counts.iter() {
                    c.store(0, Ordering::Relaxed);
                }
                sum.store(0, Ordering::Relaxed);
            }
            Data::Span {
                calls,
                total_ns,
                min_ns,
                max_ns,
            } => {
                calls.store(0, Ordering::Relaxed);
                total_ns.store(0, Ordering::Relaxed);
                min_ns.store(u64::MAX, Ordering::Relaxed);
                max_ns.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Walks the registry into a [`TraceDocument`]: every *touched* metric,
/// split by [`Section`], with names sorted inside each section.
///
/// Metrics still at their reset-state default (zero counter/gauge, empty
/// histogram, zero-call span) are omitted: lazy handles stay registered
/// across [`reset`], so including them would make a snapshot depend on
/// which code paths ever ran in the process, not on the work done since
/// the last reset — breaking the deterministic-section byte pins across
/// warm reruns.
pub fn snapshot() -> TraceDocument {
    let map = cells().lock().expect("obs registry poisoned");
    let mut deterministic = MetricsSnapshot::new();
    let mut timing = MetricsSnapshot::new();
    for cell in map.values() {
        let value = match &cell.data {
            Data::Counter(v) => match v.load(Ordering::Relaxed) {
                0 => continue,
                n => MetricValue::Counter(n),
            },
            Data::Gauge(g) => match g.load(Ordering::Relaxed) {
                0 => continue,
                n => MetricValue::Gauge(n),
            },
            Data::Histogram { bounds, counts, sum } => {
                let counts: Vec<u64> =
                    counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                let sum = sum.load(Ordering::Relaxed);
                if counts.iter().all(|&c| c == 0) && sum == 0 {
                    continue;
                }
                MetricValue::Histogram {
                    bounds: bounds.to_vec(),
                    counts,
                    sum,
                }
            }
            Data::Span {
                calls,
                total_ns,
                min_ns,
                max_ns,
            } => {
                let n = calls.load(Ordering::Relaxed);
                if n == 0 {
                    continue;
                }
                MetricValue::Span {
                    calls: n,
                    total_ns: total_ns.load(Ordering::Relaxed),
                    min_ns: min_ns.load(Ordering::Relaxed),
                    max_ns: max_ns.load(Ordering::Relaxed),
                }
            }
        };
        match cell.section {
            Section::Deterministic => deterministic.insert(cell.name, value),
            Section::Timing => timing.insert(cell.name, value),
        }
    }
    TraceDocument {
        deterministic,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metric names are unique per test so tests may run concurrently
    // against the process-global registry.

    #[test]
    fn disabled_sinks_are_inert() {
        let c = LazyCounter::new("test.registry.disabled", Section::Deterministic);
        // Collection defaults to off in this process unless another test
        // enabled it; force the off state locally via the handle path.
        if !enabled() {
            c.add(5);
            // Nothing interned: the handle was never resolved.
            assert!(c.cell.get().is_none());
        }
        // Resolved handles still work regardless of the flag.
        let h = c.handle();
        h.add(2);
        assert_eq!(h.get(), 2);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let c = counter("test.registry.counter", Section::Deterministic);
        c.add(3);
        c.add(1);
        assert_eq!(c.get(), 4);

        let g = gauge("test.registry.gauge", Section::Deterministic);
        g.record_max(10);
        g.record_max(7);

        let h = histogram("test.registry.hist", Section::Deterministic, &POW2_BUCKETS);
        h.observe(1); // bucket 0 (<= 1)
        h.observe(3); // bucket 2 (<= 4)
        h.observe(2_000_000); // overflow bucket

        let doc = snapshot();
        assert_eq!(
            doc.deterministic.get("test.registry.gauge"),
            Some(&MetricValue::Gauge(10))
        );
        let mut counts = vec![0; POW2_BUCKETS.len() + 1];
        counts[0] = 1;
        counts[2] = 1;
        counts[POW2_BUCKETS.len()] = 1;
        assert_eq!(
            doc.deterministic.get("test.registry.hist"),
            Some(&MetricValue::Histogram {
                bounds: POW2_BUCKETS.to_vec(),
                counts,
                sum: 2_000_004,
            })
        );
    }

    #[test]
    fn interning_is_idempotent_and_checked() {
        let a = counter("test.registry.idem", Section::Timing);
        let b = counter("test.registry.idem", Section::Timing);
        a.add(1);
        b.add(1);
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn spans_record_call_stats() {
        record_span("test.registry.span", 100);
        record_span("test.registry.span", 300);
        let doc = snapshot();
        let got = doc.timing.get("test.registry.span").cloned();
        match got {
            Some(MetricValue::Span {
                calls,
                total_ns,
                min_ns,
                max_ns,
            }) => {
                assert!(calls >= 2);
                assert!(total_ns >= 400);
                assert!(min_ns <= 100);
                assert!(max_ns >= 300);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_sections_split_by_registration() {
        counter("test.registry.det_side", Section::Deterministic).add(1);
        counter("test.registry.timing_side", Section::Timing).add(1);
        let doc = snapshot();
        assert!(doc.deterministic.get("test.registry.det_side").is_some());
        assert!(doc.deterministic.get("test.registry.timing_side").is_none());
        assert!(doc.timing.get("test.registry.timing_side").is_some());
    }
}
