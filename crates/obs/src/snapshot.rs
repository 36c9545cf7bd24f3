//! Value-typed snapshots of the registry and their deterministic JSON
//! form.
//!
//! A [`MetricsSnapshot`] is a sorted `name → value` map detached from the
//! live atomics; two snapshots [`merge`](MetricsSnapshot::merge)
//! commutatively and associatively, which is what makes shard-local
//! registries combinable in any order (property-tested against the exact
//! JSON layer in `rlnc-experiments`). A [`TraceDocument`] pairs the
//! deterministic and timing sections and emits the `rlnc-trace-v1` JSON
//! schema.

use std::collections::BTreeMap;

/// One aggregated metric value, detached from the live registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Max-watermark gauge.
    Gauge(u64),
    /// Fixed-bucket histogram; `counts.len() == bounds.len() + 1` (the
    /// last bucket is the overflow bucket) and `sum` totals the observed
    /// values.
    Histogram {
        /// Bucket upper bounds, strictly increasing.
        bounds: Vec<u64>,
        /// Per-bucket observation counts plus the trailing overflow bucket.
        counts: Vec<u64>,
        /// Total of all observed values.
        sum: u64,
    },
    /// Wall-clock span statistics (always in the timing section).
    Span {
        /// Number of completed spans.
        calls: u64,
        /// Total nanoseconds across all calls.
        total_ns: u64,
        /// Fastest call (0 when `calls == 0`).
        min_ns: u64,
        /// Slowest call.
        max_ns: u64,
    },
}

/// A sorted `name → value` map — one section of a [`TraceDocument`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a metric value.
    pub fn insert(&mut self, name: impl Into<String>, value: MetricValue) {
        self.entries.insert(name.into(), value);
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other` into `self`. Counters add, gauges take the max,
    /// histograms add bucket-wise (bounds must agree), spans combine
    /// calls/total/min/max. Commutative and associative, so shard-local
    /// snapshots merged in any order yield the same result; mixing metric
    /// kinds (or histogram layouts) under one name is an error.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), String> {
        for (name, incoming) in &other.entries {
            match self.entries.get_mut(name) {
                None => {
                    self.entries.insert(name.clone(), incoming.clone());
                }
                Some(existing) => match (existing, incoming) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.saturating_add(*b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                        *a = (*a).max(*b);
                    }
                    (
                        MetricValue::Histogram {
                            bounds: ab,
                            counts: ac,
                            sum: asum,
                        },
                        MetricValue::Histogram {
                            bounds: bb,
                            counts: bc,
                            sum: bsum,
                        },
                    ) => {
                        if ab != bb {
                            return Err(format!(
                                "histogram '{name}': mismatched bucket bounds"
                            ));
                        }
                        for (a, b) in ac.iter_mut().zip(bc.iter()) {
                            *a = a.saturating_add(*b);
                        }
                        *asum = asum.saturating_add(*bsum);
                    }
                    (
                        MetricValue::Span {
                            calls: ac,
                            total_ns: at,
                            min_ns: amin,
                            max_ns: amax,
                        },
                        MetricValue::Span {
                            calls: bc,
                            total_ns: bt,
                            min_ns: bmin,
                            max_ns: bmax,
                        },
                    ) => {
                        // An empty side must not drag the min to 0.
                        *amin = match (*ac, *bc) {
                            (0, _) => *bmin,
                            (_, 0) => *amin,
                            _ => (*amin).min(*bmin),
                        };
                        *ac = ac.saturating_add(*bc);
                        *at = at.saturating_add(*bt);
                        *amax = (*amax).max(*bmax);
                    }
                    _ => {
                        return Err(format!("metric '{name}': mismatched kinds in merge"));
                    }
                },
            }
        }
        Ok(())
    }

    /// Emits the snapshot as a JSON object (sorted keys, exact integers).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(name));
            out.push_str("\":");
            out.push_str(&value_json(value));
        }
        out.push('}');
        out
    }
}

fn u64_list(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

fn value_json(value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(v) => format!("{{\"type\":\"counter\",\"value\":{v}}}"),
        MetricValue::Gauge(v) => format!("{{\"type\":\"gauge\",\"value\":{v}}}"),
        MetricValue::Histogram { bounds, counts, sum } => format!(
            "{{\"type\":\"histogram\",\"bounds\":{},\"counts\":{},\"sum\":{sum}}}",
            u64_list(bounds),
            u64_list(counts),
        ),
        MetricValue::Span {
            calls,
            total_ns,
            min_ns,
            max_ns,
        } => format!(
            "{{\"type\":\"span\",\"calls\":{calls},\"total_ns\":{total_ns},\"min_ns\":{min_ns},\"max_ns\":{max_ns}}}"
        ),
    }
}

/// JSON string escaping, byte-compatible with the exact-JSON emitters in
/// `rlnc-sweep` (quotes, backslashes, named control escapes, `\u00xx` for
/// the rest of the control range; everything else raw UTF-8).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The aggregated trace export: the deterministic section (byte-identical
/// across thread schedules and batch sizes) and the timing section
/// (wall-clock spans and schedule-dependent counts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceDocument {
    /// Schedule-invariant metrics — the half covered by determinism pins.
    pub deterministic: MetricsSnapshot,
    /// Wall-clock and schedule-dependent metrics — excluded from
    /// determinism checks.
    pub timing: MetricsSnapshot,
}

impl TraceDocument {
    /// The schema tag emitted by [`TraceDocument::to_json`].
    pub const SCHEMA: &'static str = "rlnc-trace-v1";

    /// Emits the full trace document (schema tag + both sections).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"{}\",\"deterministic\":{},\"timing\":{}}}",
            Self::SCHEMA,
            self.deterministic.to_json(),
            self.timing.to_json(),
        )
    }

    /// Emits only the deterministic section — the byte string the
    /// determinism pin tests compare across executor variants.
    pub fn deterministic_json(&self) -> String {
        self.deterministic.to_json()
    }

    /// Merges `other` into `self`, section-wise (see
    /// [`MetricsSnapshot::merge`]). Commutative and associative, so the
    /// per-shard traces of a partitioned sweep (`sweep --shard i/N
    /// --trace-out ...`) combine in any order into one document covering
    /// the whole run. Note the *combined* totals, not the single-process
    /// bytes: counters like `sweep.runs` sum to N (one process each), so a
    /// merged trace is the shard aggregate, not a byte-pinned replay.
    pub fn merge(&mut self, other: &TraceDocument) -> Result<(), String> {
        self.deterministic.merge(&other.deterministic)?;
        self.timing.merge(&other.timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.insert("b.counter", MetricValue::Counter(7));
        s.insert("a.gauge", MetricValue::Gauge(32));
        s.insert(
            "c.hist",
            MetricValue::Histogram {
                bounds: vec![1, 2, 4],
                counts: vec![1, 0, 2, 1],
                sum: 19,
            },
        );
        s
    }

    #[test]
    fn json_is_sorted_and_exact() {
        let json = sample().to_json();
        assert_eq!(
            json,
            concat!(
                "{\"a.gauge\":{\"type\":\"gauge\",\"value\":32},",
                "\"b.counter\":{\"type\":\"counter\",\"value\":7},",
                "\"c.hist\":{\"type\":\"histogram\",\"bounds\":[1,2,4],",
                "\"counts\":[1,0,2,1],\"sum\":19}}"
            )
        );
    }

    #[test]
    fn merge_is_commutative_on_sample() {
        let mut left = sample();
        let mut extra = MetricsSnapshot::new();
        extra.insert("b.counter", MetricValue::Counter(3));
        extra.insert("a.gauge", MetricValue::Gauge(8));
        extra.insert("d.new", MetricValue::Counter(1));

        let mut right = extra.clone();
        left.merge(&extra).unwrap();
        right.merge(&sample()).unwrap();
        assert_eq!(left, right);
        assert_eq!(left.get("b.counter"), Some(&MetricValue::Counter(10)));
        assert_eq!(left.get("a.gauge"), Some(&MetricValue::Gauge(32)));
    }

    #[test]
    fn merge_rejects_mismatches() {
        let mut a = MetricsSnapshot::new();
        a.insert("x", MetricValue::Counter(1));
        let mut b = MetricsSnapshot::new();
        b.insert("x", MetricValue::Gauge(1));
        assert!(a.merge(&b).is_err());

        let mut h1 = MetricsSnapshot::new();
        h1.insert(
            "h",
            MetricValue::Histogram {
                bounds: vec![1, 2],
                counts: vec![0, 0, 0],
                sum: 0,
            },
        );
        let mut h2 = MetricsSnapshot::new();
        h2.insert(
            "h",
            MetricValue::Histogram {
                bounds: vec![1, 4],
                counts: vec![0, 0, 0],
                sum: 0,
            },
        );
        assert!(h1.merge(&h2).is_err());
    }

    #[test]
    fn span_merge_handles_empty_sides() {
        let mut a = MetricsSnapshot::new();
        a.insert(
            "s",
            MetricValue::Span {
                calls: 0,
                total_ns: 0,
                min_ns: 0,
                max_ns: 0,
            },
        );
        let mut b = MetricsSnapshot::new();
        b.insert(
            "s",
            MetricValue::Span {
                calls: 2,
                total_ns: 300,
                min_ns: 100,
                max_ns: 200,
            },
        );
        a.merge(&b).unwrap();
        assert_eq!(
            a.get("s"),
            Some(&MetricValue::Span {
                calls: 2,
                total_ns: 300,
                min_ns: 100,
                max_ns: 200
            })
        );
    }

    #[test]
    fn trace_document_wraps_both_sections() {
        let doc = TraceDocument {
            deterministic: sample(),
            timing: MetricsSnapshot::new(),
        };
        let json = doc.to_json();
        assert!(json.starts_with("{\"schema\":\"rlnc-trace-v1\",\"deterministic\":{"));
        assert!(json.ends_with("\"timing\":{}}"));
        assert_eq!(doc.deterministic_json(), sample().to_json());
    }

    #[test]
    fn trace_document_merge_is_sectionwise() {
        let mut a = TraceDocument {
            deterministic: sample(),
            timing: MetricsSnapshot::new(),
        };
        let mut timing = MetricsSnapshot::new();
        timing.insert(
            "t.span",
            MetricValue::Span {
                calls: 1,
                total_ns: 5,
                min_ns: 5,
                max_ns: 5,
            },
        );
        let b = TraceDocument {
            deterministic: sample(),
            timing,
        };
        a.merge(&b).unwrap();
        assert_eq!(a.deterministic.get("b.counter"), Some(&MetricValue::Counter(14)));
        assert!(a.timing.get("t.span").is_some());
        // Section-kind mismatches surface as errors, not silent drops.
        let mut bad = TraceDocument::default();
        bad.deterministic.insert("b.counter", MetricValue::Gauge(1));
        assert!(a.merge(&bad).is_err());
    }

    #[test]
    fn escaping_covers_quotes_and_controls() {
        let mut s = MetricsSnapshot::new();
        s.insert("weird\"\\\n\u{1}", MetricValue::Counter(1));
        let json = s.to_json();
        assert!(json.contains("weird\\\"\\\\\\n\\u0001"));
    }
}
