//! Trace assembly for the CLI's `--trace-out` flag, plus the exact parser
//! that closes the round-trip.
//!
//! [`collect`] snapshots the process-global `rlnc-obs` registry and
//! injects the metrics the registry cannot see from inside: the
//! persistent work-stealing pool's counters
//! ([`rlnc_par::pool::stats`] — tasks dispatched, steals, parks,
//! resident workers). All of them depend on core count / `RLNC_THREADS`
//! and scheduling luck, so they land in the **timing** section and never
//! disturb the deterministic-section byte pins.
//!
//! [`from_json`] parses an `rlnc-trace-v1` document back into a
//! [`TraceDocument`] via the shared `rlnc-sweep` JSON parser;
//! `from_json(doc.to_json()) == doc` is property-tested in
//! `tests/trace_json_props.rs`.

use rlnc_obs::{MetricValue, MetricsSnapshot, TraceDocument};
use rlnc_sweep::emit::json;

/// Timing-section names for the work-stealing pool counters, in the
/// order they are inserted.
pub const POOL_METRICS: [&str; 4] = ["pool.tasks", "pool.steals", "pool.parks", "pool.workers"];

/// Snapshots the registry into a [`TraceDocument`] and appends the
/// work-stealing pool's cumulative counters to the timing section.
pub fn collect() -> TraceDocument {
    let mut doc = rlnc_obs::snapshot();
    let pool = rlnc_par::pool::stats();
    let [tasks, steals, parks, workers] = POOL_METRICS;
    doc.timing.insert(tasks, MetricValue::Counter(pool.tasks));
    doc.timing.insert(steals, MetricValue::Counter(pool.steals));
    doc.timing.insert(parks, MetricValue::Counter(pool.parks));
    doc.timing.insert(workers, MetricValue::Counter(pool.workers));
    doc
}

/// Parses one `{"type": ...}` metric value object.
fn parse_value(fields: &[(String, json::Value)], name: &str) -> Result<MetricValue, String> {
    let kind = json::get(fields, "type")?.as_string(&format!("{name}.type"))?;
    match kind.as_str() {
        "counter" => Ok(MetricValue::Counter(
            json::get(fields, "value")?.as_u64(&format!("{name}.value"))?,
        )),
        "gauge" => Ok(MetricValue::Gauge(
            json::get(fields, "value")?.as_u64(&format!("{name}.value"))?,
        )),
        "histogram" => {
            let bounds = u64_array(json::get(fields, "bounds")?, &format!("{name}.bounds"))?;
            let counts = u64_array(json::get(fields, "counts")?, &format!("{name}.counts"))?;
            if counts.len() != bounds.len() + 1 {
                return Err(format!(
                    "{name}: histogram needs {} counts for {} bounds, got {}",
                    bounds.len() + 1,
                    bounds.len(),
                    counts.len()
                ));
            }
            Ok(MetricValue::Histogram {
                bounds,
                counts,
                sum: json::get(fields, "sum")?.as_u64(&format!("{name}.sum"))?,
            })
        }
        "span" => Ok(MetricValue::Span {
            calls: json::get(fields, "calls")?.as_u64(&format!("{name}.calls"))?,
            total_ns: json::get(fields, "total_ns")?.as_u64(&format!("{name}.total_ns"))?,
            min_ns: json::get(fields, "min_ns")?.as_u64(&format!("{name}.min_ns"))?,
            max_ns: json::get(fields, "max_ns")?.as_u64(&format!("{name}.max_ns"))?,
        }),
        other => Err(format!("{name}: unknown metric type '{other}'")),
    }
}

fn u64_array(value: &json::Value, what: &str) -> Result<Vec<u64>, String> {
    value
        .as_array(what)?
        .iter()
        .enumerate()
        .map(|(i, v)| v.as_u64(&format!("{what}[{i}]")))
        .collect()
}

fn parse_section(value: &json::Value, what: &str) -> Result<MetricsSnapshot, String> {
    let mut section = MetricsSnapshot::new();
    for (name, v) in value.as_object(what)? {
        let fields = v.as_object(&format!("{what}.{name}"))?;
        section.insert(name.clone(), parse_value(fields, name)?);
    }
    Ok(section)
}

/// Parses an `rlnc-trace-v1` JSON document (as written by `--trace-out`)
/// back into a [`TraceDocument`]. Exact inverse of
/// [`TraceDocument::to_json`].
pub fn from_json(text: &str) -> Result<TraceDocument, String> {
    let value = json::parse(text)?;
    let obj = value.as_object("top level")?;
    let schema = json::get(obj, "schema")?.as_string("schema")?;
    if schema != TraceDocument::SCHEMA {
        return Err(format!(
            "unsupported trace schema '{schema}' (expected '{}')",
            TraceDocument::SCHEMA
        ));
    }
    Ok(TraceDocument {
        deterministic: parse_section(json::get(obj, "deterministic")?, "deterministic")?,
        timing: parse_section(json::get(obj, "timing")?, "timing")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_always_reports_pool_counters() {
        let doc = collect();
        for name in POOL_METRICS {
            assert!(
                matches!(doc.timing.get(name), Some(MetricValue::Counter(_))),
                "{name} must be present even when obs is disabled"
            );
            assert!(
                doc.deterministic.get(name).is_none(),
                "{name} is schedule-dependent and must stay out of the deterministic section"
            );
        }
    }

    #[test]
    fn hand_built_document_round_trips() {
        let mut doc = TraceDocument::default();
        doc.deterministic
            .insert("a.counter", MetricValue::Counter(u64::MAX));
        doc.deterministic.insert(
            "b.hist",
            MetricValue::Histogram {
                bounds: vec![1, 2, 4],
                counts: vec![0, 3, 0, 9],
                sum: 42,
            },
        );
        doc.timing.insert(
            "c.span",
            MetricValue::Span {
                calls: 2,
                total_ns: 100,
                min_ns: 40,
                max_ns: 60,
            },
        );
        doc.timing.insert("d.gauge", MetricValue::Gauge(7));
        assert_eq!(from_json(&doc.to_json()).unwrap(), doc);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"schema\":\"bogus\",\"deterministic\":{},\"timing\":{}}")
            .unwrap_err()
            .contains("schema"));
        // A histogram with the wrong number of buckets must not parse.
        let bad = concat!(
            "{\"schema\":\"rlnc-trace-v1\",\"deterministic\":{\"h\":",
            "{\"type\":\"histogram\",\"bounds\":[1,2],\"counts\":[0,0],\"sum\":0}},",
            "\"timing\":{}}"
        );
        assert!(from_json(bad).unwrap_err().contains("counts"));
    }
}
