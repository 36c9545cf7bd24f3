//! The line protocol between the benchmark's processes: a child prints
//! `key value` lines on stdout, the orchestrator parses them back.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Key/value results of one child process.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<String, String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records `key` (overwriting).
    pub fn put(&mut self, key: impl Into<String>, value: impl Display) {
        self.values.insert(key.into(), value.to_string());
    }

    /// Adds `n` to the integer at `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        let sum = self.int(key) + n;
        self.put(key, sum);
    }

    /// The raw value at `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The number at `key`, if present and numeric.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// The integer at `key`, 0 when absent.
    pub fn int(&self, key: &str) -> u64 {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    /// Records a list of samples (comma-separated on the wire).
    pub fn put_list(&mut self, key: &str, values: &[f64]) {
        let text: Vec<String> = values.iter().map(f64::to_string).collect();
        self.put(key, text.join(","));
    }

    /// The samples at `key`, empty when absent.
    pub fn list(&self, key: &str) -> Vec<f64> {
        self.get(key)
            .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
            .unwrap_or_default()
    }

    /// Keys starting with `prefix`, with the prefix stripped.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.values
            .iter()
            .filter_map(move |(k, v)| k.strip_prefix(prefix).map(|rest| (rest, v.as_str())))
    }

    /// The wire form: one `key value` line per entry.
    pub fn render(&self) -> String {
        self.values
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect()
    }

    /// Parses the wire form, ignoring lines without a value.
    pub fn parse(text: &str) -> Report {
        let mut report = Report::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once(' ') {
                report.put(k, v.trim());
            }
        }
        report
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_the_wire_form() {
        let mut r = Report::new();
        r.put("m.trials_per_s", 1234.5);
        r.put("digest", "00ff");
        r.add("failed", 2);
        r.add("failed", 1);
        r.put_list("samples", &[1.5, 2.0]);
        let back = Report::parse(&r.render());
        assert_eq!(back.num("m.trials_per_s"), Some(1234.5));
        assert_eq!(back.get("digest"), Some("00ff"));
        assert_eq!(back.int("failed"), 3);
        assert_eq!(back.int("absent"), 0);
        assert_eq!(back.list("samples"), vec![1.5, 2.0]);
        assert!(back.list("absent").is_empty());
        assert_eq!(
            back.with_prefix("m.").collect::<Vec<_>>(),
            vec![("trials_per_s", "1234.5")]
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
