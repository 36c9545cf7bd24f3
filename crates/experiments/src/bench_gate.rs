//! `bench-gate` — turn the committed perf trajectory into a regression
//! gate.
//!
//! The trajectory files (`BENCH_*.json`) record, per group, the
//! legacy-over-engine speedup plus deterministic memory proxies. A gate
//! run compares a *fresh* export against a committed *baseline* and fails
//! (exit 1 from the CLI) when any group regressed beyond its tolerance:
//!
//! * **Speedup** (always checked): fail when
//!   `fresh.speedup * tolerance < baseline.speedup`. Wall-clock ratios are
//!   noisy — CI machines differ from the machine that committed the
//!   baseline — so the default tolerance is generous and per-group
//!   overrides (`--tolerance-group NAME=F`) let known-jittery groups
//!   breathe without loosening the rest.
//! * **Allocations / working set** (checked only when the group's `n` and
//!   `trials` match the baseline's): these are *deterministic* functions
//!   of the work requested, so when the shapes match they are compared
//!   strictly — any increase fails. When shapes differ (quick vs full
//!   mode, resized groups) the strict checks are skipped rather than
//!   producing false alarms.
//!
//! Groups present on only one side are reported but never fail the gate:
//! adding a bench group must not break CI retroactively, and gating
//! against an older baseline that lacks a new group is routine.

use crate::bench_export::BenchExport;

/// Tolerance configuration for a gate run.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Default speedup tolerance: fail when
    /// `fresh_speedup * tolerance < baseline_speedup`. Must be ≥ 1.
    pub tolerance: f64,
    /// Per-group overrides of [`GateConfig::tolerance`].
    pub group_tolerance: Vec<(String, f64)>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            // Wide enough to absorb scheduler jitter between two runs on
            // one machine; cross-machine gates should widen further.
            tolerance: 1.75,
            group_tolerance: Vec::new(),
        }
    }
}

impl GateConfig {
    /// The tolerance applying to `group` (override or default).
    pub fn tolerance_for(&self, group: &str) -> f64 {
        self.group_tolerance
            .iter()
            .find(|(name, _)| name == group)
            .map_or(self.tolerance, |(_, t)| *t)
    }
}

/// One per-group comparison line.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// Group name.
    pub group: String,
    /// Human-readable verdict detail.
    pub detail: String,
    /// Whether this line fails the gate.
    pub failed: bool,
}

/// The outcome of comparing a fresh export against a baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-group verdicts, in baseline group order.
    pub lines: Vec<GateLine>,
}

impl GateReport {
    /// Whether any group regressed.
    pub fn failed(&self) -> bool {
        self.lines.iter().any(|l| l.failed)
    }

    /// Renders the report as the text the CLI prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(&format!(
                "  {} {:<28} {}\n",
                if line.failed { "FAIL" } else { "ok  " },
                line.group,
                line.detail
            ));
        }
        out
    }
}

/// Compares `fresh` against `baseline` under `config`.
pub fn evaluate(fresh: &BenchExport, baseline: &BenchExport, config: &GateConfig) -> GateReport {
    let mut lines = Vec::new();
    for base in &baseline.groups {
        let Some(new) = fresh.groups.iter().find(|g| g.name == base.name) else {
            lines.push(GateLine {
                group: base.name.clone(),
                detail: "missing from fresh export (skipped)".into(),
                failed: false,
            });
            continue;
        };
        let tolerance = config.tolerance_for(&base.name);
        let base_speedup = base.speedup();
        let new_speedup = new.speedup();
        let speedup_ok = new_speedup * tolerance >= base_speedup;
        let mut details = vec![format!(
            "speedup {:.2}x vs {:.2}x (tol {:.2})",
            new_speedup, base_speedup, tolerance
        )];
        let mut failed = !speedup_ok;
        if !speedup_ok {
            details[0].push_str(" REGRESSED");
        }

        // Deterministic checks: only meaningful when the group measured
        // the same shape of work.
        if new.n == base.n && new.trials == base.trials {
            if let (Some(new_allocs), Some(base_allocs)) =
                (new.engine_allocs, base.engine_allocs)
            {
                if new_allocs > base_allocs {
                    failed = true;
                    details.push(format!(
                        "engine allocs {new_allocs} > baseline {base_allocs} REGRESSED"
                    ));
                } else {
                    details.push(format!("allocs {new_allocs} <= {base_allocs}"));
                }
            }
            if new.working_set_bytes > 0 && base.working_set_bytes > 0 {
                if new.working_set_bytes > base.working_set_bytes {
                    failed = true;
                    details.push(format!(
                        "working set {} B > baseline {} B REGRESSED",
                        new.working_set_bytes, base.working_set_bytes
                    ));
                } else {
                    details.push(format!("ws {} B", new.working_set_bytes));
                }
            }
        } else {
            details.push("shape differs; strict checks skipped".into());
        }

        lines.push(GateLine {
            group: base.name.clone(),
            detail: details.join("; "),
            failed,
        });
    }
    for new in &fresh.groups {
        if !baseline.groups.iter().any(|g| g.name == new.name) {
            lines.push(GateLine {
                group: new.name.clone(),
                detail: "new group (no baseline; skipped)".into(),
                failed: false,
            });
        }
    }
    GateReport { lines }
}

/// Picks the latest committed trajectory file in `dir`: the
/// `BENCH_<number>.json` with the highest number (ties impossible —
/// file names are unique). Non-numeric suffixes (`BENCH_ci.json`) are
/// ignored. Returns `None` when no trajectory file exists.
pub fn latest_bench_file(dir: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name.strip_prefix("BENCH_").and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        let Ok(number) = stem.parse::<u64>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(n, _)| number > *n) {
            best = Some((number, entry.path()));
        }
    }
    best.map(|(_, path)| path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_export::BenchGroup;

    fn group(name: &str, legacy_ns: u128, engine_ns: u128) -> BenchGroup {
        BenchGroup {
            name: name.into(),
            n: 96,
            trials: 500,
            legacy_ns,
            engine_ns,
            legacy_allocs: None,
            engine_allocs: None,
            working_set_bytes: 1_000,
            counters: Vec::new(),
        }
    }

    fn export(groups: Vec<BenchGroup>) -> BenchExport {
        BenchExport {
            quick: true,
            groups,
            peak_alloc_bytes: None,
            nproc: None,
        }
    }

    #[test]
    fn identical_exports_pass() {
        let e = export(vec![group("a", 1000, 100), group("b", 500, 100)]);
        let report = evaluate(&e, &e, &GateConfig::default());
        assert!(!report.failed(), "{}", report.render());
    }

    #[test]
    fn twofold_speedup_regression_fails_and_tolerance_waives() {
        let baseline = export(vec![group("a", 1000, 100)]); // 10x
        let fresh = export(vec![group("a", 1000, 200)]); // 5x — a 2x regression
        let report = evaluate(&fresh, &baseline, &GateConfig::default());
        assert!(report.failed(), "default 1.75 must catch a 2x regression");
        assert!(report.render().contains("REGRESSED"));

        let lenient = GateConfig {
            tolerance: 2.5,
            group_tolerance: Vec::new(),
        };
        assert!(!evaluate(&fresh, &baseline, &lenient).failed());

        // A per-group override beats the default.
        let per_group = GateConfig {
            tolerance: 1.1,
            group_tolerance: vec![("a".into(), 3.0)],
        };
        assert!(!evaluate(&fresh, &baseline, &per_group).failed());
    }

    #[test]
    fn strict_checks_apply_only_on_matching_shapes() {
        let mut base_group = group("a", 1000, 100);
        base_group.engine_allocs = Some(5);
        let mut fresh_group = base_group.clone();
        fresh_group.engine_allocs = Some(6); // one extra allocation
        let report = evaluate(
            &export(vec![fresh_group.clone()]),
            &export(vec![base_group.clone()]),
            &GateConfig::default(),
        );
        assert!(report.failed(), "alloc increase on same shape must fail");

        // Same regression but a different n: strict checks skipped.
        fresh_group.n = 192;
        let report = evaluate(
            &export(vec![fresh_group]),
            &export(vec![base_group]),
            &GateConfig::default(),
        );
        assert!(!report.failed());
        assert!(report.render().contains("strict checks skipped"));
    }

    #[test]
    fn working_set_growth_fails_on_matching_shapes() {
        let base_group = group("a", 1000, 100);
        let mut fresh_group = base_group.clone();
        fresh_group.working_set_bytes = 2_000;
        let report = evaluate(
            &export(vec![fresh_group]),
            &export(vec![base_group]),
            &GateConfig::default(),
        );
        assert!(report.failed());
        assert!(report.render().contains("working set"));
    }

    #[test]
    fn one_sided_groups_never_fail() {
        let baseline = export(vec![group("only-in-base", 10, 1)]);
        let fresh = export(vec![group("only-in-fresh", 10, 1)]);
        let report = evaluate(&fresh, &baseline, &GateConfig::default());
        assert!(!report.failed());
        assert_eq!(report.lines.len(), 2);
    }

    #[test]
    fn latest_bench_file_picks_highest_number() {
        let dir = std::env::temp_dir().join(format!("bench-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_4.json", "BENCH_10.json", "BENCH_ci.json", "other.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let latest = latest_bench_file(&dir).expect("found");
        assert!(latest.ends_with("BENCH_10.json"), "{latest:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
