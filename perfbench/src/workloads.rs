//! The benchmark's workloads and metric tables.

use rlnc_par::Scale;

/// One named workload: a registry scenario at a pinned scale, run
/// locally or through the resident server.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// The workload name (`--workload`).
    pub name: &'static str,
    /// The registry scenario it runs.
    pub scenario: &'static str,
    /// The pinned scale.
    pub scale: Scale,
    /// Whether it is served (`SweepServer` + client) rather than local.
    pub served: bool,
    /// A local request runs one shard of the grid split this many ways
    /// (`SweepExecutor::run_shard`). Odd, so that with requests spread
    /// evenly over the shards p95 falls inside one shard's cluster of
    /// latencies rather than on the edge between two.
    pub shards: u64,
}

/// Every workload, in the order `--workload all` runs them.
/// `slack-topologies` is not among them: its throughput spread too much
/// from run to run on the benchmark machine. It is still decomposed in
/// every traced run, as a [`LAYER_HOMES`] entry.
pub const WORKLOADS: [Def; 3] = [
    Def {
        name: "fault-matrix",
        scenario: "fault-matrix",
        scale: Scale::Smoke,
        served: false,
        shards: 31,
    },
    Def {
        name: "language-matrix",
        scenario: "language-matrix",
        scale: Scale::Standard,
        served: false,
        shards: 15,
    },
    Def {
        name: "serve-language-matrix",
        scenario: "language-matrix",
        scale: Scale::Smoke,
        served: true,
        shards: 1,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Def> {
    WORKLOADS.iter().find(|d| d.name == name)
}

/// The registry scenarios whose traced decomposition fills in the layers
/// a traced run's own workload does not enter, in the order they are
/// tried. They run at smoke scale.
pub const LAYER_HOMES: [&str; 3] = ["fault-matrix", "language-matrix", "slack-topologies"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("trials_per_s", "1/s"),
    ("trials_per_s_1t", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("request_mean_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("requests_per_s", "1/s"),
];

/// The ten registry cases, for the per-case breakdown.
pub const CASES: [&str; 10] = [
    "coloring3",
    "amos",
    "weak-coloring",
    "mis",
    "matching",
    "min-dominating-set",
    "lll",
    "frugal-coloring",
    "cole-vishkin",
    "majority",
];

/// Per-layer metrics (`--trace 1`) other than the per-case breakdown:
/// name and unit.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("graph.generate_ns_per_node", "ns"),
    ("graph.ids_ns_per_node", "ns"),
    ("graph.arena.extract_ns_per_member", "ns"),
    ("engine.plan_build_ns_per_view", "ns"),
    ("derand.ramsey_stage_s", "s"),
    ("derand.hard_instance_stage_s", "s"),
    ("derand.union_stage_s", "s"),
    ("derand.glued_stage_s", "s"),
    ("core.rounds.ns_per_message", "ns"),
    ("core.rounds.messages_per_trial", "count"),
    ("core.faults.schedule_ns_per_trial", "ns"),
    ("engine.construct_ns_per_member", "ns"),
    ("engine.decide_ns_per_verdict", "ns"),
    ("core.simulator.ns_per_node", "ns"),
    ("langs.verdict_ns_per_node", "ns"),
    ("engine.plan_cache.hit_ratio", "ratio"),
    ("sweep.trial_ns", "ns"),
    ("sweep.executor_overhead_frac", "ratio"),
    ("sweep.emit_ns_per_record", "ns"),
    ("par.speedup", "x"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.parks", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.parse_ns_per_record", "ns"),
    ("serve.first_record_p50_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric name with its unit, per-case entries included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(CASES.iter().map(|c| (format!("case.{c}.trial_us"), "us")));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_sweep::Registry;

    #[test]
    fn workloads_name_registry_scenarios() {
        let registry = Registry::builtin();
        for def in WORKLOADS {
            assert!(registry.get(def.scenario).is_some(), "{}", def.scenario);
            assert_eq!(find(def.name).map(|d| d.name), Some(def.name));
        }
        for home in LAYER_HOMES {
            // A home is a registry scenario decomposed locally; it need
            // not be a timed workload, but it is never a served one.
            assert!(registry.get(home).is_some(), "{home}");
            assert!(find(home).is_none_or(|d| !d.served), "{home}");
        }
    }

    #[test]
    fn cases_follow_the_registry_axis() {
        for (i, name) in CASES.iter().enumerate() {
            assert_eq!(
                rlnc_langs::registry::CaseId::from_index(i as u64).name(),
                *name
            );
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let names: Vec<String> = per_layer()
            .into_iter()
            .map(|(n, _)| n)
            .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
            .collect();
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
    }
}
