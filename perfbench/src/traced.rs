//! The traced run of a local scenario: every grid point prepared twice
//! and all its trials run through `Prepared::run_trial_with` with
//! `rlnc-obs` off (the untraced reference); a sample of the trials then
//! runs again, decomposed into layer calls under spans with `rlnc-obs`
//! on; last come whole sweeps with tracing off, for the executor's own
//! overhead. Meant to run with `RLNC_THREADS=1`, so every span is
//! single-threaded wall time.

use crate::layers::{self, case_of, same_outcome, Work};
use crate::report::Report;
use crate::stats::digest;
use crate::trace::Tracer;
use rlnc_par::Scale;
use rlnc_sweep::{emit, Registry, SweepExecutor};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Trials of each grid point the traced run decomposes: the first one in
/// this many (at least one per point), so the whole grid fits one run.
pub const SAMPLE_DIVISOR: u64 = 4;

/// Untraced whole sweeps whose median wall time is compared with the
/// traced prepare and trial times.
const SWEEPS: usize = 3;

fn ns_per(total_ns: u64, units: u64) -> Option<f64> {
    (units > 0 && total_ns > 0).then(|| total_ns as f64 / units as f64)
}

/// Runs the traced decomposition of `scenario` at `scale` and writes the
/// span tree to `tree_out`.
pub fn run(scenario: &str, scale: Scale, seed: u64, tree_out: &Path) -> Result<Report, String> {
    let registry = Registry::builtin();
    let spec = registry
        .get(scenario)
        .ok_or_else(|| format!("unknown scenario '{scenario}'"))?;
    let exec = SweepExecutor::new(scale).with_seed(seed);
    let seq = exec.scenario_sequence(&spec.name);
    let mut t = Tracer::new();
    let mut work = Work::default();
    let mut r = Report::new();
    let mut prepare_ns = 0u64;
    let mut untraced_ns = 0u64;
    let mut sample_untraced_ns = 0u64;
    let mut traced_ns = 0u64;
    let mut trials = 0u64;
    let mut per_case: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();

    rlnc_obs::set_enabled(false);
    for point in spec.grid(scale) {
        let point_seq = seq.child(point.index);
        let start = Instant::now();
        let official = spec.workload.prepare(&point, point_seq);
        prepare_ns += start.elapsed().as_nanos() as u64;
        rlnc_obs::set_enabled(true);
        let (state, _) = t.span("prepare", |t| {
            layers::prepare(&spec.workload, &point, point_seq, t, &mut work)
        });
        rlnc_obs::set_enabled(false);
        let mut state = state?;
        let mut scratch = official.scratch();
        let case = case_of(&spec.workload, &point).map(|c| c.name());
        let k = point.trials.div_ceil(SAMPLE_DIVISOR).max(1);
        // Every trial untraced and back to back, as in an executor
        // batch; then the first `k` again, decomposed.
        let seed = |trial: u64| point_seq.child(1).child(trial);
        let mut expected = Vec::new();
        let start = Instant::now();
        for trial in 0..point.trials {
            expected.push(official.run_trial_with(&mut scratch, seed(trial)));
            if trial + 1 == k {
                sample_untraced_ns += start.elapsed().as_nanos() as u64;
            }
        }
        let point_ns = start.elapsed().as_nanos() as u64;
        rlnc_obs::set_enabled(true);
        for (trial, expected) in (0..k).zip(&expected) {
            let (got, traced) = t.span("trial", |t| {
                layers::trial(&mut state, seed(trial), t, &mut work)
            });
            traced_ns += traced;
            r.add("attempted", 1);
            if !same_outcome(expected, &got) {
                eprintln!(
                    "perfbench: {scenario} point {} trial {trial}: decomposed {got:?} != run_trial_with {expected:?}",
                    point.index
                );
                r.add("failed", 1);
            }
        }
        rlnc_obs::set_enabled(false);
        if let Some(case) = case {
            let entry = per_case.entry(case).or_default();
            entry.0 += point_ns;
            entry.1 += point.trials;
        }
        untraced_ns += point_ns;
        trials += point.trials;
    }

    // Whole sweeps, untraced, for wall time against prepare + trials.
    let mut walls = Vec::new();
    let mut run = None;
    for _ in 0..SWEEPS {
        let start = Instant::now();
        run = Some(exec.run(spec));
        walls.push(start.elapsed().as_nanos() as f64);
    }
    let run = run.expect("at least one sweep");
    let wall_ns = crate::stats::median(&walls);
    let start = Instant::now();
    let json = emit::to_json(&run);
    let emit_ns = start.elapsed().as_nanos() as f64;
    r.put("digest", digest(&json));
    r.put("trials", trials);
    r.put("trials_per_s_1t", trials as f64 * 1e9 / wall_ns);
    r.put(
        "m.sweep.executor_overhead_frac",
        (wall_ns - (prepare_ns + untraced_ns) as f64) / wall_ns,
    );
    r.put(
        "m.sweep.emit_ns_per_record",
        emit_ns / run.records.len() as f64,
    );
    r.put("m.sweep.trial_ns", untraced_ns as f64 / trials as f64);
    r.put("m.trace.coverage", t.coverage());
    r.put(
        "m.trace.overhead_frac",
        traced_ns as f64 / sample_untraced_ns as f64 - 1.0,
    );

    let metric = |r: &mut Report, name: &str, value: Option<f64>| {
        if let Some(v) = value {
            r.put(format!("m.{name}"), v);
        }
    };
    metric(
        &mut r,
        "graph.generate_ns_per_node",
        ns_per(t.total_ns("graph.generate"), work.generated_nodes),
    );
    metric(
        &mut r,
        "graph.ids_ns_per_node",
        ns_per(t.total_ns("graph.ids"), work.id_nodes),
    );
    metric(
        &mut r,
        "graph.arena.extract_ns_per_member",
        ns_per(t.total_ns("engine.plan.build"), work.plan_members),
    );
    metric(
        &mut r,
        "engine.plan_build_ns_per_view",
        ns_per(t.total_ns("engine.plan.build"), work.plan_views),
    );
    for stage in ["ramsey", "hard_instance", "union", "glued"] {
        let name = format!("derand.{stage}_stage");
        let total = t.total_ns(&name);
        metric(
            &mut r,
            &format!("{name}_s"),
            (t.count(&name) > 0).then_some(total as f64 / 1e9),
        );
    }
    let fault_trials = t.count("core.rounds.run_with_faults");
    metric(
        &mut r,
        "core.rounds.ns_per_message",
        ns_per(t.total_ns("core.rounds.run_with_faults"), work.messages),
    );
    metric(
        &mut r,
        "core.rounds.messages_per_trial",
        (fault_trials > 0).then(|| work.messages as f64 / fault_trials as f64),
    );
    metric(
        &mut r,
        "core.faults.schedule_ns_per_trial",
        ns_per(
            t.total_ns("core.faults.schedule"),
            t.count("core.faults.schedule"),
        ),
    );
    metric(
        &mut r,
        "engine.construct_ns_per_member",
        ns_per(t.total_ns("engine.construct"), work.construct_members),
    );
    metric(
        &mut r,
        "engine.decide_ns_per_verdict",
        ns_per(t.total_ns("engine.decide"), t.count("engine.decide")),
    );
    metric(
        &mut r,
        "core.simulator.ns_per_node",
        ns_per(
            t.total_ns("core.simulator.run_randomized"),
            work.simulated_nodes,
        ),
    );
    metric(
        &mut r,
        "langs.verdict_ns_per_node",
        ns_per(t.total_ns("langs.verdict"), work.verdict_nodes),
    );
    let lookups = work.cache_hits + work.cache_misses;
    metric(
        &mut r,
        "engine.plan_cache.hit_ratio",
        (lookups > 0).then(|| work.cache_hits as f64 / lookups as f64),
    );
    for (case, (ns, n)) in per_case {
        r.put(
            format!("m.case.{case}.trial_us"),
            ns as f64 / n as f64 / 1e3,
        );
    }

    std::fs::write(tree_out, t.render())
        .map_err(|e| format!("cannot write span tree {}: {e}", tree_out.display()))?;
    r.put("span_tree", tree_out.display());
    Ok(r)
}
