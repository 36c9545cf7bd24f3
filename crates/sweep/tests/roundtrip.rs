//! End-to-end coverage of the sweep pipeline: run a built-in scenario,
//! export it, parse it back, and resume from the export — everything must
//! be bit-exact.

use rlnc_par::Scale;
use rlnc_sweep::{emit, Registry, SweepExecutor};

#[test]
fn smoke_scenario_runs_exports_and_round_trips() {
    let registry = Registry::builtin();
    let spec = registry.get("smoke").expect("built-in smoke scenario");
    let exec = SweepExecutor::new(Scale::Smoke).with_seed(0xC1);
    let run = exec.run(spec);
    assert_eq!(run.records.len(), spec.grid(Scale::Smoke).len());

    // JSON round-trip is the identity, and emission is byte-deterministic.
    let json = emit::to_json(&run);
    let parsed = emit::from_json(&json).expect("exported JSON parses back");
    assert_eq!(parsed, run);
    assert_eq!(emit::to_json(&parsed), json);
    let rerun = exec.run(spec);
    assert_eq!(emit::to_json(&rerun), json, "same seed must re-emit byte-identical JSON");

    // CSV carries one line per record under the shared header.
    let csv = emit::to_csv(&run);
    assert_eq!(csv.lines().count(), 1 + run.records.len());
    assert!(csv.starts_with(&emit::CSV_COLUMNS.join(",")));

    // Markdown renders every record row.
    let md = run.to_markdown();
    assert!(md.contains("sweep `smoke`"));
    assert!(md.contains("| torus |"));

    // Resuming from the parsed export recomputes nothing and loses nothing.
    let resumed = exec.resume_where(spec, &parsed.records, |_| true);
    assert_eq!(resumed, run);
}

#[test]
fn resilient_boundary_scenario_matches_corollary_1_at_smoke_scale() {
    // The sweep engine must reproduce the E5 statistics: on the yes side
    // (|F| ≤ f) acceptance stays above 1/2, on the no side below 1/2, and
    // every point tracks the theoretical p^|F|.
    let registry = Registry::builtin();
    let spec = registry.get("resilient-boundary").expect("scenario");
    let run = SweepExecutor::new(Scale::Smoke).run(spec);
    for r in &run.records {
        let f = r.param_a as usize;
        let bad = rlnc_sweep::workload::planted_bad_balls(r.n as usize, r.param_b);
        let theory = rlnc_core::resilient::theoretical_acceptance(f, bad);
        assert!(
            (r.p_hat - theory).abs() < 0.05,
            "f={f} planted={} measured {} vs theory {theory}",
            r.param_b,
            r.p_hat
        );
        if bad <= f {
            assert!(r.p_hat > 0.5, "yes-side point below 1/2: {r:?}");
        } else {
            assert!(1.0 - r.p_hat > 0.5, "no-side point above 1/2: {r:?}");
        }
    }
}
