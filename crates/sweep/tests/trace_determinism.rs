//! The observability determinism contract, pinned at the sweep layer.
//!
//! `rlnc-obs` splits every export into a *deterministic* section (pure
//! function of the work requested) and a *timing* section (wall clock,
//! scheduling). This test runs the same scenarios through executor
//! variants that change **only** the schedule — default parallel,
//! `.sequential()`, and an odd batch size — and asserts the deterministic
//! section renders to byte-identical JSON every time.
//!
//! The pool-size leg of the contract runs in **subprocesses**: the
//! persistent work-stealing pool reads `RLNC_THREADS` once per process,
//! so each thread count gets its own re-exec of this test binary
//! (guarded by `RLNC_TRACE_CHILD`), and the parent asserts the sweep
//! export plus the deterministic trace section are byte-identical across
//! `RLNC_THREADS ∈ {1, 2, 8}`. Each child also reruns its sweep on the
//! warm pool and asserts the bytes don't move.
//!
//! The registry is process-global, so only one `#[test]` in this binary
//! touches the obs registry in-process: within one binary cargo may
//! interleave tests on multiple threads, and a second obs-touching test
//! would race the `reset()`/`snapshot()` windows. The subprocess parent
//! only spawns children; the child body exits immediately unless its
//! guard variable is set.

use rlnc_sweep::{Registry, SweepExecutor};

/// Runs `configure(executor)` over `scenario` with a clean registry and
/// returns the deterministic section's canonical JSON.
fn deterministic_json(
    scenario: &str,
    configure: impl FnOnce(SweepExecutor) -> SweepExecutor,
) -> String {
    let registry = Registry::builtin();
    let spec = registry.get(scenario).expect("scenario exists");
    let executor = configure(SweepExecutor::new(rlnc_par::Scale::Smoke).with_seed(5));
    rlnc_obs::reset();
    rlnc_obs::set_enabled(true);
    let run = executor.run(spec);
    rlnc_obs::set_enabled(false);
    assert!(!run.records.is_empty(), "{scenario}: sweep produced no records");
    let json = rlnc_obs::snapshot().deterministic_json();
    assert_ne!(json, "{}", "{scenario}: no deterministic metrics collected");
    json
}

#[test]
fn deterministic_section_is_schedule_independent() {
    // fault-matrix exercises rounds + faults + engine; language-matrix
    // exercises the registry-driven plan-cache path; claim2-scan
    // exercises the batched multi-algorithm kernel.
    for scenario in ["fault-matrix", "language-matrix", "claim2-scan"] {
        let parallel = deterministic_json(scenario, |e| e);
        let sequential = deterministic_json(scenario, |e| e.sequential());
        let odd_batch = deterministic_json(scenario, |e| e.with_batch(7));
        assert_eq!(
            parallel, sequential,
            "{scenario}: parallel vs sequential deterministic sections differ"
        );
        assert_eq!(
            parallel, odd_batch,
            "{scenario}: batch size leaked into the deterministic section"
        );
        // Re-running the same variant is also byte-stable.
        let parallel_again = deterministic_json(scenario, |e| e);
        assert_eq!(parallel, parallel_again, "{scenario}: rerun not reproducible");
    }
}

/// Subprocess body: only runs when re-executed by
/// `exports_are_byte_identical_across_thread_counts` with the guard
/// variable set. Runs both scenarios twice (the second pass hits the
/// already-warm pool), asserts the bytes are identical, and writes the
/// combined sweep-export + deterministic-trace document to the path in
/// `RLNC_TRACE_OUT`.
#[test]
fn child_emit_export_and_trace() {
    if std::env::var("RLNC_TRACE_CHILD").is_err() {
        return;
    }
    let out_path = std::env::var("RLNC_TRACE_OUT").expect("RLNC_TRACE_OUT set");
    let emit_once = || {
        let registry = Registry::builtin();
        let mut combined = String::new();
        for scenario in ["fault-matrix", "language-matrix", "claim2-scan"] {
            let spec = registry.get(scenario).expect("scenario exists");
            let executor = SweepExecutor::new(rlnc_par::Scale::Smoke).with_seed(5);
            rlnc_obs::reset();
            rlnc_obs::set_enabled(true);
            let run = executor.run(spec);
            rlnc_obs::set_enabled(false);
            combined.push_str(&rlnc_sweep::emit::to_json(&run));
            combined.push_str("\n---\n");
            combined.push_str(&rlnc_obs::snapshot().deterministic_json());
            combined.push('\n');
        }
        combined
    };
    let cold = emit_once();
    let warm = emit_once();
    assert_eq!(cold, warm, "warm-pool rerun changed the export bytes");
    std::fs::write(out_path, cold).expect("write child export");
}

#[test]
fn exports_are_byte_identical_across_thread_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut outputs: Vec<(&str, Vec<u8>)> = Vec::new();
    for threads in ["1", "2", "8"] {
        let out_path = std::env::temp_dir().join(format!(
            "rlnc-trace-threads-{threads}-{}.txt",
            std::process::id()
        ));
        let status = std::process::Command::new(&exe)
            .args(["child_emit_export_and_trace", "--exact", "--nocapture"])
            .env("RLNC_THREADS", threads)
            .env("RLNC_TRACE_CHILD", "1")
            .env("RLNC_TRACE_OUT", &out_path)
            .status()
            .expect("spawn child test process");
        assert!(status.success(), "child with RLNC_THREADS={threads} failed");
        let bytes = std::fs::read(&out_path).expect("read child export");
        let _ = std::fs::remove_file(&out_path);
        assert!(!bytes.is_empty(), "child with RLNC_THREADS={threads} wrote nothing");
        outputs.push((threads, bytes));
    }
    let (base_threads, base) = &outputs[0];
    for (threads, bytes) in &outputs[1..] {
        assert_eq!(
            bytes, base,
            "RLNC_THREADS={threads} export differs from RLNC_THREADS={base_threads}"
        );
    }
}
