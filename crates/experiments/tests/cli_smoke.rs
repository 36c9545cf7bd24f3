//! Smoke coverage of the experiment harness and its CLI: the library entry
//! point (`run_by_id` at `Scale::Smoke`) for the first and last experiments,
//! and the compiled `rlnc-experiments` binary end to end.

use rlnc_experiments::{run_by_id, Scale};

#[test]
fn e1_smoke_run_produces_a_consistent_report() {
    let report = run_by_id("e1", Scale::Smoke).expect("e1 exists");
    assert_eq!(report.id, "E1");
    assert!(report.all_consistent(), "findings: {:?}", report.findings);
    let markdown = report.to_markdown();
    assert!(markdown.contains("E1"));
    assert!(markdown.contains("consistent"));
}

#[test]
fn e10_smoke_run_produces_a_consistent_report() {
    let report = run_by_id("e10", Scale::Smoke).expect("e10 exists");
    assert_eq!(report.id, "E10");
    assert!(report.all_consistent(), "findings: {:?}", report.findings);
    assert!(!report.table.rows.is_empty());
}

#[test]
fn cli_binary_runs_e1_and_e10_at_smoke_scale() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let out_path = std::env::temp_dir().join(format!(
        "rlnc-cli-smoke-{}.md",
        std::process::id()
    ));
    let output = std::process::Command::new(exe)
        .args(["--scale", "smoke", "--only", "e1", "e10"])
        .arg("--markdown")
        .arg(&out_path)
        .output()
        .expect("failed to spawn rlnc-experiments");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "CLI exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(stdout.contains("E1"), "stdout missing E1 report:\n{stdout}");
    assert!(stdout.contains("E10"), "stdout missing E10 report:\n{stdout}");
    let written = std::fs::read_to_string(&out_path).expect("markdown report written");
    assert!(written.contains("E1") && written.contains("E10"));
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn cli_binary_rejects_unknown_arguments() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let output = std::process::Command::new(exe)
        .arg("--definitely-not-a-flag")
        .output()
        .expect("failed to spawn rlnc-experiments");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn cli_list_prints_every_experiment_and_exits_zero() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let output = std::process::Command::new(exe)
        .arg("--list")
        .output()
        .expect("failed to spawn rlnc-experiments");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for e in rlnc_experiments::EXPERIMENTS {
        assert!(stdout.contains(e.id), "--list missing {}:\n{stdout}", e.id);
        assert!(
            stdout.contains(e.description),
            "--list missing description of {}:\n{stdout}",
            e.id
        );
    }
}

#[test]
fn cli_seed_flag_is_accepted_and_reproducible() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let run = |seed: &str| {
        let output = std::process::Command::new(exe)
            .args(["--scale", "smoke", "--seed", seed, "--only", "e1"])
            .output()
            .expect("failed to spawn rlnc-experiments");
        assert!(
            output.status.success(),
            "seeded run failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let a = run("7");
    let b = run("7");
    assert_eq!(a, b, "same seed must reproduce the same report");
    // Hex spelling is accepted too.
    let h = run("0x7");
    assert_eq!(a, h);
    // A bad seed is a usage error.
    let output = std::process::Command::new(exe)
        .args(["--seed", "not-a-number"])
        .output()
        .expect("failed to spawn rlnc-experiments");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn sweep_subcommand_runs_exports_and_is_byte_reproducible() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let tmp = std::env::temp_dir();
    let json_path = tmp.join(format!("rlnc-sweep-smoke-{}.json", std::process::id()));
    let csv_path = tmp.join(format!("rlnc-sweep-smoke-{}.csv", std::process::id()));
    let run_sweep = || {
        let output = std::process::Command::new(exe)
            .args(["sweep", "--scenario", "smoke", "--scale", "smoke", "--seed", "11"])
            .arg("--out")
            .arg(&json_path)
            .arg("--csv")
            .arg(&csv_path)
            .output()
            .expect("failed to spawn rlnc-experiments sweep");
        assert!(
            output.status.success(),
            "sweep failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let stdout = run_sweep();
    assert!(stdout.contains("sweep `smoke`"), "stdout:\n{stdout}");
    let json_a = std::fs::read_to_string(&json_path).expect("JSON export written");
    let csv = std::fs::read_to_string(&csv_path).expect("CSV export written");
    assert!(csv.starts_with("scenario,point,family,"));
    assert!(csv.lines().count() > 1);

    // The export must parse back (the --check mode CI uses).
    let parsed = rlnc_sweep::emit::from_json(&json_a).expect("export parses back");
    assert_eq!(parsed.scenario, "smoke");
    let check = std::process::Command::new(exe)
        .args(["sweep", "--check"])
        .arg(&json_path)
        .output()
        .expect("failed to spawn sweep --check");
    assert!(check.status.success());
    assert!(String::from_utf8_lossy(&check.stdout).contains("OK"));

    // Re-running with the same seed produces byte-identical records.
    let _ = run_sweep();
    let json_b = std::fs::read_to_string(&json_path).unwrap();
    assert_eq!(json_a, json_b, "same-seed sweep exports must be byte-identical");

    let _ = std::fs::remove_file(&json_path);
    let _ = std::fs::remove_file(&csv_path);
}

#[test]
fn sweep_subcommand_lists_scenarios_and_rejects_unknown_ones() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let output = std::process::Command::new(exe)
        .args(["sweep", "--list-scenarios"])
        .output()
        .expect("failed to spawn rlnc-experiments sweep");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in ["smoke", "slack-ring", "slack-topologies", "resilient-boundary", "boosting-decay"] {
        assert!(stdout.contains(name), "--list-scenarios missing {name}:\n{stdout}");
    }

    let output = std::process::Command::new(exe)
        .args(["sweep", "--scenario", "no-such-scenario"])
        .output()
        .expect("failed to spawn rlnc-experiments sweep");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown scenario"));

    // Bare `sweep` without a scenario is a usage error.
    let output = std::process::Command::new(exe)
        .arg("sweep")
        .output()
        .expect("failed to spawn rlnc-experiments sweep");
    assert_eq!(output.status.code(), Some(2));

    // --check on garbage exits 1.
    let garbage = std::env::temp_dir().join(format!("rlnc-garbage-{}.json", std::process::id()));
    std::fs::write(&garbage, "not json at all").unwrap();
    let output = std::process::Command::new(exe)
        .args(["sweep", "--check"])
        .arg(&garbage)
        .output()
        .expect("failed to spawn sweep --check");
    assert_eq!(output.status.code(), Some(1));
    let _ = std::fs::remove_file(&garbage);
}

#[test]
fn bench_export_subcommand_writes_the_perf_trajectory() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let out_path = std::env::temp_dir().join(format!(
        "rlnc-bench-export-{}.json",
        std::process::id()
    ));
    let output = std::process::Command::new(exe)
        .args(["bench-export", "--quick"])
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("failed to spawn rlnc-experiments bench-export");
    assert!(
        output.status.success(),
        "bench-export failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("engine-vs-legacy"), "stdout:\n{stdout}");
    assert!(stdout.contains("speedup"), "stdout:\n{stdout}");
    let written = std::fs::read_to_string(&out_path).expect("JSON export written");
    assert!(written.contains("\"schema\": \"rlnc-bench-export-v2\""));
    assert!(written.contains("ring-monte-carlo"));
    assert!(written.contains("\"working_set_bytes\""));
    let _ = std::fs::remove_file(&out_path);

    // Unknown flags are usage errors.
    let bad = std::process::Command::new(exe)
        .args(["bench-export", "--turbo"])
        .output()
        .expect("failed to spawn bench-export");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn quiet_flag_silences_status_notes_but_not_stdout_or_exit_codes() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let tmp = std::env::temp_dir();
    let md_path = tmp.join(format!("rlnc-quiet-{}.md", std::process::id()));
    let run = |quiet: bool| {
        let mut args = vec!["--scale", "smoke", "--only", "e1"];
        if quiet {
            args.push("--quiet");
        }
        let output = std::process::Command::new(exe)
            .args(&args)
            .arg("--markdown")
            .arg(&md_path)
            .output()
            .expect("failed to spawn rlnc-experiments");
        assert!(output.status.success());
        (
            String::from_utf8_lossy(&output.stdout).into_owned(),
            String::from_utf8_lossy(&output.stderr).into_owned(),
        )
    };
    let (loud_stdout, loud_stderr) = run(false);
    assert!(loud_stderr.contains("wrote"), "status note expected:\n{loud_stderr}");
    let (quiet_stdout, quiet_stderr) = run(true);
    assert!(!quiet_stderr.contains("wrote"), "--quiet leaked a note:\n{quiet_stderr}");
    // The report itself is untouched.
    assert_eq!(loud_stdout, quiet_stdout);
    let _ = std::fs::remove_file(&md_path);
}

#[test]
fn trace_out_deterministic_section_is_reproducible_and_parses_back() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let tmp = std::env::temp_dir();
    let trace_path = tmp.join(format!("rlnc-trace-{}.json", std::process::id()));
    let run = || {
        let output = std::process::Command::new(exe)
            .args([
                "sweep", "--scenario", "fault-matrix", "--scale", "smoke", "--seed", "3",
                "--quiet",
            ])
            .arg("--trace-out")
            .arg(&trace_path)
            .output()
            .expect("failed to spawn rlnc-experiments sweep --trace-out");
        assert!(
            output.status.success(),
            "sweep --trace-out failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read_to_string(&trace_path).expect("trace written")
    };
    let text_a = run();
    let doc_a = rlnc_experiments::trace::from_json(&text_a).expect("trace parses back");
    assert!(
        !doc_a.deterministic.is_empty(),
        "a fault-matrix sweep must populate deterministic metrics"
    );
    assert!(doc_a.deterministic.get("sweep.runs").is_some());
    assert!(doc_a.timing.get("pool.workers").is_some());

    // Across process runs (fresh thread schedules) the deterministic
    // section is byte-identical; the timing section may differ.
    let text_b = run();
    let doc_b = rlnc_experiments::trace::from_json(&text_b).expect("trace parses back");
    assert_eq!(
        doc_a.deterministic_json(),
        doc_b.deterministic_json(),
        "deterministic trace section must not depend on scheduling"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn bench_gate_passes_identical_exports_and_fails_injected_regressions() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let tmp = std::env::temp_dir();
    let base_path = tmp.join(format!("rlnc-gate-base-{}.json", std::process::id()));
    let slow_path = tmp.join(format!("rlnc-gate-slow-{}.json", std::process::id()));

    // Measure once, then gate the export against itself: must pass.
    let output = std::process::Command::new(exe)
        .args(["bench-export", "--quick", "--check", "--quiet"])
        .arg("--out")
        .arg(&base_path)
        .output()
        .expect("failed to spawn bench-export");
    assert!(
        output.status.success(),
        "bench-export --check failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let baseline = std::fs::read_to_string(&base_path).unwrap();
    let gate = std::process::Command::new(exe)
        .args(["bench-gate", "--fresh"])
        .arg(&base_path)
        .arg("--against")
        .arg(&base_path)
        .output()
        .expect("failed to spawn bench-gate");
    assert!(
        gate.status.success(),
        "self-gate must pass:\n{}",
        String::from_utf8_lossy(&gate.stdout)
    );
    assert!(String::from_utf8_lossy(&gate.stdout).contains("bench-gate: ok"));

    // Inject a 10x engine slowdown into every group: gate must exit 1.
    let parsed = rlnc_experiments::bench_export::from_json(&baseline).unwrap();
    let mut slowed = parsed.clone();
    for group in &mut slowed.groups {
        group.engine_ns *= 10;
    }
    std::fs::write(&slow_path, rlnc_experiments::bench_export::to_json(&slowed)).unwrap();
    let gate = std::process::Command::new(exe)
        .args(["bench-gate", "--fresh"])
        .arg(&slow_path)
        .arg("--against")
        .arg(&base_path)
        .output()
        .expect("failed to spawn bench-gate");
    assert_eq!(gate.status.code(), Some(1), "10x regression must fail the gate");
    assert!(String::from_utf8_lossy(&gate.stdout).contains("REGRESSED"));

    // A wide-open tolerance waives it again.
    let gate = std::process::Command::new(exe)
        .args(["bench-gate", "--fresh"])
        .arg(&slow_path)
        .arg("--against")
        .arg(&base_path)
        .args(["--tolerance", "20.0"])
        .output()
        .expect("failed to spawn bench-gate");
    assert!(gate.status.success());

    // Usage errors exit 2.
    let bad = std::process::Command::new(exe)
        .args(["bench-gate", "--tolerance", "0.5"])
        .output()
        .expect("failed to spawn bench-gate");
    assert_eq!(bad.status.code(), Some(2));

    let _ = std::fs::remove_file(&base_path);
    let _ = std::fs::remove_file(&slow_path);
}

#[test]
fn sweep_shard_exports_merge_byte_identically_to_the_full_run() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let full_path = tmp.join(format!("rlnc-shard-full-{pid}.json"));
    let merged_path = tmp.join(format!("rlnc-shard-merged-{pid}.json"));
    let shard_paths: Vec<_> =
        (1..=3).map(|i| tmp.join(format!("rlnc-shard-{i}of3-{pid}.json"))).collect();

    let sweep = |extra: &[&str], out: &std::path::Path| {
        let output = std::process::Command::new(exe)
            .args(["sweep", "--scenario", "fault-matrix", "--scale", "smoke", "--seed", "21"])
            .args(extra)
            .arg("--out")
            .arg(out)
            .arg("--quiet")
            .output()
            .expect("failed to spawn rlnc-experiments sweep");
        assert!(
            output.status.success(),
            "sweep {extra:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    sweep(&[], &full_path);
    for (i, path) in shard_paths.iter().enumerate() {
        sweep(&["--shard", &format!("{}/3", i + 1)], path);
    }

    // sweep-merge reassembles the shard exports byte-identically.
    let merge = std::process::Command::new(exe)
        .arg("sweep-merge")
        .args(&shard_paths)
        .arg("--out")
        .arg(&merged_path)
        .arg("--quiet")
        .output()
        .expect("failed to spawn sweep-merge");
    assert!(
        merge.status.success(),
        "sweep-merge failed: {}",
        String::from_utf8_lossy(&merge.stderr)
    );
    let full = std::fs::read_to_string(&full_path).unwrap();
    let merged = std::fs::read_to_string(&merged_path).unwrap();
    assert_eq!(full, merged, "merged shard exports must be byte-identical to the full run");

    // Dropping a shard makes the merge incomplete: exit 1 without
    // --allow-partial, exit 0 with it.
    let partial = std::process::Command::new(exe)
        .arg("sweep-merge")
        .args(&shard_paths[..2])
        .arg("--quiet")
        .output()
        .expect("failed to spawn sweep-merge");
    assert_eq!(partial.status.code(), Some(1), "incomplete merge must fail");
    assert!(String::from_utf8_lossy(&partial.stderr).contains("grid points"));
    let partial_ok = std::process::Command::new(exe)
        .arg("sweep-merge")
        .args(&shard_paths[..2])
        .args(["--allow-partial", "--quiet"])
        .output()
        .expect("failed to spawn sweep-merge");
    assert!(partial_ok.status.success());

    // A record conflict (same metadata, different content) is refused.
    let forged_path = tmp.join(format!("rlnc-shard-forged-{pid}.json"));
    let other = {
        let out = tmp.join(format!("rlnc-shard-otherseed-{pid}.json"));
        sweep(&["--shard", "1/3"], &full_path); // reuse full_path as shard 1 at seed 21
        let output = std::process::Command::new(exe)
            .args(["sweep", "--scenario", "fault-matrix", "--scale", "smoke", "--seed", "22"])
            .args(["--shard", "1/3"])
            .arg("--out")
            .arg(&out)
            .arg("--quiet")
            .output()
            .expect("failed to spawn rlnc-experiments sweep");
        assert!(output.status.success());
        std::fs::read_to_string(&out).unwrap().replace("\"master_seed\": 22", "\"master_seed\": 21")
    };
    std::fs::write(&forged_path, other).unwrap();
    let conflict = std::process::Command::new(exe)
        .arg("sweep-merge")
        .arg(&full_path)
        .arg(&forged_path)
        .arg("--quiet")
        .output()
        .expect("failed to spawn sweep-merge");
    assert_eq!(conflict.status.code(), Some(1), "conflicting records must fail the merge");
    assert!(String::from_utf8_lossy(&conflict.stderr).contains("conflicting records"));

    // Malformed --shard specs are usage errors (exit 2) on one line.
    for bad in ["0/4", "5/4", "x/y", "3", "4/0"] {
        let output = std::process::Command::new(exe)
            .args(["sweep", "--scenario", "smoke", "--shard", bad])
            .output()
            .expect("failed to spawn rlnc-experiments sweep");
        assert_eq!(output.status.code(), Some(2), "--shard {bad} must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr.trim().lines().count(), 1, "--shard {bad} error:\n{stderr}");
    }
    // A bare --shard with no value is a usage error too.
    let output = std::process::Command::new(exe)
        .args(["sweep", "--scenario", "smoke", "--shard"])
        .output()
        .expect("failed to spawn rlnc-experiments sweep");
    assert_eq!(output.status.code(), Some(2));
    // Bare sweep-merge without inputs as well.
    let output = std::process::Command::new(exe)
        .arg("sweep-merge")
        .output()
        .expect("failed to spawn sweep-merge");
    assert_eq!(output.status.code(), Some(2));

    for path in shard_paths.iter().chain([&full_path, &merged_path, &forged_path]) {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(tmp.join(format!("rlnc-shard-otherseed-{pid}.json")));
}

#[test]
fn sweep_merge_combines_all_shard_traces_not_just_the_first() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let out_paths: Vec<_> =
        (1..=2).map(|i| tmp.join(format!("rlnc-trmerge-{i}of2-{pid}.json"))).collect();
    let trace_paths: Vec<_> = (1..=2)
        .map(|i| tmp.join(format!("rlnc-trmerge-trace-{i}of2-{pid}.json")))
        .collect();
    let merged_trace = tmp.join(format!("rlnc-trmerge-merged-{pid}.json"));

    for i in 0..2 {
        let output = std::process::Command::new(exe)
            .args(["sweep", "--scenario", "fault-matrix", "--scale", "smoke", "--seed", "9"])
            .args(["--shard", &format!("{}/2", i + 1)])
            .arg("--out")
            .arg(&out_paths[i])
            .arg("--trace-out")
            .arg(&trace_paths[i])
            .arg("--quiet")
            .output()
            .expect("failed to spawn rlnc-experiments sweep");
        assert!(
            output.status.success(),
            "shard sweep failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }

    let merge = std::process::Command::new(exe)
        .arg("sweep-merge")
        .args(&out_paths)
        .arg("--trace")
        .arg(&trace_paths[0])
        .arg("--trace")
        .arg(&trace_paths[1])
        .arg("--trace-out")
        .arg(&merged_trace)
        .arg("--quiet")
        .output()
        .expect("failed to spawn sweep-merge");
    assert!(
        merge.status.success(),
        "sweep-merge failed: {}",
        String::from_utf8_lossy(&merge.stderr)
    );

    let counter = |doc: &rlnc_obs::TraceDocument, key: &str| match doc.deterministic.get(key) {
        Some(rlnc_obs::MetricValue::Counter(n)) => *n,
        other => panic!("{key}: expected a counter, got {other:?}"),
    };
    let docs: Vec<_> = trace_paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("shard trace written");
            rlnc_experiments::trace::from_json(&text).expect("shard trace parses")
        })
        .collect();
    let merged = rlnc_experiments::trace::from_json(
        &std::fs::read_to_string(&merged_trace).expect("merged trace written"),
    )
    .expect("merged trace parses");

    // Every shard's counters land in the merged document: each shard
    // process records sweep.runs = 1, so the merge must report 2 — a merge
    // that keeps only the first trace would report 1.
    assert_eq!(counter(&merged, "sweep.runs"), 2);
    assert_eq!(
        counter(&merged, "sweep.points.completed"),
        counter(&docs[0], "sweep.points.completed")
            + counter(&docs[1], "sweep.points.completed"),
    );
    // And the whole document equals the library-level merge of the inputs.
    let mut expected = docs[0].clone();
    expected.merge(&docs[1]).expect("shard traces merge");
    assert_eq!(merged.to_json(), expected.to_json());

    for path in out_paths.iter().chain(&trace_paths).chain([&merged_trace]) {
        let _ = std::fs::remove_file(path);
    }
}

/// Kills the resident server on drop so a failing assertion can't leak the
/// child process into the test harness.
struct ServerGuard(std::process::Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sweep_serve_streams_byte_identical_runs_and_warms_the_plan_cache() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let socket = tmp.join(format!("rlnc-serve-cli-{pid}.sock"));
    let endpoint = format!("unix:{}", socket.display());
    let local_path = tmp.join(format!("rlnc-serve-local-{pid}.json"));
    let served_path = tmp.join(format!("rlnc-serve-streamed-{pid}.json"));

    let mut server = ServerGuard(
        std::process::Command::new(exe)
            .args(["sweep-serve", "--listen", &endpoint, "--quiet"])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("failed to spawn sweep-serve"),
    );

    let client = |action_args: &[&str]| {
        let output = std::process::Command::new(exe)
            .args(["serve-client", "--connect", &endpoint])
            .args(action_args)
            .arg("--quiet")
            .output()
            .expect("failed to spawn serve-client");
        assert!(
            output.status.success(),
            "serve-client {action_args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };

    // serve-client retries the connect, so no sleep is needed here.
    let listing = client(&["list-scenarios"]);
    assert!(listing.contains("fault-matrix"), "listing:\n{listing}");

    let run_args = ["run", "--scenario", "smoke", "--scale", "smoke", "--seed", "31"];
    let first = client(
        &[&run_args[..], &["--out", served_path.to_str().unwrap()]].concat(),
    );
    assert!(first.contains("streamed"), "run output:\n{first}");

    // The streamed export is byte-identical to a local run.
    let local = std::process::Command::new(exe)
        .args(["sweep", "--scenario", "smoke", "--scale", "smoke", "--seed", "31"])
        .arg("--out")
        .arg(&local_path)
        .arg("--quiet")
        .output()
        .expect("failed to spawn local sweep");
    assert!(local.status.success());
    assert_eq!(
        std::fs::read_to_string(&served_path).unwrap(),
        std::fs::read_to_string(&local_path).unwrap(),
        "served export must be byte-identical to a local run"
    );

    // An identical repeat request is answered from the warm plan cache:
    // the hits delta on the summary line must be nonzero.
    let repeat = client(&run_args);
    let hits: u64 = repeat
        .lines()
        .find_map(|line| line.split("plan_cache_hits_delta=").nth(1))
        .and_then(|rest| rest.split(&[',', ')'][..]).next())
        .and_then(|digits| digits.parse().ok())
        .expect("run output carries plan_cache_hits_delta");
    assert!(hits > 0, "repeat request must hit the warm cache:\n{repeat}");

    let status = client(&["status"]);
    // list-scenarios, two runs, and the status request itself.
    assert!(status.contains("requests=4"), "status:\n{status}");
    assert!(status.contains("errors=0"), "status:\n{status}");

    client(&["shutdown"]);
    let code = server.0.wait().expect("server exits after shutdown");
    assert!(code.success(), "sweep-serve must exit 0 after shutdown: {code:?}");

    let _ = std::fs::remove_file(&local_path);
    let _ = std::fs::remove_file(&served_path);
}

#[test]
fn serve_subcommands_reject_bad_usage() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    for args in [
        &["sweep-serve"][..],
        &["sweep-serve", "--listen", "carrier-pigeon:coop"][..],
        &["serve-client", "status"][..],
        &["serve-client", "--connect", "unix:/tmp/x.sock"][..],
        &["serve-client", "--connect", "unix:/tmp/x.sock", "run", "status"][..],
    ] {
        let output = std::process::Command::new(exe)
            .args(args)
            .output()
            .expect("failed to spawn rlnc-experiments");
        assert_eq!(output.status.code(), Some(2), "{args:?} must be a usage error");
    }
}

#[test]
fn cli_binary_rejects_unknown_experiment_ids_and_bad_scales() {
    let exe = env!("CARGO_BIN_EXE_rlnc-experiments");
    // A typo'd id must fail loudly instead of running nothing and exiting 0.
    let output = std::process::Command::new(exe)
        .args(["--scale", "smoke", "--only", "e99"])
        .output()
        .expect("failed to spawn rlnc-experiments");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown experiment id"));

    let output = std::process::Command::new(exe)
        .args(["--scale", "warp"])
        .output()
        .expect("failed to spawn rlnc-experiments");
    assert_eq!(output.status.code(), Some(2));

    let output = std::process::Command::new(exe)
        .arg("--markdown")
        .output()
        .expect("failed to spawn rlnc-experiments");
    assert_eq!(output.status.code(), Some(2));
}
