//! Command-line driver for the experiment harness and the sweep engine.
//!
//! ```text
//! rlnc-experiments                     # run every experiment at standard scale
//! rlnc-experiments --list              # list experiment ids + descriptions
//! rlnc-experiments --scale full        # tighter confidence intervals
//! rlnc-experiments --seed 7 --only e5  # reseeded subset
//! rlnc-experiments --markdown out.md   # also write a markdown report
//! rlnc-experiments --trace-out t.json  # export the observability trace
//!
//! rlnc-experiments sweep --list-scenarios
//! rlnc-experiments sweep --scenario smoke --scale smoke --out sweep.json
//! rlnc-experiments sweep --scenario slack-topologies --csv sweep.csv
//! rlnc-experiments sweep --scenario fault-matrix --trace-out trace.json
//! rlnc-experiments sweep --scenario smoke --progress   # per-point stderr lines
//! rlnc-experiments sweep --check sweep.json   # validate an exported file
//!
//! rlnc-experiments sweep --scenario smoke --shard 1/3 --out s1.json  # one shard
//! rlnc-experiments sweep-merge s1.json s2.json s3.json --out full.json
//! rlnc-experiments sweep-serve --listen unix:/tmp/rlnc.sock   # resident service
//! rlnc-experiments serve-client --connect unix:/tmp/rlnc.sock run --scenario smoke
//!
//! rlnc-experiments bench-export --out BENCH_3.json           # perf trajectory
//! rlnc-experiments bench-export --quick --out BENCH_ci.json  # CI smoke
//! rlnc-experiments bench-gate --quick                        # regression gate
//! ```
//!
//! Every subcommand accepts `--quiet`: status lines (`wrote <path>`) go
//! away, warnings and all stdout output stay.

use rlnc_experiments::{
    bench_export, bench_gate, parse_experiment_id, run_all_seeded, run_by_id_seeded, status,
    trace, ExperimentReport, Scale, EXPERIMENTS,
};
use rlnc_serve::{connect_with_retry, Endpoint, ShardSpec, SweepServer};
use rlnc_sweep::{emit, Registry, SweepExecutor, SweepRun, DEFAULT_SWEEP_SEED};
use std::io::Write;
use std::time::Duration;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn parse_seed(raw: Option<&String>, flag: &str) -> u64 {
    let Some(raw) = raw else {
        usage_error(&format!("{flag} requires an unsigned 64-bit integer"));
    };
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse::<u64>()
    };
    match parsed {
        Ok(seed) => seed,
        Err(_) => usage_error(&format!("{flag}: '{raw}' is not an unsigned 64-bit integer")),
    }
}

fn parse_scale(raw: Option<&String>) -> Scale {
    match raw.map(String::as_str).map(str::parse::<Scale>) {
        Some(Ok(scale)) => scale,
        Some(Err(e)) => usage_error(&format!("--scale: {e}")),
        None => usage_error("--scale requires one of smoke|standard|full"),
    }
}

/// Enables metric collection for the rest of the process (the
/// `--trace-out` flag): counters were registered disabled, so everything
/// before this call cost one atomic load per sink.
fn enable_tracing() {
    rlnc_obs::reset();
    rlnc_obs::set_enabled(true);
}

/// Writes the collected trace (registry snapshot + pool counters) to
/// `path`.
fn write_trace(path: &str) {
    write_file(path, &trace::collect().to_json());
    status::note(&format!("wrote {path}"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep") {
        sweep_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("sweep-merge") {
        sweep_merge_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("sweep-serve") {
        sweep_serve_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("serve-client") {
        serve_client_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("bench-export") {
        bench_export_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("bench-gate") {
        bench_gate_main(&args[1..]);
        return;
    }
    experiments_main(&args);
}

/// The `bench-export` subcommand: measure the engine-vs-legacy hot paths
/// and write the perf-trajectory JSON.
fn bench_export_main(args: &[String]) {
    let mut quick = false;
    let mut check = false;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--quiet" => status::set_quiet(true),
            "--out" => {
                i += 1;
                out_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--out requires a file path"),
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: rlnc-experiments bench-export [--quick] [--check] [--quiet] \
                     [--out FILE.json]"
                );
                return;
            }
            other => usage_error(&format!("unknown bench-export argument: {other}")),
        }
        i += 1;
    }
    let export = bench_export::run(quick);
    let json = bench_export::to_json(&export);
    if check {
        // Parse-back self check: the emitted document must round-trip
        // through the same parser `bench-gate` loads baselines with.
        match bench_export::from_json(&json) {
            Ok(back) if back == export => status::note("export parses back identically"),
            Ok(_) => {
                status::warn("export parse-back differs from the measured export");
                std::process::exit(1);
            }
            Err(e) => {
                status::warn(&format!("export does not parse back: {e}"));
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = out_path {
        print!("{}", bench_export::to_summary(&export));
        write_file(&path, &json);
        status::note(&format!("wrote {path}"));
    } else {
        // JSON goes to stdout (pipe-friendly), the summary to stderr, so
        // `bench-export > BENCH_N.json` stays parseable.
        eprint!("{}", bench_export::to_summary(&export));
        print!("{json}");
    }
}

/// The `bench-gate` subcommand: compare a fresh export against the latest
/// committed trajectory file and exit 1 on regression.
fn bench_gate_main(args: &[String]) {
    let mut quick = false;
    let mut against: Option<String> = None;
    let mut fresh_path: Option<String> = None;
    let mut config = bench_gate::GateConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--quiet" => status::set_quiet(true),
            "--against" => {
                i += 1;
                against = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--against requires a BENCH_*.json path"),
                };
            }
            "--fresh" => {
                i += 1;
                fresh_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--fresh requires a bench-export JSON path"),
                };
            }
            "--tolerance" => {
                i += 1;
                config.tolerance = match args.get(i).and_then(|raw| raw.parse::<f64>().ok()) {
                    Some(t) if t >= 1.0 => t,
                    _ => usage_error("--tolerance requires a number >= 1.0"),
                };
            }
            "--tolerance-group" => {
                i += 1;
                let Some((name, raw)) = args.get(i).and_then(|s| s.split_once('=')) else {
                    usage_error("--tolerance-group requires NAME=FACTOR");
                };
                match raw.parse::<f64>() {
                    Ok(t) if t >= 1.0 => config.group_tolerance.push((name.to_string(), t)),
                    _ => usage_error("--tolerance-group requires a factor >= 1.0"),
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: rlnc-experiments bench-gate [--quick] [--quiet] \
                     [--against BENCH_N.json] [--fresh EXPORT.json] \
                     [--tolerance F] [--tolerance-group NAME=F]\n\
                     \x20  baseline defaults to the highest-numbered BENCH_*.json in .\n\
                     \x20  exit codes: 0 pass, 1 regression, 2 usage"
                );
                return;
            }
            other => usage_error(&format!("unknown bench-gate argument: {other}")),
        }
        i += 1;
    }

    let against = against.or_else(|| {
        bench_gate::latest_bench_file(std::path::Path::new("."))
            .map(|p| p.to_string_lossy().into_owned())
    });
    let Some(against) = against else {
        usage_error("no BENCH_*.json baseline found; pass --against FILE");
    };
    let baseline = match std::fs::read_to_string(&against) {
        Ok(text) => match bench_export::from_json(&text) {
            Ok(export) => export,
            Err(e) => {
                status::warn(&format!("{against}: invalid bench export: {e}"));
                std::process::exit(2);
            }
        },
        Err(e) => {
            status::warn(&format!("cannot read baseline {against}: {e}"));
            std::process::exit(2);
        }
    };

    let fresh = match fresh_path {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => match bench_export::from_json(&text) {
                Ok(export) => export,
                Err(e) => {
                    status::warn(&format!("{path}: invalid bench export: {e}"));
                    std::process::exit(2);
                }
            },
            Err(e) => {
                status::warn(&format!("cannot read fresh export {path}: {e}"));
                std::process::exit(2);
            }
        },
        None => {
            status::note("measuring fresh export...");
            bench_export::run(quick)
        }
    };

    let report = bench_gate::evaluate(&fresh, &baseline, &config);
    println!("bench-gate against {against}");
    print!("{}", report.render());
    if report.failed() {
        status::warn("bench-gate: performance regression detected");
        std::process::exit(1);
    }
    println!("bench-gate: ok");
}

/// The classic E1–E10 driver.
fn experiments_main(args: &[String]) {
    let mut scale = Scale::Standard;
    let mut seed = 0u64;
    let mut only: Vec<String> = Vec::new();
    let mut markdown_path: Option<String> = None;
    let mut trace_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = parse_scale(args.get(i));
            }
            "--seed" => {
                i += 1;
                seed = parse_seed(args.get(i), "--seed");
            }
            "--quiet" => status::set_quiet(true),
            "--only" => {
                i += 1;
                let before = only.len();
                while i < args.len() && !args[i].starts_with("--") {
                    only.push(args[i].clone());
                    i += 1;
                }
                if only.len() == before {
                    usage_error("--only requires at least one experiment id (e.g. --only e1 e10)");
                }
                continue;
            }
            "--markdown" => {
                i += 1;
                markdown_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--markdown requires a file path"),
                };
            }
            "--trace-out" => {
                i += 1;
                trace_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--trace-out requires a file path"),
                };
            }
            "--list" => {
                for e in &EXPERIMENTS {
                    println!("{:>4}  {}", e.id, e.description);
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: rlnc-experiments [--scale smoke|standard|full] [--seed N] \
                     [--only e1 e2 ...] [--markdown FILE] [--trace-out FILE.json] \
                     [--quiet] [--list]\n\
                     \x20      rlnc-experiments sweep --help\n\
                     \x20      rlnc-experiments sweep-merge --help\n\
                     \x20      rlnc-experiments sweep-serve --help\n\
                     \x20      rlnc-experiments serve-client --help\n\
                     \x20      rlnc-experiments bench-export [--quick] [--check] [--out FILE.json]\n\
                     \x20      rlnc-experiments bench-gate --help"
                );
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    // Validate ids up front so a typo (e.g. in a CI invocation) fails loudly
    // instead of silently running an empty report list and exiting 0.
    let unknown: Vec<&String> = only.iter().filter(|id| parse_experiment_id(id).is_none()).collect();
    if !unknown.is_empty() {
        for id in unknown {
            status::warn(&format!("unknown experiment id: {id}"));
        }
        std::process::exit(2);
    }

    if trace_path.is_some() {
        enable_tracing();
    }

    let reports: Vec<ExperimentReport> = if only.is_empty() {
        run_all_seeded(scale, seed)
    } else {
        only.iter().filter_map(|id| run_by_id_seeded(id, scale, seed)).collect()
    };

    let mut all_consistent = true;
    let mut combined = String::new();
    for report in &reports {
        let markdown = report.to_markdown();
        println!("{markdown}");
        combined.push_str(&markdown);
        all_consistent &= report.all_consistent();
    }

    if let Some(path) = markdown_path {
        write_file(&path, &combined);
        status::note(&format!("wrote {path}"));
    }
    if let Some(path) = trace_path {
        write_trace(&path);
    }

    if !all_consistent {
        status::warn("WARNING: at least one finding did not match the paper's claim");
        std::process::exit(1);
    }
}

/// The `sweep` subcommand: run, list, or validate scenario sweeps.
fn sweep_main(args: &[String]) {
    let mut scale = Scale::Standard;
    let mut seed = DEFAULT_SWEEP_SEED;
    let mut scenario: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut markdown_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut resume = false;
    let mut progress = false;
    let mut shard: Option<ShardSpec> = None;

    let registry = Registry::builtin();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = parse_scale(args.get(i));
            }
            "--seed" => {
                i += 1;
                seed = parse_seed(args.get(i), "--seed");
            }
            "--scenario" => {
                i += 1;
                scenario = match args.get(i) {
                    Some(name) => Some(name.clone()),
                    None => usage_error("--scenario requires a scenario name (see --list-scenarios)"),
                };
            }
            "--out" => {
                i += 1;
                out_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--out requires a file path"),
                };
            }
            "--csv" => {
                i += 1;
                csv_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--csv requires a file path"),
                };
            }
            "--markdown" => {
                i += 1;
                markdown_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--markdown requires a file path"),
                };
            }
            "--trace-out" => {
                i += 1;
                trace_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--trace-out requires a file path"),
                };
            }
            "--shard" => {
                i += 1;
                let Some(raw) = args.get(i) else {
                    usage_error("--shard requires INDEX/COUNT (1-based, e.g. --shard 2/4)");
                };
                shard = match ShardSpec::parse(raw) {
                    Ok(spec) => Some(spec),
                    Err(e) => usage_error(&format!("--shard: {e}")),
                };
            }
            "--resume" => resume = true,
            "--progress" => progress = true,
            "--quiet" => status::set_quiet(true),
            "--list-scenarios" => {
                // Name + description, then the workload/axis metadata line,
                // so new scenarios are discoverable without reading
                // registry.rs.
                for spec in registry.iter() {
                    println!("{:<20}  {}", spec.name, spec.description);
                    println!("{:<20}  {}", "", spec.summary());
                }
                return;
            }
            "--check" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    usage_error("--check requires a file path");
                };
                let text = match std::fs::read_to_string(path) {
                    Ok(text) => text,
                    Err(e) => {
                        status::warn(&format!("cannot read {path}: {e}"));
                        std::process::exit(1);
                    }
                };
                match emit::from_json(&text) {
                    Ok(run) => {
                        println!(
                            "{path}: OK — scenario '{}', {} records at scale {}",
                            run.scenario,
                            run.records.len(),
                            run.scale
                        );
                        return;
                    }
                    Err(e) => {
                        status::warn(&format!("{path}: invalid sweep export: {e}"));
                        std::process::exit(1);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: rlnc-experiments sweep --scenario NAME [--scale smoke|standard|full] \
                     [--seed N] [--shard I/N] [--out FILE.json] [--csv FILE.csv] \
                     [--markdown FILE.md] [--trace-out FILE.json] [--resume] [--progress] \
                     [--quiet]\n\
                     \x20      rlnc-experiments sweep --list-scenarios\n\
                     \x20      rlnc-experiments sweep --check FILE.json"
                );
                return;
            }
            other => usage_error(&format!("unknown sweep argument: {other}")),
        }
        i += 1;
    }

    let Some(name) = scenario else {
        usage_error("sweep requires --scenario NAME (or --list-scenarios / --check FILE)");
    };
    let Some(spec) = registry.get(&name) else {
        status::warn(&format!("unknown scenario: {name}"));
        status::warn(&format!("available scenarios: {}", registry.names().join(", ")));
        std::process::exit(2);
    };

    let executor = SweepExecutor::new(scale).with_seed(seed).with_progress(progress);
    if resume && out_path.is_none() {
        usage_error("--resume requires --out FILE (the export to resume from)");
    }
    let existing = match (&out_path, resume) {
        (Some(path), true) => match std::fs::read_to_string(path) {
            Ok(text) => match emit::from_json(&text) {
                Ok(previous) => previous.records,
                Err(e) => {
                    status::warn(&format!("ignoring unparsable previous export {path}: {e}"));
                    Vec::new()
                }
            },
            Err(_) => Vec::new(), // nothing to resume from
        },
        _ => Vec::new(),
    };
    if trace_path.is_some() {
        enable_tracing();
    }
    let run = match shard {
        Some(s) => executor.resume_shard(spec, &existing, s.index, s.count),
        None => executor.resume(spec, &existing),
    };

    print!("{}", run.to_markdown());
    if let Some(path) = out_path {
        write_file(&path, &emit::to_json(&run));
        status::note(&format!("wrote {path}"));
    }
    if let Some(path) = csv_path {
        write_file(&path, &emit::to_csv(&run));
        status::note(&format!("wrote {path}"));
    }
    if let Some(path) = markdown_path {
        write_file(&path, &run.to_markdown());
        status::note(&format!("wrote {path}"));
    }
    if let Some(path) = trace_path {
        write_trace(&path);
    }
}

/// The `sweep-merge` subcommand: reassemble shard exports (from
/// `sweep --shard I/N --out ...`) into the single-process export,
/// byte-identical to running the sweep unsharded.
fn sweep_merge_main(args: &[String]) {
    let mut inputs: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut trace_paths: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut allow_partial = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--out requires a file path"),
                };
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(path) => trace_paths.push(path.clone()),
                    None => usage_error("--trace requires a shard trace file (repeatable)"),
                }
            }
            "--trace-out" => {
                i += 1;
                trace_out = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--trace-out requires a file path"),
                };
            }
            "--allow-partial" => allow_partial = true,
            "--quiet" => status::set_quiet(true),
            "--help" | "-h" => {
                eprintln!(
                    "usage: rlnc-experiments sweep-merge SHARD1.json SHARD2.json ... \
                     [--out FILE.json] [--trace SHARD1-trace.json ...] [--trace-out FILE.json] \
                     [--allow-partial] [--quiet]\n\
                     \x20  merges shard exports byte-identically to the unsharded export;\n\
                     \x20  exit codes: 0 ok, 1 conflict/incomplete, 2 usage"
                );
                return;
            }
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown sweep-merge argument: {flag}"))
            }
            path => inputs.push(path.to_string()),
        }
        i += 1;
    }
    if inputs.is_empty() {
        usage_error("sweep-merge requires at least one shard export file");
    }
    if !trace_paths.is_empty() && trace_out.is_none() {
        usage_error("--trace requires --trace-out FILE (where to write the merged trace)");
    }

    let mut runs: Vec<SweepRun> = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                status::warn(&format!("cannot read {path}: {e}"));
                std::process::exit(1);
            }
        };
        match emit::from_json(&text) {
            Ok(run) => runs.push(run),
            Err(e) => {
                status::warn(&format!("{path}: invalid sweep export: {e}"));
                std::process::exit(1);
            }
        }
    }
    let merged = match emit::merge_runs(&runs) {
        Ok(merged) => merged,
        Err(e) => {
            status::warn(&format!("sweep-merge: {e}"));
            std::process::exit(1);
        }
    };

    // Completeness: unless --allow-partial, the merged record set must
    // cover the scenario's grid exactly — a forgotten shard file should
    // fail here, not produce a silently truncated "full" export.
    if !allow_partial {
        let registry = Registry::builtin();
        let spec = registry.get(&merged.scenario);
        let scale = merged.scale.parse::<Scale>();
        match (spec, scale) {
            (Some(spec), Ok(scale)) => {
                let expected: Vec<u64> = spec.grid(scale).iter().map(|p| p.index).collect();
                let got: Vec<u64> = merged.records.iter().map(|r| r.point).collect();
                if got != expected {
                    let missing: Vec<String> = expected
                        .iter()
                        .filter(|idx| !got.contains(idx))
                        .map(u64::to_string)
                        .collect();
                    status::warn(&format!(
                        "sweep-merge: merged run covers {} of {} grid points \
                         (missing: {}); pass --allow-partial to keep a partial merge",
                        got.len(),
                        expected.len(),
                        if missing.is_empty() { "none — extra points".to_string() } else { missing.join(", ") },
                    ));
                    std::process::exit(1);
                }
            }
            _ => {
                status::warn(&format!(
                    "sweep-merge: cannot check completeness — scenario '{}' at scale '{}' \
                     is not in the built-in registry; pass --allow-partial to merge anyway",
                    merged.scenario, merged.scale
                ));
                std::process::exit(1);
            }
        }
    }

    print!("{}", merged.to_markdown());
    if let Some(path) = out_path {
        write_file(&path, &emit::to_json(&merged));
        status::note(&format!("wrote {path}"));
    }
    if let Some(out) = trace_out {
        let mut docs = Vec::with_capacity(trace_paths.len());
        for path in &trace_paths {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    status::warn(&format!("cannot read trace {path}: {e}"));
                    std::process::exit(1);
                }
            };
            match trace::from_json(&text) {
                Ok(doc) => docs.push(doc),
                Err(e) => {
                    status::warn(&format!("{path}: invalid trace: {e}"));
                    std::process::exit(1);
                }
            }
        }
        let mut iter = docs.iter();
        let Some(mut combined) = iter.next().cloned() else {
            usage_error("--trace-out requires at least one --trace input");
        };
        for doc in iter {
            if let Err(e) = combined.merge(doc) {
                status::warn(&format!("cannot merge traces: {e}"));
                std::process::exit(1);
            }
        }
        write_file(&out, &combined.to_json());
        status::note(&format!("wrote {out}"));
    }
}

/// The `sweep-serve` subcommand: a resident sweep service that keeps the
/// process-global plan cache warm across requests.
fn sweep_serve_main(args: &[String]) {
    let mut listen: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                listen = match args.get(i) {
                    Some(raw) => Some(raw.clone()),
                    None => usage_error("--listen requires unix:PATH or tcp:HOST:PORT"),
                };
            }
            "--quiet" => status::set_quiet(true),
            "--help" | "-h" => {
                eprintln!(
                    "usage: rlnc-experiments sweep-serve --listen unix:PATH|tcp:HOST:PORT \
                     [--quiet]\n\
                     \x20  serves line-delimited JSON requests (see serve-client) until a\n\
                     \x20  client sends shutdown; tcp:HOST:0 picks a free port (printed)"
                );
                return;
            }
            other => usage_error(&format!("unknown sweep-serve argument: {other}")),
        }
        i += 1;
    }
    let Some(raw) = listen else {
        usage_error("sweep-serve requires --listen unix:PATH or tcp:HOST:PORT");
    };
    let endpoint = match Endpoint::parse(&raw) {
        Ok(endpoint) => endpoint,
        Err(e) => usage_error(&format!("--listen: {e}")),
    };

    // The service reports obs counters over `status`, so tracing is on for
    // the whole process lifetime.
    enable_tracing();
    let bound = match SweepServer::new().bind(&endpoint) {
        Ok(bound) => bound,
        Err(e) => {
            status::warn(&format!("sweep-serve: {e}"));
            std::process::exit(1);
        }
    };
    // Print the resolved endpoint (not the requested one): tcp port 0 is
    // resolved at bind time and drivers need the actual port.
    println!("sweep-serve listening on {}", bound.endpoint());
    match bound.serve() {
        Ok(()) => status::note("sweep-serve: shut down"),
        Err(e) => {
            status::warn(&format!("sweep-serve: {e}"));
            std::process::exit(1);
        }
    }
}

/// The `serve-client` subcommand: drive a resident `sweep-serve` process.
fn serve_client_main(args: &[String]) {
    const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

    let mut connect_to: Option<String> = None;
    let mut action: Option<String> = None;
    let mut scenario: Option<String> = None;
    let mut scale = Scale::Standard;
    let mut seed = DEFAULT_SWEEP_SEED;
    let mut shard: Option<ShardSpec> = None;
    let mut out_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => {
                i += 1;
                connect_to = match args.get(i) {
                    Some(raw) => Some(raw.clone()),
                    None => usage_error("--connect requires unix:PATH or tcp:HOST:PORT"),
                };
            }
            "--scenario" => {
                i += 1;
                scenario = match args.get(i) {
                    Some(name) => Some(name.clone()),
                    None => usage_error("--scenario requires a scenario name"),
                };
            }
            "--scale" => {
                i += 1;
                scale = parse_scale(args.get(i));
            }
            "--seed" => {
                i += 1;
                seed = parse_seed(args.get(i), "--seed");
            }
            "--shard" => {
                i += 1;
                let Some(raw) = args.get(i) else {
                    usage_error("--shard requires INDEX/COUNT (1-based, e.g. --shard 2/4)");
                };
                shard = match ShardSpec::parse(raw) {
                    Ok(spec) => Some(spec),
                    Err(e) => usage_error(&format!("--shard: {e}")),
                };
            }
            "--out" => {
                i += 1;
                out_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage_error("--out requires a file path"),
                };
            }
            "--quiet" => status::set_quiet(true),
            "--help" | "-h" => {
                eprintln!(
                    "usage: rlnc-experiments serve-client --connect unix:PATH|tcp:HOST:PORT \
                     <list-scenarios|run|status|shutdown>\n\
                     \x20  run options: --scenario NAME [--scale smoke|standard|full] [--seed N] \
                     [--shard I/N] [--out FILE.json]\n\
                     \x20  run prints 'streamed N records (plan_cache_hits_delta=H, ...)' —\n\
                     \x20  nonzero H on a repeat request proves the server's warm plan cache"
                );
                return;
            }
            "list-scenarios" | "run" | "status" | "shutdown" => {
                if let Some(previous) = &action {
                    usage_error(&format!(
                        "serve-client takes one action, got '{previous}' and '{}'",
                        args[i]
                    ));
                }
                action = Some(args[i].clone());
            }
            other => usage_error(&format!("unknown serve-client argument: {other}")),
        }
        i += 1;
    }
    let Some(raw) = connect_to else {
        usage_error("serve-client requires --connect unix:PATH or tcp:HOST:PORT");
    };
    let endpoint = match Endpoint::parse(&raw) {
        Ok(endpoint) => endpoint,
        Err(e) => usage_error(&format!("--connect: {e}")),
    };
    let Some(action) = action else {
        usage_error("serve-client requires an action: list-scenarios, run, status, or shutdown");
    };

    let mut client = match connect_with_retry(&endpoint, CONNECT_TIMEOUT) {
        Ok(client) => client,
        Err(e) => {
            status::warn(&format!("serve-client: {e}"));
            std::process::exit(1);
        }
    };

    let failed = |e: String| -> ! {
        status::warn(&format!("serve-client: {e}"));
        std::process::exit(1);
    };
    match action.as_str() {
        "list-scenarios" => match client.list_scenarios() {
            Ok(scenarios) => {
                for (name, description, summary) in scenarios {
                    println!("{name:<20}  {description}");
                    println!("{:<20}  {summary}", "");
                }
            }
            Err(e) => failed(e),
        },
        "run" => {
            let Some(name) = scenario else {
                usage_error("serve-client run requires --scenario NAME");
            };
            let outcome = match client.run(&name, scale, seed, shard, |_| {}) {
                Ok(outcome) => outcome,
                Err(e) => failed(e),
            };
            print!("{}", outcome.run.to_markdown());
            println!(
                "streamed {} records (plan_cache_hits_delta={}, plan_cache_misses_delta={}, \
                 pool.tasks={}, pool.steals={}, pool.parks={})",
                outcome.run.records.len(),
                outcome.plan_cache_hits_delta,
                outcome.plan_cache_misses_delta,
                outcome.pool_tasks_delta,
                outcome.pool_steals_delta,
                outcome.pool_parks_delta
            );
            if let Some(path) = out_path {
                write_file(&path, &emit::to_json(&outcome.run));
                status::note(&format!("wrote {path}"));
            }
        }
        "status" => match client.status() {
            Ok(report) => {
                println!("requests={}", report.requests);
                println!("records_streamed={}", report.records_streamed);
                println!("errors={}", report.errors);
                println!("active_connections={}", report.active_connections);
                println!("scenarios={}", report.scenarios);
                println!("plan_cache_hits={}", report.plan_cache_hits);
                println!("plan_cache_misses={}", report.plan_cache_misses);
                println!("plan_cache_plans={}", report.plan_cache_plans);
            }
            Err(e) => failed(e),
        },
        "shutdown" => match client.shutdown() {
            Ok(()) => status::note("server acknowledged shutdown"),
            Err(e) => failed(e),
        },
        _ => unreachable!("actions are validated during parsing"),
    }
}

fn write_file(path: &str, contents: &str) {
    let mut file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create output file {path}: {e}"));
    file.write_all(contents.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write output file {path}: {e}"));
}
