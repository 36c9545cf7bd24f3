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
//! ```
//!
//! Every subcommand accepts `--quiet`: status lines (`wrote <path>`) go
//! away, warnings and all stdout output stay.

use rlnc_experiments::{
    parse_experiment_id, run_all, run_by_id, status, trace, ExperimentReport, EXPERIMENTS,
};
use rlnc_par::Scale;
use rlnc_serve::{connect_with_retry, Endpoint, ShardSpec, SweepServer};
use rlnc_sweep::{emit, Registry, SweepExecutor, SweepRun, DEFAULT_SWEEP_SEED};
use std::time::Duration;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Ends the process with one warning line and exit code 1.
fn fail(message: &str) -> ! {
    status::warn(message);
    std::process::exit(1);
}

/// A cursor over one subcommand's arguments. A flag that takes a value
/// reads it with [`ArgCursor::value`] (or a typed reader built on it);
/// when the command line ends first, or the next argument is itself a
/// flag, that is a usage error naming the flag.
struct ArgCursor<'a> {
    args: &'a [String],
    next: usize,
}

impl<'a> ArgCursor<'a> {
    fn new(args: &'a [String]) -> Self {
        ArgCursor { args, next: 0 }
    }

    /// The next argument, if any.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.next)?;
        self.next += 1;
        Some(arg)
    }

    /// The value of the flag just read; `missing` is the usage error when
    /// there is none, or when the next argument starts with `--`.
    fn value(&mut self, missing: &str) -> &'a str {
        match self.args.get(self.next) {
            Some(arg) if !arg.starts_with("--") => {
                self.next += 1;
                arg
            }
            _ => usage_error(missing),
        }
    }

    /// The file path following `flag`.
    fn path(&mut self, flag: &str) -> &'a str {
        self.value(&format!("{flag} requires a file path"))
    }

    /// The arguments up to the next flag (`--only e1 e10`).
    fn operands(&mut self) -> &'a [String] {
        let start = self.next;
        while self.args.get(self.next).is_some_and(|arg| !arg.starts_with("--")) {
            self.next += 1;
        }
        &self.args[start..self.next]
    }

    /// The value of `--scale`.
    fn scale(&mut self) -> Scale {
        let raw = self.value("--scale requires one of smoke|standard|full");
        raw.parse().unwrap_or_else(|e| usage_error(&format!("--scale: {e}")))
    }

    /// The value of `--seed`: decimal, or hexadecimal after `0x`.
    fn seed(&mut self) -> u64 {
        let raw = self.value("--seed requires an unsigned 64-bit integer");
        let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse::<u64>(),
        };
        parsed.unwrap_or_else(|_| {
            usage_error(&format!("--seed: '{raw}' is not an unsigned 64-bit integer"))
        })
    }

    /// The value of `--shard`.
    fn shard(&mut self) -> ShardSpec {
        let raw = self.value("--shard requires INDEX/COUNT (1-based, e.g. --shard 2/4)");
        ShardSpec::parse(raw).unwrap_or_else(|e| usage_error(&format!("--shard: {e}")))
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
    write_output(path, &trace::collect().to_json());
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
    experiments_main(&args);
}

/// The classic E1–E10 driver.
fn experiments_main(args: &[String]) {
    let mut scale = Scale::Standard;
    let mut seed = 0u64;
    let mut only: Vec<&str> = Vec::new();
    let mut markdown_path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;

    let mut args = ArgCursor::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => scale = args.scale(),
            "--seed" => seed = args.seed(),
            "--quiet" => status::set_quiet(true),
            "--only" => {
                let ids = args.operands();
                if ids.is_empty() {
                    usage_error("--only requires at least one experiment id (e.g. --only e1 e10)");
                }
                only.extend(ids.iter().map(String::as_str));
            }
            "--markdown" => markdown_path = Some(args.path("--markdown")),
            "--trace-out" => trace_path = Some(args.path("--trace-out")),
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
                     \x20      rlnc-experiments serve-client --help"
                );
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    // Validate ids up front so a typo (e.g. in a CI invocation) fails loudly
    // instead of silently running an empty report list and exiting 0.
    let unknown: Vec<&str> =
        only.iter().copied().filter(|id| parse_experiment_id(id).is_none()).collect();
    if !unknown.is_empty() {
        for id in unknown {
            status::warn(&format!("unknown experiment id: {id}"));
        }
        std::process::exit(2);
    }
    check_writable([markdown_path, trace_path]);

    if trace_path.is_some() {
        enable_tracing();
    }

    let reports: Vec<ExperimentReport> = if only.is_empty() {
        run_all(scale, seed)
    } else {
        only.iter().filter_map(|id| run_by_id(id, scale, seed)).collect()
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
        write_output(path, &combined);
    }
    if let Some(path) = trace_path {
        write_trace(path);
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
    let mut scenario: Option<&str> = None;
    let mut out_path: Option<&str> = None;
    let mut csv_path: Option<&str> = None;
    let mut markdown_path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut resume = false;
    let mut progress = false;
    let mut shard: Option<ShardSpec> = None;

    let registry = Registry::builtin();

    let mut args = ArgCursor::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => scale = args.scale(),
            "--seed" => seed = args.seed(),
            "--scenario" => {
                scenario = Some(args.value("--scenario requires a scenario name (see --list-scenarios)"));
            }
            "--out" => out_path = Some(args.path("--out")),
            "--csv" => csv_path = Some(args.path("--csv")),
            "--markdown" => markdown_path = Some(args.path("--markdown")),
            "--trace-out" => trace_path = Some(args.path("--trace-out")),
            "--shard" => shard = Some(args.shard()),
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
                let path = args.path("--check");
                let run = read_export(path);
                println!(
                    "{path}: OK — scenario '{}', {} records at scale {}",
                    run.scenario,
                    run.records.len(),
                    run.scale
                );
                return;
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
    }

    let Some(name) = scenario else {
        usage_error("sweep requires --scenario NAME (or --list-scenarios / --check FILE)");
    };
    let Some(spec) = registry.get(name) else {
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
    check_writable([out_path, csv_path, markdown_path, trace_path]);
    if trace_path.is_some() {
        enable_tracing();
    }
    let shard = shard.unwrap_or_else(ShardSpec::full);
    let run = executor.resume_where(spec, &existing, |p| shard.owns(p.index));

    print!("{}", run.to_markdown());
    if let Some(path) = out_path {
        write_output(path, &emit::to_json(&run));
    }
    if let Some(path) = csv_path {
        write_output(path, &emit::to_csv(&run));
    }
    if let Some(path) = markdown_path {
        write_output(path, &run.to_markdown());
    }
    if let Some(path) = trace_path {
        write_trace(path);
    }
}

/// The `sweep-merge` subcommand: reassemble shard exports (from
/// `sweep --shard I/N --out ...`) into the single-process export,
/// byte-identical to running the sweep unsharded.
fn sweep_merge_main(args: &[String]) {
    let mut inputs: Vec<&str> = Vec::new();
    let mut out_path: Option<&str> = None;
    let mut trace_paths: Vec<&str> = Vec::new();
    let mut trace_out: Option<&str> = None;
    let mut allow_partial = false;

    let mut args = ArgCursor::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--out" => out_path = Some(args.path("--out")),
            "--trace" => {
                trace_paths.push(args.value("--trace requires a shard trace file (repeatable)"));
            }
            "--trace-out" => trace_out = Some(args.path("--trace-out")),
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
            path => inputs.push(path),
        }
    }
    if inputs.is_empty() {
        usage_error("sweep-merge requires at least one shard export file");
    }
    if !trace_paths.is_empty() && trace_out.is_none() {
        usage_error("--trace requires --trace-out FILE (where to write the merged trace)");
    }
    check_writable([out_path, trace_out]);

    let runs: Vec<SweepRun> = inputs.iter().map(|path| read_export(path)).collect();
    let merged = emit::merge_runs(&runs).unwrap_or_else(|e| fail(&format!("sweep-merge: {e}")));

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
                    fail(&format!(
                        "sweep-merge: merged run covers {} of {} grid points \
                         (missing: {}); pass --allow-partial to keep a partial merge",
                        got.len(),
                        expected.len(),
                        if missing.is_empty() { "none — extra points".to_string() } else { missing.join(", ") },
                    ));
                }
            }
            _ => fail(&format!(
                "sweep-merge: cannot check completeness — scenario '{}' at scale '{}' \
                 is not in the built-in registry; pass --allow-partial to merge anyway",
                merged.scenario, merged.scale
            )),
        }
    }

    print!("{}", merged.to_markdown());
    if let Some(path) = out_path {
        write_output(path, &emit::to_json(&merged));
    }
    if let Some(out) = trace_out {
        let docs: Vec<_> = trace_paths
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("cannot read trace {path}: {e}")));
                trace::from_json(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid trace: {e}")))
            })
            .collect();
        let mut iter = docs.iter();
        let Some(mut combined) = iter.next().cloned() else {
            usage_error("--trace-out requires at least one --trace input");
        };
        for doc in iter {
            if let Err(e) = combined.merge(doc) {
                fail(&format!("cannot merge traces: {e}"));
            }
        }
        write_output(out, &combined.to_json());
    }
}

/// The `sweep-serve` subcommand: a resident sweep service that keeps the
/// process-global plan cache warm across requests.
fn sweep_serve_main(args: &[String]) {
    let mut listen: Option<&str> = None;
    let mut args = ArgCursor::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--listen" => listen = Some(args.value("--listen requires unix:PATH or tcp:HOST:PORT")),
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
    }
    let Some(raw) = listen else {
        usage_error("sweep-serve requires --listen unix:PATH or tcp:HOST:PORT");
    };
    let endpoint = match Endpoint::parse(raw) {
        Ok(endpoint) => endpoint,
        Err(e) => usage_error(&format!("--listen: {e}")),
    };

    // The service reports obs counters over `status`, so tracing is on for
    // the whole process lifetime.
    enable_tracing();
    let bound = SweepServer::new()
        .bind(&endpoint)
        .unwrap_or_else(|e| fail(&format!("sweep-serve: {e}")));
    // Print the resolved endpoint (not the requested one): tcp port 0 is
    // resolved at bind time and drivers need the actual port.
    println!("sweep-serve listening on {}", bound.endpoint());
    match bound.serve() {
        Ok(()) => status::note("sweep-serve: shut down"),
        Err(e) => fail(&format!("sweep-serve: {e}")),
    }
}

/// The `serve-client` subcommand: drive a resident `sweep-serve` process.
fn serve_client_main(args: &[String]) {
    const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

    let mut connect_to: Option<&str> = None;
    let mut action: Option<&str> = None;
    let mut scenario: Option<&str> = None;
    let mut scale = Scale::Standard;
    let mut seed = DEFAULT_SWEEP_SEED;
    let mut shard: Option<ShardSpec> = None;
    let mut out_path: Option<&str> = None;

    let mut args = ArgCursor::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--connect" => {
                connect_to = Some(args.value("--connect requires unix:PATH or tcp:HOST:PORT"));
            }
            "--scenario" => scenario = Some(args.value("--scenario requires a scenario name")),
            "--scale" => scale = args.scale(),
            "--seed" => seed = args.seed(),
            "--shard" => shard = Some(args.shard()),
            "--out" => out_path = Some(args.path("--out")),
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
                if let Some(previous) = action {
                    usage_error(&format!(
                        "serve-client takes one action, got '{previous}' and '{arg}'"
                    ));
                }
                action = Some(arg);
            }
            other => usage_error(&format!("unknown serve-client argument: {other}")),
        }
    }
    let Some(raw) = connect_to else {
        usage_error("serve-client requires --connect unix:PATH or tcp:HOST:PORT");
    };
    let endpoint = match Endpoint::parse(raw) {
        Ok(endpoint) => endpoint,
        Err(e) => usage_error(&format!("--connect: {e}")),
    };
    let Some(action) = action else {
        usage_error("serve-client requires an action: list-scenarios, run, status, or shutdown");
    };
    if action == "run" {
        check_writable([out_path]);
    }

    let failed = |e: String| -> ! { fail(&format!("serve-client: {e}")) };
    let mut client =
        connect_with_retry(&endpoint, CONNECT_TIMEOUT).unwrap_or_else(|e| failed(e.to_string()));
    match action {
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
            let outcome = match client.run(name, scale, seed, shard, |_| {}) {
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
                write_output(path, &emit::to_json(&outcome.run));
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

/// Reads and parses one sweep export; a file that cannot be read or
/// parsed ends the process with one line and exit code 1.
fn read_export(path: &str) -> SweepRun {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    emit::from_json(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid sweep export: {e}")))
}

/// Writes one output file and notes `wrote PATH`; a path that cannot be
/// written ends the process through [`cannot_write`].
fn write_output(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        cannot_write(path, e);
    }
    status::note(&format!("wrote {path}"));
}

/// Opens every given output path for writing, without truncating it,
/// before any work starts, so a path that cannot be written fails fast
/// (as [`write_output`] would fail after the run).
fn check_writable<'a>(paths: impl IntoIterator<Item = Option<&'a str>>) {
    for path in paths.into_iter().flatten() {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path);
        if let Err(e) = file {
            cannot_write(path, e);
        }
    }
}

/// Ends the process with one `cannot write PATH: ERROR` line and exit
/// code 1.
fn cannot_write(path: &str, error: std::io::Error) -> ! {
    fail(&format!("cannot write {path}: {error}"))
}
