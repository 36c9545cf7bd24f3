//! `perfbench`: the repo benchmark.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//!           --cli PATH/TO/rlnc-experiments --scratch DIR
//! ```
//!
//! The orchestrating process runs each measurement in a child process of
//! its own (the same binary, `perfbench child local|serve|trace ...`),
//! because the pool size is fixed per process by `RLNC_THREADS`. It then
//! checks every export digest against the others and against
//! `rlnc-experiments sweep --out`, prints each metric with its unit, and
//! ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Any digest mismatch or decomposition mismatch
//! makes the exit code non-zero.

mod layers;
mod local;
mod report;
mod serve;
mod stats;
mod trace;
mod traced;
mod workloads;

use report::Report;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{find, Def, END_TO_END, LAYER_HOMES, WORKLOADS};

type Args = HashMap<String, String>;

fn parse_flags(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        args.insert(key.to_string(), value.clone());
    }
    Ok(args)
}

fn arg<T: std::str::FromStr>(args: &Args, key: &str) -> Result<T, String> {
    let raw = args.get(key).ok_or_else(|| format!("missing --{key}"))?;
    raw.parse()
        .map_err(|_| format!("--{key}: cannot parse '{raw}'"))
}

fn arg_or<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, String> {
    if args.contains_key(key) {
        arg(args, key)
    } else {
        Ok(default)
    }
}

fn workload(args: &Args) -> Result<&'static Def, String> {
    let name: String = arg(args, "workload")?;
    find(&name).ok_or_else(|| format!("unknown workload '{name}'"))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if raw.first().map(String::as_str) == Some("child") {
        child(&raw[1..])
    } else {
        parse_flags(&raw).and_then(|args| orchestrate(&args))
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

// ---- child processes ----------------------------------------------------

fn child(raw: &[String]) -> Result<i32, String> {
    let kind = raw.first().ok_or("child needs a kind")?;
    let args = parse_flags(&raw[1..])?;
    let seed: u64 = arg(&args, "seed")?;
    let report = match kind.as_str() {
        "local" => local::run(
            workload(&args)?,
            seed,
            local::LocalPlan {
                setup: arg_or(&args, "setup", 0u8)? == 1,
                requests: arg_or(&args, "request-from", 0)?..arg_or(&args, "request-to", 0)?,
                seconds: arg_or(&args, "seconds", 0.0)?,
                min_rounds: arg_or(&args, "min-rounds", 1)?,
            },
        ),
        "serve" => serve::run(
            workload(&args)?,
            seed,
            serve::ServePlan {
                setup_passes: arg_or(&args, "setup-passes", 0)?,
                clients: arg_or(&args, "clients", 1)?,
                loop_s: arg_or(&args, "loop-s", 0.0)?,
                min_requests: arg_or(&args, "min-requests", 1)?,
                first_request: arg_or(&args, "first-request", 1)?,
                check_every: arg_or(&args, "check-every", 1)?,
            },
            Path::new(&arg::<String>(&args, "scratch")?),
        )?,
        "trace" => {
            let scenario: String = arg(&args, "scenario")?;
            let scale: rlnc_par::Scale = arg(&args, "scale")?;
            let tree: String = arg(&args, "tree")?;
            traced::run(&scenario, scale, seed, Path::new(&tree))?
        }
        other => return Err(format!("unknown child kind '{other}'")),
    };
    print!("{}", report.render());
    Ok(0)
}

// ---- orchestration ------------------------------------------------------

/// Settings shared by every child of one benchmark invocation.
struct Ctx {
    seed: u64,
    seconds: f64,
    nproc: usize,
    scratch: PathBuf,
    cli: PathBuf,
}

impl Ctx {
    /// Runs `perfbench child KIND` with `RLNC_THREADS=threads` and waits.
    fn spawn(
        &self,
        kind: &str,
        threads: usize,
        flags: &[(&str, String)],
    ) -> Result<Report, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("child").arg(kind);
        cmd.arg("--seed").arg(self.seed.to_string());
        cmd.arg("--scratch").arg(&self.scratch);
        for (k, v) in flags {
            cmd.arg(format!("--{k}")).arg(v);
        }
        cmd.env("RLNC_THREADS", threads.to_string())
            .stderr(Stdio::inherit());
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run child {kind}: {e}"))?;
        if !out.status.success() {
            return Err(format!("child {kind} failed with {}", out.status));
        }
        Ok(Report::parse(&String::from_utf8_lossy(&out.stdout)))
    }

    /// Digest of `rlnc-experiments sweep --out` for the same scenario,
    /// scale and seed.
    fn cli_digest(
        &self,
        scenario: &str,
        scale: rlnc_par::Scale,
        seed: u64,
    ) -> Result<String, String> {
        let out = self
            .scratch
            .join(format!("cli-{}-{seed}.json", std::process::id()));
        let status = Command::new(&self.cli)
            .args([
                "sweep",
                "--quiet",
                "--scenario",
                scenario,
                "--scale",
                scale.name(),
            ])
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--out")
            .arg(&out)
            .env("RLNC_THREADS", self.nproc.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", self.cli.display()))?;
        if !status.success() {
            return Err(format!("rlnc-experiments sweep failed with {status}"));
        }
        let text =
            std::fs::read_to_string(&out).map_err(|e| format!("cannot read CLI export: {e}"))?;
        let _ = std::fs::remove_file(&out);
        Ok(stats::digest(&text))
    }
}

/// The outcome of one workload: counts and named metrics with units.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    fn count(&mut self, r: &Report) {
        self.attempted += r.int("attempted");
        self.failed += r.int("failed");
    }

    /// Compares two digests of the same export; a mismatch is a failure.
    fn check(&mut self, what: &str, a: Option<&str>, b: Option<&str>) {
        self.attempted += 1;
        if a.is_none() || a != b {
            eprintln!("perfbench: export digest mismatch ({what}): {a:?} vs {b:?}");
            self.failed += 1;
        }
    }

    fn set(&mut self, name: &str, unit: &str, value: Option<f64>) -> Result<(), String> {
        let v = value.ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        self.metrics.insert(name.to_string(), (v, unit.to_string()));
        Ok(())
    }
}

/// Segments per run: the orchestrator alternates an `RLNC_THREADS` =
/// nproc segment and a 1-thread segment this many times, so both sample
/// the whole run window.
const SEGMENTS: usize = 4;

fn end_to_end(ctx: &Ctx, def: &Def) -> Result<Outcome, String> {
    let segment_s = ctx.seconds / SEGMENTS as f64;
    let mut o = Outcome::default();
    let mut full = Vec::new();
    let mut single = Vec::new();
    if def.served {
        let mut next = 1u64;
        let per_segment = local::MIN_REQUESTS.div_ceil(SEGMENTS);
        for _ in 0..SEGMENTS {
            let segment = |threads: usize, loop_s: f64, min: usize, first: u64| {
                ctx.spawn(
                    "serve",
                    threads,
                    &[
                        ("workload", def.name.into()),
                        ("setup-passes", if threads == 1 { "0" } else { "6" }.into()),
                        ("clients", "1".into()),
                        ("loop-s", format!("{loop_s}")),
                        ("min-requests", min.to_string()),
                        ("first-request", first.to_string()),
                        ("check-every", "16".into()),
                    ],
                )
            };
            let f = segment(ctx.nproc, 0.5 * segment_s, per_segment, next)?;
            next = f.int("next");
            let one = segment(1, 0.3 * segment_s, 4, next)?;
            next = one.int("next");
            full.push(f);
            single.push(one);
        }
        let cli = ctx.cli_digest(def.scenario, def.scale, serve::request_seed(ctx.seed, 0))?;
        o.check(
            "serve vs rlnc-experiments",
            full[0].get("digest.warm"),
            Some(&cli),
        );
        for r in full.iter().chain(&single).skip(1) {
            o.check(
                "serve segments, RLNC_THREADS=1 and nproc",
                r.get("digest.warm"),
                full[0].get("digest.warm"),
            );
        }
    } else {
        let requests = local::request_count(def.shards);
        for k in 0..SEGMENTS {
            let range = (k * requests / SEGMENTS, (k + 1) * requests / SEGMENTS);
            full.push(ctx.spawn(
                "local",
                ctx.nproc,
                &[
                    ("workload", def.name.into()),
                    ("setup", "1".into()),
                    ("request-from", range.0.to_string()),
                    ("request-to", range.1.to_string()),
                    ("seconds", format!("{}", 0.4 * segment_s)),
                    ("min-rounds", "2".into()),
                ],
            )?);
            single.push(ctx.spawn(
                "local",
                1,
                &[
                    ("workload", def.name.into()),
                    ("seconds", format!("{}", 0.4 * segment_s)),
                    ("min-rounds", "2".into()),
                ],
            )?);
        }
        for r in full.iter().chain(&single).skip(1) {
            o.check(
                "segments, RLNC_THREADS=1 and nproc",
                r.get("digest"),
                full[0].get("digest"),
            );
        }
        let cli = ctx.cli_digest(def.scenario, def.scale, ctx.seed)?;
        o.check(
            "local vs rlnc-experiments",
            full[0].get("digest"),
            Some(&cli),
        );
    }
    for r in full.iter().chain(&single) {
        o.count(r);
    }
    let pooled = |reports: &[Report], key: &str| -> Vec<f64> {
        reports.iter().flat_map(|r| r.list(key)).collect()
    };
    let total =
        |reports: &[Report], key: &str| -> f64 { reports.iter().filter_map(|r| r.num(key)).sum() };
    let latencies = pooled(&full, "latencies");
    let setups = pooled(&full, "setups");
    let (rate, rate_1t, requests_per_s) = if def.served {
        (
            total(&full, "trials") / total(&full, "loop_s"),
            total(&single, "trials") / total(&single, "loop_s"),
            latencies.len() as f64 / total(&full, "loop_s"),
        )
    } else {
        // Total over total rather than a median of per-sweep rates: the
        // benchmark machine switches between a fast and a slow speed for
        // seconds at a time, and a median jumps between the two when about
        // half the sweeps land in each.
        (
            total(&full, "trials") / total(&full, "sweep_s"),
            total(&single, "trials") / total(&single, "sweep_s"),
            latencies.len() as f64 / total(&full, "request_s"),
        )
    };
    if latencies.is_empty() || setups.is_empty() {
        return Err("a run produced no request or set-up samples".into());
    }
    let spread = |reports: &[Report]| {
        let rates = pooled(reports, "rates");
        if rates.len() >= 2 {
            format!(
                "{} sweeps, spread {:.3}",
                rates.len(),
                stats::relative_spread(&rates)
            )
        } else {
            "-".to_string()
        }
    };
    o.notes.push(format!(
        "requests={} beyond_p95={} setup_passes={} nproc: {} 1t: {}",
        latencies.len(),
        stats::samples_beyond(&latencies, 95.0),
        setups.len(),
        spread(&full),
        spread(&single),
    ));
    let peak = full
        .iter()
        .chain(&single)
        .filter_map(|r| r.num("peak_rss_mb"))
        .fold(0.0, f64::max);
    for (name, unit) in END_TO_END {
        let value = match name {
            "trials_per_s" => rate,
            "trials_per_s_1t" => rate_1t,
            "setup_s" => stats::median(&setups),
            "peak_rss_mb" => peak,
            "request_mean_ms" => stats::mean(&latencies),
            "request_p95_ms" => stats::percentile(&latencies, 95.0),
            "requests_per_s" => requests_per_s,
            other => return Err(format!("no measurement for {other}")),
        };
        o.set(name, unit, Some(value))?;
    }
    Ok(o)
}

fn per_layer(ctx: &Ctx, def: &Def) -> Result<Outcome, String> {
    let s = ctx.seconds;
    let mut o = Outcome::default();
    let tree = |label: &str| {
        ctx.scratch
            .join(format!("trace-{}-{}-{label}.txt", def.name, ctx.seed))
            .display()
            .to_string()
    };
    let trace = |scenario: &str, scale: rlnc_par::Scale, label: &str| {
        ctx.spawn(
            "trace",
            1,
            &[
                ("scenario", scenario.into()),
                ("scale", scale.name().into()),
                ("tree", tree(label)),
            ],
        )
    };
    // The workload's own decomposition (a served workload's server runs
    // the same scenario and scale in process).
    let own = trace(def.scenario, def.scale, "own")?;
    o.notes.push(format!("span tree: {}", tree("own")));
    let mut layer: BTreeMap<String, f64> = own
        .with_prefix("m.")
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect();
    let mut children = vec![own.clone()];
    // The traced run's own sweeps export the same bytes as the CLI.
    let cli = ctx.cli_digest(def.scenario, def.scale, ctx.seed)?;
    o.check(
        "traced run vs rlnc-experiments",
        own.get("digest"),
        Some(&cli),
    );

    // Scaling: the same work at RLNC_THREADS = nproc against 1 thread.
    let (full, single_rate) = if def.served {
        let loop_flags = |clients: usize, loop_s: f64| {
            vec![
                ("workload", def.name.to_string()),
                ("clients", clients.to_string()),
                ("loop-s", format!("{loop_s}")),
                ("min-requests", "8".into()),
                ("check-every", "8".into()),
            ]
        };
        let full = ctx.spawn("serve", ctx.nproc, &loop_flags(ctx.nproc, 0.15 * s))?;
        let single = ctx.spawn("serve", 1, &loop_flags(1, 0.1 * s))?;
        let rate = single.num("m.trials_per_s");
        children.push(single);
        (full, rate)
    } else {
        let flags = [
            ("workload", def.name.to_string()),
            ("seconds", format!("{}", 0.1 * s)),
            ("min-rounds", "3".into()),
        ];
        let full = ctx.spawn("local", ctx.nproc, &flags)?;
        o.check(
            "traced run (1 thread) vs local run (nproc)",
            own.get("digest"),
            full.get("digest"),
        );
        (full, own.num("trials_per_s_1t"))
    };
    let speedup = full
        .num("m.trials_per_s")
        .zip(single_rate)
        .map(|(a, b)| a / b);
    layer.insert("par.speedup".into(), speedup.unwrap_or(f64::NAN));
    for name in ["pool.tasks", "pool.steals", "pool.parks"] {
        layer.insert(
            name.into(),
            full.num(&format!("m.{name}")).unwrap_or(f64::NAN),
        );
    }
    children.push(full);

    // The serve layer: one client, every request checked against (and
    // timed next to) a local run of the same seed.
    let probe = ctx.spawn(
        "serve",
        ctx.nproc,
        &[
            ("workload", "serve-language-matrix".into()),
            ("clients", "1".into()),
            ("loop-s", format!("{}", 0.1 * s)),
            ("min-requests", "12".into()),
            ("first-request", "1".into()),
            ("check-every", "1".into()),
        ],
    )?;
    // A served workload's cache ratio is the shared cache's, from the
    // probe's `run-end` deltas (one client, so requests do not overlap);
    // a local workload's is that of the `PlanCache` its preparation uses.
    let mut served_layers = vec![
        "serve.overhead_ms",
        "serve.parse_ns_per_record",
        "serve.first_record_p50_ms",
    ];
    if def.served {
        served_layers.push("engine.plan_cache.hit_ratio");
        o.notes.push(format!(
            "engine.plan_cache.hit_ratio: shared cache, {} lookups in {} requests",
            probe.int("cache_lookups"),
            probe.list("latencies").len()
        ));
    }
    for name in served_layers {
        if let Some(v) = probe.num(&format!("m.{name}")) {
            layer.insert(name.into(), v);
        }
    }
    children.push(probe);

    // Layers this workload never enters: measured on their home
    // workload's decomposition at smoke scale.
    let all = workloads::per_layer();
    for home in LAYER_HOMES {
        if home == def.scenario || all.iter().all(|(n, _)| layer.contains_key(n)) {
            continue;
        }
        let fallback = trace(home, rlnc_par::Scale::Smoke, home)?;
        let cli = ctx.cli_digest(home, rlnc_par::Scale::Smoke, ctx.seed)?;
        o.check(
            "traced run vs rlnc-experiments",
            fallback.get("digest"),
            Some(&cli),
        );
        let mut filled = Vec::new();
        for (k, v) in fallback.with_prefix("m.") {
            if !layer.contains_key(k) && all.iter().any(|(n, _)| n == k) {
                layer.insert(k.to_string(), v.parse().unwrap_or(f64::NAN));
                filled.push(k.to_string());
            }
        }
        if !filled.is_empty() {
            o.notes
                .push(format!("from {home} (smoke): {}", filled.join(", ")));
        }
        children.push(fallback);
    }
    for child in &children {
        o.count(child);
    }
    for (name, unit) in all {
        o.set(&name, unit, layer.get(&name).copied())?;
    }
    Ok(o)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, (f64, String)>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn orchestrate(args: &Args) -> Result<i32, String> {
    let name: String = arg(args, "workload")?;
    let traced = match arg::<u8>(args, "trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds: f64 = arg(args, "seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let scratch = PathBuf::from(arg::<String>(args, "scratch")?);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: arg(args, "seed")?,
        seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch,
        cli: PathBuf::from(arg::<String>(args, "cli")?),
    };
    let defs: Vec<&Def> = if name == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![find(&name).ok_or_else(|| format!("unknown workload '{name}'"))?]
    };
    let commit = git_commit();
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = BTreeMap::new();
    for def in &defs {
        let o = if traced {
            per_layer(&ctx, def)?
        } else {
            end_to_end(&ctx, def)?
        };
        println!(
            "# workload={} scenario={} scale={} seed={} trace={} nproc={} RLNC_THREADS={},1 commit={}",
            def.name,
            def.scenario,
            def.scale.name(),
            ctx.seed,
            u8::from(traced),
            ctx.nproc,
            ctx.nproc,
            commit
        );
        for note in &o.notes {
            println!("#   {note}");
        }
        for (metric, (value, unit)) in &o.metrics {
            println!("  {metric:<36} {value:>16.4} {unit}");
        }
        println!("  attempted {} failed {}", o.attempted, o.failed);
        attempted += o.attempted;
        failed += o.failed;
        for (metric, v) in o.metrics {
            let key = if defs.len() == 1 {
                metric
            } else {
                format!("{}/{metric}", def.name)
            };
            metrics.insert(key, v);
        }
    }
    println!(
        "{}",
        json_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    Ok(if failed == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_in_pairs() {
        let raw: Vec<String> = ["--workload", "fault-matrix", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = parse_flags(&raw).unwrap();
        assert_eq!(arg::<u64>(&args, "seed").unwrap(), 7);
        assert_eq!(arg_or(&args, "seconds", 3.0).unwrap(), 3.0);
        assert!(parse_flags(&raw[..1]).is_err());
        assert!(parse_flags(&["stray".to_string()]).is_err());
        assert_eq!(workload(&args).unwrap().name, "fault-matrix");
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut m = BTreeMap::new();
        m.insert("setup_s".to_string(), (0.8127, "s".to_string()));
        let line = json_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
