//! The served workload: an in-process `SweepServer` on a Unix socket and
//! a closed loop of clients, each holding one connection and sending its
//! next `run` request when the previous one ends.

use crate::report::{peak_rss_mb, Report};
use crate::stats::{digest, mean, median, percentile};
use crate::workloads::Def;
use rlnc_par::rng::derive_seed;
use rlnc_serve::{connect_with_retry, Endpoint, Response, SweepServer};
use rlnc_sweep::{emit, Registry, SweepExecutor, SweepRun};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a served run measures.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Cold-start passes measured for `setup_s` (0 skips them).
    pub setup_passes: usize,
    /// Concurrent clients in the closed loop.
    pub clients: usize,
    /// Seconds of closed-loop requests.
    pub loop_s: f64,
    /// Fewest requests in the loop.
    pub min_requests: u64,
    /// The number of the loop's first request (its seed is
    /// [`request_seed`] of it); numbers run on across segments.
    pub first_request: u64,
    /// Requests whose index is a multiple of this are checked against a
    /// local run of the same seed.
    pub check_every: u64,
}

/// The seed of served request `i` under workload seed `seed`.
pub fn request_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed, i)
}

/// A server running on its own thread.
struct Running {
    endpoint: Endpoint,
    thread: JoinHandle<Result<(), String>>,
}

fn start(socket: PathBuf) -> Result<Running, String> {
    let endpoint = Endpoint::Unix(socket);
    let bound = SweepServer::new().bind(&endpoint)?;
    let thread = std::thread::spawn(move || bound.serve());
    Ok(Running { endpoint, thread })
}

impl Running {
    fn stop(self) -> Result<(), String> {
        connect_with_retry(&self.endpoint, Duration::from_secs(10))?.shutdown()?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// One completed request as the client saw it.
struct Served {
    index: u64,
    latency_ms: f64,
    first_record_ms: f64,
    trials: u64,
    run: Option<SweepRun>,
    pool: [u64; 3],
    /// Shared plan cache hits and misses during the request.
    cache: [u64; 2],
}

/// Runs the served workload in this process.
pub fn run(def: &Def, seed: u64, plan: ServePlan, socket_dir: &Path) -> Result<Report, String> {
    let mut r = Report::new();
    let socket = |k: usize| socket_dir.join(format!("pb-{}-{k}.sock", std::process::id()));
    let scale = def.scale;

    if plan.setup_passes > 0 {
        // Bind to the first completed request, with an empty plan cache.
        let mut passes = Vec::new();
        for k in 0..plan.setup_passes {
            rlnc_engine::shared_plan_cache_clear();
            let t = Instant::now();
            let server = start(socket(k))?;
            let mut conn = connect_with_retry(&server.endpoint, Duration::from_secs(10))?;
            conn.run(def.scenario, scale, request_seed(seed, 0), None, |_| {})?;
            passes.push(t.elapsed().as_secs_f64());
            drop(conn);
            server.stop()?;
        }
        r.put_list("setups", &passes);
        r.put("m.setup_s", median(&passes));
    }

    let server = start(socket(plan.setup_passes))?;
    // Request 0 before timing, so the loop measures a resident server;
    // every segment serves it, so its export is compared across thread
    // counts and against the CLI.
    let warm = connect_with_retry(&server.endpoint, Duration::from_secs(10))?.run(
        def.scenario,
        scale,
        request_seed(seed, 0),
        None,
        |_| {},
    )?;
    r.put("digest.warm", digest(&emit::to_json(&warm.run)));
    let next = AtomicU64::new(plan.first_request);
    let served: Mutex<Vec<Served>> = Mutex::new(Vec::new());
    let errors = AtomicU64::new(0);
    let start_loop = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..plan.clients.max(1) {
            scope.spawn(|| {
                let mut conn = match connect_with_retry(&server.endpoint, Duration::from_secs(10)) {
                    Ok(conn) => conn,
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i - plan.first_request >= plan.min_requests
                        && start_loop.elapsed().as_secs_f64() >= plan.loop_s
                    {
                        break;
                    }
                    let t = Instant::now();
                    let mut first = None;
                    let outcome =
                        conn.run(def.scenario, scale, request_seed(seed, i), None, |_| {
                            first.get_or_insert_with(|| t.elapsed());
                        });
                    let latency = t.elapsed();
                    match outcome {
                        Ok(out) => {
                            let trials = out.run.records.iter().map(|r| r.trials).sum();
                            served
                                .lock()
                                .expect("no client panicked holding the log")
                                .push(Served {
                                    index: i,
                                    latency_ms: latency.as_secs_f64() * 1e3,
                                    first_record_ms: first.unwrap_or(latency).as_secs_f64() * 1e3,
                                    trials,
                                    pool: [
                                        out.pool_tasks_delta,
                                        out.pool_steals_delta,
                                        out.pool_parks_delta,
                                    ],
                                    cache: [out.plan_cache_hits_delta, out.plan_cache_misses_delta],
                                    run: i.is_multiple_of(plan.check_every).then_some(out.run),
                                });
                        }
                        Err(e) => {
                            eprintln!("perfbench: request {i} failed: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });
    let loop_s = start_loop.elapsed().as_secs_f64();
    server.stop()?;
    let served = served
        .into_inner()
        .expect("no client panicked holding the log");
    let failed = errors.load(Ordering::Relaxed);
    r.add("attempted", served.len() as u64 + failed);
    r.add("failed", failed);
    if served.is_empty() {
        return Err("no served request completed".into());
    }

    let latencies: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let firsts: Vec<f64> = served.iter().map(|s| s.first_record_ms).collect();
    let trials: u64 = served.iter().map(|s| s.trials).sum();
    let count = served.len() as f64;
    r.put("next", next.load(Ordering::Relaxed));
    r.put_list("latencies", &latencies);
    r.put("loop_s", loop_s);
    r.put("trials", trials);
    r.put("m.trials_per_s", trials as f64 / loop_s);
    r.put("m.request_mean_ms", mean(&latencies));
    r.put("m.request_p95_ms", percentile(&latencies, 95.0));
    r.put("m.requests_per_s", count / loop_s);
    r.put("m.serve.first_record_p50_ms", percentile(&firsts, 50.0));
    for (k, name) in ["tasks", "steals", "parks"].iter().enumerate() {
        let total: u64 = served.iter().map(|s| s.pool[k]).sum();
        r.put(format!("m.pool.{name}"), total as f64 / count);
    }
    // The shared plan cache, from the `run-end` deltas. They are
    // process-wide, so concurrent requests count each other's lookups;
    // the ratio is exact only with one client. It reads 0 when no request
    // looked the cache up.
    let hits: u64 = served.iter().map(|s| s.cache[0]).sum();
    let lookups = hits + served.iter().map(|s| s.cache[1]).sum::<u64>();
    r.put("cache_lookups", lookups);
    r.put(
        "m.engine.plan_cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    r.put("peak_rss_mb", peak_rss_mb());

    // The checked requests: their export must equal a local run of the
    // same scenario, scale and seed. The local runs also time the
    // in-process baseline of `serve.overhead_ms`.
    let registry = Registry::builtin();
    let spec = registry
        .get(def.scenario)
        .expect("workload scenario is registered");
    let mut local_ms = Vec::new();
    let mut served_ms = Vec::new();
    let mut parse_ns = Vec::new();
    for (s, remote) in served.iter().filter_map(|s| Some((s, s.run.as_ref()?))) {
        let t = Instant::now();
        let local = SweepExecutor::new(scale)
            .with_seed(request_seed(seed, s.index))
            .run(spec);
        local_ms.push(t.elapsed().as_secs_f64() * 1e3);
        served_ms.push(s.latency_ms);
        let d = digest(&emit::to_json(remote));
        r.add("attempted", 1);
        if d != digest(&emit::to_json(&local)) {
            eprintln!(
                "perfbench: served request {} differs from the local run",
                s.index
            );
            r.add("failed", 1);
        }
        r.put(format!("digest.{}", s.index), d);
        parse_ns.push(parse_cost_ns(remote));
    }
    if !local_ms.is_empty() {
        r.put(
            "m.serve.overhead_ms",
            median(&served_ms) - median(&local_ms),
        );
        r.put("m.serve.parse_ns_per_record", median(&parse_ns));
    }
    Ok(r)
}

/// Client-side decoding cost of one record line (`Response::from_json`),
/// in nanoseconds, over the records of `run`.
fn parse_cost_ns(run: &SweepRun) -> f64 {
    let lines: Vec<String> = run
        .records
        .iter()
        .map(|record| {
            Response::Record {
                record: record.clone(),
            }
            .to_json()
        })
        .collect();
    let t = Instant::now();
    for line in &lines {
        let parsed = Response::from_json(line).expect("record lines parse");
        std::hint::black_box(parsed);
    }
    t.elapsed().as_nanos() as f64 / lines.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn request_seeds_are_distinct_and_reproducible() {
        assert_eq!(request_seed(5, 3), request_seed(5, 3));
        assert_ne!(request_seed(5, 3), request_seed(5, 4));
        assert_ne!(request_seed(5, 3), request_seed(6, 3));
    }

    #[test]
    fn a_short_served_loop_matches_local_runs() {
        let def = find("serve-language-matrix").unwrap();
        let dir = std::env::temp_dir();
        let plan = ServePlan {
            setup_passes: 1,
            clients: 2,
            loop_s: 0.0,
            min_requests: 4,
            first_request: 8,
            check_every: 1,
        };
        let r = run(def, 11, plan, &dir).expect("served run");
        assert_eq!(r.int("failed"), 0);
        assert!(r.list("latencies").len() >= 4);
        assert!(r.int("next") >= 12);
        assert!(r.num("m.setup_s").unwrap() > 0.0);
        assert!(r.get("digest.8").is_some() && r.get("digest.warm").is_some());
    }
}
