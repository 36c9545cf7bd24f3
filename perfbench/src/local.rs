//! One timed segment of a local workload: set-up passes, whole sweeps
//! through `SweepExecutor::run`, and shard requests, interleaved in
//! rounds after one warm-up round that only checks the export. The
//! orchestrator alternates segments at `RLNC_THREADS` = nproc
//! and 1 over the whole run window (the benchmark machine's speed drifts
//! by tens of percent over seconds) and pools their samples.

use crate::report::{peak_rss_mb, Report};
use crate::stats::digest;
use crate::workloads::Def;
use rlnc_sweep::emit;
use rlnc_sweep::{Registry, SweepExecutor};
use std::ops::Range;
use std::time::Instant;

/// Fewest requests per run: p95 then has ten samples beyond.
pub const MIN_REQUESTS: usize = 200;

/// Requests walk the shards with this stride (coprime to every shard
/// count used), so consecutive requests hit unrelated shards.
const REQUEST_STRIDE: u64 = 37;

/// Set-up passes per round.
const SETUP_PASSES_PER_ROUND: usize = 2;

/// How a local segment measures.
#[derive(Debug, Clone)]
pub struct LocalPlan {
    /// Whether rounds include set-up passes (`setup_s`).
    pub setup: bool,
    /// The run's request numbers this segment makes (see
    /// [`request_count`]); empty for none.
    pub requests: Range<usize>,
    /// Seconds of rounds, at least `min_rounds` of them.
    pub seconds: f64,
    /// Fewest rounds; each runs one whole sweep.
    pub min_rounds: usize,
}

/// The number of shard requests a run makes: whole passes over the
/// shards, at least [`MIN_REQUESTS`], so every run samples the same
/// shards equally often.
pub fn request_count(shards: u64) -> usize {
    let shards = shards as usize;
    MIN_REQUESTS.div_ceil(shards) * shards
}

/// The 1-based shard that request number `i` runs.
pub fn request_shard(i: usize, shards: u64) -> u64 {
    (i as u64 * REQUEST_STRIDE) % shards + 1
}

/// Runs one local segment in this process. Reports raw samples:
/// `rates` (trials/s per sweep), `setups` (s per set-up pass),
/// `latencies` (ms per request), the totals `trials` and `sweep_s` of the
/// timed sweeps, plus the export digest.
pub fn run(def: &Def, seed: u64, plan: LocalPlan) -> Report {
    let registry = Registry::builtin();
    let spec = registry
        .get(def.scenario)
        .expect("workload scenario is registered");
    let exec = SweepExecutor::new(def.scale).with_seed(seed);
    let seq = exec.scenario_sequence(&spec.name);
    let grid = spec.grid(def.scale);
    let mut r = Report::new();

    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut sweep_trials = 0u64;
    let mut sweep_s = 0.0;
    let mut emit_ns = 0.0;
    let mut latencies = Vec::new();
    let mut request_s = 0.0;
    let mut next_request = plan.requests.start;
    let mut reference = None;
    let mut reference_digest = String::new();
    let mut pool_before = rlnc_par::pool::stats();
    let mut start = Instant::now();
    let mut warm_up = true;
    while rates.len() < plan.min_rounds
        || next_request < plan.requests.end
        || start.elapsed().as_secs_f64() < plan.seconds
    {
        if plan.setup {
            // `Workload::prepare` over the grid, as the executor runs it
            // before its trial batches.
            for _ in 0..SETUP_PASSES_PER_ROUND {
                let t = Instant::now();
                let prepared: Vec<_> = grid
                    .iter()
                    .map(|p| spec.workload.prepare(p, seq.child(p.index)))
                    .collect();
                if !warm_up {
                    setups.push(t.elapsed().as_secs_f64());
                }
                drop(prepared);
            }
        }

        let t = Instant::now();
        let run = exec.run(spec);
        let wall = t.elapsed().as_secs_f64();
        let trials: u64 = run.records.iter().map(|r| r.trials).sum();
        let t = Instant::now();
        let json = emit::to_json(&run);
        let emit = t.elapsed().as_nanos() as f64 / run.records.len() as f64;
        let d = digest(&json);
        r.add("attempted", 1);
        if reference.is_none() {
            reference_digest = d;
            reference = Some(run);
        } else if d != reference_digest {
            eprintln!("perfbench: sweep export digest {d} differs from {reference_digest}");
            r.add("failed", 1);
        }
        if warm_up {
            warm_up = false;
            pool_before = rlnc_par::pool::stats();
            start = Instant::now();
            continue;
        }
        rates.push(trials as f64 / wall);
        sweep_trials += trials;
        sweep_s += wall;
        emit_ns += emit;

        // One shard per request, checked against the same points of the
        // first sweep. The remaining requests are spread over the rounds
        // expected to fit in the rest of the window.
        let reference = reference.as_ref().expect("a sweep ran");
        let elapsed = start.elapsed().as_secs_f64();
        let round_s = elapsed / rates.len() as f64;
        let rounds_left = (plan.min_rounds.saturating_sub(rates.len()) + 1)
            .max(((plan.seconds - elapsed) / round_s) as usize + 1);
        let quota = (plan.requests.end - next_request).div_ceil(rounds_left);
        let round_start = Instant::now();
        for _ in 0..quota {
            let shard = request_shard(next_request, def.shards);
            next_request += 1;
            let t = Instant::now();
            let part = exec.run_shard(spec, shard, def.shards);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            r.add("attempted", 1);
            let expected = reference
                .records
                .iter()
                .filter(|rec| rec.point % def.shards == shard - 1);
            if !part.records.iter().eq(expected) {
                eprintln!(
                    "perfbench: shard {shard}/{} differs from the sweep",
                    def.shards
                );
                r.add("failed", 1);
            }
        }
        request_s += round_start.elapsed().as_secs_f64();
    }
    let pool_after = rlnc_par::pool::stats();
    let sweeps = rates.len() as f64;
    r.put("digest", &reference_digest);
    r.put_list("rates", &rates);
    r.put("trials", sweep_trials);
    r.put("sweep_s", sweep_s);
    r.put_list("setups", &setups);
    r.put_list("latencies", &latencies);
    r.put("request_s", request_s);
    r.put("m.sweep.emit_ns_per_record", emit_ns / sweeps);
    r.put("m.trials_per_s", sweep_trials as f64 / sweep_s);
    r.put(
        "m.pool.tasks",
        (pool_after.tasks - pool_before.tasks) as f64 / sweeps,
    );
    r.put(
        "m.pool.steals",
        (pool_after.steals - pool_before.steals) as f64 / sweeps,
    );
    r.put(
        "m.pool.parks",
        (pool_after.parks - pool_before.parks) as f64 / sweeps,
    );
    r.put("peak_rss_mb", peak_rss_mb());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn request_counts_are_whole_shard_passes_of_at_least_the_minimum() {
        assert_eq!(request_count(31), 217);
        assert_eq!(request_count(15), 210);
        assert_eq!(request_count(7), 203);
        assert_eq!(request_count(500), 500);
        for n in [1, 7, 8, 30, 60, 199, 200, 240] {
            let c = request_count(n);
            assert!(c >= MIN_REQUESTS && c.is_multiple_of(n as usize));
        }
    }

    #[test]
    fn requests_visit_every_shard_once_per_pass() {
        for def in WORKLOADS.iter().filter(|d| !d.served) {
            let mut seen = vec![0; def.shards as usize];
            for i in 0..def.shards as usize {
                seen[request_shard(i, def.shards) as usize - 1] += 1;
            }
            assert!(
                seen.iter().all(|&s| s == 1),
                "{} shards of {}",
                def.shards,
                def.name
            );
            assert_eq!(def.shards % 2, 1, "{}", def.name);
        }
    }

    #[test]
    fn a_short_segment_checks_its_requests() {
        let def = crate::workloads::find("fault-matrix").unwrap();
        let plan = LocalPlan {
            setup: true,
            requests: 0..5,
            seconds: 0.0,
            min_rounds: 2,
        };
        let r = run(def, 3, plan);
        assert_eq!(r.int("failed"), 0);
        assert_eq!(r.list("rates").len(), 2);
        assert_eq!(r.list("setups").len(), 4);
        assert_eq!(r.list("latencies").len(), 5);
        assert_eq!(r.int("attempted"), 8);
    }
}
