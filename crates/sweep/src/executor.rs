//! The batched parallel sweep executor.
//!
//! ## Seed discipline
//!
//! Every trial's random stream is pinned by the path
//! `(scenario, grid point, trial)` through a [`SeedSequence`] tree:
//!
//! ```text
//! SeedSequence::new(master_seed)
//!   .child(fnv1a64(scenario name))     // scenario branch
//!   .child(point.index)                // grid-point branch
//!   .child(0)                          // setup stream (ids, ...)
//!   .child(1).child(trial)             // trial stream
//! ```
//!
//! Nothing depends on thread scheduling, so a sweep is bit-reproducible;
//! and because each grid point's records are derived independently, a
//! sweep is resumable: feed previously exported records back via
//! [`SweepExecutor::resume`] and only the missing points run.

use crate::record::{RunRecord, SweepRun};
use crate::spec::{GridPoint, ScenarioSpec};
use rlnc_obs::{LazyCounter, LazySpan, Section};
use rlnc_par::pool::{self, balanced_ranges, FAN_OUT_WORK};
use rlnc_par::rng::SeedSequence;
use rlnc_par::stats::Estimate;
use rlnc_par::Scale;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

// Sweep-level observability: runs, freshly computed grid points, and
// trials are functions of (spec, scale, resume set) alone — deterministic.
// The resume span is wall-clock — timing.
static OBS_RUNS: LazyCounter = LazyCounter::new("sweep.runs", Section::Deterministic);
static OBS_POINTS: LazyCounter =
    LazyCounter::new("sweep.points.completed", Section::Deterministic);
static OBS_TRIALS: LazyCounter = LazyCounter::new("sweep.trials", Section::Deterministic);
static OBS_RESUME_SPAN: LazySpan = LazySpan::new("sweep.resume");

/// Default master seed of the sweep engine (overridable per run and from
/// the CLI's `--seed`).
pub const DEFAULT_SWEEP_SEED: u64 = 0x5EED_2015_0613;

/// Trials per work item: a grid point's trials are cut into items of at
/// most this many, so small grids with large trial budgets still spread
/// over the pool. Results do not depend on it.
const TRIALS_PER_ITEM: u64 = 256;

/// 64-bit FNV-1a hash of a string — maps a scenario name to its branch of
/// the seed tree.
pub fn scenario_tag(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs [`ScenarioSpec`]s: materializes the grid, executes trial batches
/// (through [`pool::map`]), and collects [`RunRecord`]s.
#[derive(Debug, Clone, Copy)]
pub struct SweepExecutor {
    scale: Scale,
    master_seed: u64,
    progress: bool,
}

impl SweepExecutor {
    /// Creates an executor at the given scale with the default seed.
    pub fn new(scale: Scale) -> Self {
        SweepExecutor {
            scale,
            master_seed: DEFAULT_SWEEP_SEED,
            progress: false,
        }
    }

    /// Enables live per-point progress reporting: one
    /// `[sweep] <scenario>: <done>/<total> points` line on stderr per
    /// completed grid point (the CLI's `--progress`). Results are
    /// unaffected; stdout and exports stay byte-identical.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// The scale this executor runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The master seed this executor derives every stream from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The seed branch of a scenario under this executor's master seed.
    pub fn scenario_sequence(&self, name: &str) -> SeedSequence {
        SeedSequence::new(self.master_seed).child(scenario_tag(name))
    }

    /// Runs the full grid of `spec`.
    ///
    /// # Panics
    /// Panics if `spec` fails [`ScenarioSpec::validate`].
    pub fn run(&self, spec: &ScenarioSpec) -> SweepRun {
        self.resume(spec, &[])
    }

    /// Runs shard `index` of `count` of `spec`'s grid: the round-robin
    /// subset of points with `point.index % count == index - 1` (shards are
    /// 1-based, balanced, and stable under re-runs). Each grid point's seed
    /// branch depends only on its index, so concatenating the records of
    /// all `count` shards reproduces a full [`run`](Self::run)
    /// bit-for-bit (see `emit::merge_runs`).
    ///
    /// # Panics
    /// Panics if `spec` is invalid or `(index, count)` is not a valid
    /// 1-based shard (`1 <= index <= count`). The CLI validates `--shard`
    /// before calling through (`rlnc-serve`'s `ShardSpec::parse`).
    pub fn run_shard(&self, spec: &ScenarioSpec, index: u64, count: u64) -> SweepRun {
        self.resume_shard(spec, &[], index, count)
    }

    /// [`resume`](Self::resume) restricted to shard `index` of `count`
    /// (see [`run_shard`](Self::run_shard)).
    ///
    /// # Panics
    /// Panics if `spec` is invalid or the shard coordinates are.
    pub fn resume_shard(
        &self,
        spec: &ScenarioSpec,
        existing: &[RunRecord],
        index: u64,
        count: u64,
    ) -> SweepRun {
        assert!(
            count >= 1 && index >= 1 && index <= count,
            "invalid shard {index}/{count}: need 1 <= index <= count"
        );
        self.resume_where(spec, existing, |p| p.index % count == index - 1)
    }

    /// Runs `spec`, skipping grid points for which `existing` already holds
    /// a matching record (same scenario, point index, grid coordinates,
    /// trial count, and seed — i.e. a record this executor would reproduce
    /// bit-for-bit). Records are returned in grid order regardless of how
    /// `existing` was ordered, so a resumed run equals a fresh one.
    ///
    /// # Panics
    /// Panics if `spec` fails [`ScenarioSpec::validate`].
    pub fn resume(&self, spec: &ScenarioSpec, existing: &[RunRecord]) -> SweepRun {
        self.resume_where(spec, existing, |_| true)
    }

    /// The general run path [`resume`](Self::resume) and the shard drivers
    /// share: runs exactly the grid points selected by `keep`, reusing
    /// matching records from `existing`. The returned run carries only the
    /// kept points' records, in grid order; because every point's seed
    /// branch and workload setup are derived independently, a filtered run
    /// computes records bit-identical to the same points of a full run.
    ///
    /// # Panics
    /// Panics if `spec` fails [`ScenarioSpec::validate`].
    pub fn resume_where(
        &self,
        spec: &ScenarioSpec,
        existing: &[RunRecord],
        keep: impl Fn(&GridPoint) -> bool,
    ) -> SweepRun {
        if let Err(e) = spec.validate() {
            panic!("invalid scenario: {e}");
        }
        let _span = OBS_RESUME_SPAN.start();
        OBS_RUNS.inc();
        let points: Vec<GridPoint> =
            spec.grid(self.scale).into_iter().filter(|p| keep(p)).collect();
        let scenario_seq = self.scenario_sequence(&spec.name);

        let reusable: HashMap<u64, &RunRecord> = existing
            .iter()
            .filter(|r| r.scenario == spec.name)
            .map(|r| (r.point, r))
            .collect();

        let todo: Vec<&GridPoint> = points
            .iter()
            .filter(|p| match reusable.get(&p.index) {
                Some(r) => !record_matches_point(r, p, scenario_seq, spec),
                None => true,
            })
            .collect();

        let computed = self.compute_points(spec, &todo, scenario_seq);

        let records = points
            .iter()
            .map(|p| match computed.get(&p.index) {
                Some(r) => r.clone(),
                None => (*reusable[&p.index]).clone(),
            })
            .collect();

        SweepRun {
            scenario: spec.name.clone(),
            description: spec.description.clone(),
            workload: spec.workload.name().to_string(),
            scale: self.scale.name().to_string(),
            master_seed: self.master_seed,
            records,
        }
    }

    /// Streaming variant of [`resume_where`](Self::resume_where): runs the
    /// kept grid points one at a time (trial batches still execute in
    /// parallel within a point) and hands each point's record to
    /// `on_record` as soon as it completes, in grid order. Validation,
    /// grid enumeration, and run-level obs accounting (`sweep.runs`, the
    /// resume span) happen once per call, so a streamed run counts as one
    /// run and its point/trial counters sum to the non-streaming totals;
    /// records are bit-identical to the same points of a non-streamed run.
    /// Returns the number of records delivered, or the first `on_record`
    /// error (remaining points are skipped).
    ///
    /// # Panics
    /// Panics if `spec` fails [`ScenarioSpec::validate`].
    pub fn stream_where<E>(
        &self,
        spec: &ScenarioSpec,
        existing: &[RunRecord],
        keep: impl Fn(&GridPoint) -> bool,
        mut on_record: impl FnMut(RunRecord) -> Result<(), E>,
    ) -> Result<u64, E> {
        if let Err(e) = spec.validate() {
            panic!("invalid scenario: {e}");
        }
        let _span = OBS_RESUME_SPAN.start();
        OBS_RUNS.inc();
        let points: Vec<GridPoint> =
            spec.grid(self.scale).into_iter().filter(|p| keep(p)).collect();
        let scenario_seq = self.scenario_sequence(&spec.name);

        let reusable: HashMap<u64, &RunRecord> = existing
            .iter()
            .filter(|r| r.scenario == spec.name)
            .map(|r| (r.point, r))
            .collect();

        let mut streamed = 0u64;
        for p in &points {
            let record = match reusable.get(&p.index) {
                Some(r) if record_matches_point(r, p, scenario_seq, spec) => (*r).clone(),
                _ => self
                    .compute_points(spec, &[p], scenario_seq)
                    .remove(&p.index)
                    .expect("compute_points yields a record per todo point"),
            };
            on_record(record)?;
            streamed += 1;
        }
        Ok(streamed)
    }

    /// The execution core shared by [`resume_where`](Self::resume_where)
    /// and [`stream_where`](Self::stream_where): per-point setup, parallel
    /// trial batches, and the schedule-independent fold into
    /// [`RunRecord`]s, keyed by grid-point index.
    fn compute_points(
        &self,
        spec: &ScenarioSpec,
        todo: &[&GridPoint],
        scenario_seq: SeedSequence,
    ) -> HashMap<u64, RunRecord> {
        // Per-point setup once; trial batches share it read-only.
        let prepared: Vec<_> = todo
            .iter()
            .map(|p| {
                let point_seq = scenario_seq.child(p.index);
                (*p, point_seq, spec.workload.prepare(p, point_seq))
            })
            .collect();

        // Flatten (point, trial range) work items so small grids with large
        // trial budgets still saturate the thread pool.
        let items: Vec<(usize, std::ops::Range<usize>)> = prepared
            .iter()
            .enumerate()
            .flat_map(|(slot, (p, _, _))| {
                let chunks = (p.trials.div_ceil(TRIALS_PER_ITEM)).max(1) as usize;
                balanced_ranges(p.trials as usize, chunks)
                    .into_iter()
                    .map(move |r| (slot, r))
            })
            .collect();

        // Per-point progress bookkeeping (only when requested): a slot is
        // done when its last trial range finishes, whichever worker ran it.
        let progress = self.progress.then(|| {
            let mut per_slot = vec![0u64; prepared.len()];
            for &(slot, _) in &items {
                per_slot[slot] += 1;
            }
            let remaining: Vec<AtomicU64> = per_slot.into_iter().map(AtomicU64::new).collect();
            (remaining, AtomicU64::new(0))
        });
        let total_points = prepared.len();

        let run_item = |&(slot, ref range): &(usize, std::ops::Range<usize>)| {
            let (_, point_seq, prep) = &prepared[slot];
            let trial_root = point_seq.child(1);
            let mut scratch = prep.scratch();
            let mut successes = 0u64;
            let mut values = Vec::with_capacity(range.len());
            for trial in range.clone() {
                let outcome = prep.run_trial_with(&mut scratch, trial_root.child(trial as u64));
                successes += u64::from(outcome.success);
                values.push(outcome.value);
            }
            if let Some((remaining, done)) = &progress {
                if remaining[slot].fetch_sub(1, Ordering::AcqRel) == 1 {
                    let finished = done.fetch_add(1, Ordering::AcqRel) + 1;
                    eprintln!("[sweep] {}: {finished}/{total_points} points", spec.name);
                }
            }
            (slot, successes, values)
        };
        // The executor cannot see a trial's work, so each trial counts as a
        // full FAN_OUT_WORK: the items fan out unless already nested.
        let trials: u64 = prepared.iter().map(|(p, _, _)| p.trials).sum();
        let partials = pool::map(items.len(), trials.saturating_mul(FAN_OUT_WORK), |i| {
            run_item(&items[i])
        });

        // Items arrive in submission order (ascending trial ranges per
        // slot), so concatenating value chunks restores trial order; the
        // left-fold sum below is then independent of the thread schedule,
        // keeping mean_value bit-reproducible.
        let mut successes = vec![0u64; prepared.len()];
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
        for (slot, succ, chunk) in partials {
            successes[slot] += succ;
            values[slot].extend(chunk);
        }
        if rlnc_obs::enabled() {
            OBS_POINTS.add(prepared.len() as u64);
            OBS_TRIALS.add(trials);
        }
        let value_sums: Vec<f64> = values.iter().map(|v| v.iter().sum()).collect();

        prepared
            .iter()
            .enumerate()
            .map(|(slot, (p, point_seq, _))| {
                let est = Estimate::from_counts(successes[slot], p.trials);
                let record = RunRecord {
                    scenario: spec.name.clone(),
                    point: p.index,
                    family: p.family.name().to_string(),
                    n: p.n as u64,
                    id_scheme: p.id_scheme.name(),
                    workload: spec.workload.name().to_string(),
                    param_a: p.params.a,
                    param_b: p.params.b,
                    trials: p.trials,
                    seed: point_seq.seed(),
                    successes: successes[slot],
                    p_hat: est.p_hat,
                    lower: est.lower,
                    upper: est.upper,
                    mean_value: value_sums[slot] / p.trials as f64,
                };
                (p.index, record)
            })
            .collect()
    }
}

/// Returns `true` if `record` pins exactly the work this executor would do
/// at `point` (so re-running it is provably redundant).
fn record_matches_point(
    record: &RunRecord,
    point: &GridPoint,
    scenario_seq: SeedSequence,
    spec: &ScenarioSpec,
) -> bool {
    record.point == point.index
        && record.family == point.family.name()
        && record.n == point.n as u64
        && record.id_scheme == point.id_scheme.name()
        && record.workload == spec.workload.name()
        && record.param_a == point.params.a
        && record.param_b == point.params.b
        && record.trials == point.trials
        && record.seed == scenario_seq.child(point.index).seed()
        && record.successes <= record.trials
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn smoke_spec() -> ScenarioSpec {
        Registry::builtin().get("smoke").expect("smoke scenario").clone()
    }

    #[test]
    fn runs_are_bit_reproducible_across_schedules_and_batching() {
        let spec = smoke_spec();
        let a = SweepExecutor::new(Scale::Smoke).with_seed(11).run(&spec);
        let b = SweepExecutor::new(Scale::Smoke).with_seed(11).run(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let spec = smoke_spec();
        let a = SweepExecutor::new(Scale::Smoke).with_seed(1).run(&spec);
        let b = SweepExecutor::new(Scale::Smoke).with_seed(2).run(&spec);
        assert_ne!(
            a.records.iter().map(|r| r.seed).collect::<Vec<_>>(),
            b.records.iter().map(|r| r.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn resume_reuses_matching_records_and_fills_the_rest() {
        let spec = smoke_spec();
        let exec = SweepExecutor::new(Scale::Smoke).with_seed(23);
        let full = exec.run(&spec);
        assert!(full.records.len() >= 2);
        let partial = &full.records[..full.records.len() / 2];
        let resumed = exec.resume(&spec, partial);
        assert_eq!(resumed, full);
        // Records from a different seed don't match and are recomputed.
        let stale = SweepExecutor::new(Scale::Smoke).with_seed(99).run(&spec);
        let recomputed = exec.resume(&spec, &stale.records);
        assert_eq!(recomputed, full);
    }

    #[test]
    fn records_carry_the_grid_coordinates() {
        let spec = smoke_spec();
        let run = SweepExecutor::new(Scale::Smoke).run(&spec);
        let grid = spec.grid(Scale::Smoke);
        assert_eq!(run.records.len(), grid.len());
        for (record, point) in run.records.iter().zip(&grid) {
            assert_eq!(record.point, point.index);
            assert_eq!(record.family, point.family.name());
            assert_eq!(record.trials, point.trials);
            assert!(record.successes <= record.trials);
            assert!((0.0..=1.0).contains(&record.p_hat));
            assert!(record.lower <= record.p_hat && record.p_hat <= record.upper);
        }
    }

    #[test]
    fn scenario_tags_separate_scenarios() {
        assert_ne!(scenario_tag("a"), scenario_tag("b"));
        assert_eq!(scenario_tag("smoke"), scenario_tag("smoke"));
        let exec = SweepExecutor::new(Scale::Smoke).with_seed(5);
        assert_ne!(
            exec.scenario_sequence("a").seed(),
            exec.scenario_sequence("b").seed()
        );
    }

    #[test]
    fn shard_runs_partition_the_grid_and_match_the_full_run() {
        let spec = smoke_spec();
        let exec = SweepExecutor::new(Scale::Smoke).with_seed(77);
        let full = exec.run(&spec);
        for count in [2u64, 3] {
            let shards: Vec<SweepRun> =
                (1..=count).map(|i| exec.run_shard(&spec, i, count)).collect();
            // Shards are disjoint, cover the grid, and reproduce the full
            // run's records bit-for-bit.
            let mut all: Vec<RunRecord> =
                shards.iter().flat_map(|s| s.records.iter().cloned()).collect();
            assert_eq!(all.len(), full.records.len());
            all.sort_by_key(|r| r.point);
            assert_eq!(all, full.records);
            for (i, shard) in shards.iter().enumerate() {
                assert!(shard.records.iter().all(|r| r.point % count == i as u64));
            }
        }
    }

    #[test]
    fn stream_where_matches_resume_where_and_stops_on_error() {
        let spec = smoke_spec();
        let exec = SweepExecutor::new(Scale::Smoke).with_seed(17);
        let full = exec.run(&spec);

        // Streaming the full grid delivers the same records in grid order.
        let mut streamed = Vec::new();
        let n = exec
            .stream_where(&spec, &[], |_| true, |r| {
                streamed.push(r);
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(n as usize, full.records.len());
        assert_eq!(streamed, full.records);

        // A shard filter with matching existing records re-serves them.
        let shard: Vec<RunRecord> =
            full.records.iter().filter(|r| r.point % 2 == 0).cloned().collect();
        assert!(!shard.is_empty());
        let mut resumed = Vec::new();
        exec.stream_where(&spec, &shard, |p| p.index % 2 == 0, |r| {
            resumed.push(r);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(resumed, shard);

        // An on_record error propagates and stops the stream.
        let mut delivered = 0;
        let err = exec.stream_where(&spec, &[], |_| true, |_| {
            delivered += 1;
            Err("stop")
        });
        assert_eq!(err, Err("stop"));
        assert_eq!(delivered, 1);
    }

    #[test]
    fn shard_runs_resume_like_full_runs() {
        let spec = smoke_spec();
        let exec = SweepExecutor::new(Scale::Smoke).with_seed(31);
        let shard = exec.run_shard(&spec, 2, 2);
        let resumed = exec.resume_shard(&spec, &shard.records, 2, 2);
        assert_eq!(resumed, shard);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn zero_based_shard_indices_are_rejected() {
        let spec = smoke_spec();
        let _ = SweepExecutor::new(Scale::Smoke).run_shard(&spec, 0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn out_of_range_shard_indices_are_rejected() {
        let spec = smoke_spec();
        let _ = SweepExecutor::new(Scale::Smoke).run_shard(&spec, 5, 4);
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn invalid_specs_are_rejected() {
        let mut spec = smoke_spec();
        spec.sizes.clear();
        let _ = SweepExecutor::new(Scale::Smoke).run(&spec);
    }
}
