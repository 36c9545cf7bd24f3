//! `bench-export` — the recorded perf trajectory of the execution engine.
//!
//! Measures the engine-vs-legacy hot paths with plain wall-clock timing
//! (warm-up pass + best-of-N repetitions) and emits a deterministic-schema
//! JSON document (`BENCH_<pr>.json`). The *values* are machine-dependent —
//! that is the point: committing one export per PR starts a perf
//! trajectory the project can read trends from, and CI uploads a fresh
//! export per run as an artifact.
//!
//! The groups:
//!
//! * `ring-monte-carlo` — the headline: K Monte-Carlo trials of the
//!   zero-round random 3-coloring on a consecutive-identity ring,
//!   legacy (re-collect every view each trial) vs engine
//!   ([`ExecutionPlan`] once + [`ExecutionPlan::estimate`]).
//! * `resilient-decider` — the Corollary-1 decider on a planted-conflict
//!   cycle: legacy `acceptance_probability` (radius-1 views re-collected
//!   per node per trial) vs the engine's cached decision plan.
//!
//!   Both sides of these two groups fan their trials out by the
//!   workspace's one rule ([`rlnc_par::pool::fans_out`]): on a multi-core
//!   machine both run on the pool, so the ratio isolates the plan
//!   amortization at equal thread counts.
//! * `ball-extraction` — the substrate: per-node `Ball::extract` vs the
//!   shared-scratch [`BallArena`] pass.
//! * `shard-overhead` — the sweep partitioning cost (new with the serve
//!   subsystem): one unsharded fault-matrix smoke sweep vs 4 shard runs
//!   plus `emit::merge_runs`, with byte-identical output asserted.
//! * `multi-algo-scan` — the batched K-algorithm kernel: K = 16
//!   label-comparing verdict deciders on a
//!   larger-than-LLC radius-1 ring decision plan, K per-decider
//!   `decide_randomized` trial loops vs one `acceptance_many` pass with
//!   the decider loop innermost, verdicts asserted bit-identical per
//!   decider.
//!
//! The derand groups (new with the pipeline refactor) measure the two
//! Theorem-1 kernels against their legacy `rlnc_core::derand` reference
//! implementations, asserting bit-identical success counts on the way:
//!
//! * `boosted-union-acceptance` — Claim 3's decide-over-union: legacy
//!   `disjoint_union_acceptance` (per-trial view collection on the union)
//!   vs the pipeline's [`UnionPlan`] kernel.
//! * `glued-acceptance` — Claims 4–5's far-from-every-anchor event: legacy
//!   `GluingExperiment::acceptance_far_from_all_anchors` (per-trial,
//!   per-anchor BFS + per-node view collection) vs the
//!   [`GluedPlan`](rlnc_engine::GluedPlan) kernel with its precomputed
//!   participation set.
//!
//! The `langs` groups (new with the language-registry refactor) measure
//! per-case verdict throughput for every LCL case in
//! [`CaseId::ALL`](rlnc_langs::registry::CaseId::ALL):
//!
//! * `lcl-verdicts-<case>` — the decider hot kernel on a fixed constructed
//!   configuration: legacy = rebuild the ball as a standalone `IoConfig`
//!   (two fresh label vectors) per verdict, exactly what the pre-refactor
//!   generic deciders did; engine = the view-native
//!   [`LclLanguage::is_bad_view`] hook. Verdict parity is asserted on the
//!   way. With the `count-alloc` feature, each side's allocation count per
//!   pass is recorded and the engine side is **asserted to be zero** — the
//!   acceptance criterion of the refactor — and the export carries a
//!   peak-live-bytes proxy so memory regressions show up in the
//!   trajectory. (Counting adds a few atomics per allocation, so wall
//!   times from a `count-alloc` build slightly overstate the cost of
//!   allocation-heavy paths; exports record whether the columns are
//!   present, and CI times its quick export without the feature.)

use rlnc_core::decision::acceptance_probability;
use rlnc_core::derand::boosting::disjoint_union_acceptance;
use rlnc_core::derand::gluing::{anchor_candidates, GluingExperiment};
use rlnc_core::derand::hard_instances::consecutive_cycle_candidates;
use rlnc_core::prelude::*;
use rlnc_derand::{DerandPipeline, PipelineParams};
use rlnc_engine::{ExecutionPlan, UnionPlan};
use rlnc_graph::arena::BallArena;
use rlnc_graph::ball::Ball;
use rlnc_graph::generators::cycle;
use rlnc_graph::{IdAssignment, NodeId};
use rlnc_langs::coloring::ProperColoring;
use rlnc_langs::random_coloring::RandomColoring;
use rlnc_par::trials::MonteCarlo;
use rlnc_sweep::workload::planted_cycle_configuration;
use std::time::Instant;

/// One engine-vs-legacy measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchGroup {
    /// Group name (stable across PRs, so trajectories can be joined).
    pub name: String,
    /// Instance size.
    pub n: usize,
    /// Trials (or repetitions) measured per pass.
    pub trials: u64,
    /// Best-of-N wall-clock nanoseconds for the legacy path.
    pub legacy_ns: u128,
    /// Best-of-N wall-clock nanoseconds for the engine path.
    pub engine_ns: u128,
    /// Allocation events of one legacy pass (present with `count-alloc`).
    pub legacy_allocs: Option<u64>,
    /// Allocation events of one engine pass (present with `count-alloc`).
    pub engine_allocs: Option<u64>,
    /// Approximate heap bytes of the engine path's cached state (plan /
    /// arena) — the deterministic cache-behavior proxy of the trajectory.
    pub working_set_bytes: u64,
    /// Deterministic-section `rlnc-obs` counter deltas of one engine pass
    /// (sorted by name, zero counters dropped): what work the pass did —
    /// trials run, balls extracted, decisions taken — independent of
    /// schedule and wall clock.
    pub counters: Vec<(String, u64)>,
}

impl BenchGroup {
    /// Legacy-over-engine speedup factor.
    pub fn speedup(&self) -> f64 {
        self.legacy_ns as f64 / self.engine_ns.max(1) as f64
    }
}

/// A full export: the groups plus the mode they ran at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchExport {
    /// `true` for the CI-friendly quick mode (smaller sizes, fewer reps).
    pub quick: bool,
    /// The measurements.
    pub groups: Vec<BenchGroup>,
    /// Peak live heap bytes observed across the run (present with
    /// `count-alloc`) — the memory-regression proxy of the trajectory.
    pub peak_alloc_bytes: Option<u64>,
    /// Cores available to the run (`None` in exports that predate the
    /// field).
    pub nproc: Option<u64>,
}

/// Allocation events of one `f()` call when the counting allocator is
/// compiled in; `None` otherwise.
fn count_allocs<F: FnMut()>(mut f: F) -> Option<u64> {
    #[cfg(feature = "count-alloc")]
    {
        let before = rlnc_obs::alloc_counter::allocations();
        f();
        return Some(rlnc_obs::alloc_counter::allocations() - before);
    }
    #[allow(unreachable_code)]
    {
        let _ = &mut f;
        None
    }
}

/// Deterministic-section counter deltas of one `f()` call, captured via
/// the process-global `rlnc-obs` registry. The registry is reset first, so
/// the result is exactly what `f` did; gauges, histograms, and spans are
/// dropped (the per-group export keeps the schema flat).
fn obs_counters<F: FnMut()>(mut f: F) -> Vec<(String, u64)> {
    rlnc_obs::reset();
    rlnc_obs::set_enabled(true);
    f();
    rlnc_obs::set_enabled(false);
    let doc = rlnc_obs::snapshot();
    doc.deterministic
        .iter()
        .filter_map(|(name, value)| match value {
            rlnc_obs::MetricValue::Counter(c) if *c > 0 => Some((name.to_string(), *c)),
            _ => None,
        })
        .collect()
}

/// Best-of-`reps` wall time of `f`, with one untimed warm-up pass.
fn best_of<F: FnMut()>(reps: u32, mut f: F) -> u128 {
    f();
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos());
    }
    best.max(1)
}

fn ring_monte_carlo(quick: bool) -> BenchGroup {
    let (n, trials, reps) = if quick { (256, 200u64, 3) } else { (256, 1_000u64, 5) };
    let graph = cycle(n);
    let input = Labeling::empty(n);
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);
    let algo = RandomColoring::new(3);
    let success = |out: &Labeling| out.get(NodeId(0)).as_u64() == 1;

    let legacy_ns = best_of(reps, || {
        let est = MonteCarlo::new(trials).with_seed(7).estimate(|seed| {
            let out = Simulator::new().run_randomized(&algo, &instance, seed);
            success(&out)
        });
        assert!(est.p_hat >= 0.0);
    });
    let engine_ns = best_of(reps, || {
        let plan = ExecutionPlan::for_instance(&instance, 0);
        let est = plan.estimate(&algo, trials, 7, success);
        assert!(est.p_hat >= 0.0);
    });
    let plan = ExecutionPlan::for_instance(&instance, 0);
    let working_set_bytes = plan.working_set_bytes();
    let counters = obs_counters(|| {
        let est = plan.estimate(&algo, trials, 7, success);
        assert!(est.p_hat >= 0.0);
    });
    BenchGroup {
        name: "ring-monte-carlo".into(),
        n,
        trials,
        legacy_ns,
        engine_ns,
        legacy_allocs: None,
        engine_allocs: None,
        working_set_bytes,
        counters,
    }
}

fn resilient_decider(quick: bool) -> BenchGroup {
    let (n, trials, reps) = if quick { (96, 500u64, 3) } else { (96, 2_000u64, 5) };
    let (graph, input, output) = planted_cycle_configuration(n, 2);
    let ids = IdAssignment::consecutive(&graph);
    let io = IoConfig::new(&graph, &input, &output);
    let decider = ResilientDecider::new(
        rlnc_langs::coloring::ProperColoring::new(2),
        4,
    );

    let legacy_ns = best_of(reps, || {
        let est = acceptance_probability(&decider, &io, &ids, trials, 11);
        assert!(est.p_hat >= 0.0);
    });
    let engine_ns = best_of(reps, || {
        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        let est = plan.acceptance(&decider, trials, 11);
        assert!(est.p_hat >= 0.0);
    });
    let plan = ExecutionPlan::for_io(&io, &ids, 1);
    let working_set_bytes = plan.working_set_bytes();
    let counters = obs_counters(|| {
        let est = plan.acceptance(&decider, trials, 11);
        assert!(est.p_hat >= 0.0);
    });
    BenchGroup {
        name: "resilient-decider".into(),
        n,
        trials,
        legacy_ns,
        engine_ns,
        legacy_allocs: None,
        engine_allocs: None,
        working_set_bytes,
        counters,
    }
}

fn ball_extraction(quick: bool) -> BenchGroup {
    let (n, radius, reps) = if quick { (1_024, 8u32, 3) } else { (4_096, 8u32, 5) };
    let graph = cycle(n);
    let legacy_ns = best_of(reps, || {
        let mut total = 0usize;
        for v in graph.nodes() {
            total += Ball::extract(&graph, v, radius).len();
        }
        assert_eq!(total, n * (2 * radius as usize + 1));
    });
    let engine_ns = best_of(reps, || {
        let arena = BallArena::extract_all(&graph, radius);
        assert_eq!(arena.total_members(), n * (2 * radius as usize + 1));
    });
    let working_set_bytes = BallArena::extract_all(&graph, radius).working_set_bytes();
    let counters = obs_counters(|| {
        let arena = BallArena::extract_all(&graph, radius);
        assert_eq!(arena.total_members(), n * (2 * radius as usize + 1));
    });
    BenchGroup {
        name: "ball-extraction-r8".into(),
        n,
        trials: 1,
        legacy_ns,
        engine_ns,
        legacy_allocs: None,
        engine_allocs: None,
        working_set_bytes,
        counters,
    }
}

fn boosted_union_acceptance(quick: bool) -> BenchGroup {
    let (cycle_size, nu, trials, reps) = if quick {
        (12usize, 6usize, 300u64, 3)
    } else {
        (12, 6, 1_500, 5)
    };
    let hard = consecutive_cycle_candidates([cycle_size]);
    let constructor = RandomColoring::new(3);
    let language = ProperColoring::new(3);
    let decider = OneSidedLclDecider::new(language, 0.75);

    let mut legacy_successes = 0u64;
    let legacy_ns = best_of(reps, || {
        let est = disjoint_union_acceptance(&constructor, &decider, &hard, nu, trials, 7);
        legacy_successes = est.successes;
    });
    let mut engine_successes = 0u64;
    let engine_ns = best_of(reps, || {
        let parts: Vec<_> = hard.iter().map(|h| (&h.graph, &h.input, &h.ids)).collect();
        let union = UnionPlan::for_parts(&parts, nu, 0, 1);
        let est = union
            .plan()
            .acceptance(&constructor, &decider, None, trials, 7);
        engine_successes = est.successes;
    });
    assert_eq!(
        legacy_successes, engine_successes,
        "union kernel must be bit-identical to the legacy estimator"
    );
    let parts: Vec<_> = hard.iter().map(|h| (&h.graph, &h.input, &h.ids)).collect();
    let union = UnionPlan::for_parts(&parts, nu, 0, 1);
    let working_set_bytes = union.plan().working_set_bytes();
    let counters = obs_counters(|| {
        let est = union
            .plan()
            .acceptance(&constructor, &decider, None, trials, 7);
        assert_eq!(est.successes, engine_successes);
    });
    BenchGroup {
        name: "boosted-union-acceptance".into(),
        n: cycle_size * nu,
        trials,
        legacy_ns,
        engine_ns,
        legacy_allocs: None,
        engine_allocs: None,
        working_set_bytes,
        counters,
    }
}

fn glued_acceptance(quick: bool) -> BenchGroup {
    let (cycle_size, nu, trials, reps) = if quick {
        (16usize, 4usize, 200u64, 3)
    } else {
        (16, 4, 1_000, 5)
    };
    let constructor = RandomColoring::new(3);
    let language = ProperColoring::new(3);
    let decider = OneSidedLclDecider::new(language, 0.75);
    let params = PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 };
    let build_parts = || consecutive_cycle_candidates(vec![cycle_size; nu]);
    let anchors_of = |parts: &[rlnc_core::derand::HardInstance]| -> Vec<NodeId> {
        parts.iter().map(|h| anchor_candidates(h, 0, 1, 0.75)[0]).collect()
    };

    let mut legacy_successes = 0u64;
    let legacy_ns = best_of(reps, || {
        let parts = build_parts();
        let anchors = anchors_of(&parts);
        let experiment = GluingExperiment::build(parts, anchors, 0, 1);
        let est = experiment.acceptance_far_from_all_anchors(&constructor, &decider, trials, 11);
        legacy_successes = est.successes;
    });
    let pipeline = DerandPipeline::new(&constructor, &decider, &language, params);
    let mut engine_successes = 0u64;
    let engine_ns = best_of(reps, || {
        let parts = build_parts();
        let anchors = anchors_of(&parts);
        let stage = pipeline.glued_stage(parts, anchors);
        let far = Some(stage.plan.participants());
        let est = stage.plan.plan().acceptance(&constructor, &decider, far, trials, 11);
        engine_successes = est.successes;
    });
    assert_eq!(
        legacy_successes, engine_successes,
        "glued kernel must be bit-identical to the legacy estimator"
    );
    let stage = pipeline.glued_stage(build_parts(), anchors_of(&build_parts()));
    let working_set_bytes = stage.plan.plan().working_set_bytes();
    let counters = obs_counters(|| {
        let far = Some(stage.plan.participants());
        let est = stage.plan.plan().acceptance(&constructor, &decider, far, trials, 11);
        assert_eq!(est.successes, engine_successes);
    });
    BenchGroup {
        name: "glued-acceptance".into(),
        n: cycle_size * nu + 2 * nu,
        trials,
        legacy_ns,
        engine_ns,
        legacy_allocs: None,
        engine_allocs: None,
        working_set_bytes,
        counters,
    }
}

/// One `lcl-verdicts-<case>` group: view-native vs `IoConfig`-rebuild
/// verdict throughput for an LCL case's language on a fixed constructed
/// configuration, with bit-identical verdict counts asserted.
fn lcl_verdict_group(
    case: &rlnc_langs::registry::LanguageCase,
    quick: bool,
) -> Option<BenchGroup> {
    let lcl = case.lcl.as_ref()?;
    let (n, passes, reps) = if quick { (96usize, 50u64, 3) } else { (192, 300u64, 5) };
    let family = case.candidate_family(rlnc_graph::generators::Family::Cycle);
    let mut rng = rlnc_par::SeedSequence::new(13).rng();
    let graph = family.generate(n, &mut rng);
    let ids = IdAssignment::consecutive(&graph);
    let input = case.build_input(&graph, &ids);
    let instance = Instance::new(&graph, &input, &ids);
    // One constructed output at a fixed seed, then the decision views the
    // generic deciders would verdict on.
    let out = Simulator::new().run_randomized(
        &*case.constructor,
        &instance,
        rlnc_par::SeedSequence::new(0).child(0),
    );
    let io = IoConfig::new(&graph, &input, &out);
    let views = View::collect_all_io(&io, &ids, lcl.radius());

    // Legacy: the pre-refactor decider body — rebuild the ball as a
    // standalone configuration (two fresh label vectors) per verdict.
    let legacy_pass = || {
        let mut bad = 0usize;
        for view in &views {
            let local_input = Labeling::new((0..view.len()).map(|i| *view.input(i)).collect());
            let local_output = Labeling::new((0..view.len()).map(|i| *view.output(i)).collect());
            let local_io = IoConfig::new(view.local_graph(), &local_input, &local_output);
            bad += usize::from(
                lcl.is_bad_ball(&local_io, NodeId::from_index(view.center_local())),
            );
        }
        bad
    };
    let engine_pass = || {
        let mut bad = 0usize;
        for view in &views {
            bad += usize::from(lcl.is_bad_view(view));
        }
        bad
    };
    assert_eq!(
        legacy_pass(),
        engine_pass(),
        "case '{}': view-native verdicts must match the IoConfig path",
        case.name
    );
    let legacy_ns = best_of(reps, || {
        let mut total = 0usize;
        for _ in 0..passes {
            total += legacy_pass();
        }
        assert!(total < usize::MAX);
    });
    let engine_ns = best_of(reps, || {
        let mut total = 0usize;
        for _ in 0..passes {
            total += engine_pass();
        }
        assert!(total < usize::MAX);
    });
    let legacy_allocs = count_allocs(|| {
        let _ = legacy_pass();
    });
    let engine_allocs = count_allocs(|| {
        let _ = engine_pass();
    });
    if let Some(allocs) = engine_allocs {
        assert_eq!(
            allocs, 0,
            "case '{}': view-native verdicts must perform zero heap allocations",
            case.name
        );
    }
    let working_set_bytes: u64 = views.iter().map(|v| v.memory_bytes()).sum();
    let counters = obs_counters(|| {
        let _ = engine_pass();
    });
    Some(BenchGroup {
        name: format!("lcl-verdicts-{}", case.name),
        n,
        trials: passes,
        legacy_ns,
        engine_ns,
        legacy_allocs,
        engine_allocs,
        working_set_bytes,
        counters,
    })
}

/// The `shard-overhead` group (new with the serve subsystem): one
/// unsharded fault-matrix smoke sweep (legacy) vs the same sweep split
/// across 4 shards and reassembled with `emit::merge_runs` (engine). The
/// merged export is asserted byte-identical to the unsharded one on the
/// way, so the trajectory row doubles as a parity pin and the measured
/// ratio is pure partitioning + merge overhead. `n` is the grid size,
/// `trials` the shard count, and the working set is the export itself.
fn shard_overhead(quick: bool) -> BenchGroup {
    const SHARDS: u64 = 4;
    let reps = if quick { 2 } else { 3 };
    let registry = rlnc_sweep::Registry::builtin();
    let spec = registry.get("fault-matrix").expect("fault-matrix scenario").clone();
    let exec = rlnc_sweep::SweepExecutor::new(rlnc_par::Scale::Smoke).with_seed(0x5EED);
    let full = exec.run(&spec);
    let full_json = rlnc_sweep::emit::to_json(&full);

    let legacy_ns = best_of(reps, || {
        let run = exec.run(&spec);
        assert_eq!(run.records.len(), full.records.len());
    });
    let mut merged_json = String::new();
    let engine_ns = best_of(reps, || {
        let shards: Vec<_> = (1..=SHARDS).map(|i| exec.run_shard(&spec, i, SHARDS)).collect();
        let merged = rlnc_sweep::emit::merge_runs(&shards).expect("shards merge");
        merged_json = rlnc_sweep::emit::to_json(&merged);
    });
    assert_eq!(
        merged_json, full_json,
        "4-shard merge must be byte-identical to the unsharded sweep"
    );
    let counters = obs_counters(|| {
        let shards: Vec<_> = (1..=SHARDS).map(|i| exec.run_shard(&spec, i, SHARDS)).collect();
        let _ = rlnc_sweep::emit::merge_runs(&shards).expect("shards merge");
    });
    BenchGroup {
        name: "shard-overhead".into(),
        n: full.records.len(),
        trials: SHARDS,
        legacy_ns,
        engine_ns,
        legacy_allocs: None,
        engine_allocs: None,
        working_set_bytes: full_json.len() as u64,
        counters,
    }
}

/// One always-accepting verdict decider: compare the center's output
/// label against each neighbor's, plus a `j`-shifted probe value that can
/// never match a valid color. Data-dependent (the compiler cannot fold the
/// walk away) yet guaranteed to accept on a proper coloring, so every
/// trial walks the full view sweep on both sides.
fn scan_decider(j: u64) -> FnRandomizedDecider<impl Fn(&View, &Coins) -> bool + Sync> {
    FnRandomizedDecider::new(1, "scan-verdict", move |view: &View, _coins: &Coins| {
        let mine = view.output(view.center_local());
        let probe = mine.as_u64() + 7 + j;
        let mut clash = false;
        for i in view.center_neighbor_indices() {
            clash |= view.output(i) == mine;
            clash |= view.output(i).as_u64() == probe;
        }
        !clash
    })
}

/// The batched K-decider scan (the `acceptance_many` kernel): K = 16
/// label-comparing verdict deciders over a properly 3-colored ring whose
/// decision plan exceeds the last-level cache. Legacy = K per-decider
/// [`ExecutionPlan::decide_randomized`] trial loops — the per-algorithm
/// loop the Claim-2 scan used to run — each trial re-streaming every
/// cached view from memory; engine = one [`ExecutionPlan::acceptance_many`]
/// pass with the decider loop innermost, so each view is loaded once per
/// trial and serves all K verdicts while hot. Verdict parity (successes
/// per decider) is asserted on the way. The legacy loop runs on the
/// caller; the engine pass clears the fan-out threshold, so on a
/// multi-core machine its two trials run as two pool tasks and the
/// ratio includes up to a twofold thread advantage on top of the
/// view-walk amortization.
fn multi_algo_scan(quick: bool) -> BenchGroup {
    let (n, reps) = if quick { (3usize << 14, 3) } else { (3 << 19, 3) };
    let k = 16u64;
    let trials = 2u64;
    let graph = cycle(n);
    let input = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 5));
    // `n` is a multiple of 3, so color-by-index is a proper 3-coloring
    // (colors 1..=3) and every decider accepts every view.
    let output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0) % 3 + 1));
    let ids = IdAssignment::consecutive(&graph);
    let io = IoConfig::new(&graph, &input, &output);
    let plan = ExecutionPlan::for_io(&io, &ids, 1);
    let deciders: Vec<_> = (0..k).map(scan_decider).collect();
    let refs: Vec<&dyn RandomizedDecider> =
        deciders.iter().map(|d| d as &dyn RandomizedDecider).collect();
    let root = rlnc_par::SeedSequence::new(0xC2);
    let accepted = |decider: &dyn RandomizedDecider| {
        (0..trials)
            .filter(|&t| plan.decide_randomized(decider, root.child(t)))
            .count() as u64
    };
    let batched = plan.acceptance_many(&refs, trials, 0xC2);
    for (decider, estimate) in refs.iter().zip(&batched) {
        assert_eq!(
            estimate.successes,
            accepted(*decider),
            "the batched scan must be bit-identical to the per-decider loop"
        );
        assert_eq!(estimate.successes, trials, "scan deciders accept by construction");
    }
    let legacy_ns = best_of(reps, || {
        let mut successes = 0u64;
        for decider in &refs {
            successes += accepted(*decider);
        }
        assert_eq!(successes, k * trials);
    });
    let engine_ns = best_of(reps, || {
        let estimates = plan.acceptance_many(&refs, trials, 0xC2);
        assert_eq!(estimates.len(), k as usize);
    });
    let counters = obs_counters(|| {
        let _ = plan.acceptance_many(&refs, trials, 0xC2);
    });
    BenchGroup {
        name: "multi-algo-scan".into(),
        n,
        trials: k,
        legacy_ns,
        engine_ns,
        legacy_allocs: None,
        engine_allocs: None,
        working_set_bytes: plan.working_set_bytes(),
        counters,
    }
}

/// The `langs` groups: one per LCL case in the registry.
fn lcl_verdict_groups(quick: bool) -> Vec<BenchGroup> {
    rlnc_langs::registry::CaseId::ALL
        .into_iter()
        .filter_map(|id| lcl_verdict_group(&id.case(), quick))
        .collect()
}

/// Runs all engine-vs-legacy measurements.
pub fn run(quick: bool) -> BenchExport {
    let mut groups = vec![
        ring_monte_carlo(quick),
        resilient_decider(quick),
        ball_extraction(quick),
        boosted_union_acceptance(quick),
        glued_acceptance(quick),
        shard_overhead(quick),
        multi_algo_scan(quick),
    ];
    groups.extend(lcl_verdict_groups(quick));
    #[cfg(feature = "count-alloc")]
    let peak_alloc_bytes = Some(rlnc_obs::alloc_counter::peak_bytes() as u64);
    #[cfg(not(feature = "count-alloc"))]
    let peak_alloc_bytes = None;
    BenchExport {
        quick,
        groups,
        peak_alloc_bytes,
        nproc: std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u64),
    }
}

/// Serializes an export as deterministic-schema JSON (hand-rolled; the
/// vendored serde is a no-op stub — same convention as `rlnc-sweep::emit`).
///
/// Every field is always present: allocation fields and
/// `peak_alloc_bytes` are an explicit `null` when the export was produced
/// without the `count-alloc` feature, so downstream parsers (and
/// `bench-gate`) never have to guess whether a column was measured or
/// merely omitted. `nproc` records the core count the run saw.
pub fn to_json(export: &BenchExport) -> String {
    let opt_u64 = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rlnc-bench-export-v2\",\n");
    out.push_str("  \"bench\": \"engine-vs-legacy\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if export.quick { "quick" } else { "full" }
    ));
    out.push_str(&format!(
        "  \"peak_alloc_bytes\": {},\n",
        opt_u64(export.peak_alloc_bytes)
    ));
    out.push_str(&format!("  \"nproc\": {},\n", opt_u64(export.nproc)));
    out.push_str("  \"groups\": [\n");
    for (i, g) in export.groups.iter().enumerate() {
        let mut counters = String::from("{");
        for (j, (name, value)) in g.counters.iter().enumerate() {
            if j > 0 {
                counters.push(',');
            }
            counters.push_str(&format!("\"{name}\":{value}"));
        }
        counters.push('}');
        out.push_str(&format!(
            concat!(
                "    {{\"name\":\"{}\",\"n\":{},\"trials\":{},",
                "\"legacy_ns\":{},\"engine_ns\":{},\"speedup\":{:.2},",
                "\"working_set_bytes\":{},\"counters\":{},",
                "\"legacy_allocs\":{},\"engine_allocs\":{}}}{}\n"
            ),
            g.name,
            g.n,
            g.trials,
            g.legacy_ns,
            g.engine_ns,
            g.speedup(),
            g.working_set_bytes,
            counters,
            opt_u64(g.legacy_allocs),
            opt_u64(g.engine_allocs),
            if i + 1 < export.groups.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `bench-export` JSON document back into a [`BenchExport`].
///
/// Accepts both the current `rlnc-bench-export-v2` schema and the v1
/// files committed by earlier PRs (`BENCH_4.json`, `BENCH_5.json`), where
/// `working_set_bytes`/`counters` are absent (parsed as `0`/empty) and
/// allocation fields are omitted rather than `null`. `nproc` is optional
/// (absent before it was recorded). This is what `bench-gate` loads its
/// baseline through.
pub fn from_json(text: &str) -> Result<BenchExport, String> {
    use rlnc_sweep::emit::json;

    let opt_u64 = |fields: &[(String, json::Value)],
                   key: &str,
                   what: &str|
     -> Result<Option<u64>, String> {
        match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            None | Some(json::Value::Null) => Ok(None),
            Some(v) => v.as_u64(what).map(Some),
        }
    };

    let value = json::parse(text)?;
    let obj = value.as_object("top level")?;
    let schema = json::get(obj, "schema")?.as_string("schema")?;
    if schema != "rlnc-bench-export-v2" && schema != "rlnc-bench-export-v1" {
        return Err(format!("unsupported bench schema '{schema}'"));
    }
    let quick = match json::get(obj, "mode")?.as_string("mode")?.as_str() {
        "quick" => true,
        "full" => false,
        other => return Err(format!("mode: expected quick|full, got '{other}'")),
    };
    let peak_alloc_bytes = opt_u64(obj, "peak_alloc_bytes", "peak_alloc_bytes")?;
    let nproc = opt_u64(obj, "nproc", "nproc")?;
    let mut groups = Vec::new();
    for (i, gv) in json::get(obj, "groups")?.as_array("groups")?.iter().enumerate() {
        let g = gv.as_object(&format!("groups[{i}]"))?;
        let mut counters = Vec::new();
        if let Some((_, cv)) = g.iter().find(|(k, _)| k == "counters") {
            for (name, v) in cv.as_object("counters")? {
                counters.push((name.clone(), v.as_u64(&format!("counters.{name}"))?));
            }
        }
        groups.push(BenchGroup {
            name: json::get(g, "name")?.as_string("name")?,
            n: json::get(g, "n")?.as_u64("n")? as usize,
            trials: json::get(g, "trials")?.as_u64("trials")?,
            legacy_ns: u128::from(json::get(g, "legacy_ns")?.as_u64("legacy_ns")?),
            engine_ns: u128::from(json::get(g, "engine_ns")?.as_u64("engine_ns")?),
            legacy_allocs: opt_u64(g, "legacy_allocs", "legacy_allocs")?,
            engine_allocs: opt_u64(g, "engine_allocs", "engine_allocs")?,
            working_set_bytes: opt_u64(g, "working_set_bytes", "working_set_bytes")?
                .unwrap_or(0),
            counters,
        });
    }
    Ok(BenchExport {
        quick,
        groups,
        peak_alloc_bytes,
        nproc,
    })
}

/// Renders the human-readable summary printed alongside the export.
pub fn to_summary(export: &BenchExport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "engine-vs-legacy ({} mode, nproc {})\n",
        if export.quick { "quick" } else { "full" },
        export
            .nproc
            .map_or_else(|| "unknown".to_string(), |n| n.to_string())
    ));
    for g in &export.groups {
        let allocs = match (g.legacy_allocs, g.engine_allocs) {
            (Some(l), Some(e)) => format!("  allocs {l} -> {e}"),
            _ => String::new(),
        };
        out.push_str(&format!(
            "  {:<28} n={:<6} legacy {:>12} ns  engine {:>12} ns  speedup {:>6.2}x  ws {:>9} B{}\n",
            g.name,
            g.n,
            g.legacy_ns,
            g.engine_ns,
            g.speedup(),
            g.working_set_bytes,
            allocs
        ));
    }
    if let Some(peak) = export.peak_alloc_bytes {
        out.push_str(&format!("  peak live heap: {peak} bytes\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_export_measures_and_serializes() {
        let export = run(true);
        // 7 engine groups plus one lcl-verdicts group per LCL case.
        let lcl_cases = rlnc_langs::registry::CaseId::ALL
            .into_iter()
            .filter(|id| id.case().lcl.is_some())
            .count();
        assert_eq!(export.groups.len(), 7 + lcl_cases);
        for group in &export.groups {
            assert!(group.legacy_ns > 0 && group.engine_ns > 0);
            assert!(group.speedup() > 0.0);
        }
        let json = to_json(&export);
        assert!(json.contains("\"schema\": \"rlnc-bench-export-v2\""));
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("ring-monte-carlo"));
        assert!(json.contains("boosted-union-acceptance"));
        assert!(json.contains("glued-acceptance"));
        assert!(json.contains("multi-algo-scan"));
        assert!(json.contains("lcl-verdicts-coloring3"));
        assert!(json.contains("lcl-verdicts-matching"));
        assert!(json.ends_with("}\n"));
        let summary = to_summary(&export);
        assert!(summary.contains("speedup"));
        assert!(summary.contains("lcl-verdicts-min-dominating-set"));
        // Alloc fields are always present; they are null exactly when the
        // counting allocator is compiled out.
        let counted = cfg!(feature = "count-alloc");
        assert!(json.contains("\"legacy_allocs\":"));
        // Only the lcl-verdicts groups measure per-pass allocations, so
        // nulls appear in both builds; *measured* values only when counted.
        assert_eq!(
            export.groups.iter().any(|g| g.legacy_allocs.is_some()),
            counted
        );
        assert_eq!(json.contains("\"peak_alloc_bytes\": null"), !counted);
        assert_eq!(export.peak_alloc_bytes.is_some(), counted);
        // Enrichment: every group carries a working-set proxy, and the
        // engine groups report what work their pass did.
        for group in &export.groups {
            assert!(
                group.working_set_bytes > 0,
                "group '{}' has no working-set proxy",
                group.name
            );
        }
        let ring = export.groups.iter().find(|g| g.name == "ring-monte-carlo").unwrap();
        assert!(
            ring.counters.iter().any(|(name, v)| name == "engine.batch.trials" && *v > 0),
            "ring group counters: {:?}",
            ring.counters
        );
        assert!(ring.counters.windows(2).all(|w| w[0].0 < w[1].0), "counters sorted");
    }

    #[test]
    fn json_round_trips_through_from_json() {
        // A hand-built export exercises both null and present optionals
        // without paying for a measurement run.
        let export = BenchExport {
            quick: false,
            peak_alloc_bytes: Some(123_456),
            nproc: Some(2),
            groups: vec![
                BenchGroup {
                    name: "demo-a".into(),
                    n: 96,
                    trials: 500,
                    legacy_ns: 1_000_000,
                    engine_ns: 250_000,
                    legacy_allocs: Some(4_200),
                    engine_allocs: Some(0),
                    working_set_bytes: 8_192,
                    counters: vec![
                        ("engine.batch.trials".into(), 500),
                        ("graph.arena.balls".into(), 96),
                    ],
                },
                BenchGroup {
                    name: "demo-b".into(),
                    n: 16,
                    trials: 1,
                    legacy_ns: 10,
                    engine_ns: 7,
                    legacy_allocs: None,
                    engine_allocs: None,
                    working_set_bytes: 640,
                    counters: Vec::new(),
                },
            ],
        };
        let back = from_json(&to_json(&export)).expect("parse back");
        assert_eq!(back, export);
        // And the emit of the parse is byte-identical (full round trip).
        assert_eq!(to_json(&back), to_json(&export));
    }

    #[test]
    fn from_json_accepts_v1_exports_without_enrichment() {
        // The shape BENCH_4.json / BENCH_5.json were committed in.
        let v1 = concat!(
            "{\n",
            "  \"schema\": \"rlnc-bench-export-v1\",\n",
            "  \"bench\": \"engine-vs-legacy\",\n",
            "  \"mode\": \"full\",\n",
            "  \"groups\": [\n",
            "    {\"name\":\"ring-monte-carlo\",\"n\":256,\"trials\":1000,",
            "\"legacy_ns\":5000,\"engine_ns\":1000,\"speedup\":5.00}\n",
            "  ]\n}\n"
        );
        let export = from_json(v1).expect("v1 parses");
        assert!(!export.quick);
        assert_eq!(export.peak_alloc_bytes, None);
        assert_eq!(export.nproc, None);
        assert_eq!(export.groups.len(), 1);
        assert_eq!(export.groups[0].legacy_allocs, None);
        assert_eq!(export.groups[0].working_set_bytes, 0);
        assert!(export.groups[0].counters.is_empty());
        assert!(from_json("{\"schema\":\"bogus\"}").is_err());
    }
}
