//! The batch runner: `(algorithm × plan × K seeds)` in blocked passes.
//!
//! A [`BatchRunner`] owns only the block size. Every method dispatches
//! through one blocked helper: iff the workspace's one rule, [`fans_out`],
//! says so for the pass's total work in ball members (plan work × trials
//! × algorithms), the pass is split into blocks that run on the thread
//! pool — so never inside an already-parallel region; otherwise it runs
//! as one block on the caller. The choice can never change a result:
//! every trial's coins derive from `(trial seed, node)` alone.
//!
//! The single-execution methods are the K=1 case of the batched ones:
//! [`BatchRunner::run`] and [`BatchRunner::run_randomized`] walk the views
//! like [`BatchRunner::run_many`], and [`BatchRunner::acceptance`] is
//! [`BatchRunner::acceptance_many`] over one decider.

use crate::plan::ExecutionPlan;
use rlnc_core::algorithm::{Coins, LocalAlgorithm, RandomizedLocalAlgorithm};
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::labels::{Label, Labeling};
use rlnc_core::view::View;
use rlnc_graph::NodeId;
use rlnc_obs::{LazyCounter, Section};
use rlnc_par::pool::fans_out;
use rlnc_par::rng::SeedSequence;
use rlnc_par::stats::Estimate;
use rlnc_par::sweep::{balanced_ranges, sweep};
use std::ops::Range;

// Trials executed are a function of the requested batch alone —
// deterministic. Pass counts depend on the block-size knob, and the
// parallel/sequential split on core count and nesting context, so those
// stay in the timing section.
static OBS_TRIALS: LazyCounter = LazyCounter::new("engine.batch.trials", Section::Deterministic);
static OBS_BLOCKED_PASSES: LazyCounter =
    LazyCounter::new("engine.batch.blocked_passes", Section::Timing);
static OBS_PARALLEL_PASSES: LazyCounter =
    LazyCounter::new("engine.batch.parallel_passes", Section::Timing);
static OBS_SEQUENTIAL_PASSES: LazyCounter =
    LazyCounter::new("engine.batch.sequential_passes", Section::Timing);

/// Records one batched pass over `trials` trials into the registry.
fn record_batch_pass(trials: u64, parallel: bool) {
    if !rlnc_obs::enabled() {
        return;
    }
    OBS_TRIALS.add(trials);
    OBS_BLOCKED_PASSES.inc();
    if parallel {
        OBS_PARALLEL_PASSES.inc();
    } else {
        OBS_SEQUENTIAL_PASSES.inc();
    }
}

/// Evaluates algorithms against [`ExecutionPlan`]s, one seed or many.
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    block: u64,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// A runner with 64-item blocks.
    pub fn new() -> Self {
        BatchRunner { block: 64 }
    }

    /// Overrides the block size (trials, or nodes for view walks, per pool
    /// work item). Results are independent of this knob; it only shapes
    /// load balancing when a pass fans out.
    ///
    /// # Panics
    /// Panics if `block` is zero.
    pub fn with_block(mut self, block: u64) -> Self {
        assert!(block > 0, "block size must be positive");
        self.block = block;
        self
    }

    /// The one dispatch path: iff [`fans_out`]`(work)`, chunks `0..items`
    /// into blocks and maps `f` over them on the pool, in ascending-range
    /// order; otherwise `f` runs once over the whole range on the caller
    /// (blocks only balance load across threads). `pass` is the trial
    /// count a batch pass records in the registry; single executions,
    /// which are not batch passes, give `None`.
    pub(crate) fn run_blocked<T, F>(
        &self,
        items: usize,
        work: u64,
        pass: Option<u64>,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&Range<usize>) -> T + Sync,
    {
        let parallel = fans_out(work);
        if let Some(trials) = pass {
            record_batch_pass(trials, parallel);
        }
        if parallel {
            sweep(balanced_ranges(items, items.div_ceil(self.block as usize)), f)
        } else {
            vec![f(&(0..items))]
        }
    }

    /// Evaluates a deterministic algorithm once against the plan — the
    /// K=1 case of [`BatchRunner::run_many`].
    pub fn run<A: LocalAlgorithm + ?Sized>(&self, algo: &A, plan: &ExecutionPlan) -> Labeling {
        plan.assert_radius(algo.radius());
        let mut outs = self.walk_views(plan, &[algo], None, |a, view| a.output(view));
        outs.pop().expect("one algorithm yields one labeling")
    }

    /// Evaluates one execution of a randomized algorithm against the plan,
    /// walking the views like [`BatchRunner::run`].
    pub fn run_randomized<A: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        plan: &ExecutionPlan,
        execution_seed: SeedSequence,
    ) -> Labeling {
        plan.assert_radius(algo.radius());
        let coins = Coins::new(execution_seed);
        let mut outs = self.walk_views(plan, &[algo], None, |a, view| a.output(view, &coins));
        outs.pop().expect("one algorithm yields one labeling")
    }

    /// Evaluates **K same-radius deterministic algorithms** against the
    /// plan in one view walk: node blocks are dispatched like every other
    /// pass, and within each block the algorithm loop runs *innermost* —
    /// every view is loaded once and serves all K output functions while
    /// hot, amortizing the walk's memory traffic across the whole
    /// algorithm slice. Returns one labeling per algorithm, in slice
    /// order.
    ///
    /// Bit-identical to K [`ExecutionPlan::run`] calls: each output is a
    /// pure function of the (immutable) view, so neither the loop
    /// interchange nor the block dispatch can change a label.
    pub fn run_many<A: LocalAlgorithm + ?Sized>(
        &self,
        algos: &[&A],
        plan: &ExecutionPlan,
    ) -> Vec<Labeling> {
        for algo in algos {
            plan.assert_radius(algo.radius());
        }
        if algos.is_empty() {
            return Vec::new();
        }
        self.walk_views(plan, algos, Some(algos.len() as u64), |a, view| {
            a.output(view)
        })
    }

    /// One blocked walk over the plan's views evaluating `output(algo,
    /// view)` for every algorithm, the algorithm loop innermost; work is
    /// the plan's work per execution times K.
    fn walk_views<A, F>(
        &self,
        plan: &ExecutionPlan,
        algos: &[&A],
        pass: Option<u64>,
        output: F,
    ) -> Vec<Labeling>
    where
        A: ?Sized + Sync,
        F: Fn(&A, &View) -> Label + Sync,
    {
        let k = algos.len();
        let n = plan.node_count();
        let work = (plan.work_per_execution() as u64).saturating_mul(k as u64);
        let blocks = self.run_blocked(n, work, pass, |range: &Range<usize>| {
            let mut parts: Vec<Vec<Label>> =
                (0..k).map(|_| Vec::with_capacity(range.len())).collect();
            for view in &plan.views()[range.clone()] {
                for (slot, algo) in parts.iter_mut().zip(algos) {
                    slot.push(output(algo, view));
                }
            }
            parts
        });
        // The first block's vectors become the outputs, so a walk that
        // does not fan out copies no label.
        let mut blocks = blocks.into_iter();
        let mut outs = blocks.next().unwrap_or_else(|| vec![Vec::new(); k]);
        for block in blocks {
            for (slot, part) in outs.iter_mut().zip(block) {
                slot.extend(part);
            }
        }
        outs.into_iter().map(Labeling::new).collect()
    }

    /// Estimates the acceptance probability of **K deciders at once** over
    /// a decision plan: trials are blocked, and within each trial one walk
    /// over the cached views runs the decider loop innermost, keeping one
    /// verdict bit per decider (a rejected decider is never re-evaluated,
    /// and the walk stops early once every verdict has settled).
    ///
    /// Bit-identical, decider by decider, to the per-trial
    /// [`ExecutionPlan::decide_randomized`] loop with the same master
    /// seed: trial `t`'s coins derive from `(master_seed, t, node)` alone,
    /// and a decider's trial verdict is "accepts at every view" either
    /// way — skipped evaluations only ever follow a rejection that already
    /// settled the verdict.
    pub fn acceptance_many<D>(
        &self,
        deciders: &[&D],
        plan: &ExecutionPlan,
        trials: u64,
        master_seed: u64,
    ) -> Vec<Estimate>
    where
        D: RandomizedDecider + ?Sized,
    {
        assert!(
            plan.has_outputs(),
            "acceptance_many needs a decision plan (ExecutionPlan::for_io)"
        );
        for decider in deciders {
            assert_eq!(
                decider.radius(),
                plan.radius(),
                "decider radius {} does not match plan radius {}",
                decider.radius(),
                plan.radius()
            );
        }
        let k = deciders.len();
        if k == 0 {
            return Vec::new();
        }
        let words = k.div_ceil(64);
        let root = SeedSequence::new(master_seed);
        let run_block = |range: &Range<usize>| -> Vec<u64> {
            let mut successes = vec![0u64; k];
            let mut alive = vec![0u64; words];
            for trial in range.clone() {
                let coins = Coins::new(root.child(trial as u64));
                for slot in alive.iter_mut() {
                    *slot = u64::MAX;
                }
                if k % 64 != 0 {
                    alive[words - 1] = (1u64 << (k % 64)) - 1;
                }
                let mut remaining = k;
                'walk: for view in plan.views() {
                    for (j, decider) in deciders.iter().enumerate() {
                        let bit = 1u64 << (j % 64);
                        if alive[j / 64] & bit != 0 && !decider.accepts(view, &coins) {
                            alive[j / 64] &= !bit;
                            remaining -= 1;
                            if remaining == 0 {
                                break 'walk;
                            }
                        }
                    }
                }
                for (j, success) in successes.iter_mut().enumerate() {
                    *success += (alive[j / 64] >> (j % 64)) & 1;
                }
            }
            successes
        };
        let total_work = (plan.work_per_execution() as u64)
            .saturating_mul(trials)
            .saturating_mul(k as u64);
        let counts = self.run_blocked(trials as usize, total_work, Some(trials), run_block);
        let mut successes = vec![0u64; k];
        for block in counts {
            for (total, count) in successes.iter_mut().zip(block) {
                *total += count;
            }
        }
        successes
            .into_iter()
            .map(|s| Estimate::from_counts(s, trials))
            .collect()
    }

    /// Runs one execution per seed and maps each output labeling through
    /// `f`, returning the results in seed order. Trials are grouped into
    /// blocks; each block reuses one output buffer.
    pub fn map_executions<A, T, F>(
        &self,
        algo: &A,
        plan: &ExecutionPlan,
        seeds: &[SeedSequence],
        f: F,
    ) -> Vec<T>
    where
        A: RandomizedLocalAlgorithm + ?Sized,
        T: Send,
        F: Fn(usize, &Labeling) -> T + Sync,
    {
        plan.assert_radius(algo.radius());
        let n = plan.node_count();
        let run_block = |range: &Range<usize>| -> Vec<T> {
            let mut out = Labeling::empty(n);
            let mut results = Vec::with_capacity(range.len());
            for trial in range.clone() {
                let coins = Coins::new(seeds[trial]);
                for (i, view) in plan.views().iter().enumerate() {
                    out.set(NodeId::from_index(i), algo.output(view, &coins));
                }
                results.push(f(trial, &out));
            }
            results
        };
        let trials = seeds.len() as u64;
        let work = (plan.work_per_execution() as u64).saturating_mul(trials);
        let nested = self.run_blocked(seeds.len(), work, Some(trials), run_block);
        nested.into_iter().flatten().collect()
    }

    /// Estimates `Pr[success(output)]` over `trials` executions whose seeds
    /// derive from `(master_seed, trial)` exactly like
    /// [`MonteCarlo`](rlnc_par::MonteCarlo) — the per-trial success stream
    /// is bit-identical to running the legacy simulator under
    /// `MonteCarlo::new(trials).with_seed(master_seed)`.
    pub fn estimate<A, F>(
        &self,
        algo: &A,
        plan: &ExecutionPlan,
        trials: u64,
        master_seed: u64,
        success: F,
    ) -> Estimate
    where
        A: RandomizedLocalAlgorithm + ?Sized,
        F: Fn(&Labeling) -> bool + Sync,
    {
        let root = SeedSequence::new(master_seed);
        let seeds: Vec<SeedSequence> = (0..trials).map(|i| root.child(i)).collect();
        let flags = self.map_executions(algo, plan, &seeds, |_, out| success(out));
        Estimate::from_counts(flags.into_iter().filter(|&b| b).count() as u64, trials)
    }

    /// Estimates the acceptance probability `Pr[all nodes accept]` of a
    /// randomized decider over a **decision plan** (fixed outputs), with
    /// the same `(master_seed, trial)` seed derivation as
    /// [`acceptance_probability`](rlnc_core::decision::acceptance_probability)
    /// — the K=1 case of [`BatchRunner::acceptance_many`].
    pub fn acceptance<D>(
        &self,
        decider: &D,
        plan: &ExecutionPlan,
        trials: u64,
        master_seed: u64,
    ) -> Estimate
    where
        D: RandomizedDecider + ?Sized,
    {
        let mut estimates = self.acceptance_many(&[decider], plan, trials, master_seed);
        estimates.pop().expect("one decider yields one estimate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::algorithm::{FnAlgorithm, FnRandomizedAlgorithm};
    use rlnc_core::config::{Instance, IoConfig};
    use rlnc_core::decision::{acceptance_probability, FnRandomizedDecider};
    use rlnc_core::labels::Label;
    use rlnc_core::simulator::Simulator;
    use rlnc_core::view::View;
    use rand::Rng;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;
    use rlnc_par::trials::MonteCarlo;

    fn fixture(n: usize) -> (rlnc_graph::Graph, Labeling, IdAssignment) {
        let g = cycle(n);
        let x = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&g);
        (g, x, ids)
    }

    fn coin_algo() -> FnRandomizedAlgorithm<impl Fn(&View, &Coins) -> Label + Sync> {
        FnRandomizedAlgorithm::new(1, "coin-sum", |v: &View, c: &Coins| {
            let total: u64 = (0..v.len())
                .map(|i| {
                    let mut rng = c.for_view_node(v, i);
                    rng.random::<u64>() & 0x7
                })
                .sum();
            Label::from_u64(total)
        })
    }

    #[test]
    fn runner_matches_simulator_for_single_executions() {
        // 6000 nodes × 3 ball members clear the fan-out threshold.
        let (g, x, ids) = fixture(6000);
        let inst = Instance::new(&g, &x, &ids);
        let plan = ExecutionPlan::for_instance(&inst, 1);
        let det = FnAlgorithm::new(1, "ids", |v: &View| Label::from_u64(v.center_id()));
        assert_eq!(
            BatchRunner::new().run(&det, &plan),
            Simulator::new().run(&det, &inst)
        );
        let algo = coin_algo();
        let seed = SeedSequence::new(77).child(3);
        assert_eq!(
            BatchRunner::new().run_randomized(&algo, &plan, seed),
            Simulator::new().run_randomized(&algo, &inst, seed)
        );
    }

    #[test]
    fn estimate_is_bit_identical_to_monte_carlo_over_the_simulator() {
        let (g, x, ids) = fixture(96);
        let inst = Instance::new(&g, &x, &ids);
        let algo = coin_algo();
        let plan = ExecutionPlan::for_instance(&inst, 1);
        let success =
            |out: &Labeling| out.get(rlnc_graph::NodeId(0)).as_u64() % 2 == 0;
        let legacy = MonteCarlo::new(400).with_seed(13).estimate(|seed| {
            let out = Simulator::new().run_randomized(&algo, &inst, seed);
            success(&out)
        });
        for runner in [BatchRunner::new(), BatchRunner::new().with_block(7)] {
            let engine = runner.estimate(&algo, &plan, 400, 13, success);
            assert_eq!(engine.successes, legacy.successes);
            assert_eq!(engine.p_hat, legacy.p_hat);
        }
    }

    #[test]
    fn acceptance_is_bit_identical_to_legacy_acceptance_probability() {
        let (g, x, ids) = fixture(48);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let io = IoConfig::new(&g, &x, &y);
        let decider = FnRandomizedDecider::new(1, "bernoulli", |view: &View, coins: &Coins| {
            coins.for_center(view).random_bool(0.97)
        });
        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        let legacy = acceptance_probability(&decider, &io, &ids, 600, 5);
        for runner in [BatchRunner::new(), BatchRunner::new().with_block(7)] {
            let engine = runner.acceptance(&decider, &plan, 600, 5);
            assert_eq!(engine.successes, legacy.successes);
        }
    }

    /// The reference every batched acceptance is checked against: the
    /// per-trial `ExecutionPlan::decide_randomized` loop.
    fn accepted_trials<D: RandomizedDecider + ?Sized>(
        decider: &D,
        plan: &ExecutionPlan,
        trials: u64,
        master_seed: u64,
    ) -> u64 {
        let root = SeedSequence::new(master_seed);
        (0..trials)
            .filter(|&t| plan.decide_randomized(decider, root.child(t)))
            .count() as u64
    }

    #[test]
    fn run_many_matches_k_sequential_runs() {
        // 2048 nodes × 3 ball members × 3 algorithms clear the fan-out
        // threshold.
        let (g, x, ids) = fixture(2048);
        let inst = Instance::new(&g, &x, &ids);
        let plan = ExecutionPlan::for_instance(&inst, 1);
        let a1 = FnAlgorithm::new(1, "ids", |v: &View| Label::from_u64(v.center_id()));
        let a2 = FnAlgorithm::new(1, "deg", |v: &View| {
            Label::from_u64(v.center_degree() as u64)
        });
        let a3 = FnAlgorithm::new(1, "rank", |v: &View| {
            Label::from_u64(v.center_rank() as u64)
        });
        let algos: Vec<&dyn LocalAlgorithm> = vec![&a1, &a2, &a3];
        for runner in [BatchRunner::new(), BatchRunner::new().with_block(7)] {
            let many = runner.run_many(&algos, &plan);
            assert_eq!(many.len(), 3);
            for (algo, out) in algos.iter().zip(&many) {
                assert_eq!(out, &plan.run(*algo));
            }
        }
        let empty: [&dyn LocalAlgorithm; 0] = [];
        assert!(BatchRunner::new().run_many(&empty, &plan).is_empty());
    }

    #[test]
    fn acceptance_many_matches_k_sequential_acceptances() {
        let (g, x, ids) = fixture(48);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let io = IoConfig::new(&g, &x, &y);
        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        // Different acceptance rates so the verdict bits settle at
        // different views within a trial.
        let d1 = FnRandomizedDecider::new(1, "p99", |view: &View, coins: &Coins| {
            coins.for_center(view).random_bool(0.99)
        });
        let d2 = FnRandomizedDecider::new(1, "p70", |view: &View, coins: &Coins| {
            coins.for_center(view).random_bool(0.7) || view.output(0).as_u64() == 7
        });
        let d3 = FnRandomizedDecider::new(1, "p30", |view: &View, coins: &Coins| {
            coins.for_center(view).random_bool(0.3)
        });
        let deciders: Vec<&dyn RandomizedDecider> = vec![&d1, &d2, &d3];
        for runner in [BatchRunner::new(), BatchRunner::new().with_block(5)] {
            let many = runner.acceptance_many(&deciders, &plan, 300, 11);
            assert_eq!(many.len(), 3);
            for (decider, estimate) in deciders.iter().zip(&many) {
                assert_eq!(estimate.successes, accepted_trials(*decider, &plan, 300, 11));
            }
        }
    }

    #[test]
    fn acceptance_many_handles_more_than_one_bitset_word() {
        let (g, x, ids) = fixture(20);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 3)));
        let io = IoConfig::new(&g, &x, &y);
        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        let deciders: Vec<_> = (0..70u32)
            .map(|i| {
                FnRandomizedDecider::new(1, "graded", move |view: &View, coins: &Coins| {
                    coins.for_center(view).random_bool(0.4 + f64::from(i) * 0.008)
                })
            })
            .collect();
        let refs: Vec<&_> = deciders.iter().collect();
        let many = BatchRunner::new().acceptance_many(&refs, &plan, 64, 3);
        assert_eq!(many.len(), 70);
        for (decider, estimate) in deciders.iter().zip(&many) {
            assert_eq!(estimate.successes, accepted_trials(decider, &plan, 64, 3));
        }
    }

    #[test]
    #[should_panic(expected = "does not match plan radius")]
    fn run_many_rejects_mixed_radius() {
        let (g, x, ids) = fixture(8);
        let inst = Instance::new(&g, &x, &ids);
        let plan = ExecutionPlan::for_instance(&inst, 1);
        let good = FnAlgorithm::new(1, "ok", |_: &View| Label::from_u64(0));
        let bad = FnAlgorithm::new(2, "wrong", |_: &View| Label::from_u64(0));
        let algos: Vec<&dyn LocalAlgorithm> = vec![&good, &bad];
        let _ = BatchRunner::new().run_many(&algos, &plan);
    }

    // 8192 nodes × 3 ball members clear the fan-out work threshold, so
    // these pin the radius check ahead of any dispatch decision.
    #[test]
    #[should_panic(expected = "does not match plan radius")]
    fn run_rejects_a_radius_mismatch_on_large_plans() {
        let (g, x, ids) = fixture(8192);
        let plan = ExecutionPlan::for_instance(&Instance::new(&g, &x, &ids), 1);
        let wrong = FnAlgorithm::new(2, "wrong", |_: &View| Label::from_u64(0));
        let _ = BatchRunner::new().run(&wrong, &plan);
    }

    #[test]
    #[should_panic(expected = "does not match plan radius")]
    fn run_randomized_rejects_a_radius_mismatch_on_large_plans() {
        let (g, x, ids) = fixture(8192);
        let plan = ExecutionPlan::for_instance(&Instance::new(&g, &x, &ids), 1);
        let wrong =
            FnRandomizedAlgorithm::new(2, "wrong", |_: &View, _: &Coins| Label::from_u64(0));
        let _ = BatchRunner::new().run_randomized(&wrong, &plan, SeedSequence::new(1));
    }

    #[test]
    fn map_executions_preserves_trial_order() {
        let (g, x, ids) = fixture(16);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnRandomizedAlgorithm::new(0, "trial-echo", |v: &View, c: &Coins| {
            let mut rng = c.for_center(v);
            Label::from_u64(rng.random::<u64>() & 0xFFFF)
        });
        let plan = ExecutionPlan::for_instance(&inst, 0);
        let root = SeedSequence::new(4);
        // 16 nodes × 1024 trials clear the fan-out threshold, so the
        // 3-trial blocks run on the pool.
        let seeds: Vec<SeedSequence> = (0..1024).map(|i| root.child(i)).collect();
        let got = BatchRunner::new().with_block(3).map_executions(&algo, &plan, &seeds, |t, out| {
            (t, out.get(rlnc_graph::NodeId(0)).as_u64())
        });
        for (i, (t, value)) in got.iter().enumerate() {
            assert_eq!(i, *t);
            let direct = plan.run_randomized(&algo, seeds[i]);
            assert_eq!(*value, direct.get(rlnc_graph::NodeId(0)).as_u64());
        }
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_rejected() {
        let _ = BatchRunner::new().with_block(0);
    }
}
