//! Batched passes: `(algorithm × plan × K seeds)` over cached views.
//!
//! The passes that run many trials or many algorithms against one plan —
//! [`ExecutionPlan::run_many`], [`ExecutionPlan::acceptance`],
//! [`ExecutionPlan::estimate`] and
//! [`ConstructDecidePlan::acceptance`](crate::ConstructDecidePlan::acceptance)
//! — hand their items (trials, or nodes for view walks) and their total
//! work in ball members (plan work × trials × algorithms) to
//! [`map_ranges`]: iff the workspace's one rule, [`fans_out`], says so,
//! the items are split into balanced ranges that run on the thread pool —
//! so never inside an already-parallel region; otherwise they run as one
//! range on the caller. The three Monte-Carlo passes share one trial
//! loop, `count_trials`: trial `t` runs under the seed `(master, t)`, and
//! each range builds its scratch once. The choice can never change a
//! result: every trial's coins derive from `(trial seed, node)` alone.

use crate::plan::ExecutionPlan;
use rlnc_core::algorithm::{LocalAlgorithm, RandomizedLocalAlgorithm};
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::labels::{Label, Labeling};
use rlnc_obs::{LazyCounter, Section};
use rlnc_par::pool::{fans_out, map_ranges};
use rlnc_par::rng::SeedSequence;
use rlnc_par::stats::Estimate;
use std::ops::Range;

// Trials executed are a function of the requested batch alone —
// deterministic. The parallel/sequential split depends on core count and
// nesting context, so the pass counts stay in the timing section.
static OBS_TRIALS: LazyCounter = LazyCounter::new("engine.batch.trials", Section::Deterministic);
static OBS_PARALLEL_PASSES: LazyCounter =
    LazyCounter::new("engine.batch.parallel_passes", Section::Timing);
static OBS_SEQUENTIAL_PASSES: LazyCounter =
    LazyCounter::new("engine.batch.sequential_passes", Section::Timing);

/// Records one pass in the registry (`trials` is the count it carries)
/// and maps `f` over ranges of `0..items` with [`map_ranges`].
fn run_pass<T, F>(items: usize, work: u64, trials: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if rlnc_obs::enabled() {
        OBS_TRIALS.add(trials);
        if fans_out(work) {
            OBS_PARALLEL_PASSES.inc();
        } else {
            OBS_SEQUENTIAL_PASSES.inc();
        }
    }
    map_ranges(items, work, f)
}

/// The one Monte-Carlo pass: counts the trials `0..trials` that `trial`
/// accepts, trial `t` running under the seed `(master_seed, t)` exactly
/// like [`MonteCarlo`](rlnc_par::MonteCarlo). Each range of trials builds
/// its scratch with `scratch` once and hands it to every trial it runs.
pub(crate) fn count_trials<S, F>(
    work_per_trial: usize,
    trials: u64,
    master_seed: u64,
    scratch: impl Fn() -> S + Sync,
    trial: F,
) -> Estimate
where
    F: Fn(&mut S, SeedSequence) -> bool + Sync,
{
    let root = SeedSequence::new(master_seed);
    let work = (work_per_trial as u64).saturating_mul(trials);
    let counts = run_pass(trials as usize, work, trials, |range| {
        let mut scratch = scratch();
        range
            .filter(|&t| trial(&mut scratch, root.child(t as u64)))
            .count() as u64
    });
    Estimate::from_counts(counts.into_iter().sum(), trials)
}

impl ExecutionPlan {
    /// Evaluates **K same-radius deterministic algorithms** against the
    /// plan in one view walk: node ranges are dispatched like every other
    /// pass, and within each range the algorithm loop runs *innermost* —
    /// every view is loaded once and serves all K output functions while
    /// hot, amortizing the walk's memory traffic across the whole
    /// algorithm slice. Returns one labeling per algorithm, in slice
    /// order.
    ///
    /// Bit-identical to K [`ExecutionPlan::run`] calls: each output is a
    /// pure function of the (immutable) view, so neither the loop
    /// interchange nor the range dispatch can change a label.
    pub fn run_many<A: LocalAlgorithm + ?Sized>(&self, algos: &[&A]) -> Vec<Labeling> {
        for algo in algos {
            self.assert_radius(algo.radius());
        }
        let k = algos.len();
        if k == 0 {
            return Vec::new();
        }
        let work = (self.work_per_execution() as u64).saturating_mul(k as u64);
        let per_range = run_pass(self.node_count(), work, k as u64, |range| {
            let mut parts: Vec<Vec<Label>> =
                (0..k).map(|_| Vec::with_capacity(range.len())).collect();
            for view in &self.views()[range] {
                for (slot, algo) in parts.iter_mut().zip(algos) {
                    slot.push(algo.output(view));
                }
            }
            parts
        });
        // The first range's vectors become the outputs, so a walk that
        // does not fan out copies no label.
        let mut per_range = per_range.into_iter();
        let mut outs = per_range.next().unwrap_or_else(|| vec![Vec::new(); k]);
        for parts in per_range {
            for (slot, part) in outs.iter_mut().zip(parts) {
                slot.extend(part);
            }
        }
        outs.into_iter().map(Labeling::new).collect()
    }

    /// Estimates the acceptance probability `Pr[all nodes accept]` of a
    /// randomized decider over a **decision plan** (fixed outputs): trial
    /// `t` is one [`ExecutionPlan::decide_randomized`] under the seed
    /// `(master_seed, t)`, the derivation of
    /// [`acceptance_probability`](rlnc_core::decision::acceptance_probability).
    pub fn acceptance<D>(&self, decider: &D, trials: u64, master_seed: u64) -> Estimate
    where
        D: RandomizedDecider + ?Sized,
    {
        assert!(
            self.has_outputs(),
            "acceptance needs a decision plan (ExecutionPlan::for_io)"
        );
        self.assert_radius(decider.radius());
        count_trials(
            self.work_per_execution(),
            trials,
            master_seed,
            || (),
            |_, seed| self.decide_randomized(decider, seed),
        )
    }

    /// Estimates `Pr[success(output)]` over `trials` executions whose seeds
    /// derive from `(master_seed, trial)` exactly like
    /// [`MonteCarlo`](rlnc_par::MonteCarlo) — the per-trial success stream
    /// is bit-identical to running the legacy simulator under
    /// `MonteCarlo::new(trials).with_seed(master_seed)`. Each trial range
    /// constructs into one reused output buffer.
    pub fn estimate<A, F>(&self, algo: &A, trials: u64, master_seed: u64, success: F) -> Estimate
    where
        A: RandomizedLocalAlgorithm + ?Sized,
        F: Fn(&Labeling) -> bool + Sync,
    {
        self.assert_radius(algo.radius());
        count_trials(
            self.work_per_execution(),
            trials,
            master_seed,
            || Labeling::empty(self.node_count()),
            |out, seed| {
                self.construct_into(algo, seed, out);
                success(out)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::algorithm::{Coins, FnAlgorithm, FnRandomizedAlgorithm};
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
        let engine = plan.estimate(&algo, 400, 13, success);
        assert_eq!(engine.successes, legacy.successes);
        assert_eq!(engine.p_hat, legacy.p_hat);
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
        assert_eq!(
            plan.acceptance(&decider, 600, 5).successes,
            legacy.successes
        );
    }

    /// The reference an acceptance pass is checked against: the per-trial
    /// `ExecutionPlan::decide_randomized` loop.
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
        let many = plan.run_many(&algos);
        assert_eq!(many.len(), 3);
        for (algo, out) in algos.iter().zip(&many) {
            assert_eq!(out, &plan.run(*algo));
        }
        let empty: [&dyn LocalAlgorithm; 0] = [];
        assert!(plan.run_many(&empty).is_empty());
    }

    #[test]
    fn acceptance_matches_sequential_decisions_for_every_decider() {
        let (g, x, ids) = fixture(48);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let io = IoConfig::new(&g, &x, &y);
        let plan = ExecutionPlan::for_io(&io, &ids, 1);
        // Different acceptance rates, so trials end at different views.
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
        for decider in deciders {
            assert_eq!(
                plan.acceptance(decider, 300, 11).successes,
                accepted_trials(decider, &plan, 300, 11)
            );
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
        let _ = plan.run_many(&algos);
    }

    // 8192 nodes × 3 ball members clear the fan-out work threshold, so
    // these pin the radius check of the deterministic (`run_many`) and
    // randomized (`estimate`) passes ahead of any dispatch decision.
    #[test]
    #[should_panic(expected = "does not match plan radius")]
    fn run_rejects_a_radius_mismatch_on_large_plans() {
        let (g, x, ids) = fixture(8192);
        let plan = ExecutionPlan::for_instance(&Instance::new(&g, &x, &ids), 1);
        let wrong = FnAlgorithm::new(2, "wrong", |_: &View| Label::from_u64(0));
        let _ = plan.run_many(&[&wrong]);
    }

    #[test]
    #[should_panic(expected = "does not match plan radius")]
    fn run_randomized_rejects_a_radius_mismatch_on_large_plans() {
        let (g, x, ids) = fixture(8192);
        let plan = ExecutionPlan::for_instance(&Instance::new(&g, &x, &ids), 1);
        let wrong =
            FnRandomizedAlgorithm::new(2, "wrong", |_: &View, _: &Coins| Label::from_u64(0));
        let _ = plan.estimate(&wrong, 1, 1, |_| true);
    }
}
