//! The fan-out rule, observed from outside: pool task counts around loops
//! that go through [`rlnc_par::pool::map_ranges`], which asks
//! [`rlnc_par::pool::fans_out`] whether to use the pool, and around round
//! stepping, which never does.
//!
//! One `#[test]` only: the pool's task counter is process-global, so a
//! second test dispatching concurrently would leak into these deltas.

use rand::Rng;
use rlnc_core::algorithm::LocalAlgorithm;
use rlnc_core::prelude::*;
use rlnc_core::rounds::run_randomized_via_rounds;
use rlnc_engine::{ConstructDecidePlan, ExecutionPlan};
use rlnc_graph::generators::cycle;
use rlnc_graph::{IdAssignment, NodeId};
use rlnc_par::pool::{self, FAN_OUT_WORK};
use rlnc_par::rng::SeedSequence;

/// Pool tasks dispatched while `f` runs, with `f`'s result.
fn tasks_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = pool::stats().tasks;
    let out = f();
    (pool::stats().tasks - before, out)
}

#[test]
fn small_loops_stay_inline_and_large_batches_fan_out() {
    let graph = cycle(16);
    let input = Labeling::empty(16);
    let ids = IdAssignment::consecutive(&graph);
    let instance = Instance::new(&graph, &input, &ids);
    let algo = FnRandomizedAlgorithm::new(1, "coin", |v: &View, c: &Coins| {
        Label::from_u64(c.for_center(v).random::<u64>() & 0xFF)
    });
    let seed = SeedSequence::new(3);
    let fans_out = pool::thread_count() > 1;

    // 16 nodes per round and per simulation: far below the threshold.
    let (rounds, _) = tasks_during(|| run_randomized_via_rounds(&algo, &instance, seed));
    assert_eq!(rounds, 0, "a 16-node round system must step inline");
    let (simulated, _) = tasks_during(|| Simulator::new().run_randomized(&algo, &instance, seed));
    assert_eq!(simulated, 0, "a 16-node simulation must run inline");

    // The trial passes: 16 nodes × 3 ball members × 1024 trials clears the
    // threshold. Each pass must dispatch pool tasks iff the pool has more
    // than one thread, and agree with its per-trial reference either way.
    let trials = 1024;
    let root = SeedSequence::new(5);
    let plan = ExecutionPlan::for_instance(&instance, 1);
    assert!(plan.work_per_execution() as u64 * trials >= FAN_OUT_WORK);
    let even = |out: &Labeling| out.get(NodeId(0)).as_u64() % 2 == 0;
    let (estimated, estimate) = tasks_during(|| plan.estimate(&algo, trials, 5, even));
    assert_eq!(estimated > 0, fans_out, "estimate");
    let expected = (0..trials)
        .filter(|&t| even(&plan.run_randomized(&algo, root.child(t))))
        .count() as u64;
    assert_eq!(estimate.successes, expected);

    let output = Labeling::from_fn(&graph, |v| Label::from_u64(u64::from(v.0 % 2)));
    let io = IoConfig::new(&graph, &input, &output);
    let decision_plan = ExecutionPlan::for_io(&io, &ids, 1);
    let decider = FnRandomizedDecider::new(1, "coin", |view: &View, coins: &Coins| {
        coins.for_center(view).random_bool(0.97)
    });
    let (decided, acceptance) = tasks_during(|| decision_plan.acceptance(&decider, trials, 5));
    assert_eq!(decided > 0, fans_out, "acceptance");
    let expected = (0..trials)
        .filter(|&t| decision_plan.decide_randomized(&decider, root.child(t)))
        .count() as u64;
    assert_eq!(acceptance.successes, expected);

    let composite = ConstructDecidePlan::new(&instance, 1, 1);
    let (composed, accepted) =
        tasks_during(|| composite.acceptance(&algo, &decider, None, trials, 5));
    assert_eq!(composed > 0, fans_out, "ConstructDecidePlan::acceptance");
    let mut scratch = composite.decision_scratch();
    let mut out = Labeling::empty(16);
    let expected = (0..trials)
        .filter(|&t| {
            composite.accept_once(&mut scratch, &mut out, &algo, &decider, None, root.child(t))
        })
        .count() as u64;
    assert_eq!(accepted.successes, expected);

    // A ring of FAN_OUT_WORK nodes: its rounds step inline on any pool,
    // while one `run_many` walk over its radius-1 views goes to the pool
    // iff it has more than one thread.
    let ring = cycle(FAN_OUT_WORK as usize);
    let ring_input = Labeling::empty(ring.node_count());
    let ring_ids = IdAssignment::consecutive(&ring);
    let ring_instance = Instance::new(&ring, &ring_input, &ring_ids);
    let (stepped, _) = tasks_during(|| run_randomized_via_rounds(&algo, &ring_instance, seed));
    assert_eq!(stepped, 0, "a 2^14-node round system must step inline");
    let ring_plan = ExecutionPlan::for_instance(&ring_instance, 1);
    let ids_of = FnAlgorithm::new(1, "ids", |v: &View| Label::from_u64(v.center_id()));
    let algos: [&dyn LocalAlgorithm; 1] = [&ids_of];
    let (walked, outputs) = tasks_during(|| ring_plan.run_many(&algos));
    assert_eq!(walked > 0, fans_out, "run_many");
    assert_eq!(outputs[0], ring_plan.run(&ids_of));
}
