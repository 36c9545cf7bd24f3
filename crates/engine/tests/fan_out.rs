//! The fan-out rule, observed from outside: pool task counts around loops
//! that ask [`rlnc_par::pool::fans_out`] whether to use the pool.
//!
//! One `#[test]` only: the pool's task counter is process-global, so a
//! second test dispatching concurrently would leak into these deltas.

use rand::Rng;
use rlnc_core::prelude::*;
use rlnc_core::rounds::run_randomized_via_rounds;
use rlnc_engine::{BatchRunner, ExecutionPlan};
use rlnc_graph::generators::cycle;
use rlnc_graph::{IdAssignment, NodeId};
use rlnc_par::pool::{self, FAN_OUT_WORK};
use rlnc_par::rng::SeedSequence;

/// Pool tasks dispatched while `f` runs.
fn tasks_during(f: impl FnOnce()) -> u64 {
    let before = pool::stats().tasks;
    f();
    pool::stats().tasks - before
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

    // 16 nodes per round and per simulation: far below the threshold.
    let rounds = tasks_during(|| {
        run_randomized_via_rounds(&algo, &instance, seed);
    });
    assert_eq!(rounds, 0, "a 16-node round system must step inline");
    let simulated = tasks_during(|| {
        Simulator::new().run_randomized(&algo, &instance, seed);
    });
    assert_eq!(simulated, 0, "a 16-node simulation must run inline");

    // 16 nodes × 3 ball members × 1024 trials clears the threshold.
    let plan = ExecutionPlan::for_instance(&instance, 1);
    let trials = 1024;
    assert!(plan.work_per_execution() as u64 * trials >= FAN_OUT_WORK);
    let batched = tasks_during(|| {
        BatchRunner::new().estimate(&algo, &plan, trials, 5, |out| {
            out.get(NodeId(0)).as_u64() % 2 == 0
        });
    });
    assert_eq!(batched > 0, pool::thread_count() > 1);

    // A ring of FAN_OUT_WORK nodes: every round's send and receive phases
    // go to the pool iff it has more than one thread.
    let ring = cycle(FAN_OUT_WORK as usize);
    let ring_input = Labeling::empty(ring.node_count());
    let ring_ids = IdAssignment::consecutive(&ring);
    let ring_instance = Instance::new(&ring, &ring_input, &ring_ids);
    let stepped = tasks_during(|| {
        run_randomized_via_rounds(&algo, &ring_instance, seed);
    });
    assert_eq!(stepped > 0, pool::thread_count() > 1);
}
