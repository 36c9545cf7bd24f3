//! Maximal independent set (MIS): language and constructors.
//!
//! The MIS language is locally checkable with radius 1: a ball is bad when
//! the center is in the set together with a neighbor (independence
//! violated), or when the center is outside the set and so are all of its
//! neighbors (maximality violated). The classical constructor is Luby's
//! randomized algorithm, implemented here as a phase-parameterized LOCAL
//! algorithm: simulating `k` phases requires a radius-`k` view.

use rlnc_core::prelude::*;
use rand::Rng;
use rlnc_graph::NodeId;

/// The maximal-independent-set language.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaximalIndependentSet;

impl MaximalIndependentSet {
    /// Creates the language.
    pub fn new() -> Self {
        MaximalIndependentSet
    }
}

impl LclLanguage for MaximalIndependentSet {
    fn radius(&self) -> u32 {
        1
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        let in_set = io.output.get(v).as_bool();
        let mut neighbor_in_set = false;
        for w in io.graph.neighbor_ids(v) {
            neighbor_in_set |= io.output.get(w).as_bool();
        }
        // Members break independence, non-members break maximality.
        in_set == neighbor_in_set
    }

    fn name(&self) -> String {
        "maximal-independent-set".to_string()
    }
}

/// Luby's randomized MIS, simulated for a fixed number of phases.
///
/// In each phase every undecided node draws a random priority; a node joins
/// the set if its priority is strictly larger than all undecided neighbors'
/// priorities, and nodes adjacent to a new member drop out. After
/// `O(log n)` phases all nodes are decided with high probability; nodes
/// still undecided after the final phase conservatively stay out of the set
/// (which can only violate maximality, never independence — the experiments
/// measure how often that happens).
#[derive(Debug, Clone, Copy)]
pub struct LubyMis {
    phases: u32,
}

impl LubyMis {
    /// Luby's algorithm with the given number of phases (= view radius).
    pub fn new(phases: u32) -> Self {
        assert!(phases >= 1);
        LubyMis { phases }
    }

    /// A phase count of `2 log2 n + 4`, the usual with-high-probability
    /// setting.
    pub fn for_graph_size(n: usize) -> Self {
        LubyMis::new(2 * (usize::BITS - n.leading_zeros()) + 4)
    }

    /// The random priority of node at local index `i` in phase `phase`.
    fn priority(view: &View, coins: &Coins, i: usize, phase: u32) -> u64 {
        let mut rng = coins.for_view_node(view, i);
        // Advance the stream to the phase: draw `phase + 1` values and use
        // the last one, so phases are independent and all simulating nodes
        // agree on every node's priority.
        let mut value = 0u64;
        for _ in 0..=phase {
            value = rng.random();
        }
        value
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MisStatus {
    Undecided,
    In,
    Out,
}

impl RandomizedLocalAlgorithm for LubyMis {
    fn radius(&self) -> u32 {
        self.phases
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        let n = view.len();
        let graph = view.local_graph();
        let mut status = vec![MisStatus::Undecided; n];
        for phase in 0..self.phases {
            let priorities: Vec<u64> = (0..n).map(|i| Self::priority(view, coins, i, phase)).collect();
            let mut joining = vec![false; n];
            for i in 0..n {
                if status[i] != MisStatus::Undecided {
                    continue;
                }
                let wins = graph.neighbor_ids(NodeId::from_index(i)).all(|w| {
                    status[w.index()] != MisStatus::Undecided
                        || priorities[w.index()] < priorities[i]
                        || (priorities[w.index()] == priorities[i] && view.id(w.index()) < view.id(i))
                });
                joining[i] = wins;
            }
            for i in 0..n {
                if joining[i] {
                    status[i] = MisStatus::In;
                }
            }
            for i in 0..n {
                if status[i] == MisStatus::Undecided
                    && graph
                        .neighbor_ids(NodeId::from_index(i))
                        .any(|w| status[w.index()] == MisStatus::In)
                {
                    status[i] = MisStatus::Out;
                }
            }
        }
        Label::from_bool(status[view.center_local()] == MisStatus::In)
    }

    fn name(&self) -> String {
        format!("luby-mis({} phases)", self.phases)
    }
}

/// The order-invariant baseline: join the set iff the center's identity is
/// a local minimum among its neighbors. Always independent; maximal only on
/// graphs where every node is adjacent to a local minimum (true on paths
/// and cycles with consecutive identities, false in general) — the kind of
/// constant-round attempt whose failures the lower bounds quantify.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalMinimumMis;

impl LocalAlgorithm for LocalMinimumMis {
    fn radius(&self) -> u32 {
        1
    }

    fn output(&self, view: &View) -> Label {
        let mine = view.center_id();
        let is_min = view.center_neighbors().all(|i| view.id(i) > mine);
        Label::from_bool(is_min)
    }

    fn name(&self) -> String {
        "local-minimum-mis".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::{cycle, grid, random_regular};
    use rlnc_graph::IdAssignment;
    use rlnc_par::rng::SeedSequence;

    #[test]
    fn mis_language_checks_independence_and_maximality() {
        let g = cycle(6);
        let x = Labeling::empty(6);
        let lang = MaximalIndependentSet::new();
        // {0, 2, 4} is a maximal independent set of C_6.
        let good = Labeling::from_fn(&g, |v| Label::from_bool(v.0 % 2 == 0));
        assert!(lang.contains(&IoConfig::new(&g, &x, &good)));
        // {0, 1} violates independence.
        let adjacent = Labeling::from_fn(&g, |v| Label::from_bool(v.0 <= 1));
        assert!(!lang.contains(&IoConfig::new(&g, &x, &adjacent)));
        // {} violates maximality everywhere.
        let empty = Labeling::from_fn(&g, |_| Label::from_bool(false));
        let io = IoConfig::new(&g, &x, &empty);
        assert!(!lang.contains(&io));
        assert_eq!(rlnc_core::language::bad_ball_count(&lang, &io), 6);
    }

    #[test]
    fn luby_mis_produces_maximal_independent_sets_whp() {
        let mut rng = rand::rng();
        for graph in [cycle(64), grid(8, 8), random_regular(60, 3, &mut rng)] {
            let n = graph.node_count();
            let x = Labeling::empty(n);
            let ids = IdAssignment::consecutive(&graph);
            let inst = Instance::new(&graph, &x, &ids);
            let algo = LubyMis::for_graph_size(n);
            let lang = MaximalIndependentSet::new();
            let out = Simulator::new().run_randomized(&algo, &inst, SeedSequence::new(5).child(1));
            assert!(
                lang.contains(&IoConfig::new(&graph, &x, &out)),
                "Luby should finish on {n} nodes"
            );
        }
    }

    #[test]
    fn luby_success_probability_grows_with_phases() {
        let g = cycle(64);
        let x = Labeling::empty(64);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let lang = MaximalIndependentSet::new();
        let few = Simulator::new().construction_success(&LubyMis::new(1), &inst, &lang, 300, 3);
        let many = Simulator::new().construction_success(&LubyMis::new(12), &inst, &lang, 300, 3);
        assert!(many.p_hat >= few.p_hat);
        assert!(many.p_hat > 0.95);
    }

    #[test]
    fn local_minimum_mis_is_independent_but_not_always_maximal() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        // Identity assignment with a long increasing run: nodes in the
        // middle of the run have no local-minimum neighbor.
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let out = Simulator::new().run(&LocalMinimumMis, &inst);
        let io = IoConfig::new(&g, &x, &out);
        let lang = MaximalIndependentSet::new();
        // Independence holds: no two adjacent members.
        for (u, v) in g.edges() {
            assert!(!(io.output.get(u).as_bool() && io.output.get(v).as_bool()));
        }
        // Maximality fails on the consecutive-ID cycle (only node 1 is a
        // local minimum... node with id 1 is; nodes far from it are
        // uncovered).
        assert!(!lang.contains(&io));
    }
}
