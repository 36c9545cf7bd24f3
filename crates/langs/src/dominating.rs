//! Dominating sets and minimal dominating sets.
//!
//! The paper lists "minimal dominating set" among the classical tasks whose
//! `f`-resilient relaxations Corollary 1 covers. Two languages are
//! provided:
//!
//! * [`DominatingSet`] — every node is in the set or has a neighbor in it
//!   (radius 1).
//! * [`MinimalDominatingSet`] — additionally, every member has a *private*
//!   dominated node (itself or a neighbor dominated by nobody else), which
//!   is equivalent to inclusion-minimality and checkable with radius 2.

use rlnc_core::prelude::*;
use rlnc_graph::NodeId;

/// The dominating-set language (radius 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct DominatingSet;

impl DominatingSet {
    /// Creates the language.
    pub fn new() -> Self {
        DominatingSet
    }

    /// Whether `v` is dominated (in the set or adjacent to a member).
    pub fn is_dominated(io: &IoConfig<'_>, v: NodeId) -> bool {
        let mut dominated = io.output.get(v).as_bool();
        for w in io.graph.neighbor_ids(v) {
            dominated |= io.output.get(w).as_bool();
        }
        dominated
    }
}

impl LclLanguage for DominatingSet {
    fn radius(&self) -> u32 {
        1
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        !Self::is_dominated(io, v)
    }

    fn name(&self) -> String {
        "dominating-set".to_string()
    }
}

/// The minimal-dominating-set language (radius 2): dominating, and every
/// member has a private node — some `u ∈ N[v]` whose only dominator is `v`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimalDominatingSet;

impl MinimalDominatingSet {
    /// Creates the language.
    pub fn new() -> Self {
        MinimalDominatingSet
    }

    fn dominator_count(io: &IoConfig<'_>, u: NodeId) -> usize {
        let own = usize::from(io.output.get(u).as_bool());
        own + io
            .graph
            .neighbor_ids(u)
            .filter(|&w| io.output.get(w).as_bool())
            .count()
    }
}

impl LclLanguage for MinimalDominatingSet {
    fn radius(&self) -> u32 {
        2
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        // All reads stay within distance 2 of `v`: the private-node check
        // looks at the dominator counts of `v`'s neighbors.
        let count = Self::dominator_count(io, v);
        if count == 0 {
            return true; // not dominated
        }
        // A member without a private node violates minimality. With one
        // dominator, that is `v` itself, its own private node; otherwise
        // it needs a neighbor that only `v` dominates.
        let private = |u: NodeId| Self::dominator_count(io, u) == 1;
        io.output.get(v).as_bool() && count > 1 && !io.graph.neighbor_ids(v).any(private)
    }

    fn name(&self) -> String {
        "minimal-dominating-set".to_string()
    }
}

/// The one-round pointer construction: every node points to the
/// smallest-identity node of its closed neighborhood, and the set consists
/// of the pointed-to nodes. Always dominating (each node is dominated by
/// the node it points to); generally *not* minimal — the baseline whose
/// failures motivate the relaxations.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinIdPointerDominatingSet;

impl LocalAlgorithm for MinIdPointerDominatingSet {
    fn radius(&self) -> u32 {
        2
    }

    fn output(&self, view: &View) -> Label {
        // A node is in the set iff some node in its closed neighborhood
        // points to it, i.e. iff the center is the minimum of some
        // neighbor's (or its own) closed neighborhood. Determining this
        // needs the neighbors' neighborhoods, hence radius 2.
        let graph = view.local_graph();
        let center = view.center_local();
        let center_id = view.center_id();
        let closed_min = |i: usize| {
            let mut best = view.id(i);
            for w in graph.neighbor_ids(NodeId::from_index(i)) {
                best = best.min(view.id(w.index()));
            }
            best
        };
        let mut selected = closed_min(center) == center_id;
        for i in view.center_neighbors() {
            if closed_min(i) == center_id {
                selected = true;
            }
        }
        Label::from_bool(selected)
    }

    fn name(&self) -> String {
        "min-id-pointer-dominating-set".to_string()
    }
}

/// A global greedy *minimal* dominating set: collect the radius-`t` ball,
/// take all nodes, then repeatedly discard the largest-identity member
/// whose removal keeps the ball dominated. With `t` at least the diameter
/// the result is a correct minimal dominating set.
#[derive(Debug, Clone, Copy)]
pub struct GlobalGreedyMinimalDominatingSet {
    radius: u32,
}

impl GlobalGreedyMinimalDominatingSet {
    /// Greedy pruning over radius-`radius` views.
    pub fn new(radius: u32) -> Self {
        GlobalGreedyMinimalDominatingSet { radius }
    }
}

impl LocalAlgorithm for GlobalGreedyMinimalDominatingSet {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn output(&self, view: &View) -> Label {
        let graph = view.local_graph();
        let n = view.len();
        let mut in_set = vec![true; n];
        let dominated = |in_set: &[bool], u: usize| {
            in_set[u]
                || graph
                    .neighbor_ids(NodeId::from_index(u))
                    .any(|w| in_set[w.index()])
        };
        // Discard in decreasing identity order whenever domination survives.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(view.id(i)));
        for &candidate in &order {
            in_set[candidate] = false;
            let still_dominating = (0..n).all(|u| dominated(&in_set, u));
            if !still_dominating {
                in_set[candidate] = true;
            }
        }
        Label::from_bool(in_set[view.center_local()])
    }

    fn name(&self) -> String {
        format!("global-greedy-mds(t={})", self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::{cycle, path, star};
    use rlnc_graph::IdAssignment;

    #[test]
    fn dominating_language_checks_coverage() {
        let g = star(6);
        let x = Labeling::empty(6);
        let center_only = Labeling::from_fn(&g, |v| Label::from_bool(v.0 == 0));
        assert!(DominatingSet::new().contains(&IoConfig::new(&g, &x, &center_only)));
        assert!(MinimalDominatingSet::new().contains(&IoConfig::new(&g, &x, &center_only)));
        let empty = Labeling::from_fn(&g, |_| Label::from_bool(false));
        assert!(!DominatingSet::new().contains(&IoConfig::new(&g, &x, &empty)));
    }

    #[test]
    fn minimality_rejects_redundant_members() {
        // On the star, {center, leaf} is dominating but the leaf is
        // redundant only if... center dominates everything, so the leaf has
        // no private node unless it is its own sole dominator — it is
        // dominated by the center too, so it is redundant.
        let g = star(6);
        let x = Labeling::empty(6);
        let with_leaf = Labeling::from_fn(&g, |v| Label::from_bool(v.0 <= 1));
        let io = IoConfig::new(&g, &x, &with_leaf);
        assert!(DominatingSet::new().contains(&io));
        assert!(!MinimalDominatingSet::new().contains(&io));
    }

    #[test]
    fn pointer_construction_dominates_but_may_not_be_minimal() {
        let g = cycle(12);
        let x = Labeling::empty(12);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let out = Simulator::new().run(&MinIdPointerDominatingSet, &inst);
        let io = IoConfig::new(&g, &x, &out);
        assert!(DominatingSet::new().contains(&io), "pointer set must dominate");
    }

    #[test]
    fn global_greedy_produces_minimal_dominating_sets() {
        for graph in [cycle(10), path(9), star(7)] {
            let n = graph.node_count();
            let x = Labeling::empty(n);
            let ids = IdAssignment::consecutive(&graph);
            let inst = Instance::new(&graph, &x, &ids);
            let algo = GlobalGreedyMinimalDominatingSet::new(16);
            let out = Simulator::new().run(&algo, &inst);
            let io = IoConfig::new(&graph, &x, &out);
            assert!(
                MinimalDominatingSet::new().contains(&io),
                "greedy MDS must be minimal and dominating on {n} nodes"
            );
        }
    }
}
