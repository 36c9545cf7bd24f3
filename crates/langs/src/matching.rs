//! Maximal matching: language and constructors.
//!
//! Each node outputs either `0` ("unmatched") or the identity of the
//! neighbor it is matched to. The language is locally checkable with
//! radius 1: a ball is bad when the center's claimed partner is not a
//! neighbor, the claim is not reciprocated, or the center and one of its
//! neighbors are both unmatched (maximality).

use rlnc_core::prelude::*;
use rand::Rng;
use rlnc_graph::NodeId;

/// The maximal-matching language.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaximalMatching;

impl MaximalMatching {
    /// Creates the language.
    pub fn new(/* no parameters */) -> Self {
        MaximalMatching
    }
}

impl LclLanguage for MaximalMatching {
    fn radius(&self) -> u32 {
        1
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        // The matching language needs identities to interpret outputs. The
        // convention used throughout this crate: outputs reference
        // identities, and the language evaluates them against the *input*
        // labels, which the constructors set to each node's own identity.
        // (An alternative would be port numbers; identities keep the labels
        // in F_k for k ≥ 8.)
        let claim = io.output.get(v).as_u64();
        if claim == 0 {
            // Maximality: no neighbor may also be unmatched.
            let mut unmatched = false;
            for w in io.graph.neighbor_ids(v) {
                unmatched |= io.output.get(w).as_u64() == 0;
            }
            return unmatched;
        }
        // The claimed partner must be a neighbor that claims us back.
        let name = |w: NodeId| io.input.get(w).as_u64();
        match io.graph.neighbor_ids(v).find(|&w| name(w) == claim) {
            None => true,
            Some(w) => io.output.get(w).as_u64() != name(v),
        }
    }

    fn name(&self) -> String {
        "maximal-matching".to_string()
    }
}

/// Builds the input labeling the matching language expects: every node's
/// input is its own identity.
pub fn identity_inputs(graph: &rlnc_graph::Graph, ids: &rlnc_graph::IdAssignment) -> Labeling {
    Labeling::from_fn(graph, |v| Label::from_u64(ids.id(v)))
}

/// Randomized proposal-based maximal matching, simulated for a fixed number
/// of phases. In each phase every unmatched node proposes to a uniformly
/// random unmatched neighbor; proposals that are mutual (or accepted by the
/// lowest-identity proposer rule) become matches.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedMatching {
    phases: u32,
}

impl RandomizedMatching {
    /// The algorithm with a fixed number of phases (= half the view radius).
    pub fn new(phases: u32) -> Self {
        assert!(phases >= 1);
        RandomizedMatching { phases }
    }

    /// A phase count suitable for `n`-node graphs (`2 log2 n + 4`).
    pub fn for_graph_size(n: usize) -> Self {
        RandomizedMatching::new(2 * (usize::BITS - n.leading_zeros()) + 4)
    }

    fn proposal(view: &View, coins: &Coins, i: usize, phase: u32, candidates: &[usize]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let mut rng = coins.for_view_node(view, i);
        let mut choice = 0usize;
        for _ in 0..=phase {
            choice = rng.random_range(0..candidates.len().max(1));
        }
        candidates.get(choice).copied()
    }
}

impl RandomizedLocalAlgorithm for RandomizedMatching {
    fn radius(&self) -> u32 {
        // Each phase needs one round of proposals and one of accepts.
        2 * self.phases
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        let n = view.len();
        let graph = view.local_graph();
        let mut partner: Vec<Option<usize>> = vec![None; n];
        for phase in 0..self.phases {
            // Unmatched nodes propose to a random unmatched neighbor. The
            // candidate list is sorted by identity so the random index maps
            // to the same neighbor no matter which simulating node runs
            // this code (local indices differ across views; identities do
            // not).
            let proposals: Vec<Option<usize>> = (0..n)
                .map(|i| {
                    if partner[i].is_some() {
                        return None;
                    }
                    let mut candidates: Vec<usize> = graph
                        .neighbor_ids(NodeId::from_index(i))
                        .map(|w| w.index())
                        .filter(|&w| partner[w].is_none())
                        .collect();
                    candidates.sort_by_key(|&w| view.id(w));
                    Self::proposal(view, coins, i, phase, &candidates)
                })
                .collect();
            // A proposal is accepted when it is mutual, or when the target
            // accepts the proposer with the smallest identity among its
            // proposers (deterministic tie-breaking keeps all simulating
            // nodes consistent).
            let mut accepted: Vec<Option<usize>> = vec![None; n];
            for i in 0..n {
                if partner[i].is_some() || proposals[i].is_some() {
                    continue;
                }
                // i did not propose (it was matched or had no candidates).
            }
            for target in 0..n {
                if partner[target].is_some() {
                    continue;
                }
                let mut proposers: Vec<usize> = (0..n)
                    .filter(|&i| proposals[i] == Some(target) && partner[i].is_none())
                    .collect();
                if let Some(own_proposal) = proposals[target] {
                    // Mutual proposals take precedence.
                    if proposals[own_proposal] == Some(target) {
                        accepted[target] = Some(own_proposal);
                        continue;
                    }
                }
                proposers.sort_by_key(|&i| view.id(i));
                if let Some(&winner) = proposers.first() {
                    accepted[target] = Some(winner);
                }
            }
            // Materialize matches where both sides agree (target accepted a
            // proposer, and the proposer is still free). The order in which
            // targets are materialized can matter when a proposer is itself
            // a target, so iterate in increasing-identity order — a
            // canonical order shared by every simulating node (local index
            // order is not).
            let mut targets: Vec<usize> = (0..n).collect();
            targets.sort_by_key(|&t| view.id(t));
            for target in targets {
                if let Some(proposer) = accepted[target] {
                    if partner[target].is_none() && partner[proposer].is_none() {
                        partner[target] = Some(proposer);
                        partner[proposer] = Some(target);
                    }
                }
            }
        }
        match partner[view.center_local()] {
            Some(mate) => Label::from_u64(view.id(mate)),
            None => Label::from_u64(0),
        }
    }

    fn name(&self) -> String {
        format!("randomized-matching({} phases)", self.phases)
    }
}

/// A one-phase randomized proposal matching whose claims reference the
/// language's *input names* (each node's input is its name, see
/// [`identity_inputs`]) rather than raw identities. This keeps the output
/// meaningful under the identity shifts the Claim-2 hard-instance search
/// applies: shifting relabels identities but preserves inputs, so the
/// language still resolves every claim.
///
/// Every undecided node proposes to a uniformly random neighbor; exactly
/// the *mutual* proposals become matches. One phase rarely reaches
/// maximality — which is precisely the positive failure probability β the
/// derandomization pipeline's Claim-2/Claim-3 stages need from a concrete
/// randomized constructor. Evaluating a neighbor's proposal needs that
/// neighbor's full adjacency, hence radius 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProposalMatching;

impl ProposalMatching {
    /// Creates the constructor.
    pub fn new() -> Self {
        ProposalMatching
    }

    /// The proposal of the node at local index `i`: a uniformly random
    /// neighbor, drawn from `i`'s private coins over the candidate list in
    /// canonical `(name, identity)` order — so every simulating node that
    /// can see `i`'s full neighborhood computes the same proposal.
    fn proposal(view: &View, coins: &Coins, i: usize) -> Option<usize> {
        let graph = view.local_graph();
        let mut candidates: Vec<usize> = graph
            .neighbor_ids(NodeId::from_index(i))
            .map(|w| w.index())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        candidates.sort_by_key(|&w| (view.input(w).as_u64(), view.id(w)));
        let mut rng = coins.for_view_node(view, i);
        Some(candidates[rng.random_range(0..candidates.len())])
    }
}

impl RandomizedLocalAlgorithm for ProposalMatching {
    fn radius(&self) -> u32 {
        2
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        let center = view.center_local();
        if let Some(target) = Self::proposal(view, coins, center) {
            if Self::proposal(view, coins, target) == Some(center) {
                return Label::from_u64(view.input(target).as_u64());
            }
        }
        Label::from_u64(0)
    }

    fn name(&self) -> String {
        "proposal-matching".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::{cycle, path};
    use rlnc_graph::IdAssignment;
    use rlnc_par::rng::SeedSequence;

    fn matching_instance(graph: rlnc_graph::Graph) -> (rlnc_graph::Graph, Labeling, IdAssignment) {
        let ids = IdAssignment::consecutive(&graph);
        let input = identity_inputs(&graph, &ids);
        (graph, input, ids)
    }

    #[test]
    fn language_accepts_hand_built_perfect_matching() {
        let (g, x, ids) = matching_instance(cycle(6));
        // Match (0,1), (2,3), (4,5) by identities.
        let y = Labeling::from_fn(&g, |v| {
            let mate = if v.0 % 2 == 0 { v.0 + 1 } else { v.0 - 1 };
            Label::from_u64(ids.id(NodeId(mate)))
        });
        let io = IoConfig::new(&g, &x, &y);
        let lang = MaximalMatching::new();
        assert!(lang.contains(&io));
    }

    #[test]
    fn language_rejects_non_reciprocal_and_non_maximal_outputs() {
        let (g, x, ids) = matching_instance(path(4));
        let lang = MaximalMatching::new();
        // Node 0 claims node 1, but node 1 claims nobody.
        let mut y = Labeling::new(vec![Label::from_u64(0); 4]);
        y.set(NodeId(0), Label::from_u64(ids.id(NodeId(1))));
        assert!(!lang.contains(&IoConfig::new(&g, &x, &y)));
        // Empty matching on a path is not maximal.
        let empty = Labeling::new(vec![Label::from_u64(0); 4]);
        assert!(!lang.contains(&IoConfig::new(&g, &x, &empty)));
        // Claiming a non-neighbor is rejected.
        let mut far = Labeling::new(vec![Label::from_u64(0); 4]);
        far.set(NodeId(0), Label::from_u64(ids.id(NodeId(3))));
        far.set(NodeId(3), Label::from_u64(ids.id(NodeId(0))));
        assert!(!lang.contains(&IoConfig::new(&g, &x, &far)));
    }

    #[test]
    fn randomized_matching_reaches_maximality_with_enough_phases() {
        for graph in [cycle(32), path(21)] {
            let (g, x, ids) = matching_instance(graph);
            let inst = Instance::new(&g, &x, &ids);
            let algo = RandomizedMatching::for_graph_size(g.node_count());
            let out = Simulator::new().run_randomized(&algo, &inst, SeedSequence::new(9).child(2));
            let io = IoConfig::new(&g, &x, &out);
            let lang = MaximalMatching::new();
            assert!(
                lang.contains(&io),
                "randomized matching should be maximal on {} nodes",
                g.node_count()
            );
        }
    }

    #[test]
    fn proposal_matching_outputs_are_reciprocal_and_shift_invariant() {
        let (g, x, ids) = matching_instance(cycle(14));
        let inst = Instance::new(&g, &x, &ids);
        let algo = ProposalMatching::new();
        let lang = MaximalMatching::new();
        for trial in 0..12u64 {
            let seed = SeedSequence::new(4).child(trial);
            let out = Simulator::new().run_randomized(&algo, &inst, seed);
            let io = IoConfig::new(&g, &x, &out);
            // Every non-zero claim must be reciprocated (the only bad balls
            // a mutual-proposal matching can leave are maximality ones).
            for v in g.nodes() {
                let claim = out.get(v).as_u64();
                if claim == 0 {
                    continue;
                }
                let partner = g
                    .neighbor_ids(v)
                    .find(|&w| x.get(w).as_u64() == claim)
                    .expect("claims resolve to a neighbor name");
                assert_eq!(out.get(partner).as_u64(), x.get(v).as_u64());
            }
            // Claims reference input names, so shifting the identities (as
            // the Claim-2 search does) preserves the verdict of every ball.
            let shifted = IdAssignment::new(ids.as_slice().iter().map(|&i| i + 500).collect());
            let bad_before = rlnc_core::language::bad_ball_count(&lang, &io);
            let shifted_out =
                Simulator::new().run_randomized(&algo, &Instance::new(&g, &x, &shifted), seed);
            let bad_after = rlnc_core::language::bad_ball_count(
                &lang,
                &IoConfig::new(&g, &x, &shifted_out),
            );
            assert_eq!(bad_before, bad_after, "trial {trial}");
        }
    }

    #[test]
    fn matching_success_probability_increases_with_phases() {
        let (g, x, ids) = matching_instance(cycle(24));
        let inst = Instance::new(&g, &x, &ids);
        let lang = MaximalMatching::new();
        let few = Simulator::new().construction_success(&RandomizedMatching::new(1), &inst, &lang, 200, 8);
        let many = Simulator::new().construction_success(&RandomizedMatching::new(10), &inst, &lang, 200, 8);
        assert!(many.p_hat >= few.p_hat);
        assert!(many.p_hat > 0.9);
    }
}
