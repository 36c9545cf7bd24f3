//! Order-invariant algorithms (§2.1.1, Claim 1, Appendix A).
//!
//! An algorithm is **order-invariant** if its output at a node depends on
//! the identities in the node's view only through their *relative order*.
//! The paper uses three facts about such algorithms, all of which are
//! operationalized here:
//!
//! 1. For bounded degree and bounded labels there are only finitely many
//!    order-invariant `t`-round algorithms — because there are finitely
//!    many ordered labeled balls. [`collect_signatures`] enumerates the
//!    ball types realized by a family of instances, and
//!    [`enumerate_algorithms`] walks every function from those types to a
//!    finite output alphabet (the set `H` of Claim 2 is built from this).
//! 2. Any candidate algorithm can be *tested* for order-invariance by
//!    re-running it under order-preserving relabelings
//!    ([`check_order_invariance`]).
//! 3. Any algorithm can be *lifted* to an order-invariant one by
//!    canonically re-assigning identities from a fixed ID set before
//!    running it — the Appendix-A construction, implemented in
//!    [`crate::derand::ramsey`].

use crate::algorithm::LocalAlgorithm;
use crate::config::Instance;
use crate::labels::Label;
use crate::simulator::Simulator;
use crate::view::View;
use rlnc_graph::ball::BallSignature;
use rlnc_graph::{Graph, IdAssignment};
use std::collections::HashMap;

/// An explicit order-invariant `t`-round algorithm: a lookup table from
/// view signatures (which deliberately erase identity values) to outputs.
///
/// Views whose signature is not in the table produce the `default` output;
/// enumeration over a fixed family of instances always populates every
/// signature that can occur in that family.
#[derive(Debug, Clone)]
pub struct OrderInvariantTable {
    radius: u32,
    name: String,
    table: HashMap<BallSignature, Label>,
    default: Label,
}

impl OrderInvariantTable {
    /// Creates a table-driven order-invariant algorithm.
    pub fn new(
        radius: u32,
        name: impl Into<String>,
        table: HashMap<BallSignature, Label>,
        default: Label,
    ) -> Self {
        OrderInvariantTable {
            radius,
            name: name.into(),
            table,
            default,
        }
    }
}

impl LocalAlgorithm for OrderInvariantTable {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn output(&self, view: &View) -> Label {
        self.table
            .get(&view.signature())
            .copied()
            .unwrap_or(self.default)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Collects the distinct view signatures of radius `t` realized by a family
/// of instances, in a deterministic order (first occurrence wins).
pub fn collect_signatures(instances: &[Instance<'_>], radius: u32) -> Vec<BallSignature> {
    let mut seen = HashMap::new();
    let mut out = Vec::new();
    for instance in instances {
        for v in instance.graph.nodes() {
            let sig = View::collect(instance, v, radius).signature();
            if !seen.contains_key(&sig) {
                seen.insert(sig.clone(), out.len());
                out.push(sig);
            }
        }
    }
    out
}

/// The number of distinct order-invariant `t`-round algorithms over the
/// given ball types and output alphabet: `|outputs|^{#types}` — the finite
/// `N` from the proof of Claim 2 (restricted to the realized ball types).
pub fn algorithm_count(signature_count: usize, alphabet_size: usize) -> u128 {
    (alphabet_size as u128).checked_pow(signature_count as u32).unwrap_or(u128::MAX)
}

/// Enumerates every order-invariant `t`-round algorithm over the given ball
/// types and output alphabet, lazily (there are
/// `|outputs|^{#signatures}` of them — keep both small).
pub fn enumerate_algorithms<'a>(
    signatures: &'a [BallSignature],
    outputs: &'a [Label],
    radius: u32,
) -> impl Iterator<Item = OrderInvariantTable> + 'a {
    let total = algorithm_count(signatures.len(), outputs.len());
    assert!(
        total <= 1 << 24,
        "enumeration of {total} order-invariant algorithms is too large; restrict the family"
    );
    let count = total as u64;
    (0..count).map(move |index| {
        let mut table = HashMap::with_capacity(signatures.len());
        let mut rest = index;
        for sig in signatures {
            let choice = (rest % outputs.len() as u64) as usize;
            rest /= outputs.len() as u64;
            table.insert(sig.clone(), outputs[choice]);
        }
        OrderInvariantTable::new(
            radius,
            format!("order-invariant#{index}"),
            table,
            outputs[0],
        )
    })
}

/// Checks empirically that an algorithm is order-invariant on a given
/// instance: its outputs must be identical under every supplied
/// order-preserving re-assignment of the identities.
///
/// Returns `true` if all runs agree. (A `true` answer is evidence, not
/// proof; a `false` answer is a counterexample.)
pub fn check_order_invariance<A: LocalAlgorithm + ?Sized>(
    algo: &A,
    graph: &Graph,
    input: &crate::labels::Labeling,
    base_ids: &IdAssignment,
    monotone_maps: &[&dyn Fn(u64) -> u64],
) -> bool {
    let sim = Simulator::new();
    let base_instance = Instance::new(graph, input, base_ids);
    let reference = sim.run(algo, &base_instance);
    monotone_maps.iter().all(|map| {
        let remapped = base_ids.map_monotone(map);
        let instance = Instance::new(graph, input, &remapped);
        sim.run(algo, &instance) == reference
    })
}

/// Convenience monotone maps used by the order-invariance checks: affine
/// stretches and a quadratic stretch, all strictly increasing on `u64`
/// identities below 2^20.
pub fn standard_monotone_maps() -> Vec<Box<dyn Fn(u64) -> u64 + Sync>> {
    vec![
        Box::new(|x| x + 1000),
        Box::new(|x| 17 * x),
        Box::new(|x| 1000 * x + 3),
        Box::new(|x| x * x + x),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnAlgorithm;
    use crate::labels::Labeling;
    use rlnc_graph::generators::{cycle, path};

    #[test]
    fn collect_signatures_groups_equivalent_balls() {
        let g = cycle(12);
        let x = Labeling::empty(12);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let sigs = collect_signatures(&[inst], 1);
        // On the consecutive-ID cycle there are exactly three radius-1 ball
        // types: interior (id order low-mid-high), the ball containing the
        // minimum id, and the ball containing the maximum id.
        assert_eq!(sigs.len(), 3);
    }

    #[test]
    fn algorithm_count_and_enumeration_agree() {
        let g = cycle(8);
        let x = Labeling::empty(8);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let sigs = collect_signatures(&[inst], 0);
        // Radius 0 on a cycle with no inputs: a single ball type.
        assert_eq!(sigs.len(), 1);
        let outputs: Vec<Label> = (0..3).map(Label::from_u64).collect();
        assert_eq!(algorithm_count(sigs.len(), outputs.len()), 3);
        let algos: Vec<_> = enumerate_algorithms(&sigs, &outputs, 0).collect();
        assert_eq!(algos.len(), 3);
        // They are pairwise distinct as functions.
        let view = View::collect(&Instance::new(&g, &x, &ids), rlnc_graph::NodeId(0), 0);
        let outs: std::collections::HashSet<u64> =
            algos.iter().map(|a| a.output(&view).as_u64()).collect();
        assert_eq!(outs.len(), 3);
    }

    #[test]
    fn table_lookup_and_default() {
        let g = path(5);
        let x = Labeling::empty(5);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let sigs = collect_signatures(&[inst], 1);
        let mut table = HashMap::new();
        table.insert(sigs[0].clone(), Label::from_u64(7));
        let algo = OrderInvariantTable::new(1, "partial", table, Label::from_u64(9));
        // Signature 0 is the view of node 0 (degree-1 endpoint, min id).
        let inst2 = Instance::new(&g, &x, &ids);
        let v0 = View::collect(&inst2, rlnc_graph::NodeId(0), 1);
        assert_eq!(algo.output(&v0).as_u64(), 7);
        // Node 1's ball type is not in the table: the default answers.
        let v1 = View::collect(&inst2, rlnc_graph::NodeId(1), 1);
        assert_eq!(v1.signature(), sigs[1]);
        assert_eq!(algo.output(&v1).as_u64(), 9);
    }

    #[test]
    fn rank_based_algorithm_is_order_invariant() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        let ids = IdAssignment::consecutive(&g);
        let algo = FnAlgorithm::new(1, "rank-in-ball", |v: &View| {
            Label::from_u64(v.center_rank() as u64)
        });
        let maps = standard_monotone_maps();
        let map_refs: Vec<&dyn Fn(u64) -> u64> =
            maps.iter().map(|m| m.as_ref() as &dyn Fn(u64) -> u64).collect();
        assert!(check_order_invariance(&algo, &g, &x, &ids, &map_refs));
    }

    #[test]
    fn id_value_algorithm_is_not_order_invariant() {
        let g = cycle(10);
        let x = Labeling::empty(10);
        let ids = IdAssignment::consecutive(&g);
        let algo = FnAlgorithm::new(0, "id-mod-3", |v: &View| Label::from_u64(v.center_id() % 3));
        let maps = standard_monotone_maps();
        let map_refs: Vec<&dyn Fn(u64) -> u64> =
            maps.iter().map(|m| m.as_ref() as &dyn Fn(u64) -> u64).collect();
        assert!(!check_order_invariance(&algo, &g, &x, &ids, &map_refs));
    }

    #[test]
    fn enumerated_tables_are_order_invariant() {
        let g = cycle(9);
        let x = Labeling::empty(9);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let sigs = collect_signatures(&[inst], 1);
        let outputs = vec![Label::from_u64(0), Label::from_u64(1)];
        let maps = standard_monotone_maps();
        let map_refs: Vec<&dyn Fn(u64) -> u64> =
            maps.iter().map(|m| m.as_ref() as &dyn Fn(u64) -> u64).collect();
        for algo in enumerate_algorithms(&sigs, &outputs, 1).take(8) {
            assert!(check_order_invariance(&algo, &g, &x, &ids, &map_refs));
        }
    }
}
