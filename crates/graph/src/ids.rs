//! Identity assignments.
//!
//! In the LOCAL model every node `v` carries a positive integer identity
//! `id(v)`, pairwise distinct within the network. The paper's machinery
//! cares about identities in two distinct ways:
//!
//! * **Values** — Claim 2 needs instances whose identities are all at least
//!   `I_min`, so that hard instances can be concatenated without ID
//!   collisions (the gluing of Theorem 1).
//! * **Relative order** — order-invariant algorithms (Claim 1, Appendix A)
//!   only look at how the identities in a ball compare to each other, never
//!   at their values. `rlnc-core`'s `View::rank` and `View::signature`
//!   expose exactly this information; [`IdAssignment::shifted`] and
//!   [`IdAssignment::map_monotone`] change values and keep the order.

use crate::csr::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// An assignment of pairwise-distinct positive integer identities to the
/// nodes of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
}

impl IdAssignment {
    /// Builds an assignment from an explicit vector (`ids[v]` is the
    /// identity of node `v`).
    ///
    /// # Panics
    /// Panics if any identity is zero or if two nodes share an identity.
    pub fn new(ids: Vec<u64>) -> Self {
        let mut seen = HashSet::with_capacity(ids.len());
        for &id in &ids {
            assert!(id > 0, "identities must be positive integers");
            assert!(seen.insert(id), "duplicate identity {id}");
        }
        IdAssignment { ids }
    }

    /// Consecutive identities `1, 2, ..., n` in node-index order.
    ///
    /// On the cycle this is exactly the adversarial assignment used in §4 of
    /// the paper: adjacent nodes carry consecutive identities (except across
    /// the seam between IDs `1` and `n`), which forces any order-invariant
    /// algorithm to act identically at almost every node.
    pub fn consecutive(graph: &Graph) -> Self {
        IdAssignment {
            ids: (1..=graph.node_count() as u64).collect(),
        }
    }

    /// A uniformly random permutation of `1..=n`.
    pub fn random_permutation<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> Self {
        let mut ids: Vec<u64> = (1..=graph.node_count() as u64).collect();
        ids.shuffle(rng);
        IdAssignment { ids }
    }

    /// Random distinct identities drawn from `1..=universe` (sparse IDs:
    /// the LOCAL model does not require identities to be `1..n`).
    ///
    /// # Panics
    /// Panics if `universe < n`.
    pub fn random_sparse<R: Rng + ?Sized>(graph: &Graph, universe: u64, rng: &mut R) -> Self {
        let n = graph.node_count();
        assert!(universe >= n as u64, "universe too small for {n} distinct ids");
        let mut chosen = HashSet::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let candidate = rng.random_range(1..=universe);
            if chosen.insert(candidate) {
                ids.push(candidate);
            }
        }
        IdAssignment { ids }
    }

    /// Spread identities `stride, 2·stride, ...` — same order type as
    /// [`IdAssignment::consecutive`] but with large gaps, useful for testing
    /// that order-invariant algorithms ignore identity *values*.
    pub fn spread(graph: &Graph, stride: u64) -> Self {
        assert!(stride >= 1);
        IdAssignment {
            ids: (1..=graph.node_count() as u64).map(|i| i * stride).collect(),
        }
    }

    /// Number of nodes covered by the assignment.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Identity of node `v`.
    #[inline]
    pub fn id(&self, v: NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// The raw identity vector, indexed by node.
    pub fn as_slice(&self) -> &[u64] {
        &self.ids
    }

    /// Smallest identity in the assignment.
    pub fn min_id(&self) -> u64 {
        self.ids.iter().copied().min().unwrap_or(0)
    }

    /// Largest identity in the assignment.
    pub fn max_id(&self) -> u64 {
        self.ids.iter().copied().max().unwrap_or(0)
    }

    /// Shifts every identity by `offset` (keeps the order type, moves the
    /// value range — exactly the `I_min` requirement of Claim 2).
    pub fn shifted(&self, offset: u64) -> Self {
        IdAssignment {
            ids: self.ids.iter().map(|&id| id + offset).collect(),
        }
    }

    /// Concatenates two assignments (for disjoint unions of graphs).
    ///
    /// # Panics
    /// Panics if the identity ranges overlap.
    pub fn concatenate(&self, other: &IdAssignment) -> Self {
        let mut ids = self.ids.clone();
        ids.extend_from_slice(&other.ids);
        IdAssignment::new(ids)
    }

    /// Applies an order-preserving transformation to all identity values
    /// (any strictly increasing map keeps the order type). Used by property
    /// tests asserting order-invariance.
    pub fn map_monotone(&self, f: impl Fn(u64) -> u64) -> Self {
        let mapped: Vec<u64> = self.ids.iter().map(|&id| f(id)).collect();
        // Verify monotonicity preserved distinctness on the actual values.
        IdAssignment::new(mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::cycle;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn consecutive_ids_are_1_to_n() {
        let g = cycle(5);
        let ids = IdAssignment::consecutive(&g);
        assert_eq!(ids.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(ids.min_id(), 1);
        assert_eq!(ids.max_id(), 5);
    }

    #[test]
    #[should_panic(expected = "duplicate identity")]
    fn duplicate_ids_rejected() {
        IdAssignment::new(vec![1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_id_rejected() {
        IdAssignment::new(vec![0, 1]);
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let g = cycle(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let ids = IdAssignment::random_permutation(&g, &mut rng);
        let mut sorted: Vec<u64> = ids.as_slice().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn random_sparse_ids_are_distinct_and_in_range() {
        let g = cycle(20);
        let mut rng = SmallRng::seed_from_u64(2);
        let ids = IdAssignment::random_sparse(&g, 10_000, &mut rng);
        let set: HashSet<u64> = ids.as_slice().iter().copied().collect();
        assert_eq!(set.len(), 20);
        assert!(ids.max_id() <= 10_000);
        assert!(ids.min_id() >= 1);
    }

    /// Whether identities strictly increase in node order.
    fn increasing(ids: &IdAssignment) -> bool {
        ids.as_slice().windows(2).all(|w| w[0] < w[1])
    }

    #[test]
    fn spread_and_consecutive_have_same_order_type() {
        let g = cycle(12);
        assert!(increasing(&IdAssignment::consecutive(&g)));
        assert!(increasing(&IdAssignment::spread(&g, 1000)));
    }

    #[test]
    fn shifting_preserves_order_type_and_raises_min() {
        let g = cycle(8);
        let a = IdAssignment::consecutive(&g);
        let b = a.shifted(500);
        assert_eq!(b.as_slice(), (501..=508).collect::<Vec<u64>>());
        assert_eq!(b.min_id(), 501);
    }

    #[test]
    fn concatenation_requires_disjoint_ranges() {
        let g = cycle(4);
        let a = IdAssignment::consecutive(&g);
        let b = a.shifted(4);
        let c = a.concatenate(&b);
        assert_eq!(c.len(), 8);
        assert_eq!(c.max_id(), 8);
    }

    #[test]
    #[should_panic(expected = "duplicate identity")]
    fn concatenation_rejects_overlap() {
        let g = cycle(4);
        let a = IdAssignment::consecutive(&g);
        let _ = a.concatenate(&a);
    }

    #[test]
    fn monotone_map_preserves_order() {
        let g = cycle(6);
        let mapped = IdAssignment::consecutive(&g).map_monotone(|x| x * x + 7);
        assert_eq!(mapped.as_slice(), &[8, 11, 16, 23, 32, 43]);
        assert!(increasing(&mapped));
    }
}
