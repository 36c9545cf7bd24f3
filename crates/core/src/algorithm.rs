//! Algorithm traits: deterministic and randomized Monte-Carlo LOCAL
//! algorithms, and the shared-coin abstraction.
//!
//! A `t`-round LOCAL algorithm is modeled as a function of the radius-`t`
//! [`View`] of each node (§2.1 of the paper establishes the equivalence with
//! the message-passing formulation; `rlnc-core::rounds` tests it). A
//! randomized Monte-Carlo algorithm additionally has access, at every node,
//! to a *private source of independent random bits* which "may well be
//! exchanged between nodes during the execution": concretely, the output at
//! `v` may read the coin stream of any node inside `v`'s view, and two
//! nodes reading the coins of a common neighbor see the *same* bits. The
//! [`Coins`] type implements exactly that semantics by deriving one
//! deterministic stream per (execution, node) pair.

use crate::labels::Label;
use crate::view::View;
use rand_chacha::ChaCha8Rng;
use rlnc_par::rng::SeedSequence;
use rlnc_graph::NodeId;

/// Per-execution source of per-node private coins.
///
/// `Coins::for_node(v)` always returns the same stream for the same
/// execution and node, no matter which simulated node asks for it — the
/// shared-randomness semantics of the LOCAL model.
#[derive(Debug, Clone, Copy)]
pub struct Coins {
    seed: SeedSequence,
}

impl Coins {
    /// Creates the coin source of one execution (one Monte-Carlo trial).
    pub fn new(seed: SeedSequence) -> Self {
        Coins { seed }
    }

    /// The private coin stream of node `v`.
    pub fn for_node(&self, v: NodeId) -> ChaCha8Rng {
        self.seed.child(u64::from(v.0)).rng()
    }

    /// The private coin stream of the node at local index `i` of a view.
    pub fn for_view_node(&self, view: &View, i: usize) -> ChaCha8Rng {
        self.for_node(view.host_node(i))
    }

    /// The coin stream of the view's center.
    pub fn for_center(&self, view: &View) -> ChaCha8Rng {
        self.for_node(view.host_node(view.center_local()))
    }
}

/// A deterministic `t`-round LOCAL construction algorithm.
pub trait LocalAlgorithm: Sync {
    /// Number of communication rounds (the radius of the views it reads).
    fn radius(&self) -> u32;

    /// Output label of the node at the center of `view`.
    fn output(&self, view: &View) -> Label;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>().rsplit("::").next().unwrap_or("algorithm").to_string()
    }
}

/// A randomized Monte-Carlo `t`-round LOCAL construction algorithm.
pub trait RandomizedLocalAlgorithm: Sync {
    /// Number of communication rounds.
    fn radius(&self) -> u32;

    /// Output label of the node at the center of `view`, with access to the
    /// private coins of every node in the view.
    fn output(&self, view: &View, coins: &Coins) -> Label;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>().rsplit("::").next().unwrap_or("algorithm").to_string()
    }
}

/// Every deterministic algorithm is trivially a randomized one that ignores
/// its coins (`LD ⊆ BPLD` at the algorithm level).
impl<A: LocalAlgorithm + ?Sized> RandomizedLocalAlgorithm for A {
    fn radius(&self) -> u32 {
        LocalAlgorithm::radius(self)
    }

    fn output(&self, view: &View, _coins: &Coins) -> Label {
        LocalAlgorithm::output(self, view)
    }

    fn name(&self) -> String {
        LocalAlgorithm::name(self)
    }
}

/// A deterministic algorithm defined by a closure (convenient in tests and
/// for small ad-hoc algorithms).
pub struct FnAlgorithm<F> {
    radius: u32,
    name: String,
    f: F,
}

impl<F: Fn(&View) -> Label + Sync> FnAlgorithm<F> {
    /// Wraps a closure as a `radius`-round deterministic algorithm.
    pub fn new(radius: u32, name: impl Into<String>, f: F) -> Self {
        FnAlgorithm {
            radius,
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&View) -> Label + Sync> LocalAlgorithm for FnAlgorithm<F> {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn output(&self, view: &View) -> Label {
        (self.f)(view)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// A randomized algorithm defined by a closure.
pub struct FnRandomizedAlgorithm<F> {
    radius: u32,
    name: String,
    f: F,
}

impl<F: Fn(&View, &Coins) -> Label + Sync> FnRandomizedAlgorithm<F> {
    /// Wraps a closure as a `radius`-round randomized algorithm.
    pub fn new(radius: u32, name: impl Into<String>, f: F) -> Self {
        FnRandomizedAlgorithm {
            radius,
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&View, &Coins) -> Label + Sync> RandomizedLocalAlgorithm for FnRandomizedAlgorithm<F> {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        (self.f)(view, coins)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Instance;
    use crate::labels::Labeling;
    use rand::Rng;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;

    #[test]
    fn coins_are_per_node_and_reproducible() {
        let coins = Coins::new(SeedSequence::new(5).child(0));
        let mut a1 = coins.for_node(NodeId(3));
        let mut a2 = coins.for_node(NodeId(3));
        let mut b = coins.for_node(NodeId(4));
        let x1: u64 = a1.random();
        let x2: u64 = a2.random();
        let y: u64 = b.random();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn different_executions_have_different_coins() {
        let c1 = Coins::new(SeedSequence::new(5).child(0));
        let c2 = Coins::new(SeedSequence::new(5).child(1));
        let x: u64 = c1.for_node(NodeId(0)).random();
        let y: u64 = c2.for_node(NodeId(0)).random();
        assert_ne!(x, y);
    }

    #[test]
    fn fn_algorithm_wraps_closures() {
        let g = cycle(5);
        let x = Labeling::empty(5);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnAlgorithm::new(0, "id-parity", |view: &View| {
            Label::from_u64(view.center_id() % 2)
        });
        assert_eq!(LocalAlgorithm::radius(&algo), 0);
        assert_eq!(LocalAlgorithm::name(&algo), "id-parity");
        let view = View::collect(&inst, NodeId(2), 0);
        assert_eq!(LocalAlgorithm::output(&algo, &view).as_u64(), 1);
        // Blanket impl: usable as a randomized algorithm too.
        let coins = Coins::new(SeedSequence::new(1));
        assert_eq!(
            RandomizedLocalAlgorithm::output(&algo, &view, &coins).as_u64(),
            1
        );
    }

    #[test]
    fn fn_randomized_algorithm_uses_coins() {
        let g = cycle(5);
        let x = Labeling::empty(5);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = FnRandomizedAlgorithm::new(0, "coin-flip", |view: &View, coins: &Coins| {
            let mut rng = coins.for_center(view);
            Label::from_bool(rng.random_bool(0.5))
        });
        let view = View::collect(&inst, NodeId(0), 0);
        let c1 = Coins::new(SeedSequence::new(9).child(0));
        let out1 = algo.output(&view, &c1);
        let out2 = algo.output(&view, &c1);
        assert_eq!(out1, out2, "same coins, same output");
        assert_eq!(algo.name(), "coin-flip");
        assert_eq!(algo.radius(), 0);
    }
}
