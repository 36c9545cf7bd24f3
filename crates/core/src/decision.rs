//! Distributed decision: deterministic and randomized local deciders, the
//! acceptance semantics, and a Monte-Carlo estimate of the acceptance
//! probability (§2.2.2, §2.3 of the paper).
//!
//! A decider runs at every node on the radius-`t'` view of an input-output
//! configuration (with identities) and outputs `true` (accept) or `false`
//! (reject). The configuration is **accepted** iff *every* node accepts.
//! A randomized decider decides a language `L` with guarantee `p > 1/2` if
//! for every configuration in `L` all nodes accept with probability ≥ p,
//! and for every configuration not in `L` at least one node rejects with
//! probability ≥ p (Eq. (1) of the paper).

use crate::algorithm::Coins;
use crate::config::IoConfig;
use crate::view::View;
use rlnc_par::rng::SeedSequence;
use rlnc_par::stats::Estimate;
use rlnc_par::trials::MonteCarlo;
use rlnc_graph::{IdAssignment, NodeId};

/// A deterministic local decider (the algorithms whose existence defines
/// the class LD).
pub trait LocalDecider: Sync {
    /// Number of communication rounds `t'`.
    fn radius(&self) -> u32;

    /// Verdict of the node at the center of `view` (which carries outputs).
    fn accepts(&self, view: &View) -> bool;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>().rsplit("::").next().unwrap_or("decider").to_string()
    }
}

/// A randomized Monte-Carlo local decider (the algorithms whose existence
/// defines the class BPLD).
pub trait RandomizedDecider: Sync {
    /// Number of communication rounds `t'`.
    fn radius(&self) -> u32;

    /// Verdict of the node at the center of `view`, with access to the
    /// private coins of every node in the view.
    fn accepts(&self, view: &View, coins: &Coins) -> bool;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>().rsplit("::").next().unwrap_or("decider").to_string()
    }
}

/// Every deterministic decider is a randomized decider that ignores its
/// coins (`LD ⊆ BPLD`).
impl<D: LocalDecider + ?Sized> RandomizedDecider for D {
    fn radius(&self) -> u32 {
        LocalDecider::radius(self)
    }

    fn accepts(&self, view: &View, _coins: &Coins) -> bool {
        LocalDecider::accepts(self, view)
    }

    fn name(&self) -> String {
        LocalDecider::name(self)
    }
}

/// A deterministic decider defined by a closure.
pub struct FnDecider<F> {
    radius: u32,
    name: String,
    f: F,
}

impl<F: Fn(&View) -> bool + Sync> FnDecider<F> {
    /// Wraps a closure as a `radius`-round deterministic decider.
    pub fn new(radius: u32, name: impl Into<String>, f: F) -> Self {
        FnDecider {
            radius,
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&View) -> bool + Sync> LocalDecider for FnDecider<F> {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn accepts(&self, view: &View) -> bool {
        (self.f)(view)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// A randomized decider defined by a closure.
pub struct FnRandomizedDecider<F> {
    radius: u32,
    name: String,
    f: F,
}

impl<F: Fn(&View, &Coins) -> bool + Sync> FnRandomizedDecider<F> {
    /// Wraps a closure as a `radius`-round randomized decider.
    pub fn new(radius: u32, name: impl Into<String>, f: F) -> Self {
        FnRandomizedDecider {
            radius,
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&View, &Coins) -> bool + Sync> RandomizedDecider for FnRandomizedDecider<F> {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn accepts(&self, view: &View, coins: &Coins) -> bool {
        (self.f)(view, coins)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Runs a deterministic decider at every node; returns the rejecting nodes.
pub fn rejecting_nodes<D: LocalDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
) -> Vec<NodeId> {
    let t = decider.radius();
    io.graph
        .nodes()
        .filter(|&v| {
            let view = View::collect_io(io, ids, v, t);
            !decider.accepts(&view)
        })
        .collect()
}

/// Global verdict of a deterministic decider: accepted iff every node
/// accepts — [`decide_randomized`] with coins the decider never reads.
pub fn decide<D: LocalDecider + ?Sized>(decider: &D, io: &IoConfig<'_>, ids: &IdAssignment) -> bool {
    decide_randomized(decider, io, ids, SeedSequence::new(0))
}

/// Global verdict of one execution of a randomized decider:
/// [`decide_randomized_far_from`] with no anchors, so every node takes part.
pub fn decide_randomized<D: RandomizedDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
    execution_seed: SeedSequence,
) -> bool {
    decide_randomized_far_from(decider, io, ids, &[], 0, execution_seed)
}

/// The one reference decide loop: a verdict over the nodes at distance
/// **greater than** `exclusion_radius` from every anchor, each deciding on
/// a freshly collected view — the "accepts far from `u`" event used in
/// Claims 4 and 5 of the paper (one anchor), and on a gluing the event
/// "accepts far from every anchor". With no anchors every node takes part.
pub fn decide_randomized_far_from<D: RandomizedDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
    anchors: &[NodeId],
    exclusion_radius: u32,
    execution_seed: SeedSequence,
) -> bool {
    let t = decider.radius();
    let coins = Coins::new(execution_seed);
    let distances: Vec<Vec<u32>> = anchors
        .iter()
        .map(|&anchor| rlnc_graph::bfs_distances(io.graph, anchor))
        .collect();
    io.graph.nodes().all(|v| {
        if distances.iter().any(|d| d[v.index()] <= exclusion_radius) {
            return true; // nodes near an anchor do not participate
        }
        let view = View::collect_io(io, ids, v, t);
        decider.accepts(&view, &coins)
    })
}

/// Estimates the acceptance probability `Pr[all nodes accept]` of a
/// randomized decider on a fixed configuration.
pub fn acceptance_probability<D: RandomizedDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
    trials: u64,
    seed: u64,
) -> Estimate {
    MonteCarlo::new(trials)
        .with_seed(seed)
        .estimate(|s| decide_randomized(decider, io, ids, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, Labeling};
    use crate::language::{DistributedLanguage, FnLcl};
    use rand::Rng;
    use rlnc_graph::generators::cycle;

    fn proper_coloring_decider() -> FnDecider<impl Fn(&View) -> bool + Sync> {
        FnDecider::new(1, "proper-coloring", |view: &View| {
            let mine = view.output(view.center_local());
            view.center_neighbors().all(|i| view.output(i) != mine)
        })
    }

    #[test]
    fn deterministic_decider_accepts_proper_colorings() {
        let g = cycle(8);
        let x = Labeling::empty(8);
        let ids = IdAssignment::consecutive(&g);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let io = IoConfig::new(&g, &x, &y);
        let d = proper_coloring_decider();
        assert!(decide(&d, &io, &ids));
        assert!(rejecting_nodes(&d, &io, &ids).is_empty());
    }

    #[test]
    fn deterministic_decider_rejects_conflicts_locally() {
        let g = cycle(8);
        let x = Labeling::empty(8);
        let ids = IdAssignment::consecutive(&g);
        let mut y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        y.set(NodeId(3), Label::from_u64(0)); // conflicts with node 2 and 4.
        let io = IoConfig::new(&g, &x, &y);
        let d = proper_coloring_decider();
        assert!(!decide(&d, &io, &ids));
        let rejecting = rejecting_nodes(&d, &io, &ids);
        assert!(rejecting.contains(&NodeId(3)));
        assert!(rejecting.len() >= 2);
    }

    #[test]
    fn randomized_decider_guarantee_estimation() {
        // "Accept always on good configs, reject each bad node with
        // probability 0.8" — a 1-sided-error decider for proper coloring.
        let g = cycle(6);
        let x = Labeling::empty(6);
        let ids = IdAssignment::consecutive(&g);
        let good = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let bad = Labeling::from_fn(&g, |_| Label::from_u64(1));
        let io_good = IoConfig::new(&g, &x, &good);
        let io_bad = IoConfig::new(&g, &x, &bad);

        let decider = FnRandomizedDecider::new(1, "noisy", |view: &View, coins: &Coins| {
            let mine = view.output(view.center_local());
            let conflict = view.center_neighbors().any(|i| view.output(i) == mine);
            if !conflict {
                true
            } else {
                !coins.for_center(view).random_bool(0.8)
            }
        });

        let lang = FnLcl::new("proper", 1, |io: &IoConfig<'_>, v: NodeId| {
            io.graph.neighbor_ids(v).any(|w| io.output.get(w) == io.output.get(v))
        });

        assert!(lang.contains(&io_good));
        assert!(!lang.contains(&io_bad));
        let yes_acceptance = acceptance_probability(&decider, &io_good, &ids, 2000, 7);
        let no_rejection = 1.0 - acceptance_probability(&decider, &io_bad, &ids, 2000, 8).p_hat;
        // Yes-instances are always accepted; no-instances have 6 bad nodes,
        // each rejecting w.p. 0.8, so rejection probability is huge.
        assert!(yes_acceptance.p_hat > 0.99);
        assert!(no_rejection > 0.9);
        // The guarantee of Eq. (1), the worse of the two, exceeds 1/2.
        assert!(yes_acceptance.p_hat.min(no_rejection) > 0.5);
    }

    #[test]
    fn far_from_decision_ignores_nodes_near_anchor() {
        let g = cycle(20);
        let x = Labeling::empty(20);
        let ids = IdAssignment::consecutive(&g);
        // Improper only near node 0.
        let mut y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        y.set(NodeId(1), Label::from_u64(0));
        let io = IoConfig::new(&g, &x, &y);
        let d = proper_coloring_decider();
        assert!(!decide(&d, &io, &ids));
        // Excluding a radius-3 neighborhood of node 0 hides the conflict.
        assert!(decide_randomized_far_from(
            &d,
            &io,
            &ids,
            &[NodeId(0)],
            3,
            SeedSequence::new(0)
        ));
        // Excluding only radius 0 does not.
        assert!(!decide_randomized_far_from(
            &d,
            &io,
            &ids,
            &[NodeId(10)],
            0,
            SeedSequence::new(0)
        ));
    }

    #[test]
    fn acceptance_probability_matches_expectation() {
        // Decider where every node independently accepts with prob 0.9 on a
        // 4-cycle: global acceptance 0.9^4 ≈ 0.656.
        let g = cycle(4);
        let x = Labeling::empty(4);
        let y = Labeling::empty(4);
        let ids = IdAssignment::consecutive(&g);
        let io = IoConfig::new(&g, &x, &y);
        let d = FnRandomizedDecider::new(0, "bernoulli", |view: &View, coins: &Coins| {
            coins.for_center(view).random_bool(0.9)
        });
        let est = acceptance_probability(&d, &io, &ids, 4000, 3);
        assert!((est.p_hat - 0.9f64.powi(4)).abs() < 0.03);
    }
}
