//! Distributed decision: deterministic and randomized local deciders, the
//! acceptance semantics, and empirical LD / BPLD guarantee estimation
//! (§2.2.2, §2.3 of the paper).
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
use crate::language::DistributedLanguage;
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
impl<D: LocalDecider> RandomizedDecider for D {
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

/// Global verdict of a deterministic decider: accepted iff every node accepts.
pub fn decide<D: LocalDecider + ?Sized>(decider: &D, io: &IoConfig<'_>, ids: &IdAssignment) -> bool {
    let t = decider.radius();
    io.graph.nodes().all(|v| {
        let view = View::collect_io(io, ids, v, t);
        decider.accepts(&view)
    })
}

/// Runs one execution of a randomized decider (one coin sample); returns
/// the rejecting nodes.
pub fn rejecting_nodes_randomized<D: RandomizedDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
    execution_seed: SeedSequence,
) -> Vec<NodeId> {
    let t = decider.radius();
    let coins = Coins::new(execution_seed);
    io.graph
        .nodes()
        .filter(|&v| {
            let view = View::collect_io(io, ids, v, t);
            !decider.accepts(&view, &coins)
        })
        .collect()
}

/// Global verdict of one execution of a randomized decider.
pub fn decide_randomized<D: RandomizedDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
    execution_seed: SeedSequence,
) -> bool {
    let t = decider.radius();
    let coins = Coins::new(execution_seed);
    io.graph.nodes().all(|v| {
        let view = View::collect_io(io, ids, v, t);
        decider.accepts(&view, &coins)
    })
}

/// Same as [`decide_randomized`], but only quantifies over the nodes at
/// distance **greater than** `exclusion_radius` from `anchor` — the
/// "accepts far from `u`" event used in Claims 4 and 5 of the paper.
pub fn decide_randomized_far_from<D: RandomizedDecider + ?Sized>(
    decider: &D,
    io: &IoConfig<'_>,
    ids: &IdAssignment,
    anchor: NodeId,
    exclusion_radius: u32,
    execution_seed: SeedSequence,
) -> bool {
    let t = decider.radius();
    let coins = Coins::new(execution_seed);
    let distances = rlnc_graph::bfs_distances(io.graph, anchor);
    io.graph.nodes().all(|v| {
        if distances[v.index()] <= exclusion_radius {
            return true; // nodes near the anchor do not participate
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

/// Empirical check that a decider decides `language` with guarantee at
/// least `p` on the provided yes/no configurations (Eq. (1)): returns the
/// smallest estimated guarantee across all supplied configurations.
pub struct GuaranteeReport {
    /// Per-configuration estimates of `Pr[all accept]` on yes-instances.
    pub yes_acceptance: Vec<Estimate>,
    /// Per-configuration estimates of `Pr[some node rejects]` on no-instances.
    pub no_rejection: Vec<Estimate>,
}

impl GuaranteeReport {
    /// The empirical guarantee: the minimum over all configurations of the
    /// relevant success probability point estimate.
    pub fn guarantee(&self) -> f64 {
        self.yes_acceptance
            .iter()
            .map(|e| e.p_hat)
            .chain(self.no_rejection.iter().map(|e| e.p_hat))
            .fold(1.0, f64::min)
    }

    /// Conservative (lower-confidence-bound) guarantee.
    pub fn guarantee_lower_bound(&self) -> f64 {
        self.yes_acceptance
            .iter()
            .map(|e| e.lower)
            .chain(self.no_rejection.iter().map(|e| e.lower))
            .fold(1.0, f64::min)
    }

    /// Returns `true` if the empirical guarantee exceeds 1/2 — the BPLD
    /// membership criterion.
    pub fn satisfies_bpld(&self) -> bool {
        self.guarantee() > 0.5
    }
}

/// Estimates the guarantee of `decider` for `language` on a finite set of
/// labeled configurations. Configurations are classified as yes/no by the
/// language itself, so callers can simply pass interesting configurations.
pub fn estimate_guarantee<D, L>(
    decider: &D,
    language: &L,
    configs: &[(&IoConfig<'_>, &IdAssignment)],
    trials: u64,
    seed: u64,
) -> GuaranteeReport
where
    D: RandomizedDecider + ?Sized,
    L: DistributedLanguage + ?Sized,
{
    let results: Vec<(bool, Estimate)> = configs
        .iter()
        .enumerate()
        .map(|(i, (io, ids))| {
            let is_member = language.contains(io);
            let mc = MonteCarlo::new(trials).with_seed(seed.wrapping_add(i as u64));
            let est = if is_member {
                mc.estimate(|s| decide_randomized(decider, io, ids, s))
            } else {
                mc.estimate(|s| !decide_randomized(decider, io, ids, s))
            };
            (is_member, est)
        })
        .collect();
    let mut yes = Vec::new();
    let mut no = Vec::new();
    for (is_member, est) in results {
        if is_member {
            yes.push(est);
        } else {
            no.push(est);
        }
    }
    GuaranteeReport {
        yes_acceptance: yes,
        no_rejection: no,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, Labeling};
    use crate::language::FnLcl;
    use rand::Rng;
    use rlnc_graph::generators::cycle;

    fn proper_coloring_decider() -> FnDecider<impl Fn(&View) -> bool + Sync> {
        FnDecider::new(1, "proper-coloring", |view: &View| {
            let mine = view.output(view.center_local());
            view.center_neighbors()
                .iter()
                .all(|&i| view.output(i) != mine)
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
            let conflict = view
                .center_neighbors()
                .iter()
                .any(|&i| view.output(i) == mine);
            if !conflict {
                true
            } else {
                !coins.for_center(view).random_bool(0.8)
            }
        });

        let lang = FnLcl::new("proper", 1, |io: &IoConfig<'_>, v: NodeId| {
            io.graph.neighbor_ids(v).any(|w| io.output.get(w) == io.output.get(v))
        });

        let report = estimate_guarantee(
            &decider,
            &lang,
            &[(&io_good, &ids), (&io_bad, &ids)],
            2000,
            7,
        );
        assert_eq!(report.yes_acceptance.len(), 1);
        assert_eq!(report.no_rejection.len(), 1);
        // Yes-instances are always accepted; no-instances have 6 bad nodes,
        // each rejecting w.p. 0.8, so rejection probability is huge.
        assert!(report.yes_acceptance[0].p_hat > 0.99);
        assert!(report.no_rejection[0].p_hat > 0.9);
        assert!(report.satisfies_bpld());
        assert!(report.guarantee() > 0.5);
        assert!(report.guarantee_lower_bound() > 0.5);
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
            NodeId(0),
            3,
            SeedSequence::new(0)
        ));
        // Excluding only radius 0 does not.
        assert!(!decide_randomized_far_from(
            &d,
            &io,
            &ids,
            NodeId(10),
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
