//! Distributed languages and the LCL subclass (§2.2 and §4 of the paper).
//!
//! A **distributed language** `L` is a family of input-output
//! configurations `(G, (x, y))`. A language defines a *construction task*
//! (given `(G, x, id)`, produce `y` with `(G,(x,y)) ∈ L`) and a *decision
//! task* (given `(G,(x,y), id)`, accept at every node iff `(G,(x,y)) ∈ L`).
//!
//! The class **LCL** (§4, after [Naor–Stockmeyer]) consists of the languages
//! defined by excluding a finite collection `Bad(L)` of balls of some
//! constant radius `t`: a configuration is in `L` iff *no* node's radius-`t`
//! ball (with inputs and outputs) is bad. The `f`-resilient relaxation of
//! Definition 1 — "at most `f` bad balls" — and the ε-slack relaxation are
//! built on top of this trait in [`crate::relaxation`].

use crate::config::IoConfig;
use crate::view::View;
use rlnc_graph::NodeId;

/// A distributed language: a predicate on input-output configurations.
///
/// Membership never depends on node identities (the paper's languages are
/// identity-free by definition).
pub trait DistributedLanguage: Sync {
    /// Returns `true` if the configuration belongs to the language.
    fn contains(&self, io: &IoConfig<'_>) -> bool;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>().rsplit("::").next().unwrap_or("language").to_string()
    }
}

/// A locally checkable labelling (LCL) language: membership is the absence
/// of "bad balls" of constant radius.
pub trait LclLanguage: Sync {
    /// The checking radius `t` (the maximum radius of the excluded balls).
    fn radius(&self) -> u32;

    /// Returns `true` if the radius-`t` ball centered at `v` (with its
    /// inputs and outputs) belongs to `Bad(L)`.
    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>().rsplit("::").next().unwrap_or("lcl").to_string()
    }
}

/// The verdict of an LCL language on a decision view: the language's own
/// [`LclLanguage::is_bad_ball`] at the center (local node 0) of the view's
/// ball configuration ([`View::config`]), which borrows the view's labels
/// without a copy. A predicate of radius `t` at the center of a view of
/// radius at least `t` reads only data inside the view, so this equals the
/// predicate at the center in the host configuration. The generic deciders
/// ([`crate::resilient::ResilientDecider`],
/// [`crate::one_sided::OneSidedLclDecider`]) verdict through it, so a
/// language states its bad balls once.
///
/// # Panics
/// Panics if the view carries no outputs (a construction view).
#[inline]
pub fn is_bad_view<L: LclLanguage + ?Sized>(language: &L, view: &View) -> bool {
    language.is_bad_ball(&view.config(), NodeId(0))
}

/// Every LCL language is a distributed language: membership is "no bad
/// ball anywhere".
impl<L: LclLanguage> DistributedLanguage for L {
    fn contains(&self, io: &IoConfig<'_>) -> bool {
        io.graph.nodes().all(|v| !self.is_bad_ball(io, v))
    }

    fn name(&self) -> String {
        LclLanguage::name(self)
    }
}

/// The nodes whose balls are bad — the set `F(G)` from the proof of
/// Corollary 1.
pub fn bad_nodes<L: LclLanguage + ?Sized>(language: &L, io: &IoConfig<'_>) -> Vec<NodeId> {
    io.graph
        .nodes()
        .filter(|&v| language.is_bad_ball(io, v))
        .collect()
}

/// Number of bad balls `|F(G)|` in the configuration.
pub fn bad_ball_count<L: LclLanguage + ?Sized>(language: &L, io: &IoConfig<'_>) -> usize {
    io.graph
        .nodes()
        .filter(|&v| language.is_bad_ball(io, v))
        .count()
}

/// A language defined by a closure over whole configurations (used for
/// global, non-local languages such as `majority` or `amos`).
pub struct FnLanguage<F> {
    name: String,
    predicate: F,
}

impl<F: Fn(&IoConfig<'_>) -> bool + Sync> FnLanguage<F> {
    /// Wraps a closure as a distributed language.
    pub fn new(name: impl Into<String>, predicate: F) -> Self {
        FnLanguage {
            name: name.into(),
            predicate,
        }
    }
}

impl<F: Fn(&IoConfig<'_>) -> bool + Sync> DistributedLanguage for FnLanguage<F> {
    fn contains(&self, io: &IoConfig<'_>) -> bool {
        (self.predicate)(io)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// An LCL language defined by a closure on (configuration, center) pairs.
pub struct FnLcl<F> {
    name: String,
    radius: u32,
    bad: F,
}

impl<F: Fn(&IoConfig<'_>, NodeId) -> bool + Sync> FnLcl<F> {
    /// Wraps a closure as an LCL language of the given checking radius.
    pub fn new(name: impl Into<String>, radius: u32, bad: F) -> Self {
        FnLcl {
            name: name.into(),
            radius,
            bad,
        }
    }
}

impl<F: Fn(&IoConfig<'_>, NodeId) -> bool + Sync> LclLanguage for FnLcl<F> {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        (self.bad)(io, v)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, Labeling};
    use rlnc_graph::generators::cycle;

    /// Toy LCL: a ball is bad when the center outputs the same value as
    /// some neighbor (i.e. proper coloring with radius 1).
    fn conflict_lcl() -> FnLcl<impl Fn(&IoConfig<'_>, NodeId) -> bool + Sync> {
        FnLcl::new("conflict", 1, |io: &IoConfig<'_>, v: NodeId| {
            io.graph
                .neighbor_ids(v)
                .any(|w| io.output.get(w) == io.output.get(v))
        })
    }

    #[test]
    fn lcl_membership_is_no_bad_ball() {
        let g = cycle(6);
        let x = Labeling::empty(6);
        let proper = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        let lang = conflict_lcl();
        let io = IoConfig::new(&g, &x, &proper);
        assert!(lang.contains(&io));
        assert_eq!(bad_ball_count(&lang, &io), 0);

        let mut broken = proper.clone();
        broken.set(NodeId(0), Label::from_u64(1)); // same as both neighbors of 0? neighbor 1 has 1.
        let io_bad = IoConfig::new(&g, &x, &broken);
        assert!(!lang.contains(&io_bad));
        let bad = bad_nodes(&lang, &io_bad);
        assert!(bad.contains(&NodeId(0)));
        assert!(bad.contains(&NodeId(1)));
        assert!(bad.contains(&NodeId(5)));
        assert_eq!(bad_ball_count(&lang, &io_bad), 3);
    }

    #[test]
    fn fn_language_wraps_global_predicates() {
        let g = cycle(5);
        let x = Labeling::empty(5);
        let y = Labeling::from_fn(&g, |v| Label::from_bool(v.0 == 2));
        let at_most_one = FnLanguage::new("amos-like", |io: &IoConfig<'_>| {
            io.graph.nodes().filter(|&v| io.output.get(v).as_bool()).count() <= 1
        });
        let io = IoConfig::new(&g, &x, &y);
        assert!(at_most_one.contains(&io));
        assert_eq!(at_most_one.name(), "amos-like");
        let y2 = Labeling::from_fn(&g, |_| Label::from_bool(true));
        let io2 = IoConfig::new(&g, &x, &y2);
        assert!(!at_most_one.contains(&io2));
    }

    #[test]
    fn is_bad_view_matches_is_bad_ball() {
        use crate::view::View;
        use rlnc_graph::IdAssignment;
        let g = cycle(8);
        let x = Labeling::empty(8);
        let mut y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2)));
        y.set(NodeId(3), Label::from_u64(0)); // conflicts with 2 and 4
        let ids = IdAssignment::consecutive(&g);
        let io = IoConfig::new(&g, &x, &y);
        let lang = conflict_lcl();
        for v in g.nodes() {
            // At the language radius and one beyond, the predicate on the
            // view's ball agrees with the full-configuration predicate.
            for radius in [1u32, 2] {
                let view = View::collect_io(&io, &ids, v, radius);
                assert_eq!(is_bad_view(&lang, &view), lang.is_bad_ball(&io, v));
            }
        }
    }

    #[test]
    fn lcl_names_and_radius() {
        let lang = conflict_lcl();
        assert_eq!(LclLanguage::name(&lang), "conflict");
        assert_eq!(DistributedLanguage::name(&lang), "conflict");
        assert_eq!(lang.radius(), 1);
    }
}
