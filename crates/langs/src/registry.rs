//! The language-case registry: every language in this crate as a
//! first-class, enumerable, sweepable `(language, constructor, decider)`
//! triple.
//!
//! The derandomization argument of the paper is stated for *arbitrary*
//! languages, and after the engine/pipeline refactors every downstream
//! layer (the `rlnc-derand` pipeline, the `rlnc-sweep` workloads) is
//! generic over such triples. This module
//! closes the loop: [`CaseId`] enumerates the catalog ([`CaseId::ALL`],
//! looked up by sweep-axis index through [`CaseId::from_index`]), and
//! [`CaseId::case`] materializes a [`LanguageCase`] bundle (boxed trait
//! objects, so sweep grid points can pick a case at runtime). Every layer picks its cases and their knobs
//! this way.
//!
//! The first three cases (`coloring3`, `amos`, `weak-coloring`) are the
//! `theorem1-pipeline` scenario's case axis, preserved bit-for-bit (same
//! constructors, deciders, deterministic families, and parameters) so the
//! seed-0 sweep records of the hand-wired pipeline are reproduced exactly.
//!
//! Each case carries:
//!
//! * the [`DistributedLanguage`] under attack (plus, for LCL languages, a
//!   second handle as [`LclLanguage`], so the equivalence suites can check
//!   its one bad-ball predicate on views and on host configurations);
//! * a randomized **constructor** with positive failure probability β on
//!   the case's hard instances;
//! * a randomized **decider** with one-sided guarantee `p`;
//! * a deterministic algorithm family for the Claim-2 hard-instance search
//!   (each member fails on every connected regular candidate the scenarios
//!   generate, so the pool always fills);
//! * the quantitative knobs the pipeline runs on ([`PipelineParams`]) and
//!   the instance-input convention ([`InputKind`]).

use crate::amos::{Amos, AmosGoldenDecider, BernoulliSelection, GOLDEN_GUARANTEE};
use crate::cole_vishkin::ColeVishkinRingColoring;
use crate::coloring::ProperColoring;
use crate::dominating::MinimalDominatingSet;
use crate::faulty::FaultyConstructor;
use crate::frugal::FrugalColoring;
use crate::lll::{NeighborhoodLll, ResamplingLll};
use crate::majority::{Majority, OneSidedLocalMajorityDecider};
use crate::matching::{MaximalMatching, ProposalMatching};
use crate::mis::{LocalMinimumMis, LubyMis, MaximalIndependentSet};
use crate::random_coloring::RandomColoring;
use crate::weak_coloring::{RandomBitColoring, WeakColoring};
use rlnc_core::algorithm::{FnAlgorithm, LocalAlgorithm, RandomizedLocalAlgorithm};
use rlnc_core::decision::RandomizedDecider;
use rlnc_core::derand::PipelineParams;
use rlnc_core::labels::{Label, Labeling};
use rlnc_core::language::{DistributedLanguage, LclLanguage};
use rlnc_core::one_sided::OneSidedLclDecider;
use rlnc_core::view::View;
use rlnc_graph::generators::Family;
use rlnc_graph::{Graph, IdAssignment, NodeId};

/// The identity bound the Cole–Vishkin case is sized for (fixing the
/// iteration count, hence the constructor's radius, across all candidate
/// instances of a sweep).
pub const COLE_VISHKIN_MAX_ID: u64 = 1 << 20;

/// How candidate instances of a case obtain their input labeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Empty inputs (input-less tasks: coloring, MIS, `amos`, ...).
    Empty,
    /// Every node's input is its own identity — the naming convention the
    /// matching language resolves output claims against.
    IdentityNames,
    /// Every node's input is the identity of its index-successor on a
    /// cycle — the "common sense of direction" the oriented-ring algorithms
    /// assume (requires the cycle family).
    RingOrientation,
}

/// The named language/constructor/decider cases shipped with the crate, in
/// registry order. The first three are the `theorem1-pipeline` cases and
/// must keep their positions (sweep grids select cases by index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseId {
    /// Proper 3-coloring / zero-round random coloring / one-sided decider.
    Coloring3,
    /// `amos` / zero-round Bernoulli selector / golden-ratio decider.
    Amos,
    /// Weak 2-coloring / fair-coin coloring / one-sided decider.
    WeakColoring,
    /// Maximal independent set / one-phase Luby / one-sided decider.
    Mis,
    /// Maximal matching / one-phase proposal matching / one-sided decider.
    Matching,
    /// Minimal dominating set / Bernoulli membership / one-sided radius-2
    /// decider.
    MinDominatingSet,
    /// Neighborhood LLL / zero-round random bits / one-sided decider.
    Lll,
    /// 1-frugal 3-coloring / zero-round random coloring / one-sided decider.
    Frugal,
    /// 3-coloring of oriented rings / fault-injected Cole–Vishkin /
    /// one-sided decider (pins the cycle family).
    ColeVishkin,
    /// `majority` / Bernoulli selection / one-sided local-majority decider.
    Majority,
}

impl CaseId {
    /// All cases, in `index` order (the sweep axis enumeration).
    pub const ALL: [CaseId; 10] = [
        CaseId::Coloring3,
        CaseId::Amos,
        CaseId::WeakColoring,
        CaseId::Mis,
        CaseId::Matching,
        CaseId::MinDominatingSet,
        CaseId::Lll,
        CaseId::Frugal,
        CaseId::ColeVishkin,
        CaseId::Majority,
    ];

    /// The slug recorded in sweep records and tables.
    pub fn name(self) -> &'static str {
        match self {
            CaseId::Coloring3 => "coloring3",
            CaseId::Amos => "amos",
            CaseId::WeakColoring => "weak-coloring",
            CaseId::Mis => "mis",
            CaseId::Matching => "matching",
            CaseId::MinDominatingSet => "min-dominating-set",
            CaseId::Lll => "lll",
            CaseId::Frugal => "frugal-coloring",
            CaseId::ColeVishkin => "cole-vishkin",
            CaseId::Majority => "majority",
        }
    }

    /// Case for a grid-parameter index (`index % |ALL|`), so a sweep axis
    /// can enumerate the whole catalog.
    pub fn from_index(index: u64) -> CaseId {
        CaseId::ALL[(index % CaseId::ALL.len() as u64) as usize]
    }

    /// Materializes the case's bundle.
    pub fn case(self) -> LanguageCase {
        match self {
            CaseId::Coloring3 => LanguageCase {
                name: self.name(),
                description: "proper 3-coloring under the zero-round random coloring",
                language: Box::new(ProperColoring::new(3)),
                lcl: Some(Box::new(ProperColoring::new(3))),
                constructor: Box::new(RandomColoring::new(3)),
                decider: Box::new(OneSidedLclDecider::new(ProperColoring::new(3), 0.75)),
                det_family: constant_colorers(3),
                params: PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 },
                input: InputKind::Empty,
                pinned_family: None,
            },
            CaseId::Amos => LanguageCase {
                name: self.name(),
                description: "amos (\"at most one selected\") under the Bernoulli selector",
                language: Box::new(Amos::new()),
                lcl: None,
                constructor: Box::new(BernoulliSelection::new(0.15)),
                decider: Box::new(AmosGoldenDecider::new()),
                det_family: selection_family(),
                params: PipelineParams { r: 0.9, p: GOLDEN_GUARANTEE, t: 0, t_prime: 0 },
                input: InputKind::Empty,
                pinned_family: None,
            },
            CaseId::WeakColoring => LanguageCase {
                name: self.name(),
                description: "weak 2-coloring under the zero-round fair coin",
                language: Box::new(WeakColoring::new()),
                lcl: Some(Box::new(WeakColoring::new())),
                constructor: Box::new(RandomBitColoring),
                decider: Box::new(OneSidedLclDecider::new(WeakColoring::new(), 0.75)),
                det_family: monochrome_family(),
                params: PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 },
                input: InputKind::Empty,
                pinned_family: None,
            },
            CaseId::Mis => LanguageCase {
                name: self.name(),
                description: "maximal independent set under one-phase Luby",
                language: Box::new(MaximalIndependentSet::new()),
                lcl: Some(Box::new(MaximalIndependentSet::new())),
                constructor: Box::new(LubyMis::new(1)),
                decider: Box::new(OneSidedLclDecider::new(MaximalIndependentSet::new(), 0.75)),
                det_family: mis_family(),
                params: PipelineParams { r: 0.9, p: 0.75, t: 1, t_prime: 1 },
                input: InputKind::Empty,
                pinned_family: None,
            },
            CaseId::Matching => LanguageCase {
                name: self.name(),
                description: "maximal matching under one-phase random proposals",
                language: Box::new(MaximalMatching::new()),
                lcl: Some(Box::new(MaximalMatching::new())),
                constructor: Box::new(ProposalMatching::new()),
                decider: Box::new(OneSidedLclDecider::new(MaximalMatching::new(), 0.75)),
                det_family: matching_family(),
                params: PipelineParams { r: 0.9, p: 0.75, t: 2, t_prime: 1 },
                input: InputKind::IdentityNames,
                pinned_family: None,
            },
            CaseId::MinDominatingSet => LanguageCase {
                name: self.name(),
                description: "minimal dominating set under Bernoulli membership",
                language: Box::new(MinimalDominatingSet::new()),
                lcl: Some(Box::new(MinimalDominatingSet::new())),
                constructor: Box::new(BernoulliSelection::new(0.5)),
                decider: Box::new(OneSidedLclDecider::new(MinimalDominatingSet::new(), 0.75)),
                det_family: dominating_family(),
                params: PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 2 },
                input: InputKind::Empty,
                pinned_family: None,
            },
            CaseId::Lll => LanguageCase {
                name: self.name(),
                description: "neighborhood LLL under zero-round random bits",
                language: Box::new(NeighborhoodLll::new()),
                lcl: Some(Box::new(NeighborhoodLll::new())),
                constructor: Box::new(ResamplingLll::new(0)),
                decider: Box::new(OneSidedLclDecider::new(NeighborhoodLll::new(), 0.75)),
                det_family: monochrome_family(),
                params: PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 },
                input: InputKind::Empty,
                pinned_family: None,
            },
            CaseId::Frugal => LanguageCase {
                name: self.name(),
                description: "1-frugal proper 3-coloring under the zero-round random coloring",
                language: Box::new(FrugalColoring::new(3, 1)),
                lcl: Some(Box::new(FrugalColoring::new(3, 1))),
                constructor: Box::new(RandomColoring::new(3)),
                decider: Box::new(OneSidedLclDecider::new(FrugalColoring::new(3, 1), 0.75)),
                det_family: constant_colorers(3),
                params: PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 },
                input: InputKind::Empty,
                pinned_family: None,
            },
            CaseId::ColeVishkin => {
                let cv = ColeVishkinRingColoring::for_max_id(COLE_VISHKIN_MAX_ID);
                let t = cv.rounds();
                LanguageCase {
                    name: self.name(),
                    description: "3-coloring of oriented rings under fault-injected Cole–Vishkin",
                    language: Box::new(ProperColoring::new(3)),
                    lcl: Some(Box::new(ProperColoring::new(3))),
                    constructor: Box::new(FaultyConstructor::new(cv, 0.08, Label::from_u64(0))),
                    decider: Box::new(OneSidedLclDecider::new(ProperColoring::new(3), 0.75)),
                    det_family: constant_colorers(3),
                    params: PipelineParams { r: 0.9, p: 0.75, t, t_prime: 1 },
                    input: InputKind::RingOrientation,
                    pinned_family: Some(Family::Cycle),
                }
            }
            CaseId::Majority => LanguageCase {
                name: self.name(),
                description: "majority under fair Bernoulli selection",
                language: Box::new(Majority::new()),
                lcl: None,
                constructor: Box::new(BernoulliSelection::new(0.5)),
                decider: Box::new(OneSidedLocalMajorityDecider::new(1, 0.75)),
                det_family: majority_family(),
                params: PipelineParams { r: 0.9, p: 0.75, t: 0, t_prime: 1 },
                input: InputKind::Empty,
                pinned_family: None,
            },
        }
    }
}

/// One language / constructor / decider triple plus the deterministic
/// algorithm family the Claim-2 search runs against. Deliberately boxed:
/// sweep grid points pick a case at runtime, so every downstream consumer
/// drives the bundle through trait objects.
pub struct LanguageCase {
    /// The case's slug (also its [`CaseId::name`]).
    pub name: &'static str,
    /// One-line human-readable description.
    pub description: &'static str,
    /// The distributed language under attack.
    pub language: Box<dyn DistributedLanguage>,
    /// The same language as an [`LclLanguage`] handle when it is locally
    /// checkable: the equivalence suites reach its bad-ball predicate here,
    /// on decision views through `rlnc_core::language::is_bad_view` and on
    /// host configurations. `None` for the global languages (`amos`,
    /// `majority`).
    pub lcl: Option<Box<dyn LclLanguage>>,
    /// The randomized constructor whose failure probability β the pipeline
    /// measures and boosts.
    pub constructor: Box<dyn RandomizedLocalAlgorithm>,
    /// The randomized decider with one-sided guarantee `p`.
    pub decider: Box<dyn RandomizedDecider>,
    /// Deterministic algorithms for the hard-instance search — each fails
    /// on every connected regular candidate the scenarios generate, so the
    /// pool always fills.
    pub det_family: Vec<Box<dyn LocalAlgorithm>>,
    /// The case's quantitative knobs (`r`, `p`, radii).
    pub params: PipelineParams,
    /// The input convention of the case's candidate instances.
    pub input: InputKind,
    /// When `Some`, candidate instances must come from this family no
    /// matter what the sweep axis requests (the oriented-ring case).
    pub pinned_family: Option<Family>,
}

impl LanguageCase {
    /// The decider's checking radius `t'`.
    pub fn checking_radius(&self) -> u32 {
        self.params.t_prime
    }

    /// The constructor's radius `t`.
    pub fn constructor_radius(&self) -> u32 {
        self.params.t
    }

    /// The graph family candidate instances are generated from: the
    /// requested sweep family, unless the case pins one.
    pub fn candidate_family(&self, requested: Family) -> Family {
        self.pinned_family.unwrap_or(requested)
    }

    /// Builds the input labeling of a candidate instance per the case's
    /// [`InputKind`].
    ///
    /// # Panics
    /// Panics if the identity assignment does not cover the graph.
    pub fn build_input(&self, graph: &Graph, ids: &IdAssignment) -> Labeling {
        assert_eq!(graph.node_count(), ids.len(), "identity assignment size mismatch");
        match self.input {
            InputKind::Empty => Labeling::empty(graph.node_count()),
            InputKind::IdentityNames => crate::matching::identity_inputs(graph, ids),
            InputKind::RingOrientation => {
                let n = graph.node_count();
                Labeling::from_fn(graph, |v| {
                    let successor = NodeId(((v.index() + 1) % n) as u32);
                    Label::from_u64(ids.id(successor))
                })
            }
        }
    }
}

/// Constant colorings `1..=colors` — each fails on any graph with an edge.
fn constant_colorers(colors: u64) -> Vec<Box<dyn LocalAlgorithm>> {
    (1..=colors)
        .map(|c| {
            Box::new(FnAlgorithm::new(1, format!("always-{c}"), move |_: &View| {
                Label::from_u64(c)
            })) as Box<dyn LocalAlgorithm>
        })
        .collect()
}

/// Selection rules that each select at least two nodes on every candidate
/// with at least four nodes (violating `amos`).
fn selection_family() -> Vec<Box<dyn LocalAlgorithm>> {
    vec![
        Box::new(FnAlgorithm::new(0, "select-all", |_: &View| Label::from_bool(true))),
        Box::new(FnAlgorithm::new(0, "select-odd-ids", |v: &View| {
            Label::from_bool(v.center_id() % 2 == 1)
        })),
        Box::new(FnAlgorithm::new(0, "select-even-ids", |v: &View| {
            Label::from_bool(v.center_id() % 2 == 0)
        })),
    ]
}

/// Monochrome colorings — on a connected graph every non-isolated node ends
/// up with an all-same-color neighborhood, so weak 2-coloring (and the
/// neighborhood LLL) fails.
fn monochrome_family() -> Vec<Box<dyn LocalAlgorithm>> {
    vec![
        Box::new(FnAlgorithm::new(1, "all-zero", |_: &View| Label::from_bool(false))),
        Box::new(FnAlgorithm::new(1, "all-one", |_: &View| Label::from_bool(true))),
        Box::new(FnAlgorithm::new(1, "degree-parity", |v: &View| {
            Label::from_bool(v.center_degree() % 2 == 1)
        })),
    ]
}

/// MIS rules that fail on every connected consecutive-identity candidate:
/// `all-in` violates independence across any edge, `all-out` violates
/// maximality everywhere, and the local-minimum rule selects only the
/// global identity minimum (so distant nodes go uncovered).
fn mis_family() -> Vec<Box<dyn LocalAlgorithm>> {
    vec![
        Box::new(FnAlgorithm::new(1, "all-in", |_: &View| Label::from_bool(true))),
        Box::new(FnAlgorithm::new(1, "all-out", |_: &View| Label::from_bool(false))),
        Box::new(LocalMinimumMis),
    ]
}

/// Matching rules that fail on every connected candidate: claiming nobody
/// violates maximality across any edge, and claiming the smallest-name
/// neighbor is non-reciprocal somewhere on any cycle-like structure.
fn matching_family() -> Vec<Box<dyn LocalAlgorithm>> {
    vec![
        Box::new(FnAlgorithm::new(1, "claim-nothing", |_: &View| Label::from_u64(0))),
        Box::new(FnAlgorithm::new(1, "claim-min-name-neighbor", |v: &View| {
            let min = v
                .center_neighbors()
                .map(|i| v.input(i).as_u64())
                .min()
                .unwrap_or(0);
            Label::from_u64(min)
        })),
    ]
}

/// Dominating-set rules that fail on every regular candidate: everyone in
/// the set violates minimality (no member has a private node once every
/// node has two dominators), nobody violates domination.
fn dominating_family() -> Vec<Box<dyn LocalAlgorithm>> {
    vec![
        Box::new(FnAlgorithm::new(1, "all-in", |_: &View| Label::from_bool(true))),
        Box::new(FnAlgorithm::new(1, "select-none", |_: &View| Label::from_bool(false))),
    ]
}

/// Majority rules that fail on every candidate: selecting nobody, and
/// selecting only local identity minima (one node under consecutive
/// identities — never a strict majority for n ≥ 3).
fn majority_family() -> Vec<Box<dyn LocalAlgorithm>> {
    vec![
        Box::new(FnAlgorithm::new(0, "select-none", |_: &View| Label::from_bool(false))),
        Box::new(LocalMinimumMis),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::config::{Instance, IoConfig};
    use rlnc_core::Simulator;
    use rlnc_par::SeedSequence;

    #[test]
    fn registry_enumerates_unique_cases_with_legacy_prefix() {
        let names: std::collections::HashSet<&str> = CaseId::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), CaseId::ALL.len(), "duplicate case names");
        // The theorem1-pipeline cases keep their grid indices.
        assert_eq!(CaseId::from_index(0), CaseId::Coloring3);
        assert_eq!(CaseId::from_index(1), CaseId::Amos);
        assert_eq!(CaseId::from_index(2), CaseId::WeakColoring);
        assert_eq!(CaseId::from_index(10), CaseId::Coloring3);
        for (i, id) in CaseId::ALL.into_iter().enumerate() {
            assert_eq!(CaseId::from_index(i as u64), id);
        }
    }

    #[test]
    fn case_metadata_is_consistent() {
        for id in CaseId::ALL {
            let case = id.case();
            assert_eq!(case.name, id.name());
            assert!(!case.description.is_empty());
            assert!(!case.det_family.is_empty(), "{}: empty det family", case.name);
            assert_eq!(
                case.constructor.radius(),
                case.constructor_radius(),
                "{}: constructor radius must match params.t",
                case.name
            );
            assert_eq!(
                case.decider.radius(),
                case.checking_radius(),
                "{}: decider radius must match params.t'",
                case.name
            );
            if let Some(lcl) = &case.lcl {
                assert_eq!(
                    lcl.radius(),
                    case.checking_radius(),
                    "{}: LCL radius must match the decider's",
                    case.name
                );
                assert_eq!(
                    LclLanguage::name(&**lcl),
                    case.language.name(),
                    "{}: the lcl handle must be the same language",
                    case.name
                );
            }
            assert!(case.params.p > 0.5 && case.params.p <= 1.0);
            assert!(case.params.r > 0.0 && case.params.r <= 1.0);
        }
    }

    #[test]
    fn every_det_family_member_fails_on_a_candidate() {
        // The Claim-2 search needs one failing instance per deterministic
        // algorithm; check the first candidate size that scenarios use.
        for id in CaseId::ALL {
            let case = id.case();
            let family = case.candidate_family(Family::Cycle);
            let mut rng = SeedSequence::new(1).rng();
            let graph = family.generate(14, &mut rng);
            let ids = IdAssignment::consecutive(&graph);
            let input = case.build_input(&graph, &ids);
            let inst = Instance::new(&graph, &input, &ids);
            for algo in &case.det_family {
                let out = Simulator::new().run(&**algo, &inst);
                let io = IoConfig::new(&graph, &input, &out);
                assert!(
                    !case.language.contains(&io),
                    "{}: algorithm '{}' does not fail on a 14-node {} candidate",
                    case.name,
                    algo.name(),
                    family.name()
                );
            }
        }
    }

    #[test]
    fn constructors_have_positive_failure_probability() {
        for id in CaseId::ALL {
            let case = id.case();
            let family = case.candidate_family(Family::Cycle);
            let mut rng = SeedSequence::new(2).rng();
            let graph = family.generate(12, &mut rng);
            let ids = IdAssignment::consecutive(&graph);
            let input = case.build_input(&graph, &ids);
            let inst = Instance::new(&graph, &input, &ids);
            let mut failures = 0u32;
            for trial in 0..40u64 {
                let out = Simulator::new().run_randomized(
                    &*case.constructor,
                    &inst,
                    SeedSequence::new(7).child(trial),
                );
                if !case.language.contains(&IoConfig::new(&graph, &input, &out)) {
                    failures += 1;
                }
            }
            assert!(failures > 0, "{}: constructor never fails (β = 0)", case.name);
        }
    }

    #[test]
    fn input_kinds_build_the_expected_labelings() {
        let graph = rlnc_graph::generators::cycle(6);
        let ids = IdAssignment::consecutive(&graph);
        let empty = CaseId::Coloring3.case().build_input(&graph, &ids);
        assert!(empty.as_slice().iter().all(Label::is_empty));
        let names = CaseId::Matching.case().build_input(&graph, &ids);
        for v in graph.nodes() {
            assert_eq!(names.get(v).as_u64(), ids.id(v));
        }
        let oriented = CaseId::ColeVishkin.case().build_input(&graph, &ids);
        for v in graph.nodes() {
            let successor = NodeId(((v.index() + 1) % 6) as u32);
            assert_eq!(oriented.get(v).as_u64(), ids.id(successor));
        }
        // The oriented-ring case pins the cycle family.
        assert_eq!(
            CaseId::ColeVishkin.case().candidate_family(Family::Prism),
            Family::Cycle
        );
        assert_eq!(
            CaseId::Coloring3.case().candidate_family(Family::Prism),
            Family::Prism
        );
    }
}
