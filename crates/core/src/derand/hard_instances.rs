//! Hard-instance search (Claim 2).
//!
//! Claim 2 states: if no `t`-round deterministic algorithm solves `L`, then
//! there is a `β > 0` (namely `1/N`, `N` the number of order-invariant
//! `t`-round algorithms) such that for all `D_min` and `I_min` there is an
//! instance of diameter at least `D_min`, with all identities at least
//! `I_min`, on which the randomized constructor fails with probability at
//! least `β`.
//!
//! The constructive ingredient is: *for every (order-invariant) algorithm,
//! pick an instance on which it fails*. This module implements that search
//! over candidate instance generators: it runs an algorithm on candidates,
//! checks the output against the language, and returns failing instances
//! satisfying the diameter / minimum-identity side conditions. It also
//! estimates the empirical failure probability β of a *randomized*
//! constructor on an instance.
//!
//! [`HardInstance::compose`] is the one builder of the composites that
//! the later claims run on: Claim 3's disjoint union and Theorem 1's
//! connected gluing.

use crate::algorithm::{LocalAlgorithm, RandomizedLocalAlgorithm};
use crate::config::{Instance, IoConfig};
use crate::labels::{Label, Labeling};
use crate::language::DistributedLanguage;
use crate::simulator::Simulator;
use rlnc_graph::traversal::diameter_double_sweep;
use rlnc_graph::{Graph, GraphBuilder, IdAssignment, NodeId};
use rlnc_par::stats::Estimate;

/// An owned instance: graph + input + identities, self-contained so hard
/// instances can be collected, lifted above an identity floor, and later
/// composed.
#[derive(Debug, Clone)]
pub struct HardInstance {
    /// The network.
    pub graph: Graph,
    /// The input labeling.
    pub input: Labeling,
    /// The identity assignment.
    pub ids: IdAssignment,
}

impl HardInstance {
    /// Creates an owned instance.
    pub fn new(graph: Graph, input: Labeling, ids: IdAssignment) -> Self {
        assert_eq!(graph.node_count(), input.len());
        assert_eq!(graph.node_count(), ids.len());
        HardInstance { graph, input, ids }
    }

    /// Borrows the instance in the form the simulator consumes.
    pub fn as_instance(&self) -> Instance<'_> {
        Instance::new(&self.graph, &self.input, &self.ids)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// A lower bound on the diameter (double-sweep BFS).
    pub fn diameter_lower_bound(&self) -> u32 {
        diameter_double_sweep(&self.graph, NodeId(0))
    }

    /// Minimum identity present in the instance.
    pub fn min_id(&self) -> u64 {
        self.ids.min_id()
    }

    /// Maximum identity present in the instance.
    pub fn max_id(&self) -> u64 {
        self.ids.max_id()
    }

    /// The same instance with its identities at or above `floor`
    /// ([`IdAssignment::at_or_above`]; order type preserved).
    pub fn at_or_above(self, floor: u64) -> HardInstance {
        HardInstance {
            ids: self.ids.at_or_above(floor),
            ..self
        }
    }

    /// Places `parts` side by side in one instance, in one pass per part
    /// that writes its edges, its inputs and its identities. Part `i`'s
    /// nodes follow those of parts `0..i`, and its identities move
    /// [`at_or_above`](IdAssignment::at_or_above) one more than the largest
    /// identity before it, so the ranges are pairwise disjoint.
    ///
    /// With no `anchors` the result is Claim 3's disjoint union. With one
    /// anchor per part it is Theorem 1's connected gluing: in part `i` the
    /// edge from the anchor to its first neighbor becomes the path anchor –
    /// `v_i` – `w_i` – neighbor, the inserted nodes follow every part in the
    /// order `v_1, w_1, …, v_ν, w_ν`, and `v_i` is joined to `w_{i+1}`
    /// cyclically. Inserted nodes get fresh identities above every part's
    /// and empty inputs ("set arbitrarily", §3).
    ///
    /// # Panics
    /// Panics if anchors are given but not one per part, if fewer than two
    /// parts are glued, or if an anchor is isolated.
    pub fn compose(parts: &[&HardInstance], anchors: &[NodeId]) -> HardInstance {
        if !anchors.is_empty() {
            assert!(parts.len() >= 2, "gluing needs at least two instances");
            assert_eq!(parts.len(), anchors.len(), "one anchor per part required");
        }
        let originals: usize = parts.iter().map(|h| h.node_count()).sum();
        let total = originals + 2 * anchors.len();
        let mut builder = GraphBuilder::new(total);
        let mut input = Vec::with_capacity(total);
        let mut ids = Vec::with_capacity(total);
        let (mut base, mut floor) = (0usize, 0u64);
        for (i, part) in parts.iter().enumerate() {
            let cut = anchors.get(i).map(|&anchor| {
                assert!(
                    part.graph.degree(anchor) >= 1,
                    "anchor {anchor} must have an incident edge to subdivide"
                );
                (anchor, NodeId(part.graph.neighbors(anchor)[0]))
            });
            for (u, v) in part.graph.edges() {
                if cut != Some((u, v)) && cut != Some((v, u)) {
                    builder.add_edge(base + u.index(), base + v.index());
                }
            }
            if let Some((anchor, neighbor)) = cut {
                let v_i = originals + 2 * i;
                builder.add_edge(base + anchor.index(), v_i);
                builder.add_edge(v_i, v_i + 1);
                builder.add_edge(v_i + 1, base + neighbor.index());
            }
            input.extend_from_slice(part.input.as_slice());
            let part_ids = part.ids.at_or_above(floor + 1);
            floor = floor.max(part_ids.max_id());
            ids.extend_from_slice(part_ids.as_slice());
            base += part.node_count();
        }
        for i in 0..anchors.len() {
            let next = (i + 1) % anchors.len();
            builder.add_edge(originals + 2 * i, originals + 2 * next + 1);
        }
        input.resize(total, Label::empty());
        ids.extend(floor + 1..=floor + 2 * anchors.len() as u64);
        HardInstance::new(builder.build(), Labeling::new(input), IdAssignment::new(ids))
    }
}

/// Searches candidate instances for ones on which algorithms fail.
pub struct HardInstanceSearch<'l, L: ?Sized> {
    language: &'l L,
    min_diameter: u32,
    min_id: u64,
}

impl<'l, L: DistributedLanguage + ?Sized> HardInstanceSearch<'l, L> {
    /// Creates a search for failures against `language`.
    pub fn new(language: &'l L) -> Self {
        HardInstanceSearch {
            language,
            min_diameter: 0,
            min_id: 1,
        }
    }

    /// Requires found instances to have diameter at least `d` (the `D_min`
    /// of Claim 2).
    pub fn with_min_diameter(mut self, d: u32) -> Self {
        self.min_diameter = d;
        self
    }

    /// Requires found instances to use identities at least `i` (the `I_min`
    /// of Claim 2).
    pub fn with_min_id(mut self, i: u64) -> Self {
        self.min_id = i.max(1);
        self
    }

    /// Returns `true` if a deterministic algorithm fails on the instance
    /// (its output configuration is not in the language).
    pub fn fails_on<A: LocalAlgorithm + ?Sized>(&self, algo: &A, instance: &HardInstance) -> bool {
        let inst = instance.as_instance();
        let output = Simulator::new().run(algo, &inst);
        let io = IoConfig::from_instance(&inst, &output);
        !self.language.contains(&io)
    }

    /// Finds, among the candidates, the first instance satisfying the
    /// diameter and identity constraints on which `algo` fails.
    ///
    /// Candidates violating only the identity constraint are transparently
    /// fixed by shifting their identities upward (allowed by
    /// order-invariance, as in the proof of Claim 2).
    pub fn find_failure<A: LocalAlgorithm + ?Sized>(
        &self,
        algo: &A,
        candidates: impl IntoIterator<Item = HardInstance>,
    ) -> Option<HardInstance> {
        for candidate in candidates {
            let candidate = candidate.at_or_above(self.min_id);
            if candidate.diameter_lower_bound() < self.min_diameter {
                continue;
            }
            if self.fails_on(algo, &candidate) {
                return Some(candidate);
            }
        }
        None
    }

    /// Builds the set `H` of Claim 2: one failing instance per algorithm in
    /// the provided family, with identity ranges made pairwise disjoint so
    /// the instances can later be combined. Algorithms for which no failing
    /// candidate is found are reported in the second component.
    pub fn hard_instance_family<'a, A: LocalAlgorithm + ?Sized + 'a>(
        &self,
        algorithms: impl IntoIterator<Item = &'a A>,
        candidates: &[HardInstance],
    ) -> (Vec<HardInstance>, usize) {
        let mut found = Vec::new();
        let mut missing = 0usize;
        let mut next_floor = self.min_id;
        for algo in algorithms {
            let search = HardInstanceSearch {
                language: self.language,
                min_diameter: self.min_diameter,
                min_id: next_floor,
            };
            match search.find_failure(algo, candidates.iter().cloned()) {
                Some(instance) => {
                    next_floor = instance.max_id() + 1;
                    found.push(instance);
                }
                None => missing += 1,
            }
        }
        (found, missing)
    }

    /// Estimates the failure probability β of a randomized constructor on a
    /// fixed instance: `Pr[C(H, x, id) ∉ L]`.
    pub fn failure_probability<C: RandomizedLocalAlgorithm + ?Sized>(
        &self,
        constructor: &C,
        instance: &HardInstance,
        trials: u64,
        seed: u64,
    ) -> Estimate {
        let inst = instance.as_instance();
        let success =
            Simulator::new().construction_success(constructor, &inst, self.language, trials, seed);
        // Failure = 1 - success; rebuild the estimate from the complement counts.
        Estimate::from_counts(success.trials - success.successes, success.trials)
    }
}

/// Convenience: candidate instances that are consecutive-identity cycles of
/// the given sizes with empty inputs — the family used for the coloring
/// lower bounds of §4.
pub fn consecutive_cycle_candidates(sizes: impl IntoIterator<Item = usize>) -> Vec<HardInstance> {
    sizes
        .into_iter()
        .map(|n| {
            let graph = rlnc_graph::generators::cycle(n);
            let input = Labeling::empty(n);
            let ids = IdAssignment::consecutive(&graph);
            HardInstance::new(graph, input, ids)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnAlgorithm;
    use crate::labels::Label;
    use crate::language::FnLcl;
    use crate::view::View;
    use rlnc_graph::NodeId;

    fn proper_coloring() -> FnLcl<impl Fn(&IoConfig<'_>, NodeId) -> bool + Sync> {
        FnLcl::new("proper-coloring", 1, |io: &IoConfig<'_>, v: NodeId| {
            io.graph
                .neighbor_ids(v)
                .any(|w| io.output.get(w) == io.output.get(v))
        })
    }

    #[test]
    fn constant_algorithm_fails_on_every_cycle() {
        let lang = proper_coloring();
        let search = HardInstanceSearch::new(&lang).with_min_diameter(4).with_min_id(100);
        let constant = FnAlgorithm::new(0, "always-1", |_: &View| Label::from_u64(1));
        let candidates = consecutive_cycle_candidates([8, 12, 16, 24]);
        let hard = search.find_failure(&constant, candidates).expect("must find a failure");
        assert!(hard.diameter_lower_bound() >= 4);
        assert!(hard.min_id() >= 100);
        assert!(search.fails_on(&constant, &hard));
    }

    #[test]
    fn id_parity_coloring_succeeds_on_even_cycles_only() {
        // Color = id parity: proper on even consecutive-ID cycles, improper
        // on odd cycles (the seam). The search must pick an odd cycle.
        let lang = proper_coloring();
        let search = HardInstanceSearch::new(&lang);
        let parity = FnAlgorithm::new(0, "id-parity", |view: &View| {
            Label::from_u64(view.center_id() % 2)
        });
        let even_only = consecutive_cycle_candidates([8, 10, 12]);
        assert!(search.find_failure(&parity, even_only).is_none());
        let with_odd = consecutive_cycle_candidates([8, 9, 12]);
        let hard = search.find_failure(&parity, with_odd).expect("odd cycle is hard");
        assert_eq!(hard.node_count(), 9);
    }

    #[test]
    fn hard_instance_family_uses_disjoint_id_ranges() {
        let lang = proper_coloring();
        let search = HardInstanceSearch::new(&lang).with_min_id(1);
        let a1 = FnAlgorithm::new(0, "always-1", |_: &View| Label::from_u64(1));
        let a2 = FnAlgorithm::new(0, "always-2", |_: &View| Label::from_u64(2));
        let a3 = FnAlgorithm::new(0, "always-3", |_: &View| Label::from_u64(3));
        let algos: Vec<&dyn LocalAlgorithm> = vec![&a1, &a2, &a3];
        let candidates = consecutive_cycle_candidates([6, 8]);
        let (family, missing) = search.hard_instance_family(algos, &candidates);
        assert_eq!(missing, 0);
        assert_eq!(family.len(), 3);
        for pair in family.windows(2) {
            assert!(pair[1].min_id() > pair[0].max_id(), "identity ranges must be disjoint");
        }
    }

    #[test]
    fn failure_probability_of_random_coloring_matches_theory() {
        // Uniform random 3-coloring of C_4: failure probability =
        // 1 - (#proper 3-colorings of C_4)/3^4 = 1 - 18/81 = 7/9.
        use crate::algorithm::{Coins, FnRandomizedAlgorithm};
        use rand::Rng;
        let lang = proper_coloring();
        let search = HardInstanceSearch::new(&lang);
        let constructor = FnRandomizedAlgorithm::new(0, "random-3-coloring", |v: &View, c: &Coins| {
            Label::from_u64(c.for_center(v).random_range(0..3))
        });
        let instance = consecutive_cycle_candidates([4]).remove(0);
        let beta = search.failure_probability(&constructor, &instance, 8000, 5);
        assert!(
            (beta.p_hat - 7.0 / 9.0).abs() < 0.02,
            "beta {} should be near 7/9",
            beta.p_hat
        );
    }

    #[test]
    fn shifted_ids_preserve_structure() {
        let instance = consecutive_cycle_candidates([6]).remove(0);
        let shifted = instance.clone().at_or_above(51);
        assert_eq!(shifted.min_id(), 51);
        assert_eq!(shifted.max_id(), 56);
        assert_eq!(shifted.node_count(), 6);
        assert_eq!(shifted.graph, instance.graph);
    }

    /// A cycle with consecutive identities and empty inputs.
    fn ring(n: usize) -> HardInstance {
        consecutive_cycle_candidates([n]).remove(0)
    }

    #[test]
    fn compose_without_anchors_is_the_disjoint_union() {
        let path = rlnc_graph::generators::path(4);
        let marked = Labeling::from_fn(&path, |v| Label::from_u64(u64::from(v.0) + 7));
        // Identities 201..=204 already sit above the first part's range.
        let high = IdAssignment::consecutive(&path).at_or_above(201);
        let parts = [ring(5), HardInstance::new(path, marked.clone(), high), ring(3)];
        let union = HardInstance::compose(&[&parts[0], &parts[1], &parts[2]], &[]);
        assert_eq!(union.node_count(), 5 + 4 + 3);
        assert_eq!(union.graph.edge_count(), 5 + 3 + 3);
        assert_eq!(rlnc_graph::connected_components(&union.graph).iter().max(), Some(&2));
        // Part `i`'s node `v` is union node `offset_i + v`.
        for (u, v) in parts[1].graph.edges() {
            assert!(union.graph.has_edge(NodeId(u.0 + 5), NodeId(v.0 + 5)));
        }
        assert_eq!(&union.input.as_slice()[5..9], marked.as_slice());
        assert!(union.input.as_slice()[9..].iter().all(Label::is_empty));
        // Each part moves just above the previous part's largest identity.
        let expected: Vec<u64> = (1..=5).chain(201..=204).chain(205..=207).collect();
        assert_eq!(union.ids.as_slice(), expected.as_slice());
    }

    #[test]
    fn compose_at_anchors_is_the_connected_gluing() {
        let parts = [ring(10), ring(12), ring(16)];
        let glued = HardInstance::compose(
            &[&parts[0], &parts[1], &parts[2]],
            &[NodeId(0), NodeId(3), NodeId(0)],
        );
        let g = &glued.graph;
        let originals = 10 + 12 + 16;
        assert_eq!(g.node_count(), originals + 6);
        assert_eq!(g.edge_count(), originals + 3 * 2 + 3);
        assert!(rlnc_graph::is_connected(g));
        assert!(g.max_degree() <= 3);
        // Part 1's anchor (node 10 + 3) reached its first neighbor (10 + 2)
        // directly; now the path 13 – v_2 – w_2 – 12 stands in its place.
        let (v_2, w_2) = (NodeId(originals as u32 + 2), NodeId(originals as u32 + 3));
        assert!(!g.has_edge(NodeId(13), NodeId(12)));
        assert!(g.has_edge(NodeId(13), v_2) && g.has_edge(v_2, w_2) && g.has_edge(w_2, NodeId(12)));
        // The ring v_i – w_{i+1}, closing v_3 – w_1.
        let inserted = |k: usize| NodeId((originals + k) as u32);
        for (v, w) in [(0, 3), (2, 5), (4, 1)] {
            assert!(g.has_edge(inserted(v), inserted(w)), "v{v} - w{w}");
        }
        // Inserted nodes: fresh identities above every part's, empty inputs.
        assert_eq!(glued.ids.as_slice()[originals..], [39, 40, 41, 42, 43, 44]);
        assert!(glued.input.as_slice()[originals..].iter().all(Label::is_empty));
        // Away from the anchor, distances inside a part are unchanged.
        let distance = rlnc_graph::traversal::distance;
        for (a, b) in [(4, 8), (2, 9), (5, 7)] {
            let d_part = distance(&parts[2].graph, NodeId(a), NodeId(b));
            assert_eq!(distance(g, NodeId(22 + a), NodeId(22 + b)), d_part);
        }
    }

    #[test]
    #[should_panic(expected = "at least two instances")]
    fn compose_needs_two_parts_to_glue() {
        let _ = HardInstance::compose(&[&ring(5)], &[NodeId(0)]);
    }

    /// FNV-1a 64, one step per `u64` word, over the node count, each edge
    /// as `(u << 32) | v` in [`Graph::edges`] order, and per node its
    /// identity, its input bytes and `0xFF`.
    fn digest(h: &HardInstance) -> u64 {
        let mut words = vec![h.node_count() as u64];
        words.extend(h.graph.edges().map(|(u, v)| (u64::from(u.0) << 32) | u64::from(v.0)));
        for v in h.graph.nodes() {
            words.push(h.ids.id(v));
            words.extend(h.input.get(v).as_bytes().iter().map(|&b| u64::from(b)));
            words.push(0xFF);
        }
        words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &w| {
            (hash ^ w).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The mixed parts cover non-empty inputs, spread and decreasing
    /// identities, and anchors of degree 3 and 4.
    #[test]
    fn composed_instances_are_pinned() {
        use crate::derand::boosting::build_disjoint_union;
        use rlnc_graph::generators::{circulant, prism};
        let cycles = consecutive_cycle_candidates([12, 14, 16]);
        let prism = prism(8);
        let circulant = circulant(13, &[1, 2]);
        let mixed = [
            HardInstance::new(
                prism.clone(),
                Labeling::from_fn(&prism, |v| Label::from_u64(u64::from(v.0) + 1)),
                IdAssignment::spread(&prism, 5),
            ),
            ring(12),
            HardInstance::new(
                circulant.clone(),
                Labeling::from_fn(&circulant, |v| Label::from_u64(u64::from(v.0) % 3)),
                IdAssignment::new((0..13).map(|i| 100 - 3 * i).collect()),
            ),
        ];
        let union = |parts: &[HardInstance], nu| digest(&build_disjoint_union(parts, nu));
        let glue = |parts: &[HardInstance], anchors: [u32; 3]| {
            let refs: Vec<&HardInstance> = parts.iter().collect();
            digest(&HardInstance::compose(&refs, &anchors.map(NodeId)))
        };
        assert_eq!(union(&cycles, 4), 0x6f09_4cc0_60f3_b767);
        assert_eq!(union(&mixed, 5), 0x9ec4_fe31_ed30_ca92);
        assert_eq!(glue(&cycles, [0, 3, 5]), 0xaaf3_5d64_6c7f_18c6);
        assert_eq!(glue(&mixed, [7, 0, 12]), 0xcbe7_88f9_c1e0_a506);
    }
}
