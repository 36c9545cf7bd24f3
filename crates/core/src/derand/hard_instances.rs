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

use crate::algorithm::{LocalAlgorithm, RandomizedLocalAlgorithm};
use crate::config::{Instance, IoConfig};
use crate::labels::Labeling;
use crate::language::DistributedLanguage;
use crate::simulator::Simulator;
use rlnc_graph::traversal::diameter_double_sweep;
use rlnc_graph::{Graph, IdAssignment, NodeId};
use rlnc_par::stats::Estimate;

/// An owned instance: graph + input + identities, self-contained so hard
/// instances can be collected, shifted, and later glued.
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

    /// The same instance with all identities shifted upward by `offset`
    /// (order type preserved; used to enforce the `I_min` requirement and
    /// to make identity ranges disjoint before a union or gluing).
    pub fn shifted_ids(&self, offset: u64) -> HardInstance {
        HardInstance {
            graph: self.graph.clone(),
            input: self.input.clone(),
            ids: self.ids.shifted(offset),
        }
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
            let candidate = self.enforce_min_id(candidate);
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

    fn enforce_min_id(&self, instance: HardInstance) -> HardInstance {
        let current = instance.min_id();
        if current >= self.min_id {
            instance
        } else {
            instance.shifted_ids(self.min_id - current)
        }
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
        let (family, missing) = search.hard_instance_family(algos.into_iter(), &candidates);
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
        let shifted = instance.shifted_ids(50);
        assert_eq!(shifted.min_id(), 51);
        assert_eq!(shifted.max_id(), 56);
        assert_eq!(shifted.node_count(), 6);
        assert_eq!(shifted.graph, instance.graph);
    }
}
