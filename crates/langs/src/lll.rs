//! A constructive Lovász-Local-Lemma (LLL) instance.
//!
//! §1.1 of the paper cites the relaxed constructive LLL \[6\] alongside
//! relaxed coloring: some nodes are allowed to output assignments for which
//! their "bad event" holds. We instantiate the standard
//! neighborhood-monochromaticity LLL: every node outputs a bit, and the bad
//! event `B_v` is "the closed neighborhood `N[v]` is monochromatic". For a
//! `d`-regular graph `Pr[B_v] = 2^{-d}` under uniformly random bits and
//! each event depends on at most `d²` others, so the LLL guarantees an
//! assignment avoiding every bad event when `e·2^{-d}(d² + 1) ≤ 1`
//! (`d ≥ 5` suffices). The constructor is a Moser–Tardos-style parallel
//! resampling loop, simulated locally phase by phase.

use crate::weak_coloring::WeakColoring;
use rlnc_core::prelude::*;
use rand::Rng;
use rlnc_graph::NodeId;

/// The LLL language: no closed neighborhood is monochromatic (for nodes of
/// degree at least 1). Its bad balls are weak coloring's, but it is kept
/// as a separate type because the experiments treat it as the paper's LLL
/// example, with its own relaxations.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighborhoodLll;

impl NeighborhoodLll {
    /// Creates the language.
    pub fn new() -> Self {
        NeighborhoodLll
    }

    /// The LLL condition `e · 2^{-d} · (d² + 1) ≤ 1` for `d`-regular graphs.
    pub fn lll_condition_holds(d: usize) -> bool {
        std::f64::consts::E * 2f64.powi(-(d as i32)) * ((d * d + 1) as f64) <= 1.0
    }
}

impl LclLanguage for NeighborhoodLll {
    fn radius(&self) -> u32 {
        1
    }

    /// The bad event at `v`: its closed neighborhood is non-trivial and
    /// monochromatic.
    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        WeakColoring.is_bad_ball(io, v)
    }

    fn name(&self) -> String {
        "neighborhood-lll".to_string()
    }
}

/// Moser–Tardos-style parallel resampling, simulated for a fixed number of
/// phases: start from uniformly random bits; in each phase, every node
/// whose bad event currently holds resamples its bit (all resamplings in a
/// phase happen simultaneously). Simulating `k` phases requires a
/// radius-`2k` view (each phase needs to evaluate the bad events of the
/// neighbors, which look one further hop out).
#[derive(Debug, Clone, Copy)]
pub struct ResamplingLll {
    phases: u32,
}

impl ResamplingLll {
    /// The constructor with the given number of resampling phases.
    pub fn new(phases: u32) -> Self {
        ResamplingLll { phases }
    }

    fn bit(view: &View, coins: &Coins, i: usize, epoch: u32) -> bool {
        let mut rng = coins.for_view_node(view, i);
        let mut value = false;
        for _ in 0..=epoch {
            value = rng.random_bool(0.5);
        }
        value
    }
}

impl RandomizedLocalAlgorithm for ResamplingLll {
    fn radius(&self) -> u32 {
        2 * self.phases
    }

    fn output(&self, view: &View, coins: &Coins) -> Label {
        let n = view.len();
        let graph = view.local_graph();
        // epoch[i] counts how many times node i has (re)sampled; its current
        // bit is the epoch[i]-th draw of its private stream, so all
        // simulating nodes agree on everyone's bit at every phase.
        let mut epoch = vec![0u32; n];
        let current_bit =
            |epoch: &[u32], i: usize| Self::bit(view, coins, i, epoch[i]);
        for _ in 0..self.phases {
            let violated: Vec<bool> = (0..n)
                .map(|i| {
                    let v = NodeId::from_index(i);
                    if graph.degree(v) == 0 {
                        return false;
                    }
                    let mine = current_bit(&epoch, i);
                    graph.neighbor_ids(v).all(|w| current_bit(&epoch, w.index()) == mine)
                })
                .collect();
            for i in 0..n {
                if violated[i] {
                    epoch[i] += 1;
                }
            }
        }
        Label::from_bool(current_bit(&epoch, view.center_local()))
    }

    fn name(&self) -> String {
        format!("resampling-lll({} phases)", self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::language::bad_ball_count;
    use rlnc_core::relaxation::FResilient;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::{cycle, random_regular};
    use rlnc_graph::IdAssignment;

    #[test]
    fn lll_condition_threshold() {
        // e · 2^{-d} · (d² + 1) ≤ 1 first holds at d = 8.
        assert!(!NeighborhoodLll::lll_condition_holds(2));
        assert!(!NeighborhoodLll::lll_condition_holds(4));
        assert!(!NeighborhoodLll::lll_condition_holds(7));
        assert!(NeighborhoodLll::lll_condition_holds(8));
        assert!(NeighborhoodLll::lll_condition_holds(10));
    }

    #[test]
    fn language_flags_monochromatic_neighborhoods() {
        let g = cycle(5);
        let x = Labeling::empty(5);
        let constant = Labeling::from_fn(&g, |_| Label::from_bool(true));
        let io = IoConfig::new(&g, &x, &constant);
        assert!(!NeighborhoodLll::new().contains(&io));
        assert_eq!(bad_ball_count(&NeighborhoodLll::new(), &io), 5);
        assert!(NeighborhoodLll::new().is_bad_ball(&io, rlnc_graph::NodeId(2)));
        let alternating = Labeling::from_fn(&g, |v| Label::from_bool(v.0 % 2 == 0));
        assert!(NeighborhoodLll::new().contains(&IoConfig::new(&g, &x, &alternating)));
    }

    #[test]
    fn resampling_reduces_bad_events() {
        let mut rng = rand::rng();
        let g = random_regular(40, 3, &mut rng);
        let x = Labeling::empty(40);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let lang = NeighborhoodLll::new();
        let mc = rlnc_par::trials::MonteCarlo::new(60).with_seed(19);
        let zero_phase = mc.summarize(|seed| {
            let out = Simulator::new().run_randomized(&ResamplingLll::new(0), &inst, seed);
            bad_ball_count(&lang, &IoConfig::new(&g, &x, &out)) as f64
        });
        let five_phases = mc.summarize(|seed| {
            let out = Simulator::new().run_randomized(&ResamplingLll::new(5), &inst, seed);
            bad_ball_count(&lang, &IoConfig::new(&g, &x, &out)) as f64
        });
        assert!(
            five_phases.mean < zero_phase.mean,
            "resampling should reduce bad events: {} vs {}",
            five_phases.mean,
            zero_phase.mean
        );
    }

    #[test]
    fn resampling_lands_in_small_f_resilient_relaxations() {
        let mut rng = rand::rng();
        let g = random_regular(30, 4, &mut rng);
        let x = Labeling::empty(30);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let relaxed = FResilient::new(NeighborhoodLll::new(), 3);
        let est =
            Simulator::new().construction_success(&ResamplingLll::new(6), &inst, &relaxed, 200, 23);
        assert!(
            est.p_hat > 0.6,
            "resampling should usually leave at most 3 bad events, got {}",
            est.p_hat
        );
    }
}
