//! Seeded, declarative fault plans for the round backend.
//!
//! The ball-extraction engine cannot express crash faults mid-round or
//! Byzantine neighbors: it evaluates every node's output from a fully
//! gathered view. The operational backend ([`crate::rounds::RoundSystem`])
//! can — a crashed node simply stops sending, and a Byzantine node's
//! outgoing messages pass through the algorithm's
//! [`forge`](crate::rounds::MessagePassingAlgorithm::forge) before
//! delivery. This
//! module provides the *declarative* half of that axis: a [`FaultPlan`]
//! names a fault model and an intensity, and [`FaultPlan::schedule`]
//! materializes it into a concrete, bit-reproducible [`FaultSchedule`] for
//! one graph and one seed.
//!
//! ## Determinism
//!
//! Every random draw in a schedule comes from a dedicated child of the
//! given [`SeedSequence`]:
//!
//! ```text
//! seed.child(v)                                  // crash coin of node v
//! seed.child(CASCADE).child(u).child(v)          // cascade coin of edge u→v
//! seed.child(ADVERSARY).child(v).child(round)    // adversary stream of (v, round)
//! ```
//!
//! Node indices fit in `u32`, so the `CASCADE`/`ADVERSARY` branches (above
//! `2^40`) never collide with per-node branches. No draw depends on
//! iteration order, thread schedule, or batch size: the same `(plan,
//! graph, seed)` triple always yields a byte-identical schedule, which is
//! what lets sweep trials pin their fault schedules to the existing
//! `(scenario, point, trial)` seed tree.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rlnc_graph::{Graph, NodeId};
use rlnc_obs::{LazyCounter, Section};
use rlnc_par::rng::SeedSequence;

// Fault materializations are drawn from the `(scenario, point, trial)`
// seed tree, so their totals over a fixed trial set are schedule-invariant
// — deterministic section.
static OBS_SCHEDULES: LazyCounter =
    LazyCounter::new("core.faults.schedules", Section::Deterministic);
static OBS_CRASHED: LazyCounter =
    LazyCounter::new("core.faults.crashed_nodes", Section::Deterministic);
static OBS_BYZANTINE: LazyCounter =
    LazyCounter::new("core.faults.byzantine_nodes", Section::Deterministic);

/// Seed-tree branch for cascade edge coins (disjoint from the per-node
/// branches, which are below `2^32`).
const CASCADE_STREAM: u64 = 1 << 40;

/// Seed-tree branch for per-`(node, round)` adversary randomness.
const ADVERSARY_STREAM: u64 = (1 << 40) + 1;

/// A declarative, seedable fault model for one round-backend execution.
///
/// A plan is pure data: the same plan can be scheduled against many
/// `(graph, seed)` pairs, and the resulting [`FaultSchedule`]s are
/// bit-reproducible. Intensities are probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlan {
    /// No faults: the schedule is empty and execution is bit-identical to
    /// a fault-free run.
    None,
    /// Every node independently crashes before round 1 with the given
    /// probability (it computes its initial state but never sends).
    CrashOnStart {
        /// Per-node crash probability.
        probability: f64,
    },
    /// Every node independently crashes at the start of the given round
    /// (1-based) with the given probability.
    CrashAtRound {
        /// First round in which selected nodes are silent.
        round: u32,
        /// Per-node crash probability.
        probability: f64,
    },
    /// Correlated failures: seed nodes crash before round 1 with
    /// probability `probability`, and every crash spreads to each healthy
    /// neighbor independently with probability `spread` one round later
    /// (a failure-propagation cascade, computed to fixpoint).
    CrashCascade {
        /// Per-node seed-crash probability.
        probability: f64,
        /// Per-edge propagation probability per round.
        spread: f64,
    },
    /// Every node is independently Byzantine with the given probability:
    /// it follows the algorithm but its outgoing messages are rewritten
    /// by the algorithm's
    /// [`forge`](crate::rounds::MessagePassingAlgorithm::forge) (for the
    /// gather, [`GatherRun`](crate::rounds::GatherRun)'s identity
    /// relabeling) each round before delivery.
    ByzantineRelabel {
        /// Per-node corruption probability.
        probability: f64,
    },
}

/// Number of non-trivial fault plan kinds (everything except
/// [`FaultPlan::None`]), the size of the sweepable plan axis.
pub const FAULT_PLAN_KINDS: usize = 4;

impl FaultPlan {
    /// The sweepable plan axis: maps `(index mod 4, intensity)` to a plan,
    /// so a grid parameter can enumerate every fault model at a chosen
    /// intensity. `CrashAtRound` strikes at round 2 and `CrashCascade`
    /// halves the seed probability (the cascade amplifies it back).
    pub fn from_index(index: usize, intensity: f64) -> FaultPlan {
        match index % FAULT_PLAN_KINDS {
            0 => FaultPlan::CrashOnStart {
                probability: intensity,
            },
            1 => FaultPlan::CrashAtRound {
                round: 2,
                probability: intensity,
            },
            2 => FaultPlan::CrashCascade {
                probability: intensity / 2.0,
                spread: 0.5,
            },
            _ => FaultPlan::ByzantineRelabel {
                probability: intensity,
            },
        }
    }

    /// Stable, slug-style name of the plan kind.
    pub fn name(&self) -> &'static str {
        match self {
            FaultPlan::None => "none",
            FaultPlan::CrashOnStart { .. } => "crash-on-start",
            FaultPlan::CrashAtRound { .. } => "crash-at-round",
            FaultPlan::CrashCascade { .. } => "crash-cascade",
            FaultPlan::ByzantineRelabel { .. } => "byzantine-relabel",
        }
    }

    /// Materializes the plan into a concrete per-node schedule for one
    /// graph, drawing every coin from a dedicated child of `seed` (see the
    /// module docs for the exact tree).
    pub fn schedule(&self, graph: &Graph, seed: SeedSequence) -> FaultSchedule {
        let n = graph.node_count();
        let mut crash_round: Vec<Option<u32>> = vec![None; n];
        let mut byzantine = vec![false; n];
        let node_coin = |v: usize, p: f64| seed.child(v as u64).rng().random_bool(p);
        match *self {
            FaultPlan::None => {}
            FaultPlan::CrashOnStart { probability } => {
                for (v, slot) in crash_round.iter_mut().enumerate() {
                    if node_coin(v, probability) {
                        *slot = Some(1);
                    }
                }
            }
            FaultPlan::CrashAtRound { round, probability } => {
                let round = round.max(1);
                for (v, slot) in crash_round.iter_mut().enumerate() {
                    if node_coin(v, probability) {
                        *slot = Some(round);
                    }
                }
            }
            FaultPlan::CrashCascade { probability, spread } => {
                let mut frontier: Vec<usize> = Vec::new();
                for (v, slot) in crash_round.iter_mut().enumerate() {
                    if node_coin(v, probability) {
                        *slot = Some(1);
                        frontier.push(v);
                    }
                }
                // Breadth-first propagation: a node crashing at round k
                // infects each healthy neighbor with an independent
                // per-directed-edge coin, one round later. Coins are keyed
                // by the edge, not the visit, so the fixpoint is
                // independent of the order nodes are processed in.
                let mut round = 1u32;
                while !frontier.is_empty() {
                    round += 1;
                    let mut next = Vec::new();
                    for &u in &frontier {
                        let u_seq = seed.child(CASCADE_STREAM).child(u as u64);
                        for w in graph.neighbor_ids(NodeId::from_index(u)) {
                            let wi = w.index();
                            if crash_round[wi].is_none()
                                && u_seq.child(u64::from(w.0)).rng().random_bool(spread)
                            {
                                crash_round[wi] = Some(round);
                                next.push(wi);
                            }
                        }
                    }
                    next.sort_unstable();
                    frontier = next;
                }
            }
            FaultPlan::ByzantineRelabel { probability } => {
                for (v, flag) in byzantine.iter_mut().enumerate() {
                    *flag = node_coin(v, probability);
                }
            }
        }
        // Realized-fault accounting: how many crashes/Byzantine nodes this
        // materialization actually planted (a function of plan + graph +
        // seed, so deterministic-section eligible).
        if rlnc_obs::enabled() {
            OBS_SCHEDULES.inc();
            OBS_CRASHED.add(crash_round.iter().filter(|r| r.is_some()).count() as u64);
            OBS_BYZANTINE.add(byzantine.iter().filter(|&&b| b).count() as u64);
        }
        FaultSchedule {
            crash_round,
            byzantine,
            seed,
        }
    }
}

/// A concrete fault assignment for one execution: which nodes crash (and
/// when), which nodes are Byzantine, and the seed branch the adversary
/// draws its randomness from.
///
/// Produced by [`FaultPlan::schedule`]; consumed by
/// [`RoundSystem`](crate::rounds::RoundSystem).
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// `Some(r)` if the node is silent from round `r` (1-based) on.
    crash_round: Vec<Option<u32>>,
    /// Whether each node's outgoing messages are forged.
    byzantine: Vec<bool>,
    /// Root of the adversary's per-`(node, round)` randomness.
    seed: SeedSequence,
}

impl FaultSchedule {
    /// A schedule with no faults at all on `n` nodes.
    pub fn fault_free(n: usize, seed: SeedSequence) -> FaultSchedule {
        FaultSchedule {
            crash_round: vec![None; n],
            byzantine: vec![false; n],
            seed,
        }
    }

    /// Number of nodes the schedule covers.
    pub fn node_count(&self) -> usize {
        self.crash_round.len()
    }

    /// The round (1-based) in which the node crashes, if it ever does.
    pub fn crash_round(&self, v: NodeId) -> Option<u32> {
        self.crash_round[v.index()]
    }

    /// Returns `true` if the node neither sends nor updates in `round`
    /// (it crashed in this round or earlier).
    pub fn is_silent(&self, v: NodeId, round: u32) -> bool {
        matches!(self.crash_round[v.index()], Some(r) if r <= round)
    }

    /// Returns `true` if the node's outgoing messages are adversarial.
    pub fn is_byzantine(&self, v: NodeId) -> bool {
        self.byzantine[v.index()]
    }

    /// Number of faulty (crashing or Byzantine) nodes.
    pub fn faulty_count(&self) -> usize {
        self.crash_round
            .iter()
            .zip(&self.byzantine)
            .filter(|(c, &b)| c.is_some() || b)
            .count()
    }

    /// Fraction of faulty nodes (`0` on the empty graph).
    pub fn faulty_fraction(&self) -> f64 {
        if self.crash_round.is_empty() {
            return 0.0;
        }
        self.faulty_count() as f64 / self.crash_round.len() as f64
    }

    /// Returns `true` if *every* node is silent in `round` — no step can
    /// change any state, so the system is quiet regardless of how many
    /// rounds remain.
    pub fn all_silent_at(&self, round: u32) -> bool {
        self.crash_round
            .iter()
            .all(|c| matches!(c, Some(r) if *r <= round))
    }

    /// The adversary's private coin stream for one `(node, round)` pair,
    /// derived from the schedule seed alone — independent of thread
    /// schedule and of how many messages are forged.
    pub fn adversary_rng(&self, v: NodeId, round: u32) -> ChaCha8Rng {
        self.seed
            .child(ADVERSARY_STREAM)
            .child(u64::from(v.0))
            .child(u64::from(round))
            .rng()
    }

    /// FNV-1a digest of the schedule (crash rounds and Byzantine flags) —
    /// the quantity pinned by determinism regression tests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |byte: u64| {
            h ^= byte;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for c in &self.crash_round {
            mix(c.map_or(0, |r| u64::from(r) + 1));
        }
        for &b in &self.byzantine {
            mix(u64::from(b) + 7);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_graph::generators::cycle;

    #[test]
    fn schedules_are_bit_reproducible() {
        let g = cycle(24);
        for index in 0..FAULT_PLAN_KINDS {
            let plan = FaultPlan::from_index(index, 0.3);
            let a = plan.schedule(&g, SeedSequence::new(9).child(4));
            let b = plan.schedule(&g, SeedSequence::new(9).child(4));
            assert_eq!(a.fingerprint(), b.fingerprint());
            let c = plan.schedule(&g, SeedSequence::new(9).child(5));
            // Not a hard guarantee for every seed pair, but these pins
            // would only move if the seed discipline changed.
            assert_ne!(a.fingerprint(), c.fingerprint());
        }
    }

    #[test]
    fn plan_axis_covers_every_kind_and_zero_intensity_is_fault_free() {
        let g = cycle(16);
        let names: Vec<&str> = (0..FAULT_PLAN_KINDS)
            .map(|i| FaultPlan::from_index(i, 0.5).name())
            .collect();
        assert_eq!(
            names,
            [
                "crash-on-start",
                "crash-at-round",
                "crash-cascade",
                "byzantine-relabel"
            ]
        );
        for i in 0..FAULT_PLAN_KINDS {
            let schedule = FaultPlan::from_index(i, 0.0).schedule(&g, SeedSequence::new(1));
            assert_eq!(schedule.faulty_count(), 0);
            assert_eq!(schedule.faulty_fraction(), 0.0);
        }
        assert_eq!(FaultPlan::None.schedule(&g, SeedSequence::new(1)).faulty_count(), 0);
    }

    #[test]
    fn crash_on_start_crashes_everyone_at_round_one_at_full_intensity() {
        let g = cycle(12);
        let plan = FaultPlan::CrashOnStart { probability: 1.0 };
        let schedule = plan.schedule(&g, SeedSequence::new(3));
        assert_eq!(schedule.faulty_count(), 12);
        assert!(schedule.all_silent_at(1));
        assert!(schedule.is_silent(NodeId(0), 1));
        assert!(schedule.is_silent(NodeId(0), 5));
        assert_eq!(schedule.crash_round(NodeId(7)), Some(1));
    }

    #[test]
    fn crash_at_round_keeps_nodes_alive_before_the_strike() {
        let g = cycle(10);
        let plan = FaultPlan::CrashAtRound {
            round: 3,
            probability: 1.0,
        };
        let schedule = plan.schedule(&g, SeedSequence::new(3));
        assert!(!schedule.is_silent(NodeId(4), 2));
        assert!(schedule.is_silent(NodeId(4), 3));
        assert!(!schedule.all_silent_at(2));
        assert!(schedule.all_silent_at(3));
    }

    #[test]
    fn cascade_spreads_to_fixpoint_with_increasing_rounds() {
        let g = cycle(32);
        let plan = FaultPlan::CrashCascade {
            probability: 0.1,
            spread: 1.0,
        };
        let schedule = plan.schedule(&g, SeedSequence::new(7));
        // With full spread, every node within distance d of a seed crashes
        // at round d + 1, so the whole cycle eventually crashes (some seed
        // fires at probability 0.1 over 32 nodes for this pinned seed).
        assert!(schedule.faulty_count() > 0);
        assert_eq!(schedule.faulty_count(), 32);
        for v in 0..32u32 {
            let r = schedule.crash_round(NodeId(v)).expect("cascade reaches everyone");
            if r > 1 {
                // A node crashing at round r > 1 has a neighbor that
                // crashed at round r - 1.
                let has_cause = g.neighbor_ids(NodeId(v)).any(|w| {
                    schedule.crash_round(w) == Some(r - 1)
                });
                assert!(has_cause, "node {v} crashed at {r} without a cause");
            }
        }
    }

    #[test]
    fn byzantine_plan_marks_nodes_without_crashing_them() {
        let g = cycle(20);
        let plan = FaultPlan::ByzantineRelabel { probability: 1.0 };
        let schedule = plan.schedule(&g, SeedSequence::new(5));
        assert!(g.nodes().all(|v| schedule.is_byzantine(v)));
        assert_eq!(schedule.faulty_count(), 20);
        assert!(!schedule.is_silent(NodeId(3), 10));
        assert!(!schedule.all_silent_at(1_000));
    }

    #[test]
    fn adversary_stream_is_keyed_by_node_and_round() {
        let g = cycle(8);
        let schedule = FaultPlan::ByzantineRelabel { probability: 1.0 }
            .schedule(&g, SeedSequence::new(11));
        let a: u64 = schedule.adversary_rng(NodeId(1), 1).random();
        let b: u64 = schedule.adversary_rng(NodeId(1), 2).random();
        let c: u64 = schedule.adversary_rng(NodeId(2), 1).random();
        let a2: u64 = schedule.adversary_rng(NodeId(1), 1).random();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
