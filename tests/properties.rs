//! Property-based tests (proptest) on the core invariants of the toolkit.

use proptest::prelude::*;
use rlnc::langs::coloring::ProperColoring;
use rlnc::prelude::*;
use rlnc_core::relaxation::{EpsilonSlack, FResilient};
use rlnc_core::resilient::resilient_acceptance_probability;
use rlnc_core::{DistributedLanguage, FnAlgorithm};
use rlnc_graph::ball::Ball;
use rlnc_graph::generators::{cycle, random_bounded_degree, random_tree};
use rlnc_graph::ops::{disjoint_union, glue_instances};
use rlnc_graph::traversal::{bfs_distances, is_connected};
use rlnc_par::rng::SeedSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arbitrary_graph(seed: u64, n: usize, kind: u8) -> rlnc_graph::Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match kind % 3 {
        0 => cycle(n.max(3)),
        1 => random_tree(n.max(2), &mut rng),
        _ => random_bounded_degree(n.max(3), 4, 0.4, &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Balls never contain nodes beyond the requested radius, and the
    /// center is always local index 0 at distance 0.
    #[test]
    fn ball_extraction_respects_radius(seed in 0u64..5000, n in 3usize..40, radius in 0u32..5, kind in 0u8..3) {
        let graph = arbitrary_graph(seed, n, kind);
        let center = NodeId::from_index(seed as usize % graph.node_count());
        let ball = Ball::extract(&graph, center, radius);
        let distances = bfs_distances(&graph, center);
        prop_assert_eq!(ball.host_node(0), center);
        prop_assert_eq!(ball.distance(0), 0);
        for i in 0..ball.len() {
            let host = ball.host_node(i);
            prop_assert_eq!(distances[host.index()], ball.distance(i));
            prop_assert!(ball.distance(i) <= radius);
        }
        // Every node within the radius is in the ball.
        let within = distances.iter().filter(|&&d| d != u32::MAX && d <= radius).count();
        prop_assert_eq!(within, ball.len());
    }

    /// The disjoint union preserves node and edge counts and never connects
    /// the parts.
    #[test]
    fn disjoint_union_preserves_structure(seed in 0u64..5000, n1 in 3usize..24, n2 in 3usize..24) {
        let a = cycle(n1);
        let b = arbitrary_graph(seed, n2, 1);
        let union = disjoint_union(&[&a, &b]);
        prop_assert_eq!(union.graph.node_count(), a.node_count() + b.node_count());
        prop_assert_eq!(union.graph.edge_count(), a.edge_count() + b.edge_count());
        prop_assert!(union.graph.validate().is_ok());
        // No edge crosses the parts.
        for (u, v) in union.graph.edges() {
            prop_assert_eq!(union.part_of(u).0, union.part_of(v).0);
        }
    }

    /// Gluing cycles produces a connected graph of maximum degree at most 3
    /// (the k > 2 requirement of Theorem 1) with the right node count.
    #[test]
    fn gluing_is_connected_and_degree_bounded(sizes in proptest::collection::vec(6usize..20, 2..5)) {
        let parts: Vec<rlnc_graph::Graph> = sizes.iter().map(|&s| cycle(s)).collect();
        let with_anchors: Vec<(&rlnc_graph::Graph, NodeId)> =
            parts.iter().map(|g| (g, NodeId(0))).collect();
        let glued = glue_instances(&with_anchors);
        prop_assert!(is_connected(&glued.graph));
        prop_assert!(glued.graph.max_degree() <= 3);
        let expected: usize = sizes.iter().sum::<usize>() + 2 * sizes.len();
        prop_assert_eq!(glued.graph.node_count(), expected);
        prop_assert!(glued.graph.validate().is_ok());
    }

    /// Order types are invariant under strictly increasing identity maps,
    /// and so are the outputs of rank-based algorithms.
    #[test]
    fn rank_algorithms_are_order_invariant(seed in 0u64..5000, n in 4usize..32, stretch in 2u64..50) {
        let graph = arbitrary_graph(seed, n, 2);
        let input = Labeling::empty(graph.node_count());
        let ids = IdAssignment::consecutive(&graph);
        let stretched = ids.map_monotone(|x| x * stretch + 3);
        let algo = FnAlgorithm::new(1, "rank", |v: &View| Label::from_u64(v.center_rank() as u64));
        let a = Simulator::new().run(&algo, &Instance::new(&graph, &input, &ids));
        let b = Simulator::new().run(&algo, &Instance::new(&graph, &input, &stretched));
        prop_assert_eq!(a, b);
    }

    /// Relaxation monotonicity: L ⊆ L_f ⊆ L_{f+1}, and L_f ⊆ (f/n)-slack.
    #[test]
    fn relaxations_are_monotone(seed in 0u64..5000, n in 6usize..40, f in 0usize..6) {
        let graph = cycle(n);
        let input = Labeling::empty(n);
        // A random (possibly improper) coloring.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let colors: Vec<Label> = (0..graph.node_count())
            .map(|_| Label::from_u64(rand::Rng::random_range(&mut rng, 1..=3u64)))
            .collect();
        let output = Labeling::new(colors);
        let io = IoConfig::new(&graph, &input, &output);
        let base = ProperColoring::new(3);
        let lf = FResilient::new(ProperColoring::new(3), f);
        let lf1 = FResilient::new(ProperColoring::new(3), f + 1);
        let slack = EpsilonSlack::new(ProperColoring::new(3), f as f64 / n as f64);
        if base.contains(&io) {
            prop_assert!(lf.contains(&io));
        }
        if lf.contains(&io) {
            prop_assert!(lf1.contains(&io));
            prop_assert!(slack.contains(&io));
        }
    }

    /// The Corollary-1 acceptance probability lies strictly inside the
    /// prescribed interval and satisfies both strict inequalities.
    #[test]
    fn resilient_probability_interval(f in 1usize..40) {
        let p = resilient_acceptance_probability(f);
        prop_assert!(p > 2f64.powf(-1.0 / f as f64));
        prop_assert!(p < 2f64.powf(-1.0 / (f as f64 + 1.0)));
        prop_assert!(p.powi(f as i32) > 0.5);
        prop_assert!(p.powi(f as i32 + 1) < 0.5);
    }

    /// Randomized simulation is reproducible: the same execution seed gives
    /// the same outputs as a per-node `View::collect` fold.
    #[test]
    fn randomized_simulation_is_deterministic_per_seed(seed in 0u64..5000, n in 3usize..32) {
        let graph = cycle(n.max(3));
        let input = Labeling::empty(graph.node_count());
        let ids = IdAssignment::consecutive(&graph);
        let instance = Instance::new(&graph, &input, &ids);
        let algo = rlnc::langs::random_coloring::RandomColoring::new(3);
        let s = SeedSequence::new(seed).child(1);
        let a = Simulator::new().run_randomized(&algo, &instance, s);
        let coins = Coins::new(s);
        let b = Labeling::new(
            graph.nodes().map(|v| algo.output(&View::collect(&instance, v, 0), &coins)).collect(),
        );
        prop_assert_eq!(a, b);
    }

    /// Labels round-trip through their integer encoding.
    #[test]
    fn label_u64_round_trip(value in 0u64..u64::MAX) {
        prop_assert_eq!(Label::from_u64(value).as_u64(), value);
    }
}
