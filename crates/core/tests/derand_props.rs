//! Property-based invariants of the derandomization machinery, mirroring
//! the style of `crates/graph/tests/generator_props.rs`:
//!
//! * the gluing construction always yields a connected graph of maximum
//!   degree ≤ max(3, part degree), with the right node count, and
//!   preserves per-component ball outputs — an order-invariant algorithm
//!   computes the same output at every node whose ball avoids the anchor,
//!   on the glued graph as on the standalone part;
//! * the Ramsey refinement (`consistent_id_set`) returns a subset of its
//!   universe that is large enough to relabel every observed ball, and is
//!   monotone under identity-universe extension for the residue-class
//!   algorithms the finite construction converges on.

use proptest::prelude::*;
use rlnc_core::algorithm::FnAlgorithm;
use rlnc_core::derand::gluing::GluingExperiment;
use rlnc_core::derand::hard_instances::consecutive_cycle_candidates;
use rlnc_core::derand::ramsey::{collect_templates, consistent_id_set};
use rlnc_core::labels::Label;
use rlnc_core::prelude::*;
use rlnc_graph::traversal::{bfs_distances, is_connected};
use rlnc_graph::NodeId;

/// An order-invariant radius-1 algorithm reading everything a view exposes
/// except raw identity values: structure, distances, identity order, and
/// inputs.
fn order_invariant_digest() -> FnAlgorithm<impl Fn(&View) -> Label + Sync> {
    FnAlgorithm::new(1, "oi-digest", |v: &View| {
        let mut digest = (v.center_degree() as u64) << 7;
        for i in 0..v.len() {
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(v.rank(i) as u64 ^ (u64::from(v.distance(i)) << 3))
                .wrapping_add(v.input(i).as_u64());
        }
        Label::from_u64(digest)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gluing_is_connected_bounded_degree_and_preserves_far_balls(
        part_size in 8usize..20,
        nu in 2usize..5,
        anchor_offset in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let sizes: Vec<usize> = (0..nu).map(|i| part_size + (i + seed as usize) % 3).collect();
        let parts = consecutive_cycle_candidates(sizes.clone());
        let anchors: Vec<NodeId> = sizes
            .iter()
            .map(|&s| NodeId((anchor_offset % s) as u32))
            .collect();
        let originals: usize = sizes.iter().sum();
        let t = 1u32;
        let experiment = GluingExperiment::build(parts.clone(), anchors.clone(), t, 1);

        // Structure: connected, degree ≤ 3 (cycles have degree 2; inserted
        // subdivision nodes reach 3), exact node count, full labelings.
        prop_assert!(is_connected(experiment.graph()));
        prop_assert!(experiment.graph().max_degree() <= 3);
        prop_assert_eq!(experiment.graph().node_count(), originals + 2 * nu);
        let glued_instance = experiment.as_hard_instance();
        prop_assert_eq!(glued_instance.ids.len(), originals + 2 * nu);
        prop_assert_eq!(glued_instance.input.len(), originals + 2 * nu);

        // Per-component ball preservation: an order-invariant algorithm
        // agrees between the standalone part and the glued graph at every
        // node farther than t from the part's anchor (its ball then avoids
        // both the subdivided edge and the inserted nodes, and the uniform
        // per-part identity shift preserves the order type).
        let algo = order_invariant_digest();
        let glued_out = Simulator::new().run(&algo, &glued_instance.as_instance());
        let mut offset = 0;
        for (part_index, part) in parts.iter().enumerate() {
            let part_out = Simulator::new().run(&algo, &part.as_instance());
            let dist = bfs_distances(&part.graph, anchors[part_index]);
            for v in part.graph.nodes() {
                if dist[v.index()] > t {
                    // Part nodes follow those of the parts before them.
                    let glued_node = NodeId::from_index(offset + v.index());
                    prop_assert!(
                        glued_out.get(glued_node) == part_out.get(v),
                        "part {} node {} (distance {} from anchor) diverged",
                        part_index,
                        v,
                        dist[v.index()]
                    );
                }
            }
            offset += part.node_count();
        }
    }

    #[test]
    fn consistent_id_set_is_a_refinement_and_monotone_under_extension(
        n in 4usize..10,
        base in 24u64..60,
        extension in 6u64..30,
        modulus in 2u64..4,
        seed in 0u64..1_000,
    ) {
        let graph = rlnc_graph::generators::cycle(n);
        let input = Labeling::empty(n);
        let ids = rlnc_graph::IdAssignment::consecutive(&graph);
        let inst = Instance::new(&graph, &input, &ids);
        let algo = FnAlgorithm::new(0, "id-residue", move |v: &View| {
            Label::from_u64(v.center_id() % modulus)
        });
        let templates = collect_templates(&[inst], 0);

        // Round the universes to multiples of the modulus so every residue
        // class of the larger universe is at least as large as the largest
        // class of the smaller one.
        let base = base - base % modulus;
        let small: Vec<u64> = (1..=base).collect();
        let large: Vec<u64> = (1..=(base + extension * modulus)).collect();
        let refined_small = consistent_id_set(&algo, &templates, &small, 300, seed);
        let refined_large = consistent_id_set(&algo, &templates, &large, 300, seed);

        for refined in [&refined_small, &refined_large] {
            // A sorted subset of the universe, still usable for relabeling.
            prop_assert!(!refined.is_empty());
            prop_assert!(refined.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(refined.iter().all(|x| large.contains(x)));
            // Consistency: the refinement converges on one residue class.
            let residues: std::collections::HashSet<u64> =
                refined.iter().map(|x| x % modulus).collect();
            prop_assert!(residues.len() == 1, "refined {:?} spans several classes", refined);
        }
        prop_assert!(refined_small.iter().all(|x| small.contains(x)));
        // Monotonicity: extending the universe never shrinks the refined
        // set (each residue class of the extension dominates its
        // counterpart).
        prop_assert!(
            refined_large.len() >= refined_small.len(),
            "universe extension shrank the refined set: {} -> {}",
            refined_small.len(),
            refined_large.len()
        );
    }

    #[test]
    fn consistent_id_set_keeps_whole_universe_for_order_invariant_algorithms(
        n in 4usize..12,
        universe_size in 16u64..64,
        seed in 0u64..1_000,
    ) {
        let graph = rlnc_graph::generators::cycle(n);
        let input = Labeling::empty(n);
        let ids = rlnc_graph::IdAssignment::consecutive(&graph);
        let inst = Instance::new(&graph, &input, &ids);
        let algo = FnAlgorithm::new(1, "rank", |v: &View| Label::from_u64(v.center_rank() as u64));
        let templates = collect_templates(&[inst], 1);
        let universe: Vec<u64> = (1..=universe_size).collect();
        let refined = consistent_id_set(&algo, &templates, &universe, 60, seed);
        prop_assert!(refined.len() == universe.len(), "no identity should be removed");
    }
}
