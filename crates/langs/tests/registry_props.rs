//! Property tests for the language registry's view-native verdicts: for
//! every registered LCL case, `LclLanguage::is_bad_view` (the overridden,
//! allocation-free hook) must match the `IoConfig` path bit-for-bit —
//! per node, across graph families, view radii (the language's own radius
//! and one beyond), constructor seeds, and identity schemes. This is the
//! contract that lets `ResilientDecider` / `OneSidedLclDecider` verdict
//! through the hook without changing a single coin flip.

use proptest::prelude::*;
use rlnc_core::config::{Instance, IoConfig};
use rlnc_core::language::is_bad_view_via_config;
use rlnc_core::view::View;
use rlnc_core::Simulator;
use rlnc_graph::generators::Family;
use rlnc_graph::IdAssignment;
use rlnc_langs::registry::CaseRegistry;
use rlnc_core::LclLanguage;
use rlnc_par::SeedSequence;

/// The connected regular families the pipeline scenarios sweep.
const FAMILIES: [Family; 3] = [Family::Cycle, Family::Circulant2, Family::Prism];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn view_native_verdicts_match_the_config_path(
        seed in 0u64..100_000,
        family_index in 0usize..3,
        n in 10usize..22,
        extra_radius in 0u32..2,
        spread_ids in 0u8..2,
    ) {
        for id in CaseRegistry::builtin().ids() {
            let case = id.case();
            let Some(lcl) = &case.lcl else { continue };
            let family = case.candidate_family(FAMILIES[family_index]);
            let mut rng = SeedSequence::new(seed).rng();
            let graph = family.generate(n, &mut rng);
            let ids = if spread_ids == 1 {
                IdAssignment::spread(&graph, 7)
            } else {
                IdAssignment::consecutive(&graph)
            };
            let input = case.build_input(&graph, &ids);
            let instance = Instance::new(&graph, &input, &ids);
            // A real output distribution: the case's own constructor.
            let output = Simulator::new().run_randomized(
                &*case.constructor,
                &instance,
                SeedSequence::new(seed).child(1),
            );
            let io = IoConfig::new(&graph, &input, &output);
            let radius = lcl.radius() + extra_radius;
            for v in graph.nodes() {
                let reference = lcl.is_bad_ball(&io, v);
                let view = View::collect_io(&io, &ids, v, radius);
                // (The vendored mini-proptest's assert macros take no
                // message; a failure prints the generated inputs.)
                prop_assert_eq!(lcl.is_bad_view(&view), reference);
                prop_assert_eq!(is_bad_view_via_config(&**lcl, &view), reference);
            }
        }
    }

    #[test]
    fn one_sided_decider_verdicts_are_unchanged_by_the_hook(
        seed in 0u64..100_000,
        n in 8usize..20,
    ) {
        // The decider-level consequence of the verdict equivalence: the
        // boxed case decider (which routes through is_bad_view) must agree,
        // per (configuration, coin seed), with deciding through a fresh
        // per-node IoConfig rebuild. Pinned here for the canonical
        // coloring case; the per-language equivalence above covers the
        // verdict function for all of them.
        use rlnc_core::decision::{decide_randomized, RandomizedDecider};
        use rlnc_core::OneSidedLclDecider;
        use rlnc_langs::coloring::ProperColoring;
        use rlnc_langs::random_coloring::RandomColoring;
        use rand::Rng;
        use rlnc_core::algorithm::Coins;

        let graph = rlnc_graph::generators::cycle(n);
        let ids = IdAssignment::consecutive(&graph);
        let input = rlnc_core::labels::Labeling::empty(n);
        let instance = Instance::new(&graph, &input, &ids);
        let output = Simulator::new().run_randomized(
            &RandomColoring::new(3),
            &instance,
            SeedSequence::new(seed).child(0),
        );
        let io = IoConfig::new(&graph, &input, &output);
        let decider = OneSidedLclDecider::new(ProperColoring::new(3), 0.7);
        let engine = decide_randomized(&decider, &io, &ids, SeedSequence::new(seed).child(1));
        // Reference: the pre-refactor decider body, coin-for-coin.
        let coins = Coins::new(SeedSequence::new(seed).child(1));
        let lang = ProperColoring::new(3);
        let reference = graph.nodes().all(|v| {
            let view = View::collect_io(&io, &ids, v, 1);
            let local_input = rlnc_core::labels::Labeling::new(
                (0..view.len()).map(|i| *view.input(i)).collect(),
            );
            let local_output = rlnc_core::labels::Labeling::new(
                (0..view.len()).map(|i| *view.output(i)).collect(),
            );
            let local_io = IoConfig::new(view.local_graph(), &local_input, &local_output);
            if !lang.is_bad_ball(&local_io, rlnc_graph::NodeId::from_index(view.center_local())) {
                true
            } else {
                !coins.for_center(&view).random_bool(0.7)
            }
        });
        prop_assert_eq!(engine, reference);
        let _ = RandomizedDecider::radius(&decider);
    }
}
