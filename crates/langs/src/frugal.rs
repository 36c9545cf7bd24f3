//! Frugal coloring (§4).
//!
//! A `c`-frugal proper coloring is a proper coloring in which no color
//! appears more than `c` times in the neighborhood of any node. The paper
//! brings it up to illustrate that *locally fixing* a language — repairing
//! a bounded number of faulty nodes in constant time — can be non-trivial
//! even for languages in LD, which is why Corollary 1's general argument
//! (rather than ad-hoc local fixing) is needed.

use rlnc_core::prelude::*;
use rlnc_graph::NodeId;
use std::collections::HashMap;

/// The `c`-frugal proper `colors`-coloring language (radius 1).
#[derive(Debug, Clone, Copy)]
pub struct FrugalColoring {
    colors: u64,
    frugality: usize,
}

impl FrugalColoring {
    /// Proper `colors`-coloring where each color appears at most
    /// `frugality` times in any neighborhood.
    pub fn new(colors: u64, frugality: usize) -> Self {
        assert!(colors >= 1 && frugality >= 1);
        FrugalColoring { colors, frugality }
    }

    /// Palette size.
    pub fn colors(&self) -> u64 {
        self.colors
    }

    /// Maximum allowed multiplicity of a color in a neighborhood.
    pub fn frugality(&self) -> usize {
        self.frugality
    }

    /// Largest multiplicity of any color in the neighborhood of `v`.
    pub fn neighborhood_multiplicity(io: &IoConfig<'_>, v: NodeId) -> usize {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for w in io.graph.neighbor_ids(v) {
            *counts.entry(io.output.get(w).as_u64()).or_insert(0) += 1;
        }
        counts.into_values().max().unwrap_or(0)
    }
}

impl LclLanguage for FrugalColoring {
    fn radius(&self) -> u32 {
        1
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        let mine = io.output.get(v);
        let c = mine.as_u64();
        if c < 1 || c > self.colors {
            return true;
        }
        if io.graph.neighbor_ids(v).any(|w| io.output.get(w) == mine) {
            return true;
        }
        Self::neighborhood_multiplicity(io, v) > self.frugality
    }

    fn is_bad_view(&self, view: &View) -> bool {
        let mine = view.output(view.center_local());
        let c = mine.as_u64();
        if c < 1 || c > self.colors {
            return true;
        }
        let mut conflict = false;
        for i in view.center_neighbor_indices() {
            conflict |= view.output(i) == mine;
        }
        if conflict {
            return true;
        }
        // Neighborhood multiplicity without the hash map: O(deg²) pairwise
        // counting over the (bounded-degree) neighborhood, allocation-free.
        // Colors are compared by decoded value (`as_u64`), matching
        // `neighborhood_multiplicity`'s grouping key — byte equality would
        // diverge on non-canonical encodings of the same color.
        view.center_neighbor_indices().any(|i| {
            let color = view.output(i).as_u64();
            view.center_neighbor_indices()
                .filter(|&j| view.output(j).as_u64() == color)
                .count()
                > self.frugality
        })
    }

    fn name(&self) -> String {
        format!("{}-frugal-{}-coloring", self.frugality, self.colors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_graph::generators::star;

    #[test]
    fn frugal_coloring_bounds_color_multiplicity() {
        // Star with 6 leaves: center color 1. Giving all leaves color 2 is a
        // proper 2-coloring but not 2-frugal at the center.
        let g = star(7);
        let x = Labeling::empty(7);
        let all_same = Labeling::from_fn(&g, |v| Label::from_u64(if v.0 == 0 { 1 } else { 2 }));
        let io = IoConfig::new(&g, &x, &all_same);
        assert!(FrugalColoring::new(6, 6).contains(&io));
        assert!(!FrugalColoring::new(6, 2).contains(&io));
        assert_eq!(FrugalColoring::neighborhood_multiplicity(&io, rlnc_graph::NodeId(0)), 6);
        // Spreading the leaves over three colors is 2-frugal.
        let spread = Labeling::from_fn(&g, |v| {
            Label::from_u64(if v.0 == 0 { 1 } else { 2 + u64::from(v.0 % 3) })
        });
        let io = IoConfig::new(&g, &x, &spread);
        assert!(FrugalColoring::new(6, 2).contains(&io));
    }

    #[test]
    fn view_native_verdict_groups_colors_by_decoded_value() {
        use rlnc_core::view::View;
        use rlnc_graph::IdAssignment;
        // Two leaves carry the same color 2 under different byte encodings
        // ([2] vs [0, 2]); the multiplicity count must still see one color
        // class of size 2 on both verdict paths.
        let g = star(3);
        let x = Labeling::empty(3);
        let mut y = Labeling::new(vec![
            Label::from_u64(1),
            Label::from_u64(2),
            Label::from_bytes(vec![0u8, 2]),
        ]);
        let lang = FrugalColoring::new(3, 1);
        let ids = IdAssignment::consecutive(&g);
        let center = rlnc_graph::NodeId(0);
        {
            let io = IoConfig::new(&g, &x, &y);
            assert!(lang.is_bad_ball(&io, center), "multiplicity 2 > frugality 1");
            let view = View::collect_io(&io, &ids, center, 1);
            assert_eq!(lang.is_bad_view(&view), lang.is_bad_ball(&io, center));
        }
        // Distinct decoded colors: good on both paths.
        y.set(rlnc_graph::NodeId(2), Label::from_u64(3));
        let io = IoConfig::new(&g, &x, &y);
        assert!(!lang.is_bad_ball(&io, center));
        let view = View::collect_io(&io, &ids, center, 1);
        assert!(!lang.is_bad_view(&view));
    }

    #[test]
    fn frugal_coloring_still_requires_properness_and_range() {
        let g = star(4);
        let x = Labeling::empty(4);
        let conflict = Labeling::from_fn(&g, |_| Label::from_u64(1));
        assert!(!FrugalColoring::new(4, 3).contains(&IoConfig::new(&g, &x, &conflict)));
        let out_of_range = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) + 7));
        assert!(!FrugalColoring::new(4, 3).contains(&IoConfig::new(&g, &x, &out_of_range)));
        assert_eq!(FrugalColoring::new(4, 3).colors(), 4);
        assert_eq!(FrugalColoring::new(4, 3).frugality(), 3);
        assert!(LclLanguage::name(&FrugalColoring::new(4, 3)).contains("frugal"));
    }
}
