//! Frugal coloring (§4).
//!
//! A `c`-frugal proper coloring is a proper coloring in which no color
//! appears more than `c` times in the neighborhood of any node. The paper
//! brings it up to illustrate that *locally fixing* a language — repairing
//! a bounded number of faulty nodes in constant time — can be non-trivial
//! even for languages in LD, which is why Corollary 1's general argument
//! (rather than ad-hoc local fixing) is needed.

use crate::coloring::ProperColoring;
use rlnc_core::prelude::*;
use rlnc_graph::NodeId;

/// The `c`-frugal proper `colors`-coloring language (radius 1).
#[derive(Debug, Clone, Copy)]
pub struct FrugalColoring {
    proper: ProperColoring,
    frugality: usize,
}

impl FrugalColoring {
    /// Proper `colors`-coloring where each color appears at most
    /// `frugality` times in any neighborhood.
    pub fn new(colors: u64, frugality: usize) -> Self {
        assert!(colors >= 1 && frugality >= 1);
        FrugalColoring {
            proper: ProperColoring::new(colors),
            frugality,
        }
    }

    /// Palette size.
    pub fn colors(&self) -> u64 {
        self.proper.colors()
    }
}

impl LclLanguage for FrugalColoring {
    fn radius(&self) -> u32 {
        1
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        if self.proper.is_bad_ball(io, v) {
            return true;
        }
        // Color multiplicity by pairwise counting over the (bounded-degree)
        // neighborhood: O(deg²), allocation-free. Colors are grouped by
        // decoded value (`as_u64`): byte equality would split non-canonical
        // encodings of the same color.
        let color = |w: NodeId| io.output.get(w).as_u64();
        io.graph.neighbor_ids(v).any(|w| {
            let c = color(w);
            io.graph.neighbor_ids(v).filter(|&u| color(u) == c).count() > self.frugality
        })
    }

    fn name(&self) -> String {
        format!("{}-frugal-{}-coloring", self.frugality, self.colors())
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
        assert!(!FrugalColoring::new(6, 5).contains(&io));
        assert!(!FrugalColoring::new(6, 2).contains(&io));
        // Spreading the leaves over three colors is 2-frugal.
        let spread = Labeling::from_fn(&g, |v| {
            Label::from_u64(if v.0 == 0 { 1 } else { 2 + u64::from(v.0 % 3) })
        });
        let io = IoConfig::new(&g, &x, &spread);
        assert!(FrugalColoring::new(6, 2).contains(&io));
    }

    #[test]
    fn view_native_verdict_groups_colors_by_decoded_value() {
        use rlnc_core::language::is_bad_view;
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
            assert_eq!(is_bad_view(&lang, &view), lang.is_bad_ball(&io, center));
        }
        // Distinct decoded colors: good on both paths.
        y.set(rlnc_graph::NodeId(2), Label::from_u64(3));
        let io = IoConfig::new(&g, &x, &y);
        assert!(!lang.is_bad_ball(&io, center));
        let view = View::collect_io(&io, &ids, center, 1);
        assert!(!is_bad_view(&lang, &view));
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
        assert!(LclLanguage::name(&FrugalColoring::new(4, 3)).contains("frugal"));
    }
}
