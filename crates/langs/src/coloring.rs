//! Proper `c`-coloring: the canonical LCL language of the paper.
//!
//! A configuration is a proper `c`-coloring when every node outputs a color
//! in `{1, ..., c}` different from all of its neighbors' colors. The bad
//! balls have radius 1: a ball is bad when the center's color is out of
//! range or collides with a neighbor. §4 of the paper uses (Δ+1)-coloring
//! and 3-coloring of the ring as its running examples.

use rlnc_core::language::is_bad_view;
use rlnc_core::prelude::*;
use rlnc_graph::NodeId;

/// The proper `c`-coloring language (colors are `1..=c`).
#[derive(Debug, Clone, Copy)]
pub struct ProperColoring {
    colors: u64,
}

impl ProperColoring {
    /// Proper coloring with `colors` available colors.
    pub fn new(colors: u64) -> Self {
        assert!(colors >= 1);
        ProperColoring { colors }
    }

    /// Number of available colors.
    pub fn colors(&self) -> u64 {
        self.colors
    }

    /// Returns `true` if `label` encodes a color in range.
    pub fn in_range(&self, label: &Label) -> bool {
        let c = label.as_u64();
        c >= 1 && c <= self.colors
    }
}

impl LclLanguage for ProperColoring {
    fn radius(&self) -> u32 {
        1
    }

    fn is_bad_ball(&self, io: &IoConfig<'_>, v: NodeId) -> bool {
        // Branchless over the neighborhood: one inline label compare per
        // neighbor, no early exit.
        let mine = io.output.get(v);
        if !self.in_range(mine) {
            return true;
        }
        let mut bad = false;
        for w in io.graph.neighbor_ids(v) {
            bad |= io.output.get(w) == mine;
        }
        bad
    }

    fn name(&self) -> String {
        format!("{}-coloring", self.colors)
    }
}

/// The one-round deterministic decider for proper coloring (the language is
/// in LD(1): compare your color with your neighbors').
#[derive(Debug, Clone, Copy)]
pub struct ColoringDecider {
    language: ProperColoring,
}

impl ColoringDecider {
    /// Decider for proper `colors`-coloring.
    pub fn new(colors: u64) -> Self {
        ColoringDecider {
            language: ProperColoring::new(colors),
        }
    }
}

impl LocalDecider for ColoringDecider {
    fn radius(&self) -> u32 {
        1
    }

    fn accepts(&self, view: &View) -> bool {
        !is_bad_view(&self.language, view)
    }

    fn name(&self) -> String {
        format!("{}-coloring-decider", self.language.colors())
    }
}

/// A *global* greedy coloring: collect the radius-`t` ball and greedily
/// color the whole ball by increasing identity, then output the color the
/// center received. When `t` is at least the diameter this is a correct
/// `(Δ+1)`-coloring (every node simulates the same global greedy run); for
/// smaller `t` it is the natural "non-local" baseline whose failures the
/// lower-bound experiments exhibit.
#[derive(Debug, Clone, Copy)]
pub struct GlobalGreedyColoring {
    radius: u32,
    colors: u64,
}

impl GlobalGreedyColoring {
    /// Greedy coloring over radius-`radius` views with `colors` colors.
    pub fn new(radius: u32, colors: u64) -> Self {
        GlobalGreedyColoring { radius, colors }
    }
}

impl LocalAlgorithm for GlobalGreedyColoring {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn output(&self, view: &View) -> Label {
        // Order the ball's nodes by identity and greedily assign the
        // smallest color not used by already-colored neighbors.
        let n = view.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| view.id(i));
        let graph = view.local_graph();
        let mut colors = vec![0u64; n];
        for &i in &order {
            let mut used: Vec<u64> = graph
                .neighbor_ids(NodeId::from_index(i))
                .map(|w| colors[w.index()])
                .filter(|&c| c != 0)
                .collect();
            used.sort_unstable();
            let mut candidate = 1u64;
            for c in used {
                if c == candidate {
                    candidate += 1;
                }
            }
            colors[i] = candidate.min(self.colors);
        }
        Label::from_u64(colors[view.center_local()])
    }

    fn name(&self) -> String {
        format!("global-greedy-{}-coloring(t={})", self.colors, self.radius)
    }
}

/// The canonical *order-invariant* constant-round coloring attempt: output
/// the rank of the center's identity within its radius-`t` ball, modulo the
/// number of colors (plus one). On the consecutive-identity cycle of §4
/// every node far from the identity seam has the same rank, so all those
/// nodes receive the same color — the concrete failure mode behind
/// Corollary 1's application.
#[derive(Debug, Clone, Copy)]
pub struct RankColoring {
    radius: u32,
    colors: u64,
}

impl RankColoring {
    /// Rank-based coloring over radius-`radius` views with `colors` colors.
    pub fn new(radius: u32, colors: u64) -> Self {
        assert!(colors >= 1);
        RankColoring { radius, colors }
    }
}

impl LocalAlgorithm for RankColoring {
    fn radius(&self) -> u32 {
        self.radius
    }

    fn output(&self, view: &View) -> Label {
        Label::from_u64((view.center_rank() as u64 % self.colors) + 1)
    }

    fn name(&self) -> String {
        format!("rank-{}-coloring(t={})", self.colors, self.radius)
    }
}

/// Counts the nodes that are improperly colored (their radius-1 ball is bad).
pub fn improperly_colored_nodes(language: &ProperColoring, io: &IoConfig<'_>) -> usize {
    rlnc_core::language::bad_ball_count(language, io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnc_core::decision::decide;
    use rlnc_core::Simulator;
    use rlnc_graph::generators::{cycle, grid, path};
    use rlnc_graph::IdAssignment;

    #[test]
    fn proper_coloring_language_detects_conflicts_and_range() {
        let g = cycle(6);
        let x = Labeling::empty(6);
        let lang = ProperColoring::new(3);
        let proper = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2) + 1));
        assert!(lang.contains(&IoConfig::new(&g, &x, &proper)));
        let out_of_range = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 2) * 4 + 1));
        assert!(!lang.contains(&IoConfig::new(&g, &x, &out_of_range)));
        let monochrome = Labeling::from_fn(&g, |_| Label::from_u64(2));
        let io = IoConfig::new(&g, &x, &monochrome);
        assert!(!lang.contains(&io));
        assert_eq!(improperly_colored_nodes(&lang, &io), 6);
        assert_eq!(LclLanguage::name(&lang), "3-coloring");
    }

    #[test]
    fn decider_agrees_with_language_on_cycles() {
        let g = cycle(9);
        let x = Labeling::empty(9);
        let ids = IdAssignment::consecutive(&g);
        let lang = ProperColoring::new(3);
        let decider = ColoringDecider::new(3);
        for (name, labeling) in [
            ("proper", Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 3) + 1))),
            ("monochrome", Labeling::from_fn(&g, |_| Label::from_u64(1))),
            ("out-of-range", Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0) + 1))),
        ] {
            let io = IoConfig::new(&g, &x, &labeling);
            assert_eq!(
                lang.contains(&io),
                decide(&decider, &io, &ids),
                "decider disagrees with language on {name}"
            );
        }
    }

    #[test]
    fn global_greedy_colors_properly_when_radius_covers_graph() {
        for graph in [cycle(12), path(9), grid(4, 4)] {
            let n = graph.node_count();
            let x = Labeling::empty(n);
            let ids = IdAssignment::random_permutation(&graph, &mut rand::rng());
            let inst = Instance::new(&graph, &x, &ids);
            let delta = graph.max_degree();
            let algo = GlobalGreedyColoring::new(32, delta as u64 + 1);
            let out = Simulator::new().run(&algo, &inst);
            let lang = ProperColoring::new(delta as u64 + 1);
            assert!(
                lang.contains(&IoConfig::new(&graph, &x, &out)),
                "global greedy must be proper when it sees the whole graph"
            );
        }
    }

    #[test]
    fn global_greedy_with_small_radius_can_fail() {
        let g = cycle(64);
        let x = Labeling::empty(64);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = GlobalGreedyColoring::new(1, 3);
        let out = Simulator::new().run(&algo, &inst);
        let lang = ProperColoring::new(3);
        assert!(
            !lang.contains(&IoConfig::new(&g, &x, &out)),
            "a 1-round greedy cannot 3-color the consecutive-ID cycle"
        );
    }

    #[test]
    fn rank_coloring_is_nearly_constant_on_consecutive_id_cycles() {
        // The §4 argument: all nodes whose ball avoids the identity seam
        // have identical rank, hence identical color.
        let n = 128;
        let t = 2;
        let g = cycle(n);
        let x = Labeling::empty(n);
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let algo = RankColoring::new(t, 3);
        let out = Simulator::new().run(&algo, &inst);
        let most_common = {
            let mut counts = std::collections::HashMap::new();
            for v in g.nodes() {
                *counts.entry(out.get(v).as_u64()).or_insert(0usize) += 1;
            }
            counts.into_values().max().unwrap()
        };
        assert!(
            most_common >= n - (2 * t as usize + 1),
            "at least n - (2t+1) nodes must share a color, got {most_common}"
        );
        let lang = ProperColoring::new(3);
        let bad = improperly_colored_nodes(&lang, &IoConfig::new(&g, &x, &out));
        assert!(bad >= n - 2 * (2 * t as usize + 1), "rank coloring must be massively improper");
    }

    #[test]
    fn rank_coloring_is_order_invariant() {
        use rlnc_core::order_invariant::{check_order_invariance, standard_monotone_maps};
        let g = cycle(20);
        let x = Labeling::empty(20);
        let ids = IdAssignment::consecutive(&g);
        let algo = RankColoring::new(1, 3);
        let maps = standard_monotone_maps();
        let refs: Vec<&dyn Fn(u64) -> u64> =
            maps.iter().map(|m| m.as_ref() as &dyn Fn(u64) -> u64).collect();
        assert!(check_order_invariance(&algo, &g, &x, &ids, &refs));
    }
}
