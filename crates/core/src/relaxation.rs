//! Relaxations of LCL languages: `ε`-slack and `f`-resilient (§1.1 and §4).
//!
//! * The **ε-slack relaxation** tolerates that an ε-fraction of the nodes
//!   output values violating the specification: `(G,(x,y))` belongs to the
//!   relaxation iff the number of bad balls is at most `ε · n`. The paper
//!   shows randomization *helps* for this relaxation (a zero-round random
//!   coloring achieves it with constant probability, no deterministic
//!   constant-round algorithm does).
//! * The **f-resilient relaxation** `L_f` (Definition 1) tolerates at most
//!   `f` bad balls, a constant independent of `n`. The paper's Corollary 1
//!   shows randomization does *not* help for this relaxation, because `L_f`
//!   is in BPLD (see [`crate::resilient`]) and Theorem 1 applies.
//!
//! Neither relaxation of a non-trivial LCL is itself locally checkable:
//! counting bad balls against a global threshold is a global property. They
//! are therefore exposed as [`DistributedLanguage`]s (global predicates),
//! not as [`LclLanguage`]s.

use crate::config::IoConfig;
use crate::language::{bad_ball_count, DistributedLanguage, LclLanguage};

/// The `f`-resilient relaxation `L_f` of an LCL language `L`: at most `f`
/// balls of `(G,(x,y))` belong to `Bad(L)`.
#[derive(Debug, Clone)]
pub struct FResilient<L> {
    inner: L,
    f: usize,
}

impl<L: LclLanguage> FResilient<L> {
    /// Wraps an LCL language into its `f`-resilient relaxation.
    pub fn new(inner: L, f: usize) -> Self {
        FResilient { inner, f }
    }
}

impl<L: LclLanguage> DistributedLanguage for FResilient<L> {
    fn contains(&self, io: &IoConfig<'_>) -> bool {
        // Early-exit count: stop as soon as f + 1 bad balls are seen.
        let mut bad = 0usize;
        for v in io.graph.nodes() {
            if self.inner.is_bad_ball(io, v) {
                bad += 1;
                if bad > self.f {
                    return false;
                }
            }
        }
        true
    }

    fn name(&self) -> String {
        format!("{}-resilient({})", self.f, LclLanguage::name(&self.inner))
    }
}

/// The ε-slack relaxation of an LCL language `L`: at most `ε · n` bad balls.
#[derive(Debug, Clone)]
pub struct EpsilonSlack<L> {
    inner: L,
    epsilon: f64,
}

impl<L: LclLanguage> EpsilonSlack<L> {
    /// Wraps an LCL language into its ε-slack relaxation.
    ///
    /// # Panics
    /// Panics if `epsilon` is outside `[0, 1]`.
    pub fn new(inner: L, epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must lie in [0, 1]");
        EpsilonSlack { inner, epsilon }
    }

    /// The absolute number of bad balls tolerated on an `n`-node graph.
    pub fn tolerance_for(&self, n: usize) -> usize {
        (self.epsilon * n as f64).floor() as usize
    }
}

impl<L: LclLanguage> DistributedLanguage for EpsilonSlack<L> {
    fn contains(&self, io: &IoConfig<'_>) -> bool {
        bad_ball_count(&self.inner, io) <= self.tolerance_for(io.node_count())
    }

    fn name(&self) -> String {
        format!("{:.2}-slack({})", self.epsilon, LclLanguage::name(&self.inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, Labeling};
    use crate::language::FnLcl;
    use rlnc_graph::generators::cycle;
    use rlnc_graph::NodeId;

    fn coloring_lcl() -> FnLcl<impl Fn(&IoConfig<'_>, NodeId) -> bool + Sync> {
        FnLcl::new("proper-coloring", 1, |io: &IoConfig<'_>, v: NodeId| {
            io.graph
                .neighbor_ids(v)
                .any(|w| io.output.get(w) == io.output.get(v))
        })
    }

    /// A 2-coloring of C_12 with a block of `bad_pairs` monochromatic edges
    /// planted at the start.
    fn coloring_with_conflicts(n: usize, monochrome_prefix: usize) -> (rlnc_graph::Graph, Labeling, Labeling) {
        let g = cycle(n);
        let x = Labeling::empty(n);
        let y = Labeling::from_fn(&g, |v| {
            if (v.0 as usize) < monochrome_prefix {
                Label::from_u64(1)
            } else {
                Label::from_u64(u64::from(v.0 % 2))
            }
        });
        (g, x, y)
    }

    #[test]
    fn proper_coloring_is_in_every_relaxation() {
        let (g, x, y) = coloring_with_conflicts(12, 0);
        let io = IoConfig::new(&g, &x, &y);
        let lang = coloring_lcl();
        assert!(lang.contains(&io));
        assert!(FResilient::new(coloring_lcl(), 0).contains(&io));
        assert!(EpsilonSlack::new(coloring_lcl(), 0.0).contains(&io));
    }

    #[test]
    fn f_resilient_counts_bad_balls() {
        // Prefix of 4 nodes all colored 1 on C_12: nodes 0..=4 have a
        // monochromatic neighbor (node 4's neighbor 3 is colored 1; node 0's
        // neighbor 11 is colored 1 since 11 % 2 = 1), so the bad-ball count
        // is computed once and compared against f.
        let (g, x, y) = coloring_with_conflicts(12, 4);
        let io = IoConfig::new(&g, &x, &y);
        let lang = coloring_lcl();
        let bad = crate::language::bad_ball_count(&lang, &io);
        assert!(bad >= 4);
        assert!(!FResilient::new(coloring_lcl(), bad - 1).contains(&io));
        assert!(FResilient::new(coloring_lcl(), bad).contains(&io));
        assert!(FResilient::new(coloring_lcl(), bad + 3).contains(&io));
        assert!(FResilient::new(coloring_lcl(), bad).name().contains("resilient"));
    }

    #[test]
    fn epsilon_slack_scales_with_n() {
        let (g, x, y) = coloring_with_conflicts(20, 4);
        let io = IoConfig::new(&g, &x, &y);
        let lang = coloring_lcl();
        let bad = crate::language::bad_ball_count(&lang, &io);
        let frac = bad as f64 / 20.0;
        let slack_tight = EpsilonSlack::new(coloring_lcl(), frac - 0.05);
        let slack_loose = EpsilonSlack::new(coloring_lcl(), frac + 0.05);
        assert!(!slack_tight.contains(&io));
        assert!(slack_loose.contains(&io));
        assert_eq!(slack_loose.tolerance_for(100), ((frac + 0.05) * 100.0).floor() as usize);
        assert!(slack_loose.name().contains("slack"));
    }

    #[test]
    fn relaxation_monotonicity() {
        // L ⊆ L_f ⊆ L_{f+1} and L_f ⊆ (f/n)-slack for every configuration.
        for prefix in 0..6 {
            let (g, x, y) = coloring_with_conflicts(16, prefix);
            let io = IoConfig::new(&g, &x, &y);
            let base = coloring_lcl();
            for f in 0..6 {
                let lf = FResilient::new(coloring_lcl(), f);
                let lf1 = FResilient::new(coloring_lcl(), f + 1);
                if base.contains(&io) {
                    assert!(lf.contains(&io));
                }
                if lf.contains(&io) {
                    assert!(lf1.contains(&io));
                    let eps = EpsilonSlack::new(coloring_lcl(), f as f64 / 16.0);
                    assert!(eps.contains(&io));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_out_of_range_rejected() {
        let _ = EpsilonSlack::new(coloring_lcl(), 1.5);
    }
}
