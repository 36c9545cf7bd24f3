//! Structured sweep results: one [`RunRecord`] per grid point, bundled
//! into a [`SweepRun`] with the scenario metadata needed to reproduce it.

/// The result of all Monte-Carlo trials at one grid point.
///
/// Records are plain data: every field either identifies the grid point
/// (scenario, point index, family, size, identity scheme, workload,
/// parameters, seed) or reports the measurement (trial count, successes,
/// Wilson interval, mean trial value). Equality is exact, which is what
/// the resume path and the JSON round-trip tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Scenario name this record belongs to.
    pub scenario: String,
    /// Grid-point index within the scenario's enumeration order.
    pub point: u64,
    /// Graph family name (see [`rlnc_graph::generators::Family::name`]).
    pub family: String,
    /// Target node count of the grid point.
    pub n: u64,
    /// Identity-scheme name.
    pub id_scheme: String,
    /// Workload kernel name.
    pub workload: String,
    /// Primary workload parameter.
    pub param_a: u64,
    /// Secondary workload parameter.
    pub param_b: u64,
    /// Number of Monte-Carlo trials run.
    pub trials: u64,
    /// The grid point's seed (the raw state of its [`rlnc_par::SeedSequence`]
    /// branch) — together with the scenario name this pins every trial's
    /// random stream.
    pub seed: u64,
    /// Number of successful trials.
    pub successes: u64,
    /// Point estimate `successes / trials`.
    pub p_hat: f64,
    /// Lower end of the 95% Wilson score interval.
    pub lower: f64,
    /// Upper end of the 95% Wilson score interval.
    pub upper: f64,
    /// Mean of the per-trial real values (for kernels that measure more
    /// than a boolean, e.g. the improper-node fraction).
    pub mean_value: f64,
}

/// A completed sweep: scenario metadata plus one record per grid point, in
/// grid enumeration order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Workload kernel name.
    pub workload: String,
    /// The scale the sweep ran at (`smoke`/`standard`/`full`).
    pub scale: String,
    /// The executor's master seed.
    pub master_seed: u64,
    /// One record per grid point.
    pub records: Vec<RunRecord>,
}

impl SweepRun {
    /// Renders the run as a GitHub-flavoured markdown section.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## sweep `{}` — {}\n\n*workload:* {} · *scale:* {} · *master seed:* {}\n\n",
            self.scenario, self.description, self.workload, self.scale, self.master_seed
        );
        out.push_str("| point | family | n | ids | a | b | trials | successes | p̂ | 95% CI | mean value |\n");
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
        for r in &self.records {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {:.4} | [{:.4}, {:.4}] | {:.4} |\n",
                r.point,
                r.family,
                r.n,
                r.id_scheme,
                r.param_a,
                r.param_b,
                r.trials,
                r.successes,
                r.p_hat,
                r.lower,
                r.upper,
                r.mean_value
            ));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn demo_record(point: u64) -> RunRecord {
        RunRecord {
            scenario: "demo".into(),
            point,
            family: "cycle".into(),
            n: 36,
            id_scheme: "consecutive".into(),
            workload: "slack-coloring".into(),
            param_a: 0,
            param_b: 0,
            trials: 100,
            seed: 0xDEAD_BEEF_0BAD_F00D,
            successes: 61,
            p_hat: 0.61,
            lower: 0.512,
            upper: 0.7,
            mean_value: 0.55,
        }
    }

    #[test]
    fn markdown_rendering_includes_every_record() {
        let run = SweepRun {
            scenario: "demo".into(),
            description: "demo sweep".into(),
            workload: "slack-coloring".into(),
            scale: "smoke".into(),
            master_seed: 42,
            records: vec![demo_record(0), demo_record(1)],
        };
        let md = run.to_markdown();
        assert!(md.contains("sweep `demo`"));
        assert_eq!(md.matches("| cycle |").count(), 2);
        assert!(md.contains("0.6100"));
    }
}
