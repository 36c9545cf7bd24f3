//! Experiment scales: one knob that trades confidence-interval width for
//! wall-clock time.
//!
//! Every Monte-Carlo workload in the workspace (the E1–E10 experiment
//! drivers, the scenario sweeps, the bench export) sizes itself
//! from a base trial count and a base graph size; [`Scale`] is the single
//! place where those bases are multiplied up or down. Keeping the
//! multipliers here — rather than re-deriving them per harness — guarantees
//! that "smoke" means the same thing to the CLI, the bench export, and
//! the sweep executor.

use serde::{Deserialize, Serialize};

/// How much work an experiment run should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Minimal sizes and trial counts — used by unit/integration tests.
    Smoke,
    /// The default scale used by the `rlnc-experiments` binary and benches.
    Standard,
    /// Larger sizes and trial counts for tighter confidence intervals.
    Full,
}

impl Scale {
    /// All scales, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Smoke, Scale::Standard, Scale::Full];

    /// Multiplies a base Monte-Carlo trial count according to the scale.
    pub fn trials(&self, base: u64) -> u64 {
        match self {
            Scale::Smoke => (base / 20).max(20),
            Scale::Standard => base,
            Scale::Full => base * 5,
        }
    }

    /// Scales a graph size.
    pub fn size(&self, base: usize) -> usize {
        match self {
            Scale::Smoke => (base / 4).max(8),
            Scale::Standard => base,
            Scale::Full => base * 4,
        }
    }

    /// The lower-case name used on the command line (`smoke`, `standard`,
    /// `full`).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses the command-line spelling of a scale (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (expected smoke|standard|full)")),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_adjusts_counts() {
        assert_eq!(Scale::Standard.trials(1000), 1000);
        assert!(Scale::Smoke.trials(1000) < 200);
        assert_eq!(Scale::Full.trials(1000), 5000);
        assert_eq!(Scale::Smoke.size(64), 16);
        assert_eq!(Scale::Full.size(64), 256);
        // Smoke never collapses to zero work.
        assert_eq!(Scale::Smoke.trials(1), 20);
        assert_eq!(Scale::Smoke.size(1), 8);
    }

    #[test]
    fn scale_parses_cli_spellings() {
        assert_eq!("smoke".parse::<Scale>().unwrap(), Scale::Smoke);
        assert_eq!("Standard".parse::<Scale>().unwrap(), Scale::Standard);
        assert_eq!(" FULL ".parse::<Scale>().unwrap(), Scale::Full);
        assert!("warp".parse::<Scale>().is_err());
        for scale in Scale::ALL {
            assert_eq!(scale.name().parse::<Scale>().unwrap(), scale);
            assert_eq!(format!("{scale}"), scale.name());
        }
    }
}
