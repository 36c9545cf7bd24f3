//! Parallel Monte-Carlo trial execution.
//!
//! [`MonteCarlo`] runs `N` independent trials of a user closure. Each trial
//! receives a [`SeedSequence`] derived from `(master seed, trial index)`,
//! so results do not depend on the parallel schedule. The trials go
//! through [`pool::map`]: the runner cannot see a trial's work, so it
//! counts each trial as a full [`FAN_OUT_WORK`] and fans out whenever it
//! is not already inside a pool task — nesting Monte-Carlo loops never
//! multiplies thread counts, and never changes a result.

use crate::pool::{self, FAN_OUT_WORK};
use crate::rng::SeedSequence;
use crate::stats::{Estimate, Summary};

/// Outcome of a single Monte-Carlo trial when more than a boolean is needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Whether the trial counts as a success.
    pub success: bool,
    /// A real-valued measurement attached to the trial (e.g. fraction of
    /// properly colored nodes, number of rejecting nodes).
    pub value: f64,
}

impl TrialOutcome {
    /// A purely boolean outcome.
    pub fn from_bool(success: bool) -> Self {
        TrialOutcome {
            success,
            value: if success { 1.0 } else { 0.0 },
        }
    }
}

/// A Monte-Carlo experiment configuration: number of trials and master
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    trials: u64,
    master_seed: u64,
}

impl MonteCarlo {
    /// Creates a runner with the given number of trials and a fixed default
    /// seed (reproducible by default).
    pub fn new(trials: u64) -> Self {
        assert!(trials > 0, "at least one trial is required");
        MonteCarlo {
            trials,
            master_seed: 0x5AA5_1DE0_2015_0627, // SPAA 2015 vintage
        }
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Runs a boolean-valued experiment and returns the probability
    /// estimate of `trial` returning `true`.
    pub fn estimate<F>(&self, trial: F) -> Estimate
    where
        F: Fn(SeedSequence) -> bool + Sync,
    {
        let successes = self.map_trials(trial).into_iter().filter(|&s| s).count() as u64;
        Estimate::from_counts(successes, self.trials)
    }

    /// Runs a real-valued experiment and returns summary statistics of the
    /// per-trial values.
    pub fn summarize<F>(&self, trial: F) -> Summary
    where
        F: Fn(SeedSequence) -> f64 + Sync,
    {
        Summary::of(&self.map_trials(trial))
    }

    /// Maps every trial's seed through `trial`, in trial order, through
    /// [`pool::map`] — each trial counting as a full [`FAN_OUT_WORK`],
    /// since the runner cannot see a trial's work.
    fn map_trials<T, F>(&self, trial: F) -> Vec<T>
    where
        T: Send,
        F: Fn(SeedSequence) -> T + Sync,
    {
        let work = self.trials.saturating_mul(FAN_OUT_WORK);
        pool::map(self.trials as usize, work, |i| {
            trial(self.trial_seed(i as u64))
        })
    }

    /// Seed sequence handed to trial `i`.
    pub fn trial_seed(&self, i: u64) -> SeedSequence {
        SeedSequence::new(self.master_seed).child(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn estimate_of_fair_coin_is_near_half() {
        let mc = MonteCarlo::new(20_000).with_seed(1);
        let e = mc.estimate(|seq| seq.rng().random_bool(0.5));
        assert!(e.covers(0.5), "estimate {:?} should cover 0.5", e);
        assert!(e.half_width() < 0.02);
    }

    #[test]
    fn parallel_and_sequential_agree_exactly() {
        let trial = |seq: SeedSequence| seq.rng().random_bool(0.37);
        let mc = MonteCarlo::new(5_000).with_seed(7);
        let par = mc.estimate(trial);
        let seq = (0..5_000).filter(|&i| trial(mc.trial_seed(i))).count() as u64;
        assert_eq!(par.successes, seq);
    }

    #[test]
    fn different_seeds_give_different_counts() {
        let trial = |seq: SeedSequence| seq.rng().random_bool(0.5);
        let a = MonteCarlo::new(2_000).with_seed(1).estimate(trial);
        let b = MonteCarlo::new(2_000).with_seed(2).estimate(trial);
        assert_ne!(a.successes, b.successes);
    }

    #[test]
    fn summarize_means_match_expectation() {
        let mc = MonteCarlo::new(10_000).with_seed(3);
        let s = mc.summarize(|seq| {
            let mut rng = seq.rng();
            rng.random_range(0.0..1.0)
        });
        assert!((s.mean - 0.5).abs() < 0.02);
        assert_eq!(s.count, 10_000);
    }

    #[test]
    fn outcome_from_bool() {
        assert_eq!(TrialOutcome::from_bool(true).value, 1.0);
        assert!(!TrialOutcome::from_bool(false).success);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = MonteCarlo::new(0);
    }
}
