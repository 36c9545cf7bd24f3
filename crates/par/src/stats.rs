//! Summary statistics and confidence intervals for Monte-Carlo estimates.

/// A Bernoulli (probability) estimate with a Wilson score interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Number of successes observed.
    pub successes: u64,
    /// Number of trials run.
    pub trials: u64,
    /// Point estimate `successes / trials`.
    pub p_hat: f64,
    /// Lower end of the 95% Wilson score interval.
    pub lower: f64,
    /// Upper end of the 95% Wilson score interval.
    pub upper: f64,
}

impl Estimate {
    /// Builds an estimate from success/trial counts (95% interval).
    pub fn from_counts(successes: u64, trials: u64) -> Self {
        assert!(trials > 0, "cannot estimate a probability from zero trials");
        assert!(successes <= trials);
        let p_hat = successes as f64 / trials as f64;
        let (lower, upper) = wilson_interval(successes, trials, 1.959_964);
        Estimate {
            successes,
            trials,
            p_hat,
            lower,
            upper,
        }
    }

    /// Half-width of the confidence interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Returns `true` if the interval contains `value`.
    pub fn covers(&self, value: f64) -> bool {
        self.lower <= value && value <= self.upper
    }
}

/// Wilson score interval for a binomial proportion.
///
/// `z` is the standard-normal quantile (1.96 for 95%). The Wilson interval
/// behaves sensibly for proportions near 0 and 1, which matters here
/// because many of the paper's probabilities (e.g. acceptance of glued
/// instances) are driven toward the extremes.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample variance (unbiased; 0 for fewer than two values).
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Summary statistics of a sample of real values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns a zeroed summary for an empty sample.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        Summary {
            count: values.len(),
            mean: mean(values),
            std_dev: variance(values).sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_from_counts() {
        let e = Estimate::from_counts(618, 1000);
        assert!((e.p_hat - 0.618).abs() < 1e-12);
        assert!(e.lower < 0.618 && 0.618 < e.upper);
        assert!(e.covers(0.62));
        assert!(e.half_width() < 0.04);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn estimate_requires_trials() {
        let _ = Estimate::from_counts(0, 0);
    }

    #[test]
    fn wilson_interval_extremes() {
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert!(lo < 1e-9);
        assert!(hi < 0.05);
        let (lo, hi) = wilson_interval(100, 100, 1.96);
        assert!(lo > 0.95);
        assert!(hi > 1.0 - 1e-9 || hi <= 1.0);
        assert!(hi >= lo && hi <= 1.0);
    }

    #[test]
    fn wilson_interval_shrinks_with_trials() {
        let (lo1, hi1) = wilson_interval(50, 100, 1.96);
        let (lo2, hi2) = wilson_interval(5000, 10000, 1.96);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
    }
}
