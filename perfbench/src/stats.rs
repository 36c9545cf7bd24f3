//! Order statistics and export digests.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile: the smallest sample with at least `q`% of
/// the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `q` outside `(0, 100]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 100.0, "percentile {q} outside (0, 100]");
    let sorted = sorted(values);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the nearest-rank `q`-th percentile.
pub fn samples_beyond(values: &[f64], q: f64) -> usize {
    let cut = percentile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones an external checker computes.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let data = sorted(values);
    let ld = data.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        out[slot] = (data[(j - 1) as usize] * (n - delta) as f64 + data[j as usize] * delta as f64)
            / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of an export document, as printed and compared.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[55.0, 55.0, 90.0, 90.0]), 72.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(samples_beyond(&v, 90.0), 10);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3.11:
        //   statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        //   statistics.quantiles([10,1,4,7,2], n=4)           == [1.5, 4.0, 8.5]
        //   statistics.quantiles([2.0, 4.0], n=4)             == [1.5, 3.0, 4.5]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[10.0, 1.0, 4.0, 7.0, 2.0]), [1.5, 4.0, 8.5]);
        assert_eq!(quartiles(&[2.0, 4.0]), [1.5, 3.0, 4.5]);
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn digests_are_stable_fnv1a() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert_eq!(digest("{}"), digest("{}"));
        assert_ne!(digest("{}"), digest("{ }"));
    }
}
