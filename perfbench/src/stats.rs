//! Order statistics and the attempted/failed tally.
//!
//! Percentiles use the same "exclusive" method as Python's
//! `statistics.quantiles(values, n=4)`, so the quartiles a run prints are
//! the ones a reader recomputes from the per-run values.

/// Median of `values` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values)?;
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// (method "exclusive") gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values)?;
    if v.len() < 2 {
        return None;
    }
    Some((exclusive_quantile(&v, 1, 4), exclusive_quantile(&v, 3, 4)))
}

/// Interquartile range as a share of the median — the spread measure
/// the benchmark's bounds are stated in.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    Some((q3 - q1) / m.abs())
}

fn exclusive_quantile(sorted: &[f64], i: usize, n: usize) -> f64 {
    // statistics.quantiles, method='exclusive': m = len + 1,
    // j = i*m // n, delta = i*m - j*n, interpolate data[j-1], data[j].
    let m = sorted.len() + 1;
    let j = (i * m / n).clamp(1, sorted.len() - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}

/// The `p`-th percentile (0 < p < 100) by nearest rank on sorted data:
/// the smallest sample with at least `p` % of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values)?;
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest percentile, from the ladder 50, 90, 99, 99.9, ..., that
/// still leaves at least ten samples beyond it, together with the sample
/// count. `None` when fewer than 40 samples exist: below that, a tail
/// figure would rest on a handful of samples and only the median is
/// reported.
pub fn highest_supported_percentile(count: usize) -> Option<(f64, usize)> {
    if count < 40 {
        return None;
    }
    let best = [90.0, 99.0, 99.9, 99.99, 99.999, 99.9999]
        .into_iter()
        .take_while(|&p| count as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
        .last()
        .unwrap_or(50.0);
    Some((best, count))
}

/// Operations attempted and failed over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations the run started.
    pub attempted: u64,
    /// Operations that ended without a valid answer.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Failed share of attempted operations (0 when nothing was tried).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some((50.0, 40)));
        assert_eq!(highest_supported_percentile(100), Some((90.0, 100)));
        assert_eq!(highest_supported_percentile(999), Some((90.0, 999)));
        assert_eq!(highest_supported_percentile(1000), Some((99.0, 1000)));
        assert_eq!(
            highest_supported_percentile(250_000),
            Some((99.99, 250_000))
        );
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.ok(99);
        t.fail();
        assert_eq!((t.attempted, t.failed), (100, 1));
        assert_eq!(t.failed_share(), 0.01);
    }
}
