//! Order statistics shared by every workload report.

/// The `p`-th percentile (`p` in `[0, 100]`) of `samples`, interpolating
/// linearly between the two closest ranks (the "type 7" definition of
/// NumPy and R). `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The arithmetic mean of `samples`. `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The three quartile cut points of `samples` exactly as Python's
/// `statistics.quantiles(samples, n=4)` (its default "exclusive" method)
/// computes them, so spreads reported here agree with a Python reader of
/// the same numbers, including its clamping of the outer ranks. `None`
/// for fewer than two samples, which Python rejects too.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..=3i64).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile range as a share of the median — the run-to-run spread
/// measure the benchmark's bounds are stated in.
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|[q1, q2, q3]| (q3 - q1) / q2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        // rank 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_count_is_the_middle_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0, 7.0, 3.0]), 5.0);
    }

    #[test]
    fn mean_weighs_every_sample() {
        assert_eq!(mean(&[9.0, 1.0, 5.0, 7.0, 3.0]), 5.0);
        // A bimodal sample: the median sits in the larger mode, the mean
        // moves with the share of each.
        let mixed = [33.0, 33.0, 33.0, 47.0, 47.0];
        assert_eq!(median(&mixed), 33.0);
        assert!((mean(&mixed) - 38.6).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3:
        //   statistics.quantiles([1..10], n=4)       == [2.75, 5.5, 8.25]
        //   statistics.quantiles([3, 1, 2], n=4)     == [1.0, 2.0, 3.0]
        //   statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        //   statistics.quantiles([1, 5], n=4)        == [0.0, 3.0, 6.0]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0, 5.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&ten), Some((8.25 - 2.75) / 5.5));
    }
}
