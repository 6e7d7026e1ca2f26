//! Order statistics for host-time samples.

/// Fewest samples that must lie beyond a reported percentile: a tail
/// thinner than this is one or two outliers, not a percentile.
pub const MIN_TAIL: usize = 10;

/// Median of a sample (the mean of the middle pair when the count is
/// even); 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL`] samples lie beyond the rank, so
/// a p95 needs at least 200 samples.
pub fn percentile(xs: &[f64], pct: usize) -> Result<f64, String> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let n = xs.len();
    // Integer ceil(pct·n/100): a float product can land a hair above an
    // exact rank and push it one sample further out.
    let rank = (pct * n).div_ceil(100);
    let beyond = n - rank;
    if rank == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it; need at least {MIN_TAIL}"
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// `num / den`, or 0 when there is nothing to divide by (a layer that
/// handled no events of a kind costs nothing per event).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        let err = percentile(&xs, 95).expect_err("199 samples leave 9 beyond p95");
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&xs[..100], 95).is_err());
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn p95_of_two_hundred_samples_leaves_exactly_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95), Ok(190.0));
        assert_eq!(percentile(&xs, 50), Ok(100.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
