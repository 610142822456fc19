//! Percentiles that are only reported when the sample supports them.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending), or an error when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// The nearest rank is `ceil(q·n)`; the samples beyond it are the other
/// `n − ceil(q·n)`.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, but only {n} were completed",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_percentile_always_has_ten_samples_beyond_it() {
        for q in [0.5, 0.9, 0.99] {
            for n in 1..=2000u32 {
                let sorted: Vec<f64> = (0..n).map(f64::from).collect();
                match percentile(&sorted, q) {
                    Ok(v) => {
                        let beyond = sorted.iter().filter(|&&x| x > v).count();
                        assert!(beyond >= MIN_BEYOND, "q={q} n={n}: {beyond} beyond");
                    }
                    Err(_) => {
                        let (n, rank) = (n as usize, (q * f64::from(n)).ceil() as usize);
                        assert!(n - rank.max(1) < MIN_BEYOND, "q={q} n={n} refused");
                    }
                }
            }
        }
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let sorted: Vec<f64> = (0..99u32).map(f64::from).collect();
        assert!(percentile(&sorted, 0.9).is_err());
        let sorted: Vec<f64> = (0..100u32).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.9), Ok(89.0));
        assert_eq!(percentile(&sorted, 0.5), Ok(49.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
