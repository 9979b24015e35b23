//! Order statistics and the `-Oz` ratio convention.

/// 1-based nearest rank of the `per_mille` percentile among `n > 0`
/// samples. Integer arithmetic keeps the ladder exact (0.9 · 160 is not
/// 144 in floating point).
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice, in per mille
/// (`500` is the median, `900` is p90).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// The median of values in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

/// The tail percentile (per mille) to report for `n` samples: the highest
/// of p90, p99 and p99.9 with at least ten samples beyond it, or `None`
/// when even p90 has fewer.
pub fn tail_ladder(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    [999, 990, 900]
        .into_iter()
        .find(|&pm| n - rank(n, pm) >= 10)
}

/// `geomean(out / oz)` over `(out, oz)` pairs: below 1 when the outputs
/// are smaller (or faster) than `-Oz`, above 1 when larger. The paper's
/// percentage is `100 · (1 − ratio)`.
pub fn ratio_vs_oz(pairs: &[(f64, f64)]) -> f64 {
    let log_sum: f64 = pairs.iter().map(|&(out, oz)| (out / oz).ln()).sum();
    (log_sum / pairs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_picks_p90_at_160_and_p99_at_3840() {
        assert_eq!(tail_ladder(160), Some(900), "16 samples lie beyond p90");
        assert_eq!(tail_ladder(3_840), Some(990), "38 samples lie beyond p99");
        assert_eq!(tail_ladder(10_000), Some(999));
        assert_eq!(tail_ladder(99), None, "p90 of 99 has only 9 beyond");
        assert_eq!(tail_ladder(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 5.0);
        assert_eq!(percentile(&v, 900), 9.0);
        assert_eq!(percentile(&v, 999), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn below_one_means_smaller_or_faster_than_oz() {
        assert!((ratio_vs_oz(&[(90.0, 100.0), (45.0, 50.0)]) - 0.9).abs() < 1e-12);
        assert!(ratio_vs_oz(&[(110.0, 100.0)]) > 1.0);
        assert!((ratio_vs_oz(&[(7.0, 7.0), (3.0, 3.0)]) - 1.0).abs() < 1e-12);
        // geometric, not arithmetic: halving one and doubling another cancels
        assert!((ratio_vs_oz(&[(50.0, 100.0), (200.0, 100.0)]) - 1.0).abs() < 1e-12);
    }
}
