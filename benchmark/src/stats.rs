//! Order statistics for timing samples.

/// Percentiles the harness will report, lowest first, in tenths of a
/// percent so the "ten samples beyond" test is exact integer arithmetic.
const CANDIDATES_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Sort `xs` ascending (timings are finite, so the order is total).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Percentile `p` in `[0, 100]` of an ascending-sorted, non-empty
/// sample, linearly interpolated between the two nearest ranks.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample (sorts a copy).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Distance between the first and third quartile as a share of the
/// median; `0` for fewer than two samples or a zero median.
#[must_use]
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let med = percentile(&v, 50.0);
    if med == 0.0 {
        return 0.0;
    }
    (percentile(&v, 75.0) - percentile(&v, 25.0)) / med.abs()
}

/// The highest reportable percentile that still has at least ten
/// independent samples beyond it, or `None` when even the median does
/// not. Commit latencies of one micro-batch move together, so callers
/// pass the number of *batches*, not of points.
#[must_use]
pub fn supported_percentile(independent_samples: usize) -> Option<f64> {
    CANDIDATES_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| independent_samples * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        // stream_wide commits 128 batches per full run: 12.8 beyond p90,
        // 6.4 beyond p95.
        assert_eq!(supported_percentile(128), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn iqr_share_matches_hand_computation() {
        // quartiles of 1..=5 are 2 and 4 around a median of 3.
        assert!((iqr_share(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
