//! Internal (label-free) clustering quality indices.
//!
//! The paper scores clusterings against ground-truth labels; these
//! complementary indices need no labels and are what a deployment (no
//! labels available — the whole point of unsupervised learning) would
//! monitor. Used by the examples and the bench harness's sanity checks.

/// Mean silhouette coefficient of a clustering, in `[-1, 1]` (higher is
/// better). Points in singleton clusters score 0 by convention.
///
/// `O(n²)` distance evaluations — intended for the evaluation scales
/// this repository uses.
///
/// # Panics
///
/// Panics if `labels.len() != points.len()`.
pub fn silhouette<P, F>(points: &[P], labels: &[usize], mut dist: F) -> f64
where
    F: FnMut(&P, &P) -> f64,
{
    assert_eq!(points.len(), labels.len(), "length mismatch");
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    let mut total = 0.0f64;
    for i in 0..n {
        if sizes[labels[i]] <= 1 {
            continue; // singleton: s(i) = 0
        }
        // Mean distance to every cluster.
        let mut sums = vec![0.0f64; k];
        for j in 0..n {
            if i != j {
                sums[labels[j]] += dist(&points[i], &points[j]);
            }
        }
        let own = labels[i];
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<usize>, Vec<usize>) {
        let mut pts = Vec::new();
        for i in 0..6 {
            pts.push(vec![0.1 * i as f64, 0.0]);
        }
        for i in 0..6 {
            pts.push(vec![10.0 + 0.1 * i as f64, 0.0]);
        }
        let good: Vec<usize> = (0..12).map(|i| usize::from(i >= 6)).collect();
        let bad: Vec<usize> = (0..12).map(|i| i % 2).collect();
        (pts, good, bad)
    }

    #[test]
    fn silhouette_prefers_the_true_partition() {
        let (pts, good, bad) = two_blobs();
        let s_good = silhouette(&pts, &good, euclidean);
        let s_bad = silhouette(&pts, &bad, euclidean);
        assert!(s_good > 0.9, "good partition: {s_good}");
        assert!(s_bad < s_good, "bad {s_bad} !< good {s_good}");
    }

    #[test]
    fn degenerate_inputs() {
        let pts = vec![vec![0.0]];
        assert_eq!(silhouette(&pts, &[0], euclidean), 0.0);
    }

    #[test]
    fn singletons_score_zero_silhouette() {
        let pts = vec![vec![0.0], vec![5.0], vec![10.0]];
        let s = silhouette(&pts, &[0, 1, 2], euclidean);
        assert_eq!(s, 0.0);
    }
}
