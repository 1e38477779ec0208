//! The in-memory dataset type.

/// A labeled point set ready for clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Human-readable name (Table IV row).
    pub name: String,
    /// Feature vectors, one per point.
    pub points: Vec<Vec<f64>>,
    /// Ground-truth labels (`0..n_clusters`), used only for quality
    /// scoring.
    pub labels: Vec<usize>,
    /// Number of ground-truth clusters.
    pub n_clusters: usize,
}

impl Dataset {
    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the dataset holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of features per point (0 for an empty dataset).
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.points.first().map_or(0, Vec::len)
    }

    /// Z-score normalize every feature in place (zero mean, unit
    /// variance; constant features are left centered).
    pub fn normalize(&mut self) {
        let m = self.n_features();
        let n = self.len();
        if n == 0 {
            return;
        }
        for f in 0..m {
            let mean: f64 = self.points.iter().map(|p| p[f]).sum::<f64>() / n as f64;
            let var: f64 = self
                .points
                .iter()
                .map(|p| (p[f] - mean).powi(2))
                .sum::<f64>()
                / n as f64;
            let std = var.sqrt();
            for p in &mut self.points {
                p[f] -= mean;
                if std > f64::EPSILON {
                    p[f] /= std;
                }
            }
        }
    }

    /// Keep only the first `n` points (cheap subsampling for the
    /// visualization and scaled benchmarks).
    #[must_use]
    pub fn truncated(mut self, n: usize) -> Self {
        self.points.truncate(n);
        self.labels.truncate(n);
        self
    }

    /// Indices of a proportional stratified sample of `n` points: each
    /// class contributes `round(n × class_share)` points (largest-
    /// remainder rounding, at least one point per non-empty class when
    /// `n ≥ #classes`), taken in original order. Deterministic.
    fn stratified_indices(&self, n: usize) -> Vec<usize> {
        let n = n.min(self.len());
        let k = self.labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &l) in self.labels.iter().enumerate() {
            per_class[l].push(i);
        }
        let total = self.len() as f64;
        // Floor quotas + largest-remainder distribution.
        let mut quota: Vec<usize> = Vec::with_capacity(k);
        let mut rema: Vec<(f64, usize)> = Vec::with_capacity(k);
        let mut assigned = 0usize;
        for (c, members) in per_class.iter().enumerate() {
            let exact = n as f64 * members.len() as f64 / total;
            let q = (exact.floor() as usize).min(members.len());
            quota.push(q);
            assigned += q;
            rema.push((exact - exact.floor(), c));
        }
        rema.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut left = n.saturating_sub(assigned);
        for &(_, c) in &rema {
            if left == 0 {
                break;
            }
            if quota[c] < per_class[c].len() {
                quota[c] += 1;
                left -= 1;
            }
        }
        // Guarantee representation when possible.
        if n >= per_class.iter().filter(|m| !m.is_empty()).count() {
            for c in 0..k {
                if quota[c] == 0 && !per_class[c].is_empty() {
                    if let Some(donor) = (0..k).find(|&d| quota[d] > 1) {
                        quota[donor] -= 1;
                        quota[c] += 1;
                    }
                }
            }
        }
        let mut picked: Vec<usize> = per_class
            .iter()
            .zip(&quota)
            .flat_map(|(members, &q)| members.iter().copied().take(q))
            .collect();
        picked.sort_unstable();
        picked
    }

    fn take(&self, indices: &[usize]) -> Self {
        Self {
            name: self.name.clone(),
            points: indices.iter().map(|&i| self.points[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_clusters: self.n_clusters,
        }
    }

    /// Proportional stratified subsample of at most `n` points: class
    /// shares are preserved and every non-empty class stays represented
    /// when `n` allows, so small evaluation subsets keep every cluster.
    #[must_use]
    pub fn stratified_sample(&self, n: usize) -> Self {
        if n >= self.len() {
            return self.clone();
        }
        self.take(&self.stratified_indices(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset {
            name: "t".into(),
            points: vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]],
            labels: vec![0, 0, 1],
            n_clusters: 2,
        }
    }

    #[test]
    fn shape_accessors() {
        let d = ds();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn normalize_zero_mean_unit_var() {
        let mut d = ds();
        d.normalize();
        let mean0: f64 = d.points.iter().map(|p| p[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        let var0: f64 = d.points.iter().map(|p| p[0] * p[0]).sum::<f64>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-12);
        // Constant feature centers to zero without NaN.
        assert!(d.points.iter().all(|p| p[1].abs() < 1e-12));
    }

    #[test]
    fn truncation() {
        let d = ds().truncated(2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.labels.len(), 2);
    }

    fn imbalanced() -> Dataset {
        Dataset {
            name: "s".into(),
            points: (0..30).map(|i| vec![i as f64]).collect(),
            labels: (0..30).map(|i| usize::from(i >= 24)).collect(), // 24 vs 6
            n_clusters: 2,
        }
    }

    #[test]
    fn stratified_sample_keeps_every_class() {
        let ds = imbalanced();
        let s = ds.stratified_sample(6);
        assert_eq!(s.len(), 6);
        assert!(s.labels.contains(&0) && s.labels.contains(&1));
        // Oversized requests return everything.
        assert_eq!(ds.stratified_sample(100).len(), 30);
    }

    #[test]
    fn equal_remainders_go_to_the_lowest_classes() {
        // Four classes of five, six wanted: every class is owed 1.5, so
        // the two spare points are a four-way tie on the remainder and
        // the stable sort hands them out in class order.
        let ds = Dataset {
            name: "tie".into(),
            points: (0..20).map(|i| vec![f64::from(i)]).collect(),
            labels: (0..20).map(|i| i / 5).collect(),
            n_clusters: 4,
        };
        assert_eq!(ds.stratified_sample(6).labels, [0, 0, 1, 1, 2, 3]);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let mut d = Dataset {
            name: "e".into(),
            points: vec![],
            labels: vec![],
            n_clusters: 0,
        };
        d.normalize();
        assert_eq!(d.n_features(), 0);
        assert!(d.is_empty());
    }
}
