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

    /// Keep only the first `n` points (cheap subsampling for the
    /// visualization and scaled benchmarks).
    #[must_use]
    pub fn truncated(mut self, n: usize) -> Self {
        self.points.truncate(n);
        self.labels.truncate(n);
        self
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
    fn truncation() {
        let d = ds().truncated(2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.labels.len(), 2);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let d = Dataset {
            name: "e".into(),
            points: vec![],
            labels: vec![],
            n_clusters: 0,
        };
        assert_eq!(d.n_features(), 0);
        assert!(d.is_empty());
    }
}
