//! Condensed pairwise-distance matrix.

/// Symmetric pairwise-distance matrix stored in condensed
/// (strict upper-triangular, row-major) form: `n·(n-1)/2` entries.
///
/// This is the software analogue of DUAL's *distance memory*: the
/// hardware materializes exactly these values (as `log D`-bit Hamming
/// sums) across its distance blocks before clustering begins (§V-B).
///
/// ```rust
/// use dual_cluster::CondensedMatrix;
///
/// let pts = [1.0_f64, 2.0, 4.0];
/// let m = CondensedMatrix::from_points(&pts, |a, b| (a - b).abs());
/// assert_eq!(m.n(), 3);
/// assert_eq!(m.get(0, 2), 3.0);
/// assert_eq!(m.get(2, 0), 3.0); // symmetric access
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CondensedMatrix {
    /// Build from `n` points and a distance function, evaluating each
    /// unordered pair once.
    pub fn from_points<P, F>(points: &[P], mut dist: F) -> Self
    where
        F: FnMut(&P, &P) -> f64,
    {
        let n = points.len();
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(dist(&points[i], &points[j]));
            }
        }
        Self { n, data }
    }

    /// Build from `n` points and a distance function, splitting the
    /// condensed upper triangle into balanced contiguous ranges that are
    /// filled by `threads` scoped workers writing disjoint slices.
    ///
    /// This models DUAL's row-parallel distance-block fill: every data
    /// block computes its share of the pairwise Hamming distances
    /// independently (§V-B). `threads == 0` means "auto" (see
    /// [`dual_pool::resolve_threads`]); the result is **bit-identical**
    /// to [`CondensedMatrix::from_points`] for every thread count
    /// because each entry is computed exactly once, in place, from the
    /// same `(i, j)` pair — there is no reduction step at all.
    ///
    /// ```rust
    /// use dual_cluster::CondensedMatrix;
    ///
    /// let pts: Vec<f64> = (0..10).map(f64::from).collect();
    /// let serial = CondensedMatrix::from_points(&pts, |a, b| (a - b).abs());
    /// for threads in [0, 1, 2, 3, 8] {
    ///     let par = CondensedMatrix::from_points_parallel(&pts, threads, |a, b| (a - b).abs());
    ///     assert_eq!(par, serial);
    /// }
    /// ```
    pub fn from_points_parallel<P, F>(points: &[P], threads: usize, dist: F) -> Self
    where
        P: Sync,
        F: Fn(&P, &P) -> f64 + Sync,
    {
        let n = points.len();
        let mut data = vec![0.0_f64; n * n.saturating_sub(1) / 2];
        dual_pool::par_fill(&mut data, threads, |offset, slice| {
            let (mut i, mut j) = pair_at(n, offset);
            for out in slice.iter_mut() {
                *out = dist(&points[i], &points[j]);
                j += 1;
                if j == n {
                    i += 1;
                    j = i + 1;
                }
            }
        });
        Self { n, data }
    }

    /// Build an all-zero matrix over `n` points (useful as a sink the
    /// simulator writes into).
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n.saturating_sub(1) / 2],
        }
    }

    /// Number of points the matrix covers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between points `i` and `j` (order-insensitive; the
    /// diagonal is implicitly zero).
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= n`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            assert!(i < self.n, "index {i} out of range {}", self.n);
            return 0.0;
        }
        self.data[self.index(i, j)]
    }

    /// Overwrite the distance between points `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= n` or `i == j` (the diagonal is not
    /// stored).
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert_ne!(i, j, "diagonal entries are implicit");
        let idx = self.index(i, j);
        self.data[idx] = value;
    }

    /// Iterate `(i, j, distance)` over all stored pairs, `i < j`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
            .zip(self.data.iter())
            .map(|((i, j), &d)| (i, j, d))
    }

    fn index(&self, i: usize, j: usize) -> usize {
        assert!(i < self.n && j < self.n, "index out of range {}", self.n);
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // Row i starts after sum_{r<i} (n-1-r) entries.
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }
}

/// Inverse of the condensed index: map linear offset `k` back to the
/// `(i, j)` pair (`i < j`) it stores, via binary search over row starts.
fn pair_at(n: usize, k: usize) -> (usize, usize) {
    debug_assert!(k < n * n.saturating_sub(1) / 2);
    let row_start = |i: usize| i * (2 * n - i - 1) / 2;
    let (mut lo, mut hi) = (0_usize, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if row_start(mid) <= k {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo, lo + 1 + (k - row_start(lo)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn indexing_is_symmetric_and_complete() {
        let pts: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let m = CondensedMatrix::from_points(&pts, |a, b| (a - b).abs());
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(m.get(i, j), (i as f64 - j as f64).abs());
            }
        }
    }

    #[test]
    fn set_roundtrips() {
        let mut m = CondensedMatrix::zeros(4);
        m.set(2, 1, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_diagonal_panics() {
        let mut m = CondensedMatrix::zeros(3);
        m.set(1, 1, 1.0);
    }

    #[test]
    fn iter_pairs_yields_upper_triangle() {
        let m = CondensedMatrix::from_points(&[0.0f64, 1.0, 3.0], |a, b| (a - b).abs());
        let pairs: Vec<_> = m.iter_pairs().collect();
        assert_eq!(pairs, vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(CondensedMatrix::zeros(0).data.is_empty());
        assert!(CondensedMatrix::zeros(1).data.is_empty());
        assert_eq!(CondensedMatrix::zeros(1).get(0, 0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_condensed_index_bijective(n in 2usize..30) {
            let mut m = CondensedMatrix::zeros(n);
            let mut v = 1.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    m.set(i, j, v);
                    v += 1.0;
                }
            }
            // Every pair must read back its unique written value.
            let mut expect = 1.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    prop_assert_eq!(m.get(j, i), expect);
                    expect += 1.0;
                }
            }
        }
    }
}
