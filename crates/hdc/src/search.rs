//! Batch Hamming search over hypervector sets — the software analogue
//! of DUAL's row-parallel nearest search (§V-C).
//!
//! The hardware compares a broadcast query row against every stored row
//! at once and bit-serially selects the minimum. Two entry points model
//! it: [`nearest`] scores one query against one candidate at a time by
//! word-level XOR + popcount over the packed `u64` storage (see
//! [`crate::BitVec::hamming`]), and [`assign_batch`] does the same for
//! a batch of queries, chunked across scoped worker threads. From 256
//! centroids up, [`assign_batch`] transposes the codebook into bit
//! planes once per call and every query scores 256 centroids per pass,
//! narrowing to the minimum MSB-first as the CAM does (DESIGN §6,
//! "Bit-sliced nearest search").
//!
//! # Determinism contract
//!
//! [`assign_batch`] returns each query's [`nearest`] result — lowest
//! distance, ties to the lowest index — on either side of the
//! bit-sliced threshold, **bit-identically for every thread count**,
//! including `0` ("auto", honouring the `DUAL_THREADS` environment
//! override — see [`dual_pool::resolve_threads`]).

use crate::sliced::SlicedCodebook;
use crate::Hypervector;
use dual_obs::{Key, Obs};

/// Candidates from which [`assign_batch`] scores queries against a
/// bit-sliced codebook instead of one centroid at a time. Private and
/// measured, not a knob: a 256-query batch at `D = 1024`
/// (`assign_batch_256x*_d1024` in the `kernels` bench) is
/// slower sliced at 128 candidates and faster from 256, where one
/// super-group of lanes is full.
const SLICED_MIN_CANDIDATES: usize = 256;

/// Record one batch of Hamming scans against the process-global
/// recorder: `scans` scan starts (one per query) making `compares`
/// query-candidate comparisons of `dim` bits
/// in total (`⌈dim/64⌉` packed popcount words per comparison).
/// Recorded once per *public* call — never per chunk — so the counters
/// are invariant across thread counts.
fn note_scan(scans: usize, compares: usize, dim: usize) {
    let obs = Obs::global();
    if !obs.enabled() {
        return;
    }
    obs.add(Key::HdcSearchQueries, scans as u64);
    obs.add(
        Key::HdcPopcountWords,
        (compares as u64) * (dim.div_ceil(64) as u64),
    );
}

/// The raw serial scan behind [`nearest`]: no instrumentation, so
/// [`assign_batch`] can run it per query without inflating the query
/// counters.
fn scan_nearest(query: &Hypervector, candidates: &[Hypervector]) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let d = query.hamming(c);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best
}

/// Index and Hamming distance of the candidate nearest to `query`,
/// scanning serially; ties break toward the lowest index. Returns
/// `None` on an empty candidate set.
///
/// # Panics
///
/// Panics when a candidate's dimensionality differs from the query's
/// (the same contract as [`Hypervector::hamming`]).
///
/// ```rust
/// use dual_hdc::{search, BitVec, Hypervector};
///
/// let q = Hypervector::from_bitvec(BitVec::zeros(64));
/// let far = Hypervector::from_bitvec(BitVec::ones(64));
/// let near = q.clone();
/// assert_eq!(search::nearest(&q, &[far, near]), Some((1, 0)));
/// ```
#[must_use]
pub fn nearest(query: &Hypervector, candidates: &[Hypervector]) -> Option<(usize, usize)> {
    note_scan(1, candidates.len(), query.dim());
    scan_nearest(query, candidates)
}

/// Assign every query to its nearest centroid in one call, returning
/// one `(centroid_index, hamming_distance)` pair per query.
///
/// This is the shared per-point nearest loop of both the batch
/// (`HammingKMeans`) and streaming (`dual-stream`) k-means assignment
/// steps: queries are chunked across up to `threads` scoped workers
/// (`0` = auto, honouring `DUAL_THREADS`). Each query gets exactly what
/// the serial [`nearest`] scan returns — below 256 centroids from that
/// scan, from 256 up from a bit-sliced codebook built once per call —
/// so ties break toward the lowest centroid index and the output is
/// **bit-identical for every thread count**. One call records one scan
/// start per query and `queries × centroids × ⌈D/64⌉` popcount words —
/// the logical comparisons, whichever kernel runs.
///
/// # Panics
///
/// Panics when `centroids` is empty (an assignment target must exist)
/// or when dimensionalities differ (the [`Hypervector::hamming`]
/// contract).
///
/// ```rust
/// use dual_hdc::{search, BitVec, Hypervector};
///
/// let zeros = Hypervector::from_bitvec(BitVec::zeros(16));
/// let ones = Hypervector::from_bitvec(BitVec::ones(16));
/// let assigned = search::assign_batch(&[zeros.clone(), ones.clone()], &[zeros, ones], 2);
/// assert_eq!(assigned, vec![(0, 0), (1, 0)]);
/// ```
#[must_use]
pub fn assign_batch(
    queries: &[Hypervector],
    centroids: &[Hypervector],
    threads: usize,
) -> Vec<(usize, usize)> {
    assert!(
        !centroids.is_empty(),
        "assign_batch requires at least one centroid"
    );
    if let Some(first) = queries.first() {
        note_scan(queries.len(), queries.len() * centroids.len(), first.dim());
    }
    // From `SLICED_MIN_CANDIDATES` up the codebook is sliced once,
    // before the workers start, and each worker keeps its own scratch.
    let sliced = (!queries.is_empty() && centroids.len() >= SLICED_MIN_CANDIDATES)
        .then(|| SlicedCodebook::new(centroids));
    let mut out = vec![(0usize, 0usize); queries.len()];
    dual_pool::par_fill(&mut out, threads, |offset, slots| {
        let queries = &queries[offset..];
        if let Some(codebook) = &sliced {
            let mut scratch = codebook.scratch();
            for (slot, q) in slots.iter_mut().zip(queries) {
                *slot = codebook.nearest(q, &mut scratch);
            }
        } else {
            for (slot, q) in slots.iter_mut().zip(queries) {
                // `centroids` is non-empty, so `scan_nearest` always
                // finds one; the fallback keeps the closure total
                // without panicking.
                *slot = scan_nearest(q, centroids).unwrap_or((0, 0));
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::random_hypervector;
    use proptest::prelude::*;

    fn pool(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
        (0..n)
            .map(|i| random_hypervector(dim, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    #[test]
    fn nearest_empty_is_none() {
        let q = Hypervector::zeros(32);
        assert_eq!(nearest(&q, &[]), None);
    }

    #[test]
    fn nearest_ties_break_low_index() {
        let q = Hypervector::zeros(16);
        let cands = vec![q.clone(), q.clone(), q.clone()];
        assert_eq!(nearest(&q, &cands), Some((0, 0)));
    }

    #[test]
    fn assign_batch_matches_per_query_nearest() {
        for n in [0usize, 1, 2, 63, 64, 65] {
            let queries = pool(n, 128, 3);
            let centroids = pool(5, 128, 17);
            let serial: Vec<(usize, usize)> = queries
                .iter()
                .map(|q| nearest(q, &centroids).unwrap())
                .collect();
            for threads in [0usize, 1, 2, 3, 8] {
                assert_eq!(
                    assign_batch(&queries, &centroids, threads),
                    serial,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one centroid")]
    fn assign_batch_rejects_empty_centroids() {
        let q = Hypervector::zeros(8);
        let _ = assign_batch(&[q], &[], 1);
    }

    /// The serial scan, one query at a time: the reference every batch
    /// kernel must reproduce.
    fn flat(queries: &[Hypervector], centroids: &[Hypervector]) -> Vec<(usize, usize)> {
        queries
            .iter()
            .map(|q| scan_nearest(q, centroids).unwrap())
            .collect()
    }

    /// `pool(n, dim, seed)` with duplicated rows that tie inside a lane
    /// (10, 11), across a 64-lane boundary (63, 64) and across a
    /// 256-centroid super-group boundary (255, 256), where `n` allows.
    fn pool_with_ties(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
        let mut centroids = pool(n, dim, seed);
        for (low, high) in [(10, 11), (63, 64), (255, 256)] {
            if high < n {
                centroids[high] = centroids[low].clone();
            }
        }
        centroids
    }

    /// Queries for `centroids`: random points, the all-zero vector (the
    /// zero rows padding a short last lane are nearest to it, so a lost
    /// live-lane mask shows), and exact copies of the tied rows.
    fn queries_for(centroids: &[Hypervector], dim: usize, seed: u64) -> Vec<Hypervector> {
        let mut queries = pool(17, dim, seed);
        queries.push(Hypervector::zeros(dim));
        for tied in [10, 63, 255] {
            if let Some(c) = centroids.get(tied) {
                queries.push(c.clone());
            }
        }
        queries
    }

    #[test]
    fn assign_batch_matches_flat_scan_for_all_shapes() {
        // 255..=600 straddle the bit-sliced threshold and a partial
        // super-group.
        for n in [1usize, 2, 7, 13, 63, 64, 65, 255, 256, 257, 600] {
            let centroids = pool_with_ties(n, 300, 3);
            let queries = queries_for(&centroids, 300, 42);
            let want = flat(&queries, &centroids);
            for threads in [0usize, 1, 2, 3, 8] {
                assert_eq!(
                    assign_batch(&queries, &centroids, threads),
                    want,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sliced_assign_matches_flat_scan_at_word_edges() {
        // Dim 0 scores every centroid at distance 0; dims off a word
        // boundary leave zero padding planes in every super-group.
        for dim in [0usize, 1, 63, 64, 65, 1024, 4000] {
            let centroids = pool_with_ties(300, dim, 5);
            let queries = queries_for(&centroids, dim, 6);
            let want = flat(&queries, &centroids);
            if dim >= 63 {
                // Wide enough that no random row matches a copy; the
                // lower of each duplicated pair wins.
                assert_eq!(want[18..], [(10, 0), (63, 0), (255, 0)], "dim={dim}");
            }
            for threads in [1usize, 3] {
                assert_eq!(
                    assign_batch(&queries, &centroids, threads),
                    want,
                    "dim={dim} threads={threads}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random shapes against the serial scan (strict `<`, so ties
        /// go to the lowest index): dims straddle word
        /// boundaries and the 1 024 edge, and slots straddle the
        /// bit-sliced threshold.
        #[test]
        fn prop_assign_batch_matches_flat_scan(
            dim in 1usize..2200,
            slots in 1usize..=600,
            batch in 1usize..=8,
            seed in any::<u64>(),
        ) {
            let queries = pool(batch, dim, seed);
            let centroids = pool(slots, dim, seed ^ 0xD1B5_4A32_D192_ED03);
            let want = flat(&queries, &centroids);
            for threads in [0usize, 1, 3] {
                prop_assert_eq!(
                    assign_batch(&queries, &centroids, threads),
                    want.clone(),
                    "threads={}",
                    threads
                );
            }
        }
    }

    #[test]
    fn assign_batch_ties_break_low_index() {
        let q = Hypervector::zeros(16);
        let centroids = vec![q.clone(), q.clone(), q.clone(), q.clone()];
        for threads in [0usize, 1, 2, 4] {
            assert_eq!(
                assign_batch(std::slice::from_ref(&q), &centroids, threads),
                vec![(0, 0)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn assign_batch_empty_batch_is_empty() {
        let centroids = pool(5, 64, 9);
        assert!(assign_batch(&[], &centroids, 4).is_empty());
    }
}
