//! Batch Hamming search over hypervector sets — the software analogue
//! of DUAL's row-parallel nearest search (§V-C).
//!
//! The hardware compares a broadcast query row against every stored row
//! at once and bit-serially selects the minimum; here the same queries
//! are answered with word-level XOR + popcount over the packed `u64`
//! storage (see [`crate::BitVec::hamming`]) and, optionally, chunked
//! across scoped worker threads.
//!
//! # Determinism contract
//!
//! Every `*_parallel` function is **bit-identical** to its serial
//! counterpart for any thread count, including `0` ("auto", honouring
//! the `DUAL_THREADS` environment override — see
//! [`dual_pool::resolve_threads`]):
//!
//! * [`nearest_parallel`] folds per-chunk winners in chunk order, so
//!   ties break toward the lowest candidate index exactly as the serial
//!   scan does.
//! * [`top_k_parallel`] merges per-chunk top-`k` lists by the same
//!   `(distance, index)` total order [`top_k`] sorts by.
//! * [`assign_sharded`] folds per-shard winners in shard order under
//!   strict improvement, so it equals the flat [`assign_batch`] for
//!   every shard count as well.

use crate::Hypervector;
use dual_obs::{Key, Obs};

/// Record one batch of Hamming scans against the process-global
/// recorder: `scans` scan starts (one per query and candidate slice
/// swept) making `compares` query-candidate comparisons of `dim` bits
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

/// The raw serial scan behind [`nearest`]: no instrumentation, so the
/// parallel wrappers can reuse it per chunk without inflating the
/// query counters.
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

/// The raw bounded top-`k` selection behind [`top_k`]: a sorted vector
/// of the `k` smallest `(distance, index)` pairs maintained by binary
/// insertion. Exactly equivalent to sorting the full ranking by
/// `(distance, index)` and truncating to `k` — the bounded structure
/// just does it in `O(n log k)` — and it counts its insertions into
/// the (unstable) `hdc.search.topk_pushes` counter. `offset` shifts
/// the reported indices so chunked scans report global positions.
fn top_k_scan(
    query: &Hypervector,
    candidates: &[Hypervector],
    k: usize,
    offset: usize,
) -> Vec<(usize, usize)> {
    if k == 0 {
        return Vec::new();
    }
    let mut best: Vec<(usize, usize)> = Vec::with_capacity(k.min(candidates.len()));
    let mut pushes = 0u64;
    for (i, c) in candidates.iter().enumerate() {
        let entry = (query.hamming(c), offset + i);
        if best.len() == k {
            match best.last() {
                Some(&worst) if entry < worst => {
                    best.pop();
                }
                _ => continue,
            }
        }
        let pos = best.partition_point(|&e| e < entry);
        best.insert(pos, entry);
        pushes += 1;
    }
    Obs::global().add(Key::HdcTopKPushes, pushes);
    best.into_iter().map(|(d, i)| (i, d)).collect()
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

/// Parallel [`nearest`]: candidates are scanned in contiguous chunks by
/// `threads` workers and the per-chunk winners folded in chunk order.
/// Bit-identical to the serial scan for every thread count.
#[must_use]
pub fn nearest_parallel(
    query: &Hypervector,
    candidates: &[Hypervector],
    threads: usize,
) -> Option<(usize, usize)> {
    note_scan(1, candidates.len(), query.dim());
    let chunk_best = dual_pool::par_map_chunks(candidates, threads, |offset, chunk| {
        match scan_nearest(query, chunk) {
            Some((i, d)) => vec![(offset + i, d)],
            None => Vec::new(),
        }
    });
    let mut best: Option<(usize, usize)> = None;
    for (i, d) in chunk_best {
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best
}

/// The `k` candidates nearest to `query`, sorted by `(distance, index)`
/// ascending — the index component makes the order total, so equal
/// distances resolve toward earlier candidates. Returns fewer than `k`
/// entries when the candidate set is smaller.
///
/// ```rust
/// use dual_hdc::{search, BitVec, Hypervector};
///
/// let q = Hypervector::from_bitvec(BitVec::zeros(8));
/// let mk = |ones: &[usize]| {
///     let mut b = BitVec::zeros(8);
///     for &i in ones { b.set(i, true); }
///     Hypervector::from_bitvec(b)
/// };
/// let pool = [mk(&[0, 1, 2]), mk(&[0]), mk(&[0, 1])];
/// assert_eq!(search::top_k(&q, &pool, 2), vec![(1, 1), (2, 2)]);
/// ```
#[must_use]
pub fn top_k(query: &Hypervector, candidates: &[Hypervector], k: usize) -> Vec<(usize, usize)> {
    note_scan(1, candidates.len(), query.dim());
    top_k_scan(query, candidates, k, 0)
}

/// Parallel [`top_k`]: per-chunk top-`k` lists merged under the same
/// `(distance, index)` total order. Bit-identical to the serial result
/// for every thread count.
#[must_use]
pub fn top_k_parallel(
    query: &Hypervector,
    candidates: &[Hypervector],
    k: usize,
    threads: usize,
) -> Vec<(usize, usize)> {
    note_scan(1, candidates.len(), query.dim());
    let mut merged: Vec<(usize, usize)> =
        dual_pool::par_map_chunks(candidates, threads, |offset, chunk| {
            top_k_scan(query, chunk, k, offset)
        });
    merged.sort_by_key(|&(i, d)| (d, i));
    merged.truncate(k);
    merged
}

/// Assign every query to its nearest centroid in one call, returning
/// one `(centroid_index, hamming_distance)` pair per query.
///
/// This is the shared per-point nearest loop of both the batch
/// (`HammingKMeans`) and streaming (`dual-stream`) k-means assignment
/// steps: queries are chunked across up to `threads` scoped workers
/// (`0` = auto, honouring `DUAL_THREADS`), each query resolved by the
/// serial [`nearest`] scan, so ties break toward the lowest centroid
/// index and the output is **bit-identical for every thread count**.
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
    let mut out = vec![(0usize, 0usize); queries.len()];
    dual_pool::par_fill(&mut out, threads, |offset, slots| {
        for (slot, q) in slots.iter_mut().zip(&queries[offset..]) {
            // `centroids` is non-empty, so `scan_nearest` always finds
            // one; the fallback keeps the closure total without
            // panicking.
            *slot = scan_nearest(q, centroids).unwrap_or((0, 0));
        }
    });
    out
}

/// [`assign_batch`] with the centroid set split into at most `shards`
/// contiguous slices, the software shape of DUAL's block-parallel
/// search (§V-C): every crossbar block resolves its own rows and a
/// bit-serial minimum across blocks picks the winner. Each query scans
/// every shard serially and folds the per-shard winners in shard order
/// under strict improvement, so ties break toward the lowest global
/// index and the output is **bit-identical to the flat
/// [`assign_batch`]** for every `(shards, threads)` combination.
///
/// Shard boundaries are [`dual_pool::chunk_ranges`]`(centroids.len(),
/// shards)`, a pure function of the two counts, and never outnumber
/// the centroids. One call records `queries × shard_count` scan starts
/// and `queries × candidates × ⌈D/64⌉` popcount words.
///
/// # Panics
///
/// Panics when `centroids` is empty, `shards == 0`, or
/// dimensionalities differ (the [`Hypervector::hamming`] contract).
///
/// ```rust
/// use dual_hdc::{search, BitVec, Hypervector};
///
/// let zeros = Hypervector::from_bitvec(BitVec::zeros(16));
/// let ones = Hypervector::from_bitvec(BitVec::ones(16));
/// let centroids = [zeros.clone(), ones.clone(), zeros.clone()];
/// // Slots 0 and 2 tie; the lower index wins across the shard boundary.
/// let assigned = search::assign_sharded(&[zeros, ones], &centroids, 2, 1);
/// assert_eq!(assigned, vec![(0, 0), (1, 0)]);
/// ```
#[must_use]
pub fn assign_sharded(
    queries: &[Hypervector],
    centroids: &[Hypervector],
    shards: usize,
    threads: usize,
) -> Vec<(usize, usize)> {
    assert!(
        !centroids.is_empty(),
        "assign_sharded requires at least one centroid"
    );
    // `chunk_ranges` reads 0 as "auto"; a shard layout must not depend
    // on the host or on `DUAL_THREADS`.
    assert!(shards > 0, "shard count must be positive");
    let ranges = dual_pool::chunk_ranges(centroids.len(), shards);
    if let Some(first) = queries.first() {
        note_scan(
            queries.len() * ranges.len(),
            queries.len() * centroids.len(),
            first.dim(),
        );
    }
    let mut out = vec![(0usize, 0usize); queries.len()];
    dual_pool::par_fill(&mut out, threads, |offset, slots| {
        for (slot, q) in slots.iter_mut().zip(&queries[offset..]) {
            let mut best: Option<(usize, usize)> = None;
            for r in &ranges {
                if let Some((i, d)) = scan_nearest(q, &centroids[r.clone()]) {
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((r.start + i, d));
                    }
                }
            }
            // Non-empty centroid set: some shard always has a winner.
            *slot = best.unwrap_or((0, 0));
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
        assert_eq!(nearest_parallel(&q, &[], 4), None);
    }

    #[test]
    fn nearest_ties_break_low_index() {
        let q = Hypervector::zeros(16);
        let cands = vec![q.clone(), q.clone(), q.clone()];
        assert_eq!(nearest(&q, &cands), Some((0, 0)));
        for threads in [1, 2, 3, 8] {
            assert_eq!(nearest_parallel(&q, &cands, threads), Some((0, 0)));
        }
    }

    #[test]
    fn parallel_matches_serial_all_thread_counts() {
        for n in [0usize, 1, 2, 63, 64, 65] {
            let cands = pool(n, 256, 7);
            let q = Hypervector::zeros(256);
            let want_nearest = nearest(&q, &cands);
            let want_top = top_k(&q, &cands, 5);
            for threads in [0usize, 1, 2, 3, 8] {
                assert_eq!(nearest_parallel(&q, &cands, threads), want_nearest);
                assert_eq!(top_k_parallel(&q, &cands, 5, threads), want_top);
            }
        }
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

    #[test]
    fn assign_sharded_matches_flat_scan_for_all_shapes() {
        // 64 shards over 1..=65 candidates also covers `shards >
        // candidates`, where every candidate is its own shard.
        for n in [1usize, 2, 7, 13, 63, 64, 65] {
            let centroids = pool(n, 300, 3);
            let queries = pool(17, 300, 42);
            let want = assign_batch(&queries, &centroids, 1);
            for shards in [1usize, 2, 3, 8, 64] {
                for threads in [0usize, 1, 2, 3, 8] {
                    assert_eq!(
                        assign_sharded(&queries, &centroids, shards, threads),
                        want,
                        "n={n} shards={shards} threads={threads}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random shapes against an independent flat scan (strict `<`,
        /// so ties go to the lowest index): dims straddle word
        /// boundaries and the 1 024 edge, and shards may outnumber
        /// slots.
        #[test]
        fn prop_assign_sharded_matches_flat_scan(
            dim in 1usize..2200,
            slots in 1usize..=12,
            shards in 1usize..=16,
            batch in 1usize..=8,
            seed in any::<u64>(),
        ) {
            let queries = pool(batch, dim, seed);
            let centroids = pool(slots, dim, seed ^ 0xD1B5_4A32_D192_ED03);
            let flat: Vec<(usize, usize)> = queries
                .iter()
                .map(|q| {
                    let mut best = (0, usize::MAX);
                    for (i, c) in centroids.iter().enumerate() {
                        let d = q.hamming(c);
                        if d < best.1 {
                            best = (i, d);
                        }
                    }
                    best
                })
                .collect();
            for threads in [0usize, 1, 3] {
                prop_assert_eq!(
                    assign_sharded(&queries, &centroids, shards, threads),
                    flat.clone(),
                    "threads={}",
                    threads
                );
            }
        }
    }

    #[test]
    fn assign_sharded_ties_break_low_across_shard_boundaries() {
        let q = Hypervector::zeros(16);
        let centroids = vec![q.clone(), q.clone(), q.clone(), q.clone()];
        for shards in [1usize, 2, 4, 9] {
            assert_eq!(
                assign_sharded(std::slice::from_ref(&q), &centroids, shards, 1),
                vec![(0, 0)],
                "shards={shards}"
            );
        }
    }

    #[test]
    fn assign_sharded_empty_batch_is_empty() {
        let centroids = pool(5, 64, 9);
        assert!(assign_sharded(&[], &centroids, 2, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one centroid")]
    fn assign_sharded_rejects_empty_centroids() {
        let _ = assign_sharded(&[Hypervector::zeros(8)], &[], 2, 1);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn assign_sharded_rejects_zero_shards() {
        let _ = assign_sharded(&[Hypervector::zeros(8)], &pool(2, 8, 1), 0, 1);
    }

    #[test]
    fn top_k_is_sorted_prefix_of_full_ranking() {
        let cands = pool(40, 128, 11);
        let q = Hypervector::zeros(128);
        let full = top_k(&q, &cands, cands.len());
        assert_eq!(full.len(), 40);
        for k in [0usize, 1, 3, 40, 100] {
            let got = top_k(&q, &cands, k);
            assert_eq!(got, full[..k.min(40)].to_vec());
        }
    }
}
