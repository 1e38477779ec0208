//! `search::assign_batch` counter accounting against the
//! process-global recorder. One test in its own binary: the global
//! registry is shared by every thread of a process, so exact totals
//! can only be pinned where nothing else searches concurrently.

use dual_hdc::{random_hypervector, search, Hypervector};
use dual_obs::Key;

fn pool(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
    (0..n)
        .map(|i| random_hypervector(dim, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

#[test]
fn one_record_per_call_of_scan_starts_and_popcount_words() {
    let reg = dual_obs::install_global();
    let dim = 300; // ⌈300 / 64⌉ = 5 packed words per comparison
    let queries = pool(17, dim, 42);
    // Nothing records top-k insertions any more; the slot stays for
    // the wire format.
    let pushes = reg.counter(Key::HdcTopKPushes);
    // Per-centroid scans, and a bit-sliced codebook (≥ 256 candidates),
    // which counts the same logical comparisons.
    for candidates in [12usize, 13, 5, 300] {
        let centroids = pool(candidates, dim, 3);
        for threads in [0usize, 1, 2, 8] {
            let scans = reg.counter(Key::HdcSearchQueries);
            let words = reg.counter(Key::HdcPopcountWords);
            let _ = search::assign_batch(&queries, &centroids, threads);
            let tag = format!("candidates={candidates} threads={threads}");
            assert_eq!(reg.counter(Key::HdcSearchQueries) - scans, 17, "{tag}");
            assert_eq!(
                reg.counter(Key::HdcPopcountWords) - words,
                (17 * candidates * 5) as u64,
                "{tag}"
            );
        }
        let _ = search::nearest(&queries[0], &centroids);
    }
    assert_eq!(reg.counter(Key::HdcTopKPushes), pushes);
    // An empty batch scans nothing.
    let scans = reg.counter(Key::HdcSearchQueries);
    let _ = search::assign_batch(&[], &pool(4, dim, 3), 1);
    assert_eq!(reg.counter(Key::HdcSearchQueries), scans);
}
