//! `search::assign_sharded` counter accounting against the
//! process-global recorder. One test in its own binary: the global
//! registry is shared by every thread of a process, so exact totals
//! can only be pinned where nothing else searches concurrently.

use dual_hdc::ops::random_hypervector;
use dual_hdc::{search, Hypervector};
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
    // (candidates, shards): even split, uneven split, shards >
    // candidates, and a bit-sliced codebook (≥ 256 candidates), which
    // counts the same logical comparisons.
    for (candidates, shards) in [(12usize, 4usize), (13, 3), (5, 64), (300, 7)] {
        let centroids = pool(candidates, dim, 3);
        for threads in [0usize, 1, 2, 8] {
            let scans = reg.counter(Key::HdcSearchQueries);
            let words = reg.counter(Key::HdcPopcountWords);
            let pushes = reg.counter(Key::HdcTopKPushes);
            let _ = search::assign_sharded(&queries, &centroids, shards, threads);
            let tag = format!("candidates={candidates} shards={shards} threads={threads}");
            assert_eq!(
                reg.counter(Key::HdcSearchQueries) - scans,
                (17 * shards.min(candidates)) as u64,
                "{tag}"
            );
            assert_eq!(
                reg.counter(Key::HdcPopcountWords) - words,
                (17 * candidates * 5) as u64,
                "{tag}"
            );
            // Assignment is not a top-k selection.
            assert_eq!(reg.counter(Key::HdcTopKPushes), pushes, "{tag}");
        }
    }
    // An empty batch scans nothing.
    let scans = reg.counter(Key::HdcSearchQueries);
    let _ = search::assign_sharded(&[], &pool(4, dim, 3), 2, 1);
    assert_eq!(reg.counter(Key::HdcSearchQueries), scans);
}
