//! # dual-pool — deterministic scoped-thread chunking
//!
//! DUAL's hardware executes its clustering primitives row-parallel
//! across thousands of crossbar rows (§V of the paper); this crate is
//! the CPU simulator's analogue. It provides a small set of
//! scoped-thread helpers that the workspace's hot kernels (pairwise
//! distances, k-means assignment, DBSCAN region queries, batch Hamming
//! search, batch encoding) run on.
//!
//! ## Determinism contract
//!
//! Every helper in this crate guarantees **bit-identical results for
//! any thread count**, including 1:
//!
//! * Work is split into *contiguous index ranges* whose boundaries
//!   depend only on `(len, chunks)` — never on scheduling.
//! * Each worker writes only its own output slot (or disjoint slice);
//!   results are combined **in chunk index order** on the calling
//!   thread. No atomics, no locks, no reduction trees.
//! * Floating-point reductions must therefore be expressed as
//!   per-chunk partials ([`par_map_ranges`]) folded serially in chunk
//!   order, or — when the result must match a *serial* loop bitwise —
//!   with chunk boundaries fixed independently of the thread count
//!   (see [`fixed_blocks`]).
//!
//! ## Thread-count resolution
//!
//! `threads == 0` means "auto": the `DUAL_THREADS` environment
//! variable if set (and non-zero), otherwise
//! [`std::thread::available_parallelism`]. Any explicit non-zero value
//! is honored as an upper bound on spawned workers; the helpers never
//! spawn more workers than there are chunks of work.
//!
//! ```rust
//! use dual_pool as pool;
//!
//! // Square 1..=6 on up to 3 threads; order is preserved.
//! let squares = pool::par_map_chunks(&[1, 2, 3, 4, 5, 6], 3, |_, chunk| {
//!     chunk.iter().map(|x| x * x).collect::<Vec<i32>>()
//! });
//! assert_eq!(squares, vec![1, 4, 9, 16, 25, 36]);
//! ```

#![forbid(unsafe_code)]
// Library code must not panic: this crate's debt is burned to zero.
// (Test code is exempt via .clippy.toml allow-*-in-tests keys.)
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

use dual_obs::{Key, Obs};
use std::ops::Range;

/// Record one parallel-section entry (`pool.sections` + `pool.items`)
/// against the process-global recorder. `items` is the logical work
/// size, which is independent of the thread count — these counters
/// stay byte-stable across `DUAL_THREADS`. (Per-task spawn counts are
/// recorded separately under the *unstable* `pool.tasks_spawned` key.)
fn note_section(items: usize) {
    let obs = Obs::global();
    obs.add(Key::PoolSections, 1);
    obs.add(Key::PoolItems, items as u64);
}

/// Environment variable overriding the auto-detected thread count.
pub const DUAL_THREADS_ENV: &str = "DUAL_THREADS";

/// The block length used by [`fixed_blocks`]: reductions that must be
/// bit-identical to their serial counterpart accumulate within blocks
/// of this many items and fold the per-block partials in block order.
pub const FIXED_BLOCK: usize = 1024;

/// Number of worker threads "auto" resolves to: `DUAL_THREADS` when
/// set to a positive integer, else [`std::thread::available_parallelism`],
/// else 1.
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(DUAL_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve a requested thread count: `0` = auto (see
/// [`default_threads`]), anything else is returned unchanged.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// Split `0..len` into at most `chunks` contiguous, balanced,
/// non-empty ranges (the first `len % chunks` ranges are one longer).
/// Returns fewer ranges when `len < chunks` and none when `len == 0`.
///
/// Boundaries are a pure function of `(len, chunks)`, which is what
/// makes the parallel kernels deterministic.
///
/// ```rust
/// let r = dual_pool::chunk_ranges(10, 4);
/// assert_eq!(r, vec![0..3, 3..6, 6..8, 8..10]);
/// assert!(dual_pool::chunk_ranges(0, 4).is_empty());
/// assert_eq!(dual_pool::chunk_ranges(2, 8), vec![0..1, 1..2]);
/// ```
#[must_use]
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = resolve_threads(chunks).min(len);
    if len == 0 || chunks == 0 {
        return Vec::new();
    }
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Split `0..len` into blocks of [`FIXED_BLOCK`] items. Unlike
/// [`chunk_ranges`] the boundaries do **not** depend on the thread
/// count, so per-block partial sums folded in block order give the
/// same floating-point result for every thread count — the trick the
/// k-means centroid update uses to stay bit-identical to serial.
#[must_use]
pub fn fixed_blocks(len: usize) -> Vec<Range<usize>> {
    (0..len)
        .step_by(FIXED_BLOCK.max(1))
        .map(|s| s..(s + FIXED_BLOCK).min(len))
        .collect()
}

/// Apply `f` to each range of [`chunk_ranges`]`(len, threads)` on up
/// to `threads` scoped workers and return the results **in range
/// order**.
///
/// `f` receives the half-open index range it owns. With `threads <= 1`
/// (after resolution) everything runs inline on the caller.
pub fn par_map_ranges<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    note_section(len);
    let ranges = chunk_ranges(len, threads);
    run_ordered(ranges, &f)
}

/// Apply `f` to balanced sub-slices of `items` on up to `threads`
/// scoped workers, concatenating the per-chunk outputs **in chunk
/// order** — element order therefore matches a serial
/// `f(0, items)`.
///
/// `f` is called as `f(offset, chunk)` where `offset` is the index of
/// `chunk[0]` within `items`.
///
/// ```rust
/// let doubled = dual_pool::par_map_chunks(&[10u64, 20, 30], 8, |off, c| {
///     c.iter().map(|v| v + off as u64).collect::<Vec<u64>>()
/// });
/// assert_eq!(doubled, vec![10, 21, 32]);
/// ```
pub fn par_map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    note_section(items.len());
    let ranges = chunk_ranges(items.len(), threads);
    let parts = run_ordered(ranges, &|r: Range<usize>| f(r.start, &items[r.clone()]));
    let mut out = Vec::with_capacity(items.len());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Map `ranges` (arbitrary, e.g. [`fixed_blocks`]) to partial results
/// on up to `threads` workers, returning partials in the order of
/// `ranges`. Workers own whole ranges; range boundaries are the
/// caller's, so thread count cannot influence any per-range result.
pub fn par_map_fixed<R, F>(ranges: Vec<Range<usize>>, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    note_section(ranges.iter().map(ExactSizeIterator::len).sum());
    let threads = resolve_threads(threads).min(ranges.len()).max(1);
    if threads <= 1 || ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    // Distribute whole ranges round-robin-free: contiguous groups of
    // ranges per worker, outputs re-assembled in input order.
    let groups = chunk_ranges(ranges.len(), threads);
    let parts: Vec<Vec<R>> = run_ordered(groups, &|g: Range<usize>| {
        ranges[g].iter().map(|r| f(r.clone())).collect()
    });
    parts.into_iter().flatten().collect()
}

/// Fill `out` by handing each worker a disjoint, contiguous sub-slice:
/// `f(offset, slice)` must write every element of `slice` (which
/// starts at `out[offset]`). Slices come from [`chunk_ranges`]`(out.len(),
/// threads)`, so the write pattern is deterministic.
pub fn par_fill<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    note_section(out.len());
    let ranges = chunk_ranges(out.len(), threads);
    match ranges.len() {
        0 => {}
        1 => f(0, out),
        _ => {
            Obs::global().add(Key::PoolTasks, ranges.len() as u64);
            std::thread::scope(|scope| {
                let mut rest = out;
                let mut consumed = 0usize;
                for r in &ranges {
                    let (mine, tail) = rest.split_at_mut(r.end - r.start);
                    rest = tail;
                    let start = consumed;
                    consumed = r.end;
                    let f = &f;
                    scope.spawn(move || f(start, mine));
                }
            });
        }
    }
}

/// Run `f` over `ranges` on one scoped worker per range, collecting
/// results in range order. Panics in workers propagate to the caller.
#[expect(
    clippy::expect_used,
    reason = "re-raising a worker panic is the only sound option; swallowing it would drop a chunk of the result vector"
)]
fn run_ordered<R, F>(ranges: Vec<Range<usize>>, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    match ranges.len() {
        0 => Vec::new(),
        1 => ranges.into_iter().map(f).collect(),
        _ => std::thread::scope(|scope| {
            Obs::global().add(Key::PoolTasks, ranges.len() as u64);
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|r| scope.spawn(move || f(r)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("dual-pool worker panicked"))
                .collect()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chunk_ranges_cover_and_balance() {
        for len in [0usize, 1, 2, 7, 63, 64, 65, 1000] {
            for t in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, t);
                assert!(ranges.len() <= t.min(len.max(1)));
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, len);
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1, "unbalanced: {ranges:?}");
                }
            }
        }
    }

    #[test]
    fn fixed_blocks_are_thread_invariant_by_construction() {
        let blocks = fixed_blocks(2 * FIXED_BLOCK + 5);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], 0..FIXED_BLOCK);
        assert_eq!(blocks[2], 2 * FIXED_BLOCK..2 * FIXED_BLOCK + 5);
        assert!(fixed_blocks(0).is_empty());
    }

    #[test]
    fn par_map_chunks_matches_serial_for_all_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [0usize, 1, 2, 3, 8, 64] {
            let par = par_map_chunks(&items, t, |_, c| {
                c.iter().map(|x| x * 3 + 1).collect::<Vec<u64>>()
            });
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn par_fill_writes_every_slot() {
        for t in [1usize, 2, 3, 8] {
            let mut out = vec![0usize; 100];
            par_fill(&mut out, t, |offset, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v = offset + i;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i), "threads={t}");
        }
        let mut empty: Vec<usize> = Vec::new();
        par_fill(&mut empty, 4, |_, _| panic!("an empty slice has no chunks"));
    }

    #[test]
    fn par_map_fixed_blocks_invariant_across_thread_counts() {
        // Partial sums over FIXED blocks folded in order: bitwise equal
        // for every thread count.
        let n = 3 * FIXED_BLOCK + 17;
        let gold: f64 = par_map_fixed(fixed_blocks(n), 1, |r| {
            r.map(|i| (i as f64).sin()).sum::<f64>()
        })
        .into_iter()
        .fold(0.0, |a, b| a + b);
        for t in [2usize, 3, 8] {
            let got: f64 = par_map_fixed(fixed_blocks(n), t, |r| {
                r.map(|i| (i as f64).sin()).sum::<f64>()
            })
            .into_iter()
            .fold(0.0, |a, b| a + b);
            assert_eq!(got.to_bits(), gold.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn resolve_threads_auto_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_chunks_partition_exactly(len in 0usize..500, t in 0usize..17) {
            let ranges = chunk_ranges(len, t);
            let total: usize = ranges.iter().map(ExactSizeIterator::len).sum();
            prop_assert_eq!(total, len);
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
                prop_assert!(w[0].len() >= w[1].len());
            }
        }

        #[test]
        fn prop_par_map_order_preserved(items in proptest::collection::vec(0u64..1000, 0..200),
                                        t in 0usize..9) {
            let serial: Vec<u64> = items.iter().map(|x| x ^ 0xABCD).collect();
            let par = par_map_chunks(&items, t, |_, c| c.iter().map(|x| x ^ 0xABCD).collect::<Vec<u64>>());
            prop_assert_eq!(par, serial);
        }
    }
}
