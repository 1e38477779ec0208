//! Bit-sliced counters: the software form of DUAL's per-block
//! in-memory counters (§VI-C; Table II).
//!
//! A counter holds one small unsigned integer per lane, 256 lanes to a
//! [`Lanes`] plane, as bit planes least significant first: bit `j` of
//! word `l` of plane `b` is bit `b` of lane `64·l + j`'s count. Adding a
//! one-bit plane adds 0 or 1 to every lane at once. It has two callers:
//!
//! * `SlicedCodebook` sums a query's XOR planes against 256 centroids
//!   into their Hamming distances and reads the [`minimum`];
//! * `majority_bundle` sums its members, 256 dimensions at a time, into
//!   per-dimension counts and votes with [`at_least`].
//!
//! **Exactness.** A carry-save adder drops no carry, so every lane holds
//! its exact integer count whatever the order of the adds. For
//! non-negative integers numeric order is the lexicographic order of
//! their bits from the top, which is how both reads compare, MSB first,
//! the way the CAM's match lines narrow.

/// `u64` words per plane.
pub(crate) const LANES: usize = 4;

/// One bit plane: bit `j` of word `l` belongs to lane `64·l + j`.
pub(crate) type Lanes = [u64; LANES];

/// Planes in a counter that holds every count in `0..=max`: at least
/// the four registers of the carry-save tree.
pub(crate) fn depth(max: usize) -> usize {
    (usize::BITS - max.leading_zeros()).max(4) as usize
}

/// Harley–Seal: set `counter` (at least four planes) to the sum of the
/// 16 one-bit planes `x(i, 0) ..= x(i, 15)` of every chunk `i` in
/// `0..chunks`. Fifteen carry-save adders fold each chunk into the ones,
/// twos, fours and eights planes, which stay in registers across
/// chunks, and one plane of sixteens ripples into the planes above them.
#[inline(always)]
pub(crate) fn sum16(counter: &mut [Lanes], chunks: usize, x: impl Fn(usize, usize) -> Lanes) {
    let zero = [0; LANES];
    counter.fill(zero);
    let (low, high) = counter.split_at_mut(4);
    let (mut ones, mut twos, mut fours, mut eights) = (zero, zero, zero, zero);
    for i in 0..chunks {
        let x = |k: usize| x(i, k);
        let (twos_a, o) = csa(ones, x(0), x(1));
        let (twos_b, o) = csa(o, x(2), x(3));
        let (fours_a, t) = csa(twos, twos_a, twos_b);
        let (twos_a, o) = csa(o, x(4), x(5));
        let (twos_b, o) = csa(o, x(6), x(7));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_a, f) = csa(fours, fours_a, fours_b);
        let (twos_a, o) = csa(o, x(8), x(9));
        let (twos_b, o) = csa(o, x(10), x(11));
        let (fours_a, t) = csa(t, twos_a, twos_b);
        let (twos_a, o) = csa(o, x(12), x(13));
        let (twos_b, o) = csa(o, x(14), x(15));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_b, f) = csa(f, fours_a, fours_b);
        let (sixteens, e) = csa(eights, eights_a, eights_b);
        (ones, twos, fours, eights) = (o, t, f, e);
        add(high, sixteens);
    }
    low.copy_from_slice(&[ones, twos, fours, eights]);
}

/// Ripple-carry add of one plane into `counter`. The counter must be
/// deep enough for the sum: no carry may leave its top plane.
#[inline(always)]
pub(crate) fn add(counter: &mut [Lanes], plane: Lanes) {
    let mut carry = plane;
    for c in counter.iter_mut() {
        let next: Lanes = std::array::from_fn(|l| c[l] & carry[l]);
        *c = std::array::from_fn(|l| c[l] ^ carry[l]);
        carry = next;
    }
    debug_assert_eq!(carry, [0; LANES], "the counter overflowed");
}

/// Carry-save add of three planes: `(carry, sum)` with `a + b + c ==
/// 2·carry + sum` in every bit position.
#[inline(always)]
fn csa(a: Lanes, b: Lanes, c: Lanes) -> (Lanes, Lanes) {
    let u: Lanes = std::array::from_fn(|l| a[l] ^ b[l]);
    (
        std::array::from_fn(|l| (a[l] & b[l]) | (u[l] & c[l])),
        std::array::from_fn(|l| u[l] ^ c[l]),
    )
}

/// Lane mask of `count ≥ threshold`, compared MSB first. `threshold`
/// must fit in `counter.len()` bits.
pub(crate) fn at_least(counter: &[Lanes], threshold: usize) -> Lanes {
    debug_assert!(threshold >> counter.len() == 0, "threshold too wide");
    let mut greater = [0; LANES];
    let mut equal = [u64::MAX; LANES];
    for (b, plane) in counter.iter().enumerate().rev() {
        for l in 0..LANES {
            if (threshold >> b) & 1 == 1 {
                equal[l] &= plane[l];
            } else {
                greater[l] |= equal[l] & plane[l];
                equal[l] &= !plane[l];
            }
        }
    }
    std::array::from_fn(|l| greater[l] | equal[l])
}

/// Lane index and value of the smallest count among the `live` lanes,
/// ties to the lowest index: narrow MSB-first, keeping the lanes with a
/// 0 in the current bit whenever any live lane has one.
#[inline]
pub(crate) fn minimum(counter: &[Lanes], mut live: Lanes) -> (usize, usize) {
    let mut value = 0;
    for (b, plane) in counter.iter().enumerate().rev() {
        let zero: Lanes = std::array::from_fn(|l| live[l] & !plane[l]);
        if zero == [0; LANES] {
            value |= 1 << b;
        } else {
            live = zero;
        }
    }
    // Narrowing never empties `live`, and a caller passes at least one
    // live lane, so the fallback is never taken.
    let index = live
        .iter()
        .enumerate()
        .find_map(|(l, &w)| (w != 0).then(|| 64 * l + w.trailing_zeros() as usize))
        .unwrap_or(0);
    (index, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lane `i`'s count, read back bit by bit.
    fn lane(counter: &[Lanes], i: usize) -> u32 {
        counter
            .iter()
            .enumerate()
            .map(|(b, plane)| (((plane[i / 64] >> (i % 64)) & 1) as u32) << b)
            .sum()
    }

    /// `n` planes from a seeded generator: random bits at density
    /// 1/2, 1/4 or 3/4, or every bit set (which fills the top plane
    /// when `n` is one less than a power of two).
    fn planes_for(n: usize, seed: u64, density: u8) -> Vec<Lanes> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ (state >> 29)
        };
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| match density {
                    0 => next(),
                    1 => next() & next(),
                    2 => next() | next(),
                    _ => u64::MAX,
                })
            })
            .collect()
    }

    /// Member counts at the edges of a 16-chunk and of a full top plane.
    const EDGES: [usize; 10] = [15, 16, 17, 31, 32, 33, 255, 256, 511, 512];

    proptest! {
        /// The 16-step over whole chunks plus the ripple remainder, then
        /// both MSB-first reads, against per-lane `u32` counts.
        #[test]
        fn prop_counter_matches_per_lane_counts(
            n in (any::<bool>(), 0usize..600, 0usize..EDGES.len())
                .prop_map(|(edge, n, e)| if edge { EDGES[e] } else { n }),
            seed in any::<u64>(),
            density in 0u8..4,
            threshold in any::<usize>(),
            live_lanes in 1usize..=256,
        ) {
            let planes = planes_for(n, seed, density);
            let mut counter = vec![[0; LANES]; depth(n)];
            let (chunks, rest) = planes.as_chunks::<16>();
            sum16(&mut counter, chunks.len(), |i, k| chunks[i][k]);
            for &plane in rest {
                add(&mut counter, plane);
            }
            let want: Vec<u32> = (0..64 * LANES)
                .map(|i| planes.iter().map(|p| ((p[i / 64] >> (i % 64)) & 1) as u32).sum())
                .collect();
            for (i, &w) in want.iter().enumerate() {
                prop_assert_eq!(lane(&counter, i), w, "lane {}", i);
            }
            if n == (1 << depth(n)) - 1 && density == 3 {
                prop_assert_eq!(counter[depth(n) - 1], [u64::MAX; LANES]);
            }

            let threshold = threshold % (1 << depth(n));
            let mask = at_least(&counter, threshold);
            for (i, &w) in want.iter().enumerate() {
                let got = (mask[i / 64] >> (i % 64)) & 1 == 1;
                prop_assert_eq!(got, w as usize >= threshold, "lane {} t {}", i, threshold);
            }

            let live: Lanes = std::array::from_fn(|l| match live_lanes.saturating_sub(64 * l) {
                0 => 0,
                k if k >= 64 => u64::MAX,
                k => (1 << k) - 1,
            });
            let best = want[..live_lanes]
                .iter()
                .enumerate()
                .min_by_key(|&(i, &w)| (w, i))
                .map(|(i, &w)| (i, w as usize));
            prop_assert_eq!(Some(minimum(&counter, live)), best);
        }
    }
}
