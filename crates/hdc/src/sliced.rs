//! Bit-sliced nearest-centroid search: the software form of DUAL's
//! row-parallel CAM minimum (§V-C; `dual_pim::nearest_search` is
//! the cost model's view of the same circuit).
//!
//! The codebook is transposed once per call into bit planes. Plane `p`
//! of super-group `g` holds dimension `p` of centroids `256·g ..
//! 256·g + 256`, one bit per centroid across four `u64` lanes. A query
//! scores a whole super-group at once: every plane is XORed with the
//! query's bit `p` broadcast to all-ones or zero, and the 256 one-bit
//! differences are summed by Harley–Seal carry-save adders into
//! per-centroid counters that are themselves bit planes. The minimum is
//! then read MSB-first, the way the CAM's match lines narrow it.
//!
//! **Exactness.** A carry-save adder drops no carry, so every lane of
//! the counter holds its centroid's exact integer Hamming distance.
//! For non-negative integers numeric order is the lexicographic order
//! of their bits from the top, so keeping, bit by bit from the MSB, the
//! live lanes with a 0 there (whenever any has one) leaves exactly the
//! lanes at the minimum distance. Lane order is index order, so the
//! lowest surviving bit is the lowest index at that distance, and
//! super-groups fold in index order under strict improvement: the
//! result is the flat scan's `(index, distance)` to the bit.

use crate::Hypervector;

/// `u64` lanes per super-group.
const LANES: usize = 4;

/// Centroids per super-group: one bit of each lane per centroid.
const GROUP: usize = 64 * LANES;

/// One bit plane of a super-group: bit `j` of lane `l` belongs to
/// centroid `64·l + j` of the group.
type Lanes = [u64; LANES];

/// A codebook transposed into bit planes.
pub(crate) struct SlicedCodebook {
    /// Super-group-major: plane `p` of group `g` at `g * stride + p`.
    planes: Vec<Lanes>,
    /// Planes per super-group: `dim` padded to whole words. The padding
    /// planes are zero for every centroid and every query, so they add
    /// nothing to any distance.
    stride: usize,
    groups: usize,
    dim: usize,
    /// Live lanes of the last super-group; every other group is full.
    last_live: Lanes,
    /// Bit planes in a distance: enough to hold `dim`, and at least the
    /// four registers of the carry-save tree.
    bits: usize,
}

/// Per-worker scratch for [`SlicedCodebook::nearest`].
pub(crate) struct Scratch {
    /// Query bit `p` broadcast to a whole word.
    masks: Vec<u64>,
    /// The distance counter's bit planes, least significant first.
    counter: Vec<Lanes>,
}

impl SlicedCodebook {
    /// Transpose `centroids`, 64 × 64 bits at a time.
    ///
    /// # Panics
    ///
    /// Panics when `centroids` is empty or their dimensionalities
    /// differ (the [`Hypervector::hamming`] contract).
    pub(crate) fn new(centroids: &[Hypervector]) -> Self {
        let dim = centroids[0].dim();
        assert!(
            centroids.iter().all(|c| c.dim() == dim),
            "hamming distance requires equal lengths"
        );
        let words = dim.div_ceil(64);
        let stride = words * 64;
        let mut planes = vec![[0; LANES]; centroids.len().div_ceil(GROUP) * stride];
        let mut block = [0u64; 64];
        for (c, rows) in centroids.chunks(64).enumerate() {
            let (group, lane) = (c / LANES, c % LANES);
            for w in 0..words {
                // A short last lane keeps zero rows; its bits are masked
                // out of the minimum by `last_live`.
                block.fill(0);
                for (row, hv) in block.iter_mut().zip(rows) {
                    *row = hv.bits().as_words()[w];
                }
                transpose64(&mut block);
                let at = group * stride + w * 64;
                for (plane, &bits) in planes[at..at + 64].iter_mut().zip(&block) {
                    plane[lane] = bits;
                }
            }
        }
        let tail = centroids.len() - (centroids.len() - 1) / GROUP * GROUP;
        Self {
            planes,
            stride,
            groups: centroids.len().div_ceil(GROUP),
            dim,
            last_live: std::array::from_fn(|l| match tail.saturating_sub(64 * l) {
                0 => 0,
                k if k >= 64 => u64::MAX,
                k => (1 << k) - 1,
            }),
            bits: (usize::BITS - dim.leading_zeros()).max(4) as usize,
        }
    }

    /// Scratch for one worker.
    pub(crate) fn scratch(&self) -> Scratch {
        Scratch {
            masks: vec![0; self.stride],
            counter: vec![[0; LANES]; self.bits],
        }
    }

    /// Index and Hamming distance of the centroid nearest to `query`;
    /// ties break toward the lowest index.
    ///
    /// # Panics
    ///
    /// Panics when `query`'s dimensionality differs from the
    /// codebook's (the [`Hypervector::hamming`] contract).
    pub(crate) fn nearest(&self, query: &Hypervector, scratch: &mut Scratch) -> (usize, usize) {
        assert_eq!(
            query.dim(),
            self.dim,
            "hamming distance requires equal lengths"
        );
        for (masks, &word) in scratch
            .masks
            .chunks_exact_mut(64)
            .zip(query.bits().as_words())
        {
            for (j, m) in masks.iter_mut().enumerate() {
                *m = 0u64.wrapping_sub((word >> j) & 1);
            }
        }
        let mut best = (0, usize::MAX);
        for g in 0..self.groups {
            let planes = &self.planes[g * self.stride..(g + 1) * self.stride];
            count(planes, &scratch.masks, &mut scratch.counter);
            let live = if g + 1 < self.groups {
                [u64::MAX; LANES]
            } else {
                self.last_live
            };
            let (i, d) = minimum(&scratch.counter, live);
            if d < best.1 {
                best = (g * GROUP + i, d);
            }
        }
        best
    }
}

/// Sum the one-bit planes `planes[p] ^ masks[p]` lane-wise into
/// `counter`, which comes back holding every lane's count as bit
/// planes, least significant first. `planes.len()` is a multiple of 64.
fn count(planes: &[Lanes], masks: &[u64], counter: &mut [Lanes]) {
    let zero = [0; LANES];
    counter.fill(zero);
    let (low, high) = counter.split_at_mut(4);
    let (mut ones, mut twos, mut fours, mut eights) = (zero, zero, zero, zero);
    for (p, m) in planes.chunks_exact(16).zip(masks.chunks_exact(16)) {
        let x = |k: usize| -> Lanes { p[k].map(|w| w ^ m[k]) };
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
        // Ripple the sixteens into the high bits. A count never exceeds
        // `dim`, so no carry leaves the top plane.
        let mut carry = sixteens;
        for h in high.iter_mut() {
            let next: Lanes = std::array::from_fn(|l| h[l] & carry[l]);
            *h = std::array::from_fn(|l| h[l] ^ carry[l]);
            carry = next;
        }
    }
    low.copy_from_slice(&[ones, twos, fours, eights]);
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

/// Lane index and value of the smallest count among the `live` lanes,
/// ties to the lowest index: narrow MSB-first, keeping the lanes with a
/// 0 in the current bit whenever any live lane has one.
fn minimum(counter: &[Lanes], mut live: Lanes) -> (usize, usize) {
    let mut value = 0;
    for (b, plane) in counter.iter().enumerate().rev() {
        let zero: Lanes = std::array::from_fn(|l| live[l] & !plane[l]);
        if zero == [0; LANES] {
            value |= 1 << b;
        } else {
            live = zero;
        }
    }
    // Narrowing never empties `live`, and a super-group has at least one
    // live lane, so the fallback is never taken.
    let index = live
        .iter()
        .enumerate()
        .find_map(|(l, &w)| (w != 0).then(|| 64 * l + w.trailing_zeros() as usize))
        .unwrap_or(0);
    (index, value)
}

/// Transpose a 64 × 64 bit matrix in place: bit `j` of `a[i]` moves to
/// bit `i` of `a[j]`. Six rounds of block swaps, halving the block each
/// round.
fn transpose64(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while width > 0 {
        for i in (0..64).filter(|i| i & width == 0) {
            let t = ((a[i] >> width) ^ a[i + width]) & mask;
            a[i] ^= t << width;
            a[i + width] ^= t;
        }
        width /= 2;
        mask ^= mask << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose64_moves_every_bit_to_its_mirror() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut a = [0u64; 64];
        for row in &mut a {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            *row = state;
        }
        let before = a;
        transpose64(&mut a);
        for (i, row) in before.iter().enumerate() {
            for (j, col) in a.iter().enumerate() {
                assert_eq!((col >> i) & 1, (row >> j) & 1, "({i}, {j})");
            }
        }
    }

    #[test]
    fn count_holds_every_lane_exact_distance() {
        // Counts from 0 to 128 across the lanes: a staircase in lanes 0
        // and 1, none and all in lanes 2 and 3, and every third plane
        // flipped by its query mask.
        let planes: Vec<Lanes> = (0..128)
            .map(|p: usize| {
                let bits = if p >= 64 { 0 } else { (1u64 << p) - 1 };
                [bits, !bits, 0, u64::MAX]
            })
            .collect();
        let masks: Vec<u64> = (0..128)
            .map(|p| if p % 3 == 0 { u64::MAX } else { 0 })
            .collect();
        let mut counter = vec![[0; LANES]; 8];
        count(&planes, &masks, &mut counter);
        for l in 0..LANES {
            for j in 0..64 {
                let want = (0..128)
                    .filter(|&p| ((planes[p][l] ^ masks[p]) >> j) & 1 == 1)
                    .count();
                let got = counter
                    .iter()
                    .enumerate()
                    .map(|(b, plane)| (((plane[l] >> j) & 1) as usize) << b)
                    .sum::<usize>();
                assert_eq!(got, want, "lane {l} bit {j}");
            }
        }
    }
}
