//! Dense bit-packed vectors with fast Hamming distance.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length, heap-allocated bit vector packed into `u64` words.
///
/// `BitVec` is the storage format of every encoded data point in DUAL.
/// Hamming distance — the workhorse of the whole system — runs at one
/// `popcount` per 64 bits.
///
/// ```rust
/// use dual_hdc::BitVec;
///
/// let mut v = BitVec::zeros(100);
/// v.set(3, true);
/// v.set(99, true);
/// assert_eq!(v.count_ones(), 2);
/// let w = BitVec::zeros(100);
/// assert_eq!(v.hamming(&w), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Create an all-zero bit vector of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Create an all-one bit vector of `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Build from an iterator of booleans; the vector length equals the
    /// iterator length.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut cur = 0u64;
        for b in bits {
            if b {
                cur |= 1 << (len % WORD_BITS);
            }
            len += 1;
            if len.is_multiple_of(WORD_BITS) {
                words.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(cur);
        }
        Self { words, len }
    }

    /// Adopt already-packed words (bit `i` at `words[i / 64] >> (i % 64)`,
    /// the layout of [`BitVec::as_words`]). Bits beyond `len` in the last
    /// word are cleared, so the "tail bits are zero" invariant
    /// [`BitVec::hamming`] and [`BitVec::count_ones`] rely on holds for
    /// any input.
    ///
    /// # Panics
    ///
    /// Panics unless `words.len() == len.div_ceil(64)`.
    ///
    /// ```rust
    /// use dual_hdc::BitVec;
    ///
    /// let v = BitVec::from_words(vec![u64::MAX, u64::MAX], 65);
    /// assert_eq!(v, BitVec::ones(65));
    /// ```
    #[must_use]
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "a {len}-bit vector needs exactly ⌈len / 64⌉ words"
        );
        let mut v = Self { words, len };
        v.mask_tail();
        v
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Write bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flip bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other` (number of differing bit positions).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; use [`BitVec::try_hamming`] for a
    /// fallible variant.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Hamming distance to `other`, or `None` when lengths differ.
    #[must_use]
    pub fn try_hamming(&self, other: &Self) -> Option<usize> {
        (self.len == other.len).then(|| self.hamming(other))
    }

    /// Bitwise XOR with `other`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "xor requires equal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Bitwise NOT in place (tail bits beyond `len` stay zero).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Iterate the bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterate fixed-width windows of the vector as integers, LSB-first
    /// within each window. The final window may be narrower.
    ///
    /// This mirrors the hardware's 7-bit serial Hamming windows (§IV-A1):
    /// `v.windows(7)` yields exactly the window contents each CAM search
    /// cycle compares.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > 16`.
    #[must_use]
    pub fn windows(&self, width: usize) -> Windows<'_> {
        assert!((1..=16).contains(&width), "window width must be 1..=16");
        Windows {
            vec: self,
            width,
            pos: 0,
        }
    }

    /// Access the raw packed words (tail bits beyond `len` are zero).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{};", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

/// Iterator over fixed-width integer windows of a [`BitVec`].
///
/// Produced by [`BitVec::windows`].
#[derive(Debug, Clone)]
pub struct Windows<'a> {
    vec: &'a BitVec,
    width: usize,
    pos: usize,
}

impl Iterator for Windows<'_> {
    /// `(value, width)` — the window's bits as an integer and its actual
    /// width (the final window may be narrower).
    type Item = (u16, usize);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.vec.len() {
            return None;
        }
        let width = self.width.min(self.vec.len() - self.pos);
        let mut value = 0u16;
        for k in 0..width {
            if self.vec.get(self.pos + k) {
                value |= 1 << k;
            }
        }
        self.pos += width;
        Some((value, width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones_counts() {
        assert_eq!(BitVec::zeros(130).count_ones(), 0);
        assert_eq!(BitVec::ones(130).count_ones(), 130);
    }

    #[test]
    fn ones_masks_tail() {
        let v = BitVec::ones(65);
        assert_eq!(v.as_words()[1], 1);
    }

    #[test]
    fn from_words_masks_tail_and_matches_from_bits() {
        let words = vec![0xDEAD_BEEF_0123_4567, u64::MAX, u64::MAX];
        for len in [129, 130, 191, 192] {
            let v = BitVec::from_words(words.clone(), len);
            let want = BitVec::from_bits((0..len).map(|i| (words[i / 64] >> (i % 64)) & 1 == 1));
            assert_eq!(v, want, "len {len}");
            assert_eq!(v.count_ones(), want.count_ones());
        }
        assert_eq!(BitVec::from_words(Vec::new(), 0), BitVec::zeros(0));
    }

    #[test]
    #[should_panic(expected = "words")]
    fn from_words_rejects_wrong_word_count() {
        let _ = BitVec::from_words(vec![0; 2], 64);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(200);
        for i in (0..200).step_by(7) {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 200usize.div_ceil(7));
    }

    #[test]
    fn flip_toggles() {
        let mut v = BitVec::zeros(10);
        assert!(v.flip(3));
        assert!(!v.flip(3));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(8);
        let _ = v.get(8);
    }

    #[test]
    fn hamming_simple() {
        let a = BitVec::from_bits([true, false, true, true]);
        let b = BitVec::from_bits([true, true, true, false]);
        assert_eq!(a.hamming(&b), 2);
    }

    #[test]
    fn try_hamming_len_mismatch_is_none() {
        let a = BitVec::zeros(4);
        let b = BitVec::zeros(5);
        assert!(a.try_hamming(&b).is_none());
    }

    #[test]
    fn not_assign_complements_and_masks() {
        let mut v = BitVec::zeros(70);
        v.not_assign();
        assert_eq!(v.count_ones(), 70);
        v.not_assign();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn windows_of_seven_cover_everything() {
        let v = BitVec::ones(20);
        let ws: Vec<_> = v.windows(7).collect();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0], (0b111_1111, 7));
        assert_eq!(ws[1], (0b111_1111, 7));
        assert_eq!(ws[2], (0b11_1111, 6));
    }

    #[test]
    fn from_iterator_collect() {
        let v: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    fn debug_is_nonempty() {
        let v = BitVec::zeros(0);
        assert!(!format!("{v:?}").is_empty());
    }

    proptest! {
        #[test]
        fn prop_hamming_is_metric(a in proptest::collection::vec(any::<bool>(), 1..300),
                                  b in proptest::collection::vec(any::<bool>(), 1..300),
                                  c in proptest::collection::vec(any::<bool>(), 1..300)) {
            let n = a.len().min(b.len()).min(c.len());
            let va = BitVec::from_bits(a[..n].iter().copied());
            let vb = BitVec::from_bits(b[..n].iter().copied());
            let vc = BitVec::from_bits(c[..n].iter().copied());
            // identity, symmetry, triangle inequality
            prop_assert_eq!(va.hamming(&va), 0);
            prop_assert_eq!(va.hamming(&vb), vb.hamming(&va));
            prop_assert!(va.hamming(&vc) <= va.hamming(&vb) + vb.hamming(&vc));
        }

        #[test]
        fn prop_hamming_equals_xor_popcount(bits_a in proptest::collection::vec(any::<bool>(), 1..300),
                                            bits_b in proptest::collection::vec(any::<bool>(), 1..300)) {
            let n = bits_a.len().min(bits_b.len());
            let a = BitVec::from_bits(bits_a[..n].iter().copied());
            let b = BitVec::from_bits(bits_b[..n].iter().copied());
            let mut x = a.clone();
            x.xor_assign(&b);
            prop_assert_eq!(a.hamming(&b), x.count_ones());
        }

        #[test]
        fn prop_windows_reassemble(bits in proptest::collection::vec(any::<bool>(), 1..200),
                                   width in 1usize..=16) {
            let v = BitVec::from_bits(bits.iter().copied());
            let mut rebuilt = Vec::new();
            for (value, w) in v.windows(width) {
                for k in 0..w {
                    rebuilt.push((value >> k) & 1 == 1);
                }
            }
            prop_assert_eq!(rebuilt, bits);
        }

        #[test]
        fn prop_window_popcounts_sum_to_hamming(bits_a in proptest::collection::vec(any::<bool>(), 1..200),
                                                bits_b in proptest::collection::vec(any::<bool>(), 1..200)) {
            // The hardware computes total Hamming distance as the sum of
            // 7-bit window mismatch counts; verify that decomposition.
            let n = bits_a.len().min(bits_b.len());
            let a = BitVec::from_bits(bits_a[..n].iter().copied());
            let b = BitVec::from_bits(bits_b[..n].iter().copied());
            let total: u32 = a
                .windows(7)
                .zip(b.windows(7))
                .map(|((x, _), (y, _))| (x ^ y).count_ones())
                .sum();
            prop_assert_eq!(total as usize, a.hamming(&b));
        }
    }
}
