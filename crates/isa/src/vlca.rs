//! The Variable-Length Column Array descriptor (§VII-A).

use crate::alloc::AllocId;

/// A handle to a `vlca<D>[N]`: an array of `N` elements, each a `D`-bit
/// value, stored column-wise in PIM memory so every DUAL operation can
/// process all `N` rows in parallel.
///
/// `Vlca` is a *descriptor* — the data lives inside the
/// [`crate::Runtime`] that allocated it. Bit slicing (the paper's
/// `vlca<D>[n:m]` syntax) is expressed with [`Vlca::slice_bits`],
/// which produces a descriptor viewing a sub-range of every element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Vlca {
    pub(crate) id: AllocId,
    pub(crate) bits: usize,
    pub(crate) len: usize,
    /// First bit (column) of the view within the element field.
    pub(crate) bit_offset: usize,
}

impl Vlca {
    pub(crate) fn root(id: AllocId, bits: usize, len: usize) -> Self {
        Self {
            id,
            bits,
            len,
            bit_offset: 0,
        }
    }

    /// Element width `D` in bits (of this view).
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of elements `N` (of this view).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View of bit positions `start..end` of every element — the
    /// paper's `[n:m]` slice.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.bits()`.
    #[must_use]
    pub fn slice_bits(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.bits, "bit slice out of range");
        Self {
            bit_offset: self.bit_offset + start,
            bits: end - start,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v() -> Vlca {
        Vlca::root(AllocId(7), 16, 100)
    }

    #[test]
    fn root_shape() {
        let x = v();
        assert_eq!((x.bits(), x.len()), (16, 100));
        assert!(!x.is_empty());
    }

    #[test]
    fn bit_slice_composes() {
        let x = v().slice_bits(4, 12).slice_bits(2, 6);
        assert_eq!(x.bits(), 4);
        assert_eq!(x.bit_offset, 6);
    }

    mod props {
        use crate::Runtime;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn prop_slices_view_the_same_storage(
                values in proptest::collection::vec(0u64..4096, 8),
                b0 in 0usize..6, b1 in 6usize..12,
            ) {
                // Reading through any slice must agree with the root view
                // masked and shifted — slices are views, not copies.
                let mut rt = Runtime::with_block_geometry(16, 64).unwrap();
                let root = rt.alloc(12, 8).unwrap();
                rt.write_values(&root, &values).unwrap();
                let bits = root.slice_bits(b0, b1);
                let got = rt.read_values(&bits).unwrap();
                let expect: Vec<u64> = values
                    .iter()
                    .map(|&v| (v >> b0) & ((1u64 << (b1 - b0)) - 1))
                    .collect();
                prop_assert_eq!(got, expect);
            }
        }
    }
}
