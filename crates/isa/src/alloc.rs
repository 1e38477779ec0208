//! Free-block allocator with a global allocation table (§VII-C).
//!
//! The paper's management scheme: a list of free blocks plus a global
//! table mapping each live allocation to its blocks, bit-width and
//! element count. Allocations receive consecutive rows; arrays wider
//! than one block's columns span multiple blocks side by side, and
//! arrays taller than one block's rows span multiple block *groups*.

use crate::IsaError;
use std::collections::BTreeMap;

/// Opaque identifier of one VLCA allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub(crate) u64);

/// One allocation-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Element bit-width.
    pub bits: usize,
    /// Number of elements.
    pub len: usize,
    /// Physical block indices backing the allocation, row-group major
    /// then bit-chunk minor: entry `[g * chunks + c]` holds bit-chunk
    /// `c` of rows `g*rows_per_block ..`.
    pub blocks: Vec<usize>,
    /// Bit-columns per chunk (= block columns available for data).
    pub chunk_bits: usize,
    /// Rows per block group.
    pub rows_per_block: usize,
}

impl Allocation {
    /// Number of bit-chunks (side-by-side blocks) per row group.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.bits.div_ceil(self.chunk_bits)
    }

    /// Locate element `row`, bit `bit`: returns
    /// `(block_index_in_table, row_in_block, col_in_block)`.
    ///
    /// # Panics
    ///
    /// Panics when `row`/`bit` exceed the allocation shape.
    #[must_use]
    pub fn locate(&self, row: usize, bit: usize) -> (usize, usize, usize) {
        assert!(row < self.len && bit < self.bits, "locate out of range");
        let group = row / self.rows_per_block;
        let chunk = bit / self.chunk_bits;
        (
            group * self.chunks() + chunk,
            row % self.rows_per_block,
            bit % self.chunk_bits,
        )
    }
}

/// The free-block list + allocation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAllocator {
    n_blocks: usize,
    rows: usize,
    data_cols: usize,
    free: Vec<usize>,
    table: BTreeMap<AllocId, Allocation>,
    next_id: u64,
}

impl BlockAllocator {
    /// Manage `n_blocks` blocks of `rows × data_cols` usable data cells
    /// each (scratch columns for arithmetic are carved out by the
    /// runtime before construction).
    #[must_use]
    pub fn new(n_blocks: usize, rows: usize, data_cols: usize) -> Self {
        Self {
            n_blocks,
            rows,
            data_cols,
            free: (0..n_blocks).rev().collect(),
            table: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Allocate a `bits`-wide, `len`-element array.
    ///
    /// # Errors
    ///
    /// [`IsaError::InvalidParameter`] for zero shapes, or
    /// [`IsaError::OutOfMemory`] when the free list runs dry.
    pub fn alloc(&mut self, bits: usize, len: usize) -> Result<AllocId, IsaError> {
        if bits == 0 || len == 0 {
            return Err(IsaError::InvalidParameter {
                name: "shape",
                reason: "bits and len must be positive",
            });
        }
        let chunks = bits.div_ceil(self.data_cols);
        let groups = len.div_ceil(self.rows);
        let needed = chunks * groups;
        if needed > self.free.len() {
            return Err(IsaError::OutOfMemory { rows: len, bits });
        }
        // Same order as popping one block at a time: last-free first.
        let mut blocks = self.free.split_off(self.free.len() - needed);
        blocks.reverse();
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.table.insert(
            id,
            Allocation {
                bits,
                len,
                blocks,
                chunk_bits: self.data_cols,
                rows_per_block: self.rows,
            },
        );
        Ok(id)
    }

    /// Look up an allocation.
    ///
    /// # Errors
    ///
    /// [`IsaError::StaleHandle`] if the id was freed or never existed.
    pub fn get(&self, id: AllocId) -> Result<&Allocation, IsaError> {
        self.table.get(&id).ok_or(IsaError::StaleHandle)
    }

    /// Reclaim an allocation, returning its blocks to the free list
    /// (merging is trivial since blocks are interchangeable).
    ///
    /// # Errors
    ///
    /// [`IsaError::StaleHandle`] if the id is unknown.
    pub fn free(&mut self, id: AllocId) -> Result<(), IsaError> {
        let a = self.table.remove(&id).ok_or(IsaError::StaleHandle)?;
        self.free.extend(a.blocks);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = BlockAllocator::new(8, 16, 32);
        let id = a.alloc(8, 10).unwrap();
        assert_eq!(a.free.len(), 7);
        assert_eq!(a.table.len(), 1);
        a.free(id).unwrap();
        assert_eq!(a.free.len(), 8);
        assert!(a.free(id).is_err());
        assert!(a.get(id).is_err());
    }

    #[test]
    fn wide_and_tall_arrays_span_blocks() {
        let mut a = BlockAllocator::new(8, 16, 32);
        // 70 bits -> 3 chunks; 40 rows -> 3 groups; 9 blocks > 8 free.
        assert!(a.alloc(70, 40).is_err());
        let id = a.alloc(70, 30).unwrap(); // 3 chunks × 2 groups = 6
        let al = a.get(id).unwrap();
        assert_eq!(al.chunks(), 3);
        assert_eq!(al.len.div_ceil(al.rows_per_block), 2);
        assert_eq!(al.blocks.len(), 6);
    }

    #[test]
    fn blocks_are_handed_out_last_free_first() {
        let mut a = BlockAllocator::new(8, 16, 32);
        let first = a.alloc(70, 30).unwrap(); // 6 blocks
        assert_eq!(a.get(first).unwrap().blocks, vec![0, 1, 2, 3, 4, 5]);
        a.free(first).unwrap();
        // The free list is now [7, 6, 0, 1, 2, 3, 4, 5]; pops come off its end.
        let second = a.alloc(40, 20).unwrap(); // 2 chunks × 2 groups
        assert_eq!(a.get(second).unwrap().blocks, vec![5, 4, 3, 2]);
        let third = a.alloc(8, 8).unwrap();
        assert_eq!(a.get(third).unwrap().blocks, vec![1]);
    }

    #[test]
    fn locate_maps_rows_and_bits() {
        let mut a = BlockAllocator::new(8, 16, 32);
        let id = a.alloc(70, 30).unwrap();
        let al = a.get(id).unwrap().clone();
        assert_eq!(al.locate(0, 0), (0, 0, 0));
        assert_eq!(al.locate(0, 32), (1, 0, 0));
        assert_eq!(al.locate(17, 65), (3 + 2, 1, 1));
    }

    #[test]
    fn zero_shapes_rejected() {
        let mut a = BlockAllocator::new(4, 8, 8);
        assert!(a.alloc(0, 4).is_err());
        assert!(a.alloc(4, 0).is_err());
    }

    proptest! {
        #[test]
        fn prop_alloc_never_double_books(shapes in proptest::collection::vec((1usize..64, 1usize..40), 1..10)) {
            let mut a = BlockAllocator::new(32, 16, 16);
            let mut used = std::collections::BTreeSet::new();
            for (bits, len) in shapes {
                if let Ok(id) = a.alloc(bits, len) {
                    for b in &a.get(id).unwrap().blocks {
                        prop_assert!(used.insert(*b), "block {} double-booked", b);
                    }
                }
            }
        }

        #[test]
        fn prop_free_restores_capacity(n in 1usize..10) {
            let mut a = BlockAllocator::new(16, 8, 8);
            let ids: Vec<_> = (0..n).filter_map(|_| a.alloc(8, 8).ok()).collect();
            for id in ids {
                a.free(id).unwrap();
            }
            prop_assert_eq!(a.free.len(), 16);
        }
    }
}
