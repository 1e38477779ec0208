//! The PIM instructions of Table I and the specialized registers.
//!
//! The instruction stream a [`crate::Runtime`] emits is *complete*:
//! every device operation the runtime charges against the Table III
//! cost model appears as exactly one trace entry, with fully resolved
//! physical addressing (block / row / column), so a static pass —
//! `dual-isa-verify` — can re-derive bounds, dataflow and cost from the
//! trace alone.

/// Arithmetic instruction selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithKind {
    /// Row-parallel addition.
    Add,
    /// Row-parallel subtraction.
    Sub,
    /// Row-parallel multiplication.
    Mul,
    /// Row-parallel (approximate) division.
    Div,
}

/// One PIM instruction as issued through the device driver (Table I).
///
/// Register naming follows the paper: `b*` are block registers, `r*`
/// row registers, `c*` column registers, `q` the query register, `nr`/
/// `nc` row/column counts. Columns are block-local (already folded
/// through the allocator's `locate`), so each operand is checkable
/// against the block geometry without the allocation table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Instruction {
    /// Load the query register with `size` bits starting at `addr` of
    /// block `b`.
    SetQInput {
        /// Source block.
        b: usize,
        /// Source address (row).
        addr: usize,
        /// Number of query bits.
        size: usize,
    },
    /// One 7-bit Hamming window search on block `b` over columns
    /// `c1..c2` against the query register. Windows never straddle a
    /// block boundary — the runtime splits them.
    Hamm7 {
        /// Block searched.
        b: usize,
        /// First window column.
        c1: usize,
        /// One-past-last window column.
        c2: usize,
    },
    /// Row-parallel arithmetic: `bits`-wide operands at block `b1`
    /// column `c1` and block `b2` column `c2`, `dbits`-wide destination
    /// at block `d` column `dc`, scratch columns from `c3` up.
    Arith {
        /// Which operation.
        kind: ArithKind,
        /// First operand block.
        b1: usize,
        /// First operand column base.
        c1: usize,
        /// Second operand block.
        b2: usize,
        /// Second operand column base.
        c2: usize,
        /// Destination block.
        d: usize,
        /// Destination column base.
        dc: usize,
        /// Scratch column base (first reserved column, Table III).
        c3: usize,
        /// Operand bit-width (the width the op is priced at).
        bits: usize,
        /// Destination bit-width.
        dbits: usize,
    },
    /// Nearest search on block `b` over `nc` columns starting at `c`
    /// against query value `q`; writes `rst` and `idx`.
    NearSearch {
        /// Block searched.
        b: usize,
        /// Number of value columns.
        nc: usize,
        /// First value column.
        c: usize,
        /// Query value.
        q: u64,
    },
    /// Native CAM exact match on block `b` over `nc` columns starting
    /// at `c` against query value `q` (§IV-A).
    ExactSearch {
        /// Block searched.
        b: usize,
        /// Number of value columns.
        nc: usize,
        /// First value column.
        c: usize,
        /// Query value.
        q: u64,
    },
    /// Row-parallel move of an `nr × nc` region from block `b1`
    /// (`r1`, `c1`) to block `b2` (`r2`, `c2`).
    RowMv {
        /// Source block.
        b1: usize,
        /// Source row.
        r1: usize,
        /// Source column.
        c1: usize,
        /// Destination block.
        b2: usize,
        /// Destination row.
        r2: usize,
        /// Destination column.
        c2: usize,
        /// Rows moved.
        nr: usize,
        /// Columns moved.
        nc: usize,
    },
    /// Row-parallel write of `bits` bit-columns into `nr` rows of block
    /// `b` starting at (`r`, `c`) — host loads and broadcasts.
    Write {
        /// Destination block.
        b: usize,
        /// First destination row.
        r: usize,
        /// First destination column.
        c: usize,
        /// Rows written.
        nr: usize,
        /// Bit-columns written.
        bits: usize,
    },
    /// Row-parallel 2:1 select (NOR mux): destination block `bd`
    /// columns `cd..cd+bits` takes the `x` operand where the flag
    /// column (`bf`, `cf`) is set, the `y` operand elsewhere.
    Select {
        /// Flag block.
        bf: usize,
        /// Flag column (1 bit).
        cf: usize,
        /// `x` operand block.
        bx: usize,
        /// `x` operand column base.
        cx: usize,
        /// `y` operand block.
        by: usize,
        /// `y` operand column base.
        cy: usize,
        /// Destination block.
        bd: usize,
        /// Destination column base.
        cd: usize,
        /// Operand/destination bit-width.
        bits: usize,
    },
}

impl Instruction {
    /// The instruction mnemonic as printed in Table I (plus the
    /// driver-level `write`/`select`/`exact_search` entries).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Self::SetQInput { .. } => "set_qinput",
            Self::Hamm7 { .. } => "hamm_7",
            Self::Arith {
                kind: ArithKind::Add,
                ..
            } => "add",
            Self::Arith {
                kind: ArithKind::Sub,
                ..
            } => "sub",
            Self::Arith {
                kind: ArithKind::Mul,
                ..
            } => "mul",
            Self::Arith {
                kind: ArithKind::Div,
                ..
            } => "div",
            Self::NearSearch { .. } => "near_search",
            Self::ExactSearch { .. } => "exact_search",
            Self::RowMv { .. } => "row_mv",
            Self::Write { .. } => "write",
            Self::Select { .. } => "select",
        }
    }
}

/// The specialized registers PIM instructions read and write (§VII-C).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegisterFile {
    /// Query register: the bit pattern driven onto the bitlines.
    pub q: Vec<bool>,
    /// Result register of the last `near_search` (the matched value).
    pub rst: u64,
    /// Index register of the last `near_search` (the matched row).
    pub idx: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_cover_table1() {
        let insts = [
            Instruction::SetQInput {
                b: 0,
                addr: 0,
                size: 8,
            },
            Instruction::Hamm7 { b: 0, c1: 0, c2: 7 },
            Instruction::Arith {
                kind: ArithKind::Add,
                b1: 0,
                c1: 0,
                b2: 0,
                c2: 0,
                d: 0,
                dc: 0,
                c3: 8,
                bits: 8,
                dbits: 8,
            },
            Instruction::Arith {
                kind: ArithKind::Div,
                b1: 0,
                c1: 0,
                b2: 0,
                c2: 0,
                d: 0,
                dc: 0,
                c3: 8,
                bits: 8,
                dbits: 8,
            },
            Instruction::NearSearch {
                b: 0,
                nc: 4,
                c: 0,
                q: 0,
            },
            Instruction::ExactSearch {
                b: 0,
                nc: 4,
                c: 0,
                q: 0,
            },
            Instruction::RowMv {
                b1: 0,
                r1: 0,
                c1: 0,
                b2: 1,
                r2: 0,
                c2: 0,
                nr: 1,
                nc: 1,
            },
            Instruction::Write {
                b: 0,
                r: 0,
                c: 0,
                nr: 4,
                bits: 8,
            },
            Instruction::Select {
                bf: 0,
                cf: 7,
                bx: 1,
                cx: 0,
                by: 2,
                cy: 0,
                bd: 3,
                cd: 0,
                bits: 8,
            },
        ];
        let names: Vec<_> = insts.iter().map(Instruction::mnemonic).collect();
        assert_eq!(
            names,
            vec![
                "set_qinput",
                "hamm_7",
                "add",
                "div",
                "near_search",
                "exact_search",
                "row_mv",
                "write",
                "select",
            ]
        );
    }

    #[test]
    fn register_file_default_is_empty() {
        let r = RegisterFile::default();
        assert!(r.q.is_empty());
        assert_eq!((r.rst, r.idx), (0, 0));
    }
}
