//! The VLCA runtime: lowers built-in functions onto PIM instructions,
//! executes them functionally against crossbar blocks, and accounts
//! Table III costs.

use crate::alloc::{Allocation, BlockAllocator};
use crate::inst::{ArithKind, Instruction, RegisterFile};
use crate::{IsaError, Vlca};
use dual_pim::{
    distance_bits, nearest_search, nearest_stages, windows, CostModel, EnergyStats, MemoryBlock,
    Op, STAGE_BITS, WINDOW_BITS,
};

/// Default number of blocks a runtime manages — plenty for the software
/// test configurations; the real chip has 16 384.
const DEFAULT_POOL_BLOCKS: usize = 64;

/// Executes DUAL built-ins over functional PIM blocks.
///
/// Semantics notes:
/// * `add`/`sub`/`mul` are bit-exact (the NOR microcode that implements
///   them in hardware is verified gate-by-gate in `dual-pim`; the
///   runtime computes values directly and charges Table III costs).
/// * `div` keeps the hardware's *approximate* TruncApp semantics
///   ([`dual_pim::div_approx`]): quotients are underestimated by up
///   to 25 % for power-of-two divisors.
/// * All results wrap modulo `2^bits` of the destination VLCA, exactly
///   like fixed-width columns in memory.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Runtime {
    blocks: Vec<MemoryBlock>,
    rows: usize,
    cols: usize,
    data_cols: usize,
    allocator: BlockAllocator,
    regs: RegisterFile,
    cost: CostModel,
    stats: EnergyStats,
    trace: Vec<Instruction>,
}

impl Runtime {
    /// Create a runtime whose blocks are `rows × cols` cells; half the
    /// columns are reserved as arithmetic scratch (Table III's
    /// "required memory"), the rest hold data.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidParameter`] when `rows == 0` or
    /// `cols < 8`.
    pub fn with_block_geometry(rows: usize, cols: usize) -> Result<Self, IsaError> {
        Self::with_pool(rows, cols, DEFAULT_POOL_BLOCKS)
    }

    /// As [`Runtime::with_block_geometry`] with an explicit block-pool
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidParameter`] for degenerate shapes.
    pub fn with_pool(rows: usize, cols: usize, n_blocks: usize) -> Result<Self, IsaError> {
        if rows == 0 || cols < 8 || n_blocks == 0 {
            return Err(IsaError::InvalidParameter {
                name: "geometry",
                reason: "need rows ≥ 1, cols ≥ 8, blocks ≥ 1",
            });
        }
        let data_cols = cols / 2;
        Ok(Self {
            blocks: (0..n_blocks)
                .map(|_| MemoryBlock::new(rows, cols))
                .collect(),
            rows,
            cols,
            data_cols,
            allocator: BlockAllocator::new(n_blocks, rows, data_cols),
            regs: RegisterFile::default(),
            cost: CostModel::paper(),
            stats: EnergyStats::new(),
            trace: Vec::new(),
        })
    }

    /// Accumulated cost statistics.
    #[must_use]
    pub fn stats(&self) -> &EnergyStats {
        &self.stats
    }

    /// The instruction trace issued so far.
    #[must_use]
    pub fn trace(&self) -> &[Instruction] {
        &self.trace
    }

    /// Rows per block.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total columns per block (data + arithmetic scratch).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Data columns per block (the lower half; scratch starts here).
    #[must_use]
    pub fn data_cols(&self) -> usize {
        self.data_cols
    }

    /// Number of blocks in the pool.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The cost model pricing every issued operation.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Allocate a `vlca<bits>[len]`.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn alloc(&mut self, bits: usize, len: usize) -> Result<Vlca, IsaError> {
        let id = self.allocator.alloc(bits, len)?;
        Ok(Vlca::root(id, bits, len))
    }

    /// Free a VLCA's backing blocks.
    ///
    /// # Errors
    ///
    /// [`IsaError::StaleHandle`] when already freed.
    pub fn free(&mut self, v: &Vlca) -> Result<(), IsaError> {
        self.allocator.free(v.id)
    }

    fn allocation(&self, v: &Vlca) -> Result<Allocation, IsaError> {
        Ok(self.allocator.get(v.id)?.clone())
    }

    /// Physical anchor of a view: `(block, row, col)` of its first
    /// element's first bit. A degenerate (empty) bit slice clamps to the
    /// last valid column so the trace entry stays addressable.
    fn anchor(al: &Allocation, v: &Vlca) -> (usize, usize, usize) {
        let (tbl, r, c) = al.locate(0, v.bit_offset.min(al.bits - 1));
        (al.blocks[tbl], r, c)
    }

    /// Emit the `hamm_7` window sweep over `v`'s bit span, splitting
    /// windows at block (chunk) boundaries so every trace entry
    /// addresses columns of a single block; returns the number of
    /// window pieces issued (≥ `⌈bits/7⌉`, more when windows straddle
    /// chunk boundaries — each piece is a real sweep the hardware pays
    /// for).
    fn emit_hamm7_windows(&mut self, al: &Allocation, v: &Vlca) -> u64 {
        let windows = v.bits().div_ceil(WINDOW_BITS);
        let mut pieces = 0u64;
        for w in 0..windows {
            let start = w * WINDOW_BITS;
            let end = (start + WINDOW_BITS).min(v.bits());
            let mut s = start;
            while s < end {
                let abs = v.bit_offset + s;
                let chunk = abs / al.chunk_bits;
                // One-past-last bit of this piece: the window end,
                // clipped to the chunk's last column.
                let piece_end = end.min((chunk + 1) * al.chunk_bits - v.bit_offset);
                self.trace.push(Instruction::Hamm7 {
                    b: al.blocks[chunk],
                    c1: abs % al.chunk_bits,
                    c2: abs % al.chunk_bits + (piece_end - s),
                });
                pieces += 1;
                s = piece_end;
            }
        }
        pieces
    }

    fn set_bit(
        &mut self,
        al: &Allocation,
        v: &Vlca,
        row: usize,
        bit: usize,
        value: bool,
    ) -> Result<(), IsaError> {
        let (tbl, r, c) = al.locate(row, v.bit_offset + bit);
        let block = al.blocks[tbl];
        self.blocks[block].nor_engine_mut().set_bit(r, c, value)?;
        Ok(())
    }

    fn get_bit(&self, al: &Allocation, v: &Vlca, row: usize, bit: usize) -> Result<bool, IsaError> {
        let (tbl, r, c) = al.locate(row, v.bit_offset + bit);
        let block = al.blocks[tbl];
        Ok(self.blocks[block].nor_engine().get_bit(r, c)?)
    }

    /// Host-side load of integer values (one per element). Costed as a
    /// row-parallel write of each bit-column.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] when `values.len() != v.len()` or the
    /// element width exceeds 64 bits.
    pub fn write_values(&mut self, v: &Vlca, values: &[u64]) -> Result<(), IsaError> {
        if values.len() != v.len() || v.bits() > 64 {
            return Err(IsaError::ShapeMismatch {
                what: "write_values",
            });
        }
        let al = self.allocation(v)?;
        for (row, &val) in values.iter().enumerate() {
            for bit in 0..v.bits() {
                self.set_bit(&al, v, row, bit, (val >> bit) & 1 == 1)?;
            }
        }
        self.stats.record(
            &self.cost,
            Op::Write {
                bits: v.bits() as u32,
            },
        );
        let (b, r, c) = Self::anchor(&al, v);
        self.trace.push(Instruction::Write {
            b,
            r,
            c,
            nr: v.len(),
            bits: v.bits(),
        });
        Ok(())
    }

    /// Read back integer values (host-side, uncosted — debugging aid).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] when the width exceeds 64 bits.
    pub fn read_values(&self, v: &Vlca) -> Result<Vec<u64>, IsaError> {
        if v.bits() > 64 {
            return Err(IsaError::ShapeMismatch {
                what: "read_values",
            });
        }
        let al = self.allocation(v)?;
        let mut out = Vec::with_capacity(v.len());
        for row in 0..v.len() {
            let mut val = 0u64;
            for bit in 0..v.bits() {
                if self.get_bit(&al, v, row, bit)? {
                    val |= 1 << bit;
                }
            }
            out.push(val);
        }
        Ok(out)
    }

    /// Host-side load of one element's raw bits (hypervector rows wider
    /// than 64 bits).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] on width or row overflow.
    pub fn write_bits(&mut self, v: &Vlca, row: usize, bits: &[bool]) -> Result<(), IsaError> {
        if bits.len() != v.bits() || row >= v.len() {
            return Err(IsaError::ShapeMismatch { what: "write_bits" });
        }
        let al = self.allocation(v)?;
        for (bit, &b) in bits.iter().enumerate() {
            self.set_bit(&al, v, row, bit, b)?;
        }
        Ok(())
    }

    /// Read one element's raw bits.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] on row overflow.
    pub fn read_bits(&self, v: &Vlca, row: usize) -> Result<Vec<bool>, IsaError> {
        if row >= v.len() {
            return Err(IsaError::ShapeMismatch { what: "read_bits" });
        }
        let al = self.allocation(v)?;
        (0..v.bits())
            .map(|bit| self.get_bit(&al, v, row, bit))
            .collect()
    }

    /// The `hamming(input, refs)` built-in (§VII-B): row-parallel
    /// Hamming distance of `query` against every element of `refs`,
    /// swept serially over 7-bit windows, partial counts written back
    /// (3 bits per window) and accumulated in-memory into `log₂ D`-bit
    /// totals.
    ///
    /// Returns a freshly allocated distance VLCA of width
    /// `⌈log₂(D+1)⌉`.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] when `query.len() != refs.bits()`.
    pub fn hamming(&mut self, query: &[bool], refs: &Vlca) -> Result<Vlca, IsaError> {
        if query.len() != refs.bits() {
            return Err(IsaError::ShapeMismatch { what: "hamming" });
        }
        let al = self.allocation(refs)?;
        self.regs.q = query.to_vec();
        self.trace.push(Instruction::SetQInput {
            b: al.blocks[0],
            addr: 0,
            size: query.len(),
        });
        let out = self.alloc(distance_bits(refs.bits()) as usize, refs.len())?;
        // Functional: compute distances element-wise over the stored bits.
        let mut dists = Vec::with_capacity(refs.len());
        for row in 0..refs.len() {
            let mut d = 0u64;
            #[expect(
                clippy::needless_range_loop,
                reason = "bit indexes both query and the stored row"
            )]
            for bit in 0..refs.bits() {
                if self.get_bit(&al, refs, row, bit)? != query[bit] {
                    d += 1;
                }
            }
            dists.push(d.min((1u64 << out.bits()) - 1));
        }
        // Cost: one window search per 7 bits (serial, split at block
        // boundaries), each piece's 3-bit counter writeback, and the
        // in-memory accumulation adds.
        let pieces = self.emit_hamm7_windows(&al, refs);
        self.stats
            .record_serial(&self.cost, Op::HammingWindow, pieces);
        self.stats
            .record_serial(&self.cost, Op::Write { bits: 3 }, pieces);
        let windows = windows(refs.bits());
        if windows > 1 {
            self.stats.record_serial(
                &self.cost,
                Op::Add {
                    bits: out.bits() as u32,
                },
                windows - 1,
            );
            // The accumulation runs in place on the output columns —
            // the canonical accumulator idiom (dest exactly aliases the
            // operand).
            let out_al = self.allocation(&out)?;
            let (ob, _, oc) = Self::anchor(&out_al, &out);
            for _ in 0..windows - 1 {
                self.trace.push(Instruction::Arith {
                    kind: ArithKind::Add,
                    b1: ob,
                    c1: oc,
                    b2: ob,
                    c2: oc,
                    d: ob,
                    dc: oc,
                    c3: self.data_cols,
                    bits: out.bits(),
                    dbits: out.bits(),
                });
            }
        }
        let out_clone = out.clone();
        self.write_values_uncosted(&out_clone, &dists)?;
        Ok(out)
    }

    fn write_values_uncosted(&mut self, v: &Vlca, values: &[u64]) -> Result<(), IsaError> {
        let al = self.allocation(v)?;
        for (row, &val) in values.iter().enumerate() {
            for bit in 0..v.bits() {
                self.set_bit(&al, v, row, bit, (val >> bit) & 1 == 1)?;
            }
        }
        Ok(())
    }

    fn arith(&mut self, kind: ArithKind, a: &Vlca, b: &Vlca, out: &Vlca) -> Result<(), IsaError> {
        if a.len() != b.len()
            || a.len() != out.len()
            || a.bits() > 64
            || b.bits() > 64
            || out.bits() > 64
        {
            return Err(IsaError::ShapeMismatch { what: "arithmetic" });
        }
        let va = self.read_values(a)?;
        let vb = self.read_values(b)?;
        let mask = if out.bits() >= 64 {
            u64::MAX
        } else {
            (1u64 << out.bits()) - 1
        };
        let res: Result<Vec<u64>, IsaError> = va
            .iter()
            .zip(&vb)
            .map(|(&x, &y)| match kind {
                ArithKind::Add => Ok(x.wrapping_add(y) & mask),
                ArithKind::Sub => Ok(x.wrapping_sub(y) & mask),
                ArithKind::Mul => Ok(x.wrapping_mul(y) & mask),
                ArithKind::Div => {
                    if y == 0 {
                        Err(IsaError::InvalidParameter {
                            name: "divisor",
                            reason: "division by zero element",
                        })
                    } else {
                        Ok(dual_pim::div_approx(x, y) & mask)
                    }
                }
            })
            .collect();
        let res = res?;
        self.write_values_uncosted(out, &res)?;
        let op = kind.op(a.bits().max(b.bits()) as u32);
        self.stats.record(&self.cost, op);
        let al_a = self.allocation(a)?;
        let al_b = self.allocation(b)?;
        let al_out = self.allocation(out)?;
        let (b1, _, c1) = Self::anchor(&al_a, a);
        let (b2, _, c2) = Self::anchor(&al_b, b);
        let (d, _, dc) = Self::anchor(&al_out, out);
        self.trace.push(Instruction::Arith {
            kind,
            b1,
            c1,
            b2,
            c2,
            d,
            dc,
            c3: self.data_cols,
            bits: a.bits().max(b.bits()),
            dbits: out.bits(),
        });
        Ok(())
    }

    /// Row-parallel `out = a + b` (wrapping to `out.bits()`).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] on incompatible shapes.
    pub fn add(&mut self, a: &Vlca, b: &Vlca, out: &Vlca) -> Result<(), IsaError> {
        self.arith(ArithKind::Add, a, b, out)
    }

    /// Row-parallel `out = a - b` (two's-complement wrap).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] on incompatible shapes.
    pub fn sub(&mut self, a: &Vlca, b: &Vlca, out: &Vlca) -> Result<(), IsaError> {
        self.arith(ArithKind::Sub, a, b, out)
    }

    /// Row-parallel `out = a · b` (wrapping).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] on incompatible shapes.
    pub fn mul(&mut self, a: &Vlca, b: &Vlca, out: &Vlca) -> Result<(), IsaError> {
        self.arith(ArithKind::Mul, a, b, out)
    }

    /// Row-parallel approximate division `out ≈ a / b`.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] on incompatible shapes;
    /// [`IsaError::InvalidParameter`] when any divisor element is zero.
    pub fn div(&mut self, a: &Vlca, b: &Vlca, out: &Vlca) -> Result<(), IsaError> {
        self.arith(ArithKind::Div, a, b, out)
    }

    /// The `near_search(input, target)` built-in: find the element of
    /// `v` nearest to `target` (staged 4-bit search, exact for min/max
    /// queries). Returns `(index, value)` and latches them into the
    /// `idx`/`rst` registers.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] for empty or too-wide VLCAs.
    pub fn near_search(&mut self, v: &Vlca, target: u64) -> Result<(usize, u64), IsaError> {
        self.near_search_masked(v, target, None)
    }

    /// As [`Runtime::near_search`] with an optional valid-flag mask
    /// (the distance memory's flag column, §V-C).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] for shape problems or when the mask
    /// deselects every element.
    pub fn near_search_masked(
        &mut self,
        v: &Vlca,
        target: u64,
        active: Option<&[bool]>,
    ) -> Result<(usize, u64), IsaError> {
        if v.is_empty() || v.bits() > 64 {
            return Err(IsaError::ShapeMismatch {
                what: "near_search",
            });
        }
        if let Some(m) = active {
            if m.len() != v.len() {
                return Err(IsaError::ShapeMismatch {
                    what: "near_search mask",
                });
            }
        }
        let values = self.read_values(v)?;
        let all = vec![true; values.len()];
        let mask = active.unwrap_or(&all);
        let found = nearest_search(&values, mask, target, v.bits() as u32, STAGE_BITS).ok_or(
            IsaError::ShapeMismatch {
                what: "near_search: empty active set",
            },
        )?;
        let stages = nearest_stages(v.bits() as u32);
        self.stats
            .record_serial(&self.cost, Op::NearestStage, u64::from(stages));
        let al = self.allocation(v)?;
        let (blk, _, c) = Self::anchor(&al, v);
        // The staged search drives the target pattern onto the bitlines
        // through the query register, like `hamming` does.
        self.regs.q = (0..v.bits()).map(|i| (target >> i) & 1 == 1).collect();
        self.trace.push(Instruction::SetQInput {
            b: blk,
            addr: 0,
            size: v.bits(),
        });
        self.trace.push(Instruction::NearSearch {
            b: blk,
            nc: v.bits(),
            c,
            q: target,
        });
        self.regs.idx = found.0 as u64;
        self.regs.rst = found.1;
        Ok(found)
    }

    /// The decomposed first half of [`Runtime::hamming`]: run the window
    /// sweeps and leave the per-window 3-bit partial counts in memory
    /// (window `w` occupies bits `3w..3w+3` of each element), exactly
    /// the layout the distance blocks hold before accumulation (§V-B).
    ///
    /// Returns the partials VLCA and the window count.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] when `query.len() != refs.bits()`.
    pub fn hamming_partials(
        &mut self,
        query: &[bool],
        refs: &Vlca,
    ) -> Result<(Vlca, u32), IsaError> {
        if query.len() != refs.bits() {
            return Err(IsaError::ShapeMismatch {
                what: "hamming_partials",
            });
        }
        let al = self.allocation(refs)?;
        self.regs.q = query.to_vec();
        self.trace.push(Instruction::SetQInput {
            b: al.blocks[0],
            addr: 0,
            size: query.len(),
        });
        let windows = refs.bits().div_ceil(WINDOW_BITS);
        let out = self.alloc(3 * windows, refs.len())?;
        let mut packed = vec![0u64; refs.len()];
        for (row, p) in packed.iter_mut().enumerate() {
            for w in 0..windows {
                let start = w * WINDOW_BITS;
                let end = (start + WINDOW_BITS).min(refs.bits());
                let mut count = 0u64;
                #[expect(
                    clippy::needless_range_loop,
                    reason = "bit indexes both query and the stored row"
                )]
                for bit in start..end {
                    if self.get_bit(&al, refs, row, bit)? != query[bit] {
                        count += 1;
                    }
                }
                *p |= count << (3 * w);
            }
            if 3 * windows > 64 {
                // Wide partials exceed a u64; fall back to bit writes.
                break;
            }
        }
        if 3 * windows <= 64 {
            self.write_values_uncosted(&out, &packed)?;
        } else {
            let out_al = self.allocation(&out)?;
            for row in 0..refs.len() {
                for w in 0..windows {
                    let start = w * WINDOW_BITS;
                    let end = (start + WINDOW_BITS).min(refs.bits());
                    let mut count = 0u64;
                    #[expect(
                        clippy::needless_range_loop,
                        reason = "bit indexes both query and the stored row"
                    )]
                    for bit in start..end {
                        if self.get_bit(&al, refs, row, bit)? != query[bit] {
                            count += 1;
                        }
                    }
                    for b in 0..3 {
                        self.set_bit(&out_al, &out, row, 3 * w + b, (count >> b) & 1 == 1)?;
                    }
                }
            }
        }
        let pieces = self.emit_hamm7_windows(&al, refs);
        self.stats
            .record_serial(&self.cost, Op::HammingWindow, pieces);
        self.stats
            .record_serial(&self.cost, Op::Write { bits: 3 }, pieces);
        Ok((out, windows as u32))
    }

    /// The in-memory accumulation pass (§V-B): tree-sum the `windows`
    /// 3-bit partial fields of each element into one `⌈log₂(7·windows +
    /// 1)⌉`-bit total with row-parallel additions of growing width.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] when the partials VLCA is not
    /// `3 × windows` bits wide.
    pub fn accumulate_partials(&mut self, partials: &Vlca, windows: u32) -> Result<Vlca, IsaError> {
        let w = windows as usize;
        if w == 0 || partials.bits() != 3 * w {
            return Err(IsaError::ShapeMismatch {
                what: "accumulate_partials",
            });
        }
        // Gather current partial values (3-bit groups).
        let mut sums: Vec<Vec<u64>> = vec![Vec::with_capacity(w); partials.len()];
        let al = self.allocation(partials)?;
        for (row, sum) in sums.iter_mut().enumerate() {
            for g in 0..w {
                let mut v = 0u64;
                for b in 0..3 {
                    if self.get_bit(&al, partials, row, 3 * g + b)? {
                        v |= 1 << b;
                    }
                }
                sum.push(v);
            }
        }
        // Tree reduction, pricing one row-parallel add per pair per level
        // at the running bit-width. The adds run in place on the
        // partials columns (the accumulator idiom: dest exactly aliases
        // the operand).
        let (pb, _, pc) = Self::anchor(&al, partials);
        let mut width = 3u32;
        let mut live = w;
        while live > 1 {
            let pairs = live / 2;
            self.stats
                .record_serial(&self.cost, Op::Add { bits: width }, pairs as u64);
            for _ in 0..pairs {
                self.trace.push(Instruction::Arith {
                    kind: ArithKind::Add,
                    b1: pb,
                    c1: pc,
                    b2: pb,
                    c2: pc,
                    d: pb,
                    dc: pc,
                    c3: self.data_cols,
                    bits: width as usize,
                    dbits: width as usize,
                });
            }
            for row_sums in &mut sums {
                let mut next = Vec::with_capacity(live.div_ceil(2));
                for pair in row_sums.chunks(2) {
                    next.push(pair.iter().sum());
                }
                *row_sums = next;
            }
            live = live.div_ceil(2);
            width += 1;
        }
        let out = self.alloc(distance_bits(WINDOW_BITS * w) as usize, partials.len())?;
        let totals: Vec<u64> = sums.iter().map(|s| s[0]).collect();
        self.write_values_uncosted(&out, &totals)?;
        Ok(out)
    }

    /// Row-parallel 2:1 select: `out_i = if flag_i { x_i } else { y_i }`
    /// — the NOR mux `NOR(NOR(s', x'), NOR(s, y'))` at VLCA
    /// granularity. `flag` must be a 1-bit VLCA; costed as one
    /// row-parallel addition of the output width (the mux microcode is
    /// ~half an adder per bit).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] on ragged shapes or a non-1-bit flag.
    pub fn select(&mut self, flag: &Vlca, x: &Vlca, y: &Vlca, out: &Vlca) -> Result<(), IsaError> {
        if flag.bits() != 1
            || x.len() != flag.len()
            || y.len() != flag.len()
            || out.len() != flag.len()
            || x.bits() > 64
            || y.bits() > 64
            || out.bits() > 64
        {
            return Err(IsaError::ShapeMismatch { what: "select" });
        }
        let f = self.read_values(flag)?;
        let xv = self.read_values(x)?;
        let yv = self.read_values(y)?;
        let mask = if out.bits() >= 64 {
            u64::MAX
        } else {
            (1u64 << out.bits()) - 1
        };
        let res: Vec<u64> = f
            .iter()
            .zip(xv.iter().zip(&yv))
            .map(|(&fi, (&xi, &yi))| (if fi == 1 { xi } else { yi }) & mask)
            .collect();
        self.write_values_uncosted(out, &res)?;
        self.stats.record(
            &self.cost,
            Op::Add {
                bits: out.bits() as u32,
            },
        );
        let al_f = self.allocation(flag)?;
        let al_x = self.allocation(x)?;
        let al_y = self.allocation(y)?;
        let al_out = self.allocation(out)?;
        let (bf, _, cf) = Self::anchor(&al_f, flag);
        let (bx, _, cx) = Self::anchor(&al_x, x);
        let (by, _, cy) = Self::anchor(&al_y, y);
        let (bd, _, cd) = Self::anchor(&al_out, out);
        self.trace.push(Instruction::Select {
            bf,
            cf,
            bx,
            cx,
            by,
            cy,
            bd,
            cd,
            bits: out.bits(),
        });
        Ok(())
    }

    /// The native CAM exact-search: indices of all elements exactly
    /// equal to `target` (§IV-A — "the exact search is one of the
    /// native operations supported by crossbar memory"). One search
    /// cycle per 4-bit group.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] for empty or too-wide VLCAs.
    pub fn exact_search(&mut self, v: &Vlca, target: u64) -> Result<Vec<usize>, IsaError> {
        if v.is_empty() || v.bits() > 64 {
            return Err(IsaError::ShapeMismatch {
                what: "exact_search",
            });
        }
        let values = self.read_values(v)?;
        let stages = nearest_stages(v.bits() as u32);
        self.stats
            .record_serial(&self.cost, Op::NearestStage, u64::from(stages));
        let al = self.allocation(v)?;
        let (blk, _, c) = Self::anchor(&al, v);
        self.regs.q = (0..v.bits()).map(|i| (target >> i) & 1 == 1).collect();
        self.trace.push(Instruction::SetQInput {
            b: blk,
            addr: 0,
            size: v.bits(),
        });
        self.trace.push(Instruction::ExactSearch {
            b: blk,
            nc: v.bits(),
            c,
            q: target,
        });
        Ok(values
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x == target)
            .map(|(i, _)| i)
            .collect())
    }

    /// Row-parallel broadcast write: set every element of `v` to
    /// `value` in a single write cycle per bit-column (the Fig. 6 step
    /// C primitive that materializes `s_i`/`s_j` columns).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] for too-wide VLCAs.
    pub fn broadcast(&mut self, v: &Vlca, value: u64) -> Result<(), IsaError> {
        if v.bits() > 64 {
            return Err(IsaError::ShapeMismatch { what: "broadcast" });
        }
        let values = vec![value; v.len()];
        self.write_values_uncosted(v, &values)?;
        self.stats.record(
            &self.cost,
            Op::Write {
                bits: v.bits() as u32,
            },
        );
        let al = self.allocation(v)?;
        let (b, r, c) = Self::anchor(&al, v);
        self.trace.push(Instruction::Write {
            b,
            r,
            c,
            nr: v.len(),
            bits: v.bits(),
        });
        Ok(())
    }

    /// Per-row argmin across `k` equally-shaped distance columns — the
    /// §VI-C k-means comparison: "a series of row-parallel subtractions,
    /// comparing the distance values two-by-two". Costs `k − 1`
    /// row-parallel subtractions.
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] when `columns` is empty or the
    /// shapes differ.
    pub fn arg_min_columns(&mut self, columns: &[&Vlca]) -> Result<Vec<usize>, IsaError> {
        let first = columns.first().ok_or(IsaError::ShapeMismatch {
            what: "arg_min_columns: empty",
        })?;
        if columns
            .iter()
            .any(|c| c.len() != first.len() || c.bits() != first.bits())
        {
            return Err(IsaError::ShapeMismatch {
                what: "arg_min_columns: ragged",
            });
        }
        let mut best_vals = self.read_values(first)?;
        let mut best_idx = vec![0usize; first.len()];
        for (c, col) in columns.iter().enumerate().skip(1) {
            let vals = self.read_values(col)?;
            // One row-parallel subtraction reveals every row's winner.
            self.stats.record(
                &self.cost,
                Op::Sub {
                    bits: first.bits() as u32,
                },
            );
            // The comparison subtracts the running best (held in the
            // first column set) from this column in place.
            let al_col = self.allocation(col)?;
            let al_first = self.allocation(first)?;
            let (cb, _, cc) = Self::anchor(&al_col, col);
            let (fb, _, fc) = Self::anchor(&al_first, first);
            self.trace.push(Instruction::Arith {
                kind: ArithKind::Sub,
                b1: cb,
                c1: cc,
                b2: fb,
                c2: fc,
                d: cb,
                dc: cc,
                c3: self.data_cols,
                bits: first.bits(),
                dbits: col.bits(),
            });
            for (i, &v) in vals.iter().enumerate() {
                if v < best_vals[i] {
                    best_vals[i] = v;
                    best_idx[i] = c;
                }
            }
        }
        Ok(best_idx)
    }

    /// The assignment built-in `a = b`: row-parallel copy of `src` into
    /// `dst` (bit-serial over the interconnect, §VII-B).
    ///
    /// # Errors
    ///
    /// [`IsaError::ShapeMismatch`] when shapes differ.
    pub fn row_mv(&mut self, src: &Vlca, dst: &Vlca) -> Result<(), IsaError> {
        if src.bits() != dst.bits() || src.len() != dst.len() {
            return Err(IsaError::ShapeMismatch { what: "row_mv" });
        }
        let al_src = self.allocation(src)?;
        let al_dst = self.allocation(dst)?;
        for row in 0..src.len() {
            for bit in 0..src.bits() {
                let b = self.get_bit(&al_src, src, row, bit)?;
                self.set_bit(&al_dst, dst, row, bit, b)?;
            }
        }
        self.stats.record(
            &self.cost,
            Op::Transfer {
                bits: src.bits() as u32,
            },
        );
        let (b1, r1, c1) = Self::anchor(&al_src, src);
        let (b2, r2, c2) = Self::anchor(&al_dst, dst);
        self.trace.push(Instruction::RowMv {
            b1,
            r1,
            c1,
            b2,
            r2,
            c2,
            nr: src.len(),
            nc: src.bits(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> Runtime {
        Runtime::with_block_geometry(32, 64).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(Runtime::with_block_geometry(0, 64).is_err());
        assert!(Runtime::with_block_geometry(8, 4).is_err());
        assert!(Runtime::with_pool(8, 64, 0).is_err());
    }

    #[test]
    fn value_roundtrip() {
        let mut rt = rt();
        let v = rt.alloc(12, 5).unwrap();
        rt.write_values(&v, &[0, 1, 4095, 7, 2048]).unwrap();
        assert_eq!(rt.read_values(&v).unwrap(), vec![0, 1, 4095, 7, 2048]);
    }

    #[test]
    fn bits_roundtrip_wide() {
        let mut rt = Runtime::with_block_geometry(8, 40).unwrap();
        // 50-bit elements span two 20-col data chunks.
        let v = rt.alloc(50, 3).unwrap();
        let bits: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        rt.write_bits(&v, 1, &bits).unwrap();
        assert_eq!(rt.read_bits(&v, 1).unwrap(), bits);
    }

    #[test]
    fn arithmetic_matches_wrapping_semantics() {
        let mut rt = rt();
        let a = rt.alloc(8, 4).unwrap();
        let b = rt.alloc(8, 4).unwrap();
        let out = rt.alloc(8, 4).unwrap();
        rt.write_values(&a, &[250, 3, 16, 0]).unwrap();
        rt.write_values(&b, &[10, 4, 16, 5]).unwrap();
        rt.add(&a, &b, &out).unwrap();
        assert_eq!(rt.read_values(&out).unwrap(), vec![4, 7, 32, 5]);
        rt.sub(&a, &b, &out).unwrap();
        assert_eq!(rt.read_values(&out).unwrap(), vec![240, 255, 0, 251]);
        rt.mul(&a, &b, &out).unwrap();
        assert_eq!(rt.read_values(&out).unwrap(), vec![196, 12, 0, 0]);
    }

    #[test]
    fn division_is_approximate_but_ordered() {
        let mut rt = rt();
        let a = rt.alloc(16, 3).unwrap();
        let b = rt.alloc(16, 3).unwrap();
        let out = rt.alloc(16, 3).unwrap();
        rt.write_values(&a, &[1000, 1000, 1000]).unwrap();
        rt.write_values(&b, &[10, 100, 3]).unwrap();
        rt.div(&a, &b, &out).unwrap();
        let q = rt.read_values(&out).unwrap();
        for (i, &(n, d)) in [(1000u64, 10u64), (1000, 100), (1000, 3)]
            .iter()
            .enumerate()
        {
            let truth = n as f64 / d as f64;
            assert!(
                q[i] as f64 <= truth && q[i] as f64 >= 0.70 * truth - 1.0,
                "q[{i}]={}",
                q[i]
            );
        }
        // Divide by zero is rejected.
        rt.write_values(&b, &[1, 0, 1]).unwrap();
        assert!(rt.div(&a, &b, &out).is_err());
    }

    #[test]
    fn hamming_builtin_matches_software() {
        let mut rt = Runtime::with_block_geometry(16, 64).unwrap();
        let refs = rt.alloc(20, 4).unwrap();
        let rows: Vec<Vec<bool>> = (0..4)
            .map(|r| (0..20).map(|i| (i + r) % 3 == 0).collect())
            .collect();
        for (r, bits) in rows.iter().enumerate() {
            rt.write_bits(&refs, r, bits).unwrap();
        }
        let query: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let d = rt.hamming(&query, &refs).unwrap();
        let got = rt.read_values(&d).unwrap();
        for (r, bits) in rows.iter().enumerate() {
            let sw = bits.iter().zip(&query).filter(|(a, b)| a != b).count() as u64;
            assert_eq!(got[r], sw, "row {r}");
        }
        // Cost: ⌈20/7⌉ = 3 windows were charged.
        assert_eq!(rt.stats().count(Op::HammingWindow), 3);
    }

    #[test]
    fn near_search_finds_min_and_sets_registers() {
        let mut rt = rt();
        let v = rt.alloc(8, 5).unwrap();
        rt.write_values(&v, &[9, 2, 30, 2, 12]).unwrap();
        let (idx, val) = rt.near_search(&v, 0).unwrap();
        assert_eq!((idx, val), (1, 2));
        assert_eq!(rt.regs.idx, 1);
        assert_eq!(rt.regs.rst, 2);
        // Masked variant skips invalid rows.
        let (idx, _) = rt
            .near_search_masked(&v, 0, Some(&[true, false, true, false, true]))
            .unwrap();
        assert_eq!(idx, 0);
        assert!(rt.near_search_masked(&v, 0, Some(&[false; 5])).is_err());
    }

    #[test]
    fn row_mv_copies_and_costs_transfer() {
        let mut rt = rt();
        let a = rt.alloc(8, 4).unwrap();
        let b = rt.alloc(8, 4).unwrap();
        rt.write_values(&a, &[5, 6, 7, 8]).unwrap();
        rt.row_mv(&a, &b).unwrap();
        assert_eq!(rt.read_values(&b).unwrap(), vec![5, 6, 7, 8]);
        assert!(rt.stats().count(Op::Transfer { bits: 8 }) >= 1);
    }

    #[test]
    fn slices_address_subranges() {
        let mut rt = rt();
        let v = rt.alloc(8, 6).unwrap();
        rt.write_values(&v, &[1, 2, 3, 4, 5, 6]).unwrap();
        let low_nibbles = v.slice_bits(0, 4);
        assert_eq!(
            rt.read_values(&low_nibbles).unwrap(),
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn trace_records_instructions() {
        let mut rt = rt();
        let v = rt.alloc(8, 4).unwrap();
        rt.write_values(&v, &[1, 2, 3, 4]).unwrap();
        let _ = rt.near_search(&v, 0).unwrap();
        let mnemonics: Vec<_> = rt.trace().iter().map(Instruction::mnemonic).collect();
        assert!(mnemonics.contains(&"near_search"));
    }

    #[test]
    fn partials_plus_accumulate_equal_hamming() {
        let mut rt = Runtime::with_block_geometry(16, 128).unwrap();
        let refs = rt.alloc(40, 5).unwrap();
        let rows: Vec<Vec<bool>> = (0..5)
            .map(|r| (0..40).map(|b| (b + 2 * r) % 4 == 0).collect())
            .collect();
        for (r, bits) in rows.iter().enumerate() {
            rt.write_bits(&refs, r, bits).unwrap();
        }
        let query: Vec<bool> = (0..40).map(|b| b % 3 == 0).collect();
        let (partials, windows) = rt.hamming_partials(&query, &refs).unwrap();
        assert_eq!(windows, 6);
        let totals = rt.accumulate_partials(&partials, windows).unwrap();
        let got = rt.read_values(&totals).unwrap();
        for (r, bits) in rows.iter().enumerate() {
            let sw = bits.iter().zip(&query).filter(|(a, b)| a != b).count() as u64;
            assert_eq!(got[r], sw, "row {r}");
        }
        // The accumulation charged tree adds.
        assert!(rt.stats().count(Op::Add { bits: 3 }) >= 3);
        // Shape errors are rejected.
        assert!(rt.accumulate_partials(&totals, windows).is_err());
        assert!(rt.accumulate_partials(&partials, 0).is_err());
    }

    #[test]
    fn exact_search_finds_all_matches() {
        let mut rt = rt();
        let v = rt.alloc(8, 6).unwrap();
        rt.write_values(&v, &[4, 9, 4, 0, 4, 9]).unwrap();
        assert_eq!(rt.exact_search(&v, 4).unwrap(), vec![0, 2, 4]);
        assert_eq!(rt.exact_search(&v, 7).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_fills_every_row() {
        let mut rt = rt();
        let v = rt.alloc(8, 5).unwrap();
        rt.broadcast(&v, 42).unwrap();
        assert_eq!(rt.read_values(&v).unwrap(), vec![42; 5]);
        assert!(rt.stats().count(Op::Write { bits: 8 }) >= 1);
    }

    #[test]
    fn arg_min_columns_matches_software_and_costs_subs() {
        let mut rt = rt();
        let a = rt.alloc(8, 4).unwrap();
        let b = rt.alloc(8, 4).unwrap();
        let c = rt.alloc(8, 4).unwrap();
        rt.write_values(&a, &[5, 1, 9, 3]).unwrap();
        rt.write_values(&b, &[4, 2, 9, 3]).unwrap();
        rt.write_values(&c, &[6, 0, 1, 3]).unwrap();
        let winners = rt.arg_min_columns(&[&a, &b, &c]).unwrap();
        // Ties keep the earliest column, like the hardware's sequential
        // two-by-two comparison.
        assert_eq!(winners, vec![1, 2, 2, 0]);
        assert_eq!(rt.stats().count(Op::Sub { bits: 8 }), 2);
        assert!(rt.arg_min_columns(&[]).is_err());
        let ragged = rt.alloc(8, 3).unwrap();
        assert!(rt.arg_min_columns(&[&a, &ragged]).is_err());
    }

    #[test]
    fn out_of_memory_and_stale_handles() {
        let mut rt = Runtime::with_pool(8, 16, 2).unwrap();
        let a = rt.alloc(8, 8).unwrap();
        let _b = rt.alloc(8, 8).unwrap();
        assert!(matches!(rt.alloc(8, 8), Err(IsaError::OutOfMemory { .. })));
        rt.free(&a).unwrap();
        assert!(rt.alloc(8, 8).is_ok());
        assert!(matches!(rt.read_values(&a), Err(IsaError::StaleHandle)));
    }
}
