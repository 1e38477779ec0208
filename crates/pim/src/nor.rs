//! Row-parallel NOR (MAGIC) microcode engine (§IV-B).
//!
//! DUAL performs arithmetic *inside* the crossbar: selected input
//! bit-columns drive a NOR whose result is written into an output
//! column, simultaneously for every activated row. Since NOR is
//! universal, addition, subtraction, multiplication and (approximate)
//! division compose from NOR sequences — e.g. the paper's 1-bit full
//! adder (Eq. 1):
//!
//! ```text
//! Cout = ((A+B)' + (B+C)' + (C+A)')'
//! S    = (((A'+B'+C')' + ((A+B+C)' + Cout)')')'
//! ```
//!
//! [`NorEngine`] models a block's bit array column-major (one row-mask
//! per column) so a single `u64`-word operation applies the NOR to 64
//! rows at once, and counts executed NOR cycles and column writes so the
//! functional simulation can be cross-checked against the analytic
//! [`crate::cost::CostModel`].

use crate::PimError;

/// Column-major bit matrix with NOR-sequence arithmetic.
///
/// ```rust
/// use dual_pim::nor::NorEngine;
///
/// # fn main() -> Result<(), dual_pim::PimError> {
/// let mut e = NorEngine::new(4, 64)?;
/// // Little-endian 8-bit fields: a at cols 0..8, b at 8..16, out 16..24.
/// let a: Vec<usize> = (0..8).collect();
/// let b: Vec<usize> = (8..16).collect();
/// let out: Vec<usize> = (16..24).collect();
/// e.write_field_all(&a, &[3, 100, 255, 7])?;
/// e.write_field_all(&b, &[4, 55, 1, 9])?;
/// e.add(&a, &b, &out, 32)?;
/// assert_eq!(e.read_field(0, &out)?, 7);
/// assert_eq!(e.read_field(1, &out)?, 155);
/// assert_eq!(e.read_field(2, &out)?, 0); // 8-bit wraparound
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NorEngine {
    rows: usize,
    words: usize,
    cols: Vec<Vec<u64>>,
    nor_cycles: u64,
    col_writes: u64,
}

impl NorEngine {
    /// Create an engine over a `rows × cols` bit array.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidParameter`] when either dimension is
    /// zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self, PimError> {
        if rows == 0 {
            return Err(PimError::InvalidParameter {
                name: "rows",
                reason: "must be positive",
            });
        }
        if cols == 0 {
            return Err(PimError::InvalidParameter {
                name: "cols",
                reason: "must be positive",
            });
        }
        let words = rows.div_ceil(64);
        Ok(Self {
            rows,
            words,
            cols: vec![vec![0u64; words]; cols],
            nor_cycles: 0,
            col_writes: 0,
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// NOR cycles executed so far (the latency driver: one memristor
    /// switching delay each).
    #[must_use]
    pub fn nor_cycles(&self) -> u64 {
        self.nor_cycles
    }

    /// Row-parallel column writes executed so far (initializations and
    /// data loads).
    #[must_use]
    pub fn col_writes(&self) -> u64 {
        self.col_writes
    }

    /// Reset the cycle/write counters (e.g. between measured kernels).
    pub fn reset_counters(&mut self) {
        self.nor_cycles = 0;
        self.col_writes = 0;
    }

    fn check_col(&self, c: usize) -> Result<(), PimError> {
        if c >= self.cols.len() {
            return Err(PimError::OutOfRange {
                what: "column",
                index: c,
                bound: self.cols.len(),
            });
        }
        Ok(())
    }

    fn check_row(&self, r: usize) -> Result<(), PimError> {
        if r >= self.rows {
            return Err(PimError::OutOfRange {
                what: "row",
                index: r,
                bound: self.rows,
            });
        }
        Ok(())
    }

    fn tail_mask(&self) -> u64 {
        let rem = self.rows % 64;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Read one bit.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for bad indices.
    pub fn get_bit(&self, row: usize, col: usize) -> Result<bool, PimError> {
        self.check_row(row)?;
        self.check_col(col)?;
        Ok(self.bit(row, col))
    }

    /// Read one bit, with the bounds contract on the caller — the
    /// assert-validated counterpart of [`NorEngine::get_bit`] for hot
    /// paths that have already range-checked a whole window.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) when `row`/`col` are out of range.
    #[must_use]
    pub fn bit(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        (self.cols[col][row / 64] >> (row % 64)) & 1 == 1
    }

    /// Write one bit, with the bounds contract on the caller — the
    /// assert-validated counterpart of [`NorEngine::set_bit`].
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) when `row`/`col` are out of range.
    pub fn write_bit(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let w = &mut self.cols[col][row / 64];
        let m = 1u64 << (row % 64);
        if value {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Write one bit (a cell write, not a NOR cycle).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for bad indices.
    pub fn set_bit(&mut self, row: usize, col: usize, value: bool) -> Result<(), PimError> {
        self.check_row(row)?;
        self.check_col(col)?;
        let w = &mut self.cols[col][row / 64];
        let m = 1u64 << (row % 64);
        if value {
            *w |= m;
        } else {
            *w &= !m;
        }
        Ok(())
    }

    /// Row-parallel constant write of a whole column.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for a bad column.
    pub fn write_col_const(&mut self, col: usize, value: bool) -> Result<(), PimError> {
        self.check_col(col)?;
        let fill = if value { u64::MAX } else { 0 };
        for w in &mut self.cols[col] {
            *w = fill;
        }
        let tm = self.tail_mask();
        if let Some(last) = self.cols[col].last_mut() {
            *last &= tm;
        }
        self.col_writes += 1;
        Ok(())
    }

    /// Execute one row-parallel NOR: `dst = !(src₁ | src₂ | …)`.
    ///
    /// The destination column is (re)initialized as part of the cycle,
    /// matching MAGIC's pre-SET convention. `dst` must not appear among
    /// the sources (a memristor cannot be input and output of the same
    /// gate).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for bad columns or
    /// [`PimError::InvalidParameter`] when `srcs` is empty or contains
    /// `dst`.
    pub fn nor(&mut self, dst: usize, srcs: &[usize]) -> Result<(), PimError> {
        self.check_col(dst)?;
        if srcs.is_empty() {
            return Err(PimError::InvalidParameter {
                name: "srcs",
                reason: "NOR needs at least one input",
            });
        }
        for &s in srcs {
            self.check_col(s)?;
            if s == dst {
                return Err(PimError::InvalidParameter {
                    name: "dst",
                    reason: "output column cannot also be an input",
                });
            }
        }
        let tm = self.tail_mask();
        for w in 0..self.words {
            let mut acc = 0u64;
            for &s in srcs {
                acc |= self.cols[s][w];
            }
            let mask = if w + 1 == self.words { tm } else { u64::MAX };
            self.cols[dst][w] = !acc & mask;
        }
        self.nor_cycles += 1;
        Ok(())
    }

    /// `dst = !src` (one NOR cycle).
    ///
    /// # Errors
    ///
    /// See [`NorEngine::nor`].
    pub fn not(&mut self, dst: usize, src: usize) -> Result<(), PimError> {
        self.nor(dst, &[src])
    }

    /// `dst = src` via double inversion through `scratch`
    /// (two NOR cycles).
    ///
    /// # Errors
    ///
    /// See [`NorEngine::nor`].
    pub fn copy(&mut self, dst: usize, src: usize, scratch: usize) -> Result<(), PimError> {
        self.not(scratch, src)?;
        self.not(dst, scratch)
    }

    /// Write an integer field (little-endian over `cols`) into one row.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for bad indices or
    /// [`PimError::InvalidParameter`] for fields wider than 64 bits.
    pub fn write_field(&mut self, row: usize, cols: &[usize], value: u64) -> Result<(), PimError> {
        if cols.len() > 64 {
            return Err(PimError::InvalidParameter {
                name: "cols",
                reason: "fields are at most 64 bits",
            });
        }
        for (k, &c) in cols.iter().enumerate() {
            self.set_bit(row, c, (value >> k) & 1 == 1)?;
        }
        Ok(())
    }

    /// Row-parallel field write: `values[r]` lands in row `r`
    /// (row-parallel write, one column write per field bit).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] / [`PimError::InvalidParameter`]
    /// as [`NorEngine::write_field`]; `values` must supply one value per
    /// row.
    pub fn write_field_all(&mut self, cols: &[usize], values: &[u64]) -> Result<(), PimError> {
        if values.len() != self.rows {
            return Err(PimError::InvalidParameter {
                name: "values",
                reason: "must supply exactly one value per row",
            });
        }
        for (r, &v) in values.iter().enumerate() {
            self.write_field(r, cols, v)?;
        }
        self.col_writes += cols.len() as u64;
        Ok(())
    }

    /// Read an integer field (little-endian over `cols`) from one row.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for bad indices.
    pub fn read_field(&self, row: usize, cols: &[usize]) -> Result<u64, PimError> {
        let mut v = 0u64;
        for (k, &c) in cols.iter().enumerate() {
            if self.get_bit(row, c)? {
                v |= 1 << k;
            }
        }
        Ok(v)
    }

    /// Read an integer field from every row.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for bad indices.
    pub fn read_field_all(&self, cols: &[usize]) -> Result<Vec<u64>, PimError> {
        (0..self.rows).map(|r| self.read_field(r, cols)).collect()
    }

    /// One-bit full adder on columns, the paper's Eq. 1 — 12 NOR cycles.
    ///
    /// Needs 8 scratch columns at `scratch..scratch + 8`.
    ///
    /// # Errors
    ///
    /// Propagates column-range errors from [`NorEngine::nor`].
    pub fn full_adder(
        &mut self,
        a: usize,
        b: usize,
        cin: usize,
        sum: usize,
        cout: usize,
        scratch: usize,
    ) -> Result<(), PimError> {
        let t = |k: usize| scratch + k;
        // Cout = ((A+B)' + (B+C)' + (C+A)')'
        self.nor(t(0), &[a, b])?;
        self.nor(t(1), &[b, cin])?;
        self.nor(t(2), &[cin, a])?;
        self.nor(cout, &[t(0), t(1), t(2)])?;
        // S = (((A'+B'+C')' + ((A+B+C)'+Cout)')')'
        self.not(t(3), a)?;
        self.not(t(4), b)?;
        self.not(t(5), cin)?;
        self.nor(t(6), &[t(3), t(4), t(5)])?;
        self.nor(t(7), &[a, b, cin])?;
        self.nor(t(3), &[t(7), cout])?; // reuse t3
        self.nor(t(4), &[t(6), t(3)])?; // reuse t4
        self.not(sum, t(4))
    }

    /// Row-parallel ripple-carry addition of little-endian fields
    /// (`out = a + b` modulo `2^width`); `out` may be wider than the
    /// inputs by one column to capture the carry.
    ///
    /// Needs 10 scratch columns at `scratch..scratch + 10`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidParameter`] when field widths are
    /// inconsistent, plus column-range errors.
    pub fn add(
        &mut self,
        a: &[usize],
        b: &[usize],
        out: &[usize],
        scratch: usize,
    ) -> Result<(), PimError> {
        if a.len() != b.len() || (out.len() != a.len() && out.len() != a.len() + 1) {
            return Err(PimError::InvalidParameter {
                name: "out",
                reason: "out width must equal input width (or +1 for carry)",
            });
        }
        let carry = scratch + 8;
        let carry_next = scratch + 9;
        self.write_col_const(carry, false)?;
        let mut c_in = carry;
        let mut c_out = carry_next;
        for k in 0..a.len() {
            self.full_adder(a[k], b[k], c_in, out[k], c_out, scratch)?;
            std::mem::swap(&mut c_in, &mut c_out);
        }
        if out.len() == a.len() + 1 {
            self.copy(out[a.len()], c_in, scratch)?;
        }
        Ok(())
    }

    /// Row-parallel subtraction `out = a - b` (two's complement:
    /// invert `b`, add with carry-in 1). Wraps modulo `2^width`; the
    /// top output bit therefore doubles as a borrow/sign indicator when
    /// operands are zero-extended by one column.
    ///
    /// Needs `10 + b.len()` scratch columns at `scratch..`.
    ///
    /// # Errors
    ///
    /// As [`NorEngine::add`].
    pub fn sub(
        &mut self,
        a: &[usize],
        b: &[usize],
        out: &[usize],
        scratch: usize,
    ) -> Result<(), PimError> {
        if a.len() != b.len() || out.len() != a.len() {
            return Err(PimError::InvalidParameter {
                name: "out",
                reason: "sub requires equal input and output widths",
            });
        }
        let nb_base = scratch + 10;
        let nb: Vec<usize> = (0..b.len()).map(|k| nb_base + k).collect();
        for k in 0..b.len() {
            self.not(nb[k], b[k])?;
        }
        // add with carry-in = 1
        let carry = scratch + 8;
        let carry_next = scratch + 9;
        self.write_col_const(carry, true)?;
        let mut c_in = carry;
        let mut c_out = carry_next;
        for k in 0..a.len() {
            self.full_adder(a[k], nb[k], c_in, out[k], c_out, scratch)?;
            std::mem::swap(&mut c_in, &mut c_out);
        }
        Ok(())
    }

    /// Row-parallel unsigned multiplication `out = a · b` with
    /// `out.len() == a.len() + b.len()` (full product, shift-add).
    ///
    /// Needs `12 + a.len() + 1 + out.len()` scratch columns at
    /// `scratch..` (inverted operand cache, partial product, and an
    /// accumulator double-buffer).
    ///
    /// # Errors
    ///
    /// As [`NorEngine::add`].
    pub fn mul(
        &mut self,
        a: &[usize],
        b: &[usize],
        out: &[usize],
        scratch: usize,
    ) -> Result<(), PimError> {
        let (n, m) = (a.len(), b.len());
        if out.len() != n + m {
            return Err(PimError::InvalidParameter {
                name: "out",
                reason: "mul output must be a.len() + b.len() wide",
            });
        }
        let na_base = scratch + 12;
        let na: Vec<usize> = (0..n).map(|k| na_base + k).collect();
        for k in 0..n {
            self.not(na[k], a[k])?;
        }
        let nbj = na_base + n; // inverted b_j, reused per iteration
        let pp_base = nbj + 1;
        let pp: Vec<usize> = (0..n).map(|k| pp_base + k).collect();
        // Zero the accumulator (the output columns).
        for &c in out {
            self.write_col_const(c, false)?;
        }
        for j in 0..m {
            self.not(nbj, b[j])?;
            // Partial product: pp_k = a_k AND b_j = NOR(a_k', b_j').
            for k in 0..n {
                self.nor(pp[k], &[na[k], nbj])?;
            }
            // Accumulate into out[j .. j+n] with ripple carry into the
            // remaining upper columns.
            let carry = scratch + 8;
            let carry_next = scratch + 9;
            let tmp_sum = scratch + 10;
            let tmp_scr = scratch + 11;
            self.write_col_const(carry, false)?;
            let mut c_in = carry;
            let mut c_out = carry_next;
            for k in 0..n {
                self.full_adder(out[j + k], pp[k], c_in, tmp_sum, c_out, scratch)?;
                self.copy(out[j + k], tmp_sum, tmp_scr)?;
                std::mem::swap(&mut c_in, &mut c_out);
            }
            // Propagate the carry through the rest of the accumulator
            // (half-add against a zero column).
            for &acc in &out[(j + n)..] {
                let zero = tmp_scr;
                self.write_col_const(zero, false)?;
                self.full_adder(acc, zero, c_in, tmp_sum, c_out, scratch)?;
                self.copy(acc, tmp_sum, zero)?;
                std::mem::swap(&mut c_in, &mut c_out);
            }
        }
        Ok(())
    }
}

impl NorEngine {
    /// Row-parallel comparator: `lt = (a < b)` as a single flag column,
    /// computed by the §VI-C method — subtract and read the sign bit of
    /// the zero-extended difference. Needs `12 + width + 1` scratch
    /// columns at `scratch..`; `a`/`b` are unsigned fields of equal
    /// width.
    ///
    /// # Errors
    ///
    /// As [`NorEngine::sub`].
    pub fn less_than(
        &mut self,
        a: &[usize],
        b: &[usize],
        lt: usize,
        scratch: usize,
    ) -> Result<(), PimError> {
        let w = a.len();
        if b.len() != w {
            return Err(PimError::InvalidParameter {
                name: "b",
                reason: "comparator requires equal widths",
            });
        }
        // sub() internally uses scratch[0..10) plus an inverted-operand
        // cache at [10, 11+w); lay the zero-extension and difference
        // columns past that.
        let zero = scratch + 12 + w;
        self.write_col_const(zero, false)?;
        let ea: Vec<usize> = a.iter().copied().chain([zero]).collect();
        let eb: Vec<usize> = b.iter().copied().chain([zero]).collect();
        let diff_base = scratch + 13 + w;
        let diff: Vec<usize> = (0..=w).map(|k| diff_base + k).collect();
        self.sub_into(&ea, &eb, &diff, scratch)?;
        // Sign bit of the (width+1)-bit two's-complement difference.
        self.copy(lt, diff[w], scratch)?;
        Ok(())
    }

    /// `sub` variant writing into explicitly provided output columns
    /// without width checks against the operands (internal helper, but
    /// exposed because multi-precision routines need it).
    ///
    /// # Errors
    ///
    /// As [`NorEngine::sub`].
    pub fn sub_into(
        &mut self,
        a: &[usize],
        b: &[usize],
        out: &[usize],
        scratch: usize,
    ) -> Result<(), PimError> {
        self.sub(a, b, out, scratch)
    }

    /// Row-parallel 2:1 multiplexer: `out_k = sel ? x_k : y_k` for every
    /// field column. `MUX(s,x,y) = NOR(NOR(s', x'), NOR(s, y'))` after
    /// caching the inverted select. Needs 5 scratch columns.
    ///
    /// # Errors
    ///
    /// Propagates column-range errors.
    pub fn select(
        &mut self,
        sel: usize,
        x: &[usize],
        y: &[usize],
        out: &[usize],
        scratch: usize,
    ) -> Result<(), PimError> {
        if x.len() != y.len() || out.len() != x.len() {
            return Err(PimError::InvalidParameter {
                name: "out",
                reason: "select requires equal field widths",
            });
        }
        let ns = scratch;
        self.not(ns, sel)?;
        for k in 0..x.len() {
            let nx = scratch + 1;
            let ny = scratch + 2;
            let t1 = scratch + 3;
            let t2 = scratch + 4;
            self.not(nx, x[k])?;
            self.not(ny, y[k])?;
            // sel=1 → x_k: t1 = NOR(ns, nx) = sel AND x_k
            self.nor(t1, &[ns, nx])?;
            // sel=0 → y_k: t2 = NOR(sel, ny) = !sel AND y_k
            self.nor(t2, &[sel, ny])?;
            // out = t1 OR t2 = NOR(NOR(t1,t2))
            self.nor(nx, &[t1, t2])?; // reuse nx
            self.not(out[k], nx)?;
        }
        Ok(())
    }

    /// Exact row-parallel unsigned division via the restoring
    /// algorithm: `q = a / b`, `r = a % b` (field widths equal). This is
    /// the precise alternative to the hardware's TruncApp divider —
    /// far more NOR cycles (the paper's Table III prices the
    /// approximate one), but useful when the program needs exactness.
    ///
    /// Needs roughly `21 + 3·width` scratch columns at `scratch..`.
    ///
    /// # Errors
    ///
    /// As the component routines; `b` rows containing zero produce
    /// `q = all-ones` wraparound semantics (hardware would do the same).
    pub fn div_restoring(
        &mut self,
        a: &[usize],
        b: &[usize],
        q: &[usize],
        r: &[usize],
        scratch: usize,
    ) -> Result<(), PimError> {
        let w = a.len();
        if b.len() != w || q.len() != w || r.len() != w {
            return Err(PimError::InvalidParameter {
                name: "widths",
                reason: "restoring division requires equal field widths",
            });
        }
        // Layout: sub() owns scratch[0..11+w); everything else sits past
        // that — flag, a zero column, the (w+1)-bit remainder, the trial
        // difference, and the mux scratch.
        let base = scratch + 12 + w;
        let flag = base;
        let zero = base + 1;
        self.write_col_const(zero, false)?;
        let rem_base = base + 2;
        let rem: Vec<usize> = (0..w + 1).map(|k| rem_base + k).collect();
        for &c in &rem {
            self.write_col_const(c, false)?;
        }
        let diff_base = rem_base + w + 1;
        let diff: Vec<usize> = (0..w + 1).map(|k| diff_base + k).collect();
        let eb: Vec<usize> = b.iter().copied().chain([zero]).collect();
        let sel_scratch = diff_base + w + 1;
        for step in (0..w).rev() {
            // rem = (rem << 1) | a[step]  — shift by copying columns.
            for k in (1..=w).rev() {
                self.copy(rem[k], rem[k - 1], sel_scratch)?;
            }
            self.copy(rem[0], a[step], sel_scratch)?;
            // diff = rem - b (extended); flag (sign) = rem < b.
            self.sub(&rem, &eb, &diff, scratch)?;
            self.copy(flag, diff[w], sel_scratch)?;
            // rem = flag ? rem : diff  (restore on borrow).
            let rem_snapshot: Vec<usize> = rem.clone();
            self.select(flag, &rem_snapshot, &diff, &rem, sel_scratch)?;
            // q[step] = !flag.
            self.not(q[step], flag)?;
        }
        for k in 0..w {
            self.copy(r[k], rem[k], sel_scratch)?;
        }
        Ok(())
    }
}

/// The TruncApp-style approximate division DUAL implements in memory
/// (§IV-B, citing Vahdat et al.): normalize the divisor into `[0.5, 1)`
/// by a left shift, approximate its reciprocal as `2 − x` — which the
/// hardware computes by flipping all divisor bits and adding one — then
/// multiply by the numerator and shift back.
///
/// The reciprocal estimate `2 − x` *underestimates* `1/x` by the
/// relative factor `(1 − x)²`, worst at `x = 0.5` (25 %, i.e. exactly
/// power-of-two divisors) and vanishing as the normalized divisor
/// approaches 1. DUAL's Ward-coefficient divisions tolerate this because
/// all three coefficients share the same divisor, so the min-search
/// ordering they feed is preserved.
///
/// # Panics
///
/// Panics if `divisor == 0`.
///
/// ```rust
/// let q = dual_pim::nor::div_approx(1000, 4) as f64;
/// let truth = 250.0;
/// assert!(q <= truth && q >= 0.74 * truth - 1.0);
/// ```
#[must_use]
pub fn div_approx(numerator: u64, divisor: u64) -> u64 {
    assert!(divisor != 0, "division by zero");
    let bit_len = 64 - divisor.leading_zeros(); // L ≥ 1; divisor = x · 2^L
                                                // Normalized divisor x ∈ [0.5, 1) in Q32 fixed point.
    let x_q32: u64 = if bit_len >= 32 {
        divisor >> (bit_len - 32)
    } else {
        divisor << (32 - bit_len)
    };
    // Reciprocal ≈ 2 − x (Q32): the hardware's flip-all-bits-plus-one.
    let recip_q32 = (2u64 << 32) - x_q32;
    // q = n · (1/x) · 2^(−L).
    let prod = ((numerator as u128) * (recip_q32 as u128)) >> 32;
    (prod >> bit_len) as u64
}

/// Pull a fault plan's *permanent* faults into the stored array: dead
/// rows read (and therefore now hold) zeros, stuck cells snap to their
/// stuck value. Transient variation flips are a read-path phenomenon
/// and are NOT applied here — see [`dual_fault::FaultPlan::read_bit`].
///
/// The corruption touches raw storage only: `nor_cycles`/`col_writes`
/// cost counters are untouched, because faults are not operations the
/// controller issued.
impl dual_fault::Corruptible for NorEngine {
    fn corrupt(&mut self, plan: &dual_fault::FaultPlan) -> dual_fault::InjectionReport {
        let mut report = dual_fault::InjectionReport::default();
        let rows = self.rows.min(plan.rows());
        let n_cols = self.cols.len().min(plan.cols());
        for r in 0..rows {
            let word = r / 64;
            let mask = 1u64 << (r % 64);
            if plan.is_dead_row(r) {
                report.rows_dead += 1;
                for c in 0..n_cols {
                    report.cells_faulty += 1;
                    let w = &mut self.cols[c][word];
                    if *w & mask != 0 {
                        *w &= !mask;
                        report.bits_corrupted += 1;
                    }
                }
                continue;
            }
            for c in 0..n_cols {
                if let Some(stuck) = plan.stuck_at(r, c) {
                    report.cells_faulty += 1;
                    let w = &mut self.cols[c][word];
                    let current = *w & mask != 0;
                    if current != stuck {
                        if stuck {
                            *w |= mask;
                        } else {
                            *w &= !mask;
                        }
                        report.bits_corrupted += 1;
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine() -> NorEngine {
        NorEngine::new(8, 256).unwrap()
    }

    #[test]
    fn corrupt_applies_permanent_faults_without_charging_cycles() {
        use dual_fault::{Corruptible, FaultPlan};
        let mut e = engine();
        for c in 0..8 {
            e.write_bit(2, c, true);
            e.write_bit(3, c, true);
        }
        e.reset_counters();
        let plan = FaultPlan::fault_free(8, 256)
            .with_dead_row(2)
            .unwrap()
            .with_stuck_cell(3, 0, false)
            .unwrap()
            .with_stuck_cell(3, 1, true)
            .unwrap()
            .with_stuck_cell(4, 5, true)
            .unwrap();
        let report = e.corrupt(&plan);
        assert_eq!(report.rows_dead, 1);
        // Dead row 2 zeroed (8 set bits), stuck-at-0 at (3,0) cleared,
        // stuck-at-1 at (4,5) set; (3,1) already held 1.
        assert_eq!(report.bits_corrupted, 8 + 1 + 1);
        assert!((0..8).all(|c| !e.bit(2, c)), "dead row reads zeros");
        assert!(!e.bit(3, 0));
        assert!(e.bit(3, 1));
        assert!(e.bit(4, 5));
        assert_eq!(e.nor_cycles(), 0, "faults are not controller ops");
        assert_eq!(e.col_writes(), 0);
        // Idempotent: a second pass corrupts nothing new.
        assert_eq!(e.corrupt(&plan).bits_corrupted, 0);
    }

    #[test]
    fn constructor_validates() {
        assert!(NorEngine::new(0, 8).is_err());
        assert!(NorEngine::new(8, 0).is_err());
    }

    #[test]
    fn nor_truth_table() {
        let mut e = engine();
        // row 0: a=0 b=0; row 1: a=0 b=1; row 2: a=1 b=0; row 3: a=1 b=1
        for (r, (a, b)) in [(false, false), (false, true), (true, false), (true, true)]
            .iter()
            .enumerate()
        {
            e.set_bit(r, 0, *a).unwrap();
            e.set_bit(r, 1, *b).unwrap();
        }
        e.nor(2, &[0, 1]).unwrap();
        assert!(e.get_bit(0, 2).unwrap());
        assert!(!e.get_bit(1, 2).unwrap());
        assert!(!e.get_bit(2, 2).unwrap());
        assert!(!e.get_bit(3, 2).unwrap());
        assert_eq!(e.nor_cycles(), 1);
    }

    #[test]
    fn nor_rejects_dst_as_input_and_empty_srcs() {
        let mut e = engine();
        assert!(e.nor(0, &[0]).is_err());
        assert!(e.nor(0, &[]).is_err());
    }

    #[test]
    fn full_adder_exhaustive() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let mut e = engine();
                    e.set_bit(0, 0, a).unwrap();
                    e.set_bit(0, 1, b).unwrap();
                    e.set_bit(0, 2, c).unwrap();
                    e.full_adder(0, 1, 2, 3, 4, 10).unwrap();
                    let total = u8::from(a) + u8::from(b) + u8::from(c);
                    assert_eq!(
                        e.get_bit(0, 3).unwrap(),
                        total & 1 == 1,
                        "sum a={a} b={b} c={c}"
                    );
                    assert_eq!(
                        e.get_bit(0, 4).unwrap(),
                        total >= 2,
                        "carry a={a} b={b} c={c}"
                    );
                    assert_eq!(e.nor_cycles(), 12, "Eq. 1 costs 12 NOR cycles");
                }
            }
        }
    }

    fn field(base: usize, width: usize) -> Vec<usize> {
        (base..base + width).collect()
    }

    #[test]
    fn add_with_carry_out() {
        let mut e = engine();
        let a = field(0, 8);
        let b = field(8, 8);
        let out = field(16, 9);
        e.write_field_all(&a, &[200, 255, 0, 1, 100, 50, 255, 128])
            .unwrap();
        e.write_field_all(&b, &[100, 255, 0, 1, 28, 50, 1, 128])
            .unwrap();
        e.add(&a, &b, &out, 32).unwrap();
        let got = e.read_field_all(&out).unwrap();
        assert_eq!(got, vec![300, 510, 0, 2, 128, 100, 256, 256]);
    }

    #[test]
    fn sub_two_complement() {
        let mut e = engine();
        let a = field(0, 8);
        let b = field(8, 8);
        let out = field(16, 8);
        e.write_field_all(&a, &[200, 5, 0, 255, 7, 9, 100, 64])
            .unwrap();
        e.write_field_all(&b, &[100, 5, 1, 0, 9, 7, 99, 65])
            .unwrap();
        e.sub(&a, &b, &out, 32).unwrap();
        let got = e.read_field_all(&out).unwrap();
        assert_eq!(got[0], 100);
        assert_eq!(got[1], 0);
        assert_eq!(got[2], 255); // 0 - 1 wraps
        assert_eq!(got[3], 255);
        assert_eq!(got[4], 254); // 7 - 9 wraps
        assert_eq!(got[5], 2);
        assert_eq!(got[6], 1);
        assert_eq!(got[7], 255);
    }

    #[test]
    fn mul_small_values() {
        let mut e = NorEngine::new(4, 256).unwrap();
        let a = field(0, 4);
        let b = field(4, 4);
        let out = field(8, 8);
        e.write_field_all(&a, &[3, 15, 0, 7]).unwrap();
        e.write_field_all(&b, &[5, 15, 9, 8]).unwrap();
        e.mul(&a, &b, &out, 32).unwrap();
        assert_eq!(e.read_field_all(&out).unwrap(), vec![15, 225, 0, 56]);
    }

    #[test]
    fn counters_track_work() {
        let mut e = engine();
        let a = field(0, 4);
        let b = field(4, 4);
        let out = field(8, 4);
        e.write_field_all(&a, &[1; 8]).unwrap();
        e.write_field_all(&b, &[2; 8]).unwrap();
        let before = e.nor_cycles();
        e.add(&a, &b, &out, 32).unwrap();
        // 12 cycles per bit of ripple adder.
        assert_eq!(e.nor_cycles() - before, 48);
        e.reset_counters();
        assert_eq!(e.nor_cycles(), 0);
    }

    #[test]
    fn field_io_roundtrip_and_bounds() {
        let mut e = engine();
        let f = field(0, 12);
        e.write_field(3, &f, 0xABC).unwrap();
        assert_eq!(e.read_field(3, &f).unwrap(), 0xABC);
        assert!(e.get_bit(99, 0).is_err());
        assert!(e.set_bit(0, 9999, true).is_err());
        assert!(e.write_field_all(&f, &[0; 3]).is_err());
    }

    #[test]
    fn less_than_flag_matches_integer_compare() {
        let mut e = NorEngine::new(8, 256).unwrap();
        let a = field(0, 8);
        let b = field(8, 8);
        let av = [3u64, 200, 7, 7, 0, 255, 100, 99];
        let bv = [5u64, 100, 7, 8, 0, 0, 99, 100];
        e.write_field_all(&a, &av).unwrap();
        e.write_field_all(&b, &bv).unwrap();
        e.less_than(&a, &b, 20, 32).unwrap();
        for r in 0..8 {
            assert_eq!(e.get_bit(r, 20).unwrap(), av[r] < bv[r], "row {r}");
        }
    }

    #[test]
    fn select_muxes_fields() {
        let mut e = NorEngine::new(4, 128).unwrap();
        let x = field(0, 6);
        let y = field(6, 6);
        let out = field(12, 6);
        e.write_field_all(&x, &[1, 2, 3, 4]).unwrap();
        e.write_field_all(&y, &[60, 61, 62, 63]).unwrap();
        // Select x on rows 0 and 2.
        e.set_bit(0, 30, true).unwrap();
        e.set_bit(2, 30, true).unwrap();
        e.select(30, &x, &y, &out, 40).unwrap();
        assert_eq!(e.read_field_all(&out).unwrap(), vec![1, 61, 3, 63]);
    }

    #[test]
    fn restoring_division_is_exact() {
        let mut e = NorEngine::new(6, 256).unwrap();
        let a = field(0, 8);
        let b = field(8, 8);
        let q = field(16, 8);
        let r = field(24, 8);
        let av = [100u64, 255, 7, 81, 0, 200];
        let bv = [7u64, 16, 9, 81, 5, 1];
        e.write_field_all(&a, &av).unwrap();
        e.write_field_all(&b, &bv).unwrap();
        e.div_restoring(&a, &b, &q, &r, 64).unwrap();
        let qs = e.read_field_all(&q).unwrap();
        let rs = e.read_field_all(&r).unwrap();
        for row in 0..6 {
            assert_eq!(qs[row], av[row] / bv[row], "q row {row}");
            assert_eq!(rs[row], av[row] % bv[row], "r row {row}");
        }
    }

    #[test]
    fn div_approx_power_of_two_hits_worst_case() {
        // Power-of-two divisors normalize to x = 0.5, the 25 % corner:
        // the result is exactly 3/4 of the true quotient.
        let q = div_approx(1024, 4);
        assert_eq!(q, 192); // true quotient 256, × 0.75
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_approx_zero_divisor_panics() {
        let _ = div_approx(1, 0);
    }

    #[test]
    fn div_approx_near_exact_for_divisors_near_power_boundary() {
        // Divisor 255 normalizes to x ≈ 0.996: error under 1 %.
        let q = div_approx(1_000_000, 255) as f64;
        let truth = 1_000_000.0 / 255.0;
        assert!((q - truth).abs() / truth < 0.01, "q={q} truth={truth}");
    }

    proptest! {
        #[test]
        fn prop_restoring_division_matches_integers(av in proptest::collection::vec(0u64..1024, 4),
                                                    bv in proptest::collection::vec(1u64..1024, 4)) {
            let mut e = NorEngine::new(4, 256).unwrap();
            let a = field(0, 10);
            let b = field(10, 10);
            let q = field(20, 10);
            let r = field(30, 10);
            e.write_field_all(&a, &av).unwrap();
            e.write_field_all(&b, &bv).unwrap();
            e.div_restoring(&a, &b, &q, &r, 64).unwrap();
            let qs = e.read_field_all(&q).unwrap();
            let rs = e.read_field_all(&r).unwrap();
            for row in 0..4 {
                prop_assert_eq!(qs[row], av[row] / bv[row]);
                prop_assert_eq!(rs[row], av[row] % bv[row]);
            }
        }

        #[test]
        fn prop_less_than_matches(av in proptest::collection::vec(0u64..4096, 8),
                                  bv in proptest::collection::vec(0u64..4096, 8)) {
            let mut e = NorEngine::new(8, 256).unwrap();
            let a = field(0, 12);
            let b = field(12, 12);
            e.write_field_all(&a, &av).unwrap();
            e.write_field_all(&b, &bv).unwrap();
            e.less_than(&a, &b, 26, 40).unwrap();
            for row in 0..8 {
                prop_assert_eq!(e.get_bit(row, 26).unwrap(), av[row] < bv[row]);
            }
        }

        #[test]
        fn prop_div_approx_underestimates_within_bound(n in 1u64..1_000_000, d in 1u64..10_000) {
            let q = div_approx(n, d) as f64;
            let truth = n as f64 / d as f64;
            prop_assert!(q <= truth + 1e-9, "q={q} > truth={truth}");
            prop_assert!(q >= 0.74 * truth - 1.0, "q={q} << truth={truth}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_add_matches_u64(a in proptest::collection::vec(0u64..65536, 8),
                                b in proptest::collection::vec(0u64..65536, 8)) {
            let mut e = NorEngine::new(8, 256).unwrap();
            let fa = field(0, 16);
            let fb = field(16, 16);
            let out = field(32, 17);
            e.write_field_all(&fa, &a).unwrap();
            e.write_field_all(&fb, &b).unwrap();
            e.add(&fa, &fb, &out, 64).unwrap();
            let got = e.read_field_all(&out).unwrap();
            for r in 0..8 {
                prop_assert_eq!(got[r], a[r] + b[r]);
            }
        }

        #[test]
        fn prop_sub_matches_wrapping_u64(a in proptest::collection::vec(0u64..4096, 8),
                                         b in proptest::collection::vec(0u64..4096, 8)) {
            let mut e = NorEngine::new(8, 256).unwrap();
            let fa = field(0, 12);
            let fb = field(12, 12);
            let out = field(24, 12);
            e.write_field_all(&fa, &a).unwrap();
            e.write_field_all(&fb, &b).unwrap();
            e.sub(&fa, &fb, &out, 40).unwrap();
            let got = e.read_field_all(&out).unwrap();
            for r in 0..8 {
                prop_assert_eq!(got[r], a[r].wrapping_sub(b[r]) & 0xFFF);
            }
        }

        #[test]
        fn prop_mul_matches_u64(a in proptest::collection::vec(0u64..64, 4),
                                b in proptest::collection::vec(0u64..64, 4)) {
            let mut e = NorEngine::new(4, 256).unwrap();
            let fa = field(0, 6);
            let fb = field(6, 6);
            let out = field(12, 12);
            e.write_field_all(&fa, &a).unwrap();
            e.write_field_all(&fb, &b).unwrap();
            e.mul(&fa, &fb, &out, 40).unwrap();
            let got = e.read_field_all(&out).unwrap();
            for r in 0..4 {
                prop_assert_eq!(got[r], a[r] * b[r]);
            }
        }
    }
}
