//! The abstract interpreter over PIM instruction traces.

#![deny(clippy::as_conversions)]

use crate::report::{CostBound, Diagnostic, VerifyError, VerifyReport};
use dual_isa::{ArithKind, Instruction, Runtime};
use dual_pim::cam;
use dual_pim::cost::{CostModel, Op};
use dual_pim::stats::EnergyStats;
use std::collections::BTreeMap;

/// Relative tolerance for the latency/energy cross-check. The runtime
/// folds `latency × count` products in issue order while the verifier
/// folds per-op totals in `Op` order, so the two f64 sums differ by
/// reassociation ulps — never by a missing operation, which the exact
/// count ledger catches first.
const COST_REL_TOL: f64 = 1e-9;

/// Block geometry a trace is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Blocks in the pool.
    pub blocks: usize,
    /// Rows per block.
    pub rows: usize,
    /// Total columns per block.
    pub cols: usize,
    /// Data columns per block (scratch starts here).
    pub data_cols: usize,
}

impl Geometry {
    /// Geometry with the runtime's data/scratch split (`cols / 2`).
    #[must_use]
    pub fn new(blocks: usize, rows: usize, cols: usize) -> Self {
        Self {
            blocks,
            rows,
            cols,
            data_cols: cols / 2,
        }
    }

    /// The degenerate zero geometry — verifies only the empty trace.
    #[must_use]
    pub fn empty() -> Self {
        Self::new(0, 0, 0)
    }

    /// The geometry of a live [`Runtime`].
    #[must_use]
    pub fn of_runtime(rt: &Runtime) -> Self {
        Self {
            blocks: rt.n_blocks(),
            rows: rt.rows(),
            cols: rt.cols(),
            data_cols: rt.data_cols(),
        }
    }
}

/// Live query-register span: how many bits the last `set_qinput`
/// loaded and how many the window sweep has consumed since.
#[derive(Debug, Clone, Copy)]
struct QuerySpan {
    size: usize,
    consumed: usize,
}

/// The static verifier: geometry + cost model, no execution state.
#[derive(Debug, Clone)]
pub struct Verifier {
    geom: Geometry,
    cost: CostModel,
}

impl Verifier {
    /// Verifier for `geom` priced at the paper's nominal cost model.
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        Self::with_cost_model(geom, CostModel::paper())
    }

    /// Verifier pricing the cost bound with an explicit model (for
    /// variation-derated runtimes).
    #[must_use]
    pub fn with_cost_model(geom: Geometry, cost: CostModel) -> Self {
        Self { geom, cost }
    }

    /// The geometry traces are checked against.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Statically verify a trace: geometry bounds, def-before-use
    /// query dataflow, intra-instruction hazards, and the analytic
    /// cost bound.
    #[must_use]
    pub fn check(&self, trace: &[Instruction]) -> VerifyReport {
        let mut report = VerifyReport {
            instructions: trace.len(),
            ..VerifyReport::default()
        };
        let mut q: Option<QuerySpan> = None;
        for (index, inst) in trace.iter().enumerate() {
            self.check_instruction(index, inst, &mut q, &mut report);
        }
        report.cost = self.cost_bound(trace);
        report
    }

    /// As [`Verifier::check`], additionally cross-checking the
    /// trace-reconstructed cost ledger against the executed
    /// [`EnergyStats`]: per-op issue counts must agree **exactly**, and
    /// latency/energy totals within float-reassociation tolerance.
    #[must_use]
    pub fn check_against(&self, trace: &[Instruction], stats: &EnergyStats) -> VerifyReport {
        let mut report = self.check(trace);
        let traced = trace_ledger(trace);
        let recorded: BTreeMap<Op, u64> = stats.counts().collect();
        let trace_level = |error| Diagnostic {
            index: None,
            mnemonic: "<trace>",
            error,
        };
        for (&op, _) in traced.iter().chain(recorded.iter()) {
            let (t, r) = (
                traced.get(&op).copied().unwrap_or(0),
                recorded.get(&op).copied().unwrap_or(0),
            );
            if t != r {
                let d = trace_level(VerifyError::CountMismatch {
                    op: op_key(op),
                    traced: t,
                    recorded: r,
                });
                if !report.diagnostics.contains(&d) {
                    report.diagnostics.push(d);
                }
            }
        }
        let (mut time_ns, mut energy_pj) = (0.0_f64, 0.0_f64);
        #[expect(clippy::as_conversions, reason = "issue counts ≪ 2^53, exact in f64")]
        for (&op, &n) in &traced {
            time_ns += self.cost.latency_ns(op) * n as f64;
            energy_pj += self.cost.energy_pj(op) * n as f64;
        }
        let diverges =
            |a: f64, b: f64| (a - b).abs() > COST_REL_TOL * a.abs().max(b.abs()).max(1.0);
        if diverges(time_ns, stats.time_ns()) {
            report
                .diagnostics
                .push(trace_level(VerifyError::TimeMismatch {
                    traced_ns: time_ns,
                    recorded_ns: stats.time_ns(),
                }));
        }
        if diverges(energy_pj, stats.energy_pj()) {
            report
                .diagnostics
                .push(trace_level(VerifyError::EnergyMismatch {
                    traced_pj: energy_pj,
                    recorded_pj: stats.energy_pj(),
                }));
        }
        report
    }

    /// Price the trace serially (the no-overlap upper bound).
    fn cost_bound(&self, trace: &[Instruction]) -> CostBound {
        let ledger = trace_ledger(trace);
        let mut bound = CostBound::default();
        #[expect(clippy::as_conversions, reason = "issue counts ≪ 2^53, exact in f64")]
        for (&op, &n) in &ledger {
            bound.time_ns += self.cost.latency_ns(op) * n as f64;
            bound.energy_pj += self.cost.energy_pj(op) * n as f64;
            bound.ops += n;
        }
        bound
    }

    fn check_instruction(
        &self,
        index: usize,
        inst: &Instruction,
        q: &mut Option<QuerySpan>,
        report: &mut VerifyReport,
    ) {
        let g = self.geom;
        let mut push = |error: VerifyError| {
            report.diagnostics.push(Diagnostic {
                index: Some(index),
                mnemonic: inst.mnemonic(),
                error,
            });
        };
        let check_block = |b: usize, push: &mut dyn FnMut(VerifyError)| {
            if b >= g.blocks {
                push(VerifyError::BlockOutOfRange {
                    b,
                    blocks: g.blocks,
                });
            }
        };
        let check_col = |c: usize, push: &mut dyn FnMut(VerifyError)| {
            if c >= g.data_cols {
                push(VerifyError::ColumnOutOfRange {
                    c,
                    data_cols: g.data_cols,
                });
            }
        };
        let check_col_span = |c: usize, width: usize, push: &mut dyn FnMut(VerifyError)| {
            if c < g.data_cols && c + width > g.data_cols {
                push(VerifyError::ColumnSpanContinues {
                    c,
                    width,
                    data_cols: g.data_cols,
                });
            }
        };
        match *inst {
            Instruction::SetQInput { b, addr, size } => {
                check_block(b, &mut push);
                if addr >= g.rows {
                    push(VerifyError::RowOutOfRange {
                        r: addr,
                        rows: g.rows,
                    });
                }
                if size == 0 {
                    push(VerifyError::ZeroWidth);
                }
                *q = Some(QuerySpan { size, consumed: 0 });
            }
            Instruction::Hamm7 { b, c1, c2 } => {
                check_block(b, &mut push);
                if c1 >= c2 {
                    push(VerifyError::EmptyWindow);
                } else {
                    let width = c2 - c1;
                    if width > 7 {
                        push(VerifyError::WindowTooWide { width });
                    }
                    if c2 > g.data_cols {
                        push(VerifyError::ColumnOutOfRange {
                            c: c2,
                            data_cols: g.data_cols,
                        });
                    }
                    match q {
                        None => push(VerifyError::QueryUnset),
                        Some(span) => {
                            if span.consumed + width > span.size {
                                push(VerifyError::QuerySpanExceeded {
                                    consumed: span.consumed,
                                    width,
                                    size: span.size,
                                });
                            } else {
                                span.consumed += width;
                            }
                        }
                    }
                }
            }
            Instruction::NearSearch { b, nc, c, q: _ }
            | Instruction::ExactSearch { b, nc, c, q: _ } => {
                check_block(b, &mut push);
                check_col(c, &mut push);
                if nc == 0 {
                    push(VerifyError::ZeroWidth);
                } else if nc > 64 {
                    push(VerifyError::WidthTooWide { bits: nc });
                }
                check_col_span(c, nc, &mut push);
                match *q {
                    None => push(VerifyError::QueryUnset),
                    Some(span) => {
                        if span.size < nc {
                            push(VerifyError::QueryTooNarrow {
                                size: span.size,
                                nc,
                            });
                        }
                    }
                }
            }
            Instruction::Arith {
                kind,
                b1,
                c1,
                b2,
                c2,
                d,
                dc,
                c3,
                bits,
                dbits,
            } => {
                check_block(b1, &mut push);
                check_block(b2, &mut push);
                check_block(d, &mut push);
                check_col(c1, &mut push);
                check_col(c2, &mut push);
                check_col(dc, &mut push);
                if bits == 0 || dbits == 0 {
                    push(VerifyError::ZeroWidth);
                }
                if bits.max(dbits) > 64 {
                    push(VerifyError::WidthTooWide {
                        bits: bits.max(dbits),
                    });
                }
                check_col_span(c1, bits, &mut push);
                check_col_span(c2, bits, &mut push);
                check_col_span(dc, dbits, &mut push);
                // Hazards operate on the within-block column footprint:
                // spans clamp at the data boundary (the remainder lives
                // in the next chunk block, not in these columns).
                let clamp = |c: usize, w: usize| (c.min(g.data_cols), (c + w).min(g.data_cols));
                let (d_lo, d_hi) = clamp(dc, dbits);
                for (ob, oc) in [(b1, c1), (b2, c2)] {
                    let exact_alias = ob == d && oc == dc && bits == dbits;
                    let (o_lo, o_hi) = clamp(oc, bits);
                    if ob == d && !exact_alias && d_lo < o_hi && o_lo < d_hi {
                        push(VerifyError::OperandOverlapsDestination { b: d, c: oc, dc });
                    }
                }
                let op = arith_op(kind, bits);
                #[expect(
                    clippy::as_conversions,
                    reason = "Table III reservations ≤ 168, exact in usize"
                )]
                let reserved = self.cost.reserved_bits_per_row(op) as usize;
                if c3 < g.data_cols {
                    // Below the boundary the scratch tramples data; if
                    // it reaches the destination that is the sharper
                    // finding.
                    if c3 < d_hi && d_lo < c3 + reserved {
                        push(VerifyError::ScratchOverlapsDestination {
                            c3,
                            data_cols: g.data_cols,
                        });
                    } else {
                        push(VerifyError::ScratchBelowDataBoundary {
                            c3,
                            data_cols: g.data_cols,
                        });
                    }
                } else if c3 + reserved > g.cols {
                    push(VerifyError::ScratchCapacityExceeded {
                        c3,
                        reserved,
                        cols: g.cols,
                    });
                }
            }
            Instruction::RowMv {
                b1,
                r1,
                c1,
                b2,
                r2,
                c2,
                nr,
                nc,
            } => {
                check_block(b1, &mut push);
                check_block(b2, &mut push);
                check_col(c1, &mut push);
                check_col(c2, &mut push);
                for r in [r1, r2] {
                    if r >= g.rows {
                        push(VerifyError::RowOutOfRange { r, rows: g.rows });
                    }
                }
                if nr == 0 || nc == 0 {
                    push(VerifyError::ZeroWidth);
                }
                check_col_span(c1, nc, &mut push);
                check_col_span(c2, nc, &mut push);
                for r in [r1, r2] {
                    if r < g.rows && r + nr > g.rows {
                        push(VerifyError::RowSpanContinues {
                            r,
                            nr,
                            rows: g.rows,
                        });
                    }
                }
                let rows_overlap = r1 < r2 + nr && r2 < r1 + nr;
                let cols_overlap = c1 < c2 + nc && c2 < c1 + nc;
                if b1 == b2 && rows_overlap && cols_overlap {
                    push(VerifyError::RowMvAliases { b: b1 });
                }
            }
            Instruction::Write { b, r, c, nr, bits } => {
                check_block(b, &mut push);
                check_col(c, &mut push);
                if r >= g.rows {
                    push(VerifyError::RowOutOfRange { r, rows: g.rows });
                }
                if nr == 0 || bits == 0 {
                    push(VerifyError::ZeroWidth);
                }
                if bits > 64 {
                    push(VerifyError::WidthTooWide { bits });
                }
                check_col_span(c, bits, &mut push);
                if r < g.rows && r + nr > g.rows {
                    push(VerifyError::RowSpanContinues {
                        r,
                        nr,
                        rows: g.rows,
                    });
                }
            }
            Instruction::Select {
                bf,
                cf,
                bx,
                cx,
                by,
                cy,
                bd,
                cd,
                bits,
            } => {
                for b in [bf, bx, by, bd] {
                    check_block(b, &mut push);
                }
                for c in [cf, cx, cy, cd] {
                    check_col(c, &mut push);
                }
                if bits == 0 {
                    push(VerifyError::ZeroWidth);
                } else if bits > 64 {
                    push(VerifyError::WidthTooWide { bits });
                }
                check_col_span(cx, bits, &mut push);
                check_col_span(cy, bits, &mut push);
                check_col_span(cd, bits, &mut push);
                let clamp_hi = (cd + bits).min(g.data_cols);
                if bf == bd && cf >= cd && cf < clamp_hi {
                    push(VerifyError::FlagOverlapsDestination { b: bd, cf, cd });
                }
                // The mux reads x/y while writing the destination:
                // exact in-place aliasing is the legal overwrite form,
                // partial overlap corrupts the operand mid-sweep.
                for (ob, oc) in [(bx, cx), (by, cy)] {
                    let exact_alias = ob == bd && oc == cd;
                    let (o_lo, o_hi) = (oc.min(g.data_cols), (oc + bits).min(g.data_cols));
                    let d_lo = cd.min(g.data_cols);
                    if ob == bd && !exact_alias && d_lo < o_hi && o_lo < clamp_hi {
                        push(VerifyError::OperandOverlapsDestination {
                            b: bd,
                            c: oc,
                            dc: cd,
                        });
                    }
                }
            }
            // `Instruction` is non_exhaustive: future variants verify
            // trivially until a rule is written for them.
            _ => {}
        }
    }
}

/// Reconstruct the [`EnergyStats`] op ledger from a trace: the single
/// mapping from Table I instructions onto Table III priced operations.
///
/// * `hamm_7` — one window sweep plus its implicit 3-bit counter
///   writeback (the runtime charges both per piece).
/// * `near_search`/`exact_search` — one [`Op::NearestStage`] per 4-bit
///   stage group.
/// * `select` — priced as one addition of the output width (the NOR
///   mux is ~half an adder per bit).
/// * `set_qinput` — a register load, free.
#[must_use]
pub fn trace_ledger(trace: &[Instruction]) -> BTreeMap<Op, u64> {
    let mut ledger = BTreeMap::new();
    let mut bump = |op: Op, n: u64| *ledger.entry(op).or_insert(0_u64) += n;
    for inst in trace {
        match *inst {
            Instruction::SetQInput { .. } => {}
            Instruction::Hamm7 { .. } => {
                bump(Op::HammingWindow, 1);
                bump(Op::Write { bits: 3 }, 1);
            }
            Instruction::Arith { kind, bits, .. } => {
                bump(arith_op(kind, bits), 1);
            }
            Instruction::NearSearch { nc, .. } | Instruction::ExactSearch { nc, .. } => {
                #[expect(clippy::as_conversions, reason = "column counts ≤ 64, exact in u32")]
                let stages = cam::nearest_search_stages(nc as u32, 4);
                bump(Op::NearestStage, u64::from(stages));
            }
            Instruction::RowMv { nc, .. } => {
                #[expect(clippy::as_conversions, reason = "column counts fit u32")]
                bump(Op::Transfer { bits: nc as u32 }, 1);
            }
            Instruction::Write { bits, .. } => {
                #[expect(clippy::as_conversions, reason = "widths ≤ 64, exact in u32")]
                bump(Op::Write { bits: bits as u32 }, 1);
            }
            Instruction::Select { bits, .. } => {
                #[expect(clippy::as_conversions, reason = "widths ≤ 64, exact in u32")]
                bump(Op::Add { bits: bits as u32 }, 1);
            }
            _ => {}
        }
    }
    ledger
}

fn arith_op(kind: ArithKind, bits: usize) -> Op {
    #[expect(clippy::as_conversions, reason = "widths ≤ 64, exact in u32")]
    let bits = bits as u32;
    match kind {
        ArithKind::Add => Op::Add { bits },
        ArithKind::Sub => Op::Sub { bits },
        ArithKind::Mul => Op::Mul { bits },
        ArithKind::Div => Op::Div { bits },
    }
}

/// Stable short key for an op in reports: `add[8]`, `hamm7`, …
#[must_use]
pub fn op_key(op: Op) -> String {
    match op {
        Op::HammingWindow => "hamm7".into(),
        Op::NearestStage => "nearest".into(),
        Op::Add { bits } => format!("add[{bits}]"),
        Op::Sub { bits } => format!("sub[{bits}]"),
        Op::Mul { bits } => format!("mul[{bits}]"),
        Op::Div { bits } => format!("div[{bits}]"),
        Op::Transfer { bits } => format!("transfer[{bits}]"),
        Op::Write { bits } => format!("write[{bits}]"),
        _ => "unknown".into(),
    }
}

/// Convenience surface on the runtime: verify everything this runtime
/// has issued since construction, against its own geometry, cost model
/// and executed statistics.
pub trait RuntimeVerify {
    /// Statically verify the accumulated trace and cross-check its
    /// reconstructed cost ledger against the executed statistics.
    ///
    /// Note the cross-check pairs the *whole* trace with the *whole*
    /// ledger — a `Runtime::reset_stats` mid-program breaks the
    /// pairing and will surface as count mismatches.
    fn verify_trace(&self) -> VerifyReport;
}

impl RuntimeVerify for Runtime {
    fn verify_trace(&self) -> VerifyReport {
        Verifier::with_cost_model(Geometry::of_runtime(self), *self.cost_model())
            .check_against(self.trace(), self.stats())
    }
}
