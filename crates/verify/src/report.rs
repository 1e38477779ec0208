//! Diagnostics and the per-trace verification report.

/// Whether a diagnostic fails the gate or merely annotates the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Gate-failing: the instruction cannot execute as addressed, or
    /// the trace's cost ledger disagrees with the executed statistics.
    Error,
    /// Informational: legal multi-block addressing or a Table III
    /// scratch reservation that exceeds one block's spare columns —
    /// worth surfacing to a compiler, not a correctness failure.
    Advisory,
}

/// One typed verification finding.
///
/// The variants mirror the verifier's four analysis families: geometry
/// bounds, query-register dataflow, intra-instruction hazards, and the
/// cost cross-check (see DESIGN.md §10 for the taxonomy).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A block operand addresses past the pool.
    BlockOutOfRange {
        /// Offending block register value.
        b: usize,
        /// Blocks in the pool.
        blocks: usize,
    },
    /// A row operand addresses past the block.
    RowOutOfRange {
        /// Offending row register value.
        r: usize,
        /// Rows per block.
        rows: usize,
    },
    /// A column operand addresses past the data region.
    ColumnOutOfRange {
        /// Offending column register value.
        c: usize,
        /// Data columns per block.
        data_cols: usize,
    },
    /// A width/count operand is zero.
    ZeroWidth,
    /// A value width exceeds the 64-bit driver limit.
    WidthTooWide {
        /// Offending width.
        bits: usize,
    },
    /// A `hamm_7` window spans no columns (`c1 >= c2`).
    EmptyWindow,
    /// A `hamm_7` window is wider than the 7-bit CAM pattern.
    WindowTooWide {
        /// Offending window width.
        width: usize,
    },
    /// `hamm_7` / a search issued before any `set_qinput`.
    QueryUnset,
    /// The query register's live span is exhausted: the window sweep
    /// consumed more bits than the last `set_qinput` loaded.
    QuerySpanExceeded {
        /// Bits already consumed since the last `set_qinput`.
        consumed: usize,
        /// Width of the offending window.
        width: usize,
        /// Bits the last `set_qinput` loaded.
        size: usize,
    },
    /// A search reads more columns than the query register holds.
    QueryTooNarrow {
        /// Live query size.
        size: usize,
        /// Columns searched.
        nc: usize,
    },
    /// An arithmetic destination partially overlaps an operand in the
    /// same block (exact in-place aliasing — the accumulator idiom —
    /// is allowed; partial overlap corrupts the operand mid-op).
    OperandOverlapsDestination {
        /// Shared block.
        b: usize,
        /// Operand column base.
        c: usize,
        /// Destination column base.
        dc: usize,
    },
    /// The scratch base sits below the data/scratch boundary and
    /// collides with live data or destination columns.
    ScratchOverlapsDestination {
        /// Scratch column base.
        c3: usize,
        /// Data/scratch boundary.
        data_cols: usize,
    },
    /// The scratch base sits below the data/scratch boundary.
    ScratchBelowDataBoundary {
        /// Scratch column base.
        c3: usize,
        /// Data/scratch boundary.
        data_cols: usize,
    },
    /// A `row_mv` source and destination region alias within one
    /// issue (same block, overlapping rows *and* columns).
    RowMvAliases {
        /// Shared block.
        b: usize,
    },
    /// A `select` flag column lies inside the destination span — the
    /// mux would overwrite its own control bit mid-sweep.
    FlagOverlapsDestination {
        /// Shared block.
        b: usize,
        /// Flag column.
        cf: usize,
        /// Destination column base.
        cd: usize,
    },
    /// Advisory: a column span continues past the block's data columns
    /// (legal for multi-block VLCAs; the driver folds the overflow
    /// into the next chunk block).
    ColumnSpanContinues {
        /// Span base column.
        c: usize,
        /// Span width.
        width: usize,
        /// Data columns per block.
        data_cols: usize,
    },
    /// Advisory: a row span continues past the block's rows (legal for
    /// multi-group VLCAs).
    RowSpanContinues {
        /// Span base row.
        r: usize,
        /// Span height.
        nr: usize,
        /// Rows per block.
        rows: usize,
    },
    /// Advisory: the Table III scratch reservation for this operation
    /// exceeds the block's columns above `c3` — the driver must spill
    /// across blocks.
    ScratchCapacityExceeded {
        /// Scratch column base.
        c3: usize,
        /// Columns the operation reserves per row.
        reserved: usize,
        /// Total columns per block.
        cols: usize,
    },
    /// Cost cross-check: the trace-reconstructed issue count of one op
    /// disagrees with the executed [`dual_pim::EnergyStats`] ledger.
    CountMismatch {
        /// Formatted op (for example `add[10]`).
        op: String,
        /// Issues reconstructed from the trace.
        traced: u64,
        /// Issues the runtime recorded.
        recorded: u64,
    },
    /// Cost cross-check: analytic latency total diverges from the
    /// recorded total beyond float-reassociation tolerance.
    TimeMismatch {
        /// Nanoseconds priced from the trace.
        traced_ns: f64,
        /// Nanoseconds the runtime recorded.
        recorded_ns: f64,
    },
    /// Cost cross-check: analytic energy total diverges from the
    /// recorded total beyond float-reassociation tolerance.
    EnergyMismatch {
        /// Picojoules priced from the trace.
        traced_pj: f64,
        /// Picojoules the runtime recorded.
        recorded_pj: f64,
    },
}

impl VerifyError {
    /// The diagnostic's gate severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            Self::ColumnSpanContinues { .. }
            | Self::RowSpanContinues { .. }
            | Self::ScratchCapacityExceeded { .. } => Severity::Advisory,
            _ => Severity::Error,
        }
    }

    /// Short machine-readable class name (stable across field changes;
    /// the mutation corpus and the JSON report key on it).
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            Self::BlockOutOfRange { .. } => "block-out-of-range",
            Self::RowOutOfRange { .. } => "row-out-of-range",
            Self::ColumnOutOfRange { .. } => "column-out-of-range",
            Self::ZeroWidth => "zero-width",
            Self::WidthTooWide { .. } => "width-too-wide",
            Self::EmptyWindow => "empty-window",
            Self::WindowTooWide { .. } => "window-too-wide",
            Self::QueryUnset => "query-unset",
            Self::QuerySpanExceeded { .. } => "query-span-exceeded",
            Self::QueryTooNarrow { .. } => "query-too-narrow",
            Self::OperandOverlapsDestination { .. } => "operand-overlaps-destination",
            Self::ScratchOverlapsDestination { .. } => "scratch-overlaps-destination",
            Self::ScratchBelowDataBoundary { .. } => "scratch-below-data-boundary",
            Self::RowMvAliases { .. } => "row-mv-aliases",
            Self::FlagOverlapsDestination { .. } => "flag-overlaps-destination",
            Self::ColumnSpanContinues { .. } => "column-span-continues",
            Self::RowSpanContinues { .. } => "row-span-continues",
            Self::ScratchCapacityExceeded { .. } => "scratch-capacity-exceeded",
            Self::CountMismatch { .. } => "count-mismatch",
            Self::TimeMismatch { .. } => "time-mismatch",
            Self::EnergyMismatch { .. } => "energy-mismatch",
        }
    }
}

/// One finding anchored to its instruction (or to the whole trace for
/// the cost cross-check, where `index` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Index into the verified trace; `None` for trace-level findings.
    pub index: Option<usize>,
    /// Mnemonic of the offending instruction (`"<trace>"` for
    /// trace-level findings).
    pub mnemonic: &'static str,
    /// The typed finding.
    pub error: VerifyError,
}

impl Diagnostic {
    /// The finding's gate severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.error.severity()
    }
}

/// Analytic cost bound reconstructed from the trace alone: every op
/// priced serially at the verifier's cost model. For `Runtime`-emitted
/// traces this equals the executed totals (the runtime issues
/// serially); for a compiler's candidate stream it is the no-overlap
/// upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBound {
    /// Total serial latency, nanoseconds.
    pub time_ns: f64,
    /// Total energy, picojoules.
    pub energy_pj: f64,
    /// Priced device operations (trace entries excluding `set_qinput`,
    /// counting each `hamm_7` piece's implicit counter writeback).
    pub ops: u64,
}

/// Outcome of verifying one instruction stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    /// Instructions examined.
    pub instructions: usize,
    /// Every finding, in trace order (trace-level findings last).
    pub diagnostics: Vec<Diagnostic>,
    /// Analytic cost bound for the trace.
    pub cost: CostBound,
}

impl VerifyReport {
    /// `true` when no gate-failing diagnostic was found (advisories
    /// are allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Gate-failing findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Informational findings.
    pub fn advisories(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Advisory)
    }

    /// Number of gate-failing findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of informational findings.
    #[must_use]
    pub fn advisory_count(&self) -> usize {
        self.advisories().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_split_errors_from_advisories() {
        assert_eq!(
            VerifyError::QueryUnset.severity(),
            Severity::Error,
            "dataflow findings gate"
        );
        assert_eq!(
            VerifyError::ColumnSpanContinues {
                c: 60,
                width: 10,
                data_cols: 64
            }
            .severity(),
            Severity::Advisory
        );
        assert_eq!(
            VerifyError::ScratchCapacityExceeded {
                c3: 64,
                reserved: 2688,
                cols: 128
            }
            .severity(),
            Severity::Advisory
        );
    }

    #[test]
    fn report_counts_by_severity() {
        let mut r = VerifyReport::default();
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic {
            index: Some(0),
            mnemonic: "write",
            error: VerifyError::RowSpanContinues {
                r: 0,
                nr: 100,
                rows: 64,
            },
        });
        assert!(r.is_clean());
        assert_eq!(r.advisory_count(), 1);
        r.diagnostics.push(Diagnostic {
            index: Some(1),
            mnemonic: "hamm_7",
            error: VerifyError::QueryUnset,
        });
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn classes_are_unique_and_kebab() {
        let samples = [
            VerifyError::QueryUnset,
            VerifyError::EmptyWindow,
            VerifyError::ZeroWidth,
            VerifyError::RowMvAliases { b: 0 },
            VerifyError::CountMismatch {
                op: "add[8]".into(),
                traced: 1,
                recorded: 2,
            },
        ];
        let mut seen = std::collections::BTreeSet::new();
        for s in &samples {
            let c = s.class();
            assert!(seen.insert(c), "duplicate class {c}");
            assert!(c.chars().all(|ch| ch.is_ascii_lowercase() || ch == '-'));
        }
    }
}
