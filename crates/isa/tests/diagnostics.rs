//! Fixture-based unit tests: one hand-built trace per diagnostic
//! class, checked for the expected typed [`VerifyError`] variant.

use dual_isa::verify::{Geometry, RuntimeVerify, Severity, Verifier, VerifyError};
use dual_isa::{ArithKind, Instruction, Runtime};

/// 4 blocks × 64 rows × 128 cols (64 data + 64 scratch) — the
/// accelerator's block geometry at pool size 4.
fn geom() -> Geometry {
    Geometry::new(4, 64, 128)
}

fn setq(size: usize) -> Instruction {
    Instruction::SetQInput {
        b: 0,
        addr: 0,
        size,
    }
}

/// A well-formed 10-bit in-place accumulate: dest exactly aliases
/// operand 1 (the accumulator idiom the verifier must admit).
fn accumulate() -> Instruction {
    Instruction::Arith {
        kind: ArithKind::Add,
        b1: 0,
        c1: 0,
        b2: 1,
        c2: 0,
        d: 0,
        dc: 0,
        c3: 64,
        bits: 10,
        dbits: 10,
    }
}

fn classes(trace: &[Instruction]) -> Vec<&'static str> {
    Verifier::new(geom())
        .check(trace)
        .diagnostics
        .iter()
        .map(|d| d.error.class())
        .collect()
}

#[test]
fn clean_fixtures_verify_clean() {
    let trace = vec![
        Instruction::Write {
            b: 0,
            r: 0,
            c: 0,
            nr: 16,
            bits: 10,
        },
        setq(14),
        Instruction::Hamm7 { b: 0, c1: 0, c2: 7 },
        Instruction::Hamm7 {
            b: 0,
            c1: 7,
            c2: 14,
        },
        accumulate(),
        Instruction::NearSearch {
            b: 0,
            nc: 10,
            c: 0,
            q: 0x2a,
        },
        Instruction::RowMv {
            b1: 0,
            r1: 0,
            c1: 0,
            b2: 1,
            r2: 0,
            c2: 0,
            nr: 16,
            nc: 10,
        },
        Instruction::Select {
            bf: 0,
            cf: 20,
            bx: 0,
            cx: 0,
            by: 1,
            cy: 0,
            bd: 2,
            cd: 0,
            bits: 10,
        },
    ];
    let report = Verifier::new(geom()).check(&trace);
    assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
    assert_eq!(report.advisory_count(), 0);
    assert_eq!(report.instructions, trace.len());
    assert!(report.cost.ops > 0);
    assert!(report.cost.time_ns > 0.0);
}

#[test]
fn block_row_column_bounds() {
    assert_eq!(classes(&[setq(8)]), Vec::<&str>::new());
    assert_eq!(
        classes(&[Instruction::SetQInput {
            b: 4,
            addr: 0,
            size: 8
        }]),
        vec!["block-out-of-range"]
    );
    assert_eq!(
        classes(&[Instruction::SetQInput {
            b: 0,
            addr: 64,
            size: 8
        }]),
        vec!["row-out-of-range"]
    );
    assert_eq!(
        classes(&[
            setq(8),
            Instruction::NearSearch {
                b: 0,
                nc: 8,
                c: 64,
                q: 0
            }
        ]),
        vec!["column-out-of-range"]
    );
}

#[test]
fn width_checks() {
    assert_eq!(
        classes(&[Instruction::SetQInput {
            b: 0,
            addr: 0,
            size: 0
        }]),
        vec!["zero-width"]
    );
    assert_eq!(
        classes(&[Instruction::Write {
            b: 0,
            r: 0,
            c: 0,
            nr: 1,
            bits: 65,
        }]),
        vec!["width-too-wide", "column-span-continues"]
    );
}

#[test]
fn hamm7_window_shape() {
    assert_eq!(
        classes(&[setq(8), Instruction::Hamm7 { b: 0, c1: 5, c2: 5 }]),
        vec!["empty-window"]
    );
    assert_eq!(
        classes(&[setq(8), Instruction::Hamm7 { b: 0, c1: 0, c2: 8 }]),
        vec!["window-too-wide"]
    );
}

#[test]
fn query_dataflow() {
    // Use before any def.
    assert_eq!(
        classes(&[Instruction::Hamm7 { b: 0, c1: 0, c2: 7 }]),
        vec!["query-unset"]
    );
    assert_eq!(
        classes(&[Instruction::NearSearch {
            b: 0,
            nc: 8,
            c: 0,
            q: 0
        }]),
        vec!["query-unset"]
    );
    // Window sweep consumes past the loaded span.
    assert_eq!(
        classes(&[
            setq(7),
            Instruction::Hamm7 { b: 0, c1: 0, c2: 7 },
            Instruction::Hamm7 {
                b: 0,
                c1: 7,
                c2: 14
            }
        ]),
        vec!["query-span-exceeded"]
    );
    // A fresh set_qinput renews the span.
    assert_eq!(
        classes(&[
            setq(7),
            Instruction::Hamm7 { b: 0, c1: 0, c2: 7 },
            setq(7),
            Instruction::Hamm7 {
                b: 0,
                c1: 7,
                c2: 14
            }
        ]),
        Vec::<&str>::new()
    );
    // Search wider than the live query.
    assert_eq!(
        classes(&[
            setq(4),
            Instruction::ExactSearch {
                b: 0,
                nc: 8,
                c: 0,
                q: 0
            }
        ]),
        vec!["query-too-narrow"]
    );
}

#[test]
fn arith_hazards() {
    // Exact in-place alias: legal.
    assert_eq!(classes(&[accumulate()]), Vec::<&str>::new());
    // Partial overlap of destination with operand 2: hazard.
    let mut shifted = accumulate();
    if let Instruction::Arith { b2, c2, .. } = &mut shifted {
        *b2 = 0;
        *c2 = 5;
    }
    assert_eq!(classes(&[shifted]), vec!["operand-overlaps-destination"]);
    // Scratch below the data boundary, clear of the spans.
    let mut low_scratch = accumulate();
    if let Instruction::Arith { c3, .. } = &mut low_scratch {
        *c3 = 40;
    }
    assert_eq!(classes(&[low_scratch]), vec!["scratch-below-data-boundary"]);
    // Scratch below the boundary *and* reaching into the destination.
    let mut hot_scratch = accumulate();
    if let Instruction::Arith { c3, .. } = &mut hot_scratch {
        *c3 = 2;
    }
    assert_eq!(
        classes(&[hot_scratch]),
        vec!["scratch-overlaps-destination"]
    );
}

#[test]
fn row_mv_aliasing() {
    let mv = |b2: usize, r2: usize, c2: usize| Instruction::RowMv {
        b1: 0,
        r1: 0,
        c1: 0,
        b2,
        r2,
        c2,
        nr: 8,
        nc: 8,
    };
    assert_eq!(classes(&[mv(1, 0, 0)]), Vec::<&str>::new()); // other block
    assert_eq!(classes(&[mv(0, 8, 0)]), Vec::<&str>::new()); // disjoint rows
    assert_eq!(classes(&[mv(0, 0, 8)]), Vec::<&str>::new()); // disjoint cols
    assert_eq!(classes(&[mv(0, 4, 4)]), vec!["row-mv-aliases"]);
}

#[test]
fn select_flag_hazard() {
    let sel = |bf: usize, cf: usize| Instruction::Select {
        bf,
        cf,
        bx: 0,
        cx: 0,
        by: 1,
        cy: 0,
        bd: 2,
        cd: 8,
        bits: 10,
    };
    assert_eq!(classes(&[sel(2, 30)]), Vec::<&str>::new()); // outside dest
    assert_eq!(classes(&[sel(0, 10)]), Vec::<&str>::new()); // other block
    assert_eq!(classes(&[sel(2, 10)]), vec!["flag-overlaps-destination"]);
}

#[test]
fn advisories_do_not_gate() {
    let trace = vec![
        // 80-rows span across two 64-row groups, 70-bit span across two
        // 64-col chunks: both legal multi-block shapes.
        Instruction::Write {
            b: 0,
            r: 0,
            c: 0,
            nr: 80,
            bits: 40,
        },
        Instruction::RowMv {
            b1: 0,
            r1: 0,
            c1: 30,
            b2: 1,
            r2: 0,
            c2: 0,
            nr: 80,
            nc: 40,
        },
        // 155-bit Mul scratch reservation > 64 spare columns.
        Instruction::Arith {
            kind: ArithKind::Mul,
            b1: 0,
            c1: 0,
            b2: 1,
            c2: 0,
            d: 2,
            dc: 0,
            c3: 64,
            bits: 8,
            dbits: 16,
        },
    ];
    let report = Verifier::new(geom()).check(&trace);
    assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
    let found: Vec<_> = report.advisories().map(|d| d.error.class()).collect();
    assert!(found.contains(&"row-span-continues"));
    assert!(found.contains(&"column-span-continues"));
    assert!(found.contains(&"scratch-capacity-exceeded"));
    for d in report.advisories() {
        assert_eq!(d.severity(), Severity::Advisory);
    }
}

#[test]
fn cost_cross_check_flags_tampered_stats() {
    let mut rt = Runtime::with_block_geometry(64, 128).unwrap();
    let a = rt.alloc(8, 4).unwrap();
    let b = rt.alloc(8, 4).unwrap();
    let out = rt.alloc(9, 4).unwrap();
    rt.write_values(&a, &[1, 2, 3, 4]).unwrap();
    rt.write_values(&b, &[5, 6, 7, 8]).unwrap();
    rt.add(&a, &b, &out).unwrap();
    assert!(rt.verify_trace().is_clean());

    // Drop the last trace entry: its op count (and the totals it
    // contributed) no longer reconcile with the executed stats.
    let truncated = &rt.trace()[..rt.trace().len() - 1];
    let verifier = Verifier::with_cost_model(Geometry::of_runtime(&rt), *rt.cost_model());
    let report = verifier.check_against(truncated, rt.stats());
    let found: Vec<_> = report.errors().map(|d| d.error.class()).collect();
    assert!(found.contains(&"count-mismatch"), "found: {found:?}");
    assert!(found.contains(&"time-mismatch"), "found: {found:?}");
    assert!(found.contains(&"energy-mismatch"), "found: {found:?}");
    for d in report.errors() {
        assert_eq!(d.index, None, "cost findings are trace-level");
        assert_eq!(d.mnemonic, "<trace>");
    }
}

#[test]
fn diagnostics_carry_index_and_mnemonic() {
    let trace = vec![setq(8), Instruction::Hamm7 { b: 9, c1: 0, c2: 7 }];
    let report = Verifier::new(geom()).check(&trace);
    assert_eq!(report.error_count(), 1);
    let d = &report.diagnostics[0];
    assert_eq!(d.index, Some(1));
    assert_eq!(d.mnemonic, "hamm_7");
    assert!(matches!(
        d.error,
        VerifyError::BlockOutOfRange { b: 9, blocks: 4 }
    ));
}

#[test]
fn empty_geometry_admits_only_the_empty_trace() {
    let v = Verifier::new(Geometry::empty());
    assert!(v.check(&[]).is_clean());
    assert!(!v.check(&[setq(1)]).is_clean());
}
