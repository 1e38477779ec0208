//! Static ISA verification sweep: run every in-tree PIM workload —
//! built-in micro programs, the Fig. 6 Ward chain, the on-PIM encoder,
//! and the three accelerator clustering paths — then verify each
//! instruction trace with `dual_isa::verify` (geometry, def-before-use
//! query dataflow, hazards, and the exact cost cross-check against the
//! executed [`dual_pim::EnergyStats`]).
//!
//! ```text
//! cargo run --release -p dual-bench --bin trace_verifier [--out PATH] [--seed N]
//! ```
//!
//! A seeded mutation corpus then corrupts single operands of a known
//! clean trace and asserts each mutant is *rejected* with the expected
//! typed diagnostic class — the verifier's own false-negative gate.
//! Every JSON field is a deterministic function of the seed: byte
//! stable across machines, reruns, and `DUAL_THREADS` (the report is
//! the `ci.sh --stage verify-isa` ratchet artifact).

use dual_bench::{exit_usage, out_seed_args, write_out, JsonObject};
use dual_core::{DualAccelerator, DualConfig, PimEncoder};
use dual_hdc::HdMapper;
use dual_isa::verify::{Geometry, RuntimeVerify, Verifier, VerifyReport};
use dual_isa::{Instruction, Runtime};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

const DEFAULT_SEED: u64 = 0x15A_0001;

/// One verified workload row.
struct Row {
    name: &'static str,
    report: VerifyReport,
}

/// One mutation-corpus row: what was corrupted and how the verifier
/// answered.
struct Mutation {
    name: &'static str,
    expected: &'static str,
    rejected: bool,
    classes: Vec<String>,
}

fn blobs() -> Vec<Vec<f64>> {
    let centers = [[0.0, 0.0, 0.0], [8.0, 8.0, 0.0], [0.0, 8.0, 8.0]];
    let mut pts = Vec::new();
    for center in &centers {
        for k in 0..8 {
            pts.push(vec![
                center[0] + 0.2 * (k % 3) as f64,
                center[1] + 0.2 * ((k / 3) % 3) as f64,
                center[2] + 0.1 * k as f64,
            ]);
        }
    }
    pts
}

/// Built-in arithmetic chain: write → add/sub/mul/div → select →
/// arg-min, the §VII built-ins not exercised by the search paths.
fn builtin_arith() -> (Runtime, &'static str) {
    let mut rt = Runtime::with_pool(64, 128, 16).expect("geometry is valid");
    let a = rt.alloc(8, 16).expect("fits");
    let b = rt.alloc(8, 16).expect("fits");
    let sum = rt.alloc(9, 16).expect("fits");
    let diff = rt.alloc(8, 16).expect("fits");
    let prod = rt.alloc(16, 16).expect("fits");
    let quot = rt.alloc(8, 16).expect("fits");
    let va: Vec<u64> = (0..16).map(|i| 40 + i).collect();
    let vb: Vec<u64> = (0..16).map(|i| 2 + (i % 5)).collect();
    rt.write_values(&a, &va).expect("writes");
    rt.write_values(&b, &vb).expect("writes");
    rt.add(&a, &b, &sum).expect("runs");
    rt.sub(&a, &b, &diff).expect("runs");
    rt.mul(&a, &b, &prod).expect("runs");
    rt.div(&a, &b, &quot).expect("runs");
    let flag = rt.alloc(1, 16).expect("fits");
    rt.write_values(&flag, &(0..16).map(|i| i % 2).collect::<Vec<_>>())
        .expect("writes");
    let sel = rt.alloc(8, 16).expect("fits");
    rt.select(&flag, &diff, &quot, &sel).expect("runs");
    let _ = rt.arg_min_columns(&[&diff, &quot, &sel]).expect("runs");
    (rt, "builtin:arith")
}

/// Hamming search over a 70-bit VLCA on 64-column blocks: windows
/// straddle the chunk boundary, exercising the piece-split emission.
fn builtin_hamming() -> (Runtime, &'static str) {
    let mut rt = Runtime::with_pool(64, 128, 16).expect("geometry is valid");
    let refs = rt.alloc(70, 32).expect("fits");
    for row in 0..32 {
        let bits: Vec<bool> = (0..70).map(|i| (row + i) % 3 == 0).collect();
        rt.write_bits(&refs, row, &bits).expect("writes");
    }
    let query: Vec<bool> = (0..70).map(|i| i % 2 == 0).collect();
    let d = rt.hamming(&query, &refs).expect("runs");
    let _ = rt.read_values(&d).expect("reads");
    (rt, "builtin:hamming")
}

/// Two-phase Hamming: partial windows then the in-memory accumulation
/// tree, plus the masked nearest search and an exact search.
fn builtin_search() -> (Runtime, &'static str) {
    let mut rt = Runtime::with_pool(64, 128, 16).expect("geometry is valid");
    let refs = rt.alloc(21, 16).expect("fits");
    for row in 0..16 {
        let bits: Vec<bool> = (0..21).map(|i| (row * 7 + i) % 4 == 0).collect();
        rt.write_bits(&refs, row, &bits).expect("writes");
    }
    let query: Vec<bool> = (0..21).map(|i| i % 3 == 0).collect();
    let (partials, windows) = rt.hamming_partials(&query, &refs).expect("runs");
    let totals = rt.accumulate_partials(&partials, windows).expect("runs");
    let active = vec![true; 16];
    let _ = rt
        .near_search_masked(&totals, 0, Some(&active))
        .expect("runs");
    let vals = rt.read_values(&totals).expect("reads");
    let _ = rt.exact_search(&totals, vals[3]).expect("runs");
    (rt, "builtin:search")
}

/// Data movement: broadcast fills and block-to-block row moves.
fn builtin_row_mv() -> (Runtime, &'static str) {
    let mut rt = Runtime::with_pool(64, 128, 16).expect("geometry is valid");
    let src = rt.alloc(12, 24).expect("fits");
    let dst = rt.alloc(12, 24).expect("fits");
    rt.broadcast(&src, 0xABC).expect("runs");
    rt.row_mv(&src, &dst).expect("runs");
    (rt, "builtin:row_mv")
}

/// The Fig. 6 C–E Ward coefficient chain: row-parallel size writes,
/// sums, and divisions by the approximate divider.
fn ward_chain() -> (Runtime, &'static str) {
    let mut rt = Runtime::with_pool(4, 128, 32).expect("geometry is valid");
    let bits = 32usize;
    let s_k = [1u64, 2, 3, 10];
    let n = s_k.len();
    let col_si = rt.alloc(bits, n).expect("fits");
    let col_sj = rt.alloc(bits, n).expect("fits");
    let col_sk = rt.alloc(bits, n).expect("fits");
    rt.write_values(&col_si, &vec![2 << 8; n]).expect("writes");
    rt.write_values(&col_sj, &vec![3 << 8; n]).expect("writes");
    rt.write_values(&col_sk, &s_k.iter().map(|&v| v << 8).collect::<Vec<_>>())
        .expect("writes");
    let x = rt.alloc(bits, n).expect("fits");
    let y = rt.alloc(bits, n).expect("fits");
    let z = rt.alloc(bits, n).expect("fits");
    rt.add(&col_si, &col_sk, &x).expect("runs");
    rt.add(&col_sj, &col_sk, &y).expect("runs");
    rt.add(&x, &col_sj, &z).expect("runs");
    let z_raw = rt.alloc(bits, n).expect("fits");
    rt.write_values(&z_raw, &s_k.iter().map(|&v| 2 + 3 + v).collect::<Vec<_>>())
        .expect("writes");
    let c1 = rt.alloc(bits, n).expect("fits");
    rt.div(&x, &z_raw, &c1).expect("runs");
    (rt, "ward:fig6")
}

/// The on-PIM HD encoder (fixed-point dot products + Taylor cosine).
fn encoder_workload() -> (Runtime, &'static str) {
    let mapper = HdMapper::builder(96, 6)
        .seed(5)
        .sigma(4.0)
        .build()
        .expect("valid mapper");
    let enc = PimEncoder::new(&mapper, 6, 4.0).expect("valid encoder parameters");
    let mut rt = Runtime::with_pool(96, 256, 64).expect("geometry is valid");
    let _ = enc
        .encode_on_pim(&mut rt, &[0.5, -1.0, 2.0, 0.0, 1.5, -0.3])
        .expect("encodes");
    (rt, "encoder:on_pim")
}

fn verify_runtime(rt: &Runtime, name: &'static str) -> Row {
    Row {
        name,
        report: rt.verify_trace(),
    }
}

/// A deterministic single-operand mutation corpus over a clean trace:
/// each entry corrupts one field of one instruction (picked by the
/// seeded RNG among candidates of the right shape) and names the
/// diagnostic class the verifier must answer with.
fn mutation_corpus(trace: &[Instruction], geom: Geometry, rng: &mut StdRng) -> Vec<Mutation> {
    let verifier = Verifier::new(geom);
    let pick = |rng: &mut StdRng, idxs: &[usize]| idxs[rng.gen_range(0..idxs.len())];
    let of_kind = |f: &dyn Fn(&Instruction) -> bool| -> Vec<usize> {
        trace
            .iter()
            .enumerate()
            .filter(|(_, i)| f(i))
            .map(|(i, _)| i)
            .collect()
    };
    let writes = of_kind(&|i| matches!(i, Instruction::Write { .. }));
    let hamms = of_kind(&|i| matches!(i, Instruction::Hamm7 { .. }));
    let ariths = of_kind(&|i| matches!(i, Instruction::Arith { .. }));
    let setqs = of_kind(&|i| matches!(i, Instruction::SetQInput { .. }));
    let searches = of_kind(&|i| {
        matches!(
            i,
            Instruction::NearSearch { .. } | Instruction::ExactSearch { .. }
        )
    });
    let mut corpus: Vec<(&'static str, &'static str, Vec<Instruction>)> = Vec::new();

    // Geometry: block register past the pool.
    let mut t = trace.to_vec();
    let i = pick(rng, &writes);
    if let Instruction::Write { b, .. } = &mut t[i] {
        *b = geom.blocks + 7;
    }
    corpus.push(("write.b#out-of-pool", "block-out-of-range", t));

    // Geometry: row register past the block.
    let mut t = trace.to_vec();
    let i = pick(rng, &writes);
    if let Instruction::Write { r, .. } = &mut t[i] {
        *r = geom.rows;
    }
    corpus.push(("write.r#out-of-block", "row-out-of-range", t));

    // Width: zero-row write.
    let mut t = trace.to_vec();
    let i = pick(rng, &writes);
    if let Instruction::Write { nr, .. } = &mut t[i] {
        *nr = 0;
    }
    corpus.push(("write.nr#zero", "zero-width", t));

    // Window shape: collapse a hamm_7 window.
    let mut t = trace.to_vec();
    let i = pick(rng, &hamms);
    if let Instruction::Hamm7 { c1, c2, .. } = &mut t[i] {
        *c2 = *c1;
    }
    corpus.push(("hamm_7.c2#collapsed", "empty-window", t));

    // Window shape: stretch a window past the 7-bit CAM pattern.
    let mut t = trace.to_vec();
    let i = pick(rng, &hamms);
    if let Instruction::Hamm7 { c1, c2, .. } = &mut t[i] {
        *c2 = *c1 + 8;
    }
    corpus.push(("hamm_7.c2#stretched", "window-too-wide", t));

    // Dataflow: drop the defining set_qinput before the first use.
    let mut t = trace.to_vec();
    t.remove(setqs[0]);
    corpus.push(("set_qinput#dropped", "query-unset", t));

    // Dataflow: shrink the loaded query span under its consumers.
    let mut t = trace.to_vec();
    let i = pick(rng, &setqs);
    if let Instruction::SetQInput { size, .. } = &mut t[i] {
        *size = 1;
    }
    let expected = if searches.iter().any(|&s| s > i) && hamms.iter().all(|&h| h < i) {
        "query-too-narrow"
    } else {
        "query-span-exceeded"
    };
    corpus.push(("set_qinput.size#shrunk", expected, t));

    // Hazard: slide an arith operand into partial destination overlap.
    let mut t = trace.to_vec();
    let i = pick(rng, &ariths);
    if let Instruction::Arith { b2, c2, d, dc, .. } = &mut t[i] {
        *b2 = *d;
        *c2 = *dc + 1;
    }
    corpus.push(("arith.c2#overlaps-dest", "operand-overlaps-destination", t));

    // Hazard: scratch pointer dropped below the data boundary.
    let mut t = trace.to_vec();
    let i = pick(rng, &ariths);
    if let Instruction::Arith { c3, dc, bits, .. } = &mut t[i] {
        *c3 = *dc + *bits + 1;
    }
    corpus.push(("arith.c3#in-data", "scratch-below-data-boundary", t));

    corpus
        .into_iter()
        .map(|(name, expected, t)| {
            let report = verifier.check(&t);
            let classes: Vec<String> = report
                .errors()
                .map(|d| d.error.class().to_string())
                .collect();
            Mutation {
                name,
                expected,
                rejected: classes.iter().any(|c| c == expected),
                classes,
            }
        })
        .collect()
}

fn to_json(seed: u64, rows: &[Row], mutations: &[Mutation]) -> String {
    let workloads = rows.iter().map(|r| {
        JsonObject::new()
            .str("name", r.name)
            .field("instructions", r.report.instructions)
            .field("errors", r.report.error_count())
            .field("advisories", r.report.advisory_count())
            .field("ops", r.report.cost.ops)
            .field("time_ns", format_args!("{:.3}", r.report.cost.time_ns))
            .field("energy_pj", format_args!("{:.3}", r.report.cost.energy_pj))
    });
    let corpus = mutations.iter().map(|m| {
        JsonObject::new()
            .str("name", m.name)
            .str("expected", m.expected)
            .field("rejected", m.rejected)
    });
    JsonObject::new()
        .field("version", 1)
        .field("seed", seed)
        .records("workloads", workloads)
        .records("mutations", corpus)
        .field(
            "total_instructions",
            rows.iter().map(|r| r.report.instructions).sum::<usize>(),
        )
        .field("workloads_clean", rows.iter().all(|r| r.report.is_clean()))
        .field("mutations_total", mutations.len())
        .field(
            "mutations_rejected",
            mutations.iter().filter(|m| m.rejected).count(),
        )
        .pretty()
}

fn main() {
    let (out_path, seed) = out_seed_args(
        "trace_verifier",
        std::env::args().skip(1),
        "results/isa_verify.json",
        DEFAULT_SEED,
    )
    .unwrap_or_else(exit_usage);

    let mut rows = Vec::new();
    for (rt, name) in [
        builtin_arith(),
        builtin_hamming(),
        builtin_search(),
        builtin_row_mv(),
        ward_chain(),
        encoder_workload(),
    ] {
        rows.push(verify_runtime(&rt, name));
    }

    // The three accelerator clustering paths, end to end.
    let cfg = DualConfig::paper().with_dim(512);
    let accel = DualAccelerator::new(cfg, 3, 7).expect("valid accelerator");
    let pts = blobs();
    let hier = accel.fit_hierarchical(&pts, 3).expect("clusters");
    rows.push(Row {
        name: "accel:hierarchical",
        report: hier.verify(),
    });
    let km = accel.fit_kmeans(&pts, 3, 13).expect("clusters");
    rows.push(Row {
        name: "accel:kmeans",
        report: km.verify(),
    });
    let db = accel.fit_dbscan(&pts, 0.2).expect("clusters");
    rows.push(Row {
        name: "accel:dbscan",
        report: db.verify(),
    });

    // Mutation corpus over the concatenated arith + search traces:
    // both run on the same 64×128×16 geometry, and together they
    // contain every instruction shape the mutations target. The
    // concatenation stays clean (the search program re-defines its own
    // query register).
    let (art, _) = builtin_arith();
    let (srt, _) = builtin_search();
    let mut fixture = art.trace().to_vec();
    fixture.extend_from_slice(srt.trace());
    let mut rng = StdRng::seed_from_u64(seed);
    let mutations = mutation_corpus(&fixture, Geometry::of_runtime(&art), &mut rng);

    let mut failed = false;
    for r in &rows {
        let status = if r.report.is_clean() {
            "clean"
        } else {
            "ERRORS"
        };
        println!(
            "{:<22} {:>6} inst  {:>2} adv  {:>9.1} ns  {:>11.1} pJ  [{status}]",
            r.name,
            r.report.instructions,
            r.report.advisory_count(),
            r.report.cost.time_ns,
            r.report.cost.energy_pj,
        );
        if !r.report.is_clean() {
            failed = true;
            for d in r.report.errors() {
                eprintln!("  {:?} {} {:?}", d.index, d.mnemonic, d.error);
            }
        }
    }
    for m in &mutations {
        let status = if m.rejected { "rejected" } else { "MISSED" };
        println!(
            "mutation {:<28} expect {:<30} [{status}]",
            m.name, m.expected
        );
        if !m.rejected {
            failed = true;
            eprintln!("  verifier answered: {:?}", m.classes);
        }
    }

    write_out(&out_path, to_json(seed, &rows, &mutations)).expect("writable output path");
    println!("report written to {out_path} (deterministic fields only)");
    assert!(
        !failed,
        "ISA verification failed: unclean workload trace or unrejected mutation"
    );
}
