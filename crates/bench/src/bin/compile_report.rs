//! Compile-stage gate: compile every in-tree pipeline shape, verify
//! each emitted program, exercise the mutation corpus, and compare the
//! program's reference executors against the production assign kernel.
//!
//! ```text
//! cargo run --release -p dual-bench --bin compile_report [--out PATH]
//! ```
//!
//! Three sections, all asserted before the report is written (any
//! violation panics, failing the CI stage):
//!
//! 1. **Shapes** — D ∈ {1000, 4000} × shards ∈ {1, 2, 8}: each shape
//!    compiles to a `Verifier::check`-clean program; per-mnemonic
//!    instruction counts, the analytic cost bound, and the column
//!    allocator's reuse stats are reported. `set_qinput == batch`
//!    documents the hoist (the interpreter loads the query register
//!    twice per point).
//! 2. **Mutations** — every `dual_compile::Mutation` corpus entry is
//!    force-fed to the verifier and must be rejected with its expected
//!    diagnostic class.
//! 3. **Executor differential** — the flat scan, the sharded kernel
//!    the stream engine runs (`search::assign_sharded`, `threads = 0`
//!    so `DUAL_THREADS` drives the worker count), the literal VM and
//!    `Runtime::run_program` on the functional simulator must agree on
//!    every assignment of a small shape.
//!
//! The JSON contains only thread-invariant quantities, so the file is
//! byte-identical across machines and `DUAL_THREADS` settings — CI
//! diffs runs at 0, 2 and 8 threads against the committed
//! `results/compile_report.json`.

use std::fmt::Write as _;

use dual_compile::{CompiledPipeline, Compiler, Mutation, PipelineShape, COLS};
use dual_hdc::{search, Hypervector};
use dual_isa::{ProgramIo, Runtime};
use dual_isa_verify::{Geometry, Verifier};

/// The in-tree shape matrix: the paper's D=4000 and the reduced D=1000
/// operating point, swept over the shard counts CI cares about.
const DIMS: [usize; 2] = [1000, 4000];
const SHARDS: [usize; 3] = [1, 2, 8];
const FEATURES: usize = 16;
const SLOTS: usize = 16;
const BATCH: usize = 64;

fn shape_matrix() -> Vec<PipelineShape> {
    let mut shapes = Vec::new();
    for dim in DIMS {
        for shards in SHARDS {
            shapes.push(PipelineShape {
                dim,
                n_features: FEATURES,
                slots: SLOTS,
                shards,
                batch: BATCH,
            });
        }
    }
    shapes
}

fn compile_shapes(out: &mut String) -> Vec<CompiledPipeline> {
    println!(
        "  {:<10} {:>7} {:>12} {:>10} {:>8} {:>8} {:>12} {:>14} {:>10}",
        "shape",
        "shards",
        "instructions",
        "set_qinput",
        "hamm_7",
        "write",
        "time_us",
        "energy_nj",
        "reused"
    );
    let mut compiled = Vec::new();
    out.push_str("  \"shapes\": [");
    let shapes = shape_matrix();
    for (i, shape) in shapes.iter().enumerate() {
        let p = Compiler::compile(*shape).expect("in-tree shape must compile verified");
        let prog = p.program();
        // The hoist: exactly one query-register load per unrolled
        // point (the tree-walking runtime issues two).
        assert_eq!(
            prog.count_of("set_qinput"),
            shape.batch,
            "one hoisted set_qinput per point"
        );
        assert_eq!(prog.count_of("near_search"), shape.batch);
        let cost = p.cost();
        let alloc = p.alloc_stats();
        println!(
            "  d{:<9} {:>7} {:>12} {:>10} {:>8} {:>8} {:>12.2} {:>14.2} {:>10}",
            shape.dim,
            shape.shards,
            prog.len(),
            prog.count_of("set_qinput"),
            prog.count_of("hamm_7"),
            prog.count_of("write"),
            cost.time_ns / 1e3,
            cost.energy_pj / 1e3,
            alloc.reused_cols,
        );
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"dim\": {}, ", shape.dim);
        let _ = write!(out, "\"shards\": {}, ", shape.shards);
        let _ = write!(out, "\"batch\": {}, ", shape.batch);
        let _ = write!(out, "\"instructions\": {}, ", prog.len());
        let _ = write!(out, "\"set_qinput\": {}, ", prog.count_of("set_qinput"));
        let _ = write!(out, "\"hamm_7\": {}, ", prog.count_of("hamm_7"));
        let _ = write!(out, "\"add\": {}, ", prog.count_of("add"));
        let _ = write!(out, "\"mul\": {}, ", prog.count_of("mul"));
        let _ = write!(out, "\"near_search\": {}, ", prog.count_of("near_search"));
        let _ = write!(out, "\"write\": {}, ", prog.count_of("write"));
        let _ = write!(out, "\"time_ns\": {:.3}, ", cost.time_ns);
        let _ = write!(out, "\"energy_pj\": {:.3}, ", cost.energy_pj);
        let _ = write!(out, "\"peak_cols\": {}, ", alloc.peak_cols);
        let _ = write!(out, "\"total_cols\": {}, ", alloc.total_cols);
        let _ = write!(out, "\"reused_cols\": {}", alloc.reused_cols);
        out.push('}');
        compiled.push(p);
    }
    out.push_str("\n  ],\n");
    compiled
}

fn mutation_corpus(out: &mut String) {
    let shape = PipelineShape {
        dim: 200,
        n_features: 8,
        slots: 8,
        shards: 2,
        batch: 4,
    };
    out.push_str("  \"mutations\": [");
    for (i, m) in Mutation::ALL.iter().enumerate() {
        let corrupted = Compiler::compile_corrupted(shape, *m).expect("build phase succeeds");
        let report = Verifier::new(Geometry::new(shape.blocks(), shape.slots, COLS))
            .check(corrupted.instructions());
        assert!(
            !report.is_clean(),
            "mutation {} must be rejected by the verifier",
            m.name()
        );
        let classes: Vec<&str> = report.errors().map(|d| d.error.class()).collect();
        assert!(
            classes.contains(&m.expected_class()),
            "mutation {}: expected class {} in {:?}",
            m.name(),
            m.expected_class(),
            classes
        );
        println!(
            "  mutation {:<22} rejected with `{}` ({} diagnostic(s))",
            m.name(),
            m.expected_class(),
            report.diagnostics.len()
        );
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"name\": \"{}\", ", m.name());
        let _ = write!(out, "\"expected_class\": \"{}\", ", m.expected_class());
        let _ = write!(out, "\"rejected\": true, ");
        let _ = write!(out, "\"diagnostics\": {}", report.diagnostics.len());
        out.push('}');
    }
    out.push_str("\n  ],\n");
}

fn executor_differential(out: &mut String) {
    let shape = PipelineShape {
        dim: 40,
        n_features: 2,
        slots: 4,
        shards: 2,
        batch: 3,
    };
    let compiled = Compiler::compile(shape).expect("small shape compiles");
    let centroids: Vec<Hypervector> = (0..shape.slots)
        .map(|i| dual_hdc::ops::random_hypervector(shape.dim, 0xC0FF_EE00 + i as u64))
        .collect();
    let queries: Vec<Hypervector> = (0..shape.batch)
        .map(|i| dual_hdc::ops::random_hypervector(shape.dim, 0xBEEF_0000 + i as u64))
        .collect();

    // Reference: flat strict-less tie-low scan.
    let flat = search::assign_batch(&queries, &centroids, 1);
    // The production sharded kernel: serial, parallel, and auto.
    for threads in [1usize, 2, 0] {
        assert_eq!(
            search::assign_sharded(&queries, &centroids, shape.shards, threads),
            flat,
            "sharded kernel diverges at threads={threads}"
        );
    }
    // Literal-window VM.
    let vm = compiled
        .vm()
        .assign(&queries, &centroids)
        .expect("vm executes");
    assert_eq!(vm, flat, "literal VM diverges from the flat scan");

    // Functional simulator: preload the CAM rows via a write preamble,
    // then replay the compiled program on the Runtime.
    let mut rt =
        Runtime::with_pool(shape.slots, COLS, shape.blocks()).expect("runtime pool fits shape");
    let mut preamble = dual_isa::Program::new("preload_centroids", shape.geometry());
    let mut pre_io = ProgramIo::default();
    for (slot, c) in centroids.iter().enumerate() {
        preamble.push(dual_isa::Instruction::Write {
            b: 0,
            r: slot,
            c: 0,
            nr: 1,
            bits: shape.dim,
        });
        pre_io.push_write(c.bits().as_words()[0] & ((1u64 << shape.dim) - 1));
    }
    rt.run_program(&preamble, &mut pre_io)
        .expect("preamble executes");
    let mut io = ProgramIo::default();
    for q in &queries {
        io.push_query((0..shape.dim).map(|i| q.bits().get(i)).collect());
    }
    rt.run_program(compiled.program(), &mut io)
        .expect("compiled program executes on the simulator");
    let simulated: Vec<(usize, usize)> = io
        .results
        .iter()
        .map(|&(i, d)| (i, usize::try_from(d).expect("distance fits usize")))
        .collect();
    assert_eq!(
        simulated, flat,
        "Runtime::run_program diverges from the flat scan"
    );
    println!(
        "  executor differential: flat == sharded kernel == literal VM == Runtime::run_program ({} queries x {} slots)",
        queries.len(),
        centroids.len()
    );
    out.push_str("  \"executor_differential\": {");
    let _ = write!(out, "\"queries\": {}, ", queries.len());
    let _ = write!(out, "\"slots\": {}, ", centroids.len());
    let _ = write!(out, "\"kernel_identical\": true, ");
    let _ = write!(out, "\"vm_identical\": true, ");
    let _ = write!(out, "\"runtime_identical\": true");
    out.push_str("}\n");
}

fn main() {
    let mut out_path = String::from("results/compile_report.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next().expect("--out requires a path");
        } else {
            panic!("unknown argument `{arg}` (usage: compile_report [--out PATH])");
        }
    }

    println!("compile_report: verify-gated pipeline compilation across the in-tree shape matrix\n");
    let mut out = String::from("{\n  \"version\": 1,\n");
    let _ = compile_shapes(&mut out);
    println!();
    mutation_corpus(&mut out);
    println!();
    executor_differential(&mut out);
    out.push_str("}\n");

    std::fs::create_dir_all("results").expect("can create results/");
    std::fs::write(&out_path, &out).expect("writable --out path");
    println!("\nreport written to {out_path} (thread-invariant fields only)");
}
