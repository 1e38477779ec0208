//! End-to-end properties of the pipeline compiler: every `Program`
//! the compiler emits must pass the static dataflow verifier with
//! zero diagnostics, and executing it through the literal bytecode VM
//! must be bit-identical to the production sharded kernel
//! (`search::assign_sharded`) and a flat scan. The mutation corpus closes the
//! loop from the other side: seeded allocator bugs must be *rejected*
//! with the exact diagnostic class the corpus predicts.

use dual_compile::{Compiler, Mutation, PipelineShape, COLS};
use dual_hdc::ops::random_hypervector;
use dual_hdc::{search, Hypervector};
use dual_isa_verify::{Geometry, Verifier};
use proptest::prelude::*;

/// The oracle both execution paths are measured against: a flat
/// strict-less argmin over word-level Hamming distances, ties going
/// to the lowest centroid index.
fn flat_nearest(queries: &[Hypervector], centroids: &[Hypervector]) -> Vec<(usize, usize)> {
    queries
        .iter()
        .map(|q| {
            let mut best = (0usize, usize::MAX);
            for (i, c) in centroids.iter().enumerate() {
                let d = q.hamming(c);
                if d < best.1 {
                    best = (i, d);
                }
            }
            (best.0, best.1)
        })
        .collect()
}

fn points(dim: usize, n: usize, seed: u64) -> Vec<Hypervector> {
    (0..n)
        .map(|i| random_hypervector(dim, seed.wrapping_add(i as u64)))
        .collect()
}

/// Shapes small enough to verify and execute in a proptest case, but
/// spanning the interesting boundaries: dims that straddle the
/// 1024-column chunk edge, shard counts above the slot count, and
/// batches shorter than the program was compiled for.
fn shape_strategy() -> impl Strategy<Value = PipelineShape> {
    (
        1usize..2200,
        1usize..=8,
        1usize..=12,
        1usize..=16,
        1usize..=8,
    )
        .prop_map(|(dim, n_features, slots, shards, batch)| PipelineShape {
            dim,
            n_features,
            slots,
            shards,
            batch,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Verify-at-build is not just a gate inside `compile` — re-running
    /// the verifier on the emitted stream must find nothing, and the
    /// `set_qinput` hoist must hold (exactly one load per point).
    #[test]
    fn prop_compiled_program_verifies_clean(shape in shape_strategy()) {
        let pipeline = Compiler::compile(shape).expect("in-envelope shape must compile");
        let program = pipeline.program();
        let geometry = Geometry::new(shape.blocks(), shape.slots, COLS);
        let report = Verifier::new(geometry).check(program.instructions());
        prop_assert!(
            report.diagnostics.is_empty(),
            "compiled program re-verification found {} diagnostics",
            report.diagnostics.len()
        );
        prop_assert_eq!(program.count_of("set_qinput"), shape.batch);
        prop_assert_eq!(program.count_of("near_search"), shape.batch);
    }

    /// The sharded kernel (across thread counts) and the literal VM
    /// both reproduce the flat scan bit-for-bit.
    #[test]
    fn prop_compiled_execution_matches_interpreted(
        shape in shape_strategy(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let pipeline = Compiler::compile(shape).expect("in-envelope shape must compile");
        let queries = points(shape.dim, shape.batch, seed);
        let centroids = points(shape.dim, shape.slots, seed ^ 0x9E37_79B9_7F4A_7C15);
        let expected = flat_nearest(&queries, &centroids);
        for threads in [1usize, 3] {
            let got = search::assign_sharded(&queries, &centroids, shape.shards, threads);
            prop_assert_eq!(&got, &expected, "kernel diverged at threads={}", threads);
        }
        let via_vm = pipeline
            .vm()
            .assign(&queries, &centroids)
            .expect("compiled program must execute on its own batch");
        prop_assert_eq!(&via_vm, &expected, "literal VM diverged");
    }

    /// Every corpus corruption is caught, and caught for the right
    /// reason: the report must contain the predicted diagnostic class.
    #[test]
    fn prop_mutation_corpus_is_rejected_with_expected_class(shape in shape_strategy()) {
        let geometry = Geometry::new(shape.blocks(), shape.slots, COLS);
        for mutation in Mutation::ALL {
            let corrupted = Compiler::compile_corrupted(shape, mutation)
                .expect("build phase must succeed before corruption");
            let report = Verifier::new(geometry).check(corrupted.instructions());
            prop_assert!(
                !report.diagnostics.is_empty(),
                "{} corruption escaped the verifier",
                mutation.name()
            );
            prop_assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.error.class() == mutation.expected_class()),
                "{} rejected, but without class `{}`",
                mutation.name(),
                mutation.expected_class()
            );
        }
    }
}
