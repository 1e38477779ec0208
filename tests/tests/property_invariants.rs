//! Property-based invariants for the bit-level substrate the parallel
//! kernels rest on: if these hold, chunking a computation can only
//! reorder work, never change results.

use dual_cluster::CondensedMatrix;
use dual_hdc::{random_hypervector, BitVec, Hypervector};
use proptest::prelude::*;

/// The storage invariant everything relies on: bits past `len` in the
/// last `u64` word must be zero, otherwise `count_ones`/`hamming`
/// (word-level popcounts) overcount.
fn tail_is_masked(v: &BitVec) {
    let len = v.len();
    if len.is_multiple_of(64) {
        return;
    }
    let last = *v.as_words().last().expect("non-word-aligned => non-empty");
    let tail = last >> (len % 64);
    assert_eq!(tail, 0, "tail bits past len={len} must stay zero");
}

fn bitvec_strategy(max_len: usize) -> impl Strategy<Value = BitVec> {
    (0usize..max_len, proptest::arbitrary::any::<u64>())
        .prop_map(|(len, seed)| random_hypervector(len, seed).into_bitvec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_hamming_is_symmetric_and_zero_on_self(
        len in 0usize..300, sa in proptest::arbitrary::any::<u64>(), sb in proptest::arbitrary::any::<u64>(),
    ) {
        let a = random_hypervector(len, sa).into_bitvec();
        let b = random_hypervector(len, sb).into_bitvec();
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn prop_hamming_triangle_inequality(
        len in 0usize..300,
        sa in proptest::arbitrary::any::<u64>(),
        sb in proptest::arbitrary::any::<u64>(),
        sc in proptest::arbitrary::any::<u64>(),
    ) {
        let a = random_hypervector(len, sa).into_bitvec();
        let b = random_hypervector(len, sb).into_bitvec();
        let c = random_hypervector(len, sc).into_bitvec();
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    #[test]
    fn prop_tail_stays_masked_through_mutation(
        len in 1usize..300,
        sa in proptest::arbitrary::any::<u64>(),
        sb in proptest::arbitrary::any::<u64>(),
    ) {
        // ones() must mask.
        let mut v = BitVec::ones(len);
        tail_is_masked(&v);
        prop_assert_eq!(v.count_ones(), len);
        // from_bits must mask.
        let built = random_hypervector(len, sa).into_bitvec();
        let rebuilt = BitVec::from_bits(built.iter());
        tail_is_masked(&rebuilt);
        prop_assert_eq!(&rebuilt, &built);
        // xor_assign and not_assign must preserve the mask.
        v.xor_assign(&random_hypervector(len, sb).into_bitvec());
        tail_is_masked(&v);
        v.not_assign();
        tail_is_masked(&v);
        prop_assert!(v.count_ones() <= len);
    }

    #[test]
    fn prop_condensed_get_set_roundtrip(
        n in 2usize..40,
        pairs in proptest::collection::vec(
            (proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<u64>(), -1e6f64..1e6),
            1..32,
        ),
    ) {
        let mut m = CondensedMatrix::zeros(n);
        let mut last: Vec<((usize, usize), f64)> = Vec::new();
        for (ri, rj, v) in pairs {
            let i = (ri % n as u64) as usize;
            let mut j = (rj % n as u64) as usize;
            if i == j {
                j = (j + 1) % n;
            }
            m.set(i, j, v);
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            last.retain(|&(p, _)| p != (lo, hi));
            last.push(((lo, hi), v));
        }
        // Every written pair reads back its last value, from both index
        // orders, bit-exactly.
        for ((i, j), v) in last {
            prop_assert_eq!(m.get(i, j).to_bits(), v.to_bits());
            prop_assert_eq!(m.get(j, i).to_bits(), v.to_bits());
        }
        // The diagonal stays implicit and zero.
        for d in 0..n {
            prop_assert_eq!(m.get(d, d), 0.0);
        }
    }

    #[test]
    fn prop_undecayed_stream_batch_is_one_lloyd_step(
        n in 1usize..40,
        k in 1usize..5,
        seed in proptest::arbitrary::any::<u64>(),
        threads in 0usize..5,
    ) {
        // The streaming update with decay = 1.0, one sub-centroid per
        // cluster, and pre-seeded centers must compute exactly one
        // batch Lloyd step: same labels, same majority votes, and
        // untouched centers exactly where the batch step votes None.
        let points: Vec<Hypervector> = (0..n)
            .map(|i| random_hypervector(96, seed.wrapping_add(i as u64)))
            .collect();
        let centers: Vec<Hypervector> = (0..k)
            .map(|i| random_hypervector(96, seed.wrapping_mul(7).wrapping_add(i as u64)))
            .collect();
        let (labels, votes) = dual_cluster::hamming_lloyd_step(&points, &centers, 1);

        let mut model = dual_stream::OnlineKMeans::new(96, k, 1, 1.0, 1);
        model.seed(&centers).unwrap();
        let update = model.observe_batch(&points, threads);
        let stream_labels: Vec<usize> =
            update.assignments.iter().map(|&(slot, _)| slot).collect();
        prop_assert_eq!(stream_labels, labels);
        for (slot, vote) in votes.iter().enumerate() {
            let want = vote.as_ref().unwrap_or(&centers[slot]);
            prop_assert_eq!(&model.centroids()[slot], want, "slot {}", slot);
        }
    }
}

#[test]
fn bitvec_strategy_exercises_lengths() {
    // Sanity: the helper strategy compiles and produces masked vectors.
    use proptest::strategy::Strategy as _;
    let mut rng = proptest::test_runner::TestRng::for_case("bitvec_strategy", 0);
    for _ in 0..16 {
        let v = bitvec_strategy(200).generate(&mut rng);
        tail_is_masked(&v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// dual-obs histogram invariants (DESIGN.md §7): bucket counts are
    /// a partition of the observations — they sum to `count`, the
    /// cumulative form is monotone and ends at `count` — and every
    /// value lands in the unique power-of-two bucket whose bound
    /// brackets it.
    #[test]
    fn prop_obs_histogram_buckets_partition_the_observations(
        values in proptest::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let reg = dual_obs::Registry::new();
        for &v in &values {
            reg.observe(dual_obs::Key::StreamBatchPoints, v);
        }
        let h = reg.histogram(dual_obs::Key::StreamBatchPoints);
        prop_assert_eq!(h.count, values.len() as u64);
        prop_assert_eq!(h.sum, values.iter().sum::<u64>());
        // Raw buckets partition the total.
        prop_assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        // Cumulative form is monotone non-decreasing and exhaustive.
        let cum = h.cumulative();
        for w in cum.windows(2) {
            prop_assert!(w[1] >= w[0], "cumulative must be monotone: {:?}", cum);
        }
        prop_assert_eq!(cum[cum.len() - 1], h.count);
        // Each value falls inside its bucket's half-open range.
        for &v in &values {
            let i = dual_obs::bucket_index(v);
            prop_assert!(i <= dual_obs::HIST_BUCKETS);
            if i < dual_obs::HIST_BUCKETS {
                prop_assert!(v <= dual_obs::bucket_bound(i), "v={} bound={}", v, dual_obs::bucket_bound(i));
            }
            if i > 0 && i < dual_obs::HIST_BUCKETS {
                prop_assert!(v > dual_obs::bucket_bound(i - 1));
            }
        }
    }

    /// Sharded counters are order- and thread-insensitive: any
    /// interleaving of the same multiset of `add`s yields the same
    /// total, and the JSON export is a pure function of that total.
    #[test]
    fn prop_obs_counter_total_is_permutation_invariant(
        adds in proptest::collection::vec(0u64..1_000, 0..100),
    ) {
        let forward = dual_obs::Registry::new();
        for &a in &adds {
            forward.add(dual_obs::Key::HdcEncoded, a);
        }
        let backward = dual_obs::Registry::new();
        for &a in adds.iter().rev() {
            backward.add(dual_obs::Key::HdcEncoded, a);
        }
        let total: u64 = adds.iter().sum();
        prop_assert_eq!(forward.counter(dual_obs::Key::HdcEncoded), total);
        prop_assert_eq!(
            forward.stable_snapshot().to_json(),
            backward.stable_snapshot().to_json()
        );
    }
}

// ------------------------------------------------------------------
// dual-isa-verify: static verification invariants (DESIGN.md §10).

/// Interpret a byte stream as a random — but *valid* — PIM program: a
/// tiny op-code machine over a live [`dual_isa::Runtime`]. Ops whose
/// preconditions don't hold at that point in the stream are skipped,
/// so every generated program executes successfully end to end.
fn random_valid_program(ops: &[u8]) -> dual_isa::Runtime {
    use dual_isa::Runtime;
    let mut rt = Runtime::with_pool(64, 128, 24).expect("valid geometry");
    let mut allocs = Vec::new();
    for c in ops.chunks_exact(4) {
        let (op, x, y, z) = (c[0] % 8, c[1] as usize, c[2] as usize, c[3] as u64);
        match op {
            0 => {
                // Fresh VLCA: 2..=12 bits, 1..=16 elements.
                let bits = 2 + x % 11;
                let len = 1 + y % 16;
                if let Ok(v) = rt.alloc(bits, len) {
                    allocs.push(v);
                }
            }
            1 if !allocs.is_empty() => {
                // Row-parallel write of in-range values.
                let v = &allocs[x % allocs.len()];
                let mask = if v.bits() >= 64 {
                    u64::MAX
                } else {
                    (1 << v.bits()) - 1
                };
                let vals: Vec<u64> = (0..v.len())
                    .map(|i| (z.wrapping_add(i as u64)) & mask)
                    .collect();
                rt.write_values(v, &vals).expect("shape matches");
            }
            2 if allocs.len() >= 2 => {
                // Arithmetic over two same-length VLCAs into a fresh out.
                let a = allocs[x % allocs.len()].clone();
                let b = allocs[y % allocs.len()].clone();
                if a.len() == b.len() {
                    let obits = (a.bits().max(b.bits()) + 1 + (z as usize) % 4).min(24);
                    if let Ok(out) = rt.alloc(obits, a.len()) {
                        let r = match z % 4 {
                            0 => rt.add(&a, &b, &out),
                            1 => rt.sub(&a, &b, &out),
                            2 => rt.mul(&a, &b, &out),
                            _ => rt.div(&a, &b, &out),
                        };
                        // Width/shape misfits (e.g. mul overflow) are
                        // legal to refuse; refused ops emit nothing.
                        let _ = r;
                        allocs.push(out);
                    }
                }
            }
            3 if !allocs.is_empty() => {
                // Hamming distance against a derived query pattern.
                let v = allocs[x % allocs.len()].clone();
                let query: Vec<bool> = (0..v.bits()).map(|i| (z >> (i % 64)) & 1 == 1).collect();
                if let Ok(d) = rt.hamming(&query, &v) {
                    allocs.push(d);
                }
            }
            4 if !allocs.is_empty() => {
                // Nearest search for an in-range target.
                let v = allocs[x % allocs.len()].clone();
                let mask = if v.bits() >= 64 {
                    u64::MAX
                } else {
                    (1 << v.bits()) - 1
                };
                let _ = rt.near_search(&v, z & mask);
            }
            5 if !allocs.is_empty() => {
                // Exact search (may legitimately find nothing).
                let v = allocs[x % allocs.len()].clone();
                let mask = if v.bits() >= 64 {
                    u64::MAX
                } else {
                    (1 << v.bits()) - 1
                };
                let _ = rt.exact_search(&v, z & mask);
            }
            6 if !allocs.is_empty() => {
                // Broadcast an in-range constant.
                let v = allocs[x % allocs.len()].clone();
                let mask = if v.bits() >= 64 {
                    u64::MAX
                } else {
                    (1 << v.bits()) - 1
                };
                rt.broadcast(&v, z & mask).expect("width fits");
            }
            7 if allocs.len() >= 2 => {
                // Block-to-block move between same-shape VLCAs.
                let a = allocs[x % allocs.len()].clone();
                let b = allocs[y % allocs.len()].clone();
                if a.bits() == b.bits() && a.len() == b.len() && a != b {
                    rt.row_mv(&a, &b).expect("shapes match");
                }
            }
            _ => {}
        }
    }
    rt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Soundness of the runtime/verifier pair: EVERY trace a
    /// successfully-executed random program leaves behind passes static
    /// verification — geometry, query dataflow, hazards, and the exact
    /// cost cross-check against the executed stats.
    #[test]
    fn prop_verify_random_valid_programs_are_clean(
        ops in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..160),
    ) {
        use dual_isa::verify::RuntimeVerify;
        let rt = random_valid_program(&ops);
        let report = rt.verify_trace();
        prop_assert!(
            report.is_clean(),
            "clean program rejected: {:?}",
            report.errors().collect::<Vec<_>>()
        );
        prop_assert_eq!(report.instructions, rt.trace().len());
    }

    /// Completeness against single-operand corruption: flipping one
    /// field of one instruction out of its legal range is caught, with
    /// the *expected* typed diagnostic class.
    #[test]
    fn prop_verify_rejects_single_operand_mutations(
        ops in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 64..160),
        pick in proptest::arbitrary::any::<u64>(),
        kind in 0u8..5,
    ) {
        use dual_isa::Instruction;
        use dual_isa::verify::{Geometry, Verifier};
        let rt = random_valid_program(&ops);
        let geom = Geometry::of_runtime(&rt);
        let mut trace = rt.trace().to_vec();
        // Candidate instructions this mutation kind applies to.
        let applies = |i: &Instruction| match kind {
            0 | 1 => !matches!(i, Instruction::Hamm7 { .. }), // block/width fields
            2 => matches!(i, Instruction::Hamm7 { .. }),
            3 => matches!(i, Instruction::SetQInput { .. }),
            _ => matches!(i, Instruction::Arith { .. }),
        };
        let idxs: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, i)| applies(i))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!idxs.is_empty());
        let at = idxs[(pick as usize) % idxs.len()];
        let expected = match (kind, &mut trace[at]) {
            (0, Instruction::SetQInput { b, .. })
            | (0, Instruction::NearSearch { b, .. })
            | (0, Instruction::ExactSearch { b, .. })
            | (0, Instruction::Write { b, .. })
            | (0, Instruction::Select { bd: b, .. })
            | (0, Instruction::RowMv { b1: b, .. })
            | (0, Instruction::Arith { d: b, .. }) => {
                *b = geom.blocks + 1;
                "block-out-of-range"
            }
            (1, Instruction::SetQInput { size: w, .. })
            | (1, Instruction::NearSearch { nc: w, .. })
            | (1, Instruction::ExactSearch { nc: w, .. })
            | (1, Instruction::Write { bits: w, .. })
            | (1, Instruction::Select { bits: w, .. })
            | (1, Instruction::RowMv { nc: w, .. })
            | (1, Instruction::Arith { bits: w, .. }) => {
                *w = 0;
                "zero-width"
            }
            (2, Instruction::Hamm7 { c1, c2, .. }) => {
                *c2 = *c1 + 9;
                "window-too-wide"
            }
            (3, Instruction::SetQInput { size, .. }) => {
                *size = 0;
                "zero-width"
            }
            (_, Instruction::Arith { b2, c2, d, dc, dbits, .. }) => {
                *b2 = *d;
                *c2 = *dc + 1;
                prop_assume!(*dbits > 1); // 1-bit spans cannot partially overlap
                "operand-overlaps-destination"
            }
            _ => {
                prop_assume!(false);
                unreachable!()
            }
        };
        let report = Verifier::new(geom).check(&trace);
        let classes: Vec<&str> = report.errors().map(|d| d.error.class()).collect();
        prop_assert!(
            classes.contains(&expected),
            "mutation kind {} at {} ({:?}) not rejected as {}: got {:?}",
            kind, at, trace[at], expected, classes
        );
    }
}
