//! Crash/recovery contract of the `dual-snap` write-ahead snapshot
//! path, as properties: for *any* kill tick, workload size (including
//! the ring-capacity straddle {0, 1, 63, 64, 65}), and thread count,
//! snapshot → restore → replay must reproduce the uninterrupted run
//! bit-for-bit, flight recorder and alert latches included; corrupted
//! blobs — truncated anywhere or with any single bit flipped — must
//! fail closed with a typed error, never panic and never restore
//! garbage; and a real blob whose payload is overwritten under a valid
//! checksum must restore or fail typed, never panic.

use proptest::prelude::*;

use dual_data::DriftSpec;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_hdc::HdMapper;
use dual_obs::Key;
use dual_pim::CostModel;
use dual_snap::fnv1a64;
use dual_stream::{FaultConfig, StreamConfig, StreamEngine, StreamError};
use dual_trace::{AlertRule, AlertRuleState, RecorderState, Signal};

const FEATURES: usize = 4;
const DIM: usize = 128;
/// Points between consecutive engine ticks.
const TICK_EVERY: usize = 8;
/// Periodic write-ahead capture interval, in ticks.
const SNAPSHOT_EVERY: u64 = 2;
/// Workload sizes straddling the 64-point ring capacity (the last
/// entry is a sentinel replaced by a random larger size per case).
const SIZES: [usize; 6] = [0, 1, 63, 64, 65, usize::MAX];
const THREADS: [usize; 3] = [0, 2, 8];
/// Flight-recorder ring depth: the larger workloads wrap it.
const TRACE_CAPACITY: usize = 48;
/// Hypervector width of the corruption corpus's engine.
const CORPUS_DIM: usize = 64;

fn encoder() -> HdMapper {
    HdMapper::builder(DIM, FEATURES)
        .seed(11)
        .sigma(4.0)
        .build()
        .unwrap()
}

fn config(threads: usize) -> StreamConfig {
    let mut cfg = StreamConfig::new(3);
    cfg.capacity = 64;
    cfg.max_batch = 16;
    cfg.max_ticks = 4;
    cfg.decay = 0.9;
    cfg.shards = 2;
    cfg.threads = threads;
    cfg.snapshot_every = SNAPSHOT_EVERY;
    cfg.trace_capacity = TRACE_CAPACITY;
    cfg
}

/// A hysteresis band on ring occupancy and a rising-edge rule on
/// quarantine trips: the rules `recovery_harness` arms.
fn alert_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "ring-backlog".to_owned(),
            signal: Signal::Gauge(Key::StreamRingOccupancy),
            threshold: 4.0,
            clear: 0.0,
        },
        AlertRule::edge(
            "quarantine-spike",
            Signal::Delta(Key::FaultQuarantined),
            1.0,
        ),
    ]
}

/// A fresh engine with the alert rules armed.
fn armed(threads: usize) -> StreamEngine<HdMapper> {
    StreamEngine::new(encoder(), config(threads))
        .unwrap()
        .with_alerts(alert_rules())
        .unwrap()
}

fn stream_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    DriftSpec::new(FEATURES, 3)
        .stream(seed)
        .take(n)
        .map(|(p, _)| p)
        .collect()
}

/// Feed points `[from, to)`, ticking after every `TICK_EVERY`-th point
/// of the overall stream.
fn feed(engine: &mut StreamEngine<HdMapper>, points: &[Vec<f64>], from: usize, to: usize) {
    for (i, point) in points.iter().enumerate().take(to).skip(from) {
        engine.push(point).unwrap();
        if (i + 1) % TICK_EVERY == 0 {
            engine.tick().unwrap();
        }
    }
}

/// Everything the replay-equivalence property compares.
struct Observed {
    stable_json: String,
    snapshot: dual_stream::StreamSnapshot,
    wear: Vec<u64>,
    trace: RecorderState,
    alerts: Vec<AlertRuleState>,
    /// Volatile restore notes: one after a restore, none otherwise.
    restore_notes: usize,
}

fn observe(engine: &mut StreamEngine<HdMapper>) -> Observed {
    engine.drain().unwrap();
    Observed {
        stable_json: engine.obs_registry().stable_snapshot().to_json(),
        snapshot: engine.snapshot(),
        wear: engine.wear().writes().to_vec(),
        trace: engine.trace().state(),
        alerts: engine.alerts().states().to_vec(),
        restore_notes: engine.trace().notes().count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill at any tick of any workload under any thread count:
    /// restore + replay equals the uninterrupted run.
    #[test]
    fn replay_from_any_kill_tick_matches_uninterrupted(
        size_idx in 0usize..SIZES.len(),
        extra in 0usize..192,
        thread_idx in 0usize..THREADS.len(),
        kill_sel in proptest::arbitrary::any::<u64>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        // The pinned boundary sizes, plus a random larger workload.
        let size_sel = if size_idx == SIZES.len() - 1 { 66 + extra } else { SIZES[size_idx] };
        let threads = THREADS[thread_idx];
        let points = stream_points(size_sel, seed);
        let total_ticks = (size_sel / TICK_EVERY) as u64;
        let kill_tick = if total_ticks == 0 { 0 } else { kill_sel % (total_ticks + 1) };

        let mut gold = armed(threads);
        feed(&mut gold, &points, 0, points.len());
        let mut want = observe(&mut gold);

        // Victim: killed right after tick `kill_tick`; only its last
        // periodic write-ahead blob survives.
        let mut victim = armed(threads);
        feed(&mut victim, &points, 0, kill_tick as usize * TICK_EVERY);
        let wal = victim.wal().map(<[u8]>::to_vec);
        drop(victim);

        let (mut recovered, resume_tick) = match &wal {
            Some(blob) => {
                let restored = StreamEngine::restore(encoder(), blob).unwrap();
                let tick = restored.now();
                // The last capture before the kill: a multiple of the interval.
                prop_assert_eq!(tick, kill_tick / SNAPSHOT_EVERY * SNAPSHOT_EVERY);
                (restored, tick)
            }
            // Crash before the first capture: cold restart, full replay.
            None => (armed(threads), 0),
        };
        prop_assert!(resume_tick <= kill_tick);
        feed(&mut recovered, &points, resume_tick as usize * TICK_EVERY, points.len());
        let got = observe(&mut recovered);

        // The one thing a recovery adds: its volatile restore note.
        want.restore_notes = usize::from(wal.is_some());
        prop_assert_eq!(&got.stable_json, &want.stable_json, "stable obs JSON must be byte-identical");
        prop_assert_eq!(&got.snapshot, &want.snapshot, "engine snapshot must be bit-identical");
        prop_assert_eq!(&got.wear, &want.wear, "wear counts must be identical");
        prop_assert_eq!(&got.trace, &want.trace, "flight-recorder ring must be identical");
        prop_assert_eq!(&got.alerts, &want.alerts, "alert latches must be identical");
        prop_assert_eq!(got.restore_notes, want.restore_notes, "one restore note per restore");
    }

    /// Any single bit flipped anywhere in a blob fails closed with a
    /// typed snapshot error — never a panic, never a silent restore.
    #[test]
    fn single_bit_flips_fail_closed(byte_sel in proptest::arbitrary::any::<u64>(), bit in 0u8..8) {
        let mut engine = StreamEngine::new(encoder(), config(0)).unwrap();
        let points = stream_points(96, 7);
        feed(&mut engine, &points, 0, points.len());
        let mut blob = engine.checkpoint();
        let idx = usize::try_from(byte_sel).unwrap_or(usize::MAX) % blob.len();
        blob[idx] ^= 1 << bit;
        let outcome = StreamEngine::restore(encoder(), &blob);
        prop_assert!(
            matches!(outcome, Err(StreamError::Snapshot(_))),
            "flip at byte {} bit {} must fail closed, got {:?}",
            idx,
            bit,
            outcome.map(|_| "a restored engine")
        );
    }

    /// Truncation at any length fails closed with a typed error.
    #[test]
    fn truncations_fail_closed(cut_sel in proptest::arbitrary::any::<u64>()) {
        let mut engine = StreamEngine::new(encoder(), config(0)).unwrap();
        let points = stream_points(96, 7);
        feed(&mut engine, &points, 0, points.len());
        let blob = engine.checkpoint();
        let cut = usize::try_from(cut_sel).unwrap_or(usize::MAX) % blob.len();
        let outcome = StreamEngine::restore(encoder(), &blob[..cut]);
        prop_assert!(
            matches!(outcome, Err(StreamError::Snapshot(_))),
            "truncation to {} bytes must fail closed, got {:?}",
            cut,
            outcome.map(|_| "a restored engine")
        );
    }
}

/// The canonical truncation edges (empty, magic-only, header-only,
/// one-byte-short) deterministically, so a regression names the exact
/// framing layer that leaked.
#[test]
fn framing_edge_truncations_fail_closed() {
    let mut engine = StreamEngine::new(encoder(), config(0)).unwrap();
    let points = stream_points(64, 3);
    feed(&mut engine, &points, 0, points.len());
    let blob = engine.checkpoint();
    for cut in [0, 1, 4, 8, 15, 16, blob.len() - 1] {
        assert!(
            matches!(
                StreamEngine::restore(encoder(), &blob[..cut]),
                Err(StreamError::Snapshot(_))
            ),
            "truncation to {cut} bytes must fail closed"
        );
    }
}

/// A future format version is refused up front, not misparsed.
#[test]
fn future_version_is_refused() {
    let mut engine = StreamEngine::new(encoder(), config(0)).unwrap();
    let points = stream_points(64, 3);
    feed(&mut engine, &points, 0, points.len());
    let mut blob = engine.checkpoint();
    blob[4] = 0xFF; // version u32 LE lives right after the 4-byte magic
    assert!(matches!(
        StreamEngine::restore(encoder(), &blob),
        Err(StreamError::Snapshot(
            dual_snap::SnapError::UnsupportedVersion { .. }
        ))
    ));
}

/// The corpus engine's fault plan: two slots plus two spares, dense
/// enough that the captured run has injected and healed faults.
fn corpus_fault() -> FaultConfig {
    let mut spec = FaultPlanSpec::clean(4, CORPUS_DIM);
    spec.seed = 0xC0_22;
    spec.stuck_rate = 0.02;
    spec.dead_row_rate = 0.02;
    spec.flip_rate = 0.01;
    FaultConfig::new(FaultPlan::new(spec).unwrap()).with_policy(HealingPolicy::Full {
        spares: 2,
        reads: 3,
    })
}

/// Structure-aware corruption of a real WAL: every payload byte of a
/// faulted, traced, alert-armed engine's blob overwritten with 0x00,
/// 0x01, 0x02 and 0xFF, then every 8-byte payload window with 0, 1,
/// 2^40 and `u64::MAX`, the FNV-1a checksum re-stamped each time so the
/// restore's own validation meets the damage. Each case must restore
/// or fail with a typed error, and every restored engine then takes 8
/// points, ticks and drains, each step `Ok` or a typed error; a panic
/// (or an aborted allocation) fails the test. The engine is kept small
/// (two slots of 64 bits, a 6-event recorder ring) so the blob, not the
/// case list, stays short.
#[test]
fn checksum_valid_corruption_of_a_real_wal_restores_or_fails_typed() {
    const HEADER_LEN: usize = 16;
    const CHECKSUM_LEN: usize = 8;
    let encoder = HdMapper::builder(CORPUS_DIM, 2)
        .seed(3)
        .sigma(4.0)
        .build()
        .unwrap();
    let mut cfg = StreamConfig::new(2);
    cfg.capacity = 16;
    cfg.max_batch = 8;
    cfg.max_ticks = 2;
    cfg.shards = 2;
    cfg.snapshot_every = SNAPSHOT_EVERY;
    cfg.trace_capacity = 6;
    let mut engine = StreamEngine::new(encoder.clone(), cfg)
        .unwrap()
        .with_fault_injection(corpus_fault())
        .unwrap()
        .with_alerts(alert_rules())
        .unwrap();
    let points: Vec<Vec<f64>> = DriftSpec::new(2, 2)
        .stream(5)
        .take(44)
        .map(|(p, _)| p)
        .collect();
    feed(&mut engine, &points, 0, points.len());
    let wal = engine.wal().expect("periodic capture fired").to_vec();
    assert!(engine.trace().evicted() > 0, "the ring wraps");
    assert!(
        engine.fault_status().is_some_and(|s| s.injected > 0),
        "faults are injected"
    );

    let body_end = wal.len() - CHECKSUM_LEN;
    let mut bad = wal.clone();
    let mut restored = 0usize;
    let mut check = |bad: &mut Vec<u8>| {
        let sum = fnv1a64(&bad[..body_end]);
        bad[body_end..].copy_from_slice(&sum.to_le_bytes());
        let outcome = StreamEngine::restore_with(
            encoder.clone(),
            bad,
            CostModel::paper(),
            Some(corpus_fault()),
        );
        // A restored engine must also run: each step returns `Ok` or a
        // typed error, and none panics or aborts.
        if let Ok(mut engine) = outcome {
            restored += 1;
            for p in &points[..8] {
                let _: Result<_, StreamError> = engine.push(p);
            }
            let _: Result<_, StreamError> = engine.tick();
            let _: Result<_, StreamError> = engine.drain();
        }
        bad.copy_from_slice(&wal);
    };
    for i in HEADER_LEN..body_end {
        for v in [0x00, 0x01, 0x02, 0xFF] {
            bad[i] = v;
            check(&mut bad);
        }
    }
    for i in HEADER_LEN..=body_end - 8 {
        for v in [0, 1, 1u64 << 40, u64::MAX] {
            bad[i..i + 8].copy_from_slice(&v.to_le_bytes());
            check(&mut bad);
        }
    }
    assert!(restored > 0, "some overwrites are benign and must restore");
}
