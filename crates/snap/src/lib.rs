//! # dual-snap — durable write-ahead snapshots of the streaming engine
//!
//! A hand-serialized, byte-stable, versioned snapshot format for the
//! full `dual_stream::StreamEngine` state: multi-centroid slots and
//! their decayed accumulators, ring/batcher tick cursors, quarantine
//! machine states and backoff clocks, spare-row remaps, the energy
//! ledger, the obs registry, and endurance write counts.
//!
//! The crate is a **leaf**: plain-data state structs plus a byte codec,
//! no dependency on the live engine types. Each struct is declared
//! through one crate-private macro that derives both its encoder and
//! its decoder from the field list, so the payload's field order is the
//! declaration order and the two directions agree by construction.
//! `dual-stream` implements `StreamEngine::checkpoint()` /
//! `StreamEngine::restore(…)` on top of it; the replay contract (restore + re-feed ticks `[snapshot.tick,
//! now)` reproduces the uninterrupted run bit-for-bit) is proven by
//! `tests/tests/recovery.rs` and the `recovery_harness` CI gate.
//!
//! ## Wire format (version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic        b"DSNP"
//! 4       4     version      u32 LE
//! 8       8     payload_len  u64 LE
//! 16      n     payload      EngineSnapshot fields, fixed order, LE
//! 16+n    8     checksum     FNV-1a 64 over bytes [0, 16+n)
//! ```
//!
//! Scalars are little-endian; `f64`s travel as `to_bits()` words;
//! sequences are `u64` count-prefixed. Decoding **fails closed**: bad
//! magic, future versions, truncation, checksum mismatches, and
//! trailing bytes all yield a typed [`SnapError`] — never a panic and
//! never partially-restored state.
//!
//! ## Versioning rules
//!
//! * The header layout (magic/version/length) is frozen forever.
//! * Any payload change — field added, removed, reordered, or
//!   re-encoded — bumps the format version.
//! * A decoder accepts exactly the versions it knows how to parse and
//!   rejects newer ones with [`SnapError::UnsupportedVersion`].
//! * Byte stability within a version is pinned by a golden file
//!   (`results/snap_golden_v2.bin`; tenant checkpoints:
//!   `results/tenant_golden_v1.bin`).
//!
//! Version 2 appends the flight-recorder [`TraceState`] (ring
//! capacity/counters, retained events, open-span stack, alert rules)
//! to the payload and adds `trace_capacity` to [`ConfigState`].

#![forbid(unsafe_code)]
// Corrupt snapshots must surface as typed errors, not aborts:
// the panic lints are denied outright in lib code (tests are exempt via
// .clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

mod codec;
mod error;
mod state;
mod tenant;

pub use codec::fnv1a64;
pub use error::SnapError;
pub use state::{
    AlertRuleWire, BatchCostState, ConfigState, EngineSnapshot, FaultFingerprint, FaultState,
    HistState, MeterState, ModelState, ObsState, OpCount, ShardState, TraceEventState, TraceState,
};
pub use tenant::TenantCheckpoint;

/// Leading magic of every engine snapshot blob.
const MAGIC: [u8; 4] = *b"DSNP";

/// Newest format version this build encodes and decodes.
const VERSION: u32 = 2;

impl EngineSnapshot {
    /// Serialize to the framed wire format. Deterministic: equal
    /// snapshots encode to identical bytes, on every platform.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        codec::encode_framed(self, MAGIC, VERSION, Vec::new())
    }

    /// [`EngineSnapshot::encode`] into a caller-owned buffer: `out` is
    /// cleared and left holding exactly the framed blob, reusing its
    /// allocation — the periodic write-ahead capture encodes a blob of
    /// nearly the same size every tick. The frame is built in place
    /// (header with a zero length, payload, length patched, checksum),
    /// so no second copy of the payload ever exists.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        *out = codec::encode_framed(self, MAGIC, VERSION, std::mem::take(out));
    }

    /// Length of the blob [`EngineSnapshot::encode`] would write,
    /// computed from the field list without encoding or checksumming
    /// anything — the write-ahead capture learns its own `snap.bytes`
    /// from it before its one encode.
    #[must_use]
    pub fn framed_len(&self) -> usize {
        codec::framed_len(self)
    }

    /// Parse a framed snapshot blob, failing closed on any corruption.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the buffer ends early,
    /// [`SnapError::BadMagic`] when it is not a snapshot,
    /// [`SnapError::UnsupportedVersion`] for formats newer than this
    /// build's, and [`SnapError::Corrupt`] for checksum failures,
    /// trailing bytes, or inconsistent payload structure.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapError> {
        codec::decode_framed(bytes, MAGIC, VERSION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fixed synthetic snapshot exercising every field, including
    /// the optional fault branch. Used by the round-trip and golden
    /// tests; must never change (the golden file pins its bytes).
    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            config: ConfigState {
                dim: 128,
                n_features: 4,
                capacity: 64,
                policy: 1,
                max_batch: 16,
                max_ticks: 4,
                k: 3,
                centroids_per_cluster: 2,
                decay_bits: 0.9f64.to_bits(),
                shards: 2,
                threads: 0,
                snapshot_every: 8,
                trace_capacity: 4,
            },
            now: 41,
            last_cut: 40,
            pending: vec![
                vec![1.5f64.to_bits(), (-2.0f64).to_bits()],
                vec![0.0f64.to_bits(), 3.25f64.to_bits()],
            ],
            model: ModelState {
                batches_observed: 9,
                centroids: vec![vec![0xDEAD_BEEF, 0x1234], vec![0, u64::MAX]],
                acc_counts: vec![
                    vec![1.0f64.to_bits(), 2.0f64.to_bits()],
                    vec![0.5f64.to_bits(), 0.25f64.to_bits()],
                ],
                acc_weights: vec![3.0f64.to_bits(), 1.75f64.to_bits()],
            },
            meter: MeterState {
                time_ns_bits: 123.456f64.to_bits(),
                energy_pj_bits: 789.25f64.to_bits(),
                ops: vec![
                    OpCount {
                        tag: 0,
                        bits: 0,
                        count: 10,
                    },
                    OpCount {
                        tag: 2,
                        bits: 16,
                        count: 7,
                    },
                ],
                batches: 9,
                points: 144,
                last: Some(BatchCostState {
                    batch: 9,
                    points: 16,
                    time_ns_bits: 1.5f64.to_bits(),
                    energy_pj_bits: 2.5f64.to_bits(),
                }),
            },
            obs: ObsState {
                clock: 41,
                counters: vec![1, 2, 3],
                gauges: vec![4.0f64.to_bits(), 5.0f64.to_bits()],
                hists: vec![HistState {
                    buckets: vec![0, 1, 2],
                    sum: 6,
                    count: 3,
                }],
            },
            fault: Some(FaultState {
                fingerprint: FaultFingerprint {
                    policy_tag: 3,
                    spares: 4,
                    reads: 3,
                    retry_budget: 3,
                    base_backoff_ticks: 4,
                    backoff_factor: 2,
                    threshold_bits: 0.02f64.to_bits(),
                    plan_seed: 0xFA17,
                    plan_rows: 10,
                    plan_cols: 128,
                    stuck_rate_bits: 0.001f64.to_bits(),
                    dead_row_rate_bits: 0.0f64.to_bits(),
                    flip_rate_bits: 0.002f64.to_bits(),
                },
                pool_base: 6,
                pool_total: 10,
                pool_next: 1,
                pool_map: vec![(0, 6)],
                shards: vec![
                    ShardState {
                        tag: 0,
                        until_tick: 0,
                        retries_used: 0,
                    },
                    ShardState {
                        tag: 1,
                        until_tick: 44,
                        retries_used: 2,
                    },
                ],
                trips: vec![0, 2],
                stats_quarantined: 2,
                stats_requeued: 1,
                stats_dead: 0,
            }),
            wear: vec![100, 0, 50],
            trace: TraceState {
                capacity: 4,
                emitted: 7,
                next_span: 5,
                evicted: 3,
                open: vec![3, 4],
                events: vec![
                    TraceEventState {
                        seq: 3,
                        tick: 38,
                        span: 3,
                        parent: 0,
                        tag: 0,
                        a: 0,
                        b: 16,
                        c: 0,
                        name: String::new(),
                    },
                    TraceEventState {
                        seq: 4,
                        tick: 39,
                        span: 4,
                        parent: 3,
                        tag: 2,
                        a: 1,
                        b: 0,
                        c: 0,
                        name: String::new(),
                    },
                    TraceEventState {
                        seq: 5,
                        tick: 40,
                        span: 0,
                        parent: 4,
                        tag: 9,
                        a: 0,
                        b: 0,
                        c: 0,
                        name: "tenant-a".to_owned(),
                    },
                    TraceEventState {
                        seq: 6,
                        tick: 41,
                        span: 0,
                        parent: 4,
                        tag: 12,
                        a: 2.0f64.to_bits(),
                        b: 1,
                        c: 0,
                        name: "quarantine-spike".to_owned(),
                    },
                ],
                alerts: vec![AlertRuleWire {
                    name: "quarantine-spike".to_owned(),
                    signal_tag: 1,
                    key_wire: 17,
                    threshold_bits: 1.0f64.to_bits(),
                    clear_bits: 0.0f64.to_bits(),
                    latched: 1,
                    last_bits: 2.0f64.to_bits(),
                }],
            },
        }
    }

    /// `v` cycled or cut to `n` entries (`n = 0` empties it).
    fn resized<T: Clone>(v: &[T], n: usize) -> Vec<T> {
        v.iter().cycle().take(n).cloned().collect()
    }

    proptest! {
        /// The size pass agrees with `put` on [`sample`] with every
        /// sequence (each nested one too, and every string) cut to or
        /// cycled up to a drawn length, zero included, and each option
        /// present or absent.
        #[test]
        fn prop_size_is_the_encoded_length(
            lens in proptest::collection::vec(0usize..5, 1..40),
        ) {
            let mut len = lens.iter().copied().cycle();
            let mut n = move || len.next().unwrap();
            let mut s = sample();
            s.pending = resized(&s.pending, n());
            for p in &mut s.pending {
                *p = resized(p, n());
            }
            let m = &mut s.model;
            m.centroids = resized(&m.centroids, n());
            m.acc_counts = resized(&m.acc_counts, n());
            for words in m.centroids.iter_mut().chain(&mut m.acc_counts) {
                *words = resized(words, n());
            }
            m.acc_weights = resized(&m.acc_weights, n());
            s.meter.ops = resized(&s.meter.ops, n());
            if n() % 2 == 0 {
                s.meter.last = None;
            }
            let o = &mut s.obs;
            o.counters = resized(&o.counters, n());
            o.gauges = resized(&o.gauges, n());
            o.hists = resized(&o.hists, n());
            for h in &mut o.hists {
                h.buckets = resized(&h.buckets, n());
            }
            if n() % 2 == 0 {
                s.fault = None;
            }
            if let Some(f) = &mut s.fault {
                f.pool_map = resized(&f.pool_map, n());
                f.shards = resized(&f.shards, n());
                f.trips = resized(&f.trips, n());
            }
            s.wear = resized(&s.wear, n());
            let t = &mut s.trace;
            t.open = resized(&t.open, n());
            t.events = resized(&t.events, n());
            for e in &mut t.events {
                e.name = "ζa".repeat(n());
            }
            t.alerts = resized(&t.alerts, n());
            for a in &mut t.alerts {
                a.name = "ζ".repeat(n());
            }
            let bytes = s.encode();
            prop_assert_eq!(s.framed_len(), bytes.len());
            prop_assert_eq!(EngineSnapshot::decode(&bytes).unwrap(), s);
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let snap = sample();
        let bytes = snap.encode();
        let back = EngineSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.tick(), 41);
    }

    #[test]
    fn encode_into_overwrites_a_dirty_longer_buffer() {
        let snap = sample();
        let want = snap.encode();
        let mut buf = vec![0xAB; want.len() * 3 + 5];
        let before = buf.capacity();
        snap.encode_into(&mut buf);
        assert_eq!(buf, want, "no stale byte survives, none trails");
        assert_eq!(buf.capacity(), before, "the allocation is reused");
        // A smaller snapshot into the same buffer shrinks it.
        let mut small = sample();
        small.fault = None;
        small.pending.clear();
        small.encode_into(&mut buf);
        assert_eq!(buf, small.encode());
        assert_eq!(EngineSnapshot::decode(&buf).unwrap(), small);
    }

    #[test]
    fn no_fault_branch_round_trips_too() {
        let mut snap = sample();
        snap.fault = None;
        snap.pending.clear();
        snap.meter.last = None;
        let back = EngineSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = sample().encode();
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        // Re-stamp the checksum so ONLY the version differs.
        let body_end = bytes.len() - 8;
        let sum = codec::fnv1a64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            EngineSnapshot::decode(&bytes),
            Err(SnapError::UnsupportedVersion {
                got: VERSION + 1,
                supported: VERSION,
            })
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(EngineSnapshot::decode(&bytes), Err(SnapError::BadMagic));
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = EngineSnapshot::decode(&bytes[..len]);
            assert!(err.is_err(), "decode of {len}-byte prefix must fail");
        }
    }

    #[test]
    fn every_single_byte_corruption_fails_closed() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            // Decoding must never panic; it may only error. (A flip in
            // the payload or checksum trips the checksum; a flip in
            // the header trips magic/version/length checks.)
            assert!(
                EngineSnapshot::decode(&bad).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            EngineSnapshot::decode(&bytes),
            Err(SnapError::Corrupt {
                reason: "trailing bytes after checksum"
            })
        );
    }

    /// The per-element minimums behind every count check: the sizes the
    /// v2 decoder has always refused counts against, so its
    /// `Truncated { needed, got }` errors keep their values.
    #[test]
    fn element_minimums_are_the_v2_count_checks() {
        use codec::Wire;
        let mins = [
            Vec::<u64>::MIN,
            OpCount::MIN,
            <(u64, u64)>::MIN,
            ShardState::MIN,
            HistState::MIN,
            AlertRuleWire::MIN,
            TraceEventState::MIN,
        ];
        assert_eq!(mins, [8, 13, 16, 17, 24, 42, 65]);
    }

    /// Structure-aware corruption: with the checksum re-stamped, every
    /// overwrite reaches the payload decoder, which must never panic
    /// and, when it accepts, must have parsed exactly the mutated bytes.
    #[test]
    fn checksum_valid_corruption_fails_closed_or_round_trips() {
        codec::checksum_valid_mutations(&sample().encode(), |bad| {
            if let Ok(snap) = EngineSnapshot::decode(bad) {
                assert_eq!(snap.encode(), bad, "an accepted blob re-encodes to itself");
            }
        });
    }

    /// Byte-stability pin: the v2 encoding of the fixed sample must
    /// never drift, and the committed bytes must decode back to the
    /// sample. If this fails you changed the wire format — bump
    /// [`VERSION`] and add a new golden file instead. Regenerate (only
    /// for a NEW version) with:
    /// `DUAL_SNAP_WRITE_GOLDEN=1 cargo test -p dual-snap golden`.
    #[test]
    fn golden_bytes_are_pinned() {
        let bytes = sample().encode();
        if std::env::var_os("DUAL_SNAP_WRITE_GOLDEN").is_some() {
            std::fs::write(
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../results/snap_golden_v2.bin"
                ),
                &bytes,
            )
            .unwrap();
        }
        let golden = include_bytes!("../../../results/snap_golden_v2.bin");
        assert_eq!(
            bytes,
            golden.to_vec(),
            "snapshot wire format drifted within version {VERSION}"
        );
        assert_eq!(EngineSnapshot::decode(golden).unwrap(), sample());
    }

    /// The committed v1 golden must now fail closed: this build only
    /// speaks v2, and old blobs carry an explicit version we reject
    /// rather than misparse.
    #[test]
    fn v1_golden_is_rejected_as_unsupported() {
        let v1 = include_bytes!("../../../results/snap_golden_v1.bin");
        assert_eq!(
            EngineSnapshot::decode(v1),
            Err(SnapError::UnsupportedVersion {
                got: 1,
                supported: VERSION,
            })
        );
    }
}
