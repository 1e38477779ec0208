//! Per-tenant checkpoint addressing for the multi-tenant topology.
//!
//! A [`TenantCheckpoint`] wraps one tenant's engine snapshot blob
//! (already framed as `DSNP` by `dual_stream::StreamEngine::checkpoint`)
//! together with the tenant's name and the topology tick the
//! checkpoint was cut at. The topology layer uses the name to address
//! checkpoints in a shared store and to refuse restoring a blob into
//! the wrong tenant; the tick lets a supervisor order checkpoints
//! across tenants without trusting filenames.
//!
//! ## Wire format (version 1)
//!
//! Same envelope as engine snapshots (see the crate docs) but with
//! magic `b"DTNP"`. Payload, in order, little-endian:
//!
//! ```text
//! name         u64 count-prefixed UTF-8 bytes
//! topology_tick u64
//! engine_blob  u64 count-prefixed raw bytes (a complete DSNP frame)
//! ```
//!
//! The engine blob travels verbatim — checksummed twice (its own DSNP
//! frame plus this envelope) — so `StreamEngine::restore_with` can be
//! handed the inner bytes unchanged.

use crate::codec::{Reader, Writer};
use crate::error::SnapError;

/// Leading magic of every tenant checkpoint blob.
pub const TENANT_MAGIC: [u8; 4] = *b"DTNP";

/// Newest tenant-checkpoint format version this build handles.
pub const TENANT_VERSION: u32 = 1;

/// One tenant's engine snapshot, addressed by name and topology tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCheckpoint {
    /// The tenant's registered name (checked on reload).
    pub name: String,
    /// Topology logical tick the checkpoint was cut at.
    pub topology_tick: u64,
    /// The tenant engine's complete framed `DSNP` snapshot bytes.
    pub engine_blob: Vec<u8>,
}

impl TenantCheckpoint {
    /// Serialize to the framed wire format. Deterministic: equal
    /// checkpoints encode to identical bytes, on every platform.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::framed(&mut buf, TENANT_MAGIC, TENANT_VERSION);
        w.str(&self.name);
        w.u64(self.topology_tick);
        w.bytes(&self.engine_blob);
        w.finish();
        buf
    }

    /// Parse a framed tenant checkpoint, failing closed on any
    /// corruption.
    ///
    /// # Errors
    ///
    /// Same classes as [`crate::Reader::snapshot`]: truncation, bad
    /// magic (an engine blob passed here raises [`SnapError::
    /// BadMagic`] — the magics are disjoint on purpose), future
    /// versions, checksum mismatches, non-UTF-8 names, and trailing
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = Reader::framed(bytes, TENANT_MAGIC, TENANT_VERSION)?;
        let cp = Self {
            name: r.string()?,
            topology_tick: r.u64()?,
            engine_blob: r.byte_vec()?,
        };
        r.finish()?;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;

    fn sample() -> TenantCheckpoint {
        TenantCheckpoint {
            name: "tenant-α".to_string(),
            topology_tick: 917,
            engine_blob: vec![0x44, 0x53, 0x4E, 0x50, 0, 1, 2, 3, 0xFF],
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let cp = sample();
        assert_eq!(TenantCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn empty_name_and_blob_round_trip() {
        let cp = TenantCheckpoint {
            name: String::new(),
            topology_tick: 0,
            engine_blob: Vec::new(),
        };
        assert_eq!(TenantCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn engine_magic_is_rejected_here_and_vice_versa() {
        let mut bytes = sample().encode();
        bytes[..4].copy_from_slice(&crate::MAGIC);
        // Re-stamp the checksum so ONLY the magic differs.
        let body_end = bytes.len() - 8;
        let sum = codec::fnv1a64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(TenantCheckpoint::decode(&bytes), Err(SnapError::BadMagic));
        // And a genuine tenant frame is not an engine snapshot.
        assert_eq!(
            Reader::snapshot(&sample().encode()).err(),
            Some(SnapError::BadMagic)
        );
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = sample().encode();
        bytes[4..8].copy_from_slice(&(TENANT_VERSION + 1).to_le_bytes());
        let body_end = bytes.len() - 8;
        let sum = codec::fnv1a64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            TenantCheckpoint::decode(&bytes),
            Err(SnapError::UnsupportedVersion {
                got: TENANT_VERSION + 1,
                supported: TENANT_VERSION,
            })
        );
    }

    #[test]
    fn non_utf8_name_fails_closed() {
        // Same wire shape as a checkpoint, with invalid UTF-8 as the name.
        let mut bytes = Vec::new();
        let mut w = Writer::framed(&mut bytes, TENANT_MAGIC, TENANT_VERSION);
        w.bytes(&[0xFF, 0xFE]);
        w.u64(1);
        w.bytes(&[]);
        w.finish();
        assert_eq!(
            TenantCheckpoint::decode(&bytes),
            Err(SnapError::Corrupt {
                reason: "string is not UTF-8",
            })
        );
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                TenantCheckpoint::decode(&bytes[..len]).is_err(),
                "decode of {len}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_fails_closed() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                TenantCheckpoint::decode(&bad).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            TenantCheckpoint::decode(&bytes),
            Err(SnapError::Corrupt {
                reason: "trailing bytes after checksum"
            })
        );
    }

    #[test]
    fn checksum_valid_corruption_fails_closed_or_round_trips() {
        codec::checksum_valid_mutations(&sample().encode(), |bad| {
            if let Ok(cp) = TenantCheckpoint::decode(bad) {
                assert_eq!(cp.encode(), bad, "an accepted blob re-encodes to itself");
            }
        });
    }

    /// Byte-stability pin for `DTNP` v1, the twin of the engine
    /// snapshot's: the sample's encoding must never drift and the
    /// committed bytes must decode back to it. Regenerate (only for a
    /// NEW version) with:
    /// `DUAL_SNAP_WRITE_GOLDEN=1 cargo test -p dual-snap golden`.
    #[test]
    fn golden_bytes_are_pinned() {
        let bytes = sample().encode();
        if std::env::var_os("DUAL_SNAP_WRITE_GOLDEN").is_some() {
            std::fs::write(
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../results/tenant_golden_v1.bin"
                ),
                &bytes,
            )
            .unwrap();
        }
        let golden = include_bytes!("../../../results/tenant_golden_v1.bin");
        assert_eq!(
            bytes,
            golden.to_vec(),
            "tenant checkpoint wire format drifted within version {TENANT_VERSION}"
        );
        assert_eq!(TenantCheckpoint::decode(golden).unwrap(), sample());
    }
}
