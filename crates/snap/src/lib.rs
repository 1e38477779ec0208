//! # dual-snap — the framed, checksummed blob format of the engine's snapshots
//!
//! A byte-stable, versioned envelope for write-ahead snapshots of a
//! `dual_stream::StreamEngine`, plus the little-endian primitive codec
//! that fills it: a [`Writer`] that builds a frame in place in a
//! reused buffer, and a bounds-checked [`Reader`] over a verified
//! frame's payload. [`TenantCheckpoint`] wraps an engine blob for the
//! multi-tenant topology, and [`fnv1a64`] is the frame checksum.
//!
//! The crate is a **leaf** with no dependency on the live engine
//! types. What the `DSNP` payload holds, section by section, is owned
//! by one module: `crates/stream/src/persist.rs` writes the engine's
//! live state straight into the frame and reads it straight back, and
//! its module docs carry the payload table. The replay contract
//! (restore + re-feed ticks after the snapshot's tick reproduces the
//! uninterrupted run bit-for-bit) is proven by `tests/tests/recovery.rs`
//! and the `recovery_harness` CI gate.
//!
//! ## Frame (version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic        b"DSNP"
//! 4       4     version      u32 LE
//! 8       8     payload_len  u64 LE
//! 16      n     payload      the engine's sections, fixed order, LE
//! 16+n    8     checksum     FNV-1a 64 over bytes [0, 16+n)
//! ```
//!
//! Scalars are little-endian; `f64`s travel as `to_bits()` words;
//! sequences are `u64` count-prefixed; an optional value is a `u8`
//! presence tag before it. Reading **fails closed**: bad magic, future
//! versions, truncation, checksum mismatches, and trailing bytes all
//! yield a typed [`SnapError`] — never a panic. A count prefix is
//! checked against the fewest bytes its items can take before anything
//! is allocated ([`Reader::count`]).
//!
//! ## Versioning rules
//!
//! * The header layout (magic/version/length) is frozen forever.
//! * Any payload change — field added, removed, reordered, or
//!   re-encoded — bumps the format version.
//! * A reader accepts exactly the versions it knows how to parse and
//!   rejects others with [`SnapError::UnsupportedVersion`].
//! * Byte stability within a version is pinned by golden files:
//!   `results/snap_golden_v2_engine.bin` (a real engine's checkpoint)
//!   and `results/tenant_golden_v1.bin` (a tenant checkpoint).
//!   `results/snap_golden_v2.bin` is an older synthetic v2 sample; it
//!   stays pinned as a valid frame that no engine restores.
//!
//! Version 2 appended the flight recorder and alert rules to the
//! payload and the recorder capacity to the recorded config.

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
mod tenant;

pub use codec::{fnv1a64, Reader, Writer};
pub use error::SnapError;
pub use tenant::TenantCheckpoint;

/// Leading magic of every engine snapshot blob.
const MAGIC: [u8; 4] = *b"DSNP";

/// The format version this build writes and reads.
const VERSION: u32 = 2;

impl<'a> Writer<'a> {
    /// Start an engine snapshot frame (`DSNP`, this build's version)
    /// in `buf`, which is cleared and keeps its allocation — the
    /// periodic write-ahead capture writes a blob of nearly the same
    /// size every tick.
    pub fn snapshot(buf: &'a mut Vec<u8>) -> Self {
        Self::framed(buf, MAGIC, VERSION)
    }
}

impl<'a> Reader<'a> {
    /// Verify an engine snapshot frame and read its payload.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the buffer ends early,
    /// [`SnapError::BadMagic`] when it is not a snapshot,
    /// [`SnapError::UnsupportedVersion`] for any version but this
    /// build's, and [`SnapError::Corrupt`] for checksum failures and
    /// trailing bytes.
    pub fn snapshot(bytes: &'a [u8]) -> Result<Self, SnapError> {
        Self::framed(bytes, MAGIC, VERSION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real engine's checkpoint (faults, wrapped recorder, latched
    /// alerts, buffered points), pinned by `dual-stream`'s
    /// `engine_golden_bytes_are_pinned`.
    const ENGINE: &[u8] = include_bytes!("../../../results/snap_golden_v2_engine.bin");

    /// `bytes` with its checksum re-stamped, so only a deliberate edit
    /// differs.
    fn restamped(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn encode_into_overwrites_a_dirty_longer_buffer() {
        let write = |buf: &mut Vec<u8>| {
            let mut w = Writer::snapshot(buf);
            w.u64(41);
            w.str("tenant-a");
            w.finish();
        };
        let mut want = Vec::new();
        write(&mut want);
        let mut buf = vec![0xAB; want.len() * 3 + 5];
        let before = buf.capacity();
        write(&mut buf);
        assert_eq!(buf, want, "no stale byte survives, none trails");
        assert_eq!(buf.capacity(), before, "the allocation is reused");
        let mut r = Reader::snapshot(&buf).unwrap();
        assert_eq!(r.u64().unwrap(), 41);
        assert_eq!(r.string().unwrap(), "tenant-a");
        r.finish().unwrap();
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = ENGINE.to_vec();
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            Reader::snapshot(&restamped(bytes)).err(),
            Some(SnapError::UnsupportedVersion {
                got: VERSION + 1,
                supported: VERSION,
            })
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = ENGINE.to_vec();
        bytes[0] = b'X';
        assert_eq!(Reader::snapshot(&bytes).err(), Some(SnapError::BadMagic));
    }

    #[test]
    fn every_truncation_fails_closed() {
        for len in 0..ENGINE.len() {
            assert!(
                Reader::snapshot(&ENGINE[..len]).is_err(),
                "a {len}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_fails_closed() {
        let mut bad = ENGINE.to_vec();
        for i in 0..bad.len() {
            bad[i] ^= 0x01;
            // A flip in the payload or checksum trips the checksum; a
            // flip in the header trips magic/version/length checks.
            assert!(
                Reader::snapshot(&bad).is_err(),
                "flip at byte {i} must be detected"
            );
            bad[i] ^= 0x01;
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = ENGINE.to_vec();
        bytes.push(0);
        assert_eq!(
            Reader::snapshot(&bytes).err(),
            Some(SnapError::Corrupt {
                reason: "trailing bytes after checksum"
            })
        );
    }

    /// Both committed v2 blobs are valid frames of this build, and
    /// their bytes are pinned: the synthetic sample by its digest (no
    /// code writes it any more), the engine blob by `dual-stream`'s
    /// test that regenerates it.
    #[test]
    fn golden_bytes_are_pinned() {
        let synthetic = include_bytes!("../../../results/snap_golden_v2.bin");
        assert_eq!(fnv1a64(synthetic), 0xb2ae_db99_66e3_8b73);
        assert!(Reader::snapshot(synthetic).is_ok());
        assert!(Reader::snapshot(ENGINE).is_ok());
    }

    /// The committed v1 golden must fail closed: this build only
    /// speaks v2, and old blobs carry an explicit version we reject
    /// rather than misparse.
    #[test]
    fn v1_golden_is_rejected_as_unsupported() {
        let v1 = include_bytes!("../../../results/snap_golden_v1.bin");
        assert_eq!(
            Reader::snapshot(v1).err(),
            Some(SnapError::UnsupportedVersion {
                got: 1,
                supported: VERSION,
            })
        );
    }
}
