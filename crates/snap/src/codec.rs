//! Little-endian byte codec and the shared frame: a [`Writer`] that
//! builds a framed blob in place, and a bounds-checked cursor
//! [`Reader`] over a verified frame's payload. Every read is guarded —
//! the reader returns [`SnapError`] instead of slicing out of range, so
//! arbitrary garbage can never make a decoder panic. The encoding of
//! each value is the crate docs' (the "Frame" section).

use crate::error::SnapError;

/// Fixed frame header size: magic + version + payload length.
const HEADER_LEN: usize = 16;

/// Trailing frame checksum size.
const CHECKSUM_LEN: usize = 8;

/// `usize` length → wire `u64` (lossless on every supported target).
fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Appending writer of one framed blob. It starts the frame in the
/// caller's buffer (cleared first, allocation reused) with a zero
/// payload length, appends the payload in place, and
/// [`Writer::finish`] patches the length and appends the FNV-1a-64
/// checksum over everything before it — so no second copy of the
/// payload ever exists. A writer dropped unfinished leaves no valid
/// frame behind.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Start a `magic`/`version` frame in `buf`. Every blob family in
    /// this crate (`DSNP` engine snapshots, `DTNP` tenant checkpoints)
    /// uses this one envelope.
    pub(crate) fn framed(buf: &'a mut Vec<u8>, magic: [u8; 4], version: u32) -> Self {
        buf.clear();
        buf.extend_from_slice(&magic);
        let mut w = Self { buf };
        w.u32(version);
        w.u64(0);
        w
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its `to_bits` word, so it reads back
    /// bit-exact (signed zeros and NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append the count prefix of a sequence of `n` items.
    pub fn count(&mut self, n: usize) {
        self.u64(len_u64(n));
    }

    /// Append a count-prefixed sequence of `u64`s.
    pub fn u64s(&mut self, xs: &[u64]) {
        self.words(xs.len(), xs.iter().copied());
    }

    /// Append a count-prefixed sequence of `f64`s as `to_bits` words.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.words(xs.len(), xs.iter().map(|x| x.to_bits()));
    }

    /// The count, then `n` words, written in one pass over a buffer
    /// grown once.
    fn words(&mut self, n: usize, words: impl Iterator<Item = u64>) {
        self.count(n);
        let start = self.buf.len();
        self.buf.resize(start + 8 * n, 0);
        for (dst, w) in self.buf[start..].chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Append the presence tag of an optional value.
    pub fn present(&mut self, present: bool) {
        self.u8(u8::from(present));
    }

    /// Append a count-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append count-prefixed raw bytes.
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Offset from the start of the blob at which the next value lands
    /// (an argument for [`Writer::patch_u64`]).
    #[must_use]
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Length the blob will have once [`Writer::finish`] appends the
    /// checksum, if nothing more is written.
    #[must_use]
    pub fn blob_len(&self) -> usize {
        self.buf.len() + CHECKSUM_LEN
    }

    /// Overwrite the `u64` written at `at` (a [`Writer::position`]
    /// taken just before it). Fixed-width, so the blob's length does
    /// not move.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Close the frame: patch the payload length and append the
    /// checksum.
    pub fn finish(self) {
        let payload_len = len_u64(self.buf.len() - HEADER_LEN);
        self.buf[8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv1a64(self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
    }
}

/// Bounds-checked cursor over the payload of a verified frame. Every
/// read fails with [`SnapError::Truncated`] when the payload ends
/// before the value does, and consumes nothing then.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validate a `magic`/`version` frame (see [`unframe`]) and read
    /// its payload.
    pub(crate) fn framed(
        bytes: &'a [u8],
        magic: [u8; 4],
        supported: u32,
    ) -> Result<Self, SnapError> {
        Ok(Self::new(unframe(bytes, magic, supported)?))
    }

    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        self.take(N)?.try_into().map_err(|_| SnapError::Corrupt {
            reason: "fixed-width slice length",
        })
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read an `f64` from its `to_bits` word.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read the count prefix of a sequence whose items take at least
    /// `item_bytes` each. A count the rest of the payload cannot hold
    /// fails [`SnapError::Truncated`] with `count × item_bytes` as
    /// `needed` (or [`SnapError::Corrupt`] when that overflows), so a
    /// flipped count cannot size a giant allocation.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, SnapError> {
        let n = usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt {
            reason: "count overflows usize",
        })?;
        let needed = n.checked_mul(item_bytes).ok_or(SnapError::Corrupt {
            reason: "count overflows usize",
        })?;
        if needed > self.remaining() {
            return Err(SnapError::Truncated {
                needed,
                got: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read a count-prefixed sequence of `u64`s.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapError> {
        self.words(|w| w)
    }

    /// Read a count-prefixed sequence of `f64`s from `to_bits` words.
    pub fn f64s(&mut self) -> Result<Vec<f64>, SnapError> {
        self.words(f64::from_bits)
    }

    fn words<T>(&mut self, from: impl Fn(u64) -> T) -> Result<Vec<T>, SnapError> {
        let n = self.count(8)?;
        let bytes = self.take(8 * n)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut word = [0; 8];
                word.copy_from_slice(c);
                from(u64::from_le_bytes(word))
            })
            .collect())
    }

    /// Read the presence tag of an optional value; a tag other than 0
    /// or 1 is [`SnapError::Corrupt`].
    pub fn present(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt {
                reason: "presence tag",
            }),
        }
    }

    /// Read a count-prefixed UTF-8 string; invalid UTF-8 is
    /// [`SnapError::Corrupt`].
    pub fn string(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.byte_vec()?).map_err(|_| SnapError::Corrupt {
            reason: "string is not UTF-8",
        })
    }

    /// Read count-prefixed raw bytes.
    pub(crate) fn byte_vec(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Close the payload: bytes left over after the last value are
    /// [`SnapError::Corrupt`].
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() > 0 {
            return Err(SnapError::Corrupt {
                reason: "unconsumed payload bytes",
            });
        }
        Ok(())
    }
}

/// Validate the frame envelope (magic, version, length, checksum,
/// no trailing bytes) and return the payload slice. Fails closed on
/// every corruption class.
fn unframe(bytes: &[u8], magic: [u8; 4], supported: u32) -> Result<&[u8], SnapError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..4] != magic {
        return Err(SnapError::BadMagic);
    }
    let mut header = Reader::new(&bytes[4..HEADER_LEN]);
    let version = header.u32()?;
    if version != supported {
        return Err(SnapError::UnsupportedVersion {
            got: version,
            supported,
        });
    }
    let payload_len = usize::try_from(header.u64()?).map_err(|_| SnapError::Corrupt {
        reason: "payload length overflows usize",
    })?;
    let framed_len = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or(SnapError::Corrupt {
            reason: "payload length overflows usize",
        })?;
    if bytes.len() < framed_len {
        return Err(SnapError::Truncated {
            needed: framed_len,
            got: bytes.len(),
        });
    }
    if bytes.len() > framed_len {
        return Err(SnapError::Corrupt {
            reason: "trailing bytes after checksum",
        });
    }
    let body_end = HEADER_LEN + payload_len;
    let stored_sum = Reader::new(&bytes[body_end..]).u64()?;
    if fnv1a64(&bytes[..body_end]) != stored_sum {
        return Err(SnapError::Corrupt {
            reason: "checksum mismatch",
        });
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

/// FNV-1a 64-bit over `bytes` — the frame checksum. Not cryptographic;
/// it exists to turn accidental corruption (truncation survivors, bit
/// flips) into a typed decode error. Exported as the one FNV-1a of the
/// workspace: the bench reports' stable digests use it too.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Feed `check` every checksum-valid structural mutation of the framed
/// blob `framed`: each payload byte overwritten with 0x00, 0x01, 0x02
/// and 0xFF, then each 8-byte payload window with 0, 1, 2^40 and
/// `u64::MAX`, the checksum re-stamped each time so the payload decode
/// logic — counts, lengths, tags — is what meets the damage.
#[cfg(test)]
pub(crate) fn checksum_valid_mutations(framed: &[u8], mut check: impl FnMut(&[u8])) {
    let body_end = framed.len() - CHECKSUM_LEN;
    let mut bad = framed.to_vec();
    let mut stamp_and_check = |bad: &mut Vec<u8>| {
        let sum = fnv1a64(&bad[..body_end]);
        bad[body_end..].copy_from_slice(&sum.to_le_bytes());
        check(bad);
        bad.copy_from_slice(framed);
    };
    for i in HEADER_LEN..body_end {
        for v in [0x00, 0x01, 0x02, 0xFF] {
            bad[i] = v;
            stamp_and_check(&mut bad);
        }
    }
    for i in HEADER_LEN..=body_end.saturating_sub(8) {
        for v in [0, 1, 1u64 << 40, u64::MAX] {
            bad[i..i + 8].copy_from_slice(&v.to_le_bytes());
            stamp_and_check(&mut bad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    /// A finished `TEST` v7 frame of whatever `put` writes.
    fn framed(put: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::framed(&mut buf, MAGIC, 7);
        put(&mut w);
        w.finish();
        buf
    }

    #[test]
    fn round_trips_every_wire_shape() {
        let bytes = framed(|w| {
            w.u8(7);
            w.u32(0xDEAD_BEEF);
            w.u64(u64::MAX - 1);
            w.f64(-0.0);
            w.count(3);
            w.str("ζ");
            w.present(false);
            w.present(true);
        });
        assert_eq!(
            bytes.len(),
            HEADER_LEN + 1 + 4 + 8 + 8 + 8 + (8 + 2) + 1 + 1 + CHECKSUM_LEN
        );
        let mut r = Reader::framed(&bytes, MAGIC, 7).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.u64().unwrap(), 3);
        assert_eq!(r.string().unwrap(), "ζ");
        assert!(!r.present().unwrap());
        assert!(r.present().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn reads_past_the_end_are_typed_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u64(),
            Err(SnapError::Truncated { needed: 8, got: 3 })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(
            r.finish(),
            Err(SnapError::Corrupt {
                reason: "unconsumed payload bytes"
            })
        );
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        // A count claiming ~2^64 entries.
        let bytes = u64::MAX.to_le_bytes();
        assert!(Reader::new(&bytes).count(8).is_err());
        // A count the rest of the payload cannot hold names the bytes
        // it would need.
        let mut bytes = 3u64.to_le_bytes().to_vec();
        bytes.extend([0; 20]);
        assert_eq!(
            Reader::new(&bytes).count(8),
            Err(SnapError::Truncated {
                needed: 24,
                got: 20
            })
        );
    }

    #[test]
    fn presence_tags_other_than_zero_and_one_are_corrupt() {
        assert_eq!(
            Reader::new(&[2, 0]).present(),
            Err(SnapError::Corrupt {
                reason: "presence tag"
            })
        );
    }

    #[test]
    fn frame_round_trips_and_reuses_the_buffer() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut buf = Vec::with_capacity(512);
        let mut w = Writer::framed(&mut buf, MAGIC, 7);
        w.bytes(&payload);
        let at = w.position();
        w.u64(1);
        w.patch_u64(at, 9);
        let len = w.blob_len();
        w.finish();
        assert_eq!(buf.len(), HEADER_LEN + 8 + payload.len() + 8 + CHECKSUM_LEN);
        assert_eq!(buf.len(), len);
        assert_eq!(buf.capacity(), 512, "the allocation is reused");
        assert_eq!(&buf[..4], b"TEST");
        assert_eq!(buf[4..8], 7u32.to_le_bytes());
        assert_eq!(buf[8..16], 272u64.to_le_bytes());
        let mut r = Reader::framed(&buf, MAGIC, 7).unwrap();
        assert_eq!(r.byte_vec().unwrap(), payload);
        assert_eq!(r.u64().unwrap(), 9, "the patched word");
        r.finish().unwrap();
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
