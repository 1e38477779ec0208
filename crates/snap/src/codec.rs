//! Little-endian byte codec: an appending writer and a bounds-checked
//! cursor reader. Every read is guarded — the reader returns
//! [`SnapError`] instead of slicing out of range, so arbitrary garbage
//! can never make the decoder panic.

use crate::error::SnapError;

/// Appending little-endian writer. Field order is the wire format:
/// encode and decode must visit fields in exactly the same sequence.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// A writer that appends into `buf`'s allocation; whatever `buf`
    /// held is discarded.
    pub(crate) fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Count-prefixed `u64` sequence.
    pub(crate) fn put_u64_vec(&mut self, v: &[u64]) {
        self.put_u64(len_u64(v.len()));
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Count-prefixed raw byte sequence.
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(len_u64(v.len()));
        self.buf.extend_from_slice(v);
    }

    /// Count-prefixed UTF-8 string (encoded as its bytes).
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// `usize` length → wire `u64` (lossless on every supported target).
pub(crate) fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Bounds-checked cursor over an untrusted byte slice.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
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

    pub(crate) fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4)?;
        let arr: [u8; 4] = s.try_into().map_err(|_| SnapError::Corrupt {
            reason: "u32 slice length",
        })?;
        Ok(u32::from_le_bytes(arr))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8)?;
        let arr: [u8; 8] = s.try_into().map_err(|_| SnapError::Corrupt {
            reason: "u64 slice length",
        })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a count prefix for items of `item_bytes` each, refusing
    /// counts the remaining buffer cannot possibly hold (so a flipped
    /// length bit cannot trigger a giant allocation).
    pub(crate) fn count(&mut self, item_bytes: usize) -> Result<usize, SnapError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw).map_err(|_| SnapError::Corrupt {
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

    /// Count-prefixed `u64` sequence.
    pub(crate) fn u64_vec(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Count-prefixed raw byte sequence.
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Count-prefixed UTF-8 string; invalid UTF-8 fails closed.
    pub(crate) fn str_utf8(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt {
            reason: "string is not UTF-8",
        })
    }
}

/// Fixed frame header size: magic + version + payload length.
pub(crate) const HEADER_LEN: usize = 16;

/// Trailing frame checksum size.
pub(crate) const CHECKSUM_LEN: usize = 8;

/// Open the shared frame at the start of an empty writer: magic,
/// version, and a zero payload length that [`end_frame`] patches once
/// the payload has been appended. Every blob family in this crate
/// (`DSNP` engine snapshots, `DTNP` tenant checkpoints) uses this exact
/// envelope.
pub(crate) fn begin_frame(w: &mut Writer, magic: [u8; 4], version: u32) {
    debug_assert!(w.buf.is_empty(), "a frame starts its buffer");
    w.buf.extend_from_slice(&magic);
    w.put_u32(version);
    w.put_u64(0);
}

/// Close the frame [`begin_frame`] opened: patch the payload length
/// and append the FNV-1a-64 checksum over everything before it.
pub(crate) fn end_frame(w: Writer) -> Vec<u8> {
    let mut bytes = w.into_bytes();
    let payload_len = len_u64(bytes.len() - HEADER_LEN);
    bytes[8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Wrap an already-encoded `payload` in the shared frame, in one
/// exactly-sized allocation.
pub(crate) fn frame(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::reusing(Vec::with_capacity(
        HEADER_LEN + payload.len() + CHECKSUM_LEN,
    ));
    begin_frame(&mut w, magic, version);
    w.buf.extend_from_slice(payload);
    end_frame(w)
}

/// Validate the frame envelope (magic, version, length, checksum,
/// no trailing bytes) and return the payload slice. Fails closed on
/// every corruption class; see [`crate::EngineSnapshot::decode`] for
/// the error contract.
pub(crate) fn unframe(bytes: &[u8], magic: [u8; 4], supported: u32) -> Result<&[u8], SnapError> {
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
    let mut sum_reader = Reader::new(&bytes[body_end..]);
    let stored_sum = sum_reader.u64()?;
    if fnv1a64(&bytes[..body_end]) != stored_sum {
        return Err(SnapError::Corrupt {
            reason: "checksum mismatch",
        });
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

/// FNV-1a 64-bit over `bytes` — the frame checksum. Not cryptographic;
/// it exists to turn accidental corruption (truncation survivors, bit
/// flips) into a typed decode error.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_vecs() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u64_vec(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
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
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // count claiming ~2^64 entries
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.u64_vec().is_err());
    }

    #[test]
    fn frame_is_sized_once_and_round_trips() {
        let payload: Vec<u8> = (0..=255).collect();
        let bytes = frame(*b"TEST", 7, &payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len() + CHECKSUM_LEN);
        let reserved = Vec::<u8>::with_capacity(bytes.len()).capacity();
        assert_eq!(bytes.capacity(), reserved, "no growth past the reservation");
        assert_eq!(&bytes[..4], b"TEST");
        assert_eq!(bytes[4..8], 7u32.to_le_bytes());
        assert_eq!(bytes[8..16], 256u64.to_le_bytes());
        assert_eq!(unframe(&bytes, *b"TEST", 7).unwrap(), &payload[..]);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
