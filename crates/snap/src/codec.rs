//! Little-endian byte codec: the [`Wire`] trait, an appending writer,
//! a bounds-checked cursor reader, and the shared frame. Every read is
//! guarded — the reader returns [`SnapError`] instead of slicing out of
//! range, so arbitrary garbage can never make the decoder panic.
//!
//! A wire struct is declared through [`wire_struct!`], which derives
//! both directions and the size pass from the one field list, so
//! encode, decode and [`Wire::size`] visit fields in the same sequence
//! by construction.

use crate::error::SnapError;

/// A value with one little-endian wire encoding. `get` reads back
/// exactly what `put` wrote, field order is declaration order, `size`
/// is how many bytes `put` appends, and `MIN` is the fewest bytes a
/// value can occupy — a sequence's count prefix is checked against it
/// before anything is allocated.
pub(crate) trait Wire: Sized {
    /// Smallest encoded size of one value, in bytes.
    const MIN: usize;

    /// Exact encoded size of `self`, in bytes, without encoding it.
    fn size(&self) -> usize;

    /// Append the encoding of `self`.
    fn put(&self, w: &mut Writer);

    /// Read one value, failing closed on any inconsistency.
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError>;

    /// Append a run of values. `u8` overrides this (and
    /// [`Wire::get_n`]) with one bulk copy, for byte strings and the
    /// engine blob inside a tenant checkpoint.
    fn put_slice(items: &[Self], w: &mut Writer) {
        for x in items {
            x.put(w);
        }
    }

    /// Read `n` values whose count [`Reader::count`] already admitted.
    fn get_n(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, SnapError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Ok(out)
    }
}

/// Declare a `pub` struct whose field list is its wire format: the
/// struct is emitted unchanged, plus a [`Wire`] impl that puts and gets
/// the fields in declaration order, with `MIN` and `size` the sums of
/// theirs.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::codec::Wire for $name {
            const MIN: usize = 0 $(+ <$ty as $crate::codec::Wire>::MIN)*;

            fn size(&self) -> usize {
                0 $(+ $crate::codec::Wire::size(&self.$field))*
            }

            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Wire::put(&self.$field, w);)*
            }

            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::error::SnapError> {
                Ok(Self {
                    $($field: $crate::codec::Wire::get(r)?,)*
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Appending little-endian writer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

/// `usize` length → wire `u64` (lossless on every supported target).
fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Bounds-checked cursor over an untrusted byte slice.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn is_empty(&self) -> bool {
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        self.take(N)?.try_into().map_err(|_| SnapError::Corrupt {
            reason: "fixed-width slice length",
        })
    }

    /// Read a count prefix for items of at least `item_bytes` each,
    /// refusing counts the remaining buffer cannot possibly hold (so a
    /// flipped length bit cannot trigger a giant allocation).
    fn count(&mut self, item_bytes: usize) -> Result<usize, SnapError> {
        let raw = u64::get(self)?;
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
}

impl Wire for u8 {
    const MIN: usize = 1;

    fn size(&self) -> usize {
        <Self as Wire>::MIN
    }

    fn put(&self, w: &mut Writer) {
        w.buf.push(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(r.take(1)?[0])
    }

    fn put_slice(items: &[Self], w: &mut Writer) {
        w.buf.extend_from_slice(items);
    }

    fn get_n(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, SnapError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Wire for u32 {
    const MIN: usize = 4;

    fn size(&self) -> usize {
        <Self as Wire>::MIN
    }

    fn put(&self, w: &mut Writer) {
        w.buf.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Self::from_le_bytes(r.array()?))
    }
}

impl Wire for u64 {
    const MIN: usize = 8;

    fn size(&self) -> usize {
        <Self as Wire>::MIN
    }

    fn put(&self, w: &mut Writer) {
        w.buf.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Self::from_le_bytes(r.array()?))
    }
}

/// `u64` count prefix, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 8;

    fn size(&self) -> usize {
        Self::MIN + self.iter().map(T::size).sum::<usize>()
    }

    fn put(&self, w: &mut Writer) {
        len_u64(self.len()).put(w);
        T::put_slice(self, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.count(T::MIN)?;
        T::get_n(r, n)
    }
}

/// Count-prefixed UTF-8 bytes; invalid UTF-8 fails closed.
impl Wire for String {
    const MIN: usize = 8;

    fn size(&self) -> usize {
        Self::MIN + self.len()
    }

    fn put(&self, w: &mut Writer) {
        len_u64(self.len()).put(w);
        u8::put_slice(self.as_bytes(), w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Self::from_utf8(Vec::get(r)?).map_err(|_| SnapError::Corrupt {
            reason: "string is not UTF-8",
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;

    fn size(&self) -> usize {
        self.0.size() + self.1.size()
    }

    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A `u8` presence tag (0 absent, 1 present), then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;

    fn size(&self) -> usize {
        Self::MIN + self.as_ref().map_or(0, T::size)
    }

    fn put(&self, w: &mut Writer) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(SnapError::Corrupt {
                reason: "presence tag",
            }),
        }
    }
}

/// Fixed frame header size: magic + version + payload length.
const HEADER_LEN: usize = 16;

/// Trailing frame checksum size.
const CHECKSUM_LEN: usize = 8;

/// Length of the blob [`encode_framed`] writes for `value`: the
/// header, the payload's exact [`Wire::size`], and the checksum.
pub(crate) fn framed_len<T: Wire>(value: &T) -> usize {
    HEADER_LEN + value.size() + CHECKSUM_LEN
}

/// Frame `value` as the whole payload of a `magic`/`version` blob, in
/// `buf`'s allocation (whatever `buf` held is discarded; a caller that
/// knows [`framed_len`] reserves it first). Every blob family in this crate (`DSNP` engine snapshots, `DTNP` tenant
/// checkpoints) uses this exact envelope. The frame is built in place —
/// header with a zero length, payload, length patched, then the
/// FNV-1a-64 checksum over everything before it — so no second copy of
/// the payload ever exists.
pub(crate) fn encode_framed<T: Wire>(
    value: &T,
    magic: [u8; 4],
    version: u32,
    mut buf: Vec<u8>,
) -> Vec<u8> {
    buf.clear();
    buf.extend_from_slice(&magic);
    let mut w = Writer { buf };
    version.put(&mut w);
    0u64.put(&mut w);
    value.put(&mut w);
    let mut bytes = w.buf;
    let payload_len = len_u64(bytes.len() - HEADER_LEN);
    bytes[8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Parse a blob [`encode_framed`] wrote: validate the envelope, read
/// one `T`, and refuse payload bytes left over after it.
pub(crate) fn decode_framed<T: Wire>(
    bytes: &[u8],
    magic: [u8; 4],
    supported: u32,
) -> Result<T, SnapError> {
    let mut r = Reader::new(unframe(bytes, magic, supported)?);
    let value = T::get(&mut r)?;
    if !r.is_empty() {
        return Err(SnapError::Corrupt {
            reason: "unconsumed payload bytes",
        });
    }
    Ok(value)
}

/// Validate the frame envelope (magic, version, length, checksum,
/// no trailing bytes) and return the payload slice. Fails closed on
/// every corruption class; see [`crate::EngineSnapshot::decode`] for
/// the error contract.
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
    let version = u32::get(&mut header)?;
    if version != supported {
        return Err(SnapError::UnsupportedVersion {
            got: version,
            supported,
        });
    }
    let payload_len = usize::try_from(u64::get(&mut header)?).map_err(|_| SnapError::Corrupt {
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
    let stored_sum = u64::get(&mut Reader::new(&bytes[body_end..]))?;
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

    fn encode<T: Wire>(v: &T) -> Vec<u8> {
        let mut w = Writer::default();
        v.put(&mut w);
        w.buf
    }

    #[test]
    fn round_trips_every_wire_shape() {
        type Shapes = (
            u8,
            (u32, (u64, (Vec<u64>, (String, (Option<u8>, Option<u64>))))),
        );
        let v: Shapes = (
            7,
            (
                0xDEAD_BEEF,
                (
                    u64::MAX - 1,
                    (vec![1, 2, 3], ("ζ".to_owned(), (None, Some(9)))),
                ),
            ),
        );
        let bytes = encode(&v);
        assert_eq!(bytes.len(), 1 + 4 + 8 + (8 + 24) + (8 + 2) + 1 + 9);
        assert_eq!(v.size(), bytes.len());
        let mut r = Reader::new(&bytes);
        assert_eq!(Shapes::get(&mut r).unwrap(), v);
        assert!(r.is_empty());
    }

    #[test]
    fn reads_past_the_end_are_typed_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            u64::get(&mut r),
            Err(SnapError::Truncated { needed: 8, got: 3 })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        // A count claiming ~2^64 entries.
        let bytes = encode(&u64::MAX);
        assert!(Vec::<u64>::get(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn presence_tags_other_than_zero_and_one_are_corrupt() {
        assert_eq!(
            Option::<u8>::get(&mut Reader::new(&[2, 0])),
            Err(SnapError::Corrupt {
                reason: "presence tag"
            })
        );
    }

    #[test]
    fn frame_round_trips_and_reuses_the_buffer() {
        let payload: Vec<u8> = (0..=255).collect();
        let buf = Vec::with_capacity(512);
        let bytes = encode_framed(&payload, *b"TEST", 7, buf);
        assert_eq!(bytes.len(), HEADER_LEN + 8 + payload.len() + CHECKSUM_LEN);
        assert_eq!(bytes.len(), framed_len(&payload));
        assert_eq!(bytes.capacity(), 512, "the allocation is reused");
        assert_eq!(&bytes[..4], b"TEST");
        assert_eq!(bytes[4..8], 7u32.to_le_bytes());
        assert_eq!(bytes[8..16], 264u64.to_le_bytes());
        assert_eq!(
            decode_framed::<Vec<u8>>(&bytes, *b"TEST", 7).unwrap(),
            payload
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
