//! Typed decode failures. Corrupt input must surface here — never as a
//! panic (the crate root denies the panic lints at zero debt).

use std::fmt;

/// Everything that can go wrong while decoding a snapshot blob.
///
/// Decoding **fails closed**: any truncation, bit flip, or unknown
/// version yields an error; no partially-restored state ever escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The buffer ended before a required field.
    Truncated {
        /// Bytes the decoder needed at this point.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The leading magic is not `b"DSNP"` — not a snapshot at all.
    BadMagic,
    /// The version tag is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        got: u32,
        /// Newest version this decoder supports.
        supported: u32,
    },
    /// Framing or payload inconsistency (checksum mismatch, trailing
    /// bytes, impossible lengths).
    Corrupt {
        /// What the decoder tripped over.
        reason: &'static str,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "snapshot truncated: needed {needed} bytes, got {got}")
            }
            Self::BadMagic => write!(f, "not a DSNP snapshot (bad magic)"),
            Self::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "snapshot version {got} is newer than supported {supported}"
                )
            }
            Self::Corrupt { reason } => write!(f, "snapshot corrupt: {reason}"),
        }
    }
}

impl std::error::Error for SnapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SnapError::Truncated { needed: 8, got: 3 };
        assert!(e.to_string().contains("needed 8"));
        assert!(SnapError::BadMagic.to_string().contains("magic"));
        let e = SnapError::UnsupportedVersion {
            got: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = SnapError::Corrupt {
            reason: "checksum mismatch",
        };
        assert!(e.to_string().contains("checksum"));
    }
}
