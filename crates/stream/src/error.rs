//! Typed errors of the streaming engine.

use std::fmt;

/// Everything that can go wrong while configuring or driving a
/// [`crate::StreamEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamError {
    /// A configuration parameter is out of range.
    InvalidConfig {
        /// Which parameter.
        name: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A pushed point's feature count differs from the encoder's.
    FeatureLength {
        /// Features the encoder expects.
        expected: usize,
        /// Features the point carried.
        got: usize,
    },
    /// A pushed point carried a NaN or ±∞ feature.
    NonFiniteFeature {
        /// Index of the first non-finite feature.
        index: usize,
    },
    /// Seeded centroids did not match the engine geometry.
    CentroidShape {
        /// What was wrong.
        reason: &'static str,
    },
    /// An encoder error surfaced from the encode stage.
    Encode(dual_hdc::HdcError),
    /// A snapshot failed to decode (truncated, corrupted, or from an
    /// unsupported format version).
    Snapshot(dual_snap::SnapError),
    /// A decoded snapshot disagrees with the state re-supplied at
    /// restore time (encoder geometry, cost model expectations, or the
    /// fault-injection fingerprint).
    RestoreMismatch {
        /// Which re-supplied piece disagreed.
        name: &'static str,
        /// How it disagreed.
        reason: &'static str,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { name, reason } => {
                write!(f, "invalid stream config `{name}`: {reason}")
            }
            Self::FeatureLength { expected, got } => {
                write!(f, "point has {got} features, encoder expects {expected}")
            }
            Self::NonFiniteFeature { index } => write!(f, "point feature {index} is not finite"),
            Self::CentroidShape { reason } => write!(f, "bad seeded centroids: {reason}"),
            Self::Encode(e) => write!(f, "encode stage failed: {e}"),
            Self::Snapshot(e) => write!(f, "snapshot decode failed: {e}"),
            Self::RestoreMismatch { name, reason } => {
                write!(f, "restore mismatch on `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Encode(e) => Some(e),
            Self::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dual_hdc::HdcError> for StreamError {
    fn from(e: dual_hdc::HdcError) -> Self {
        Self::Encode(e)
    }
}

impl From<dual_snap::SnapError> for StreamError {
    fn from(e: dual_snap::SnapError) -> Self {
        Self::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = StreamError::FeatureLength {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("2 features"));
        let e = StreamError::NonFiniteFeature { index: 5 };
        assert_eq!(e.to_string(), "point feature 5 is not finite");
        let e = StreamError::InvalidConfig {
            name: "capacity",
            reason: "must be positive",
        };
        assert!(e.to_string().contains("capacity"));
    }

    #[test]
    fn encode_errors_chain_a_source() {
        use std::error::Error;
        let e = StreamError::from(dual_hdc::HdcError::FeatureLength {
            expected: 3,
            got: 1,
        });
        assert!(e.source().is_some());
    }
}
