//! Error type for the hdc crate.

use std::error::Error;
use std::fmt;

/// Errors produced by encoders and hypervector operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HdcError {
    /// The feature vector length did not match the encoder's expectation.
    FeatureLength {
        /// Number of features the encoder was built for.
        expected: usize,
        /// Number of features actually supplied.
        got: usize,
    },
    /// A feature was NaN or ±∞. The projection has no position to
    /// give such a point, so the encoders refuse it instead of
    /// emitting a hypervector that means nothing.
    NonFiniteFeature {
        /// Index of the first non-finite feature.
        index: usize,
    },
    /// Two hypervectors of different dimensionality were combined.
    DimensionMismatch {
        /// Dimensionality of the left operand.
        left: usize,
        /// Dimensionality of the right operand.
        right: usize,
    },
    /// A constructor argument was out of its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        reason: &'static str,
    },
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FeatureLength { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            Self::NonFiniteFeature { index } => write!(f, "feature {index} is not finite"),
            Self::DimensionMismatch { left, right } => {
                write!(f, "hypervector dimensions differ: {left} vs {right}")
            }
            Self::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl Error for HdcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = HdcError::FeatureLength {
            expected: 3,
            got: 5,
        };
        assert_eq!(e.to_string(), "expected 3 features, got 5");
        let e = HdcError::NonFiniteFeature { index: 2 };
        assert_eq!(e.to_string(), "feature 2 is not finite");
        let e = HdcError::DimensionMismatch { left: 4, right: 8 };
        assert!(e.to_string().contains("4 vs 8"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdcError>();
    }
}
