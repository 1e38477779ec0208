//! Error type for the cluster crate.

use std::error::Error;
use std::fmt;

/// Errors produced by clustering constructors and fits.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        reason: &'static str,
    },
    /// The input dataset was empty or smaller than required.
    TooFewPoints {
        /// Points required by the algorithm/configuration.
        needed: usize,
        /// Points actually supplied.
        got: usize,
    },
    /// Two input points have different dimensionalities.
    DimensionMismatch {
        /// Dimensionality of the first point.
        left: usize,
        /// Dimensionality of the first point that differs from it.
        right: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            Self::TooFewPoints { needed, got } => {
                write!(f, "need at least {needed} points, got {got}")
            }
            Self::DimensionMismatch { left, right } => {
                write!(f, "points have different dimensions: {left} and {right}")
            }
        }
    }
}

impl Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ClusterError::TooFewPoints { needed: 2, got: 0 };
        assert!(e.to_string().contains("at least 2"));
    }
}
