//! Error types for the `uhd-core` crate.

use std::error::Error;
use std::fmt;

/// Errors produced by hypervector algebra, encoders and models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HdcError {
    /// A hypervector with zero dimensions was requested.
    DimensionZero,
    /// Two hypervectors of different dimensions were combined.
    DimensionMismatch {
        /// Dimension of the left operand.
        left: u32,
        /// Dimension of the right operand.
        right: u32,
    },
    /// Raw words passed to a constructor have the wrong length.
    WordCountMismatch {
        /// Words required for the stated dimension.
        expected: usize,
        /// Words actually supplied.
        got: usize,
    },
    /// A sample with the wrong feature count was passed to a
    /// fixed-shape encoder. (The variant keeps its historical name for
    /// compatibility; the message speaks in features.)
    ImageSizeMismatch {
        /// Features the encoder was built for.
        expected: usize,
        /// Features in the offending sample.
        got: usize,
    },
    /// A sample outside the accepted length range was passed to a
    /// variable-length encoder (e.g. n-gram text).
    FeatureCountOutOfRange {
        /// Minimum accepted feature count.
        min: usize,
        /// Maximum accepted feature count.
        max: usize,
        /// Features in the offending sample.
        got: usize,
    },
    /// Training was attempted with no samples, or with a label outside
    /// the configured class count.
    InvalidTrainingData {
        /// Human-readable reason.
        reason: String,
    },
    /// A model was asked to classify before any training happened.
    ModelUntrained,
    /// A row/level/pixel index outside the table's bounds was requested.
    IndexOutOfRange {
        /// What was being indexed (e.g. `"pixel"`, `"level"`).
        what: &'static str,
        /// The offending index.
        index: usize,
        /// Number of valid entries.
        len: usize,
    },
    /// Configuration rejected (e.g. zero classes, zero dimension).
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A substrate error bubbled up from the low-discrepancy layer.
    LowDisc(uhd_lowdisc::LowDiscError),
    /// A substrate error bubbled up from the unary bit-stream layer.
    Bitstream(uhd_bitstream::BitstreamError),
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdcError::DimensionZero => write!(f, "hypervector dimension must be nonzero"),
            HdcError::DimensionMismatch { left, right } => {
                write!(f, "hypervector dimensions differ: {left} vs {right}")
            }
            HdcError::WordCountMismatch { expected, got } => {
                write!(f, "expected {expected} packed words, got {got}")
            }
            HdcError::ImageSizeMismatch { expected, got } => {
                write!(f, "encoder expects {expected} features, input has {got}")
            }
            HdcError::FeatureCountOutOfRange { min, max, got } => {
                write!(
                    f,
                    "encoder accepts between {min} and {max} features, input has {got}"
                )
            }
            HdcError::InvalidTrainingData { reason } => {
                write!(f, "invalid training data: {reason}")
            }
            HdcError::ModelUntrained => write!(f, "model has no trained class hypervectors"),
            HdcError::IndexOutOfRange { what, index, len } => {
                write!(f, "{what} index {index} out of range (len {len})")
            }
            HdcError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            HdcError::LowDisc(e) => write!(f, "low-discrepancy substrate: {e}"),
            HdcError::Bitstream(e) => write!(f, "bit-stream substrate: {e}"),
        }
    }
}

impl Error for HdcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HdcError::LowDisc(e) => Some(e),
            HdcError::Bitstream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<uhd_lowdisc::LowDiscError> for HdcError {
    fn from(e: uhd_lowdisc::LowDiscError) -> Self {
        HdcError::LowDisc(e)
    }
}

impl From<uhd_bitstream::BitstreamError> for HdcError {
    fn from(e: uhd_bitstream::BitstreamError) -> Self {
        HdcError::Bitstream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = HdcError::from(uhd_lowdisc::LowDiscError::EmptyRequest);
        assert!(e.to_string().contains("low-discrepancy"));
        assert!(e.source().is_some());
        assert!(HdcError::ModelUntrained.source().is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdcError>();
    }
}
