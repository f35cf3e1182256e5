//! Typed errors for fallible construction APIs.

use std::fmt;

/// Errors produced by the fallible entry points of the crate.
///
/// Shape errors *inside* tensor operations are programmer errors and panic
/// instead; this type covers data-dependent failures a caller can sensibly
/// handle (e.g. constructing a tensor from externally supplied buffers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// The supplied buffer length does not match the product of the shape.
    LengthMismatch {
        /// Number of elements implied by the requested shape.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// A dimension or hyper-parameter was invalid (zero sizes, bad axis...).
    InvalidArgument(String),
    /// The filesystem failed while reading or writing a checkpoint.
    Io(String),
    /// A checkpoint file exists but its contents are damaged — bad magic,
    /// truncated payload, or a CRC mismatch. Never loaded as weights.
    Corrupt(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::LengthMismatch { expected, actual } => write!(
                f,
                "buffer length {actual} does not match shape (expected {expected} elements)"
            ),
            NnError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            NnError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            NnError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}

impl From<crate::codec::CodecError> for NnError {
    fn from(e: crate::codec::CodecError) -> Self {
        NnError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_length_mismatch() {
        let e = NnError::LengthMismatch {
            expected: 6,
            actual: 4,
        };
        assert!(e.to_string().contains("length 4"));
        assert!(e.to_string().contains("6 elements"));
    }

    #[test]
    fn display_invalid_argument() {
        let e = NnError::InvalidArgument("axis out of range".into());
        assert!(e.to_string().contains("axis out of range"));
    }
}
