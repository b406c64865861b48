//! Typed errors for the trace crate — decoding a columnar log is fallible
//! and must not panic the analysis pipeline.

use std::fmt;

/// Error type for decoding a columnar log.
#[derive(Debug)]
pub enum TraceError {
    /// The byte stream is not a valid columnar log (bad magic, truncated
    /// varint, out-of-range dictionary id, …).
    Decode(String),
    /// The log's header names a stream or column, or gives a column a
    /// type, that the fixed schema does not.
    Schema(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Decode(m) => write!(f, "columnar decode error: {m}"),
            TraceError::Schema(m) => write!(f, "columnar schema error: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(TraceError::Decode("x".into()).to_string().contains("decode"));
        assert!(TraceError::Schema("y".into()).to_string().contains("schema"));
    }
}
