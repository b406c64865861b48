//! Typed errors for the trace crate — decoding a columnar log and schema
//! lookups are fallible and must not panic the analysis pipeline.

use std::fmt;

/// Error type for columnar-log encoding/decoding and query lookups.
#[derive(Debug)]
pub enum TraceError {
    /// The byte stream is not a valid columnar log (bad magic, truncated
    /// varint, out-of-range dictionary id, …).
    Decode(String),
    /// A query referenced a stream or column the log does not carry, or the
    /// column has the wrong type.
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
