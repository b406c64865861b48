//! Typed errors of the serving subsystem.
//!
//! The serving loop, batch formation, the durable journal, and the fleet
//! supervisor all report failures through one [`ServeError`] instead of
//! panicking: an internal inconsistency in a long-running server must
//! surface as a diagnosable value the driver can log and act on, not tear
//! the process down mid-request. Invariant violations that can only arise
//! from a bug (a planned queue position out of range, a mixed-class batch)
//! still carry enough context to pinpoint the broken step.

use std::error::Error;
use std::fmt;

/// Every failure the serving subsystem can report.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Batch assembly was handed an empty member set.
    EmptyBatch,
    /// Batch assembly was handed members of more than one geometry class.
    MixedClasses {
        /// The class of the batch head.
        expected: &'static str,
        /// The first non-matching member's class.
        found: &'static str,
    },
    /// The batch planner returned a queue position past the queue end —
    /// plan and queue went out of sync.
    PlanOutOfRange {
        /// The invalid position.
        pos: usize,
        /// Queue depth at the time.
        depth: usize,
    },
    /// A queued request's tenant was missing from the occupancy accounting.
    TenantUnaccounted {
        /// The unaccounted tenant.
        tenant: u32,
    },
    /// The request trace handed to the serving loop was not
    /// arrival-ordered.
    UnorderedTrace {
        /// Index of the first out-of-order request.
        index: usize,
    },
    /// The fleet loop exceeded its safety tick bound with accepted jobs
    /// still open — the virtual-time equivalent of a hung cluster.
    Stalled {
        /// The tick the loop gave up at.
        tick: u64,
        /// Accepted jobs still unfinished.
        open_jobs: usize,
    },
    /// The durable job journal failed to decode or replay.
    Journal(String),
    /// A configuration knob set is self-contradictory (autoscale bounds,
    /// hysteresis thresholds, planner sweep ranges).
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EmptyBatch => write!(f, "batch assembly on an empty member set"),
            ServeError::MixedClasses { expected, found } => write!(
                f,
                "batch assembly mixed geometry classes: head is {expected}, found {found}"
            ),
            ServeError::PlanOutOfRange { pos, depth } => write!(
                f,
                "batch plan position {pos} out of range for queue depth {depth}"
            ),
            ServeError::TenantUnaccounted { tenant } => {
                write!(f, "tenant {tenant} queued but missing from occupancy accounting")
            }
            ServeError::UnorderedTrace { index } => {
                write!(f, "request trace not arrival-ordered at index {index}")
            }
            ServeError::Stalled { tick, open_jobs } => write!(
                f,
                "fleet stalled: {open_jobs} accepted jobs still open at safety tick bound {tick}"
            ),
            ServeError::Journal(msg) => write!(f, "journal: {msg}"),
            ServeError::Config(msg) => write!(f, "configuration: {msg}"),
        }
    }
}

impl Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::EmptyBatch, "empty member set"),
            (
                ServeError::MixedClasses { expected: "small", found: "large" },
                "head is small, found large",
            ),
            (ServeError::PlanOutOfRange { pos: 9, depth: 3 }, "position 9"),
            (ServeError::TenantUnaccounted { tenant: 4 }, "tenant 4"),
            (ServeError::UnorderedTrace { index: 2 }, "index 2"),
            (ServeError::Stalled { tick: 100, open_jobs: 3 }, "3 accepted jobs"),
            (ServeError::Journal("bad record".into()), "bad record"),
            (ServeError::Config("min > max".into()), "min > max"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
        }
    }
}
