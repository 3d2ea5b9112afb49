//! Error type for BDD operations.

use std::error::Error;
use std::fmt;

/// Errors produced by BDD construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// The manager's node limit was exceeded; the computation should fall
    /// back to a smaller sampling domain or a SAT-based path.
    NodeLimit {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// A variable index outside the allocated range was used.
    UnknownVar {
        /// The offending variable index.
        var: u32,
    },
    /// The manager's wall-clock deadline passed mid-computation.
    DeadlineExceeded,
    /// The manager's cooperative interrupt flag was set mid-computation.
    Cancelled,
    /// An event hook vetoed a garbage collection pass. Emitted
    /// only through hooks installed with `set_event_hook`; the
    /// fault-injection harness uses it to abort at deterministic points.
    Aborted,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit { limit } => {
                write!(f, "bdd node limit of {limit} nodes exceeded")
            }
            BddError::UnknownVar { var } => write!(f, "unknown bdd variable {var}"),
            BddError::DeadlineExceeded => write!(f, "bdd deadline exceeded"),
            BddError::Cancelled => write!(f, "bdd computation cancelled"),
            BddError::Aborted => write!(f, "bdd event aborted by hook"),
        }
    }
}

impl Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!BddError::NodeLimit { limit: 10 }.to_string().is_empty());
        assert!(!BddError::UnknownVar { var: 3 }.to_string().is_empty());
        assert!(!BddError::DeadlineExceeded.to_string().is_empty());
        assert!(!BddError::Cancelled.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BddError>();
    }
}
