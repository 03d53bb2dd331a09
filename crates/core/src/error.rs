//! Error types for the M×N component.

use std::fmt;

use mxn_runtime::RuntimeError;

/// Errors raised by M×N registration, connection and transfer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MxnError {
    /// A field name is already registered.
    FieldExists {
        /// The conflicting field name.
        field: String,
    },
    /// A field name is not registered.
    FieldNotFound {
        /// The missing field name.
        field: String,
    },
    /// Registered local storage does not match the descriptor.
    StorageMismatch {
        /// The field being registered.
        field: String,
        /// Elements the descriptor assigns to this rank.
        expected: usize,
        /// Elements the provided storage holds.
        actual: usize,
    },
    /// A field's access mode forbids the requested transfer direction.
    AccessDenied {
        /// The field involved.
        field: String,
        /// The access ("read" or "write") that was needed.
        needed: &'static str,
    },
    /// Source and destination descriptors disagree on global shape.
    ShapeMismatch {
        /// Human-readable description of the two shapes.
        detail: String,
    },
    /// A transfer was attempted on a closed (completed one-shot) connection.
    ConnectionClosed,
    /// Connection handshake produced inconsistent metadata.
    Handshake {
        /// What was inconsistent.
        detail: String,
    },
    /// A participating rank (on either side of the coupling) died during
    /// connection establishment or a collective transfer. Every surviving
    /// rank of the transfer reports this consistently — no partial silent
    /// delivery.
    PeerFailed {
        /// Rank of the failed participant as reported by the failing
        /// operation itself (the partner whose death was detected), not
        /// whichever dead rank a liveness scan happens to find first.
        rank: usize,
        /// Tag of the operation that detected the failure, when the error
        /// originated from a specific send/receive (`None` for failures
        /// found by a post-transfer liveness sweep or a commit vote).
        tag: Option<i32>,
    },
    /// A transactional transfer's collective commit vote failed: every
    /// surviving rank rolled the attempt back, so no rank holds partially
    /// delivered data. Heal the connection and retry the same sequence.
    TransferAborted {
        /// Recovery epoch the aborted attempt ran under.
        epoch: u64,
        /// Transfer sequence number that was rolled back.
        seq: u64,
    },
    /// A budgeted transfer was asked to run on a transactional
    /// connection. The commit vote needs every pairwise message staged at
    /// once, which a staging budget exists to forbid, so nothing was moved.
    BudgetedTransaction {
        /// The per-rank budget the transfer asked for.
        budget_bytes: u64,
    },
    /// Underlying messaging failure.
    Runtime(RuntimeError),
}

impl fmt::Display for MxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MxnError::FieldExists { field } => write!(f, "field `{field}` already registered"),
            MxnError::FieldNotFound { field } => write!(f, "field `{field}` not registered"),
            MxnError::StorageMismatch { field, expected, actual } => write!(
                f,
                "field `{field}`: descriptor assigns {expected} local elements but storage \
                 holds {actual}"
            ),
            MxnError::AccessDenied { field, needed } => {
                write!(f, "field `{field}` does not allow {needed} access")
            }
            MxnError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            MxnError::ConnectionClosed => write!(f, "connection is closed"),
            MxnError::Handshake { detail } => write!(f, "connection handshake failed: {detail}"),
            MxnError::PeerFailed { rank, tag } => match tag {
                Some(tag) => {
                    write!(f, "rank {rank} failed during an M×N operation (detected on tag {tag})")
                }
                None => write!(f, "rank {rank} failed during an M×N operation"),
            },
            MxnError::TransferAborted { epoch, seq } => write!(
                f,
                "transfer {seq} (epoch {epoch}) rolled back: the collective commit vote failed"
            ),
            MxnError::BudgetedTransaction { budget_bytes } => write!(
                f,
                "a {budget_bytes}-byte budgeted transfer cannot run transactionally: staging \
                 every message for the commit vote would break the budget"
            ),
            MxnError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for MxnError {}

impl From<RuntimeError> for MxnError {
    fn from(e: RuntimeError) -> Self {
        MxnError::Runtime(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, MxnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = MxnError::StorageMismatch { field: "rho".into(), expected: 8, actual: 4 };
        let s = e.to_string();
        assert!(s.contains("rho") && s.contains('8') && s.contains('4'));
    }

    #[test]
    fn runtime_conversion() {
        let e: MxnError = RuntimeError::Aborted.into();
        assert_eq!(e, MxnError::Runtime(RuntimeError::Aborted));
    }

    #[test]
    fn peer_failed_reports_origin() {
        let s = MxnError::PeerFailed { rank: 3, tag: Some(42) }.to_string();
        assert!(s.contains('3') && s.contains("42"), "{s}");
        let s = MxnError::PeerFailed { rank: 3, tag: None }.to_string();
        assert!(s.contains('3') && !s.contains("tag"), "{s}");
    }

    #[test]
    fn transfer_aborted_names_epoch_and_seq() {
        let s = MxnError::TransferAborted { epoch: 2, seq: 7 }.to_string();
        assert!(s.contains('2') && s.contains('7') && s.contains("rolled back"), "{s}");
    }
}
