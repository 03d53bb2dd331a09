//! Error types for the message-passing runtime.

use std::fmt;
use std::time::Duration;

use crate::envelope::{Src, Tag};

/// Errors produced by runtime operations.
///
/// Most message-passing calls in a correct program cannot fail; the error
/// variants exist to surface *detectable* misuse (bad ranks, type confusion)
/// and to support deadlock and failure-injection experiments via
/// [`RuntimeError::Timeout`], [`RuntimeError::PeerDead`] and
/// [`RuntimeError::Corrupt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A receive with a deadline expired before a matching message arrived.
    ///
    /// This is the primary deadlock-detection mechanism used by the Figure 5
    /// PRMI synchronization experiments.
    Timeout {
        /// Human-readable description of what was being waited for.
        waiting_for: String,
        /// How long the caller actually waited before giving up.
        elapsed: Duration,
        /// The source pattern that was being matched.
        src: Src,
        /// The tag pattern that was being matched.
        tag: Tag,
    },
    /// The world was aborted because another rank panicked.
    Aborted,
    /// A blocking operation targeted (or was waiting on) a rank that died.
    ///
    /// Raised by the liveness registry consulted in `recv`/`recv_timeout`
    /// and the collectives, so peers of a dead rank fail fast instead of
    /// hanging. `rank` is the dead peer's rank in the caller's group.
    PeerDead {
        /// The dead peer, in the communicator-local numbering of the call.
        rank: usize,
    },
    /// A received envelope failed its integrity check (payload truncated or
    /// corrupted in flight, e.g. by an injected fault).
    Corrupt {
        /// Sending rank of the damaged envelope (group-local).
        src: usize,
        /// Tag of the damaged envelope.
        tag: i32,
    },
    /// A rank argument was outside the communicator's group.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The size of the communicator it was used with.
        size: usize,
    },
    /// A typed receive matched an envelope whose payload had a different
    /// concrete type.
    TypeMismatch {
        /// The type the receiver asked for.
        expected: &'static str,
        /// Sending rank of the mismatched envelope.
        src: usize,
        /// Tag of the mismatched envelope.
        tag: i32,
    },
    /// A collective was invoked with inconsistent arguments across ranks
    /// (detected where cheaply possible, e.g. mismatched counts).
    CollectiveMismatch {
        /// Description of the inconsistency.
        detail: String,
    },
    /// The communicator context was revoked by the recovery plane: a
    /// survivor called `Membership::revoke` (or `InterComm::revoke`) after
    /// observing a failure, poisoning every pending and future operation on
    /// that context so all participants fall out of the old epoch together.
    Revoked {
        /// The revoked context id (point-to-point context of the pair).
        context: u32,
    },
    /// A membership reconfiguration (expand or graceful contract) aborted
    /// before commit: the join-handshake vote was not unanimous, usually
    /// because a participant died mid-handshake. The *old* communicator is
    /// untouched and fully operational — this error IS the transactional
    /// rollback; the caller may retry with a fresh participant set.
    ReconfigAborted {
        /// The proposed (never-committed) context of the aborted attempt.
        context: u32,
        /// The attempt number that aborted.
        attempt: u64,
    },
    /// A message was refused before sending because its encoding exceeds
    /// what the transport can carry in one frame.
    PayloadTooLarge {
        /// Encoded payload size.
        bytes: usize,
        /// The transport's per-message limit.
        max: usize,
    },
}

impl RuntimeError {
    /// Builds a [`RuntimeError::Timeout`] recording what was waited on.
    pub fn timeout(waiting_for: impl Into<String>, elapsed: Duration, src: Src, tag: Tag) -> Self {
        RuntimeError::Timeout { waiting_for: waiting_for.into(), elapsed, src, tag }
    }

    /// True for the failure-detection variants (`Timeout`/`PeerDead`),
    /// the errors a caller can meaningfully retry or degrade around.
    pub fn is_failure_detection(&self) -> bool {
        matches!(self, RuntimeError::Timeout { .. } | RuntimeError::PeerDead { .. })
    }

    /// True when a peer was declared dead — including a *quarantined*
    /// wire-transport zombie, which poisons its rank through the same
    /// [`crate::Liveness`] registry and therefore surfaces as this variant.
    pub fn is_peer_dead(&self) -> bool {
        matches!(self, RuntimeError::PeerDead { .. })
    }

    /// True if the operation failed because its communicator was revoked;
    /// the caller should join the shrink/heal protocol rather than retry
    /// on the same context.
    pub fn is_revoked(&self) -> bool {
        matches!(self, RuntimeError::Revoked { .. })
    }

    /// True if a membership reconfiguration rolled back before commit; the
    /// caller's pre-reconfiguration communicator is still valid and a retry
    /// with a fresh participant set is safe.
    pub fn is_reconfig_aborted(&self) -> bool {
        matches!(self, RuntimeError::ReconfigAborted { .. })
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Timeout { waiting_for, elapsed, src, tag } => {
                write!(
                    f,
                    "timed out after {elapsed:?} waiting for {waiting_for} (src={src:?}, tag={tag:?})"
                )
            }
            RuntimeError::Aborted => write!(f, "world aborted (another rank panicked)"),
            RuntimeError::PeerDead { rank } => {
                write!(f, "peer rank {rank} died; operation cannot complete")
            }
            RuntimeError::Corrupt { src, tag } => {
                write!(f, "envelope (src={src}, tag={tag}) failed its integrity check")
            }
            RuntimeError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            RuntimeError::TypeMismatch { expected, src, tag } => write!(
                f,
                "type mismatch: receive of `{expected}` matched envelope (src={src}, tag={tag}) \
                 holding a different type"
            ),
            RuntimeError::CollectiveMismatch { detail } => {
                write!(f, "inconsistent collective arguments: {detail}")
            }
            RuntimeError::Revoked { context } => {
                write!(f, "communicator context {context} was revoked by the recovery plane")
            }
            RuntimeError::ReconfigAborted { context, attempt } => {
                write!(
                    f,
                    "membership reconfiguration attempt {attempt} (proposed context {context}) \
                     aborted; the old communicator remains valid"
                )
            }
            RuntimeError::PayloadTooLarge { bytes, max } => {
                write!(f, "encoded payload of {bytes} bytes exceeds the {max}-byte message limit")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Convenience alias used throughout the runtime.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_timeout() {
        let e = RuntimeError::timeout(
            "barrier round 2",
            Duration::from_millis(250),
            Src::Rank(1),
            Tag::Value(7),
        );
        let s = e.to_string();
        assert!(s.contains("barrier round 2"));
        assert!(s.contains("250ms"));
        assert!(s.contains("Rank(1)"));
    }

    #[test]
    fn display_peer_dead() {
        let e = RuntimeError::PeerDead { rank: 3 };
        assert!(e.to_string().contains("peer rank 3"));
    }

    #[test]
    fn display_corrupt() {
        let e = RuntimeError::Corrupt { src: 2, tag: 9 };
        let s = e.to_string();
        assert!(s.contains("src=2"));
        assert!(s.contains("integrity"));
    }

    #[test]
    fn display_invalid_rank() {
        let e = RuntimeError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("rank 9"));
        assert!(e.to_string().contains("size 4"));
    }

    #[test]
    fn display_type_mismatch_names_type() {
        let e = RuntimeError::TypeMismatch { expected: "alloc::vec::Vec<f64>", src: 1, tag: 7 };
        let s = e.to_string();
        assert!(s.contains("Vec<f64>"));
        assert!(s.contains("src=1"));
    }

    #[test]
    fn failure_detection_classification() {
        assert!(RuntimeError::PeerDead { rank: 0 }.is_failure_detection());
        assert!(
            RuntimeError::timeout("x", Duration::ZERO, Src::Any, Tag::Any).is_failure_detection()
        );
        assert!(!RuntimeError::Aborted.is_failure_detection());
    }

    #[test]
    fn revoked_classification_and_display() {
        let e = RuntimeError::Revoked { context: 6 };
        assert!(e.is_revoked());
        assert!(!e.is_failure_detection());
        assert!(e.to_string().contains("context 6"));
        assert!(!RuntimeError::Aborted.is_revoked());
    }

    #[test]
    fn reconfig_abort_classification_and_display() {
        let e = RuntimeError::ReconfigAborted { context: 8, attempt: 2 };
        assert!(e.is_reconfig_aborted());
        assert!(!e.is_failure_detection());
        assert!(!e.is_revoked());
        assert!(e.to_string().contains("attempt 2"));
        assert!(e.to_string().contains("remains valid"));
        assert!(!RuntimeError::Aborted.is_reconfig_aborted());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RuntimeError::Aborted, RuntimeError::Aborted);
        assert_ne!(RuntimeError::Aborted, RuntimeError::InvalidRank { rank: 0, size: 1 });
    }
}
