//! Storage-layer errors.

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A named relation is not in the catalog.
    UnknownRelation {
        /// The missing relation's name.
        name: String,
    },
    /// A row's arity does not match the schema it was inserted under.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Schema arity.
        expected: usize,
        /// Offending row arity.
        got: usize,
    },
    /// Malformed data file (TSV loader).
    Malformed {
        /// Human-readable description with line context.
        detail: String,
    },
    /// Underlying I/O failure, carried as kind + text so the error type
    /// stays `Clone + Eq` for test assertions while recovery policies
    /// can still classify it (transient vs. disk-full vs. hard).
    Io {
        /// The original error's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// The rendered `std::io::Error`.
        detail: String,
    },
    /// End-to-end integrity violation: a spill run or snapshot frame
    /// failed its checksum (or structural) verification on read. The
    /// bytes on disk are not the bytes that were written — bit rot, a
    /// torn write, or foreign truncation — and must never be served as
    /// data.
    Corruption {
        /// The corrupt file.
        path: String,
        /// Zero-based index of the first frame that failed verification
        /// (frame 0 covers the file header).
        frame: u64,
        /// What the verifier observed.
        detail: String,
    },
}

impl StorageError {
    /// Is this a transient I/O error worth a bounded retry (interrupted
    /// syscall, timeout, would-block)? Policy: retried with backoff at
    /// whole-file granularity; see DESIGN.md §8.
    pub fn is_transient(&self) -> bool {
        use std::io::ErrorKind;
        matches!(
            self,
            StorageError::Io {
                kind: ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock,
                ..
            }
        )
    }

    /// Is this an out-of-disk-space error (`ENOSPC`)? Policy: the spill
    /// sink frees completed runs and degrades to memory-only.
    pub fn is_disk_full(&self) -> bool {
        matches!(
            self,
            StorageError::Io {
                kind: std::io::ErrorKind::StorageFull,
                ..
            }
        )
    }

    /// Is this a detected integrity violation? Policy: recompute the
    /// producing partition (spill runs) or truncate the replayable
    /// prefix (journal snapshots).
    pub fn is_corruption(&self) -> bool {
        matches!(self, StorageError::Corruption { .. })
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownRelation { name } => write!(f, "unknown relation `{name}`"),
            StorageError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch inserting into `{relation}`: schema has {expected} columns, row has {got}"
            ),
            StorageError::Malformed { detail } => write!(f, "malformed data: {detail}"),
            StorageError::Io { detail, .. } => write!(f, "i/o error: {detail}"),
            StorageError::Corruption {
                path,
                frame,
                detail,
            } => write!(f, "corruption detected in {path} at frame {frame}: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// Convenience alias for storage results.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StorageError::UnknownRelation {
            name: "baskets".into(),
        };
        assert_eq!(e.to_string(), "unknown relation `baskets`");
        let e = StorageError::ArityMismatch {
            relation: "r".into(),
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("schema has 2"));
        let e = StorageError::Corruption {
            path: "/tmp/run-0.qfs".into(),
            frame: 3,
            detail: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("frame 3"), "{e}");
    }

    #[test]
    fn error_classification() {
        use std::io::ErrorKind;
        let transient = StorageError::from(std::io::Error::new(ErrorKind::TimedOut, "slow disk"));
        assert!(transient.is_transient());
        assert!(!transient.is_disk_full());
        let full = StorageError::from(std::io::Error::new(ErrorKind::StorageFull, "disk full"));
        assert!(full.is_disk_full());
        assert!(!full.is_transient());
        let corrupt = StorageError::Corruption {
            path: "x".into(),
            frame: 0,
            detail: "d".into(),
        };
        assert!(corrupt.is_corruption());
        assert!(!corrupt.is_transient());
        let hard = StorageError::from(std::io::Error::new(ErrorKind::PermissionDenied, "no"));
        assert!(!hard.is_transient() && !hard.is_disk_full() && !hard.is_corruption());
    }
}
