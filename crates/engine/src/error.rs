//! Engine-layer errors.

use qf_storage::StorageError;

/// Errors raised while building or executing physical plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Error propagated from the storage layer (unknown relation, …).
    Storage(StorageError),
    /// A plan node referenced a column index outside its input's arity.
    ColumnOutOfRange {
        /// Offending index.
        column: usize,
        /// Arity of the input the index was applied to.
        arity: usize,
        /// Operator that made the reference.
        operator: &'static str,
    },
    /// Union inputs with different arities.
    UnionArityMismatch {
        /// Arity of the first input.
        first: usize,
        /// Arity of the mismatched input.
        other: usize,
    },
    /// An aggregate (`SUM`/`MIN`/`MAX`) was applied where its input
    /// column held a non-numeric value (SUM) on some row.
    AggregateType {
        /// Description of the violation.
        detail: String,
    },
    /// A `SUM` met a negative weight. The paper admits `SUM` filters
    /// only over non-negative weights (§5): a negative one breaks the
    /// monotonicity every a-priori prune relies on, so the aggregate
    /// refuses it wherever it folds.
    NegativeWeight {
        /// The offending weight.
        weight: i64,
    },
    /// A delta-maintenance operation (see [`crate::delta`]) was fed an
    /// update incoherent with its recorded state — e.g. a derivation
    /// removed that was never inserted. The maintained view can no
    /// longer be trusted and must be rebuilt from scratch.
    DeltaInvariant {
        /// Description of the violation.
        detail: String,
    },
    /// A governed execution exceeded one of its budgets (see
    /// [`crate::governor`]). `limit` and `observed` are in the
    /// resource's native unit: tuples for rows, bytes for memory,
    /// milliseconds for time.
    ResourceExhausted {
        /// Which budget was exceeded.
        resource: crate::governor::Resource,
        /// The configured limit.
        limit: u64,
        /// The value observed when the limit tripped.
        observed: u64,
    },
    /// The execution's [`crate::governor::CancelToken`] was tripped.
    Cancelled,
    /// A parallel worker thread panicked. The panic is caught at the
    /// worker boundary so shared state (the `ExecContext`) is never
    /// poisoned; the payload's message is preserved here.
    WorkerPanic {
        /// The panic payload's message, when it was a string.
        detail: String,
    },
    /// An armed fault point fired (see
    /// [`crate::governor::ExecContext::with_fault_point`]).
    FaultInjected {
        /// Operator whose invocation was failed.
        operator: &'static str,
        /// 1-based invocation count at which the fault fired.
        invocation: u64,
    },
}

impl EngineError {
    /// Is this a detected storage-integrity violation (see
    /// [`StorageError::is_corruption`])? The spill executor recomputes
    /// the affected pipeline (bounded) instead of failing.
    pub fn is_corruption(&self) -> bool {
        matches!(self, EngineError::Storage(e) if e.is_corruption())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::ColumnOutOfRange {
                column,
                arity,
                operator,
            } => write!(
                f,
                "{operator}: column {column} out of range for input of arity {arity}"
            ),
            EngineError::UnionArityMismatch { first, other } => {
                write!(f, "union inputs have arities {first} and {other}")
            }
            EngineError::AggregateType { detail } => write!(f, "aggregate type error: {detail}"),
            EngineError::NegativeWeight { weight } => {
                write!(f, "SUM over negative weight {weight}")
            }
            EngineError::DeltaInvariant { detail } => {
                write!(f, "delta maintenance invariant violated: {detail}")
            }
            EngineError::ResourceExhausted {
                resource,
                limit,
                observed,
            } => write!(
                f,
                "resource budget exceeded: {resource} limit {limit}, observed {observed}"
            ),
            EngineError::Cancelled => write!(f, "execution cancelled"),
            EngineError::WorkerPanic { detail } => {
                write!(f, "parallel worker panicked: {detail}")
            }
            EngineError::FaultInjected {
                operator,
                invocation,
            } => write!(f, "injected fault in {operator} (invocation {invocation})"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// Convenience alias for engine results.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_wraps_storage() {
        let e = EngineError::from(StorageError::UnknownRelation { name: "x".into() });
        assert_eq!(e.to_string(), "unknown relation `x`");
    }
}
