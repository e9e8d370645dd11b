//! Errors for the query-flocks core.

use qf_datalog::DatalogError;
use qf_engine::EngineError;
use qf_storage::StorageError;

/// Errors raised while building, planning, or evaluating query flocks.
#[derive(Debug, Clone, PartialEq)]
pub enum FlockError {
    /// Error from the Datalog frontend.
    Datalog(DatalogError),
    /// Error from the relational engine.
    Engine(EngineError),
    /// Error from the storage layer.
    Storage(StorageError),
    /// Malformed filter condition text.
    FilterParse {
        /// The offending input.
        input: String,
        /// What went wrong.
        detail: String,
    },
    /// The filter references a head variable the query does not bind.
    FilterVarUnknown {
        /// The missing variable.
        var: String,
    },
    /// The flock's query is unsafe (a flock must itself be safe to have
    /// a finite answer to filter).
    UnsafeQuery {
        /// The safety violation, rendered.
        violation: String,
    },
    /// A query plan violates the §4.2 legality rule.
    IllegalPlan {
        /// Which rule was violated and where.
        detail: String,
    },
    /// An optimization requiring a monotone filter was asked of a
    /// non-monotone one (pruning would be unsound).
    NonMonotoneFilter,
    /// A `SUM` filter met a negative weight at evaluation time (the §5
    /// monotonicity precondition is violated by the data).
    NegativeWeight {
        /// The offending weight.
        detail: String,
    },
    /// A run journal could not be created, validated, or replayed
    /// (fingerprint mismatch, I/O failure, lock conflict).
    Journal {
        /// What went wrong.
        detail: String,
    },
    /// A journal snapshot failed integrity verification on replay
    /// (frame checksum, content hash, or relation-name mismatch).
    /// Recovery policy: the replayable prefix is truncated to just
    /// before this step and the rest is recomputed — poisoned state is
    /// never resumed from.
    SnapshotCorrupt {
        /// The step whose snapshot is corrupt.
        step: usize,
        /// What the verifier observed.
        detail: String,
    },
    /// The naive reference evaluator was asked to try more assignments
    /// than its safety cap (it is for tests on tiny data only).
    NaiveTooLarge {
        /// Number of assignments that would be tried.
        assignments: u128,
        /// The configured cap.
        cap: u128,
    },
}

impl std::fmt::Display for FlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlockError::Datalog(e) => write!(f, "{e}"),
            FlockError::Engine(e) => write!(f, "{e}"),
            FlockError::Storage(e) => write!(f, "{e}"),
            FlockError::FilterParse { input, detail } => {
                write!(f, "bad filter `{input}`: {detail}")
            }
            FlockError::FilterVarUnknown { var } => {
                write!(f, "filter references `{var}`, which is not a head variable")
            }
            FlockError::UnsafeQuery { violation } => {
                write!(f, "flock query is unsafe: {violation}")
            }
            FlockError::IllegalPlan { detail } => write!(f, "illegal query plan: {detail}"),
            FlockError::NonMonotoneFilter => write!(
                f,
                "filter is not monotone; a-priori pruning would be unsound"
            ),
            FlockError::NegativeWeight { detail } => write!(
                f,
                "negative weight under a SUM filter breaks monotonicity: {detail}"
            ),
            FlockError::Journal { detail } => write!(f, "journal error: {detail}"),
            FlockError::SnapshotCorrupt { step, detail } => {
                write!(f, "journal snapshot for step {step} is corrupt: {detail}")
            }
            FlockError::NaiveTooLarge { assignments, cap } => write!(
                f,
                "naive evaluation would try {assignments} assignments (cap {cap})"
            ),
        }
    }
}

impl std::error::Error for FlockError {}

impl From<DatalogError> for FlockError {
    fn from(e: DatalogError) -> Self {
        FlockError::Datalog(e)
    }
}

/// An engine error, except the §5 refusal: every `SUM` the engine
/// folds reads its weight through one operand rule, and its negative
/// weight surfaces as the flock-level [`FlockError::NegativeWeight`]
/// whichever route (direct, planned, §4.4, spilled, delta-maintained,
/// scattered) folded it.
impl From<EngineError> for FlockError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::NegativeWeight { weight } => FlockError::NegativeWeight {
                detail: format!("weight {weight}"),
            },
            e => FlockError::Engine(e),
        }
    }
}

impl From<StorageError> for FlockError {
    fn from(e: StorageError) -> Self {
        FlockError::Storage(e)
    }
}

/// Convenience alias for flock results.
pub type Result<T> = std::result::Result<T, FlockError>;
