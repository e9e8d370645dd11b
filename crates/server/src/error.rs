//! Typed server errors and their stable wire kinds.

use qf_core::{EngineError, FlockError};

/// Everything a request can fail with. Each variant maps to a stable
/// one-token `kind` carried on the wire (`err <kind>` status line), so
/// clients can branch on failure class without parsing prose.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// The admission queue is full: the server is at capacity and this
    /// request was rejected *before* consuming any execution resources.
    /// Retry later.
    Overloaded {
        /// Jobs queued when the request arrived.
        queue_depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The server is at its connection cap: this connection was shed
    /// before consuming a thread or queue slot. Carries a retry-after
    /// hint. Wire kind is `overloaded`, same as the queue-full case —
    /// clients back off identically for both.
    ConnRejected {
        /// Live connections when this one arrived.
        live: usize,
        /// The configured connection cap.
        cap: usize,
        /// Suggested backoff before reconnecting, milliseconds.
        retry_after_ms: u64,
    },
    /// The request asked for more than the server's per-request caps
    /// allow, or its governed evaluation tripped a budget (rows or
    /// bytes — deadline trips are [`ServerError::Timeout`]).
    Budget(String),
    /// The request's admission-stamped deadline expired — in the queue
    /// (never executed), mid-evaluation (aborted by the governor), or
    /// waiting for a worker reply. Retryable for idempotent requests.
    Timeout {
        /// Where the deadline tripped: `queue`, `eval`, or `reply`.
        stage: &'static str,
        /// The effective deadline budget, milliseconds.
        budget_ms: u64,
    },
    /// The request was abandoned: its client disconnected and the
    /// governor's cancellation token stopped the job early.
    Cancelled,
    /// A shard died mid-scatter and the coordinator could not recover
    /// (re-scatter also failed). Retryable: the coordinator's catalog
    /// is intact and a fresh attempt re-partitions from it.
    ShardLost {
        /// Zero-based index of the lost shard.
        shard: usize,
        /// What the shard RPC failed with.
        detail: String,
    },
    /// A fragment-scoped `partial` named a fragment this worker does
    /// not hold, or holds at a *different* fingerprint (a stale copy
    /// that missed a catalog push). Deliberately **not** retryable on
    /// the same connection: re-asking the same worker cannot help, so
    /// the coordinator's per-shard client surfaces it immediately and
    /// the coordinator fails over to a replica.
    FragMissing {
        /// Fragment id the request named.
        frag: usize,
        /// Why the worker refused (missing vs fingerprint mismatch).
        detail: String,
    },
    /// The server is draining for shutdown; no new work is accepted.
    /// Carries the same retry-after hint [`ServerError::ConnRejected`]
    /// sends, so a retrying client backs off and lands on whatever
    /// replaces the draining server instead of hammering it.
    ShuttingDown {
        /// Suggested backoff before retrying elsewhere, milliseconds.
        retry_after_ms: u64,
    },
    /// The request frame or header line could not be understood.
    Proto(String),
    /// Flock/program/TSV text was rejected by a parser.
    Parse(String),
    /// Evaluation failed for a non-budget reason (unknown relation,
    /// unsafe query, …).
    Eval(String),
    /// Transport I/O failure (client side).
    Io(String),
}

impl ServerError {
    /// The stable wire token for this error class.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerError::Overloaded { .. } | ServerError::ConnRejected { .. } => "overloaded",
            ServerError::Budget(_) => "budget",
            ServerError::Timeout { .. } => "timeout",
            ServerError::Cancelled => "cancelled",
            ServerError::ShardLost { .. } => "shard-lost",
            ServerError::FragMissing { .. } => "no-frag",
            ServerError::ShuttingDown { .. } => "shutting-down",
            ServerError::Proto(_) => "proto",
            ServerError::Parse(_) => "parse",
            ServerError::Eval(_) => "eval",
            ServerError::Io(_) => "io",
        }
    }

    /// Is a *response* carrying this wire kind worth retrying? True for
    /// failures that are transient (`overloaded`, `timeout`,
    /// `shard-lost` — the cluster heals or re-partitions;
    /// `shutting-down` — the rejection certifies nothing ran, and a
    /// redial lands on whatever replaces the draining server) or that
    /// certify the request was never executed after a wire mangling
    /// (`proto` — the server could not even parse it, so resending is
    /// safe for any request, including mutations).
    pub fn retryable_kind(kind: &str) -> bool {
        matches!(
            kind,
            "overloaded" | "timeout" | "proto" | "shard-lost" | "shutting-down"
        )
    }
}

/// Classify an evaluation failure: deadline trips become typed
/// [`ServerError::Timeout`] errors, cancellation (the client went away)
/// [`ServerError::Cancelled`], other governor budget trips
/// [`ServerError::Budget`], parse-stage failures [`ServerError::Parse`],
/// everything else [`ServerError::Eval`].
impl From<FlockError> for ServerError {
    fn from(e: FlockError) -> ServerError {
        match &e {
            FlockError::Engine(EngineError::ResourceExhausted {
                resource: qf_core::Resource::Time,
                limit,
                ..
            }) => ServerError::Timeout {
                stage: "eval",
                budget_ms: *limit,
            },
            FlockError::Engine(EngineError::Cancelled) => ServerError::Cancelled,
            FlockError::Engine(EngineError::ResourceExhausted { .. }) => {
                ServerError::Budget(e.to_string())
            }
            FlockError::Datalog(_) | FlockError::FilterParse { .. } => {
                ServerError::Parse(e.to_string())
            }
            _ => ServerError::Eval(e.to_string()),
        }
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> ServerError {
        FlockError::Engine(e).into()
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "server overloaded: {queue_depth} request(s) queued (capacity {capacity})"
            ),
            ServerError::ConnRejected {
                live,
                cap,
                retry_after_ms,
            } => write!(
                f,
                "server at its connection cap: {live} live (cap {cap}); \
                 retry-after-ms={retry_after_ms}"
            ),
            ServerError::Budget(d) => write!(f, "budget: {d}"),
            ServerError::Timeout { stage, budget_ms } => {
                write!(f, "deadline exceeded in {stage} (budget {budget_ms} ms)")
            }
            ServerError::Cancelled => {
                f.write_str("request cancelled: client disconnected before the result was ready")
            }
            ServerError::ShardLost { shard, detail } => {
                write!(f, "shard {shard} lost mid-scatter: {detail}")
            }
            ServerError::FragMissing { frag, detail } => {
                write!(f, "fragment {frag} not served here: {detail}")
            }
            ServerError::ShuttingDown { retry_after_ms } => write!(
                f,
                "server is shutting down; retry-after-ms={retry_after_ms}"
            ),
            ServerError::Proto(d) => write!(f, "protocol: {d}"),
            ServerError::Parse(d) => write!(f, "parse: {d}"),
            ServerError::Eval(d) => write!(f, "evaluation: {d}"),
            ServerError::Io(d) => write!(f, "i/o: {d}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Server result alias.
pub type Result<T> = std::result::Result<T, ServerError>;
