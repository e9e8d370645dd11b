//! `qf-server`: a resident query-flock service.
//!
//! Local `qfsh` runs pay three costs on every flock: catalog load,
//! plan search, and evaluation. A *resident* service amortizes all
//! three across requests and clients:
//!
//! - **Shared catalog** — relations load once and live behind a
//!   `RwLock`; every connection evaluates against the same data.
//! - **Admission control** — per-request budgets map onto the
//!   execution governor ([`qf_core::ExecContext`]); a bounded queue
//!   feeds a fixed worker pool, and overload is a typed, immediate
//!   [`Overloaded`](ServerError::Overloaded) rejection instead of an
//!   invisible backlog. Pool threads are divided fairly among the
//!   requests running at once.
//! - **Result cache with monotone reuse** — scored evaluations
//!   (`(params…, agg)` rows) are cached under the *canonical* program
//!   text + catalog fingerprint; a cached run at support `s` answers
//!   any request at `s' ≥ s` (any filter the baseline
//!   [subsumes](qf_core::FilterCondition::subsumes)) by re-filtering,
//!   bitwise identically to a cold evaluation. It is the service's
//!   one keyed store.
//!
//! The transport is a deliberately small length-framed request/response
//! protocol over TCP ([`frame`], [`protocol`]) built on `std::net` —
//! no external dependencies. `qfsh serve` and `qfsh client` wrap
//! [`Server`] and [`Client`].

pub mod cache;
pub mod client;
pub mod error;
pub mod frame;
pub mod net;
pub mod pool;
pub mod protocol;
pub mod report;
pub mod service;
pub mod shard;
pub mod transport;

pub use cache::{CacheKey, CachedResult, ResultCache};
pub use client::{Client, ClientConfig, ClientStats, TransportFactory};
pub use error::{Result, ServerError};
pub use net::Server;
pub use pool::{Job, JobPayload, WorkerPool};
pub use protocol::{parse_count, parse_millis, Request, RequestLimits, Response};
pub use report::{json_report, JsonObject};
pub use service::{Counters, FlockService, LocalHandler, RequestHandler, ServerConfig};
pub use shard::{Coordinator, ShardConfig, ShardConnector, ShardCounters, WorkerState};
pub use transport::{ChaosNet, NetChaos, Transport};
