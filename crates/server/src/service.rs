//! The resident flock service: shared catalog, admission budgets, and
//! the monotone result cache.
//!
//! [`FlockService`] is the transport-free heart of `qf serve` — it owns
//! the published catalog version, the result cache, and the
//! server-wide counters, and turns parsed [`Request`]s into
//! [`Response`]s. The TCP layer ([`crate::net`]) only frames bytes,
//! counts each request it answers, and decides *where* a request runs
//! (worker pool vs. connection thread); everything else observable
//! lives here, which is what makes the service unit-testable without
//! sockets.
//!
//! Two reports, each number in one of them: a request's meta carries
//! only that request's own facts ([`json_report`]), and `stats`
//! ([`FlockService::stats_json`]) alone carries the server-wide
//! counters. Both are written through the one [`JsonObject`] writer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use qf_core::{
    best_plan_with, direct_plan, execute_plan_scored_on, flock_result_from_scored, refilter_scored,
    vacuous_filter, CancelToken, DeltaLimits, ExecContext, ExecStats, FilterCondition, FlockDelta,
    FlockProgram, JoinOrderStrategy, LocalEvaluator, QueryFlock, StepEvaluator,
};
use qf_storage::{tsv, Database, Relation, StorageError, Wal, WalCounters, WalRecord};

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::error::{Result, ServerError};
use crate::pool::{Job, JobPayload};
use crate::protocol::{Request, RequestLimits, Response};
use crate::report::{json_report, JsonObject};

/// Server-side configuration: worker pool size, admission queue bound,
/// cache capacity, and per-request budget caps.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing flock requests (also the thread pool
    /// divided fairly among concurrent requests).
    pub threads: usize,
    /// Bounded admission queue: flock requests beyond this many waiting
    /// jobs are rejected with a typed `overloaded` error.
    pub queue_cap: usize,
    /// Result-cache capacity (scored evaluations).
    pub cache_entries: usize,
    /// Per-request cap on materialized tuples; requests asking for more
    /// are rejected, requests asking for nothing inherit the cap.
    pub max_rows: Option<u64>,
    /// Per-request cap on estimated materialized bytes.
    pub mem_budget: Option<u64>,
    /// Per-request wall-clock deadline cap, milliseconds. A client ask
    /// is min'd with this cap (never rejected): the effective value is
    /// stamped as an absolute deadline at admission time, and queue
    /// wait counts against it.
    pub timeout_ms: Option<u64>,
    /// Connection cap: connections beyond this many live at once are
    /// shed immediately with a typed `overloaded` response carrying a
    /// retry-after hint, before they consume a thread or queue slot.
    pub max_conns: usize,
    /// How long an idle keep-alive connection may sit between requests
    /// before being reaped, milliseconds.
    pub idle_timeout_ms: u64,
    /// How long a single read/write may stall *mid-frame* before the
    /// connection is reaped, milliseconds. This is the slow-loris
    /// bound: a peer that trickles a frame byte-at-a-time holds a
    /// connection slot for at most this long per stall, and never a
    /// worker slot (jobs are admitted only on complete frames).
    pub io_timeout_ms: u64,
    /// Backoff hint attached to shed connections, milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let threads = qf_core::default_threads();
        ServerConfig {
            threads,
            queue_cap: (threads * 4).max(4),
            cache_entries: 64,
            max_rows: None,
            mem_budget: None,
            timeout_ms: None,
            max_conns: 1024,
            idle_timeout_ms: 300_000,
            io_timeout_ms: 10_000,
            retry_after_ms: 200,
        }
    }
}

/// Server-wide counters, all lock-free.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests answered, every kind and outcome — refusals included —
    /// counted once by the connection that read them.
    pub requests: AtomicU64,
    /// Result-cache hits.
    pub cache_hits: AtomicU64,
    /// Result-cache misses (flock requests that evaluated).
    pub cache_misses: AtomicU64,
    /// Admission rejections: queue overflow + over-cap budgets.
    pub rejected: AtomicU64,
    /// Requests whose deadline expired — in the queue (never executed),
    /// mid-evaluation, or waiting for a worker reply.
    pub timeouts: AtomicU64,
    /// Jobs stopped early because their client disconnected (observed
    /// either before execution started or mid-plan via the governor's
    /// cancellation token).
    pub cancelled: AtomicU64,
    /// Connections shed at the connection cap before consuming any
    /// thread or queue slot.
    pub conn_rejected: AtomicU64,
    /// Live client connections.
    pub conns: AtomicUsize,
    /// Current admission queue depth (maintained by the worker pool).
    pub queue_depth: AtomicU64,
    /// High-water mark of the queue depth.
    pub queue_depth_max: AtomicU64,
    /// Flock requests currently executing.
    pub active: AtomicUsize,
    /// Worker threads alive in the pool.
    pub live_workers: AtomicUsize,
    /// `append`/`retract` batches applied through the delta
    /// cache-maintenance path (each batch counts once).
    pub delta_applied: AtomicU64,
    /// Cached results kept in place by a delta batch instead of being
    /// dropped: a delta join applied, or — on an entry's first touch —
    /// its view seeded from the post-batch catalog.
    pub delta_maintained: AtomicU64,
    /// Cached results a delta batch dropped for recompute — no
    /// maintenance state, or the seed/apply failed or overflowed its
    /// budget.
    pub delta_rebuilds: AtomicU64,
    /// Tuples rescanned by the bounded MIN/MAX re-check during delta
    /// maintenance (see [`qf_engine::RECHECK_BOUND`]).
    pub recheck_tuples: AtomicU64,
}

/// How a deployment executes requests. The net/pool layers are generic
/// over this: the standalone server ([`LocalHandler`]) hands admitted
/// jobs straight to its [`FlockService`], while the shard coordinator
/// substitutes scatter-gather execution — admission control, queueing,
/// deadline triage, and fair thread allocation stay identical.
pub trait RequestHandler: Send + Sync {
    /// The shared service state (config, counters, catalog, caches).
    fn service(&self) -> &Arc<FlockService>;

    /// Answer a light request on the connection thread (everything
    /// except `flock`/`partial`). Deployments that fan a mutation or
    /// `stats` out to other tiers override this.
    fn handle_light(&self, req: &Request) -> Response {
        self.service().handle_light(req)
    }

    /// Execute an admitted heavy job with `granted_threads` workers.
    /// Called on a pool worker thread.
    fn handle_admitted(&self, job: &Job, granted_threads: usize) -> Response;
}

/// The standalone (single-node) deployment: every job runs against the
/// local service.
pub struct LocalHandler {
    service: Arc<FlockService>,
}

impl LocalHandler {
    /// Wrap a service.
    pub fn new(service: Arc<FlockService>) -> LocalHandler {
        LocalHandler { service }
    }
}

impl RequestHandler for LocalHandler {
    fn service(&self) -> &Arc<FlockService> {
        &self.service
    }

    fn handle_admitted(&self, job: &Job, granted_threads: usize) -> Response {
        match &job.payload {
            JobPayload::Flock { text, support } => self.service.handle_flock_admitted(
                text,
                *support,
                &job.limits,
                granted_threads,
                job.deadline,
                Some(&job.cancel),
            ),
            JobPayload::Partial {
                text,
                scratch,
                frag,
            } => self.service.handle_partial_admitted(
                text,
                scratch,
                *frag,
                &job.limits,
                granted_threads,
                job.deadline,
                Some(&job.cancel),
            ),
            JobPayload::Append { rel, tsv, frag } => {
                self.service.handle_append_admitted(rel, tsv, *frag)
            }
            JobPayload::Retract { rel, tsv, frag } => {
                self.service.handle_retract_admitted(rel, tsv, *frag)
            }
        }
    }
}

/// The strategy labels one caller of [`FlockService::run_flock`]
/// reports in response meta, by how the answer was obtained.
pub(crate) struct Labels {
    /// Served from the result cache.
    pub hit: &'static str,
    /// Evaluated with a freshly searched plan.
    pub searched: &'static str,
    /// Evaluated with the direct (single-step) plan.
    pub direct: &'static str,
}

pub(crate) const LOCAL_LABELS: Labels = Labels {
    hit: "cache",
    searched: "static",
    direct: "direct",
};

const PARTIAL_LABELS: Labels = Labels {
    hit: "partial-cache",
    searched: "partial",
    direct: "partial",
};

/// The step evaluator of everything that runs on this node's own
/// catalog (or fragment).
pub(crate) const LOCAL_EVALUATOR: LocalEvaluator = LocalEvaluator {
    strategy: JoinOrderStrategy::Greedy,
};

/// Everything that differs between the callers of
/// [`FlockService::run_flock`] — the differences travel as data.
pub(crate) struct FlockRun<'a, E> {
    /// The parsed request (a `partial`'s mini-flock as a view-less
    /// program).
    pub program: &'a FlockProgram,
    /// The catalog view the run reads; its cache entry is keyed at the
    /// fingerprint of the relations the program reads there.
    pub db: &'a Database,
    /// Who answers each `FILTER` step: this node's engine, or a scatter
    /// over the shard fleet.
    pub evaluator: &'a E,
    /// Strategy labels for the response meta.
    pub labels: &'a Labels,
    /// `partial` semantics: run the direct plan, answer with the scored
    /// rows (aggregate kept), attach no maintenance state.
    pub partial: bool,
}

/// What [`FlockService::commit_record`] installed.
pub(crate) struct Commit {
    /// Catalog fingerprint before the mutation…
    pub old_fp: u64,
    /// …and after it.
    pub fp: u64,
    /// Tuples in the touched relation before the mutation…
    pub before: usize,
    /// …and after it (both 0 for bulk mutations, which name none).
    pub after: usize,
}

/// An `append`/`retract` committed to the master catalog, as the shard
/// coordinator forwards it to its workers.
pub(crate) struct DeltaCommit {
    /// The delta as parsed (its name matched the request's `rel=`).
    pub delta: Relation,
    /// A set difference rather than a union.
    pub retract: bool,
    /// The commit that applied it, with its own pre/post fingerprints.
    pub commit: Commit,
}

/// A successful [`FlockService::run_flock`].
pub(crate) struct FlockOutcome {
    /// The request's report, open for the caller's own keys.
    pub meta: JsonObject,
    /// The answer as TSV.
    pub body: String,
    /// Whether the result cache answered (nothing was evaluated).
    pub cache_hit: bool,
}

/// The resident service state shared by every connection and worker.
pub struct FlockService {
    /// The published catalog: one immutable version, replaced whole by
    /// each commit. The lock is held only to clone or swap the `Arc`,
    /// so a reader never waits out a commit's WAL write.
    db: RwLock<Arc<Database>>,
    /// Replicated catalog fragments installed by the coordinator's
    /// `sync` verb, by fragment id (each verified by its
    /// fingerprint). Kept apart from the master catalog — a worker
    /// hosting several replicas must evaluate each `partial` against
    /// exactly one fragment, or `COUNT`/`SUM` partials would
    /// double-count the overlap.
    frags: RwLock<BTreeMap<usize, Database>>,
    result_cache: Mutex<ResultCache>,
    /// Counters, public for the pool/net layers and tests.
    pub counters: Counters,
    /// Immutable configuration.
    pub config: ServerConfig,
    shutting_down: AtomicBool,
    /// The writer: each commit holds it across apply, WAL commit,
    /// compaction, publish and cache maintenance, so the log's record
    /// order, the published versions and the cache's maintenance all
    /// follow one commit order. It owns the write-ahead log behind
    /// `--data-dir`, absent for a purely in-memory server.
    writer: Mutex<Option<Wal>>,
    /// Durability counters: shared with the WAL when one is configured,
    /// all-zero otherwise (so `stats` always carries the fields).
    wal_counters: Arc<WalCounters>,
}

/// Locks here never protect panicking code paths, but a poisoned lock
/// must not take the whole server down either: recover the guard.
fn unpoison<'a, T>(
    r: std::result::Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

impl FlockService {
    /// Service over an initial catalog (possibly empty), no durability:
    /// mutations live only in memory.
    pub fn new(config: ServerConfig, db: Database) -> FlockService {
        FlockService::build(config, db, None)
    }

    /// Service over a WAL-recovered catalog: every mutation is
    /// committed (fsynced and read-back verified) to `wal` *before* it
    /// is installed or acknowledged, so a restart recovers exactly the
    /// acknowledged catalog. `db` must be the catalog [`Wal::open`]
    /// returned alongside `wal`.
    pub fn with_wal(config: ServerConfig, db: Database, wal: Wal) -> FlockService {
        FlockService::build(config, db, Some(wal))
    }

    fn build(config: ServerConfig, db: Database, wal: Option<Wal>) -> FlockService {
        let wal_counters = wal.as_ref().map_or_else(Default::default, Wal::counters);
        FlockService {
            db: RwLock::new(Arc::new(db)),
            frags: RwLock::new(BTreeMap::new()),
            result_cache: Mutex::new(ResultCache::new(config.cache_entries)),
            counters: Counters::default(),
            config,
            shutting_down: AtomicBool::new(false),
            writer: Mutex::new(wal),
            wal_counters,
        }
    }

    /// True once a shutdown request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flip the drain flag (idempotent).
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Handle a request that does not need the worker pool: everything
    /// except `Flock` (which goes through admission). Called on the
    /// connection thread.
    pub fn handle_light(&self, req: &Request) -> Response {
        let result = match req {
            Request::Ping => Ok((String::from("{}"), String::from("pong"))),
            Request::Stats => Ok((self.stats_json(), String::new())),
            Request::Shutdown => {
                self.begin_shutdown();
                Ok((String::from("{}"), String::from("draining")))
            }
            Request::Gen { kind, seed } => self.generate(kind, *seed),
            Request::Load { tsv } => self.load(tsv),
            Request::Sync {
                frag,
                fp,
                relations,
            } => self.sync_fragment(*frag, *fp, relations),
            Request::Fingerprint { text } => fingerprint(text),
            Request::Flock { .. }
            | Request::Partial { .. }
            | Request::Append { .. }
            | Request::Retract { .. } => Err(ServerError::Proto(
                "flock/partial/append/retract requests must go through admission".to_string(),
            )),
        };
        match result {
            Ok((meta, body)) => Response::Ok { meta, body },
            Err(e) => Response::from_error(&e),
        }
    }

    /// Evaluate a flock request with `granted_threads` workers, no
    /// pre-stamped deadline or cancellation (direct/embedded callers):
    /// the deadline, if any, starts now.
    pub fn handle_flock(
        &self,
        text: &str,
        support: Option<i64>,
        limits: &RequestLimits,
        granted_threads: usize,
    ) -> Response {
        let deadline = match self.admission_limits(limits) {
            Ok(eff) => eff
                .timeout_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            // Let the admitted path report the error uniformly.
            Err(_) => None,
        };
        self.handle_flock_admitted(text, support, limits, granted_threads, deadline, None)
    }

    /// Evaluate an admitted flock request: the deadline was stamped at
    /// admission (so queue wait already counts against it) and the
    /// cancellation token is shared with the connection thread, which
    /// trips it if the client hangs up. Called on a pool worker.
    pub fn handle_flock_admitted(
        &self,
        text: &str,
        support: Option<i64>,
        limits: &RequestLimits,
        granted_threads: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> Response {
        let outcome = parse_program(text, support).and_then(|program| {
            let db = self.snapshot();
            let run = FlockRun {
                program: &program,
                db: &db,
                evaluator: &LOCAL_EVALUATOR,
                labels: &LOCAL_LABELS,
                partial: false,
            };
            self.run_flock(run, limits, granted_threads, deadline, cancel)
        });
        self.respond(outcome.map(|o| (o.meta.finish(), o.body)))
    }

    /// Evaluate an admitted `partial` request: one scatter-gather step
    /// against the synced fragment `frag` names, answered with the
    /// **scored** relation so the coordinator can merge it
    /// algebraically. A `partial` without a fragment scope is refused
    /// typed `proto`. Called on a pool worker.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_partial_admitted(
        &self,
        text: &str,
        scratch: &[String],
        frag: Option<(usize, u64)>,
        limits: &RequestLimits,
        granted_threads: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> Response {
        let outcome = self
            .partial_view(text, scratch, frag)
            .and_then(|(program, db)| {
                let run = FlockRun {
                    program: &program,
                    db: &db,
                    evaluator: &LOCAL_EVALUATOR,
                    labels: &PARTIAL_LABELS,
                    partial: true,
                };
                self.run_flock(run, limits, granted_threads, deadline, cancel)
            });
        self.respond(outcome.map(|o| (o.meta.finish(), o.body)))
    }

    /// What a `partial` runs over: the mini-flock as a view-less
    /// program, and the fragment-plus-scratch catalog view. Its cache
    /// key folds the relations it reads there — scratch overlays
    /// included — by content, so a step re-scattered with the same
    /// upstream outputs hits, and any change to either misses.
    fn partial_view(
        &self,
        text: &str,
        scratch: &[String],
        frag: Option<(usize, u64)>,
    ) -> Result<(FlockProgram, Database)> {
        let (id, fp) = frag.ok_or_else(|| {
            ServerError::Proto("partial needs a fragment scope (frag= and frag-fp=)".to_string())
        })?;
        let parse = |e: qf_core::FlockError| ServerError::Parse(e.to_string());
        let flock = QueryFlock::parse(text).map_err(parse)?;
        let program = FlockProgram::new(Vec::new(), flock).map_err(parse)?;
        let mut db = self.fragment_snapshot(id, fp)?;
        for tsv_text in scratch {
            let rel = tsv::read_tsv(std::io::Cursor::new(tsv_text.as_bytes()))
                .map_err(|e| ServerError::Parse(e.to_string()))?;
            db.insert(rel);
        }
        Ok((program, db))
    }

    /// The one flock request pipeline: admit → key → monotone cache
    /// lookup → (miss) plan → execute → make maintainable → cache →
    /// report. Every `flock` and `partial`, on a standalone server, a
    /// shard worker or the coordinator, is answered here; the callers
    /// differ only in the [`FlockRun`] they pass.
    pub(crate) fn run_flock<E: StepEvaluator>(
        &self,
        run: FlockRun<'_, E>,
        limits: &RequestLimits,
        granted_threads: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> Result<FlockOutcome>
    where
        ServerError: From<E::Error>,
    {
        let start = Instant::now();
        let flock = run.program.flock();
        let filter = *flock.filter();
        // Cache comparisons use the *canonical* filter (aggregate named
        // by head position): the key's canonical query text renames
        // head variables, so the raw variable name is meaningless across
        // entries — `SUM(answer.W)` is a different column in
        // `answer(B,W)` than in `answer(W,Z)`.
        let canonical_filter = flock.canonical_filter();
        let effective = self.admission_limits(limits)?;
        let reads = run.program.reads();
        let key = CacheKey {
            query: run.program.canonical_query_text(),
            agg_pos: flock.agg_head_pos(),
            catalog_fp: run.db.fingerprint_of(reads.iter().map(|p| p.as_str())),
        };
        // The response body for scored rows complete for `baseline`: a
        // `partial` keeps the aggregate column, a flock projects it
        // away; both re-filter down to the requested condition.
        let body_of = |scored: &Relation, baseline: &FilterCondition| {
            if !run.partial {
                flock_result_from_scored(flock, scored, &filter)
            } else if *baseline == canonical_filter {
                scored.clone()
            } else {
                refilter_scored(scored, &filter, scored.schema().clone())
            }
        };
        let outcome = |label: &str, answer: &Relation, stats: &ExecStats, hit| FlockOutcome {
            meta: json_report(
                label,
                answer.len(),
                start.elapsed().as_millis(),
                stats,
                0,
                0,
                hit,
            ),
            body: render_tsv(answer),
            cache_hit: hit,
        };

        // Monotone cache reuse: an entry whose baseline subsumes the
        // requested filter answers it exactly by re-filtering.
        if let Some(hit) = unpoison(self.result_cache.lock()).lookup(&key, &canonical_filter) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            let answer = body_of(&hit.scored, &hit.baseline);
            return Ok(outcome(
                run.labels.hit,
                &answer,
                &ExecStats::default(),
                true,
            ));
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Cold path: governed scored evaluation.
        let ctx = self.exec_context(&effective, granted_threads, deadline, cancel);
        let extended =
            run.program
                .materialize_views_with(run.db, JoinOrderStrategy::Greedy, &ctx)?;

        // Plan: a `partial` *is* one step of a plan its coordinator
        // already searched, so it runs direct. Otherwise a monotone
        // flock searches (full-catalog statistics, also on the
        // coordinator), and everything else — or a failed search —
        // runs direct.
        let searched = (!run.partial && filter.is_monotone())
            .then(|| best_plan_with(flock, &extended, &ctx).ok())
            .flatten();
        let (plan, strategy) = match searched {
            Some((plan, _)) => (plan, run.labels.searched),
            None => (direct_plan(flock)?, run.labels.direct),
        };

        let scored = execute_plan_scored_on(&plan, &extended, run.evaluator, &ctx, None)?;
        let baseline = FilterCondition {
            agg: canonical_filter.agg,
            ..scored.baseline
        };
        let answer = body_of(&scored.scored, &baseline);
        // Delta-maintainable flocks (single rule, no negation, no
        // views) get an *unseeded* incremental-maintenance handle
        // alongside the scored rows — nothing is evaluated on the
        // request path. The first `append`/`retract` batch on a touched
        // relation seeds it and later ones update the entry in place
        // instead of dropping it. A `partial` reads a fragment and
        // scratch overlays, which no commit to the master catalog
        // describes, so those entries are never maintained.
        let delta = (!run.partial && run.program.views().is_empty())
            .then(|| FlockDelta::new(flock).ok())
            .flatten()
            .map(|d| Arc::new(Mutex::new(d)));
        unpoison(self.result_cache.lock()).insert(
            key,
            CachedResult {
                baseline,
                scored: scored.scored,
                strategy: strategy.to_string(),
                delta,
            },
        );
        Ok(outcome(strategy, &answer, &ctx.stats(), false))
    }

    /// Finish an admitted request: turn its outcome into the wire
    /// response — noting deadline expiries and client-disconnect
    /// cancellations on the way.
    pub(crate) fn respond(&self, outcome: Result<(String, String)>) -> Response {
        match outcome {
            Ok((meta, body)) => Response::Ok { meta, body },
            Err(e) => {
                match &e {
                    ServerError::Timeout { .. } => self.note_timeout(),
                    ServerError::Cancelled => self.note_cancelled(),
                    _ => {}
                }
                Response::from_error(&e)
            }
        }
    }

    /// Build the governed execution context for an admitted request:
    /// effective budgets, fair thread grant, and the admission-stamped
    /// absolute deadline (queue wait already spent) in preference to a
    /// relative timeout that would restart the clock.
    fn exec_context(
        &self,
        effective: &RequestLimits,
        granted_threads: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> ExecContext {
        let threads = effective
            .threads
            .map_or(granted_threads, |n| n.min(granted_threads))
            .max(1);
        let limits = RequestLimits {
            threads: Some(threads),
            ..*effective
        };
        let mut ctx = limits.context();
        if let Some(d) = deadline {
            // Replaces the relative timeout `context` started.
            ctx = ctx.with_deadline(d);
        }
        if let Some(tok) = cancel {
            ctx = ctx.with_cancel_token(tok.clone());
        }
        ctx
    }

    /// Reject requests whose row/byte asks exceed the server's
    /// per-request caps; otherwise resolve the effective budgets (ask,
    /// or cap, or none). The timeout is different: a client ask is
    /// **min'd** with the server cap rather than rejected — an
    /// impatient client is harmless, and the server cap guarantees no
    /// request outlives it either way.
    pub fn admission_limits(&self, limits: &RequestLimits) -> Result<RequestLimits> {
        fn cap(name: &str, ask: Option<u64>, cap: Option<u64>) -> Result<Option<u64>> {
            match (ask, cap) {
                (Some(a), Some(c)) if a > c => Err(ServerError::Budget(format!(
                    "requested {name}={a} exceeds the server cap {c}"
                ))),
                (Some(a), _) => Ok(Some(a)),
                (None, c) => Ok(c),
            }
        }
        let timeout_ms = match (limits.timeout_ms, self.config.timeout_ms) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (ask, cap) => ask.or(cap),
        };
        Ok(RequestLimits {
            max_rows: cap("max-rows", limits.max_rows, self.config.max_rows)?,
            mem_budget: cap("mem-budget", limits.mem_budget, self.config.mem_budget)?,
            timeout_ms,
            threads: limits.threads,
        })
    }

    /// Note a deadline expiry (queue, eval, or reply stage).
    pub fn note_timeout(&self) {
        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Note a job stopped early because its client disconnected.
    pub fn note_cancelled(&self) {
        self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// The published catalog version: an `Arc` clone, taken under a
    /// lock no commit holds for longer than a pointer swap, so it never
    /// waits out a WAL write. The version is immutable; a later commit
    /// publishes a new one beside it.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.db.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn generate(&self, kind: &str, seed: u64) -> Result<(String, String)> {
        let (rels, note) = qf_datagen::demo(kind, seed).map_err(ServerError::Proto)?;
        let record = WalRecord::Put {
            relations: rels.iter().map(render_tsv).collect(),
        };
        let fp = self.commit_record(&record, None)?.fp;
        Ok((JsonObject::new().hex("fp", fp).finish(), note))
    }

    /// Install one replicated catalog fragment (the `sync` verb): parse
    /// the shipped TSV sections, verify the assembled fragment's
    /// content-based fingerprint against the coordinator's declared
    /// `fp`, and only then swap it in. A torn or corrupted ship is
    /// rejected with a retryable `proto` error *before* touching the
    /// stored fragment, so a worker never serves bytes the coordinator
    /// did not certify. Idempotent by construction.
    fn sync_fragment(
        &self,
        frag: usize,
        fp: u64,
        relations: &[String],
    ) -> Result<(String, String)> {
        let mut db = Database::new();
        for text in relations {
            let rel = tsv::read_tsv(std::io::Cursor::new(text.as_bytes()))
                .map_err(|e| ServerError::Parse(e.to_string()))?;
            db.insert(rel);
        }
        let got = db.fingerprint();
        if got != fp {
            return Err(ServerError::Proto(format!(
                "sync of fragment {frag} arrived with fingerprint {got:016x}, expected {fp:016x}"
            )));
        }
        let n = relations.len();
        self.frags
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(frag, db);
        Ok((
            JsonObject::new()
                .value("frag", frag)
                .value("relations", n)
                .finish(),
            format!("synced fragment {frag} [{n} relation(s)]"),
        ))
    }

    /// The stored fragment for a fragment-scoped `partial`, validated
    /// against the coordinator's expected fingerprint. Missing or stale
    /// (fingerprint mismatch — the fragment missed a catalog push while
    /// this worker was down) both answer typed `no-frag`, which the
    /// coordinator treats as "fail over and re-sync", never "retry me".
    fn fragment_snapshot(&self, frag: usize, fp: u64) -> Result<Database> {
        let frags = self.frags.read().unwrap_or_else(|e| e.into_inner());
        let db = frags.get(&frag).ok_or_else(|| no_such_fragment(frag))?;
        let have = db.fingerprint();
        if have != fp {
            return Err(ServerError::FragMissing {
                frag,
                detail: format!("stale copy {have:016x}, coordinator expects {fp:016x}"),
            });
        }
        Ok(db.clone())
    }

    /// Number of synced fragments this worker holds.
    pub fn fragment_count(&self) -> usize {
        self.frags.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Apply a fragment-scoped `append`/`retract` (coordinator use):
    /// mutate the named fragment's catalog in place through the same
    /// WAL apply routine the master path uses, then verify the result
    /// against the coordinator's declared post-delta fingerprint.
    /// Missing fragment or fingerprint mismatch both answer typed
    /// `no-frag` — the coordinator falls back to a full fragment
    /// re-sync, so a drifted replica can never silently diverge. Not
    /// WAL-logged: fragments are derived state, rebuilt by `sync` on
    /// recovery from the coordinator's own durable catalog.
    fn frag_mutate(
        &self,
        rel: &str,
        record: &WalRecord,
        (frag, expect_fp): (usize, u64),
    ) -> Result<(String, String)> {
        let mut frags = self.frags.write().unwrap_or_else(|e| e.into_inner());
        let mut next = frags
            .get(&frag)
            .ok_or_else(|| no_such_fragment(frag))?
            .clone();
        Wal::apply(&mut next, record).map_err(storage_error)?;
        let fp = next.fingerprint();
        if fp != expect_fp {
            return Err(ServerError::FragMissing {
                frag,
                detail: format!(
                    "delta left fragment at {fp:016x}, coordinator expects {expect_fp:016x}"
                ),
            });
        }
        frags.insert(frag, next);
        let verb = match record {
            WalRecord::Retract { .. } => "retracted from",
            _ => "appended to",
        };
        Ok((
            JsonObject::new()
                .value("frag", frag)
                .string("relation", rel)
                .hex("fp", fp)
                .finish(),
            format!("delta {verb} `{rel}` in fragment {frag}"),
        ))
    }

    fn load(&self, text: &str) -> Result<(String, String)> {
        let rel = tsv::read_tsv(std::io::Cursor::new(text.as_bytes()))
            .map_err(|e| ServerError::Parse(e.to_string()))?;
        let name = rel.name().to_string();
        let n = rel.len();
        let record = WalRecord::Put {
            relations: vec![text.to_string()],
        };
        let fp = self.commit_record(&record, None)?.fp;
        Ok((
            JsonObject::new()
                .string("relation", &name)
                .value("tuples", n)
                .hex("fp", fp)
                .finish(),
            format!("loaded {name} [{n} tuples]"),
        ))
    }

    /// Handle an admitted `append`: stream a TSV delta into one
    /// relation (set-semantics union) through the WAL. Admitted rather
    /// than light because the union re-sorts the whole target relation
    /// and the durable commit fsyncs. Called on a pool worker.
    pub fn handle_append_admitted(
        &self,
        rel: &str,
        tsv: &str,
        frag: Option<(usize, u64)>,
    ) -> Response {
        self.respond(self.mutate(rel, tsv, frag, false).map(|(reply, _)| reply))
    }

    /// Handle an admitted `retract`: subtract a TSV delta from one
    /// relation (set-semantics difference; absent tuples are ignored)
    /// through the WAL. Admitted for the same reason as `append`.
    /// Called on a pool worker.
    pub fn handle_retract_admitted(
        &self,
        rel: &str,
        tsv: &str,
        frag: Option<(usize, u64)>,
    ) -> Response {
        self.respond(self.mutate(rel, tsv, frag, true).map(|(reply, _)| reply))
    }

    /// One streaming delta (`append`, or `retract` when `retract`) on
    /// the master catalog, or on a synced fragment when `frag` names
    /// one. A master commit also hands back the parsed delta and its
    /// commit, for the shard coordinator to forward.
    pub(crate) fn mutate(
        &self,
        rel: &str,
        tsv_text: &str,
        frag: Option<(usize, u64)>,
        retract: bool,
    ) -> Result<((String, String), Option<DeltaCommit>)> {
        let verb = if retract { "retract" } else { "append" };
        // Parse before touching the WAL so a malformed delta fails
        // typed without a durability round trip, and cross-check the
        // request header's relation name against the TSV's own — a
        // mis-framed body can never mutate the wrong relation.
        let delta = tsv::read_tsv(std::io::Cursor::new(tsv_text.as_bytes()))
            .map_err(|e| ServerError::Parse(e.to_string()))?;
        if delta.name() != rel {
            return Err(ServerError::Proto(format!(
                "{verb} header names rel={rel} but the TSV header names {}",
                delta.name()
            )));
        }
        let record = delta_record(tsv_text.to_string(), retract);
        if let Some(scope) = frag {
            return Ok((self.frag_mutate(rel, &record, scope)?, None));
        }
        let commit = self.commit_record(&record, Some(rel))?;
        let (fp, after) = (commit.fp, commit.after);
        // A union only grows the relation, a difference only shrinks it.
        let changed = commit.before.abs_diff(after);
        let (key, note) = if retract {
            (
                "removed",
                format!("retracted {changed} tuple(s) from {rel} [{after} remaining]"),
            )
        } else {
            (
                "added",
                format!("appended {changed} new tuple(s) to {rel} [{after} total]"),
            )
        };
        let meta = JsonObject::new()
            .string("relation", rel)
            .value("tuples", after)
            .value(key, changed)
            .hex("fp", fp)
            .finish();
        let committed = DeltaCommit {
            delta,
            retract,
            commit,
        };
        Ok(((meta, note), Some(committed)))
    }

    /// Apply one catalog mutation: apply the record to a copy of the
    /// published catalog, commit it durably to the WAL (when
    /// configured), then publish the copy and fix up the caches — all
    /// under the writer mutex, so commits publish and maintain the cache
    /// in commit order. Nothing is published — let alone acknowledged —
    /// unless the record is already durable, so a crash at any point
    /// recovers a prefix of the acknowledged mutations, never a
    /// half-applied one. Returns the catalog fingerprint on either side
    /// of the mutation — the values clients and the shard coordinator
    /// verify installs against — and the touched relation's size on
    /// either side, so concurrent mutations each report their own
    /// effect.
    ///
    /// `touched` narrows cache maintenance for single-relation deltas:
    /// only the entries whose query reads that relation are visited
    /// ([`FlockService::maintain_entry`]); every other entry's read set,
    /// and so its key, is unchanged. `None` (bulk mutations) clears the
    /// cache.
    pub(crate) fn commit_record(
        &self,
        record: &WalRecord,
        touched: Option<&str>,
    ) -> Result<Commit> {
        let mut wal = unpoison(self.writer.lock());
        let old = self.snapshot();
        let mut next = Database::clone(&old);
        Wal::apply(&mut next, record).map_err(storage_error)?;
        let fp = next.fingerprint();
        if let Some(w) = wal.as_mut() {
            w.commit(record, fp).map_err(storage_error)?;
            // A failed compaction is non-fatal: the record above is
            // already durable and the old snapshot generation stays
            // authoritative — the log just keeps growing.
            if let Err(e) = w.maybe_compact(&next) {
                eprintln!("qf-serve: wal compaction failed ({e}); log keeps growing");
            }
        }
        let next = Arc::new(next);
        *self.db.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&next);
        let size = |db: &Database| {
            touched
                .and_then(|rel| db.get(rel).ok())
                .map_or(0, Relation::len)
        };
        let commit = Commit {
            old_fp: old.fingerprint(),
            fp,
            before: size(&old),
            after: size(&next),
        };
        let mut cache = unpoison(self.result_cache.lock());
        match touched {
            Some(rel) => {
                self.counters.delta_applied.fetch_add(1, Ordering::Relaxed);
                cache.maintain(rel, &mut |key, entry| {
                    self.maintain_entry(key, entry, rel, &old, &next)
                });
            }
            None => cache.clear(),
        }
        Ok(commit)
    }

    /// Try to maintain one cache entry reading `rel` across a commit
    /// from `old` to `new`, returning its new read-set fingerprint, or
    /// `None` to drop it.
    ///
    /// It is a compare-and-swap on the entry's own read set: the entry
    /// is maintained only if its key is the fingerprint of the relations
    /// its flock reads in `old`, the version this commit changed. An
    /// entry computed against an earlier version — by a reader that
    /// snapshotted before an earlier commit and inserted after that
    /// commit's maintenance — is dropped silently: this batch's delta
    /// would not lead it to `new`'s answer.
    ///
    /// Maintenance evaluates the delta join for the relation's pre/post
    /// images — or, on the entry's first touch, seeds its view from
    /// `new` — refreshes the entry's scored rows from the maintained
    /// multiset, and widens its baseline to vacuous (the maintained rows
    /// are the *full* unfiltered answer, so the entry now serves every
    /// threshold). An entry without maintenance state, or whose apply
    /// fails, is dropped for a cold recompute and counted.
    fn maintain_entry(
        &self,
        key: &CacheKey,
        entry: &mut CachedResult,
        rel: &str,
        old: &Database,
        new: &Database,
    ) -> Option<u64> {
        let Some(handle) = entry.delta.clone() else {
            self.counters.delta_rebuilds.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut view = unpoison(handle.lock());
        let read_set = |db: &Database| db.fingerprint_of(view.predicates().iter().copied());
        if key.catalog_fp != read_set(old) {
            return None;
        }
        let new_fp = read_set(new);
        let (before, after) = match (old.get(rel).ok(), new.get(rel).ok()) {
            (Some(o), Some(n)) => (o.clone(), n.clone()),
            (None, Some(n)) => (Relation::empty(n.schema().clone()), n.clone()),
            (Some(o), None) => (o.clone(), Relation::empty(o.schema().clone())),
            // The record named this relation but did not create or
            // change it: the entry is still exact as-is.
            (None, None) => return Some(new_fp),
        };
        let applied = view
            .apply(rel, &before, &after, new, &DeltaLimits::default())
            .and_then(|r| {
                let schema = entry.scored.schema();
                let names = schema.columns()[..schema.arity() - 1].to_vec();
                view.scored_relation(&names).map(|scored| (r, scored))
            });
        match applied {
            Ok((r, scored)) => {
                entry.scored = scored;
                entry.baseline = vacuous_filter(&entry.baseline);
                entry.strategy = "delta".to_string();
                self.counters
                    .delta_maintained
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .recheck_tuples
                    .fetch_add(r.recheck_tuples, Ordering::Relaxed);
                Some(new_fp)
            }
            Err(_) => {
                // A failed apply (or seed) leaves the view undefined:
                // drop the entry; the next request recomputes cold (and
                // attaches a fresh unseeded handle).
                self.counters.delta_rebuilds.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Server-wide counters as a one-line JSON object (`stats`).
    pub fn stats_json(&self) -> String {
        self.stats().finish()
    }

    /// The `stats` report, open for a coordinator's fleet rollup.
    pub(crate) fn stats(&self) -> JsonObject {
        let c = &self.counters;
        let w = self.wal_counters.stats();
        let db = self.snapshot();
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        JsonObject::new()
            .value("requests", load(&c.requests))
            .value("cache_hits", load(&c.cache_hits))
            .value("cache_misses", load(&c.cache_misses))
            .value("rejected", load(&c.rejected))
            .value("timeouts", load(&c.timeouts))
            .value("cancelled", load(&c.cancelled))
            .value("conn_rejected", load(&c.conn_rejected))
            .value("conns", c.conns.load(Ordering::Relaxed))
            .value("queue_depth", load(&c.queue_depth))
            .value("queue_depth_max", load(&c.queue_depth_max))
            .value("active", c.active.load(Ordering::Relaxed))
            .value("live_workers", c.live_workers.load(Ordering::Relaxed))
            .value("cached_results", unpoison(self.result_cache.lock()).len())
            .value("relations", db.len())
            .value("tuples", db.total_tuples())
            .hex("fp", db.fingerprint())
            .value("delta_applied", load(&c.delta_applied))
            .value("delta_maintained", load(&c.delta_maintained))
            .value("delta_rebuilds", load(&c.delta_rebuilds))
            .value("recheck_tuples", load(&c.recheck_tuples))
            .value("wal_records", w.wal_records)
            .value("wal_bytes", w.wal_bytes)
            .value("snapshots", w.snapshots)
            .value("compactions", w.compactions)
            .value("recovered_records", w.recovered_records)
            .value("recovery_ms", w.recovery_ms)
            .value("frags", self.fragment_count())
            .value("shutting_down", self.is_shutting_down())
    }
}

/// Map storage-layer failures onto wire errors: malformed TSV and
/// mismatched delta schemas are the client's fault (`parse`);
/// everything else — I/O, detected corruption, a poisoned WAL — is the
/// server's (`io`, not retryable: a mutation that failed ambiguously
/// must not be replayed blind).
fn storage_error(e: StorageError) -> ServerError {
    match &e {
        StorageError::Malformed { .. } | StorageError::ArityMismatch { .. } => {
            ServerError::Parse(e.to_string())
        }
        _ => ServerError::Io(e.to_string()),
    }
}

/// The WAL record of an `append` (or, when `retract`, a `retract`) of
/// `tsv`.
pub(crate) fn delta_record(tsv: String, retract: bool) -> WalRecord {
    if retract {
        WalRecord::Retract { tsv }
    } else {
        WalRecord::Append { tsv }
    }
}

/// The typed refusal for a fragment this worker was never synced.
fn no_such_fragment(frag: usize) -> ServerError {
    ServerError::FragMissing {
        frag,
        detail: "no such fragment synced to this worker".to_string(),
    }
}

/// Parse a program, optionally overriding the filter threshold (the
/// `support=` request key — lets clients sweep thresholds over one
/// body, which is exactly the monotone-reuse sweet spot).
pub(crate) fn parse_program(text: &str, support: Option<i64>) -> Result<FlockProgram> {
    let program = FlockProgram::parse(text).map_err(|e| ServerError::Parse(e.to_string()))?;
    match support {
        None => Ok(program),
        Some(threshold) => {
            let old = program.flock().filter();
            let filter = FilterCondition { threshold, ..*old };
            let flock = QueryFlock::new(program.flock().query().clone(), filter)
                .map_err(|e| ServerError::Parse(e.to_string()))?;
            FlockProgram::new(program.views().to_vec(), flock)
                .map_err(|e| ServerError::Parse(e.to_string()))
        }
    }
}

/// Canonicalize a program and fingerprint it (`fingerprint` request —
/// also behind the shell's `flock fingerprint` command).
fn fingerprint(text: &str) -> Result<(String, String)> {
    let program = FlockProgram::parse(text).map_err(|e| ServerError::Parse(e.to_string()))?;
    let meta = JsonObject::new()
        .hex("fingerprint", program.fingerprint())
        .value("params", program.flock().params().len())
        .finish();
    Ok((meta, program.canonical_text()))
}

/// Render a relation as TSV text — the response body format. Stable
/// bytes for a given relation, which is what makes "identical result
/// bytes" for cache hits a checkable guarantee.
pub fn render_tsv(rel: &Relation) -> String {
    let mut buf = Vec::new();
    tsv::write_tsv(rel, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("TSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_core::evaluate_direct;
    use qf_storage::{Schema, Value};

    /// A flock over `deliveries`, which no test here writes.
    const DELIVERIES: &str = "QUERY: answer(B) :- deliveries(B,$1) AND deliveries(B,$2) \
                              AND $1 < $2 FILTER: COUNT(answer.B) >= 5";
    /// A delta-maintainable flock over `live`, which the tests append to.
    const LIVE: &str = "QUERY: answer(B) :- live(A,B) AND live(A,$1) FILTER: COUNT(answer.B) >= 2";

    fn service() -> FlockService {
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = (0..12)
            .flat_map(|b| [(b, 1), (b, 2), (b, 10 + b)])
            .map(|(b, i)| vec![Value::int(b), Value::int(i)])
            .collect();
        db.insert(Relation::from_rows(
            Schema::new("deliveries", &["b", "i"]),
            rows,
        ));
        let live = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
            .map(|(a, b)| vec![Value::int(a), Value::int(b)]);
        db.insert(Relation::from_rows(
            Schema::new("live", &["a", "b"]),
            live.to_vec(),
        ));
        FlockService::new(ServerConfig::default(), db)
    }

    /// `text` through the request pipeline against the catalog version
    /// `db`, which may be older than the published one.
    fn run_at(svc: &FlockService, text: &str, db: &Database) -> FlockOutcome {
        let program = parse_program(text, None).unwrap();
        let run = FlockRun {
            program: &program,
            db,
            evaluator: &LOCAL_EVALUATOR,
            labels: &LOCAL_LABELS,
            partial: false,
        };
        let limits = RequestLimits::default();
        match svc.run_flock(run, &limits, 1, None, None) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{text}: {e}"),
        }
    }

    fn direct(text: &str, db: &Database) -> String {
        let flock = QueryFlock::parse(text).unwrap();
        render_tsv(&evaluate_direct(&flock, db, JoinOrderStrategy::Greedy).unwrap())
    }

    fn append(svc: &FlockService, rows: &[(i64, i64)]) {
        let mut tsv = "live\ta\tb\n".to_string();
        for (a, b) in rows {
            tsv.push_str(&format!("{a}\t{b}\n"));
        }
        svc.mutate("live", &tsv, None, false).unwrap();
    }

    fn count(n: &AtomicU64) -> u64 {
        n.load(Ordering::Relaxed)
    }

    /// A reader that snapshots before a commit to a relation its flock
    /// does not read, and looks up after it, still hits: the commit
    /// moved neither the entry's key nor the reader's.
    #[test]
    fn a_commit_elsewhere_leaves_an_earlier_snapshot_hitting() {
        let svc = service();
        let warm = run_at(&svc, DELIVERIES, &svc.snapshot());
        assert!(!warm.cache_hit);
        let before = svc.snapshot();
        append(&svc, &[(9, 9)]);
        assert_ne!(svc.snapshot().fingerprint(), before.fingerprint());
        for db in [before, svc.snapshot()] {
            let o = run_at(&svc, DELIVERIES, &db);
            assert!(o.cache_hit, "{}", o.meta.finish());
            assert_eq!(o.body, direct(DELIVERIES, &db));
        }
        assert_eq!(count(&svc.counters.delta_rebuilds), 0);
    }

    /// A maintainable flock evaluated against a pre-commit snapshot and
    /// cached after that commit's maintenance describes a version the
    /// next commit did not start from: the compare-and-swap drops it
    /// unserved and uncounted, and every answer stays exact.
    #[test]
    fn an_entry_from_an_older_version_is_dropped_not_maintained() {
        let svc = service();
        let s0 = svc.snapshot();
        append(&svc, &[(4, 1)]);
        let stale = run_at(&svc, LIVE, &s0);
        assert!(!stale.cache_hit);
        assert_eq!(stale.body, direct(LIVE, &s0));
        assert!(stale.body.lines().count() > 1, "some parameter passes");
        assert_eq!(unpoison(svc.result_cache.lock()).len(), 1);

        append(&svc, &[(4, 2)]);
        assert_eq!(count(&svc.counters.delta_maintained), 0);
        assert_eq!(count(&svc.counters.delta_rebuilds), 0, "dropped silently");
        assert!(unpoison(svc.result_cache.lock()).is_empty());
        let now = svc.snapshot();
        let o = run_at(&svc, LIVE, &now);
        assert!(!o.cache_hit, "the stale entry must not be served");
        assert_eq!(o.body, direct(LIVE, &now));

        // An entry computed against the published version is maintained
        // by the next commit and serves its answer.
        append(&svc, &[(5, 1), (5, 3)]);
        assert_eq!(count(&svc.counters.delta_maintained), 1);
        let now = svc.snapshot();
        let o = run_at(&svc, LIVE, &now);
        assert!(o.cache_hit, "{}", o.meta.finish());
        assert_eq!(o.body, direct(LIVE, &now));
    }
}
