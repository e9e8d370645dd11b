//! The resident flock service: shared catalog, admission budgets, and
//! the monotone result cache.
//!
//! [`FlockService`] is the transport-free heart of `qf serve` — it owns
//! the catalog behind a `RwLock`, the result/plan caches, and the
//! server-wide counters, and turns parsed [`Request`]s into
//! [`Response`]s. The TCP layer ([`crate::net`]) only frames bytes and
//! decides *where* a request runs (worker pool vs. connection thread);
//! everything observable lives here, which is what makes the service
//! unit-testable without sockets.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use qf_core::{
    best_plan_with, direct_plan, execute_plan_scored_on, flock_result_from_scored, vacuous_filter,
    CancelToken, DeltaLimits, ExecContext, ExecStats, FilterCondition, FlockDelta, FlockProgram,
    JoinOrderStrategy, LocalEvaluator, QueryFlock, QueryPlan, StepEvaluator,
};
use qf_storage::{
    spill::content_hash, tsv, Database, Fnv1a, Relation, StorageError, Wal, WalCounters, WalRecord,
};

use crate::cache::{CacheKey, CachedResult, PlanCache, ResultCache};
use crate::error::{Result, ServerError};
use crate::pool::{Job, JobPayload};
use crate::protocol::{Request, RequestLimits, Response};
use crate::report::{json_escape, json_report, CacheReport};

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
    /// Requests handled (all kinds).
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

impl Counters {
    /// Snapshot the cache/admission numbers for a response meta object.
    pub fn cache_report(&self, cache_hit: bool, plan_cached: bool) -> CacheReport {
        CacheReport {
            cache_hit,
            plan_cached,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            conn_rejected: self.conn_rejected.load(Ordering::Relaxed),
            retries: 0,
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            delta_applied: self.delta_applied.load(Ordering::Relaxed),
            delta_maintained: self.delta_maintained.load(Ordering::Relaxed),
            delta_rebuilds: self.delta_rebuilds.load(Ordering::Relaxed),
            recheck_tuples: self.recheck_tuples.load(Ordering::Relaxed),
            wal: qf_storage::WalStats::default(),
        }
    }
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
    /// Evaluated with a plan shape from the plan cache.
    pub plan_cached: &'static str,
    /// Evaluated with a freshly searched plan.
    pub searched: &'static str,
    /// Evaluated with the direct (single-step) plan.
    pub direct: &'static str,
}

pub(crate) const LOCAL_LABELS: Labels = Labels {
    hit: "cache",
    plan_cached: "static(plan-cache)",
    searched: "static",
    direct: "direct",
};

const PARTIAL_LABELS: Labels = Labels {
    hit: "partial-cache",
    plan_cached: "partial",
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
    /// The catalog view the run reads…
    pub db: &'a Database,
    /// …and the fingerprint its cache entries are keyed at.
    pub fp: u64,
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
    /// Post-mutation catalog fingerprint.
    pub fp: u64,
    /// Tuples in the touched relation before the mutation…
    pub before: usize,
    /// …and after it (both 0 for bulk mutations, which name none).
    pub after: usize,
}

/// A successful [`FlockService::run_flock`].
pub(crate) struct FlockOutcome {
    /// One-line JSON report.
    pub meta: String,
    /// The answer as TSV.
    pub body: String,
    /// Whether the result cache answered (nothing was evaluated).
    pub cache_hit: bool,
}

/// The resident service state shared by every connection and worker.
pub struct FlockService {
    db: RwLock<Database>,
    /// Replicated catalog fragments installed by the coordinator's
    /// `sync` verb: fragment id → (fingerprint, catalog). Kept apart
    /// from the master catalog — a worker hosting several replicas
    /// must evaluate each `partial` against exactly one fragment, or
    /// `COUNT`/`SUM` partials would double-count the overlap.
    frags: RwLock<BTreeMap<usize, (u64, Database)>>,
    result_cache: Mutex<ResultCache>,
    plan_cache: Mutex<PlanCache>,
    /// Counters, public for the pool/net layers and tests.
    pub counters: Counters,
    /// Immutable configuration.
    pub config: ServerConfig,
    shutting_down: AtomicBool,
    /// The write-ahead log behind `--data-dir`, absent for a purely
    /// in-memory server. Mutations hold the catalog write lock across
    /// apply + commit, so the log's record order always matches the
    /// installed catalog's.
    wal: Option<Mutex<Wal>>,
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
            db: RwLock::new(db),
            frags: RwLock::new(BTreeMap::new()),
            result_cache: Mutex::new(ResultCache::new(config.cache_entries)),
            plan_cache: Mutex::new(PlanCache::new(config.cache_entries)),
            counters: Counters::default(),
            config,
            shutting_down: AtomicBool::new(false),
            wal: wal.map(Mutex::new),
            wal_counters,
        }
    }

    /// Per-request cache/admission report with the durability counters
    /// merged in (zeros when no WAL is configured).
    pub fn cache_report(&self, cache_hit: bool, plan_cached: bool) -> CacheReport {
        CacheReport {
            wal: self.wal_counters.stats(),
            ..self.counters.cache_report(cache_hit, plan_cached)
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
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
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
            let (db, fp) = self.snapshot();
            let run = FlockRun {
                program: &program,
                db: &db,
                fp,
                evaluator: &LOCAL_EVALUATOR,
                labels: &LOCAL_LABELS,
                partial: false,
            };
            self.run_flock(run, limits, granted_threads, deadline, cancel)
        });
        self.respond(outcome.map(|o| (o.meta, o.body)))
    }

    /// Evaluate an admitted `partial` request: one scatter-gather step
    /// against this shard's catalog fragment, answered with the
    /// **scored** relation so the coordinator can merge it
    /// algebraically. Called on a pool worker.
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
            .and_then(|(program, db, fp)| {
                let run = FlockRun {
                    program: &program,
                    db: &db,
                    fp,
                    evaluator: &LOCAL_EVALUATOR,
                    labels: &PARTIAL_LABELS,
                    partial: true,
                };
                self.run_flock(run, limits, granted_threads, deadline, cancel)
            });
        self.respond(outcome.map(|o| (o.meta, o.body)))
    }

    /// What a `partial` runs over: the mini-flock as a view-less
    /// program, and the fragment-plus-scratch catalog view with the
    /// fingerprint its cache entries are keyed at.
    fn partial_view(
        &self,
        text: &str,
        scratch: &[String],
        frag: Option<(usize, u64)>,
    ) -> Result<(FlockProgram, Database, u64)> {
        let parse = |e: qf_core::FlockError| ServerError::Parse(e.to_string());
        let flock = QueryFlock::parse(text).map_err(parse)?;
        let program = FlockProgram::new(Vec::new(), flock).map_err(parse)?;
        // Fragment-scoped partials evaluate against the synced replica
        // fragment (fingerprint-checked); frag-less partials keep the
        // single-copy behavior where the whole catalog IS the fragment.
        let (mut db, fp) = match frag {
            Some((id, want)) => (self.fragment_snapshot(id, want)?, want),
            None => self.snapshot(),
        };
        // The cache key folds the scratch overlays into the catalog
        // fingerprint by content, so a step re-scattered with the same
        // upstream outputs hits, and any change to either misses.
        let mut h = Fnv1a::new();
        h.write(&fp.to_le_bytes());
        for tsv_text in scratch {
            let rel = tsv::read_tsv(std::io::Cursor::new(tsv_text.as_bytes()))
                .map_err(|e| ServerError::Parse(e.to_string()))?;
            h.write(rel.name().as_bytes());
            h.write(&content_hash(&rel).to_le_bytes());
            db.insert(rel);
        }
        Ok((program, db, h.finish()))
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
        let key = CacheKey {
            query: run.program.canonical_query_text(),
            agg_pos: flock.agg_head_pos(),
            catalog_fp: run.fp,
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
                refilter_scored(scored, &filter)
            }
        };
        let outcome =
            |label: &str, answer: &Relation, stats: &ExecStats, hit, plan_cached| FlockOutcome {
                meta: json_report(
                    label,
                    answer.len(),
                    start.elapsed().as_millis(),
                    stats,
                    0,
                    0,
                    &self.cache_report(hit, plan_cached),
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
        // already searched, so it runs direct. Otherwise the cached
        // shape if the same query was searched before (any threshold —
        // shapes are threshold-free), else search (full-catalog
        // statistics, also on the coordinator), else direct.
        let cached_plan = (!run.partial)
            .then(|| unpoison(self.plan_cache.lock()).lookup(&key))
            .flatten()
            .and_then(|steps| QueryPlan::new(flock.clone(), steps).ok());
        let plan_cached = cached_plan.is_some();
        let (plan, strategy) = match cached_plan {
            Some(plan) => (plan, run.labels.plan_cached),
            None => {
                let searched = (!run.partial && filter.is_monotone())
                    .then(|| best_plan_with(flock, &extended, &ctx).ok())
                    .flatten();
                match searched {
                    Some((plan, _)) => {
                        unpoison(self.plan_cache.lock()).insert(key.clone(), plan.steps.clone());
                        (plan, run.labels.searched)
                    }
                    None => (direct_plan(flock)?, run.labels.direct),
                }
            }
        };

        let scored = execute_plan_scored_on(&plan, &extended, run.evaluator, &ctx)?;
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
        // instead of dropping it. A `partial`'s key folds in scratch
        // overlays, which are not catalog relations the delta path
        // could track, so those entries are never maintained.
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
        Ok(outcome(strategy, &answer, &ctx.stats(), false, plan_cached))
    }

    /// Finish an admitted or light request: count it, and turn its
    /// outcome into the wire response — noting deadline expiries and
    /// client-disconnect cancellations on the way.
    pub(crate) fn respond(&self, outcome: Result<(String, String)>) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
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
        let mut ctx = ExecContext::unbounded().with_threads(threads);
        if let Some(r) = effective.max_rows {
            ctx = ctx.with_max_rows(r);
        }
        if let Some(b) = effective.mem_budget {
            ctx = ctx.with_mem_budget(b);
        }
        match (deadline, effective.timeout_ms) {
            (Some(d), _) => ctx = ctx.with_deadline(d),
            (None, Some(ms)) => ctx = ctx.with_timeout(Duration::from_millis(ms)),
            (None, None) => {}
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

    /// Note a connection shed at the connection cap.
    pub fn note_conn_rejected(&self) {
        self.counters.conn_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Note an admission rejection (queue overflow or over-cap budget).
    pub fn note_rejection(&self) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A read-only snapshot of the catalog (cheap: relations are
    /// shared) plus its memoized fingerprint.
    pub fn snapshot(&self) -> (Database, u64) {
        let guard = self.db.read().unwrap_or_else(|e| e.into_inner());
        let fp = guard.fingerprint();
        (guard.clone(), fp)
    }

    fn generate(&self, kind: &str, seed: u64) -> Result<(String, String)> {
        let mut rels: Vec<Relation> = Vec::new();
        let note: String;
        match kind {
            "baskets" => {
                let config = qf_datagen::BasketConfig {
                    seed,
                    ..Default::default()
                };
                let data = qf_datagen::baskets::generate(&config);
                note = format!("generated baskets ({} baskets)", data.baskets.distinct(0));
                rels.push(data.baskets);
                rels.push(qf_datagen::baskets::importance(&config, 50));
            }
            "words" => {
                let rel = qf_datagen::words::generate(&qf_datagen::WordsConfig {
                    seed,
                    ..Default::default()
                });
                note = format!("generated words (word occurrences, {} tuples)", rel.len());
                rels.push(rel);
            }
            "medical" => {
                let data = qf_datagen::medical::generate(&qf_datagen::MedicalConfig {
                    seed,
                    ..Default::default()
                });
                note = format!("generated medical db (planted: {:?})", data.planted);
                rels.extend(data.db.iter().cloned());
            }
            "web" => {
                let data = qf_datagen::web::generate(&qf_datagen::WebConfig {
                    seed,
                    ..Default::default()
                });
                note = format!("generated web corpus (planted: {:?})", data.planted);
                rels.extend(data.db.iter().cloned());
            }
            "graph" => {
                let rel = qf_datagen::graph::generate(&qf_datagen::GraphConfig {
                    seed,
                    ..Default::default()
                });
                note = format!("generated arc ({} arcs)", rel.len());
                rels.push(rel);
            }
            other => {
                return Err(ServerError::Proto(format!(
                    "unknown workload `{other}` (baskets|words|medical|web|graph)"
                )))
            }
        }
        let record = WalRecord::Put {
            relations: rels.iter().map(render_tsv).collect(),
        };
        let fp = self.commit_record(&record, None)?.fp;
        Ok((format!("{{\"fp\":\"{fp:016x}\"}}"), note))
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
            .insert(frag, (fp, db));
        Ok((
            format!("{{\"frag\":{frag},\"relations\":{n}}}"),
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
        match frags.get(&frag) {
            Some((have, db)) if *have == fp => Ok(db.clone()),
            Some((have, _)) => Err(ServerError::FragMissing {
                frag,
                detail: format!("stale copy {have:016x}, coordinator expects {fp:016x}"),
            }),
            None => Err(ServerError::FragMissing {
                frag,
                detail: "no such fragment synced to this worker".to_string(),
            }),
        }
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
        tsv_text: &str,
        frag: usize,
        expect_fp: u64,
        retract: bool,
    ) -> Result<(String, String)> {
        let delta = tsv::read_tsv(std::io::Cursor::new(tsv_text.as_bytes()))
            .map_err(|e| ServerError::Parse(e.to_string()))?;
        if delta.name() != rel {
            return Err(ServerError::Proto(format!(
                "header names relation `{rel}` but TSV is for `{}`",
                delta.name()
            )));
        }
        let verb = if retract {
            "retracted from"
        } else {
            "appended to"
        };
        let record = if retract {
            WalRecord::Retract {
                tsv: tsv_text.to_string(),
            }
        } else {
            WalRecord::Append {
                tsv: tsv_text.to_string(),
            }
        };
        let mut frags = self.frags.write().unwrap_or_else(|e| e.into_inner());
        let Some((_, db)) = frags.get(&frag) else {
            return Err(ServerError::FragMissing {
                frag,
                detail: "no such fragment synced to this worker".to_string(),
            });
        };
        let mut next = db.clone();
        Wal::apply(&mut next, &record).map_err(storage_error)?;
        let fp = next.fingerprint();
        if fp != expect_fp {
            return Err(ServerError::FragMissing {
                frag,
                detail: format!(
                    "delta left fragment at {fp:016x}, coordinator expects {expect_fp:016x}"
                ),
            });
        }
        frags.insert(frag, (fp, next));
        Ok((
            format!("{{\"frag\":{frag},\"relation\":\"{rel}\",\"fp\":\"{fp:016x}\"}}"),
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
            format!(
                "{{\"relation\":\"{}\",\"tuples\":{n},\"fp\":\"{fp:016x}\"}}",
                json_escape(&name)
            ),
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
        self.respond(self.mutate(rel, tsv, frag, false))
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
        self.respond(self.mutate(rel, tsv, frag, true))
    }

    /// One streaming delta (`append`, or `retract` when `retract`) on
    /// the master catalog, or on a synced fragment when `frag` names
    /// one.
    fn mutate(
        &self,
        rel: &str,
        tsv_text: &str,
        frag: Option<(usize, u64)>,
        retract: bool,
    ) -> Result<(String, String)> {
        if let Some((frag, fp)) = frag {
            return self.frag_mutate(rel, tsv_text, frag, fp, retract);
        }
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
        let tsv = tsv_text.to_string();
        let record = if retract {
            WalRecord::Retract { tsv }
        } else {
            WalRecord::Append { tsv }
        };
        let Commit { fp, before, after } = self.commit_record(&record, Some(rel))?;
        // A union only grows the relation, a difference only shrinks it.
        let changed = before.abs_diff(after);
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
        Ok((
            format!(
                "{{\"relation\":\"{}\",\"tuples\":{after},\"{key}\":{changed},\
                 \"fp\":\"{fp:016x}\"}}",
                json_escape(rel)
            ),
            note,
        ))
    }

    /// Apply one catalog mutation: apply the record to a copy of the
    /// catalog, commit it durably to the WAL (when configured), then
    /// install the copy and fix up the caches. Nothing is installed —
    /// let alone acknowledged — unless the record is already durable,
    /// so a crash at any point recovers a prefix of the acknowledged
    /// mutations, never a half-applied one. Returns the post-mutation
    /// catalog fingerprint — the value clients and the shard
    /// coordinator verify installs against — and the touched
    /// relation's size on either side of the mutation, both read inside
    /// the critical section so concurrent mutations of one relation
    /// each report their own effect.
    ///
    /// `touched` narrows cache invalidation for single-relation deltas:
    /// entries carrying maintenance state update themselves in place
    /// (the delta path), other entries whose query reads that relation
    /// are dropped, and the rest are re-keyed to the new fingerprint
    /// and keep serving. `None` (bulk mutations) clears both caches.
    pub(crate) fn commit_record(
        &self,
        record: &WalRecord,
        touched: Option<&str>,
    ) -> Result<Commit> {
        let mut guard = self.db.write().unwrap_or_else(|e| e.into_inner());
        let old_fp = guard.fingerprint();
        // Pre/post images of the touched relation, for the delta join.
        let old_rel = touched.and_then(|rel| guard.get(rel).ok().cloned());
        let mut next = guard.clone();
        Wal::apply(&mut next, record).map_err(storage_error)?;
        let fp = next.fingerprint();
        if let Some(wal) = &self.wal {
            let mut w = unpoison(wal.lock());
            w.commit(record, fp).map_err(storage_error)?;
            // A failed compaction is non-fatal: the record above is
            // already durable and the old snapshot generation stays
            // authoritative — the log just keeps growing.
            if let Err(e) = w.maybe_compact(&next) {
                eprintln!("qf-serve: wal compaction failed ({e}); log keeps growing");
            }
        }
        let new_rel = touched.and_then(|rel| next.get(rel).ok().cloned());
        let commit = Commit {
            fp,
            before: old_rel.as_ref().map_or(0, Relation::len),
            after: new_rel.as_ref().map_or(0, Relation::len),
        };
        let db_new = next.clone();
        *guard = next;
        drop(guard);
        match touched {
            Some(rel) => {
                self.counters.delta_applied.fetch_add(1, Ordering::Relaxed);
                let touches = move |k: &CacheKey| k.reads(rel);
                let mut maintain = |entry: &mut CachedResult| {
                    self.maintain_entry(entry, rel, old_rel.as_ref(), new_rel.as_ref(), &db_new)
                };
                unpoison(self.result_cache.lock()).maintain_rekey(
                    old_fp,
                    fp,
                    &touches,
                    &mut maintain,
                );
                // Plan shapes stay dropped: plan choice depends on the
                // touched relation's statistics, which just changed.
                unpoison(self.plan_cache.lock()).retain_rekey(old_fp, fp, &touches);
            }
            None => {
                unpoison(self.result_cache.lock()).clear();
                unpoison(self.plan_cache.lock()).clear();
            }
        }
        Ok(commit)
    }

    /// Try to maintain one touched cache entry through its delta state:
    /// evaluate the delta join for the relation's pre/post images — or,
    /// on the entry's first touch, seed its view from the post-batch
    /// catalog — refresh the entry's scored rows from the maintained
    /// multiset, and widen its baseline to vacuous (the maintained rows
    /// are the *full* unfiltered answer, so the entry now serves every
    /// threshold). Returns whether the entry survives; on any failure
    /// the view is untrustworthy and the entry is dropped for a cold
    /// recompute.
    fn maintain_entry(
        &self,
        entry: &mut CachedResult,
        rel: &str,
        old: Option<&Relation>,
        new: Option<&Relation>,
        db: &Database,
    ) -> bool {
        let Some(handle) = entry.delta.clone() else {
            self.counters.delta_rebuilds.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let (old, new) = match (old, new) {
            (Some(o), Some(n)) => (o.clone(), n.clone()),
            (None, Some(n)) => (
                Relation::from_rows(n.schema().clone(), Vec::new()),
                n.clone(),
            ),
            (Some(o), None) => {
                let empty = Relation::from_rows(o.schema().clone(), Vec::new());
                (o.clone(), empty)
            }
            // The record named this relation but did not create or
            // change it: the entry is still exact as-is.
            (None, None) => return true,
        };
        let mut view = unpoison(handle.lock());
        let applied = view
            .apply(rel, &old, &new, db, &DeltaLimits::default())
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
                true
            }
            Err(_) => {
                // A failed apply (or seed) leaves the view undefined:
                // drop the entry; the next request recomputes cold (and
                // attaches a fresh unseeded handle).
                self.counters.delta_rebuilds.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Server-wide counters as a one-line JSON object (`stats`).
    pub fn stats_json(&self) -> String {
        let c = &self.counters;
        let w = self.wal_counters.stats();
        let (relations, tuples, fp) = {
            let db = self.db.read().unwrap_or_else(|e| e.into_inner());
            (db.len(), db.total_tuples(), db.fingerprint())
        };
        format!(
            "{{\"requests\":{},\"cache_hits\":{},\"cache_misses\":{},\"rejected\":{},\
             \"timeouts\":{},\"cancelled\":{},\"conn_rejected\":{},\"conns\":{},\
             \"queue_depth\":{},\"queue_depth_max\":{},\"active\":{},\"live_workers\":{},\
             \"cached_results\":{},\"relations\":{relations},\"tuples\":{tuples},\
             \"fp\":\"{fp:016x}\",\"delta_applied\":{},\"delta_maintained\":{},\
             \"delta_rebuilds\":{},\"recheck_tuples\":{},\
             \"wal_records\":{},\"wal_bytes\":{},\"snapshots\":{},\
             \"compactions\":{},\"recovered_records\":{},\"recovery_ms\":{},\
             \"frags\":{},\"shutting_down\":{}}}",
            c.requests.load(Ordering::Relaxed),
            c.cache_hits.load(Ordering::Relaxed),
            c.cache_misses.load(Ordering::Relaxed),
            c.rejected.load(Ordering::Relaxed),
            c.timeouts.load(Ordering::Relaxed),
            c.cancelled.load(Ordering::Relaxed),
            c.conn_rejected.load(Ordering::Relaxed),
            c.conns.load(Ordering::Relaxed),
            c.queue_depth.load(Ordering::Relaxed),
            c.queue_depth_max.load(Ordering::Relaxed),
            c.active.load(Ordering::Relaxed),
            c.live_workers.load(Ordering::Relaxed),
            unpoison(self.result_cache.lock()).len(),
            c.delta_applied.load(Ordering::Relaxed),
            c.delta_maintained.load(Ordering::Relaxed),
            c.delta_rebuilds.load(Ordering::Relaxed),
            c.recheck_tuples.load(Ordering::Relaxed),
            w.wal_records,
            w.wal_bytes,
            w.snapshots,
            w.compactions,
            w.recovered_records,
            w.recovery_ms,
            self.fragment_count(),
            self.is_shutting_down(),
        )
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
    let meta = format!(
        "{{\"fingerprint\":\"{:016x}\",\"params\":{}}}",
        program.fingerprint(),
        program.flock().params().len()
    );
    Ok((meta, program.canonical_text()))
}

/// Keep only the scored rows whose aggregate (last column) passes
/// `filter` — how a cached scored relation answers a subsumed partial
/// request exactly.
pub(crate) fn refilter_scored(scored: &Relation, filter: &FilterCondition) -> Relation {
    let arity = scored.schema().arity();
    let tuples = scored
        .iter()
        .filter(|t| filter.accepts(t.get(arity - 1)))
        .cloned()
        .collect();
    Relation::from_sorted_dedup(scored.schema().clone(), tuples)
}

/// Render a relation as TSV text — the response body format. Stable
/// bytes for a given relation, which is what makes "identical result
/// bytes" for cache hits a checkable guarantee.
pub fn render_tsv(rel: &Relation) -> String {
    let mut buf = Vec::new();
    tsv::write_tsv(rel, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("TSV output is UTF-8")
}
