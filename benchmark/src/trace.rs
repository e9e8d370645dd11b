//! The traced run's instruments: spans recorded from the benchmark's
//! own code (nothing inside `crates/` is instrumented), the in-process
//! hosting that lets a node's request handler be wrapped in them, and
//! direct timed calls into each layer's entry point on the workload's
//! own inputs.
//!
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qf_core::{
    best_plan_with, compile_answer, execute_plan_scored_with, flock_result_from_scored,
    DeltaLimits, ExecContext, FlockDelta, FlockProgram, JoinOrderStrategy,
};
use qf_server::{
    CacheKey, CachedResult, Coordinator, FlockService, Job, JobPayload, LocalHandler, Request,
    RequestHandler, Response, ResultCache, Server, ServerConfig, ShardConfig,
};
use qf_storage::{real_fs, Database, Fnv1a, Wal, WalOptions, WalRecord};

use crate::data;
use crate::json::Json;
use crate::stats::median;
use crate::workload::Plan;

/// One timed interval. `parent` is the span that caused it (0 for a
/// root); every span of one client request carries that request's id.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    /// Hash of the payload asked about: same request, same key.
    pub key: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Response body bytes, where the boundary moves data.
    pub bytes: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A span that has started: closed by [`Tracer::exit`].
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    key: u64,
    start: Instant,
}

pub struct Tracer {
    epoch: Instant,
    recording: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Requests a client has sent and no handler has picked up yet,
    /// keyed by payload: the wire carries no request id, so a handler
    /// finds its caller by what was asked. Two clients asking the very
    /// same thing at once may swap ids, which changes no duration.
    inflight: Mutex<HashMap<u64, Vec<u64>>>,
    /// The fronting handler's open span and its request id: what a
    /// shard worker's span hangs under. `shard-scatter` has one client,
    /// so at most one is open.
    front_span: AtomicU64,
    front_request: AtomicU64,
}

pub fn payload_key(text: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(text.as_bytes());
    h.finish()
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            inflight: Mutex::new(HashMap::new()),
            front_span: AtomicU64::new(0),
            front_request: AtomicU64::new(0),
        }
    }

    /// Spans are recorded only while this is on, so the same hosting
    /// can be driven with and without them: the difference is the
    /// tracing overhead.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().expect("no span is recorded while panicking")
    }

    /// A client is about to send the payload hashing to `key`.
    pub fn client_send(&self, key: u64) -> Option<Open> {
        if !self.recording.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.fresh_id();
        Self::lock(&self.inflight).entry(key).or_default().push(id);
        Some(Open {
            name: "client.request",
            id,
            parent: 0,
            request: id,
            key,
            start: Instant::now(),
        })
    }

    /// A handler starts on the payload hashing to `key`. `worker` marks
    /// a shard worker, whose caller is the coordinator, not a client.
    fn handler_enter(&self, name: &'static str, key: u64, worker: bool) -> Option<Open> {
        if !self.recording.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.fresh_id();
        let (parent, request) = if worker {
            (
                self.front_span.load(Ordering::SeqCst),
                self.front_request.load(Ordering::SeqCst),
            )
        } else {
            let request = Self::lock(&self.inflight)
                .get_mut(&key)
                .and_then(Vec::pop)
                .unwrap_or(0);
            self.front_span.store(id, Ordering::SeqCst);
            self.front_request.store(request, Ordering::SeqCst);
            (request, request)
        };
        Some(Open {
            name,
            id,
            parent,
            request,
            key,
            start: Instant::now(),
        })
    }

    pub fn exit(&self, open: Option<Open>, bytes: u64) {
        let Some(open) = open else { return };
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        Self::lock(&self.spans).push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            request: open.request,
            key: open.key,
            start_us: us(open.start),
            end_us: us(end),
            bytes,
        });
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *Self::lock(&self.spans))
    }
}

/// A node's real handler with a span around every admitted job. Light
/// requests (loads, `stats`, `sync`) pass through unrecorded: they are
/// set-up traffic.
struct TracedHandler {
    inner: Arc<dyn RequestHandler>,
    tracer: Arc<Tracer>,
    worker: bool,
}

impl RequestHandler for TracedHandler {
    fn service(&self) -> &Arc<FlockService> {
        self.inner.service()
    }

    fn handle_light(&self, req: &Request) -> Response {
        self.inner.handle_light(req)
    }

    fn handle_admitted(&self, job: &Job, granted_threads: usize) -> Response {
        let (name, payload) = match &job.payload {
            JobPayload::Flock { text, .. } => ("handler.flock", text),
            JobPayload::Partial { text, .. } => ("worker.partial", text),
            JobPayload::Append { tsv, .. } => ("handler.append", tsv),
            JobPayload::Retract { tsv, .. } => ("handler.retract", tsv),
        };
        let open = self
            .tracer
            .handler_enter(name, payload_key(payload), self.worker);
        let response = self.inner.handle_admitted(job, granted_threads);
        let bytes = match &response {
            Response::Ok { body, .. } => body.len() as u64,
            Response::Err { .. } => 0,
        };
        self.tracer.exit(open, bytes);
        response
    }
}

fn flag<'a>(flags: &'a [String], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .position(|f| f == name)
        .and_then(|i| flags.get(i + 1))
        .map(String::as_str)
}

/// The `ServerConfig` `qfsh serve`/`qfsh shard` would build from
/// `flags`. A flag this mirror does not know is an error, so the two
/// hostings cannot drift apart silently.
fn server_config(flags: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    for pair in flags.chunks(2) {
        let value = pair
            .get(1)
            .ok_or(format!("flag {} needs a value", pair[0]))?;
        let count = || {
            value
                .parse::<usize>()
                .map_err(|e| format!("{}: {e}", pair[0]))
        };
        match pair[0].as_str() {
            "--threads" => config.threads = count()?,
            "--cache-entries" => config.cache_entries = count()?,
            "--data-dir" | "--shards" | "--replicas" | "--replicate" => {}
            other => return Err(format!("in-process hosting does not mirror {other}")),
        }
    }
    Ok(config)
}

fn serve_traced(
    inner: Arc<dyn RequestHandler>,
    tracer: &Arc<Tracer>,
    worker: bool,
) -> Result<Server, String> {
    let handler = TracedHandler {
        inner,
        tracer: Arc::clone(tracer),
        worker,
    };
    Server::serve_handler(Arc::new(handler), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))
}

/// What `qfsh serve <flags>` hosts, in this process.
pub fn serve_local(flags: &[String], tracer: &Arc<Tracer>, worker: bool) -> Result<Server, String> {
    let config = server_config(flags)?;
    let service = match flag(flags, "--data-dir") {
        Some(dir) => {
            let (wal, db) = Wal::open(real_fs(), Path::new(dir), WalOptions::default())
                .map_err(|e| format!("data dir {dir}: {e}"))?;
            FlockService::with_wal(config, db, wal)
        }
        None => FlockService::new(config, Database::new()),
    };
    serve_traced(
        Arc::new(LocalHandler::new(Arc::new(service))),
        tracer,
        worker,
    )
}

/// What `qfsh shard <flags>` hosts, in this process.
pub fn shard_local(flags: &[String], tracer: &Arc<Tracer>) -> Result<Server, String> {
    let list = |name| -> Vec<String> {
        flag(flags, name)
            .map(|v| v.split(',').map(String::from).collect())
            .unwrap_or_default()
    };
    let mut shard = ShardConfig {
        addrs: list("--shards"),
        replicated: list("--replicate").into_iter().collect(),
        ..ShardConfig::default()
    };
    if let Some(r) = flag(flags, "--replicas") {
        shard.replicas = r.parse().map_err(|e| format!("--replicas: {e}"))?;
    }
    let coordinator = Coordinator::new(server_config(flags)?, shard, Database::new());
    serve_traced(Arc::new(coordinator), tracer, false)
}

/// Timed direct calls for one flock text, each the median of its reps.
#[derive(Clone, Debug, Default)]
pub struct TextProfile {
    /// `FlockProgram::parse` + canonical text + fingerprint.
    pub parse_us: f64,
    /// `best_plan_with`.
    pub plan_us: f64,
    /// `execute_plan_scored_with` on the searched plan.
    pub exec_ms: f64,
    /// `qf_engine::execute_with` on the `compile_answer` plan, and the
    /// rows it materialized.
    pub engine_ms: f64,
    pub engine_rows: f64,
    /// `FlockDelta::build`, where the server would attempt one (no
    /// views, maintainable); 0 elsewhere.
    pub delta_build_ms: f64,
    /// `ResultCache::lookup` + `flock_result_from_scored` + TSV render.
    pub hit_us: f64,
}

/// Timed direct calls on the catalog and, for `live-ingest`, on the
/// batch stream.
#[derive(Clone, Debug, Default)]
pub struct StorageProfile {
    pub tsv_mb_s: f64,
    pub fingerprint_ms: f64,
    pub wal_commit_us: f64,
    pub wal_bytes_per_user_byte: f64,
    pub delta_apply_us_per_tuple: f64,
    /// Per commit, the named layers together: TSV parse + fingerprint +
    /// WAL commit + delta apply of both maintained flocks. Appends and
    /// retractions apart (a retraction carries 4 batches).
    pub append_layers_ms: f64,
    pub retract_layers_ms: f64,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One rep of every per-text layer call. `threads` is what the
/// workload's server grants a lone request.
fn profile_text(text: &str, db: &Database, threads: usize) -> Result<TextProfile, String> {
    let err = |e: qf_core::FlockError| format!("{text}: {e}");
    let (program, parse_s) = time(|| {
        FlockProgram::parse(text).inspect(|p| {
            std::hint::black_box((p.canonical_text(), p.fingerprint()));
        })
    });
    let program = program.map_err(err)?;
    let flock = program.flock();
    let ctx = ExecContext::unbounded().with_threads(threads);
    let (plan, plan_s) = time(|| best_plan_with(flock, db, &ctx));
    let (plan, _) = plan.map_err(err)?;
    let (run, exec_s) =
        time(|| execute_plan_scored_with(&plan, db, JoinOrderStrategy::Greedy, &ctx));
    let run = run.map_err(err)?;

    let engine_ctx = ExecContext::unbounded().with_threads(threads);
    let compiled = compile_answer(flock.query(), db, JoinOrderStrategy::Greedy).map_err(err)?;
    let (answer, engine_s) = time(|| qf_engine::execute_with(&compiled.plan, db, &engine_ctx));
    answer.map_err(|e| format!("{text}: {e}"))?;

    let delta_s = if program.views().is_empty() && FlockDelta::maintainable(flock) {
        // A build that runs out of budget costs the server the same
        // time as one that succeeds; both count.
        time(|| std::hint::black_box(FlockDelta::build(flock, db, &DeltaLimits::default()).is_ok()))
            .1
    } else {
        0.0
    };

    let key = CacheKey {
        query: program.canonical_query_text(),
        agg_pos: flock.agg_head_pos(),
        catalog_fp: db.fingerprint(),
    };
    let mut cache = ResultCache::new(64);
    cache.insert(
        key.clone(),
        CachedResult {
            baseline: flock.canonical_filter(),
            scored: run.scored,
            strategy: "static".to_string(),
            delta: None,
        },
    );
    let (hit, hit_s) = time(|| {
        cache.lookup(&key, &flock.canonical_filter()).map(|hit| {
            let result = flock_result_from_scored(flock, &hit.scored, flock.filter());
            qf_server::service::render_tsv(&result).len()
        })
    });
    hit.ok_or(format!("{text}: a result cached at its own filter missed"))?;

    Ok(TextProfile {
        parse_us: parse_s * 1e6,
        plan_us: plan_s * 1e6,
        exec_ms: exec_s * 1e3,
        engine_ms: engine_s * 1e3,
        engine_rows: engine_ctx.stats().rows as f64,
        delta_build_ms: delta_s * 1e3,
        hit_us: hit_s * 1e6,
    })
}

fn median_profile(reps: &[TextProfile]) -> TextProfile {
    let m = |f: fn(&TextProfile) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    TextProfile {
        parse_us: m(|p| p.parse_us),
        plan_us: m(|p| p.plan_us),
        exec_ms: m(|p| p.exec_ms),
        engine_ms: m(|p| p.engine_ms),
        engine_rows: m(|p| p.engine_rows),
        delta_build_ms: m(|p| p.delta_build_ms),
        hit_us: m(|p| p.hit_us),
    }
}

/// Profile every text of `plan` against `db`, rep after rep until
/// `budget_s` is spent (at least once).
pub fn profile_texts(
    plan: &Plan,
    db: &Database,
    threads: usize,
    budget_s: f64,
) -> Result<Vec<TextProfile>, String> {
    let start = Instant::now();
    let mut reps: Vec<Vec<TextProfile>> = vec![Vec::new(); plan.texts.len()];
    loop {
        for (text, reps) in plan.texts.iter().zip(&mut reps) {
            reps.push(profile_text(text, db, threads)?);
        }
        if start.elapsed().as_secs_f64() >= budget_s || reps[0].len() >= 9 {
            break;
        }
    }
    Ok(reps.iter().map(|r| median_profile(r)).collect())
}

/// Time the storage-side entry points: TSV parse over everything the
/// run loads, a catalog fingerprint after a mutation, and — when the
/// workload has a batch stream — one pool cycle of WAL commits and
/// delta applies on the mirror, in a WAL of its own under `scratch`.
pub fn profile_storage(plan: &Plan, scratch: &Path) -> Result<StorageProfile, String> {
    let mut out = StorageProfile::default();
    let (mut bytes, mut parse_s) = (0usize, 0.0);
    let mut db = Database::new();
    for table in plan.all_tables() {
        let (rel, s) = time(|| data::parse(&table.tsv));
        bytes += table.tsv.len();
        parse_s += s;
        db.insert(rel);
    }
    out.tsv_mb_s = bytes as f64 / 1e6 / parse_s;
    // Re-inserting a relation resets the memo; the next call re-hashes
    // the whole catalog, as after any server-side mutation.
    let first = plan.all_tables().next().expect("every workload loads data");
    let mut fingerprints = Vec::new();
    for _ in 0..5 {
        db.insert(data::parse(&first.tsv));
        fingerprints.push(time(|| db.fingerprint()).1 * 1e3);
    }
    out.fingerprint_ms = median(&fingerprints);

    let Some(live) = &plan.live else {
        return Ok(out);
    };
    let storage = |e: qf_storage::StorageError| e.to_string();
    let dir = scratch.join("profile-wal");
    // No compaction here: the log's size is then the bytes the WAL
    // writes for the TSV bytes it was given.
    let options = WalOptions {
        compact_threshold: u64::MAX,
    };
    let (mut wal, _) = Wal::open(real_fs(), &dir, options).map_err(storage)?;
    let mut views = Vec::new();
    for text in &plan.texts[..2] {
        let program = FlockProgram::parse(text).map_err(|e| e.to_string())?;
        views.push(
            FlockDelta::build(program.flock(), &db, &DeltaLimits::default())
                .map_err(|e| format!("{text}: {e}"))?,
        );
    }
    let (mut user_bytes, mut apply_s, mut apply_tuples) = (0usize, 0.0, 0usize);
    let (mut commits, mut appends, mut retracts) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..plan.sizes.pool {
        for next in live.deltas_of_iteration(plan.sizes.window, i) {
            let (retract, text) = (next.retract, next.tsv);
            let (delta, parse_s) = time(|| data::parse(&text));
            let record = if retract {
                WalRecord::Retract { tsv: text.clone() }
            } else {
                WalRecord::Append { tsv: text.clone() }
            };
            let old = db.get("live").map_err(storage)?.clone();
            Wal::apply(&mut db, &record).map_err(storage)?;
            let (fp, fp_s) = time(|| db.fingerprint());
            let ((), commit_s) = {
                let (r, s) = time(|| wal.commit(&record, fp));
                (r.map_err(storage)?, s)
            };
            let new = db.get("live").map_err(storage)?.clone();
            let mut views_s = 0.0;
            for view in &mut views {
                let (r, s) = time(|| view.apply("live", &old, &new, &db, &DeltaLimits::default()));
                r.map_err(|e| format!("delta apply: {e}"))?;
                views_s += s;
            }
            user_bytes += text.len();
            apply_s += views_s;
            apply_tuples += delta.len();
            commits.push(commit_s * 1e6);
            let layers_ms = (parse_s + fp_s + commit_s + views_s) * 1e3;
            if retract { &mut retracts } else { &mut appends }.push(layers_ms);
        }
    }
    out.wal_commit_us = median(&commits);
    out.wal_bytes_per_user_byte = wal.counters().stats().wal_bytes as f64 / user_bytes as f64;
    out.delta_apply_us_per_tuple = apply_s * 1e6 / apply_tuples as f64;
    out.append_layers_ms = median(&appends);
    out.retract_layers_ms = median(&retracts);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Per client request, what its spans say.
pub struct RequestTimes {
    pub client_ms: f64,
    pub handler_ms: f64,
    pub handler: &'static str,
    /// Per shard worker, the time its partials took, slowest first.
    pub worker_ms: Vec<f64>,
    /// Handler time no worker span covers: the handler's self time.
    pub handler_self_ms: f64,
    pub partial_bytes: u64,
    /// The client span's payload key.
    pub key: u64,
}

/// Group spans by request. A handler's self time is its duration minus
/// the part of it its children cover (children of one step overlap, so
/// the cover is a union of intervals, not a sum).
pub fn by_request(spans: &[Span]) -> Vec<RequestTimes> {
    let mut groups: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.request != 0) {
        groups.entry(s.request).or_default().push(s);
    }
    let mut out = Vec::new();
    for group in groups.values() {
        let Some(client) = group.iter().find(|s| s.name == "client.request") else {
            continue;
        };
        let Some(handler) = group.iter().find(|s| s.parent == client.id) else {
            continue;
        };
        let mut children: Vec<&&Span> = group.iter().filter(|s| s.parent == handler.id).collect();
        children.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let (mut covered, mut reach) = (0.0, handler.start_us);
        for c in &children {
            let (from, to) = (c.start_us.max(reach), c.end_us.min(handler.end_us));
            if to > from {
                covered += to - from;
                reach = to;
            }
        }
        // Workers are told apart by who served the span: partials of
        // one step run in parallel, one per worker, so the k-th
        // overlapping span of a step belongs to the k-th lane.
        let mut lanes: Vec<(f64, f64)> = Vec::new();
        for c in &children {
            match lanes
                .iter_mut()
                .find(|(_, busy_until)| *busy_until <= c.start_us)
            {
                Some(lane) => {
                    lane.0 += c.ms();
                    lane.1 = c.end_us;
                }
                None => lanes.push((c.ms(), c.end_us)),
            }
        }
        let mut worker_ms: Vec<f64> = lanes.into_iter().map(|(ms, _)| ms).collect();
        worker_ms.sort_by(|a, b| b.total_cmp(a));
        out.push(RequestTimes {
            client_ms: client.ms(),
            handler_ms: handler.ms(),
            handler: handler.name,
            worker_ms,
            handler_self_ms: handler.ms() - covered / 1e3,
            partial_bytes: children.iter().map(|c| c.bytes).sum(),
            key: client.key,
        });
    }
    out
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("request", Json::Num(s.request as f64)),
                    ("key", Json::str(format!("{:016x}", s.key))),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("bytes", Json::Num(s.bytes as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: f64, end: f64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 1,
            key: 0,
            start_us: start,
            end_us: end,
            bytes: 10,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A coordinator span 0..100 ms with two steps of two parallel
        // partials: 10..40 & 12..30, then 50..80 & 50..90.
        let spans = vec![
            span("client.request", 1, 0, 0.0, 105_000.0),
            span("handler.flock", 2, 1, 2_000.0, 102_000.0),
            span("worker.partial", 3, 2, 10_000.0, 40_000.0),
            span("worker.partial", 4, 2, 12_000.0, 30_000.0),
            span("worker.partial", 5, 2, 50_000.0, 80_000.0),
            span("worker.partial", 6, 2, 50_000.0, 90_000.0),
        ];
        let times = by_request(&spans);
        assert_eq!(times.len(), 1);
        let t = &times[0];
        assert_eq!(t.handler, "handler.flock");
        assert!((t.client_ms - 105.0).abs() < 1e-9);
        assert!((t.handler_ms - 100.0).abs() < 1e-9);
        // Covered: 10..40 and 50..90 = 70 ms.
        assert!(
            (t.handler_self_ms - 30.0).abs() < 1e-9,
            "{}",
            t.handler_self_ms
        );
        // Lanes: (30 + 30) and (18 + 40).
        assert_eq!(t.worker_ms.len(), 2);
        assert!((t.worker_ms[0] - 60.0).abs() < 1e-9, "{:?}", t.worker_ms);
        assert!((t.worker_ms[1] - 58.0).abs() < 1e-9, "{:?}", t.worker_ms);
        assert_eq!(t.partial_bytes, 40);
    }

    #[test]
    fn handlers_find_their_callers_by_payload() {
        let tracer = Tracer::new();
        assert!(tracer.client_send(7).is_none(), "off until switched on");
        tracer.set_recording(true);
        let client = tracer.client_send(7);
        let handler = tracer.handler_enter("handler.flock", 7, false);
        let worker = tracer.handler_enter("worker.partial", 99, true);
        let stranger = tracer.handler_enter("handler.flock", 8, false);
        let client_id = client.as_ref().unwrap().id;
        assert_eq!(handler.as_ref().unwrap().parent, client_id);
        assert_eq!(
            worker.as_ref().unwrap().parent,
            handler.as_ref().unwrap().id
        );
        assert_eq!(worker.as_ref().unwrap().request, client_id);
        assert_eq!(stranger.as_ref().unwrap().request, 0);
        for open in [worker, handler, client, stranger] {
            tracer.exit(open, 0);
        }
        assert_eq!(tracer.take_spans().len(), 4);
    }
}
