//! One run of one workload: set-up, the timed closed loops, the checks,
//! and the metrics.
//!
//! All loops are **closed**: a dashboard or an analyst sends the next
//! request when the previous reply is in, so each client has at most
//! one request in flight and a slow server receives less load.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qf_server::report::json_u64;
use qf_server::{Client, RequestLimits};

use crate::cluster::{request_ok, Cluster, Host};
use crate::data::{self, Delta, Live, Sizes};
use crate::json::Json;
use crate::oracle::{state_after, Oracle};
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, payload_key, RequestTimes, StorageProfile, TextProfile, Tracer};
use crate::workload::{Expect, Front, Plan, Script, Spec};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher: bool,
    /// How far the metric may worsen, as a share of the baseline's
    /// median, before `compare` calls it a regression. Per-layer
    /// metrics carry none.
    pub bound: Option<f64>,
}

const fn bounded(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: None,
    }
}

/// What a user of the service sees, on every workload.
pub const END_TO_END: [Metric; 5] = [
    bounded("ops_per_s", "1/s", true, 0.15),
    bounded("p50_ms", "ms", false, 0.15),
    bounded("p95_ms", "ms", false, 0.25),
    bounded("peak_rss_mb", "MB", false, 0.25),
    bounded("setup_s", "s", false, 0.25),
];

/// End-to-end numbers only one workload has. They are written to the
/// run file and judged by `compare`; the one-line result carries the
/// five every workload shares.
pub const EXTRA: [Metric; 5] = [
    bounded("p99_ms", "ms", false, 0.20),
    bounded("commit_p50_ms", "ms", false, 0.10),
    bounded("fresh_p50_ms", "ms", false, 0.10),
    bounded("ingest_tuples_per_s", "1/s", true, 0.10),
    layer("reader_misses", "count", false),
];

/// One layer each, from the traced run. A layer a workload never
/// reaches reads 0 there.
pub const PER_LAYER: [Metric; 30] = [
    layer("datalog.parse_us", "us", false),
    layer("plangen.search_us", "us", false),
    layer("exec.busy_ms", "ms", false),
    layer("exec.rows", "count", false),
    layer("exec.rows_per_result", "rows/row", false),
    layer("engine.busy_ms", "ms", false),
    layer("engine.rows_per_s", "1/s", true),
    layer("delta.build_ms", "ms", false),
    layer("delta.apply_us_per_tuple", "us", false),
    layer("delta.recheck_tuples", "count", false),
    layer("delta.maintained_ratio", "ratio", true),
    layer("tsv.parse_mb_s", "MB/s", true),
    layer("catalog.fingerprint_ms", "ms", false),
    layer("wal.commit_us", "us", false),
    layer("wal.bytes_per_user_byte", "ratio", false),
    layer("wal.compactions", "count", false),
    layer("cache.hit_ratio", "ratio", true),
    layer("cache.hit_us", "us", false),
    layer("net.overhead_us", "us", false),
    layer("pool.queue_depth_max", "count", false),
    layer("pool.rejected", "count", false),
    layer("shard.scatter_ms", "ms", false),
    layer("shard.worker_max_ms", "ms", false),
    layer("shard.merge_self_ms", "ms", false),
    layer("shard.partial_bytes_per_op", "B", false),
    layer("shard.failovers", "count", false),
    layer("shard.rescatters", "count", false),
    layer("trace.engine_share", "ratio", true),
    layer("trace.ingest_share", "ratio", true),
    layer("trace.overhead_frac", "ratio", false),
];

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    /// Trace files, the run file and every temporary directory live
    /// under here.
    pub out_dir: PathBuf,
    /// The binary child nodes run (this one).
    pub exe: PathBuf,
}

/// What one run of one workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every invariant held too (cache flags, delta and shard counters).
    pub correct: bool,
    /// `END_TO_END` (untraced) or `PER_LAYER` (traced), by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// `EXTRA` values that apply to this workload.
    pub extra: Vec<(&'static str, f64)>,
    pub problems: Vec<String>,
    /// What was loaded and how many ops of each kind completed.
    pub detail: Json,
}

/// What one client saw during one timed section.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Latencies of this client's primary-class ops, ms.
    primary_ms: Vec<f64>,
    /// Flock ops completed, and the wall time they took.
    flocks: u64,
    elapsed_s: f64,
    hits: u64,
    /// Distinct `(text, state, body hash)` answers and how often each
    /// came back; every one is checked once, after the section.
    seen: HashMap<(usize, usize, u64), (String, u64)>,
    /// Per text the servers evaluated (a response said
    /// `cache_hit:false`): the `rows` and `results` of the first such
    /// response, and how many there were.
    evaluated: HashMap<usize, (u64, u64, u64)>,
    /// Per text, the latencies of its flock ops, ms.
    text_ms: HashMap<usize, Vec<f64>>,
    commit_ms: Vec<f64>,
    retract_commits: u64,
    fresh_ms: Vec<f64>,
    delta_tuples: u64,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        // Enough to diagnose; a broken run would otherwise print one
        // line per op.
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

struct Driver<'a> {
    plan: &'a Plan,
    tracer: Option<&'a Tracer>,
    deadline: Instant,
}

impl Driver<'_> {
    /// One flock request: send, time, check the meta, remember the
    /// body. Returns the latency in ms, or `None` when the connection
    /// is gone and the client should stop.
    fn flock(
        &self,
        client: &mut Client,
        log: &mut ClientLog,
        text: usize,
        state: usize,
        expect: Expect,
    ) -> Option<f64> {
        let payload = &self.plan.texts[text];
        let open = self
            .tracer
            .and_then(|t| t.client_send(payload_key(payload)));
        let start = Instant::now();
        let outcome = client.flock(payload, None, RequestLimits::default());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        let gone = outcome.is_err();
        match request_ok(outcome) {
            Ok((meta, body)) => {
                if let Some(t) = self.tracer {
                    t.exit(open, body.len() as u64);
                }
                log.flocks += 1;
                let hit = meta.contains("\"cache_hit\":true");
                log.hits += u64::from(hit);
                if expect.hit.is_some_and(|want| want != hit) {
                    log.fail(format!("`{payload}` came back with cache_hit:{hit}"));
                } else if expect.sharded
                    && !(meta.contains("\"sharded\":true")
                        && meta.contains("\"rescatters\":0,\"failovers\":0"))
                {
                    log.fail(format!("`{payload}` was not a clean scatter: {meta}"));
                }
                if !hit {
                    let rows = json_u64(&meta, "rows").unwrap_or(0);
                    let results = json_u64(&meta, "results").unwrap_or(0);
                    log.evaluated.entry(text).or_insert((rows, results, 0)).2 += 1;
                }
                let key = (text, state, payload_key(&body));
                log.seen.entry(key).or_insert((body, 0)).1 += 1;
                log.text_ms.entry(text).or_default().push(ms);
                Some(ms)
            }
            Err(e) => {
                log.fail(format!("`{payload}`: {e}"));
                (!gone).then_some(ms)
            }
        }
    }

    fn commit(&self, client: &mut Client, log: &mut ClientLog, delta: &Delta) -> Option<f64> {
        let (tsv, tuples) = (delta.tsv.as_str(), delta.tuples);
        let open = self.tracer.and_then(|t| t.client_send(payload_key(tsv)));
        let start = Instant::now();
        let outcome = if delta.retract {
            client.retract("live", tsv)
        } else {
            client.append("live", tsv)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        let gone = outcome.is_err();
        match request_ok(outcome) {
            Ok((meta, _)) => {
                if let Some(t) = self.tracer {
                    t.exit(open, 0);
                }
                // Batches are disjoint: an append adds, and a
                // retraction removes, exactly the tuples it names.
                let moved = json_u64(&meta, "added").or(json_u64(&meta, "removed"));
                if moved != Some(tuples as u64) {
                    log.fail(format!("a {tuples}-tuple delta was acknowledged as {meta}"));
                }
                log.commit_ms.push(ms);
                log.delta_tuples += tuples as u64;
                log.retract_commits += u64::from(delta.retract);
                Some(ms)
            }
            Err(e) => {
                log.fail(format!("commit of {tuples} tuples: {e}"));
                (!gone).then_some(ms)
            }
        }
    }

    /// A flock client: requests `from..` of its cycle until the
    /// deadline. Returns where it stopped, so a later section continues
    /// the cycle instead of re-asking what the last one left cached.
    fn flocks(
        &self,
        client: &mut Client,
        (requests, primary, expect): (&[usize], bool, Expect),
        from: usize,
        log: &mut ClientLog,
    ) -> usize {
        let start = Instant::now();
        let mut at = from;
        while Instant::now() < self.deadline {
            match self.flock(client, log, requests[at % requests.len()], 0, expect) {
                Some(ms) if primary => log.primary_ms.push(ms),
                Some(_) => {}
                None => break,
            }
            at += 1;
        }
        log.elapsed_s = start.elapsed().as_secs_f64();
        at
    }

    /// The writer: iterations `from..` until the deadline. Returns the
    /// next iteration, so a later section continues the stream.
    fn ingest(
        &self,
        client: &mut Client,
        live: &Live,
        (count, max): (usize, usize),
        from: usize,
        log: &mut ClientLog,
    ) -> usize {
        let (window, pool) = (self.plan.sizes.window, self.plan.sizes.pool);
        let start = Instant::now();
        let mut i = from;
        'stream: while Instant::now() < self.deadline {
            for delta in live.deltas_of_iteration(window, i % pool) {
                let Some(commit_ms) = self.commit(client, log, &delta) else {
                    break 'stream;
                };
                // Read-your-write: the first answer after the ack must
                // already reflect the delta.
                let state = state_after(pool, i, delta.retract);
                let text = if delta.retract { max } else { count };
                let Some(fresh_ms) = self.flock(client, log, text, state, Expect::default()) else {
                    break 'stream;
                };
                log.fresh_ms.push(fresh_ms);
                log.primary_ms.push(commit_ms + fresh_ms);
            }
            i += 1;
        }
        log.elapsed_s = start.elapsed().as_secs_f64();
        i
    }
}

/// Start the workload's servers, load the catalog over the wire and
/// answer the warm-up requests. Returns the cluster and the seconds all
/// of that took.
fn set_up(plan: &Plan, host: &Host, data_dir: &Path) -> Result<(Cluster, f64), String> {
    let start = Instant::now();
    let cluster = Cluster::start(plan.spec, host, data_dir)?;
    let mut client = cluster.connect()?;
    for table in plan.all_tables() {
        request_ok(client.load(&table.tsv)).map_err(|e| format!("load {}: {e}", table.name))?;
    }
    for &text in &plan.warmup {
        let payload = &plan.texts[text];
        request_ok(client.flock(payload, None, RequestLimits::default()))
            .map_err(|e| format!("warm-up `{payload}`: {e}"))?;
    }
    Ok((cluster, start.elapsed().as_secs_f64()))
}

/// Run every client's script against `cluster` for `seconds`.
/// `cursors` holds, per client, where its script stands (request index
/// or stream iteration) and is advanced.
fn timed_section(
    plan: &Plan,
    cluster: &Cluster,
    tracer: Option<&Tracer>,
    seconds: f64,
    cursors: &mut [usize],
) -> Result<Vec<ClientLog>, String> {
    let mut clients = Vec::new();
    for _ in &plan.scripts {
        clients.push(cluster.connect()?);
    }
    let barrier = Barrier::new(clients.len());
    // Every client computes the same deadline from the same instant.
    let origin = Instant::now() + Duration::from_millis(20);
    let logs: Vec<(ClientLog, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .scripts
            .iter()
            .zip(clients)
            .zip(cursors.iter().copied())
            .map(|((script, mut client), from)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let driver = Driver {
                        plan,
                        tracer,
                        deadline: origin + Duration::from_secs_f64(seconds),
                    };
                    let mut log = ClientLog::default();
                    barrier.wait();
                    std::thread::sleep(origin.saturating_duration_since(Instant::now()));
                    let next = match script {
                        Script::Flocks {
                            requests,
                            primary,
                            expect,
                        } => driver.flocks(
                            &mut client,
                            (requests, *primary, *expect),
                            from,
                            &mut log,
                        ),
                        Script::Ingest { count, max } => {
                            let live = plan.live.as_ref().expect("an ingest script has a stream");
                            driver.ingest(&mut client, live, (*count, *max), from, &mut log)
                        }
                    };
                    (log, next)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for ((log, next), cursor) in logs.into_iter().zip(cursors) {
        *cursor = next;
        out.push(log);
    }
    Ok(out)
}

struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Check every distinct answer against the oracle and fold the clients'
/// tallies together.
fn verify(plan: &Plan, oracle: &Oracle, logs: &mut [ClientLog]) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    for log in logs.iter_mut() {
        for ((text, state, _), (body, count)) in &log.seen {
            if let Err(e) = oracle.check(*text, *state, body) {
                log.failed += count;
                if log.problems.len() < 8 {
                    log.problems.push(format!(
                        "wrong answer ×{count} to {} `{}` in state {state}: {e}",
                        plan.labels[*text], plan.texts[*text]
                    ));
                }
            }
        }
        v.attempted += log.attempted;
        v.failed += log.failed;
        v.problems.append(&mut log.problems);
    }
    v
}

/// The `stats` verb's counters, after the timed section.
struct ServerStats(String);

impl ServerStats {
    fn fetch(cluster: &Cluster) -> Result<ServerStats, String> {
        let mut client = cluster.connect()?;
        request_ok(client.stats()).map(|(meta, _)| ServerStats(meta))
    }

    fn get(&self, key: &str) -> f64 {
        json_u64(&self.0, key).unwrap_or(0) as f64
    }
}

/// The invariants a final `stats` must show, beyond the per-response
/// ones checked in flight.
fn check_invariants(plan: &Plan, stats: &ServerStats, commits: usize, problems: &mut Vec<String>) {
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    for key in ["rejected", "timeouts", "cancelled", "conn_rejected"] {
        require(
            stats.get(key) == 0.0,
            format!("stats reports {key}={}", stats.get(key)),
        );
    }
    if plan.live.is_some() {
        require(
            stats.get("delta_applied") == commits as f64,
            format!(
                "{commits} commits acknowledged but delta_applied={}",
                stats.get("delta_applied")
            ),
        );
        require(
            stats.get("delta_rebuilds") == 0.0,
            format!("delta_rebuilds={}", stats.get("delta_rebuilds")),
        );
        require(
            commits == 0 || stats.get("delta_maintained") == 2.0 * commits as f64,
            format!(
                "{commits} commits but delta_maintained={} (two maintained flocks each)",
                stats.get("delta_maintained")
            ),
        );
    }
    if plan.spec.front == Front::Shard {
        for key in ["failovers", "rescatters", "local_fallbacks"] {
            require(
                stats.get(key) == 0.0,
                format!("coordinator reports {key}={}", stats.get(key)),
            );
        }
    }
}

fn commits(logs: &[ClientLog]) -> usize {
    logs.iter().map(|l| l.commit_ms.len()).sum()
}

/// Run `body` with a directory of its own for WALs, gone afterwards
/// whether or not `body` succeeds.
fn with_scratch<T>(
    cfg: &RunConfig,
    body: impl FnOnce(&Path) -> Result<T, String>,
) -> Result<T, String> {
    let dir = cfg.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = body(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn op_counts(plan: &Plan, logs: &[ClientLog]) -> Json {
    let sum = |f: fn(&ClientLog) -> u64| Json::Num(logs.iter().map(f).sum::<u64>() as f64);
    Json::obj([
        ("flocks", sum(|l| l.flocks)),
        ("commits", sum(|l| l.commit_ms.len() as u64)),
        ("retractions", sum(|l| l.retract_commits)),
        ("primary_samples", sum(|l| l.primary_ms.len() as u64)),
        ("distinct_answers_checked", sum(|l| l.seen.len() as u64)),
        ("input_digest", Json::str(format!("{:016x}", plan.digest()))),
        (
            "per_text",
            Json::obj(plan.labels.iter().enumerate().filter_map(|(text, label)| {
                let ms: Vec<f64> = logs
                    .iter()
                    .filter_map(|l| l.text_ms.get(&text))
                    .flatten()
                    .copied()
                    .collect();
                (!ms.is_empty()).then(|| {
                    let entry = Json::obj([
                        ("ops", Json::Num(ms.len() as f64)),
                        ("p50_ms", Json::Num(median(&ms))),
                    ]);
                    (label.clone(), entry)
                })
            })),
        ),
        (
            "tuples",
            Json::obj(
                plan.all_tables()
                    .map(|t| (t.name.clone(), Json::Num(t.tuples as f64))),
            ),
        ),
    ])
}

/// The untraced run: servers as processes, end-to-end metrics.
pub fn run_untraced(spec: &'static Spec, cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = Plan::new(spec, cfg.seed, cfg.sizes);
    let oracle = Oracle::build(&plan)?;
    let host = Host::Processes {
        exe: cfg.exe.clone(),
    };
    with_scratch(cfg, |scratch| {
        let mut setups = Vec::new();
        let mut last = None;
        for k in 0..SETUPS {
            if let Some(cluster) = last.take() {
                Cluster::stop(cluster)?;
            }
            let (cluster, seconds) = set_up(&plan, &host, &scratch.join(format!("wal-{k}")))?;
            setups.push(seconds);
            last = Some(cluster);
        }
        let cluster = last.expect("at least one set-up");
        let mut cursors = vec![0; plan.scripts.len()];
        let mut logs = timed_section(&plan, &cluster, None, cfg.seconds, &mut cursors)?;
        let peak_rss_mb = cluster.peak_rss_mb();
        let stats = ServerStats::fetch(&cluster)?;
        cluster.stop()?;

        let mut verdict = verify(&plan, &oracle, &mut logs);
        check_invariants(&plan, &stats, commits(&logs), &mut verdict.problems);
        let primary = sorted(
            logs.iter()
                .flat_map(|l| l.primary_ms.iter().copied())
                .collect(),
        );
        if primary.is_empty() {
            verdict
                .problems
                .push("no primary-class op completed".to_string());
        }
        // Throughput is the flock clients': on live-ingest that is the
        // reader, whose script is not the primary class.
        let ops_per_s: f64 = plan
            .scripts
            .iter()
            .zip(&logs)
            .filter(|(s, _)| matches!(s, Script::Flocks { .. }))
            .map(|(_, l)| l.flocks as f64 / l.elapsed_s)
            .sum();
        let metrics = vec![
            ("ops_per_s", ops_per_s),
            ("p50_ms", percentile(&primary, 50.0)),
            ("p95_ms", percentile(&primary, 95.0)),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", median(&setups)),
        ];
        let mut extra = Vec::new();
        if spec.name == "warm-dashboard" {
            extra.push(("p99_ms", percentile(&primary, 99.0)));
        }
        if let Some(writer) = logs.iter().find(|l| !l.commit_ms.is_empty()) {
            extra.push(("commit_p50_ms", median(&writer.commit_ms)));
            extra.push(("fresh_p50_ms", median(&writer.fresh_ms)));
            extra.push((
                "ingest_tuples_per_s",
                writer.delta_tuples as f64 / writer.elapsed_s,
            ));
            let misses: u64 = logs
                .iter()
                .filter(|l| l.commit_ms.is_empty())
                .map(|l| l.flocks - l.hits)
                .sum();
            extra.push(("reader_misses", misses as f64));
        }
        Ok(Outcome {
            attempted: verdict.attempted,
            failed: verdict.failed,
            correct: verdict.failed == 0 && verdict.problems.is_empty(),
            metrics,
            extra,
            problems: verdict.problems,
            detail: op_counts(&plan, &logs),
        })
    })
}

/// Mean partial bytes per scatter over the distinct requests, each
/// counted once: a count that repeats exactly however long the run.
fn partial_bytes_per_op(scatter: &[&RequestTimes]) -> f64 {
    let by_key: HashMap<u64, u64> = scatter.iter().map(|t| (t.key, t.partial_bytes)).collect();
    if by_key.is_empty() {
        return 0.0;
    }
    by_key.values().sum::<u64>() as f64 / by_key.len() as f64
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: the same topology hosted in this process with every
/// handler wrapped in spans, driven first with spans off (the
/// reference for the tracing overhead), then with spans on; then the
/// layers' entry points are timed directly on the same inputs.
pub fn run_traced(spec: &'static Spec, cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = Plan::new(spec, cfg.seed, cfg.sizes);
    let oracle = Oracle::build(&plan)?;
    let tracer = Arc::new(Tracer::new());
    let host = Host::InProcess {
        tracer: Arc::clone(&tracer),
    };
    with_scratch(cfg, |scratch| {
        let (cluster, _) = set_up(&plan, &host, &scratch.join("wal"))?;
        let mut cursors = vec![0; plan.scripts.len()];
        let mut quiet = timed_section(&plan, &cluster, None, cfg.seconds * 0.2, &mut cursors)?;
        tracer.set_recording(true);
        let mut logs = timed_section(
            &plan,
            &cluster,
            Some(&tracer),
            cfg.seconds * 0.4,
            &mut cursors,
        )?;
        tracer.set_recording(false);
        let stats = ServerStats::fetch(&cluster)?;
        cluster.stop()?;
        let spans = tracer.take_spans();

        let threads: usize = spec
            .front_flags
            .chunks(2)
            .find(|p| p[0] == "--threads")
            .and_then(|p| p[1].parse().ok())
            .unwrap_or(1);
        let mirror = data::mirror(plan.all_tables());
        let storage = trace::profile_storage(&plan, scratch)?;
        let texts = trace::profile_texts(&plan, &mirror, threads, cfg.seconds * 0.4)?;

        let mut verdict = verify(&plan, &oracle, &mut logs);
        let quiet_verdict = verify(&plan, &oracle, &mut quiet);
        verdict.attempted += quiet_verdict.attempted;
        verdict.failed += quiet_verdict.failed;
        verdict.problems.extend(quiet_verdict.problems);
        let committed = commits(&quiet) + commits(&logs);
        check_invariants(&plan, &stats, committed, &mut verdict.problems);

        let times = trace::by_request(&spans);
        let metrics = layer_metrics(&plan, &logs, &quiet, &stats, &times, &texts, &storage);
        let path = cfg.out_dir.join(format!("trace-{}.json", spec.name));
        let file = Json::obj([
            ("workload", Json::str(spec.name)),
            ("seed", Json::Num(cfg.seed as f64)),
            (
                "texts",
                Json::Arr(
                    plan.texts
                        .iter()
                        .zip(&plan.labels)
                        .map(|(text, label)| {
                            Json::obj([
                                ("key", Json::str(format!("{:016x}", payload_key(text)))),
                                ("label", Json::str(label)),
                                ("text", Json::str(text)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::obj(
                    metrics
                        .iter()
                        .map(|(name, value)| (*name, Json::Num(*value))),
                ),
            ),
            ("spans", trace::spans_json(&spans)),
        ]);
        std::fs::write(&path, file.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;

        Ok(Outcome {
            attempted: verdict.attempted,
            failed: verdict.failed,
            correct: verdict.failed == 0 && verdict.problems.is_empty(),
            metrics,
            extra: Vec::new(),
            problems: verdict.problems,
            detail: op_counts(&plan, &logs),
        })
    })
}

fn layer_metrics(
    plan: &Plan,
    logs: &[ClientLog],
    quiet: &[ClientLog],
    stats: &ServerStats,
    times: &[RequestTimes],
    texts: &[TextProfile],
    storage: &StorageProfile,
) -> Vec<(&'static str, f64)> {
    // Texts the servers evaluated (a response said cache_hit:false) and
    // texts they answered from cache, during the traced section.
    let evaluated: Vec<usize> = {
        let mut v: Vec<usize> = logs
            .iter()
            .flat_map(|l| l.evaluated.keys().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let asked: Vec<usize> = {
        let mut v: Vec<usize> = logs
            .iter()
            .flat_map(|l| l.seen.keys().map(|(text, _, _)| *text))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let cached: Vec<usize> = asked
        .iter()
        .copied()
        .filter(|t| !evaluated.contains(t))
        .collect();
    let cold: Vec<&TextProfile> = evaluated.iter().map(|&t| &texts[t]).collect();
    let warm: Vec<&TextProfile> = cached.iter().map(|&t| &texts[t]).collect();
    let every: Vec<&TextProfile> = asked.iter().map(|&t| &texts[t]).collect();

    // Exact counts: each evaluated text once, whatever the run length.
    let (rows, results) = evaluated.iter().fold((0u64, 0u64), |(r, n), t| {
        let (rows, results, _) = logs
            .iter()
            .find_map(|l| l.evaluated.get(t))
            .copied()
            .unwrap_or((0, 0, 0));
        (r + rows, n + results)
    });
    let flocks: u64 = logs.iter().map(|l| l.flocks).sum();
    let hits: u64 = logs.iter().map(|l| l.hits).sum();
    let engine_s: f64 = cold.iter().map(|p| p.engine_ms / 1e3).sum();
    let engine_rows: f64 = cold.iter().map(|p| p.engine_rows).sum();

    let flock_times: Vec<&RequestTimes> = times
        .iter()
        .filter(|t| t.handler == "handler.flock")
        .collect();
    let commit_times =
        |name: &str| -> Vec<&RequestTimes> { times.iter().filter(|t| t.handler == name).collect() };
    let sharded = plan.spec.front == Front::Shard;
    let scatter: Vec<&RequestTimes> = if sharded {
        flock_times.clone()
    } else {
        Vec::new()
    };

    // Share of the handlers' time the engine-side layers account for:
    // each evaluated request is charged its text's directly measured
    // execution and delta-build time; cached requests are charged none.
    let handler_ms: f64 = flock_times.iter().map(|t| t.handler_ms).sum();
    let engine_ms: f64 = evaluated
        .iter()
        .map(|&t| {
            let times: u64 = logs
                .iter()
                .filter_map(|l| l.evaluated.get(&t))
                .map(|(_, _, misses)| *misses)
                .sum();
            (texts[t].exec_ms + texts[t].delta_build_ms) * times as f64
        })
        .sum();
    // The same for commits: TSV parse, fingerprint, WAL commit and the
    // delta applies, against the append/retract handlers' time.
    let (appends, retracts) = (
        commit_times("handler.append"),
        commit_times("handler.retract"),
    );
    let commit_handler_ms: f64 = appends.iter().chain(&retracts).map(|t| t.handler_ms).sum();
    let commit_layers_ms = appends.len() as f64 * storage.append_layers_ms
        + retracts.len() as f64 * storage.retract_layers_ms;

    let p50 = |logs: &[ClientLog]| {
        percentile(
            &sorted(
                logs.iter()
                    .flat_map(|l| l.primary_ms.iter().copied())
                    .collect(),
            ),
            50.0,
        )
    };
    let (traced_p50, quiet_p50) = (p50(logs), p50(quiet));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let durable = plan.spec.durable;

    vec![
        ("datalog.parse_us", median_of(&every, |p| p.parse_us)),
        ("plangen.search_us", median_of(&cold, |p| p.plan_us)),
        ("exec.busy_ms", median_of(&cold, |p| p.exec_ms)),
        ("exec.rows", rows as f64),
        ("exec.rows_per_result", ratio(rows as f64, results as f64)),
        ("engine.busy_ms", median_of(&cold, |p| p.engine_ms)),
        ("engine.rows_per_s", ratio(engine_rows, engine_s)),
        ("delta.build_ms", median_of(&cold, |p| p.delta_build_ms)),
        ("delta.apply_us_per_tuple", storage.delta_apply_us_per_tuple),
        ("delta.recheck_tuples", stats.get("recheck_tuples")),
        (
            "delta.maintained_ratio",
            ratio(
                stats.get("delta_maintained"),
                stats.get("delta_maintained") + stats.get("delta_rebuilds"),
            ),
        ),
        ("tsv.parse_mb_s", storage.tsv_mb_s),
        ("catalog.fingerprint_ms", storage.fingerprint_ms),
        (
            "wal.commit_us",
            if durable { storage.wal_commit_us } else { 0.0 },
        ),
        (
            "wal.bytes_per_user_byte",
            if durable {
                storage.wal_bytes_per_user_byte
            } else {
                0.0
            },
        ),
        ("wal.compactions", stats.get("compactions")),
        ("cache.hit_ratio", ratio(hits as f64, flocks as f64)),
        ("cache.hit_us", median_of(&warm, |p| p.hit_us)),
        (
            "net.overhead_us",
            median_of(times, |t| (t.client_ms - t.handler_ms) * 1e3),
        ),
        ("pool.queue_depth_max", stats.get("queue_depth_max")),
        ("pool.rejected", stats.get("rejected")),
        ("shard.scatter_ms", median_of(&scatter, |t| t.handler_ms)),
        (
            "shard.worker_max_ms",
            median_of(&scatter, |t| t.worker_ms.first().copied().unwrap_or(0.0)),
        ),
        (
            "shard.merge_self_ms",
            median_of(&scatter, |t| t.handler_self_ms),
        ),
        ("shard.partial_bytes_per_op", partial_bytes_per_op(&scatter)),
        ("shard.failovers", stats.get("failovers")),
        ("shard.rescatters", stats.get("rescatters")),
        ("trace.engine_share", ratio(engine_ms, handler_ms)),
        (
            "trace.ingest_share",
            ratio(commit_layers_ms, commit_handler_ms),
        ),
        (
            "trace.overhead_frac",
            ratio(traced_p50 - quiet_p50, quiet_p50),
        ),
    ]
}
