//! # qf-cli — the `qfsh` interactive shell
//!
//! A small line-oriented shell over the query-flocks system: load TSV
//! relations (or generate demo workloads), define a flock in the
//! paper's notation, and run it under any evaluation strategy.
//!
//! ```text
//! qf> gen baskets
//! generated baskets: 1000 baskets
//! qf> flock QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 FILTER: COUNT(answer.B) >= 20
//! flock set (2 parameters)
//! qf> run auto
//! strategy: dynamic (2 voluntary filters)
//! 12 result(s) …
//! ```
//!
//! The interpreter lives in [`Session`] so it is unit-testable; the
//! `qfsh` binary is a thin stdin loop around it.

#![warn(missing_docs)]

use std::fmt::Write as _;

use qf_core::{
    best_plan, evaluate_dynamic, to_sql, DynamicConfig, ExecContext, FlockProgram,
    JoinOrderStrategy, Optimizer, QueryFlock, Strategy,
};
use qf_storage::{tsv, Database, Relation};

/// Resource limits applied to every governed evaluation (`run`).
/// Settable from the command line (`--timeout`, `--max-rows`,
/// `--mem-budget`, `--threads`) or the `limits` shell command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Limits {
    /// Cap on tuples materialized per evaluation.
    pub max_rows: Option<u64>,
    /// Cap on estimated materialized bytes per evaluation.
    pub mem_budget: Option<u64>,
    /// Wall-clock deadline per evaluation, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Worker threads per evaluation (default: available parallelism,
    /// or the `QF_THREADS` environment variable).
    pub threads: Option<usize>,
}

impl Limits {
    /// Build a fresh execution context enforcing these limits. Each
    /// evaluation gets its own context so the deadline restarts.
    pub fn context(&self) -> ExecContext {
        let mut ctx = ExecContext::unbounded();
        if let Some(rows) = self.max_rows {
            ctx = ctx.with_max_rows(rows);
        }
        if let Some(bytes) = self.mem_budget {
            ctx = ctx.with_mem_budget(bytes);
        }
        if let Some(ms) = self.timeout_ms {
            ctx = ctx.with_timeout(std::time::Duration::from_millis(ms));
        }
        if let Some(n) = self.threads {
            ctx = ctx.with_threads(n);
        }
        ctx
    }

    /// True when no limit is set.
    pub fn is_unbounded(&self) -> bool {
        *self == Limits::default()
    }
}

impl std::fmt::Display for Limits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unbounded() {
            return f.write_str("no limits");
        }
        let mut parts = Vec::new();
        if let Some(r) = self.max_rows {
            parts.push(format!("max-rows={r}"));
        }
        if let Some(b) = self.mem_budget {
            parts.push(format!("mem-budget={b}"));
        }
        if let Some(t) = self.timeout_ms {
            parts.push(format!("timeout={t}ms"));
        }
        if let Some(n) = self.threads {
            parts.push(format!("threads={n}"));
        }
        f.write_str(&parts.join(" "))
    }
}

/// Interactive session state: the working database and current program
/// (views + flock; a plain flock is a program with no views).
#[derive(Default)]
pub struct Session {
    /// Loaded/generated relations.
    pub db: Database,
    /// The current flock program, if one was defined.
    pub program: Option<FlockProgram>,
    /// Resource limits applied to `run`.
    pub limits: Limits,
    /// Spill directory for out-of-core execution: when set, a governed
    /// `run` that would trip its memory budget spills intermediate
    /// state to disk and continues instead of aborting.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Run directory for crash-safe resume: when set, completed
    /// `FILTER` steps are journaled there and a re-run resumes from
    /// the last completed step.
    pub journal_dir: Option<std::path::PathBuf>,
    /// Emit `run` results as a single JSON object instead of text.
    pub report_json: bool,
    /// Deterministic I/O fault injection for spill and journal files:
    /// `(seed, rate)` — roughly one fault per `rate` faultable
    /// operations, driven by `seed` (`--io-faults seed=N [rate=M]`).
    pub io_faults: Option<(u64, u64)>,
    /// Malformed TSV data lines skipped by lossy loads this session.
    pub tsv_skipped: u64,
}

impl Session {
    /// Fresh session with an empty database.
    pub fn new() -> Session {
        Session::default()
    }

    /// Execute one command line, returning the text to print.
    pub fn execute_line(&mut self, line: &str) -> Result<String, String> {
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "" => Ok(String::new()),
            "help" | "?" => Ok(HELP.to_string()),
            "load" => self.load(rest),
            "save" => self.save(rest),
            "rels" => Ok(self.rels()),
            "show" => self.show(rest),
            "gen" => self.generate(rest),
            "flock" => self.set_flock(rest),
            "limits" => self.set_limits(rest),
            "spill" => self.set_spill(rest),
            "resume" => self.set_resume(rest),
            "faults" => self.set_faults(rest),
            "report" => self.set_report(rest),
            "run" => self.run(rest),
            "plan" => self.plan(),
            "sql" => self.sql(),
            "explain" => self.explain(),
            "quit" | "exit" => Err("quit".to_string()),
            other => Err(format!("unknown command `{other}` (try `help`)")),
        }
    }

    fn load(&mut self, path: &str) -> Result<String, String> {
        if path.is_empty() {
            return Err("usage: load <file.tsv>".to_string());
        }
        let lossy = tsv::load_tsv_lossy(path).map_err(|e| e.to_string())?;
        let rel = lossy.relation;
        let mut msg = format!("loaded {} [{} tuples]", rel.schema(), rel.len());
        if lossy.skipped > 0 {
            self.tsv_skipped += lossy.skipped as u64;
            let _ = write!(msg, " (skipped {} malformed line(s))", lossy.skipped);
        }
        self.db.insert(rel);
        Ok(msg)
    }

    fn save(&mut self, rest: &str) -> Result<String, String> {
        let (name, path) = rest
            .split_once(char::is_whitespace)
            .ok_or("usage: save <relation> <file.tsv>")?;
        let rel = self.db.get(name.trim()).map_err(|e| e.to_string())?;
        tsv::save_tsv(rel, path.trim()).map_err(|e| e.to_string())?;
        Ok(format!("saved {} tuples to {}", rel.len(), path.trim()))
    }

    fn rels(&self) -> String {
        if self.db.is_empty() {
            return "no relations loaded (try `gen baskets` or `load <file>`)".to_string();
        }
        let mut out = String::new();
        for r in self.db.iter() {
            let _ = writeln!(out, "{} [{} tuples]", r.schema(), r.len());
        }
        out.trim_end().to_string()
    }

    fn show(&self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let name = parts.next().ok_or("usage: show <relation> [n]")?;
        let n: usize = parts
            .next()
            .map(|s| s.parse().map_err(|_| "bad row count".to_string()))
            .transpose()?
            .unwrap_or(10);
        let rel = self.db.get(name).map_err(|e| e.to_string())?;
        let mut out = format!("{} [{} tuples]\n", rel.schema(), rel.len());
        for t in rel.iter().take(n) {
            let _ = writeln!(out, "  {t}");
        }
        if rel.len() > n {
            let _ = writeln!(out, "  … {} more", rel.len() - n);
        }
        Ok(out.trim_end().to_string())
    }

    fn generate(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let what = parts.next().unwrap_or("");
        let seed: u64 = parts
            .next()
            .map(|s| s.parse().map_err(|_| "bad seed".to_string()))
            .transpose()?
            .unwrap_or(1);
        match what {
            "baskets" => {
                let config = qf_datagen::BasketConfig {
                    seed,
                    ..Default::default()
                };
                let data = qf_datagen::baskets::generate(&config);
                let n = data.baskets.distinct(0);
                self.db.insert(data.baskets);
                self.db.insert(qf_datagen::baskets::importance(&config, 50));
                Ok(format!(
                    "generated baskets ({n} baskets) and importance weights"
                ))
            }
            "words" => {
                let rel = qf_datagen::words::generate(&qf_datagen::WordsConfig {
                    seed,
                    ..Default::default()
                });
                let msg = format!("generated baskets (word occurrences, {} tuples)", rel.len());
                self.db.insert(rel);
                Ok(msg)
            }
            "medical" => {
                let data = qf_datagen::medical::generate(&qf_datagen::MedicalConfig {
                    seed,
                    ..Default::default()
                });
                for rel in data.db.iter() {
                    self.db.insert(rel.clone());
                }
                Ok(format!(
                    "generated medical db (planted side-effects: {:?})",
                    data.planted
                ))
            }
            "web" => {
                let data = qf_datagen::web::generate(&qf_datagen::WebConfig {
                    seed,
                    ..Default::default()
                });
                for rel in data.db.iter() {
                    self.db.insert(rel.clone());
                }
                Ok(format!(
                    "generated web corpus (planted pairs: {:?})",
                    data.planted
                ))
            }
            "graph" => {
                let rel = qf_datagen::graph::generate(&qf_datagen::GraphConfig {
                    seed,
                    ..Default::default()
                });
                let msg = format!("generated arc ({} arcs)", rel.len());
                self.db.insert(rel);
                Ok(msg)
            }
            _ => Err("usage: gen <baskets|words|medical|web|graph> [seed]".to_string()),
        }
    }

    fn set_flock(&mut self, text: &str) -> Result<String, String> {
        if text.is_empty() {
            return match &self.program {
                Some(p) => Ok(p.flock().render()),
                None => Err("no flock set; usage: flock [views…] QUERY: … FILTER: …".to_string()),
            };
        }
        // `flock fingerprint`: canonical form + fingerprint of the
        // current program — the identity the server's caches key on.
        if text == "fingerprint" {
            let program = self.current_program()?;
            return Ok(format!(
                "fingerprint: {:016x}\n{}",
                program.fingerprint(),
                program.canonical_text()
            ));
        }
        let program = FlockProgram::parse(text).map_err(|e| e.to_string())?;
        let n = program.flock().params().len();
        let v = program.views().len();
        self.program = Some(program);
        if v > 0 {
            Ok(format!("flock set ({n} parameters, {v} view rule(s))"))
        } else {
            Ok(format!("flock set ({n} parameters)"))
        }
    }

    fn set_limits(&mut self, rest: &str) -> Result<String, String> {
        if rest.is_empty() {
            return Ok(self.limits.to_string());
        }
        if rest == "none" {
            self.limits = Limits::default();
            return Ok("limits cleared".to_string());
        }
        let mut limits = self.limits;
        for part in rest.split_whitespace() {
            let (key, value) = part
                .split_once('=')
                .ok_or("usage: limits [none | max-rows=N mem-budget=BYTES timeout=MS threads=N]")?;
            match key {
                "max-rows" => limits.max_rows = Some(parse_count(value)?),
                "mem-budget" => limits.mem_budget = Some(parse_count(value)?),
                "timeout" => limits.timeout_ms = Some(parse_millis(value)?),
                "threads" => {
                    let n = parse_count(value)?;
                    if n == 0 {
                        return Err("threads must be at least 1".to_string());
                    }
                    limits.threads = Some(n as usize);
                }
                other => return Err(format!("unknown limit `{other}`")),
            }
        }
        self.limits = limits;
        Ok(self.limits.to_string())
    }

    fn set_spill(&mut self, rest: &str) -> Result<String, String> {
        match rest {
            "" => Ok(match &self.spill_dir {
                Some(d) => format!("spill directory: {}", d.display()),
                None => "spilling disabled".to_string(),
            }),
            "none" => {
                self.spill_dir = None;
                Ok("spilling disabled".to_string())
            }
            dir => {
                self.spill_dir = Some(dir.into());
                Ok(format!("spill directory: {dir}"))
            }
        }
    }

    fn set_resume(&mut self, rest: &str) -> Result<String, String> {
        match rest {
            "" => Ok(match &self.journal_dir {
                Some(d) => format!("run journal: {}", d.display()),
                None => "journaling disabled".to_string(),
            }),
            "none" => {
                self.journal_dir = None;
                Ok("journaling disabled".to_string())
            }
            dir => {
                self.journal_dir = Some(dir.into());
                Ok(format!("run journal: {dir}"))
            }
        }
    }

    fn set_faults(&mut self, rest: &str) -> Result<String, String> {
        match rest {
            "" => Ok(match self.io_faults {
                Some((seed, rate)) => format!("fault injection: seed={seed} rate={rate}"),
                None => "fault injection disabled".to_string(),
            }),
            "none" => {
                self.io_faults = None;
                Ok("fault injection disabled".to_string())
            }
            args => {
                let mut seed = None;
                let mut rate = 200u64; // ~one fault per 200 faultable ops
                for part in args.split_whitespace() {
                    let (key, value) = part
                        .split_once('=')
                        .ok_or("usage: faults [none | seed=N [rate=M]]")?;
                    match key {
                        "seed" => seed = Some(parse_count(value)?),
                        "rate" => {
                            rate = parse_count(value)?;
                            if rate == 0 {
                                return Err("rate must be at least 1".to_string());
                            }
                        }
                        other => return Err(format!("unknown faults key `{other}`")),
                    }
                }
                let seed = seed.ok_or("faults needs seed=N")?;
                self.io_faults = Some((seed, rate));
                Ok(format!("fault injection: seed={seed} rate={rate}"))
            }
        }
    }

    /// The filesystem backend spill and journal I/O should use: a
    /// seeded chaos injector when `faults` is set, the real filesystem
    /// otherwise.
    fn io_vfs(&self) -> std::sync::Arc<dyn qf_storage::Vfs> {
        match self.io_faults {
            Some((seed, rate)) => std::sync::Arc::new(qf_storage::ChaosFs::seeded(seed, rate)),
            None => qf_storage::real_fs(),
        }
    }

    fn set_report(&mut self, rest: &str) -> Result<String, String> {
        match rest {
            "json" => {
                self.report_json = true;
                Ok("reporting: json".to_string())
            }
            "" => Ok(format!(
                "reporting: {}",
                if self.report_json { "json" } else { "text" }
            )),
            "text" => {
                self.report_json = false;
                Ok("reporting: text".to_string())
            }
            other => Err(format!("unknown report format `{other}` (text|json)")),
        }
    }

    /// Build the execution context for a `run`: the configured limits,
    /// the `QF_MEM_BUDGET` environment fallback for the memory budget,
    /// and the spill directory when one is set.
    fn run_context(&self) -> Result<ExecContext, String> {
        let mut ctx = self.limits.context();
        if self.limits.mem_budget.is_none() {
            if let Some(b) = qf_core::env_mem_budget() {
                ctx = ctx.with_mem_budget(b);
            }
        }
        if let Some(dir) = &self.spill_dir {
            let sd =
                qf_storage::SpillDir::create_on(self.io_vfs(), dir).map_err(|e| e.to_string())?;
            ctx = ctx.with_spill(std::sync::Arc::new(sd));
        }
        Ok(ctx)
    }

    fn current_program(&self) -> Result<&FlockProgram, String> {
        self.program
            .as_ref()
            .ok_or_else(|| "no flock set (use `flock QUERY: … FILTER: …`)".to_string())
    }

    fn current_flock(&self) -> Result<&QueryFlock, String> {
        Ok(self.current_program()?.flock())
    }

    fn run(&mut self, rest: &str) -> Result<String, String> {
        let strategy = match rest {
            "" | "auto" => Strategy::Auto,
            "direct" => Strategy::Direct,
            "static" => Strategy::BestStatic,
            "dynamic" => Strategy::Dynamic,
            other => return Err(format!("unknown strategy `{other}`")),
        };
        let program = self.current_program()?.clone();
        let ctx = self.run_context()?;
        let mut optimizer = Optimizer::with_strategy(strategy);
        optimizer.config.journal_dir = self.journal_dir.clone();
        if self.io_faults.is_some() {
            optimizer.config.journal_vfs = Some(self.io_vfs());
        }
        let start = std::time::Instant::now();
        let evaluation = program
            .evaluate_governed(&self.db, &optimizer, &ctx)
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        if self.report_json {
            return Ok(json_report(&evaluation, elapsed, self.tsv_skipped));
        }
        let mut out = format!(
            "strategy: {} ({elapsed:?})\n{} result(s)",
            evaluation.strategy_used,
            evaluation.result.len()
        );
        if !self.limits.is_unbounded() {
            let _ = write!(
                out,
                "\ngoverned: {} rows, ~{} bytes materialized, {} worker(s) ({})",
                evaluation.stats.rows,
                evaluation.stats.bytes,
                evaluation.stats.workers,
                self.limits
            );
        }
        if evaluation.stats.spilled_bytes > 0 {
            let _ = write!(
                out,
                "\nspilled: {} bytes across {} file(s)",
                evaluation.stats.spilled_bytes, evaluation.stats.spills
            );
        }
        if evaluation.resumed_steps > 0 {
            let _ = write!(
                out,
                "\nresumed: {} step(s) replayed from the journal",
                evaluation.resumed_steps
            );
        }
        if evaluation.stats.io_retries > 0 || evaluation.stats.corruption_recoveries > 0 {
            let _ = write!(
                out,
                "\nrecovered: {} transient retry(ies), {} corruption recompute(s)",
                evaluation.stats.io_retries, evaluation.stats.corruption_recoveries
            );
        }
        for d in &evaluation.stats.degradations {
            let _ = write!(out, "\ndegraded [{}]: {}", d.stage, d.detail);
        }
        for t in evaluation.result.iter().take(20) {
            let _ = write!(out, "\n  {t}");
        }
        if evaluation.result.len() > 20 {
            let _ = write!(out, "\n  … {} more", evaluation.result.len() - 20);
        }
        Ok(out)
    }

    fn plan(&self) -> Result<String, String> {
        let program = self.current_program()?;
        let working = program
            .materialize_views(&self.db, JoinOrderStrategy::Greedy)
            .map_err(|e| e.to_string())?;
        let flock = program.flock();
        let (plan, cost) = best_plan(flock, &working).map_err(|e| e.to_string())?;
        let report = qf_core::estimate_plan_report(&plan, &working, JoinOrderStrategy::Greedy)
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "-- estimated cost: {cost:.0} tuples\n{plan}\n\n{}",
            report.render()
        ))
    }

    fn sql(&self) -> Result<String, String> {
        let flock = self.current_flock()?;
        to_sql(flock).map_err(|e| e.to_string())
    }

    fn explain(&self) -> Result<String, String> {
        let program = self.current_program()?;
        let working = program
            .materialize_views(&self.db, JoinOrderStrategy::Greedy)
            .map_err(|e| e.to_string())?;
        let flock = program.flock();
        let compiled = qf_core::compile_answer(flock.query(), &working, JoinOrderStrategy::Greedy)
            .map_err(|e| e.to_string())?;
        let mut out = compiled.plan.explain();
        if let Ok(est) = qf_engine::estimate(&compiled.plan, &working) {
            let _ = write!(out, "-- estimated answer tuples: {:.0}", est.rows);
        }
        // For single-rule COUNT flocks, also show the dynamic trace.
        if flock.query().is_single() {
            if let Ok(report) = evaluate_dynamic(flock, &working, &DynamicConfig::default()) {
                let _ = write!(out, "\n-- dynamic decisions:");
                for d in &report.decisions {
                    let _ = write!(
                        out,
                        "\n--   after {}: {}",
                        d.after_subgoal,
                        if d.filtered { "FILTER" } else { "skip" }
                    );
                }
            }
        }
        Ok(out)
    }

    /// Reference to a loaded relation (test helper).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.db.get(name).ok()
    }
}

/// Render an evaluation as one JSON object. Delegates to the server's
/// shared report builder so local runs and server responses emit the
/// same shape; local runs have no cache in play, so the cache keys are
/// all zero/false.
fn json_report(
    evaluation: &qf_core::Evaluation,
    elapsed: std::time::Duration,
    tsv_skipped: u64,
) -> String {
    qf_server::json_report(
        &evaluation.strategy_used,
        evaluation.result.len(),
        elapsed.as_millis(),
        &evaluation.stats,
        evaluation.resumed_steps,
        tsv_skipped,
        &qf_server::CacheReport::default(),
    )
}

/// `qfsh serve --addr host:port [--data-dir DIR --threads N
/// --queue-cap N --cache-entries K --max-rows N --mem-budget BYTES
/// --timeout MS --max-conns N --idle-timeout MS --io-timeout MS
/// --retry-after MS]`: run the resident flock server. Blocks until a
/// client sends `shutdown` (the server drains in-flight work first).
///
/// With `--data-dir` the catalog is durable: every mutation
/// (`load`/`gen`/`append`/`retract`) is committed to a write-ahead log in DIR
/// before it is acknowledged, and a restart on the same DIR recovers
/// exactly the acknowledged catalog (snapshot + log replay,
/// checksum-verified, torn tail truncated).
pub fn serve_main(args: &[String]) -> Result<String, String> {
    let mut config = qf_server::ServerConfig::default();
    let mut addr = "127.0.0.1:7447".to_string();
    let mut data_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let (key, value) = flag_value(args, &mut i)?;
        match key.as_str() {
            "addr" => addr = value,
            "data-dir" => data_dir = Some(value),
            "threads" => config.threads = parse_count(&value)? as usize,
            "queue-cap" => config.queue_cap = parse_count(&value)? as usize,
            "cache-entries" => config.cache_entries = parse_count(&value)? as usize,
            "max-rows" => config.max_rows = Some(parse_count(&value)?),
            "mem-budget" => config.mem_budget = Some(parse_count(&value)?),
            "timeout" => config.timeout_ms = Some(parse_millis(&value)?),
            "max-conns" => config.max_conns = parse_count(&value)? as usize,
            "idle-timeout" => config.idle_timeout_ms = parse_millis(&value)?,
            "io-timeout" => config.io_timeout_ms = parse_millis(&value)?,
            "retry-after" => config.retry_after_ms = parse_millis(&value)?,
            other => return Err(format!("unknown serve flag `--{other}`")),
        }
    }
    let server = match &data_dir {
        Some(dir) => {
            let service = std::sync::Arc::new(open_durable_service(config, dir)?);
            qf_server::Server::serve_handler(
                std::sync::Arc::new(qf_server::LocalHandler::new(service)),
                &addr,
            )
        }
        None => qf_server::Server::serve(config, Database::new(), &addr),
    }
    .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("qf-server listening on {}", server.addr());
    server.join();
    Ok("qf-server drained and shut down".to_string())
}

/// Open the write-ahead log in `dir` and build a durable service over
/// the catalog it recovers. Shared by `serve` and `shard`.
fn open_durable_service(
    config: qf_server::ServerConfig,
    dir: &str,
) -> Result<qf_server::FlockService, String> {
    let (wal, db) = qf_storage::Wal::open(
        qf_storage::real_fs(),
        std::path::Path::new(dir),
        qf_storage::WalOptions::default(),
    )
    .map_err(|e| format!("data dir {dir}: {e}"))?;
    println!(
        "qf-server data dir {dir}: recovered {} relation(s) at wal seq {}",
        db.len(),
        wal.last_seq()
    );
    Ok(qf_server::FlockService::with_wal(config, db, wal))
}

/// `qfsh shard --addr host:port --shards host:port,host:port,…
/// [--replicas R --fail-threshold K --probe-interval MS
/// --hedge-after-ms MS --replicate rel1,rel2,… --shard-retries K
/// --shard-io-timeout MS and every `serve` flag]`: run the
/// scatter-gather coordinator over a fleet of already-running
/// `qfsh serve` workers. The coordinator speaks the same protocol as a
/// standalone server — `qfsh client` points at it unchanged — and
/// holds the master catalog: `load`/`gen` mutations partition and
/// re-push every fragment to its `--replicas` hosts (`append`/`retract`
/// ship only the delta tuples to the fragments they touch), shardable
/// flocks
/// scatter per `FILTER` step (failing over across replicas, hedging
/// slow primaries after `--hedge-after-ms`) and merge algebraically,
/// and everything else runs locally against the master. Workers that
/// fail `--fail-threshold` RPCs in a row are circuit-broken until the
/// background probe (every `--probe-interval` ms) re-syncs and
/// readmits them. With `--data-dir DIR` the master catalog is durable:
/// mutations commit to a write-ahead log before acknowledging, and a
/// coordinator restart recovers, re-partitions, and re-pushes the
/// acknowledged catalog to the fleet.
pub fn shard_main(args: &[String]) -> Result<String, String> {
    let mut config = qf_server::ServerConfig::default();
    let mut shard = qf_server::ShardConfig::default();
    let mut addr = "127.0.0.1:7448".to_string();
    let mut data_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let (key, value) = flag_value(args, &mut i)?;
        match key.as_str() {
            "addr" => addr = value,
            "data-dir" => data_dir = Some(value),
            "shards" => {
                shard.addrs = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            }
            "replicate" => {
                shard.replicated = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            }
            "replicas" => shard.replicas = parse_count(&value)? as usize,
            "fail-threshold" => shard.fail_threshold = parse_count(&value)? as u32,
            "probe-interval" => shard.probe_interval_ms = parse_millis(&value)?,
            "hedge-after-ms" => shard.hedge_after_ms = Some(parse_millis(&value)?),
            "shard-retries" => shard.client.retries = parse_count(&value)? as u32,
            "shard-io-timeout" => {
                shard.client.io_timeout =
                    Some(std::time::Duration::from_millis(parse_millis(&value)?))
            }
            "threads" => config.threads = parse_count(&value)? as usize,
            "queue-cap" => config.queue_cap = parse_count(&value)? as usize,
            "cache-entries" => config.cache_entries = parse_count(&value)? as usize,
            "max-rows" => config.max_rows = Some(parse_count(&value)?),
            "mem-budget" => config.mem_budget = Some(parse_count(&value)?),
            "timeout" => config.timeout_ms = Some(parse_millis(&value)?),
            "max-conns" => config.max_conns = parse_count(&value)? as usize,
            "idle-timeout" => config.idle_timeout_ms = parse_millis(&value)?,
            "io-timeout" => config.io_timeout_ms = parse_millis(&value)?,
            "retry-after" => config.retry_after_ms = parse_millis(&value)?,
            other => return Err(format!("unknown shard flag `--{other}`")),
        }
    }
    if shard.addrs.is_empty() {
        return Err("shard needs --shards host:port[,host:port…] (the worker fleet)".to_string());
    }
    let shards = shard.addrs.len();
    let replicas = shard.replicas.clamp(1, shards.max(1));
    // With --data-dir the *master* catalog is WAL-backed: a restarted
    // coordinator recovers the acknowledged catalog, re-partitions it,
    // and re-syncs every fragment to the workers.
    let coordinator = match &data_dir {
        Some(dir) => {
            let service = std::sync::Arc::new(open_durable_service(config, dir)?);
            let c = qf_server::Coordinator::with_service(service, shard);
            if let Err(e) = c.push_catalog() {
                eprintln!("qf-shard: initial catalog push incomplete ({e}); probe will re-sync");
            }
            c
        }
        None => qf_server::Coordinator::new(config, shard, Database::new()),
    };
    let server = qf_server::Server::serve_handler(std::sync::Arc::new(coordinator), &addr)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "qf-shard coordinator on {} ({shards} shard(s), {replicas} replica(s))",
        server.addr()
    );
    server.join();
    Ok("qf-shard coordinator drained and shut down".to_string())
}

/// `qfsh client --addr host:port [--support N --max-rows N
/// --mem-budget BYTES --timeout MS --threads N --retries K
/// --connect-timeout MS --io-timeout MS] <command…>`: one request
/// against a running server. Commands: `ping`, `stats`, `shutdown`,
/// `gen <kind> [seed]`, `load <file.tsv>`,
/// `append <relation> <file.tsv>`, `retract <relation> <file.tsv>`,
/// `fingerprint <program>`, `flock <program>`. A flock response prints
/// the same one-line JSON report as a local `--report json` run,
/// followed by the result TSV.
///
/// `--timeout` doubles as the server-side request deadline (min'd with
/// the server cap, counted from admission) and `--retries` bounds
/// transparent retries: typed `overloaded`/`timeout`/`proto`/
/// `shutting-down` responses retry for any command; ambiguous
/// transport failures retry only for idempotent commands (everything
/// except `load`/`gen`/`append`/`retract`).
pub fn client_main(args: &[String]) -> Result<String, String> {
    let mut addr: Option<String> = None;
    let mut support: Option<i64> = None;
    let mut limits = qf_server::RequestLimits::default();
    let mut client_config = qf_server::ClientConfig::default();
    let mut i = 0;
    while i < args.len() && args[i].starts_with("--") {
        let (key, value) = flag_value(args, &mut i)?;
        match key.as_str() {
            "addr" => addr = Some(value),
            "support" => {
                support = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad support `{value}`"))?,
                )
            }
            "max-rows" => limits.max_rows = Some(parse_count(&value)?),
            "mem-budget" => limits.mem_budget = Some(parse_count(&value)?),
            "timeout" => limits.timeout_ms = Some(parse_millis(&value)?),
            "threads" => limits.threads = Some(parse_count(&value)? as usize),
            "retries" => client_config.retries = parse_count(&value)? as u32,
            "connect-timeout" => {
                client_config.connect_timeout =
                    std::time::Duration::from_millis(parse_millis(&value)?)
            }
            "io-timeout" => {
                client_config.io_timeout =
                    Some(std::time::Duration::from_millis(parse_millis(&value)?))
            }
            other => return Err(format!("unknown client flag `--{other}`")),
        }
    }
    let addr = addr.ok_or("client needs --addr host:port")?;
    let cmd = args.get(i).map(String::as_str).unwrap_or("ping");
    let rest = args[i + 1..].join(" ");
    let mut client =
        qf_server::Client::connect_with(&addr, client_config).map_err(|e| e.to_string())?;
    let response = match cmd {
        "ping" => client.ping(),
        "stats" => client.stats(),
        "shutdown" => client.shutdown(),
        "fingerprint" => client.fingerprint(&rest),
        "flock" => client.flock(&rest, support, limits),
        "gen" => {
            let mut parts = rest.split_whitespace();
            let kind = parts.next().ok_or("usage: gen <kind> [seed]")?;
            let seed = parts
                .next()
                .map(|s| s.parse().map_err(|_| "bad seed".to_string()))
                .transpose()?
                .unwrap_or(1);
            client.gen(kind, seed)
        }
        "load" => {
            let path = rest.trim();
            if path.is_empty() {
                return Err("usage: load <file.tsv>".to_string());
            }
            let tsv = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            client.load(&tsv)
        }
        "append" => {
            let mut parts = rest.split_whitespace();
            let usage = "usage: append <relation> <file.tsv>";
            let rel = parts.next().ok_or(usage)?;
            let path = parts.next().ok_or(usage)?;
            let tsv = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            client.append(rel, &tsv)
        }
        "retract" => {
            let mut parts = rest.split_whitespace();
            let usage = "usage: retract <relation> <file.tsv>";
            let rel = parts.next().ok_or(usage)?;
            let path = parts.next().ok_or(usage)?;
            let tsv = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            client.retract(rel, &tsv)
        }
        other => return Err(format!("unknown client command `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    match response {
        qf_server::Response::Ok { meta, body } => {
            // Fold this session's retry count into the report: the
            // server fills `"retries":0` (it cannot know about client
            // attempts), so the client owns that field.
            let retries = client.session_stats().retries;
            let meta = if retries > 0 {
                meta.replacen("\"retries\":0", &format!("\"retries\":{retries}"), 1)
            } else {
                meta
            };
            let body = body.trim_end();
            if body.is_empty() || meta == "{}" {
                Ok(if body.is_empty() {
                    meta
                } else {
                    body.to_string()
                })
            } else {
                Ok(format!("{meta}\n{body}"))
            }
        }
        qf_server::Response::Err { kind, detail } => Err(format!("{kind}: {detail}")),
    }
}

/// Parse `--key value` or `--key=value` at `args[*i]`, advancing `i`.
fn flag_value(args: &[String], i: &mut usize) -> Result<(String, String), String> {
    let arg = &args[*i];
    let flag = arg
        .strip_prefix("--")
        .ok_or_else(|| format!("expected --flag, got `{arg}`"))?;
    match flag.split_once('=') {
        Some((k, v)) => {
            *i += 1;
            Ok((k.to_string(), v.to_string()))
        }
        None => {
            if *i + 1 >= args.len() {
                return Err(format!("flag `--{flag}` needs a value"));
            }
            let v = args[*i + 1].clone();
            *i += 2;
            Ok((flag.to_string(), v))
        }
    }
}

/// Parse a non-negative count, accepting decimal `k`/`m`/`g` suffixes
/// (`64k` = 64 000).
fn parse_count(value: &str) -> Result<u64, String> {
    let (digits, mult) = match value.to_ascii_lowercase() {
        v if v.ends_with('k') => (v.len() - 1, 1_000u64),
        v if v.ends_with('m') => (v.len() - 1, 1_000_000),
        v if v.ends_with('g') => (v.len() - 1, 1_000_000_000),
        v => (v.len(), 1),
    };
    value[..digits]
        .parse::<u64>()
        .map_err(|_| format!("bad number `{value}`"))?
        .checked_mul(mult)
        .ok_or_else(|| format!("number `{value}` too large"))
}

/// Parse a duration in milliseconds, accepting `ms` or `s` suffixes.
fn parse_millis(value: &str) -> Result<u64, String> {
    let lower = value.to_ascii_lowercase();
    if let Some(v) = lower.strip_suffix("ms") {
        v.parse().map_err(|_| format!("bad duration `{value}`"))
    } else if let Some(v) = lower.strip_suffix('s') {
        v.parse::<u64>()
            .map_err(|_| format!("bad duration `{value}`"))?
            .checked_mul(1000)
            .ok_or_else(|| format!("duration `{value}` too large"))
    } else {
        lower.parse().map_err(|_| format!("bad duration `{value}`"))
    }
}

/// Help text for the shell.
pub const HELP: &str = "\
commands:
  gen <baskets|words|medical|web|graph> [seed]   generate a demo workload
  load <file.tsv>                                load a relation (header: name<TAB>cols…)
  save <relation> <file.tsv>                     write a relation
  rels                                           list relations
  show <relation> [n]                            preview tuples
  flock [view rules…] QUERY: … FILTER: …         define the current flock (views optional)
  flock fingerprint                              canonical form + cache identity of the flock
  limits [none | max-rows=N mem-budget=BYTES timeout=MS threads=N]   budget every run
  spill [<dir>|none]                             spill to disk under memory pressure
  resume [<dir>|none]                            journal steps; re-run resumes from <dir>
  faults [none | seed=N [rate=M]]                inject deterministic I/O faults (spill+journal)
  report [text|json]                             run output format
  run [auto|direct|static|dynamic]               evaluate the flock
  plan                                           show the cost-based best plan
  sql                                            render the flock as SQL
  explain                                        physical plan + dynamic trace
  quit

server mode (top-level subcommands, not shell commands):
  qfsh serve --addr host:port [--threads N --queue-cap N --cache-entries K
             --max-rows N --mem-budget BYTES --timeout MS --max-conns N
             --idle-timeout MS --io-timeout MS --retry-after MS]
  qfsh shard --addr host:port --shards host:port,host:port,…
             [--replicas R --fail-threshold K --probe-interval MS
             --hedge-after-ms MS --replicate rel1,rel2,…
             --shard-retries K --shard-io-timeout MS + every serve flag]
  qfsh client --addr host:port [--support N --max-rows N --mem-budget BYTES
              --timeout MS --threads N --retries K --connect-timeout MS
              --io-timeout MS] <ping|stats|shutdown|gen|load|fingerprint|flock> …";

#[cfg(test)]
mod tests {
    use super::*;

    fn flock_cmd() -> &'static str {
        "flock QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
         FILTER: COUNT(answer.B) >= 20"
    }

    #[test]
    fn gen_flock_run_pipeline() {
        let mut s = Session::new();
        let msg = s.execute_line("gen baskets").unwrap();
        assert!(msg.contains("generated baskets"));
        assert!(s.relation("baskets").is_some());

        let msg = s.execute_line(flock_cmd()).unwrap();
        assert_eq!(msg, "flock set (2 parameters)");

        for strat in ["run", "run direct", "run static", "run dynamic"] {
            let out = s.execute_line(strat).unwrap();
            assert!(out.contains("result(s)"), "{strat}: {out}");
        }
    }

    #[test]
    fn plan_sql_explain_require_flock() {
        let mut s = Session::new();
        for cmd in ["run", "plan", "sql", "explain"] {
            assert!(s.execute_line(cmd).is_err(), "{cmd} without flock");
        }
        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        assert!(s.execute_line("plan").unwrap().contains("FILTER"));
        assert!(s.execute_line("sql").unwrap().contains("GROUP BY"));
        assert!(s.execute_line("explain").unwrap().contains("Scan baskets"));
    }

    #[test]
    fn rels_and_show() {
        let mut s = Session::new();
        assert!(s.execute_line("rels").unwrap().contains("no relations"));
        s.execute_line("gen graph 7").unwrap();
        assert!(s.execute_line("rels").unwrap().contains("arc"));
        let out = s.execute_line("show arc 3").unwrap();
        assert!(out.contains("more"), "{out}");
        assert!(s.execute_line("show nope").is_err());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let mut s = Session::new();
        s.execute_line("gen baskets").unwrap();
        let dir = std::env::temp_dir().join(format!("qfsh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.tsv");
        let path_str = path.to_str().unwrap();
        s.execute_line(&format!("save baskets {path_str}")).unwrap();
        let mut s2 = Session::new();
        s2.execute_line(&format!("load {path_str}")).unwrap();
        assert_eq!(
            s.relation("baskets").unwrap().tuples(),
            s2.relation("baskets").unwrap().tuples()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported() {
        let mut s = Session::new();
        assert!(s.execute_line("load /no/such/file.tsv").is_err());
        assert!(s.execute_line("gen nothing").is_err());
        assert!(s.execute_line("bogus").is_err());
        assert!(s.execute_line("flock QUERY: broken").is_err());
        // quit signals the loop to stop.
        assert_eq!(s.execute_line("quit").unwrap_err(), "quit");
    }

    #[test]
    fn limits_command_sets_and_clears() {
        let mut s = Session::new();
        assert_eq!(s.execute_line("limits").unwrap(), "no limits");
        let out = s.execute_line("limits max-rows=64k timeout=2s").unwrap();
        assert_eq!(out, "max-rows=64000 timeout=2000ms");
        assert_eq!(s.limits.max_rows, Some(64_000));
        assert_eq!(s.limits.timeout_ms, Some(2_000));
        assert!(s.execute_line("limits rows=5").is_err());
        assert!(s.execute_line("limits max-rows=abc").is_err());
        assert_eq!(s.execute_line("limits none").unwrap(), "limits cleared");
        assert!(s.limits.is_unbounded());
    }

    #[test]
    fn threads_limit_sets_context_and_reports_workers() {
        let mut s = Session::new();
        let out = s.execute_line("limits threads=4").unwrap();
        assert_eq!(out, "threads=4");
        assert_eq!(s.limits.threads, Some(4));
        assert_eq!(s.limits.context().threads(), 4);
        assert!(s.execute_line("limits threads=0").is_err());

        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        for run in ["run direct", "run"] {
            s.execute_line("limits threads=4").unwrap();
            let out = s.execute_line(run).unwrap();
            assert!(out.contains("worker(s) (threads=4)"), "{run}: {out}");

            // Thread count does not change results (skip the strategy,
            // count, and governed-stats lines — timings and worker counts
            // legitimately differ).
            let four: Vec<String> = out.lines().skip(3).map(String::from).collect();
            s.execute_line("limits threads=1").unwrap();
            let out = s.execute_line(run).unwrap();
            let one: Vec<String> = out.lines().skip(3).map(String::from).collect();
            assert_eq!(one, four, "{run}");
        }
    }

    #[test]
    fn tiny_row_budget_fails_run_cleanly() {
        let mut s = Session::new();
        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        for run in ["run direct", "run"] {
            s.execute_line("limits max-rows=10").unwrap();
            let err = s.execute_line(run).unwrap_err();
            assert!(err.contains("resource budget exceeded"), "{run}: {err}");
            // The session survives: clear limits and the run succeeds.
            s.execute_line("limits none").unwrap();
            assert!(s.execute_line(run).is_ok(), "{run}");
        }
    }

    #[test]
    fn governed_run_reports_stats() {
        let mut s = Session::new();
        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        s.execute_line("limits max-rows=10m").unwrap();
        for run in ["run direct", "run"] {
            let out = s.execute_line(run).unwrap();
            assert!(out.contains("governed:"), "{run}: {out}");
            assert!(out.contains("rows"), "{run}: {out}");
        }
    }

    #[test]
    fn help_lists_commands() {
        let mut s = Session::new();
        let help = s.execute_line("help").unwrap();
        for cmd in [
            "gen", "load", "flock", "run", "plan", "sql", "explain", "spill", "resume", "report",
        ] {
            assert!(help.contains(cmd), "missing {cmd}");
        }
    }

    #[test]
    fn spill_resume_report_commands_set_and_clear() {
        let mut s = Session::new();
        assert_eq!(s.execute_line("spill").unwrap(), "spilling disabled");
        assert_eq!(
            s.execute_line("spill /tmp/qf-spill").unwrap(),
            "spill directory: /tmp/qf-spill"
        );
        assert_eq!(
            s.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/qf-spill"))
        );
        assert_eq!(s.execute_line("spill none").unwrap(), "spilling disabled");
        assert!(s.spill_dir.is_none());

        assert_eq!(s.execute_line("resume").unwrap(), "journaling disabled");
        assert_eq!(
            s.execute_line("resume /tmp/qf-run").unwrap(),
            "run journal: /tmp/qf-run"
        );
        assert_eq!(
            s.journal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/qf-run"))
        );
        assert_eq!(
            s.execute_line("resume none").unwrap(),
            "journaling disabled"
        );
        assert!(s.journal_dir.is_none());

        assert_eq!(s.execute_line("report json").unwrap(), "reporting: json");
        assert!(s.report_json);
        assert_eq!(s.execute_line("report text").unwrap(), "reporting: text");
        assert!(!s.report_json);
        assert!(s.execute_line("report xml").is_err());
    }

    #[test]
    fn json_report_emits_one_object_with_run_stats() {
        let mut s = Session::new();
        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        s.execute_line("report json").unwrap();
        let out = s.execute_line("run direct").unwrap();
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        assert!(!out.contains('\n'), "one line: {out}");
        for key in [
            "\"strategy\":",
            "\"results\":",
            "\"elapsed_ms\":",
            "\"rows\":",
            "\"bytes\":",
            "\"workers\":",
            "\"spilled_bytes\":",
            "\"spills\":",
            "\"resumed_steps\":",
            "\"io_retries\":",
            "\"corruption_recoveries\":",
            "\"spill_files_live\":",
            "\"tsv_skipped_lines\":",
            "\"cache_hit\":false",
            "\"plan_cached\":false",
            "\"cache_hits\":0",
            "\"cache_misses\":0",
            "\"rejected\":0",
            "\"queue_depth_max\":0",
            "\"degradations\":[",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn flock_fingerprint_is_syntax_insensitive() {
        let mut s = Session::new();
        assert!(
            s.execute_line("flock fingerprint").is_err(),
            "no flock set yet"
        );
        s.execute_line(flock_cmd()).unwrap();
        let a = s.execute_line("flock fingerprint").unwrap();
        assert!(a.starts_with("fingerprint: "), "{a}");
        // The same flock spelled with different variable names and
        // subgoal order must canonicalize to the same identity.
        s.execute_line(
            "flock QUERY: answer(X) :- baskets(X,$2) AND baskets(X,$1) AND $1 < $2 \
             FILTER: COUNT(answer.X) >= 20",
        )
        .unwrap();
        let b = s.execute_line("flock fingerprint").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faults_command_sets_and_clears() {
        let mut s = Session::new();
        assert_eq!(
            s.execute_line("faults").unwrap(),
            "fault injection disabled"
        );
        assert_eq!(
            s.execute_line("faults seed=7").unwrap(),
            "fault injection: seed=7 rate=200"
        );
        assert_eq!(s.io_faults, Some((7, 200)));
        assert_eq!(
            s.execute_line("faults seed=7 rate=50").unwrap(),
            "fault injection: seed=7 rate=50"
        );
        assert!(s.execute_line("faults rate=50").is_err()); // needs seed
        assert!(s.execute_line("faults seed=7 rate=0").is_err());
        assert!(s.execute_line("faults bogus=1").is_err());
        assert_eq!(
            s.execute_line("faults none").unwrap(),
            "fault injection disabled"
        );
        assert!(s.io_faults.is_none());
    }

    #[test]
    fn lossy_load_reports_and_accumulates_skipped_lines() {
        let dir = std::env::temp_dir().join(format!("qfsh-lossy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.tsv");
        std::fs::write(&path, "r\ta\tb\n1\t2\n3\t4\t5\n6\t7\n").unwrap();
        let mut s = Session::new();
        let msg = s.execute_line(&format!("load {}", path.display())).unwrap();
        assert!(msg.contains("skipped 1 malformed line(s)"), "{msg}");
        assert_eq!(s.tsv_skipped, 1);
        assert_eq!(s.relation("r").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_faults_either_succeeds_identically_or_fails_typed() {
        let base = std::env::temp_dir().join(format!("qfsh-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(base.join("spill")).unwrap();

        let mut clean = Session::new();
        clean.execute_line("gen baskets").unwrap();
        clean.execute_line(flock_cmd()).unwrap();
        let expected = clean.execute_line("run static").unwrap();
        let expected_results: Vec<&str> =
            expected.lines().filter(|l| l.starts_with("  ")).collect();

        let mut s = Session::new();
        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        s.execute_line(&format!("spill {}", base.join("spill").display()))
            .unwrap();
        s.execute_line(&format!("resume {}", base.join("run").display()))
            .unwrap();
        s.execute_line("limits mem-budget=1m threads=1").unwrap();
        s.execute_line("faults seed=3 rate=40").unwrap();
        match s.execute_line("run static") {
            Ok(out) => {
                let got: Vec<&str> = out.lines().filter(|l| l.starts_with("  ")).collect();
                assert_eq!(got, expected_results, "chaos run changed the answer");
            }
            // Unrecovered faults must surface as typed, descriptive
            // errors — never a panic or a silent wrong answer.
            Err(e) => assert!(!e.is_empty(), "empty error"),
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn spilled_journaled_run_resumes_through_the_shell() {
        let base = std::env::temp_dir().join(format!("qfsh-ooc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let spill = base.join("spill");
        let journal = base.join("run");
        std::fs::create_dir_all(&spill).unwrap();

        let mut s = Session::new();
        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        s.execute_line(&format!("spill {}", spill.display()))
            .unwrap();
        s.execute_line(&format!("resume {}", journal.display()))
            .unwrap();
        // A budget small enough to force the self-join to spill (its
        // in-memory footprint is several MB) but large enough for the
        // resident base relation (~0.5 MB — scans are never evicted).
        s.execute_line("limits mem-budget=1m").unwrap();
        let first = s.execute_line("run static").unwrap();
        assert!(first.contains("spilled:"), "{first}");
        assert!(!first.contains("resumed:"), "{first}");

        // Second run over the same journal replays every step; report
        // it as JSON to cover the resumed_steps field end to end.
        s.execute_line("report json").unwrap();
        let second = s.execute_line("run static").unwrap();
        assert!(!second.contains("\"resumed_steps\":0,"), "{second}");
        std::fs::remove_dir_all(&base).ok();
    }

    /// The default strategy can use the budget it is given: before the
    /// §4.4 walk released what it had consumed, `run` and `run dynamic`
    /// died at 8 MB on a fixture whose largest stage result is ≈ 4 MB.
    #[test]
    fn every_strategy_fits_the_same_spill_budget() {
        let spill = std::env::temp_dir().join(format!("qfsh-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spill);
        std::fs::create_dir_all(&spill).unwrap();

        let mut s = Session::new();
        s.execute_line("gen baskets").unwrap();
        s.execute_line(flock_cmd()).unwrap();
        s.execute_line(&format!("spill {}", spill.display()))
            .unwrap();
        s.execute_line("limits mem-budget=8m").unwrap();
        let results = |out: String| -> Vec<String> {
            let shown = |l: &&str| l.starts_with("  ") || l.ends_with("result(s)");
            out.lines().filter(shown).map(String::from).collect()
        };
        let direct = results(s.execute_line("run direct").unwrap());
        assert_eq!(direct[0], "469 result(s)");
        for run in ["run", "run dynamic", "run static"] {
            let out = s.execute_line(run).unwrap_or_else(|e| panic!("{run}: {e}"));
            assert_eq!(results(out), direct, "{run}");
        }
        drop(s);
        assert_eq!(std::fs::read_dir(&spill).unwrap().count(), 0);
        std::fs::remove_dir_all(&spill).ok();
    }

    #[test]
    fn views_through_shell() {
        let mut s = Session::new();
        s.execute_line("gen medical").unwrap();
        let msg = s
            .execute_line(
                "flock explained(P,S) :- diagnoses(P,D) AND causes(D,S) \
                 QUERY: answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
                 NOT explained(P,$s) FILTER: COUNT(answer.P) >= 20",
            )
            .unwrap();
        assert!(msg.contains("1 view rule"), "{msg}");
        let out = s.execute_line("run").unwrap();
        assert!(out.contains("result(s)"), "{out}");
        assert!(out.contains("sideeffect"), "{out}");
    }

    #[test]
    fn medical_end_to_end_through_shell() {
        let mut s = Session::new();
        s.execute_line("gen medical").unwrap();
        s.execute_line(
            "flock QUERY: answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s) FILTER: COUNT(answer.P) >= 20",
        )
        .unwrap();
        let out = s.execute_line("run auto").unwrap();
        assert!(out.contains("dynamic"), "{out}");
        assert!(
            out.contains("sideeffect"),
            "planted pair should appear: {out}"
        );
    }
}
