//! `qf-shard`: scatter-gather flock execution over hash-partitioned,
//! replicated `qf-server` workers.
//!
//! The [`Coordinator`] is a [`RequestHandler`]: it plugs into the same
//! accept loop, framing, admission queue, and worker pool as the
//! standalone server ([`crate::net::Server::serve_handler`]), and
//! answers admitted flocks through the same request pipeline
//! (`FlockService::run_flock`: cache lookup, plan choice, the
//! `qf-core` plan loop, delta state, cache insert) — with one thing
//! substituted, the **step evaluator**:
//!
//! 1. The master catalog lives at the coordinator. Every mutation
//!    (`load`/`gen`) applies there first, then the catalog is
//!    hash-partitioned ([`qf_core::partition_database`], content-stable
//!    hashing) and every fragment is `sync`ed to each of its replica
//!    hosts ([`qf_core::replica_workers`]: fragment *i* lands on
//!    workers *i*, *i+1 mod n*, … up to `--replicas R`). Workers verify
//!    the fragment fingerprint before installing, so a torn push can
//!    never be served.
//! 2. A flock that passes the shardability check
//!    ([`qf_core::shard_key_pos`]) is planned at the coordinator (plan
//!    search sees full-catalog statistics), and the plan loop asks the
//!    `ScatterEvaluator` for each `FILTER` step it evaluates (symmetric
//!    steps are renamed, not re-scattered; independent steps scatter
//!    concurrently). The evaluator sends the step **once per fragment**
//!    as a fragment-scoped `partial` — the step as a mini-flock at a
//!    *vacuous* threshold, plus the upstream step outputs it reads as
//!    scratch relations. Replicas hold bitwise-identical fragments, so
//!    any host's answer merges exactly.
//! 3. It merges the partials algebraically (`COUNT`/`SUM` add,
//!    `MIN`/`MAX` extremize — [`qf_core::merge_scored_partials`]) into
//!    rows complete for the vacuous filter; the plan loop applies the
//!    **real** threshold globally and commits the surviving step output
//!    for the next step. A flock that is not shardable runs through the
//!    same pipeline with the local evaluator (`"sharded":false`).
//!
//! # Failure model
//!
//! Every worker has a health entry (`up`/`suspect`/`down`) driven by
//! consecutive failures: a circuit breaker opens (`down`) after
//! `fail_threshold` in a row and the coordinator stops scattering to —
//! or even dialing — that worker. A fragment's RPC tries its replicas
//! in placement order (primary first, skipping open breakers), fails
//! over on transport errors / draining workers / stale fragments, and
//! only when **every** replica is unavailable re-derives the fragment
//! from the master catalog and evaluates it locally (`rescatters` — the
//! PR-7 last resort, now behind R−1 replicas). The partition used for
//! re-derivation is cached across requests keyed by the master catalog
//! fingerprint, so repeated hits on a degraded fleet do not re-shard
//! the catalog every time.
//!
//! Tail latency is clamped by **hedging**: when a fragment's primary
//! has not answered within `hedge_after`, a duplicate request is
//! launched at the next live replica and whichever scored partial
//! lands first wins (`hedges_launched`/`hedges_won`).
//!
//! The way back is the **probe thread**: every `probe_interval` it
//! pings workers whose breaker is open over a fresh, strictly
//! I/O-timed connection (closed after the cycle — probes never pin a
//! worker's `--max-conns` budget), re-`sync`s every fragment the
//! worker hosts, and only then marks it `up` (`probes`/`rejoins`).
//! A worker that rejoined with a stale fragment is caught by the
//! fingerprint carried on every fragment-scoped `partial`: the worker
//! answers typed `no-frag`, the coordinator fails over and re-opens
//! the breaker so the probe re-syncs it.
//!
//! The monotone scored-result cache stays at the coordinator tier:
//! single-step runs are cached under the **vacuous** baseline (the
//! merged scored relation holds every group, so one sharded run
//! answers every future same-direction threshold of the query);
//! multi-step runs prune between steps and are cached at their own
//! threshold, exactly like the standalone server.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qf_core::{
    evaluate_scored_partial, merge_scored_partials, partial_flock, partition_database,
    replica_workers, scored_schema, shard_of, shardable_program, vacuous_filter, worker_fragments,
    CancelToken, ExecContext, FilterStep, JoinOrderStrategy, QueryPlan, ScoredStep, StepEvaluator,
};
use qf_storage::{tsv, Database, Relation, Tuple};

use crate::client::{Client, ClientConfig};
use crate::error::{Result, ServerError};
use crate::pool::{Job, JobPayload};
use crate::protocol::{Request, RequestLimits, Response};
use crate::report::{extend_json, json_escape, json_u64};
use crate::service::{
    parse_program, render_tsv, FlockRun, FlockService, Labels, RequestHandler, ServerConfig,
    LOCAL_EVALUATOR, LOCAL_LABELS,
};

const SCATTER_LABELS: Labels = Labels {
    hit: "shard-cache",
    searched: "scatter-gather",
    direct: "scatter-gather(direct)",
};

/// How often the gather loop re-polls for replies when no hedge is
/// pending, and the granularity at which the probe thread observes the
/// stop flag.
const GATHER_POLL: Duration = Duration::from_millis(100);

/// Extra wall-clock the gather loop allows past the request deadline
/// for a worker's own governor to deliver its typed timeout first.
const GATHER_GRACE: Duration = Duration::from_secs(5);

/// Shard-tier configuration: the worker fleet, replication factor, and
/// failure-detection knobs.
#[derive(Clone)]
pub struct ShardConfig {
    /// Worker addresses (`host:port`), one per shard. Worker `k` is the
    /// *primary* of fragment `k` and a replica of the `replicas - 1`
    /// fragments before it (mod n).
    pub addrs: Vec<String>,
    /// Relations replicated in full to every shard instead of being
    /// hash-partitioned (small dimension tables the shardability check
    /// may then treat as local everywhere).
    pub replicated: BTreeSet<String>,
    /// Robustness knobs for coordinator→shard RPC sessions.
    pub client: ClientConfig,
    /// Copies of every fragment (clamped to `[1, n]`). At 1 this is the
    /// PR-7 behavior: a dead worker always costs a local re-derivation.
    pub replicas: usize,
    /// Consecutive failures that open a worker's circuit breaker
    /// (`down`); fewer leave it `suspect` but still scattered to.
    pub fail_threshold: u32,
    /// Background probe period for down workers, milliseconds. `0`
    /// disables the thread (tests drive [`Coordinator::probe_now`]).
    pub probe_interval_ms: u64,
    /// Launch a hedged duplicate of a fragment RPC at the next live
    /// replica when the primary has not answered within this many
    /// milliseconds. `None` disables hedging.
    pub hedge_after_ms: Option<u64>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            addrs: Vec::new(),
            replicated: BTreeSet::new(),
            client: ClientConfig {
                // One transparent retry against a wobbly worker; real
                // death is handled by failover, not by retrying
                // forever.
                retries: 1,
                ..ClientConfig::default()
            },
            replicas: 1,
            fail_threshold: 3,
            probe_interval_ms: 1_000,
            hedge_after_ms: None,
        }
    }
}

/// Builds a client session to a shard address — swappable so the chaos
/// tests can interpose [`crate::transport::NetChaos`] on every
/// coordinator→shard dial.
pub type ShardConnector = Arc<dyn Fn(&str, &ClientConfig) -> Result<Client> + Send + Sync>;

struct ShardSlot {
    addr: String,
    client: Mutex<Option<Client>>,
}

/// A worker's health as the coordinator sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Healthy: scattered to normally.
    Up,
    /// Failing but under the breaker threshold: still scattered to
    /// (the failure may have been the request's fault, not the
    /// worker's).
    Suspect,
    /// Breaker open: not scattered to, not dialed for stats; only the
    /// probe talks to it until a full re-sync succeeds.
    Down,
}

impl WorkerState {
    /// The stable string used in `stats` (`worker_state` array).
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Up => "up",
            WorkerState::Suspect => "suspect",
            WorkerState::Down => "down",
        }
    }
}

#[derive(Default)]
struct Health {
    /// Consecutive failures since the last success.
    fails: u32,
    /// `true` once the breaker is open (reset only by a probe re-sync).
    down: bool,
}

/// Coordinator-side counters, surfaced as distinct fields in `stats` —
/// never folded into the per-request counters of [`FlockService`] (a
/// shard's timeout is not this coordinator's timeout).
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Partial RPCs attempted (including failovers and hedges).
    pub scatters: AtomicU64,
    /// Fragments recovered by local re-evaluation after every replica
    /// failed or was down.
    pub rescatters: AtomicU64,
    /// Flock requests executed scatter-gather.
    pub sharded: AtomicU64,
    /// Flock requests that failed the shardability check and ran
    /// locally against the master catalog.
    pub local_fallbacks: AtomicU64,
    /// Fragment RPCs served by a non-primary replica after the primary
    /// failed or had an open breaker.
    pub failovers: AtomicU64,
    /// Hedged duplicate RPCs launched against a replica because the
    /// primary exceeded the hedge budget.
    pub hedges_launched: AtomicU64,
    /// Hedged RPCs whose reply won the race.
    pub hedges_won: AtomicU64,
    /// Probe attempts against down workers.
    pub probes: AtomicU64,
    /// Down workers successfully re-synced and marked up again.
    pub rejoins: AtomicU64,
    /// `append`/`retract` batches propagated to the fleet as
    /// fragment-scoped deltas (no full fragment re-sync needed).
    pub delta_pushes: AtomicU64,
}

/// The cached fragment partition of the master catalog, keyed by the
/// master fingerprint so any mutation invalidates it wholesale.
/// Fragments are stored **TSV-round-tripped** — exactly the bytes a
/// worker reassembles from a `sync` — so local re-derivation, the
/// fragment fingerprints pushed to workers, and worker-side evaluation
/// all agree even for values the wire canonicalizes (digit-like
/// symbols parse back as integers).
struct FragCache {
    master_fp: u64,
    frags: Arc<Vec<Database>>,
    fps: Arc<Vec<u64>>,
}

/// State shared between request threads, detached RPC threads, and the
/// probe thread.
struct ShardCore {
    service: Arc<FlockService>,
    slots: Vec<ShardSlot>,
    health: Vec<Mutex<Health>>,
    replicated: BTreeSet<String>,
    client_config: ClientConfig,
    connector: RwLock<ShardConnector>,
    counters: ShardCounters,
    replicas: usize,
    fail_threshold: u32,
    hedge_after: Option<Duration>,
    frag_cache: Mutex<Option<FragCache>>,
    stop_probe: AtomicBool,
}

/// What one replica's fragment RPC produced, as seen by the gather
/// loop.
enum RpcReply {
    /// A scored partial, parsed and ready to merge.
    Scored(Relation),
    /// The worker could not serve this fragment (transport failure,
    /// draining, or a stale/missing fragment): fail over to the next
    /// replica.
    Failed(String),
    /// The worker answered with a typed error that failover cannot
    /// cure (timeout/budget/cancelled/eval): propagate its class.
    Refused { kind: String, detail: String },
}

/// What one *fragment* resolved to after failover and hedging.
enum FragOutcome {
    Scored(Relation),
    /// Every replica failed or was down: the caller re-derives locally.
    AllDead(String),
    Refused {
        kind: String,
        detail: String,
    },
}

/// Per-request failure-handling tallies, reported in the response meta
/// (the [`ShardCounters`] equivalents are process-lifetime totals).
#[derive(Default)]
struct ReqTally {
    rescatters: AtomicU64,
    failovers: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
}

impl ShardCore {
    /// Run `f` over worker `k`'s pooled session, dialing if needed. Any
    /// transport-level error tears the session down so the next call
    /// redials.
    fn with_client<T>(&self, k: usize, f: impl FnOnce(&mut Client) -> Result<T>) -> Result<T> {
        let slot = &self.slots[k];
        let mut guard = slot.client.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            let connector = Arc::clone(&self.connector.read().unwrap_or_else(|e| e.into_inner()));
            *guard = Some(connector(&slot.addr, &self.client_config)?);
        }
        let client = guard.as_mut().expect("session just ensured");
        match f(client) {
            Ok(v) => Ok(v),
            Err(e) => {
                *guard = None;
                Err(e)
            }
        }
    }

    /// Drop worker `k`'s pooled session so the next RPC redials.
    fn drop_session(&self, k: usize) {
        *self.slots[k]
            .client
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn worker_state(&self, k: usize) -> WorkerState {
        let h = self.health[k].lock().unwrap_or_else(|e| e.into_inner());
        if h.down {
            WorkerState::Down
        } else if h.fails > 0 {
            WorkerState::Suspect
        } else {
            WorkerState::Up
        }
    }

    fn is_down(&self, k: usize) -> bool {
        self.health[k]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .down
    }

    /// A successful RPC closes the breaker and clears the failure run.
    fn note_success(&self, k: usize) {
        let mut h = self.health[k].lock().unwrap_or_else(|e| e.into_inner());
        h.fails = 0;
        h.down = false;
    }

    /// A failed RPC extends the failure run; at `fail_threshold` in a
    /// row the breaker opens and only the probe can close it again.
    fn note_failure(&self, k: usize) {
        let mut h = self.health[k].lock().unwrap_or_else(|e| e.into_inner());
        h.fails = h.fails.saturating_add(1);
        if h.fails >= self.fail_threshold {
            h.down = true;
        }
    }

    /// Open the breaker immediately — for *definitive* evidence like a
    /// `no-frag` answer (the worker is alive but cannot serve until the
    /// probe re-syncs it; counting up to the threshold would just burn
    /// scatters on an answer that cannot change).
    fn force_down(&self, k: usize) {
        let mut h = self.health[k].lock().unwrap_or_else(|e| e.into_inner());
        h.fails = h.fails.max(self.fail_threshold);
        h.down = true;
    }

    /// The fragment partition of the master catalog, cached across
    /// requests and invalidated by any mutation (the key is the master
    /// fingerprint). Returns the TSV-round-tripped fragments and their
    /// content fingerprints — the same values workers verify on `sync`
    /// and `partial`.
    fn fragments(&self, master: &Database, master_fp: u64) -> (Arc<Vec<Database>>, Arc<Vec<u64>>) {
        let mut guard = self.frag_cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = guard.as_ref() {
            if c.master_fp == master_fp {
                return (Arc::clone(&c.frags), Arc::clone(&c.fps));
            }
        }
        let n = self.slots.len().max(1);
        let frags: Vec<Database> = partition_database(master, n, &self.replicated)
            .iter()
            .map(roundtrip_database)
            .collect();
        let fps: Vec<u64> = frags.iter().map(Database::fingerprint).collect();
        let frags = Arc::new(frags);
        let fps = Arc::new(fps);
        *guard = Some(FragCache {
            master_fp,
            frags: Arc::clone(&frags),
            fps: Arc::clone(&fps),
        });
        (frags, fps)
    }

    /// The client config probes dial with: fail fast (no transparent
    /// retries — the probe loop IS the retry), bounded connect, and a
    /// **strict I/O timeout, never unset** — a probe must never sit on
    /// a worker connection under an idle timeout's grace.
    fn probe_config(&self) -> ClientConfig {
        ClientConfig {
            retries: 0,
            connect_timeout: self
                .client_config
                .connect_timeout
                .min(Duration::from_secs(2)),
            io_timeout: Some(
                self.client_config
                    .io_timeout
                    .unwrap_or(Duration::from_secs(10)),
            ),
            ..self.client_config.clone()
        }
    }

    /// One replica's fragment RPC, classified for the gather loop.
    fn rpc_partial(
        &self,
        k: usize,
        text: &str,
        scratch: Vec<String>,
        frag: (usize, u64),
        limits: RequestLimits,
    ) -> RpcReply {
        self.counters.scatters.fetch_add(1, Ordering::Relaxed);
        let sent = self.with_client(k, |c| c.partial(text, scratch, Some(frag), limits));
        match sent {
            Err(e) => RpcReply::Failed(e.to_string()),
            // A draining shard answers typed `shutting-down` on a still
            // -open session but will not serve this scatter or any
            // later one: drop the session and fail over like a death.
            Ok(Response::Err { kind, detail }) if kind == "shutting-down" => {
                self.drop_session(k);
                RpcReply::Failed(format!("shard draining: {detail}"))
            }
            // `no-frag` is definitive: the worker is missing this
            // fragment or holds a stale copy. Open its breaker right
            // away so the probe re-syncs it, and fail over.
            Ok(Response::Err { kind, detail }) if kind == "no-frag" => {
                self.force_down(k);
                RpcReply::Failed(format!("fragment not served: {detail}"))
            }
            Ok(Response::Err { kind, detail }) => RpcReply::Refused { kind, detail },
            Ok(Response::Ok { body, .. }) => {
                match tsv::read_tsv(std::io::Cursor::new(body.as_bytes())) {
                    Ok(rel) => RpcReply::Scored(rel),
                    Err(e) => RpcReply::Refused {
                        kind: "proto".to_string(),
                        detail: format!("unparseable scored partial: {e}"),
                    },
                }
            }
        }
    }

    /// Launch one replica RPC on a detached thread. Detached on
    /// purpose: a scoped join would make the fragment wait for the
    /// *loser* of a hedge race too, which is exactly the tail the hedge
    /// exists to cut. Returns `false` if the thread could not spawn.
    #[allow(clippy::too_many_arguments)]
    fn launch_rpc(
        self: &Arc<Self>,
        k: usize,
        text: &str,
        scratch: &[String],
        frag: (usize, u64),
        limits: RequestLimits,
        was_hedge: bool,
        tx: &mpsc::Sender<(usize, RpcReply, bool)>,
    ) -> bool {
        let core = Arc::clone(self);
        let text = text.to_string();
        let scratch = scratch.to_vec();
        let tx = tx.clone();
        std::thread::Builder::new()
            .name("qf-scatter".to_string())
            .spawn(move || {
                let reply = core.rpc_partial(k, &text, scratch, frag, limits);
                // The receiver is gone once a winner returned: a loser's
                // send failing is the expected end of a hedge race.
                let _ = tx.send((k, reply, was_hedge));
            })
            .is_ok()
    }

    /// Resolve one fragment: primary first, fail over through live
    /// replicas, hedge when the in-flight RPC exceeds the hedge budget,
    /// first scored partial wins.
    #[allow(clippy::too_many_arguments)]
    fn fragment_partial(
        self: &Arc<Self>,
        frag: usize,
        fp: u64,
        text: &str,
        scratch: &[String],
        limits: RequestLimits,
        deadline: Option<Instant>,
        tally: &ReqTally,
    ) -> FragOutcome {
        let n = self.slots.len();
        let primary = frag % n.max(1);
        let cands: Vec<usize> = replica_workers(frag, n, self.replicas)
            .into_iter()
            .filter(|&w| !self.is_down(w))
            .collect();
        if cands.is_empty() {
            return FragOutcome::AllDead(format!(
                "all {} replica(s) of fragment {frag} have open breakers",
                self.replicas
            ));
        }
        let (tx, rx) = mpsc::channel();
        let mut fails: Vec<String> = Vec::new();
        let mut next = 0usize;
        let mut pending = 0usize;
        let mut hedged = false;
        let launch = |k: usize, was_hedge: bool, fails: &mut Vec<String>| -> usize {
            if self.launch_rpc(k, text, scratch, (frag, fp), limits, was_hedge, &tx) {
                1
            } else {
                fails.push(format!("worker {k}: could not spawn rpc thread"));
                0
            }
        };
        pending += launch(cands[next], false, &mut fails);
        next += 1;
        loop {
            if pending == 0 {
                // Spawn failures exhausted the candidate list without a
                // single RPC in flight.
                if next < cands.len() {
                    pending += launch(cands[next], false, &mut fails);
                    next += 1;
                    continue;
                }
                return FragOutcome::AllDead(fails.join("; "));
            }
            // While a hedge is still possible, wait only up to the
            // hedge budget; afterwards poll at a coarse period, bounded
            // by the request deadline plus grace.
            let hedge_wait = self.hedge_after.filter(|_| !hedged && next < cands.len());
            match rx.recv_timeout(hedge_wait.unwrap_or(GATHER_POLL)) {
                Ok((w, RpcReply::Scored(rel), was_hedge)) => {
                    self.note_success(w);
                    if was_hedge {
                        self.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
                        tally.hedges_won.fetch_add(1, Ordering::Relaxed);
                    } else if w != primary {
                        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                        tally.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return FragOutcome::Scored(rel);
                }
                Ok((w, RpcReply::Failed(detail), _)) => {
                    self.note_failure(w);
                    pending -= 1;
                    fails.push(format!("worker {w} ({}): {detail}", self.slots[w].addr));
                    if next < cands.len() {
                        pending += launch(cands[next], false, &mut fails);
                        next += 1;
                    } else if pending == 0 {
                        return FragOutcome::AllDead(fails.join("; "));
                    }
                }
                Ok((w, RpcReply::Refused { kind, detail }, _)) => {
                    return FragOutcome::Refused {
                        kind,
                        detail: format!("worker {w}: {detail}"),
                    };
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if hedge_wait.is_some() {
                        // The in-flight RPC blew the hedge budget:
                        // duplicate it at the next live replica and let
                        // the two race.
                        self.counters
                            .hedges_launched
                            .fetch_add(1, Ordering::Relaxed);
                        tally.hedges_launched.fetch_add(1, Ordering::Relaxed);
                        hedged = true;
                        pending += launch(cands[next], true, &mut fails);
                        next += 1;
                    } else if deadline.is_some_and(|d| Instant::now() >= d + GATHER_GRACE) {
                        // The workers' own governors should have tripped
                        // long ago; give up on the replies, typed.
                        return FragOutcome::Refused {
                            kind: "timeout".to_string(),
                            detail: format!("fragment {frag}: no replica replied by the deadline"),
                        };
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Unreachable (we hold a sender), but never hang.
                    return FragOutcome::AllDead("rpc channel closed".to_string());
                }
            }
        }
    }
}

/// Re-read a fragment through the TSV wire format, yielding the exact
/// catalog a worker reassembles from a `sync` of it (digit-like
/// symbols canonicalize to integers on the way).
fn roundtrip_database(frag: &Database) -> Database {
    let mut out = Database::new();
    for rel in frag.iter() {
        match tsv::read_tsv(std::io::Cursor::new(render_tsv(rel).as_bytes())) {
            Ok(r) => out.insert(r),
            // In-memory render/parse of a valid relation cannot fail;
            // keep the original rather than dropping data if it ever
            // does.
            Err(_) => out.insert(rel.clone()),
        }
    }
    out
}

/// The coordinator's step evaluator: one `FILTER` step answered by the
/// whole fleet. The step goes to every fragment as a mini-flock at the
/// *vacuous* threshold (nothing pruned locally), with the upstream step
/// outputs it reads shipped as scratch relations; the scored partials
/// merge algebraically into rows holding **every** group — complete
/// for the vacuous filter — and the plan loop applies the real
/// threshold globally.
struct ScatterEvaluator<'a> {
    core: &'a Arc<ShardCore>,
    /// The master catalog the request runs against; the fragments (and
    /// the fingerprints workers verify) derive from it.
    master: &'a Database,
    master_fp: u64,
    tally: ReqTally,
}

impl StepEvaluator for ScatterEvaluator<'_> {
    type Error = ServerError;

    fn scored(
        &self,
        plan: &QueryPlan,
        step: &FilterStep,
        working: &Database,
        ctx: &ExecContext,
    ) -> Result<ScoredStep> {
        // A scatter runs no engine operator on this node: observe the
        // request's deadline and cancellation here instead.
        ctx.enter("scatter")?;
        let core = self.core;
        let n = core.slots.len();
        let filter = plan.flock.filter();
        let mini = partial_flock(step, filter)?;
        let text = mini.render();
        let reads = step.query.predicates();
        let scratch_rels: Vec<&Relation> = plan
            .steps
            .iter()
            .filter(|s| reads.iter().any(|p| p.as_str() == s.output))
            .filter_map(|s| working.get(&s.output).ok())
            .collect();
        let scratch: Vec<String> = scratch_rels.iter().map(|rel| render_tsv(rel)).collect();
        // Budget propagation: each shard gets what is *left* of the
        // admission-stamped deadline and budgets, not a fresh clock.
        let remaining = ctx.remaining_time();
        let limits = RequestLimits {
            max_rows: ctx.remaining_rows(),
            mem_budget: ctx.remaining_bytes(),
            timeout_ms: remaining.map(|d| (d.as_millis() as u64).max(1)),
            threads: None,
        };
        let deadline = remaining.map(|d| Instant::now() + d);
        // The fragment partition: cached across requests, keyed by the
        // master fingerprint.
        let (frags, fps) = core.fragments(self.master, self.master_fp);
        let (text, scratch, tally) = (&text, &scratch, &self.tally);
        let outcomes: Vec<FragOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|f| {
                    let fp = fps[f];
                    s.spawn(move || {
                        core.fragment_partial(f, fp, text, scratch, limits, deadline, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| FragOutcome::Refused {
                        kind: "eval".to_string(),
                        detail: "scatter thread panicked".to_string(),
                    })
                })
                .collect()
        });
        let mut parts = Vec::with_capacity(n);
        for (f, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                FragOutcome::Scored(rel) => parts.push(rel),
                FragOutcome::Refused { kind, detail } => {
                    return Err(match kind.as_str() {
                        "timeout" => ServerError::Timeout {
                            stage: "shard",
                            budget_ms: limits.timeout_ms.unwrap_or(0),
                        },
                        "cancelled" => ServerError::Cancelled,
                        "budget" => ServerError::Budget(format!("fragment {f}: {detail}")),
                        _ => ServerError::Eval(format!("fragment {f} ({kind}): {detail}")),
                    })
                }
                FragOutcome::AllDead(detail) => {
                    // Last resort: the master catalog reproduces any
                    // fragment deterministically; the partition is
                    // cached across requests, so this costs one local
                    // evaluation of the cached fragment, not a re-shard
                    // of the catalog.
                    let mut frag = frags[f].clone();
                    for rel in &scratch_rels {
                        frag.insert((*rel).clone());
                    }
                    let scored =
                        evaluate_scored_partial(&mini, &frag, JoinOrderStrategy::Greedy, ctx)
                            .map_err(|e| ServerError::ShardLost {
                                shard: f,
                                detail: format!("{detail}; local re-derivation also failed: {e}"),
                            })?;
                    core.counters.rescatters.fetch_add(1, Ordering::Relaxed);
                    tally.rescatters.fetch_add(1, Ordering::Relaxed);
                    parts.push(scored);
                }
            }
        }
        let rows = merge_scored_partials(&filter.agg, scored_schema(step), &parts)?;
        Ok(ScoredStep {
            groups: rows.len(),
            rows,
            complete_for: vacuous_filter(filter),
            answer_tuples: 0,
        })
    }
}

/// The scatter-gather front end over a fleet of `qf-server` workers.
pub struct Coordinator {
    core: Arc<ShardCore>,
    probe_handle: Mutex<Option<JoinHandle<()>>>,
}

impl Coordinator {
    /// Build a coordinator over `shard.addrs` workers, holding `db` as
    /// the master catalog. Connections are dialed lazily; call
    /// [`Coordinator::push_catalog`] once the workers are reachable if
    /// `db` is non-empty (mutations re-push automatically). Spawns the
    /// health-probe thread unless `shard.probe_interval_ms` is zero.
    pub fn new(config: ServerConfig, shard: ShardConfig, db: Database) -> Coordinator {
        Coordinator::with_service(Arc::new(FlockService::new(config, db)), shard)
    }

    /// Build a coordinator over a pre-constructed service — the
    /// `--data-dir` deployment passes a WAL-backed
    /// [`FlockService::with_wal`] so master-catalog mutations are
    /// durable and a coordinator restart recovers, re-partitions, and
    /// re-syncs the exact acknowledged catalog.
    pub fn with_service(service: Arc<FlockService>, shard: ShardConfig) -> Coordinator {
        let n = shard.addrs.len();
        let core = Arc::new(ShardCore {
            service,
            slots: shard
                .addrs
                .into_iter()
                .map(|addr| ShardSlot {
                    addr,
                    client: Mutex::new(None),
                })
                .collect(),
            health: (0..n).map(|_| Mutex::new(Health::default())).collect(),
            replicated: shard.replicated,
            client_config: shard.client,
            connector: RwLock::new(Arc::new(|addr: &str, cfg: &ClientConfig| {
                Client::connect_with(addr, cfg.clone())
            }) as ShardConnector),
            counters: ShardCounters::default(),
            replicas: shard.replicas.clamp(1, n.max(1)),
            fail_threshold: shard.fail_threshold.max(1),
            hedge_after: shard.hedge_after_ms.map(Duration::from_millis),
            frag_cache: Mutex::new(None),
            stop_probe: AtomicBool::new(false),
        });
        let probe_handle = (shard.probe_interval_ms > 0 && n > 0)
            .then(|| {
                let core = Arc::clone(&core);
                let interval = Duration::from_millis(shard.probe_interval_ms);
                std::thread::Builder::new()
                    .name("qf-probe".to_string())
                    .spawn(move || probe_loop(&core, interval))
                    .ok()
            })
            .flatten();
        Coordinator {
            core,
            probe_handle: Mutex::new(probe_handle),
        }
    }

    /// Replace the dial function (chaos tests wrap each shard session
    /// in a fault-injecting transport). Takes effect for every later
    /// dial, including the probe thread's.
    pub fn with_connector(self, connector: ShardConnector) -> Coordinator {
        *self
            .core
            .connector
            .write()
            .unwrap_or_else(|e| e.into_inner()) = connector;
        self
    }

    /// Coordinator-tier counters (distinct from the service's).
    pub fn shard_counters(&self) -> &ShardCounters {
        &self.core.counters
    }

    /// The health registry's view of worker `k`.
    pub fn worker_state(&self, k: usize) -> WorkerState {
        self.core.worker_state(k)
    }

    /// Run one probe cycle synchronously: for every worker with an open
    /// breaker, dial fresh, ping, re-`sync` every fragment it hosts,
    /// and mark it up on full success. Tests and operators drive this
    /// directly; the background thread calls it on its interval.
    pub fn probe_now(&self) {
        probe_cycle(&self.core);
    }

    /// Partition the master catalog (cached by fingerprint) and `sync`
    /// every fragment to each of its live replica hosts. Called after
    /// every mutation; also available for initial seeding.
    ///
    /// Succeeds when every fragment with at least one **live** host was
    /// installed somewhere; fragments whose hosts are all down are
    /// skipped (scatters re-derive them locally until the probe
    /// re-syncs a host, which ships the current partition anyway). A
    /// live host that refuses its sync fails the push with a typed,
    /// retryable `shard-lost`.
    pub fn push_catalog(&self) -> Result<()> {
        let core = &self.core;
        let n = core.slots.len();
        if n == 0 {
            return Ok(());
        }
        let (db, fp) = core.service.snapshot();
        let (frags, fps) = core.fragments(&db, fp);
        let mut synced = vec![false; n];
        let mut had_live_host = vec![false; n];
        let mut errors: Vec<String> = Vec::new();
        for w in 0..n {
            if core.is_down(w) {
                continue;
            }
            let mut worker_ok = true;
            for f in worker_fragments(w, n, core.replicas) {
                had_live_host[f] = true;
                let rels: Vec<String> = frags[f].iter().map(render_tsv).collect();
                match core.with_client(w, |c| c.sync(f, fps[f], rels)) {
                    Ok(Response::Ok { .. }) => synced[f] = true,
                    Ok(Response::Err { kind, detail }) => {
                        errors.push(format!("worker {w} rejected sync ({kind}): {detail}"));
                        worker_ok = false;
                        break;
                    }
                    Err(e) => {
                        errors.push(format!("worker {w}: {e}"));
                        worker_ok = false;
                        break;
                    }
                }
            }
            if worker_ok {
                core.note_success(w);
            } else {
                core.note_failure(w);
            }
        }
        for f in 0..n {
            if had_live_host[f] && !synced[f] {
                return Err(ServerError::ShardLost {
                    shard: f,
                    detail: errors.join("; "),
                });
            }
        }
        Ok(())
    }

    /// Admitted `append`/`retract` at the coordinator: mutate the
    /// master durably first (which also delta-maintains the
    /// coordinator's own result cache), then ship **only the delta
    /// tuples** to the affected fragments' replica workers —
    /// partitioned by the same shard key as the catalog itself — via
    /// [`Coordinator::push_delta`]. Any hiccup on the delta path
    /// (cold/stale partition cache, a live worker refusing its
    /// fragment delta) falls back to the full [`Coordinator::push_catalog`].
    /// The mutation itself already committed, so the client's retry
    /// policy only replays it on responses certifying non-execution.
    ///
    /// A frag-scoped mutation addresses *this* node's own fragment
    /// store (nested topologies); no fleet push.
    fn mutate_and_push(
        &self,
        rel: &str,
        tsv: &str,
        frag: Option<(usize, u64)>,
        retract: bool,
    ) -> Response {
        let service = &self.core.service;
        let local = |frag| {
            if retract {
                service.handle_retract_admitted(rel, tsv, frag)
            } else {
                service.handle_append_admitted(rel, tsv, frag)
            }
        };
        if frag.is_some() {
            return local(frag);
        }
        let (_, old_fp) = service.snapshot();
        let resp = local(None);
        if resp.is_ok() && self.push_delta(rel, tsv, retract, old_fp).is_err() {
            if let Err(e) = self.push_catalog() {
                return Response::from_error(&e);
            }
        }
        resp
    }

    /// Route a just-committed delta to the worker fleet without
    /// re-shipping whole fragments: partition the delta's tuples by
    /// the catalog's own shard key (first column; replicated relations
    /// land on every fragment), apply each part to the cached
    /// fragment through the same WAL routine workers use, and ship the
    /// part to each live replica host as a fragment-scoped
    /// `append`/`retract` carrying the expected post-delta fragment
    /// fingerprint. The cached partition is updated in place on full
    /// success, so the next scatter sees fingerprints consistent with
    /// what workers now hold.
    ///
    /// Any error means "the cheap path could not prove the fleet
    /// converged" — the caller falls back to a full catalog push.
    /// Down workers are skipped (the probe's rejoin re-sync ships the
    /// current partition anyway).
    fn push_delta(&self, rel: &str, tsv: &str, retract: bool, old_fp: u64) -> Result<()> {
        let core = &self.core;
        let n = core.slots.len();
        if n == 0 {
            return Ok(());
        }
        let delta = tsv::read_tsv(std::io::Cursor::new(tsv.as_bytes()))
            .map_err(|e| ServerError::Parse(e.to_string()))?;
        let (_, new_fp) = core.service.snapshot();
        // The cached partition must describe exactly what workers hold
        // — the pre-mutation catalog. Cold or stale (a concurrent
        // mutation won the race) means the delta's base is unknown.
        let (mut frags, mut fps) = {
            let guard = core.frag_cache.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(c) if c.master_fp == old_fp => ((*c.frags).clone(), (*c.fps).clone()),
                _ => {
                    return Err(ServerError::Eval(
                        "fragment cache cold or stale; full push required".to_string(),
                    ))
                }
            }
        };
        // Partition the delta exactly like the catalog itself.
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        if core.replicated.contains(rel) {
            for part in &mut parts {
                *part = delta.tuples().to_vec();
            }
        } else {
            for t in delta.iter() {
                parts[shard_of(t.get(0), n)].push(t.clone());
            }
        }
        // Advance each affected cached fragment through the same WAL
        // apply routine the workers run, yielding the fingerprints
        // they must land on.
        let mut shipments: Vec<(usize, String)> = Vec::new();
        for (f, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let part_rel = Relation::from_tuples(delta.schema().clone(), part);
            let part_tsv = render_tsv(&part_rel);
            let record = if retract {
                qf_storage::WalRecord::Retract {
                    tsv: part_tsv.clone(),
                }
            } else {
                qf_storage::WalRecord::Append {
                    tsv: part_tsv.clone(),
                }
            };
            qf_storage::Wal::apply(&mut frags[f], &record)
                .map_err(|e| ServerError::Eval(e.to_string()))?;
            fps[f] = frags[f].fingerprint();
            shipments.push((f, part_tsv));
        }
        for (f, part_tsv) in &shipments {
            for w in replica_workers(*f, n, core.replicas) {
                if core.is_down(w) {
                    continue;
                }
                let sent = core.with_client(w, |c| {
                    if retract {
                        c.retract_frag(rel, part_tsv, *f, fps[*f])
                    } else {
                        c.append_frag(rel, part_tsv, *f, fps[*f])
                    }
                });
                match sent {
                    Ok(Response::Ok { .. }) => core.note_success(w),
                    Ok(Response::Err { kind, detail }) => {
                        core.note_failure(w);
                        return Err(ServerError::Eval(format!(
                            "worker {w} refused fragment {f} delta ({kind}): {detail}"
                        )));
                    }
                    Err(e) => {
                        core.note_failure(w);
                        return Err(ServerError::Eval(format!(
                            "worker {w}: fragment {f} delta failed: {e}"
                        )));
                    }
                }
            }
        }
        // Install the advanced partition — but only if no concurrent
        // mutation moved the cache underneath us (then *its* push is
        // authoritative and ours must fall back to a full sync).
        let mut guard = core.frag_cache.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(c) if c.master_fp == old_fp => {
                *guard = Some(FragCache {
                    master_fp: new_fp,
                    frags: Arc::new(frags),
                    fps: Arc::new(fps),
                });
                core.counters.delta_pushes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(ServerError::Eval(
                "fragment cache moved during delta push".to_string(),
            )),
        }
    }

    /// The admitted flock path: the service's one request pipeline,
    /// with the scatter evaluator when the program qualifies and the
    /// local one (against the master catalog) when it does not.
    fn eval_flock_request(
        &self,
        text: &str,
        support: Option<i64>,
        limits: &RequestLimits,
        granted_threads: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> Response {
        let core = &self.core;
        let service = &core.service;
        let outcome = parse_program(text, support).and_then(|program| {
            let (db, fp) = service.snapshot();
            let shardable =
                !core.slots.is_empty() && shardable_program(&program, &core.replicated).is_some();
            if !shardable {
                core.counters
                    .local_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                let run = FlockRun {
                    program: &program,
                    db: &db,
                    fp,
                    evaluator: &LOCAL_EVALUATOR,
                    labels: &LOCAL_LABELS,
                    partial: false,
                };
                let o = service.run_flock(run, limits, granted_threads, deadline, cancel)?;
                return Ok((extend_json(&o.meta, "\"sharded\":false"), o.body));
            }
            let evaluator = ScatterEvaluator {
                core,
                master: &db,
                master_fp: fp,
                tally: ReqTally::default(),
            };
            let run = FlockRun {
                program: &program,
                db: &db,
                fp,
                evaluator: &evaluator,
                labels: &SCATTER_LABELS,
                partial: false,
            };
            let o = service.run_flock(run, limits, granted_threads, deadline, cancel)?;
            if !o.cache_hit {
                core.counters.sharded.fetch_add(1, Ordering::Relaxed);
            }
            // A cache hit scattered nothing: its tallies are all zero.
            let tally = &evaluator.tally;
            let sharded = format!(
                "\"sharded\":true,\"shards\":{},\"rescatters\":{},\"failovers\":{},\
                 \"hedges_launched\":{},\"hedges_won\":{}",
                core.slots.len(),
                tally.rescatters.load(Ordering::Relaxed),
                tally.failovers.load(Ordering::Relaxed),
                tally.hedges_launched.load(Ordering::Relaxed),
                tally.hedges_won.load(Ordering::Relaxed),
            );
            Ok((extend_json(&o.meta, &sharded), o.body))
        });
        service.respond(outcome)
    }

    /// `stats` with the fleet rolled up: the coordinator's own counters
    /// stay pure, and per-shard `timeouts`/`cancelled`/`cache_hits`
    /// appear only under distinct `shard_*` keys — summing them into
    /// the coordinator's fields would double-count every event once
    /// here and once on the shard that served it. Workers that did not
    /// report (down, or the stats RPC failed) are **named** in
    /// `shard_stats_missing` with `shard_stats_partial:true`, so a
    /// dashboard can tell "zero" from "unknown"; down workers are not
    /// even dialed (the probe owns talking to them).
    fn stats_with_shards(&self) -> Response {
        let core = &self.core;
        let base = core.service.stats_json();
        let mut live = 0u64;
        // requests, hits, misses, timeouts, cancelled, rejected, plus
        // the four delta-maintenance counters.
        let mut rollup = [0u64; 10];
        let mut missing: Vec<&str> = Vec::new();
        for k in 0..core.slots.len() {
            if core.is_down(k) {
                missing.push(&core.slots[k].addr);
                continue;
            }
            let Ok(Response::Ok { meta, .. }) = core.with_client(k, |c| c.stats()) else {
                core.note_failure(k);
                missing.push(&core.slots[k].addr);
                continue;
            };
            live += 1;
            for (slot, key) in [
                "requests",
                "cache_hits",
                "cache_misses",
                "timeouts",
                "cancelled",
                "rejected",
                "delta_applied",
                "delta_maintained",
                "delta_rebuilds",
                "recheck_tuples",
            ]
            .iter()
            .enumerate()
            {
                rollup[slot] += json_u64(&meta, key).unwrap_or(0);
            }
        }
        let sc = &core.counters;
        let worker_state: Vec<String> = (0..core.slots.len())
            .map(|k| format!("\"{}\"", core.worker_state(k).as_str()))
            .collect();
        let missing_json: Vec<String> = missing
            .iter()
            .map(|a| format!("\"{}\"", json_escape(a)))
            .collect();
        let extra = format!(
            "\"shards\":{},\"shards_live\":{live},\"replicas\":{},\"scatters\":{},\
             \"rescatters\":{},\"sharded_runs\":{},\"local_fallbacks\":{},\"failovers\":{},\
             \"hedges_launched\":{},\"hedges_won\":{},\"probes\":{},\"rejoins\":{},\
             \"worker_state\":[{}],\"shard_stats_partial\":{},\"shard_stats_missing\":[{}],\
             \"shard_requests\":{},\"shard_cache_hits\":{},\"shard_cache_misses\":{},\
             \"shard_timeouts\":{},\"shard_cancelled\":{},\"shard_rejected\":{},\
             \"shard_delta_applied\":{},\"shard_delta_maintained\":{},\
             \"shard_delta_rebuilds\":{},\"shard_recheck_tuples\":{},\"delta_pushes\":{}",
            core.slots.len(),
            core.replicas,
            sc.scatters.load(Ordering::Relaxed),
            sc.rescatters.load(Ordering::Relaxed),
            sc.sharded.load(Ordering::Relaxed),
            sc.local_fallbacks.load(Ordering::Relaxed),
            sc.failovers.load(Ordering::Relaxed),
            sc.hedges_launched.load(Ordering::Relaxed),
            sc.hedges_won.load(Ordering::Relaxed),
            sc.probes.load(Ordering::Relaxed),
            sc.rejoins.load(Ordering::Relaxed),
            worker_state.join(","),
            !missing.is_empty(),
            missing_json.join(","),
            rollup[0],
            rollup[1],
            rollup[2],
            rollup[3],
            rollup[4],
            rollup[5],
            rollup[6],
            rollup[7],
            rollup[8],
            rollup[9],
            sc.delta_pushes.load(Ordering::Relaxed),
        );
        Response::Ok {
            meta: extend_json(&base, &extra),
            body: String::new(),
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.core.stop_probe.store(true, Ordering::SeqCst);
        if let Some(h) = self
            .probe_handle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
    }
}

/// The background health loop: sleep the interval (observing the stop
/// flag at [`GATHER_POLL`] granularity so shutdown is prompt), then
/// probe every down worker.
fn probe_loop(core: &Arc<ShardCore>, interval: Duration) {
    let stopped = || core.stop_probe.load(Ordering::SeqCst) || core.service.is_shutting_down();
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stopped() {
                return;
            }
            let chunk = GATHER_POLL.min(interval - slept);
            std::thread::sleep(chunk);
            slept += chunk;
        }
        if stopped() {
            return;
        }
        probe_cycle(core);
    }
}

/// One probe pass: for every worker with an open breaker, dial a fresh
/// strictly-timed connection, ping, re-`sync` every fragment the worker
/// hosts (fingerprint-verified), and only on full success close the
/// breaker. The probe connection is dropped at the end of the attempt —
/// probes never accumulate against the worker's connection cap.
fn probe_cycle(core: &Arc<ShardCore>) {
    let n = core.slots.len();
    for w in 0..n {
        if !core.is_down(w) {
            continue;
        }
        core.counters.probes.fetch_add(1, Ordering::Relaxed);
        if probe_worker(core, w).is_ok() {
            // Drop any stale pooled session so the next scatter dials
            // the recovered process fresh.
            core.drop_session(w);
            core.note_success(w);
            core.counters.rejoins.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Probe one down worker: alive check + full fragment re-sync. Any
/// failure leaves the breaker open for the next cycle.
fn probe_worker(core: &Arc<ShardCore>, w: usize) -> Result<()> {
    let n = core.slots.len();
    let config = core.probe_config();
    let connector = Arc::clone(&core.connector.read().unwrap_or_else(|e| e.into_inner()));
    let mut client = connector(&core.slots[w].addr, &config)?;
    // Any *typed* response proves the process is alive and parsing —
    // but only an ok ping is worth re-syncing through (an overloaded
    // worker sheds this connection right after answering).
    match client.ping()? {
        Response::Ok { .. } => {}
        Response::Err { kind, detail } => {
            return Err(ServerError::Eval(format!(
                "probe ping refused ({kind}): {detail}"
            )))
        }
    }
    let (db, fp) = core.service.snapshot();
    let (frags, fps) = core.fragments(&db, fp);
    for f in worker_fragments(w, n, core.replicas) {
        let rels: Vec<String> = frags[f].iter().map(render_tsv).collect();
        match client.sync(f, fps[f], rels)? {
            Response::Ok { .. } => {}
            Response::Err { kind, detail } => {
                return Err(ServerError::Eval(format!(
                    "rejoin sync of fragment {f} refused ({kind}): {detail}"
                )))
            }
        }
    }
    Ok(())
}

impl RequestHandler for Coordinator {
    fn service(&self) -> &Arc<FlockService> {
        &self.core.service
    }

    fn handle_light(&self, req: &Request) -> Response {
        match req {
            Request::Load { .. } | Request::Gen { .. } => {
                // Mutate the master first (also clears the coordinator
                // caches), then re-push the partitioned catalog. A
                // failed push is a typed, retryable error: replaying
                // the mutation is safe (`load`/`gen` replace by name).
                let resp = self.core.service.handle_light(req);
                if resp.is_ok() {
                    if let Err(e) = self.push_catalog() {
                        return Response::from_error(&e);
                    }
                }
                resp
            }
            Request::Stats => {
                self.core
                    .service
                    .counters
                    .requests
                    .fetch_add(1, Ordering::Relaxed);
                self.stats_with_shards()
            }
            Request::Shutdown => {
                self.core.stop_probe.store(true, Ordering::SeqCst);
                // The workers exist to serve this coordinator: drain
                // them too (best effort — a down worker is already
                // out, and dialing it would just stall the drain).
                for k in 0..self.core.slots.len() {
                    if self.core.is_down(k) {
                        continue;
                    }
                    let _ = self.core.with_client(k, |c| c.shutdown());
                }
                self.core.service.handle_light(req)
            }
            other => self.core.service.handle_light(other),
        }
    }

    fn handle_admitted(&self, job: &Job, granted_threads: usize) -> Response {
        match &job.payload {
            JobPayload::Flock { text, support } => self.eval_flock_request(
                text,
                *support,
                &job.limits,
                granted_threads,
                job.deadline,
                Some(&job.cancel),
            ),
            // A coordinator can serve frag-less `partial` itself (it
            // holds the full catalog — a superset of any fragment),
            // which keeps the protocol uniform for nested topologies
            // and tests.
            JobPayload::Partial {
                text,
                scratch,
                frag,
            } => self.core.service.handle_partial_admitted(
                text,
                scratch,
                *frag,
                &job.limits,
                granted_threads,
                job.deadline,
                Some(&job.cancel),
            ),
            JobPayload::Append { rel, tsv, frag } => self.mutate_and_push(rel, tsv, *frag, false),
            JobPayload::Retract { rel, tsv, frag } => self.mutate_and_push(rel, tsv, *frag, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes dial fail-fast with a *strict* I/O timeout: even when the
    /// scatter client is configured with no I/O timeout at all, a probe
    /// must never hold a worker connection under an unbounded read —
    /// and it takes no transparent retries (the probe loop is the
    /// retry).
    #[test]
    fn probe_config_is_fail_fast_and_strictly_timed() {
        let coord = Coordinator::new(
            ServerConfig::default(),
            ShardConfig {
                addrs: vec!["127.0.0.1:9".to_string()],
                client: ClientConfig {
                    retries: 7,
                    io_timeout: None,
                    ..ClientConfig::default()
                },
                probe_interval_ms: 0,
                ..ShardConfig::default()
            },
            Database::new(),
        );
        let probe = coord.core.probe_config();
        assert_eq!(probe.retries, 0, "probe must not transparently retry");
        assert!(
            probe.io_timeout.is_some(),
            "probe I/O must be strictly timed even when the scatter client is unbounded"
        );
        assert!(probe.connect_timeout <= Duration::from_secs(2));
    }

    /// Replica clamping and the health state machine: `fails` under the
    /// threshold is `suspect`, at the threshold the breaker opens, a
    /// success closes it.
    #[test]
    fn health_state_machine_transitions() {
        let coord = Coordinator::new(
            ServerConfig::default(),
            ShardConfig {
                addrs: vec!["127.0.0.1:9".to_string(), "127.0.0.1:10".to_string()],
                replicas: 99, // clamped to n
                fail_threshold: 2,
                probe_interval_ms: 0,
                ..ShardConfig::default()
            },
            Database::new(),
        );
        assert_eq!(coord.core.replicas, 2);
        assert_eq!(coord.worker_state(0), WorkerState::Up);
        coord.core.note_failure(0);
        assert_eq!(coord.worker_state(0), WorkerState::Suspect);
        coord.core.note_failure(0);
        assert_eq!(coord.worker_state(0), WorkerState::Down);
        coord.core.note_success(0);
        assert_eq!(coord.worker_state(0), WorkerState::Up);
        coord.core.force_down(1);
        assert_eq!(coord.worker_state(1), WorkerState::Down);
    }
}
