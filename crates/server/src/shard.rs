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
//! 1. The master catalog lives at the coordinator, and every mutation
//!    applies there first. A bulk one (`load`/`gen`) re-partitions the
//!    catalog ([`qf_core::partition_database`], content-stable
//!    hashing) and `sync`s every fragment to each of its replica hosts
//!    ([`qf_core::replica_workers`]: fragment *i* lands on workers *i*,
//!    *i+1 mod n*, … up to `--replicas R`). An `append`/`retract` is
//!    forwarded by the **delta push** instead: only its tuples, split
//!    by the same shard key, travel as fragment-scoped deltas. Workers
//!    verify the fragment fingerprint before installing either, so a
//!    torn push can never be served.
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
//! A worker's health is one number, its run of consecutive failures:
//! `up` at zero, `suspect` below `fail_threshold`, and `down` — circuit
//! breaker open — from there on; the coordinator then stops scattering
//! to, or even dialing, that worker. A fragment's RPC tries its
//! replicas in placement order (primary first, skipping open breakers),
//! fails over on transport errors / draining workers / stale fragments,
//! and only when **every** replica is unavailable re-derives the
//! fragment from the master catalog and evaluates it locally
//! (`rescatters` — the last resort, behind R−1 replicas).
//!
//! The partition behind re-derivation and behind every fingerprint a
//! worker verifies is cached across requests, keyed by the master
//! catalog fingerprint. The delta push advances it from its commit's
//! own pre-mutation fingerprint to its post-mutation one by
//! compare-and-swap; when concurrent mutations race (another push moved
//! the cache first), the swap fails and the mutation falls back to the
//! full push — so the cache never holds a partition under a fingerprint
//! that does not describe it.
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
//! worker hosts through the same shipping routine as the catalog push,
//! and only then marks it `up` (`probes`/`rejoins`). A worker that
//! rejoined with a stale fragment is caught by the fingerprint carried
//! on every `partial`: the worker answers typed `no-frag`, the
//! coordinator fails over and re-opens the breaker so the probe
//! re-syncs it.
//!
//! The monotone scored-result cache stays at the coordinator tier:
//! single-step runs are cached under the **vacuous** baseline (the
//! merged scored relation holds every group, so one sharded run
//! answers every future same-direction threshold of the query);
//! multi-step runs prune between steps and are cached at their own
//! threshold, exactly like the standalone server.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qf_core::{
    evaluate_scored_partial, merge_scored_partials, partial_flock, partition_database,
    replica_workers, scored_schema, shard_of, shardable_program, vacuous_filter, worker_fragments,
    CancelToken, ExecContext, FilterStep, JoinOrderStrategy, QueryPlan, ScoredStep, StepEvaluator,
};
use qf_storage::{tsv, Database, Relation, Tuple, Wal};

use crate::client::{Client, ClientConfig};
use crate::error::{Result, ServerError};
use crate::pool::{Job, JobPayload};
use crate::protocol::{Request, RequestLimits, Response};
use crate::report::json_u64;
use crate::service::{
    delta_record, parse_program, render_tsv, DeltaCommit, FlockRun, FlockService, Labels,
    RequestHandler, ServerConfig, LOCAL_EVALUATOR, LOCAL_LABELS,
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

/// Coordinator-side counters, surfaced as distinct fields in `stats` —
/// never folded into the per-request counters of [`FlockService`] (a
/// shard's timeout is not this coordinator's timeout). A flock request
/// tallies its own rescatters, failovers and hedges in a
/// `ShardCounters` of its own, reports them in its response meta, and
/// adds them to the process totals once, when it ends.
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

impl ShardCounters {
    /// Add one request's tally of rescatters, failovers and hedges to
    /// these totals.
    fn absorb(&self, tally: &ShardCounters) {
        for (total, n) in [
            (&self.rescatters, &tally.rescatters),
            (&self.failovers, &tally.failovers),
            (&self.hedges_launched, &tally.hedges_launched),
            (&self.hedges_won, &tally.hedges_won),
        ] {
            total.fetch_add(n.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// The cached fragment partition of the master catalog, keyed by the
/// master fingerprint so any mutation invalidates it wholesale.
/// Fragments are stored **TSV-round-tripped** — exactly the bytes a
/// worker reassembles from a `sync` — so local re-derivation, the
/// fragment fingerprints pushed to workers (each fragment's
/// [`Database::fingerprint`]), and worker-side evaluation all agree
/// even for values the wire canonicalizes (digit-like symbols parse
/// back as integers).
struct FragCache {
    master_fp: u64,
    frags: Arc<Vec<Database>>,
}

/// State shared between request threads, detached RPC threads, and the
/// probe thread.
struct ShardCore {
    service: Arc<FlockService>,
    slots: Vec<ShardSlot>,
    /// Per worker, its run of consecutive failures: the whole health
    /// registry (see [`ShardCore::worker_state`]). Accessed `Relaxed`:
    /// each count is read and updated alone and publishes no other
    /// data.
    fails: Vec<AtomicU32>,
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

/// What a fragment RPC produced: from one replica as the gather loop
/// sees it, and for the fragment as a whole once failover and hedging
/// are done.
enum Reply {
    /// A scored partial, parsed and ready to merge.
    Scored(Relation),
    /// Not served (transport failure, draining, or a stale/missing
    /// fragment). From one replica: fail over to the next. For the
    /// fragment: every replica failed or was down, and the caller
    /// re-derives it locally.
    Failed(String),
    /// A typed error failover cannot cure (timeout/budget/cancelled/
    /// eval): propagate its class.
    Refused { kind: String, detail: String },
}

/// What travels to a worker for one fragment it hosts.
enum Shipment<'a> {
    /// The whole fragment (`sync`); the worker verifies its fingerprint
    /// before installing it.
    Full(&'a Database),
    /// A delta to one relation of the fragment (fragment-scoped
    /// `append`/`retract`) and the fingerprint it must leave the
    /// fragment at.
    Delta {
        rel: &'a str,
        tsv: &'a str,
        retract: bool,
        fp: u64,
    },
}

impl ShardCore {
    /// Run `f` over worker `k`'s pooled session, dialing if needed. Any
    /// transport-level error tears the session down so the next call
    /// redials.
    fn with_client<T>(&self, k: usize, f: impl FnOnce(&mut Client) -> Result<T>) -> Result<T> {
        let slot = &self.slots[k];
        let mut guard = slot.client.lock().unwrap_or_else(|e| e.into_inner());
        let client = match guard.take() {
            Some(client) => client,
            None => {
                let connector =
                    Arc::clone(&self.connector.read().unwrap_or_else(|e| e.into_inner()));
                connector(&slot.addr, &self.client_config)?
            }
        };
        let out = f(guard.insert(client));
        if out.is_err() {
            *guard = None;
        }
        out
    }

    /// Drop worker `k`'s pooled session so the next RPC redials.
    fn drop_session(&self, k: usize) {
        *self.slots[k]
            .client
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn worker_state(&self, k: usize) -> WorkerState {
        match self.fails[k].load(Ordering::Relaxed) {
            0 => WorkerState::Up,
            f if f < self.fail_threshold => WorkerState::Suspect,
            _ => WorkerState::Down,
        }
    }

    fn is_down(&self, k: usize) -> bool {
        self.worker_state(k) == WorkerState::Down
    }

    /// A successful RPC closes the breaker and clears the failure run.
    fn note_success(&self, k: usize) {
        self.fails[k].store(0, Ordering::Relaxed);
    }

    /// A failed RPC extends the failure run; at `fail_threshold` in a
    /// row the breaker opens and only the probe can close it again.
    fn note_failure(&self, k: usize) {
        let _ =
            self.fails[k].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_add(1));
    }

    /// Open the breaker immediately — for *definitive* evidence like a
    /// `no-frag` answer (the worker is alive but cannot serve until the
    /// probe re-syncs it; counting up to the threshold would just burn
    /// scatters on an answer that cannot change).
    fn force_down(&self, k: usize) {
        self.fails[k].fetch_max(self.fail_threshold, Ordering::Relaxed);
    }

    /// The fragment partition of the master catalog, cached across
    /// requests and invalidated by any mutation (the key is the master
    /// fingerprint): the TSV-round-tripped fragments whose fingerprints
    /// workers verify on `sync` and `partial`.
    fn fragments(&self, master: &Database) -> Arc<Vec<Database>> {
        let master_fp = master.fingerprint();
        let mut guard = self.frag_cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = guard.as_ref().filter(|c| c.master_fp == master_fp) {
            return Arc::clone(&c.frags);
        }
        let n = self.slots.len().max(1);
        let frags: Arc<Vec<Database>> = Arc::new(
            partition_database(master, n, &self.replicated)
                .iter()
                .map(roundtrip_database)
                .collect(),
        );
        *guard = Some(FragCache {
            master_fp,
            frags: Arc::clone(&frags),
        });
        frags
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

    /// Ship fragments to worker `w` in order — over its pooled session,
    /// or over a probe's fresh connection — stopping at the first
    /// refusal or transport error, and account the worker's health: a
    /// complete shipment closes its breaker, a failed one extends its
    /// failure run. Returns how many shipments the worker acknowledged,
    /// and the failure if there was one.
    fn ship<'a>(
        &self,
        w: usize,
        items: impl IntoIterator<Item = (usize, Shipment<'a>)>,
        probe: Option<&mut Client>,
    ) -> (usize, std::result::Result<(), String>) {
        let mut acked = 0usize;
        // `Ok(Some(refusal))`: the worker answered, but refused one.
        let send = |c: &mut Client| -> Result<Option<String>> {
            for (f, item) in items {
                let resp = match item {
                    Shipment::Full(frag) => {
                        c.sync(f, frag.fingerprint(), frag.iter().map(render_tsv).collect())?
                    }
                    Shipment::Delta {
                        rel,
                        tsv,
                        retract,
                        fp,
                    } => c.request(&Request::delta(rel, tsv, retract, Some((f, fp))))?,
                };
                if let Response::Err { kind, detail } = resp {
                    return Ok(Some(format!(
                        "worker {w} refused its shipment of fragment {f} ({kind}): {detail}"
                    )));
                }
                acked += 1;
            }
            Ok(None)
        };
        let sent = match probe {
            Some(client) => send(client),
            None => self.with_client(w, send),
        };
        let outcome = match sent {
            Ok(None) => Ok(()),
            Ok(Some(refusal)) => Err(refusal),
            Err(e) => Err(format!("worker {w}: {e}")),
        };
        match outcome {
            Ok(()) => self.note_success(w),
            Err(_) => self.note_failure(w),
        }
        (acked, outcome)
    }

    /// One replica's fragment RPC, classified for the gather loop.
    fn rpc_partial(
        &self,
        k: usize,
        text: &str,
        scratch: Vec<String>,
        frag: (usize, u64),
        limits: RequestLimits,
    ) -> Reply {
        self.counters.scatters.fetch_add(1, Ordering::Relaxed);
        let sent = self.with_client(k, |c| c.partial(text, scratch, frag, limits));
        match sent {
            Err(e) => Reply::Failed(e.to_string()),
            // A draining shard answers typed `shutting-down` on a still
            // -open session but will not serve this scatter or any
            // later one: drop the session and fail over like a death.
            Ok(Response::Err { kind, detail }) if kind == "shutting-down" => {
                self.drop_session(k);
                Reply::Failed(format!("shard draining: {detail}"))
            }
            // `no-frag` is definitive: the worker is missing this
            // fragment or holds a stale copy. Open its breaker right
            // away so the probe re-syncs it, and fail over.
            Ok(Response::Err { kind, detail }) if kind == "no-frag" => {
                self.force_down(k);
                Reply::Failed(format!("fragment not served: {detail}"))
            }
            Ok(Response::Err { kind, detail }) => Reply::Refused { kind, detail },
            Ok(Response::Ok { body, .. }) => {
                match tsv::read_tsv(std::io::Cursor::new(body.as_bytes())) {
                    Ok(rel) => Reply::Scored(rel),
                    Err(e) => Reply::Refused {
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
        tx: &mpsc::Sender<(usize, Reply, bool)>,
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
    /// first scored partial wins. Failovers and hedges are tallied in
    /// the request's `tally`.
    #[allow(clippy::too_many_arguments)]
    fn fragment_partial(
        self: &Arc<Self>,
        frag: usize,
        fp: u64,
        text: &str,
        scratch: &[String],
        limits: RequestLimits,
        deadline: Option<Instant>,
        tally: &ShardCounters,
    ) -> Reply {
        let n = self.slots.len();
        let primary = frag % n.max(1);
        let cands: Vec<usize> = replica_workers(frag, n, self.replicas)
            .into_iter()
            .filter(|&w| !self.is_down(w))
            .collect();
        if cands.is_empty() {
            return Reply::Failed(format!(
                "all {} replica(s) of fragment {frag} have open breakers",
                self.replicas
            ));
        }
        let (tx, rx) = mpsc::channel();
        let mut fails: Vec<String> = Vec::new();
        let mut next = 0usize;
        // Launch the next candidate whose RPC thread spawns: returns the
        // RPCs now in flight, 0 once the candidates ran out.
        let launch = |was_hedge: bool, next: &mut usize, fails: &mut Vec<String>| -> usize {
            while let Some(&k) = cands.get(*next) {
                *next += 1;
                if self.launch_rpc(k, text, scratch, (frag, fp), limits, was_hedge, &tx) {
                    return 1;
                }
                fails.push(format!("worker {k}: could not spawn rpc thread"));
            }
            0
        };
        let mut pending = launch(false, &mut next, &mut fails);
        let mut hedged = false;
        loop {
            if pending == 0 {
                // Every candidate failed or could not be spawned.
                return Reply::Failed(fails.join("; "));
            }
            // While a hedge is still possible, wait only up to the
            // hedge budget; afterwards poll at a coarse period, bounded
            // by the request deadline plus grace.
            let hedge_wait = self.hedge_after.filter(|_| !hedged && next < cands.len());
            match rx.recv_timeout(hedge_wait.unwrap_or(GATHER_POLL)) {
                Ok((w, Reply::Scored(rel), was_hedge)) => {
                    self.note_success(w);
                    if was_hedge {
                        tally.hedges_won.fetch_add(1, Ordering::Relaxed);
                    } else if w != primary {
                        tally.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Reply::Scored(rel);
                }
                Ok((w, Reply::Failed(detail), _)) => {
                    self.note_failure(w);
                    pending -= 1;
                    fails.push(format!("worker {w} ({}): {detail}", self.slots[w].addr));
                    pending += launch(false, &mut next, &mut fails);
                }
                Ok((w, Reply::Refused { kind, detail }, _)) => {
                    return Reply::Refused {
                        kind,
                        detail: format!("worker {w}: {detail}"),
                    };
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if hedge_wait.is_some() {
                        // The in-flight RPC blew the hedge budget:
                        // duplicate it at the next live replica and let
                        // the two race.
                        tally.hedges_launched.fetch_add(1, Ordering::Relaxed);
                        hedged = true;
                        pending += launch(true, &mut next, &mut fails);
                    } else if deadline.is_some_and(|d| Instant::now() >= d + GATHER_GRACE) {
                        // The workers' own governors should have tripped
                        // long ago; give up on the replies, typed.
                        return Reply::Refused {
                            kind: "timeout".to_string(),
                            detail: format!("fragment {frag}: no replica replied by the deadline"),
                        };
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Unreachable (we hold a sender), but never hang.
                    return Reply::Failed("rpc channel closed".to_string());
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
    /// This request's rescatters, failovers and hedges.
    tally: ShardCounters,
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
        let frags = core.fragments(self.master);
        let (text, scratch, tally) = (&text, &scratch, &self.tally);
        let outcomes: Vec<Reply> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|f| {
                    let fp = frags[f].fingerprint();
                    s.spawn(move || {
                        core.fragment_partial(f, fp, text, scratch, limits, deadline, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| Reply::Refused {
                        kind: "eval".to_string(),
                        detail: "scatter thread panicked".to_string(),
                    })
                })
                .collect()
        });
        let mut parts = Vec::with_capacity(n);
        for (f, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Reply::Scored(rel) => parts.push(rel),
                Reply::Refused { kind, detail } => {
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
                Reply::Failed(detail) => {
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
            fails: (0..n).map(|_| AtomicU32::new(0)).collect(),
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
    /// every bulk mutation, and after an `append`/`retract` whose delta
    /// push failed; also available for initial seeding.
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
        let db = core.service.snapshot();
        let frags = core.fragments(&db);
        let mut synced = vec![false; n];
        let mut had_live_host = vec![false; n];
        let mut errors: Vec<String> = Vec::new();
        for w in (0..n).filter(|&w| !core.is_down(w)) {
            let hosted = worker_fragments(w, n, core.replicas);
            let items = hosted.iter().map(|&f| (f, Shipment::Full(&frags[f])));
            let (acked, sent) = core.ship(w, items, None);
            // The worker installed the fragments it acknowledged and
            // refused the next one; it never saw the rest.
            for (i, &f) in hosted.iter().enumerate().take(acked + 1) {
                had_live_host[f] = true;
                synced[f] |= i < acked;
            }
            errors.extend(sent.err());
        }
        match (0..n).find(|&f| had_live_host[f] && !synced[f]) {
            Some(shard) => Err(ServerError::ShardLost {
                shard,
                detail: errors.join("; "),
            }),
            None => Ok(()),
        }
    }

    /// Admitted `append`/`retract` at the coordinator: mutate the
    /// master durably first (which also delta-maintains the
    /// coordinator's own result cache), then forward the commit to the
    /// fleet ([`Coordinator::push_committed`]). The mutation itself
    /// already committed, so the client's retry policy only replays it
    /// on responses certifying non-execution.
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
        let outcome = service
            .mutate(rel, tsv, frag, retract)
            .and_then(|(reply, committed)| {
                if let Some(m) = committed {
                    self.push_committed(&m)?;
                }
                Ok(reply)
            });
        service.respond(outcome)
    }

    /// Forward a committed `append`/`retract` to the fleet: the delta
    /// push, or — when it cannot prove the fleet converged (cold or
    /// moved partition cache, a live worker refusing its fragment
    /// delta) — the full [`Coordinator::push_catalog`].
    fn push_committed(&self, m: &DeltaCommit) -> Result<()> {
        self.push_delta(m).or_else(|_| self.push_catalog())
    }

    /// Route a committed delta to the worker fleet without re-shipping
    /// whole fragments: partition the delta's tuples by the catalog's
    /// own shard key (first column; replicated relations land on every
    /// fragment), apply each part to the cached fragment through the
    /// same WAL routine workers use, and ship the part to each live
    /// replica host as a fragment-scoped `append`/`retract` carrying
    /// the expected post-delta fragment fingerprint.
    ///
    /// The cached partition must describe exactly the catalog the
    /// commit was applied to, and is swapped for the advanced one only
    /// if it still does: both ends of the swap are the commit's own
    /// fingerprints, read inside its critical section, so a concurrent
    /// mutation can never leave a partition cached under a fingerprint
    /// that does not describe it. Any error means "the cheap path could
    /// not prove the fleet converged" — the caller falls back to a full
    /// catalog push. Down workers are skipped (the probe's rejoin
    /// re-sync ships the current partition anyway).
    fn push_delta(&self, m: &DeltaCommit) -> Result<()> {
        let core = &self.core;
        let n = core.slots.len();
        if n == 0 {
            return Ok(());
        }
        let moved = || ServerError::Eval("fragment cache cold or moved; full push required".into());
        let mut frags: Vec<Database> = {
            let guard = core.frag_cache.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(c) if c.master_fp == m.commit.old_fp => (*c.frags).clone(),
                _ => return Err(moved()),
            }
        };
        // Partition the delta exactly like the catalog itself.
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        if core.replicated.contains(m.delta.name()) {
            for part in &mut parts {
                *part = m.delta.tuples().to_vec();
            }
        } else {
            for t in m.delta.iter() {
                parts[shard_of(t.get(0), n)].push(t.clone());
            }
        }
        // Advance each affected cached fragment through the same WAL
        // apply routine the workers run, yielding the fingerprints
        // they must land on.
        let mut part_tsv: Vec<Option<String>> = vec![None; n];
        for (f, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let tsv = render_tsv(&Relation::from_tuples(m.delta.schema().clone(), part));
            Wal::apply(&mut frags[f], &delta_record(tsv.clone(), m.retract))
                .map_err(|e| ServerError::Eval(e.to_string()))?;
            part_tsv[f] = Some(tsv);
        }
        for w in (0..n).filter(|&w| !core.is_down(w)) {
            let items: Vec<(usize, Shipment)> = worker_fragments(w, n, core.replicas)
                .into_iter()
                .filter_map(|f| {
                    let delta = Shipment::Delta {
                        rel: m.delta.name(),
                        tsv: part_tsv[f].as_deref()?,
                        retract: m.retract,
                        fp: frags[f].fingerprint(),
                    };
                    Some((f, delta))
                })
                .collect();
            // A worker the delta does not touch is neither dialed nor
            // credited with a success.
            if !items.is_empty() {
                core.ship(w, items, None).1.map_err(ServerError::Eval)?;
            }
        }
        let mut guard = core.frag_cache.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(c) if c.master_fp == m.commit.old_fp => {
                *guard = Some(FragCache {
                    master_fp: m.commit.fp,
                    frags: Arc::new(frags),
                });
                core.counters.delta_pushes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(moved()),
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
            let db = service.snapshot();
            let shardable =
                !core.slots.is_empty() && shardable_program(&program, &core.replicated).is_some();
            if !shardable {
                core.counters
                    .local_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                let run = FlockRun {
                    program: &program,
                    db: &db,
                    evaluator: &LOCAL_EVALUATOR,
                    labels: &LOCAL_LABELS,
                    partial: false,
                };
                let o = service.run_flock(run, limits, granted_threads, deadline, cancel)?;
                return Ok((o.meta.value("sharded", false).finish(), o.body));
            }
            let evaluator = ScatterEvaluator {
                core,
                master: &db,
                tally: ShardCounters::default(),
            };
            let run = FlockRun {
                program: &program,
                db: &db,
                evaluator: &evaluator,
                labels: &SCATTER_LABELS,
                partial: false,
            };
            let ran = service.run_flock(run, limits, granted_threads, deadline, cancel);
            // Failed requests fail over, hedge and rescatter too.
            let tally = &evaluator.tally;
            core.counters.absorb(tally);
            let o = ran?;
            if !o.cache_hit {
                core.counters.sharded.fetch_add(1, Ordering::Relaxed);
            }
            // A cache hit scattered nothing: its tallies are all zero.
            let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
            let meta = o
                .meta
                .value("sharded", true)
                .value("shards", core.slots.len())
                .value("rescatters", load(&tally.rescatters))
                .value("failovers", load(&tally.failovers))
                .value("hedges_launched", load(&tally.hedges_launched))
                .value("hedges_won", load(&tally.hedges_won));
            Ok((meta.finish(), o.body))
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
        /// The worker counters rolled up, each as `shard_<key>`.
        const ROLLUP: [&str; 10] = [
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
        ];
        let core = &self.core;
        let n = core.slots.len();
        let mut live = 0u64;
        let mut rollup = [0u64; ROLLUP.len()];
        let mut missing: Vec<&str> = Vec::new();
        for k in 0..n {
            // Down workers are not even dialed.
            let reply = (!core.is_down(k)).then(|| core.with_client(k, |c| c.stats()));
            match reply {
                Some(Ok(Response::Ok { meta, .. })) => {
                    live += 1;
                    for (sum, key) in rollup.iter_mut().zip(ROLLUP) {
                        *sum += json_u64(&meta, key).unwrap_or(0);
                    }
                }
                failed => {
                    if failed.is_some() {
                        core.note_failure(k);
                    }
                    missing.push(core.slots[k].addr.as_str());
                }
            }
        }
        let sc = &core.counters;
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let mut o = core
            .service
            .stats()
            .value("shards", n)
            .value("shards_live", live)
            .value("replicas", core.replicas)
            .value("scatters", load(&sc.scatters))
            .value("rescatters", load(&sc.rescatters))
            .value("sharded_runs", load(&sc.sharded))
            .value("local_fallbacks", load(&sc.local_fallbacks))
            .value("failovers", load(&sc.failovers))
            .value("hedges_launched", load(&sc.hedges_launched))
            .value("hedges_won", load(&sc.hedges_won))
            .value("probes", load(&sc.probes))
            .value("rejoins", load(&sc.rejoins))
            .strings(
                "worker_state",
                (0..n).map(|k| core.worker_state(k).as_str()),
            )
            .value("shard_stats_partial", !missing.is_empty())
            .strings("shard_stats_missing", missing);
        for (key, sum) in ROLLUP.iter().zip(rollup) {
            o = o.value(&format!("shard_{key}"), sum);
        }
        Response::Ok {
            meta: o.value("delta_pushes", load(&sc.delta_pushes)).finish(),
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
fn probe_loop(core: &ShardCore, interval: Duration) {
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

/// One probe pass over every worker with an open breaker.
fn probe_cycle(core: &ShardCore) {
    for w in (0..core.slots.len()).filter(|&w| core.is_down(w)) {
        core.counters.probes.fetch_add(1, Ordering::Relaxed);
        if probe_worker(core, w).is_ok() {
            core.counters.rejoins.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Probe one down worker over a fresh, strictly-timed connection —
/// dropped when the attempt ends, so probes never accumulate against
/// the worker's connection cap: an alive check, then a re-`sync` of
/// every fragment it hosts (fingerprint-verified), whose success closes
/// the breaker. Any failure leaves it open for the next cycle.
fn probe_worker(core: &ShardCore, w: usize) -> Result<()> {
    let connector = Arc::clone(&core.connector.read().unwrap_or_else(|e| e.into_inner()));
    let mut client = connector(&core.slots[w].addr, &core.probe_config())?;
    // Any *typed* response proves the process is alive and parsing —
    // but only an ok ping is worth re-syncing through (an overloaded
    // worker sheds this connection right after answering).
    if let Response::Err { kind, detail } = client.ping()? {
        return Err(ServerError::Eval(format!(
            "probe ping refused ({kind}): {detail}"
        )));
    }
    // Drop any stale pooled session so the first scatter after the
    // rejoin dials the recovered process fresh.
    core.drop_session(w);
    let db = core.service.snapshot();
    let frags = core.fragments(&db);
    let hosted = worker_fragments(w, core.slots.len(), core.replicas);
    let items = hosted.into_iter().map(|f| (f, Shipment::Full(&frags[f])));
    core.ship(w, items, Some(&mut client))
        .1
        .map_err(ServerError::Eval)
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
            Request::Stats => self.stats_with_shards(),
            Request::Shutdown => {
                self.core.stop_probe.store(true, Ordering::SeqCst);
                // The workers exist to serve this coordinator: drain
                // them too (best effort — a down worker is already
                // out, and dialing it would just stall the drain).
                for k in (0..self.core.slots.len()).filter(|&k| !self.core.is_down(k)) {
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
            // A `partial` addresses this node's own fragment store
            // (nested topologies), like a frag-scoped mutation.
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
    use crate::net::Server;

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

    /// Two mutations commit before either is pushed — commit M1, commit
    /// M2, push M1, push M2. Each push must move the cached partition
    /// along its own commit's fingerprints, so the scatter sees both
    /// deltas: a partition cached under a fingerprint that does not
    /// describe it would be re-synced stale by the full push and serve
    /// the flock without M2's tuple.
    #[test]
    fn delta_pushes_after_racing_commits_keep_the_partition_exact() {
        let workers: Vec<Server> = (0..2)
            .map(|_| {
                Server::serve(ServerConfig::default(), Database::new(), "127.0.0.1:0").unwrap()
            })
            .collect();
        let coord = Coordinator::new(
            ServerConfig::default(),
            ShardConfig {
                addrs: workers.iter().map(|w| w.addr().to_string()).collect(),
                probe_interval_ms: 0,
                ..ShardConfig::default()
            },
            Database::new(),
        );
        let load = Request::Load {
            tsv: "r\ta\tp\n1\t7\n2\t7\n3\t7\n".to_string(),
        };
        assert!(coord.handle_light(&load).is_ok());
        let service = &coord.core.service;
        let commit = |tsv: &str| service.mutate("r", tsv, None, false).unwrap().1.unwrap();
        let m1 = commit("r\ta\tp\n4\t7\n");
        let m2 = commit("r\ta\tp\n5\t7\n");
        coord.push_committed(&m1).unwrap();
        coord.push_committed(&m2).unwrap();
        // Both took the delta path: neither commit's swap was refused.
        assert_eq!(coord.core.counters.delta_pushes.load(Ordering::Relaxed), 2);

        let text = "QUERY: answer(A) :- r(A,$1) FILTER: COUNT(answer.A) >= 5";
        let flock = qf_core::QueryFlock::parse(text).unwrap();
        let db = service.snapshot();
        let direct = qf_core::evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(direct.len(), 1, "the master catalog answers one row");
        let resp = coord.eval_flock_request(text, None, &RequestLimits::default(), 1, None, None);
        let Response::Ok { meta, body } = resp else {
            panic!("flock failed: {resp:?}");
        };
        assert!(meta.contains("\"strategy\":\"scatter-gather"), "{meta}");
        assert_eq!(body, render_tsv(&direct), "{meta}");
        drop(coord);
        for w in workers {
            w.shutdown();
            w.join();
        }
    }
}
