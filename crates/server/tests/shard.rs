//! Scatter-gather integration tests: a real coordinator fronting real
//! `qf-server` workers over TCP. Acceptance criteria from the shard
//! work: 2-shard runs are bitwise-identical to single-node evaluation,
//! a killed worker is recovered by local re-scatter, per-shard counters
//! roll up under distinct `shard_*` stats fields (never summed into the
//! coordinator's own), and the coordinator→shard path survives the
//! chaos transport with pinned seeds.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use qf_core::{evaluate_direct, JoinOrderStrategy, QueryFlock};
use qf_server::report::json_u64;
use qf_server::service::render_tsv;
use qf_server::{
    Client, ClientConfig, Coordinator, NetChaos, RequestLimits, Response, Server, ServerConfig,
    ServerError, ShardConfig, ShardConnector, Transport, WorkerState,
};
use qf_storage::{Database, Relation, Schema, Value};

/// `baskets(bid, item)` with non-numeric item symbols (the TSV wire
/// path parses digit-like symbols as integers) and enough pair
/// structure for the support threshold to bite.
fn demo_db(baskets: i64) -> Database {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for b in 0..baskets {
        rows.push(vec![Value::int(b), Value::str("ale")]);
        if b % 2 == 0 {
            rows.push(vec![Value::int(b), Value::str("brie")]);
        }
        if b % 3 == 0 {
            rows.push(vec![Value::int(b), Value::str("cod")]);
        }
    }
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        rows,
    ));
    db
}

/// The fig. 5 shape: frequent item pairs, shardable on the basket id.
fn pair_flock(support: i64) -> String {
    format!(
        "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n\
         FILTER:\nCOUNT(answer.B) >= {support}"
    )
}

fn expected_body(text: &str, db: &Database) -> String {
    let flock = QueryFlock::parse(text).unwrap();
    render_tsv(&evaluate_direct(&flock, db, JoinOrderStrategy::Greedy).unwrap())
}

fn ok_parts(resp: Response) -> (String, String) {
    match resp {
        Response::Ok { meta, body } => (meta, body),
        Response::Err { kind, detail } => panic!("unexpected err {kind}: {detail}"),
    }
}

/// Spin up `n` empty workers plus a coordinator over them, and load
/// `db` through the coordinator (which partitions and pushes).
fn cluster(n: usize, db: &Database) -> (Vec<Server>, Server, Client) {
    let workers: Vec<Server> = (0..n)
        .map(|_| Server::serve(ServerConfig::default(), Database::new(), "127.0.0.1:0").unwrap())
        .collect();
    let shard = ShardConfig {
        addrs: workers.iter().map(|w| w.addr().to_string()).collect(),
        replicated: BTreeSet::new(),
        ..ShardConfig::default()
    };
    let coord = Server::serve_handler(
        Arc::new(Coordinator::new(
            ServerConfig::default(),
            shard,
            Database::new(),
        )),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(&coord.addr().to_string()).unwrap();
    for rel in db.iter() {
        assert!(client.load(&render_tsv(rel)).unwrap().is_ok());
    }
    (workers, coord, client)
}

#[test]
fn two_shard_run_matches_single_node_bitwise() {
    let db = demo_db(12);
    let (workers, coord, mut client) = cluster(2, &db);

    // Shardable flock: scatter-gather, bitwise-identical result.
    let text = pair_flock(2);
    let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(meta.contains("\"sharded\":true"), "{meta}");
    assert!(meta.contains("\"shards\":2"), "{meta}");
    assert_eq!(body, expected_body(&text, &db));

    // A tightened threshold of the same query is answered from the
    // coordinator-tier cache (single-step runs cache the vacuous
    // baseline), still bitwise-identical.
    let (meta, body) = ok_parts(
        client
            .flock(&text, Some(4), RequestLimits::default())
            .unwrap(),
    );
    assert!(meta.contains("\"strategy\":\"shard-cache\""), "{meta}");
    let tight = pair_flock(4);
    assert_eq!(body, expected_body(&tight, &db));

    // A non-shardable flock (head var is not the subgoals' first
    // argument) falls back to local evaluation on the master catalog.
    let local = "QUERY:\nanswer(I) :- baskets(B,I)\nFILTER:\nCOUNT(answer.I) >= 3";
    let (meta, body) = ok_parts(client.flock(local, None, RequestLimits::default()).unwrap());
    assert!(meta.contains("\"sharded\":false"), "{meta}");
    assert_eq!(body, expected_body(local, &db));

    // §5 through the scatter: the fragment holding a negative weight
    // refuses its partial, and the coordinator answers a typed `eval`.
    let importance = Relation::from_rows(
        Schema::new("importance", &["bid", "w"]),
        (0..12)
            .map(|b| vec![Value::int(b), Value::int(if b == 0 { -1 } else { 2 })])
            .collect(),
    );
    assert!(client.load(&render_tsv(&importance)).unwrap().is_ok());
    let weighted = "QUERY:\nanswer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
                    AND importance(B,W)\nFILTER:\nSUM(answer.W) >= 2";
    match client
        .flock(weighted, None, RequestLimits::default())
        .unwrap()
    {
        Response::Err { kind, detail } => {
            assert_eq!(kind, "eval");
            assert!(
                detail.contains("negative weight under a SUM filter breaks monotonicity"),
                "{detail}"
            );
        }
        Response::Ok { meta, .. } => panic!("unexpected ok: {meta}"),
    }

    drop(client);
    for w in workers {
        w.shutdown();
        w.join();
    }
    coord.shutdown();
    coord.join();
}

#[test]
fn dead_worker_is_recovered_by_rescatter() {
    let db = demo_db(10);
    let (mut workers, coord, mut client) = cluster(2, &db);

    // Kill worker 1 *before* the first flock: the scatter hits a dead
    // shard cold and must converge by re-deriving that fragment from
    // the master catalog.
    let victim = workers.pop().unwrap();
    victim.shutdown();
    victim.join();

    let text = pair_flock(2);
    let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(meta.contains("\"sharded\":true"), "{meta}");
    let rescatters = json_u64(&meta, "rescatters").unwrap_or(0);
    assert!(rescatters >= 1, "no re-scatter recorded: {meta}");
    assert_eq!(body, expected_body(&text, &db));

    drop(client);
    for w in workers {
        w.shutdown();
        w.join();
    }
    coord.shutdown();
    coord.join();
}

#[test]
fn shard_counters_roll_up_in_distinct_fields() {
    let db = demo_db(8);
    let (workers, coord, mut client) = cluster(2, &db);

    let text = pair_flock(2);
    assert!(client
        .flock(&text, None, RequestLimits::default())
        .unwrap()
        .is_ok());
    // Same query again: a coordinator-tier cache hit, no scatter.
    assert!(client
        .flock(&text, None, RequestLimits::default())
        .unwrap()
        .is_ok());

    let (stats, _) = ok_parts(client.stats().unwrap());
    assert_eq!(json_u64(&stats, "shards"), Some(2), "{stats}");
    assert_eq!(json_u64(&stats, "shards_live"), Some(2), "{stats}");
    assert!(json_u64(&stats, "scatters").unwrap() >= 2, "{stats}");
    assert_eq!(json_u64(&stats, "sharded_runs"), Some(1), "{stats}");
    assert_eq!(json_u64(&stats, "rescatters"), Some(0), "{stats}");

    // The rollup is the satellite-3 regression: worker-side activity
    // appears ONLY under shard_* keys. The coordinator's own cache saw
    // exactly one miss (first flock) and one hit (second); the workers'
    // partial-cache traffic must not inflate those fields.
    assert_eq!(json_u64(&stats, "cache_hits"), Some(1), "{stats}");
    assert_eq!(json_u64(&stats, "cache_misses"), Some(1), "{stats}");
    assert!(json_u64(&stats, "shard_requests").unwrap() >= 2, "{stats}");
    assert_eq!(json_u64(&stats, "shard_timeouts"), Some(0), "{stats}");
    assert_eq!(json_u64(&stats, "shard_cancelled"), Some(0), "{stats}");
    // Workers evaluated at least one partial each, all cold.
    assert!(
        json_u64(&stats, "shard_cache_misses").unwrap() >= 1,
        "{stats}"
    );

    drop(client);
    for w in workers {
        w.shutdown();
        w.join();
    }
    coord.shutdown();
    coord.join();
}

/// Wrap every coordinator→shard dial in the seeded chaos transport.
fn chaos_connector(chaos: NetChaos) -> ShardConnector {
    Arc::new(move |addr: &str, config: &ClientConfig| {
        let addr = addr.to_string();
        let chaos = chaos.clone();
        let factory: qf_server::TransportFactory = Box::new(move || {
            let stream =
                std::net::TcpStream::connect(&addr).map_err(|e| ServerError::Io(e.to_string()))?;
            let mut t: Box<dyn Transport> = Box::new(chaos.wrap(Box::new(stream)));
            t.set_read_timeout(Some(Duration::from_secs(2)))
                .map_err(|e| ServerError::Io(e.to_string()))?;
            t.set_write_timeout(Some(Duration::from_secs(2)))
                .map_err(|e| ServerError::Io(e.to_string()))?;
            Ok(t)
        });
        Client::connect_via(factory, config.clone())
    })
}

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("QF_NET_CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 23, 37],
    }
}

/// Chaos on the coordinator→shard wire: every run must either produce
/// single-node-identical bytes (retries and local re-scatter both heal
/// dead sessions) or a typed retryable error — never a wrong answer.
#[test]
fn chaos_between_tiers_converges_or_fails_typed() {
    let db = demo_db(10);
    let text = pair_flock(2);
    let expected = expected_body(&text, &db);

    for seed in chaos_seeds() {
        let workers: Vec<Server> = (0..2)
            .map(|_| {
                Server::serve(
                    ServerConfig {
                        io_timeout_ms: 2_000,
                        ..Default::default()
                    },
                    Database::new(),
                    "127.0.0.1:0",
                )
                .unwrap()
            })
            .collect();
        let shard = ShardConfig {
            addrs: workers.iter().map(|w| w.addr().to_string()).collect(),
            replicated: BTreeSet::new(),
            client: ClientConfig {
                retries: 10,
                io_timeout: Some(Duration::from_secs(2)),
                backoff_base: Duration::from_millis(2),
                backoff_cap: Duration::from_millis(40),
                jitter_seed: seed,
                ..ClientConfig::default()
            },
            ..ShardConfig::default()
        };
        let chaos = NetChaos::seeded(seed, 8);
        let coordinator = Coordinator::new(ServerConfig::default(), shard, Database::new())
            .with_connector(chaos_connector(chaos));
        let coord = Server::serve_handler(Arc::new(coordinator), "127.0.0.1:0").unwrap();

        // The coordinator-facing client is fault-free; only the
        // coordinator→shard tier sees chaos. It still retries typed
        // retryable responses (a failed catalog push is `shard-lost`).
        let mut client = Client::connect_with(
            &coord.addr().to_string(),
            ClientConfig {
                retries: 10,
                backoff_base: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(100),
                ..ClientConfig::default()
            },
        )
        .unwrap();

        let mut loaded = true;
        for rel in db.iter() {
            match client.load(&render_tsv(rel)).unwrap() {
                Response::Ok { .. } => {}
                Response::Err { kind, detail } => {
                    assert!(
                        ServerError::retryable_kind(&kind),
                        "seed {seed}: load failed non-retryably: {kind}: {detail}"
                    );
                    loaded = false;
                }
            }
        }
        if loaded {
            match client.flock(&text, None, RequestLimits::default()).unwrap() {
                Response::Ok { body, .. } => {
                    assert_eq!(body, expected, "seed {seed}: wrong bytes through chaos");
                }
                Response::Err { kind, detail } => {
                    assert!(
                        ServerError::retryable_kind(&kind),
                        "seed {seed}: non-retryable terminal error {kind}: {detail}"
                    );
                }
            }
        }

        drop(client);
        for w in workers {
            w.shutdown();
            w.join();
        }
        coord.shutdown();
        coord.join();
    }
}

/// Like [`cluster`], but replicated (`--replicas 2`) and with a handle
/// on the [`Coordinator`] itself so tests can read the health registry
/// and drive probe cycles synchronously (`probe_interval_ms` is zero —
/// no background thread races the asserts). `fail_threshold` is 1 so a
/// single kill opens the breaker deterministically.
fn replica_cluster(
    n: usize,
    db: &Database,
    worker_config: &ServerConfig,
    tune: impl FnOnce(ShardConfig) -> ShardConfig,
) -> (Vec<Server>, Server, Arc<Coordinator>, Client) {
    let workers: Vec<Server> = (0..n)
        .map(|_| Server::serve(worker_config.clone(), Database::new(), "127.0.0.1:0").unwrap())
        .collect();
    let shard = tune(ShardConfig {
        addrs: workers.iter().map(|w| w.addr().to_string()).collect(),
        replicas: 2,
        fail_threshold: 1,
        probe_interval_ms: 0,
        ..ShardConfig::default()
    });
    let coordinator = Arc::new(Coordinator::new(
        ServerConfig::default(),
        shard,
        Database::new(),
    ));
    let coord = Server::serve_handler(coordinator.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&coord.addr().to_string()).unwrap();
    for rel in db.iter() {
        assert!(client.load(&render_tsv(rel)).unwrap().is_ok());
    }
    (workers, coord, coordinator, client)
}

/// The tentpole acceptance: at `--replicas 2`, killing a worker is
/// absorbed by failover to the surviving replica — bitwise-identical
/// bytes, `failovers >= 1`, and **zero** rescatters (the PR-7 local
/// re-derivation stays cold because a live replica holds the fragment).
#[test]
fn replica_failover_serves_without_rescatter() {
    let db = demo_db(12);
    let (mut workers, coord, coordinator, mut client) =
        replica_cluster(2, &db, &ServerConfig::default(), |s| s);

    let victim = workers.pop().unwrap();
    let victim_addr = victim.addr().to_string();
    victim.shutdown();
    victim.join();

    let text = pair_flock(2);
    let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(meta.contains("\"sharded\":true"), "{meta}");
    assert!(json_u64(&meta, "failovers").unwrap() >= 1, "{meta}");
    assert_eq!(json_u64(&meta, "rescatters"), Some(0), "{meta}");
    assert_eq!(body, expected_body(&text, &db));

    // The breaker opened (fail_threshold = 1) and stats tell the whole
    // story: the dead worker is named as missing from the rollup, with
    // the partial-rollup flag raised — "unknown", not "zero".
    assert_eq!(coordinator.worker_state(1), WorkerState::Down);
    let (stats, _) = ok_parts(client.stats().unwrap());
    assert_eq!(json_u64(&stats, "replicas"), Some(2), "{stats}");
    assert!(json_u64(&stats, "failovers").unwrap() >= 1, "{stats}");
    assert_eq!(json_u64(&stats, "rescatters"), Some(0), "{stats}");
    assert!(
        stats.contains("\"worker_state\":[\"up\",\"down\"]"),
        "{stats}"
    );
    assert!(stats.contains("\"shard_stats_partial\":true"), "{stats}");
    assert!(stats.contains(&victim_addr), "{stats}");

    drop(client);
    for w in workers {
        w.shutdown();
        w.join();
    }
    coord.shutdown();
    coord.join();
}

/// The rejoin path: a restarted worker (same port, empty catalog) stays
/// `down` until a probe re-syncs its fragments and closes the breaker;
/// the next scatter then uses it as primary again — no failover, no
/// rescatter, no coordinator restart.
#[test]
fn probe_resyncs_restarted_worker_and_scatters_to_it() {
    let db = demo_db(10);
    let (mut workers, coord, coordinator, mut client) =
        replica_cluster(2, &db, &ServerConfig::default(), |s| s);

    let victim = workers.pop().unwrap();
    let victim_addr = victim.addr().to_string();
    victim.shutdown();
    victim.join();

    // Failover keeps serving while the worker is gone, and opens the
    // breaker.
    let text = pair_flock(2);
    let (_, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert_eq!(body, expected_body(&text, &db));
    assert_eq!(coordinator.worker_state(1), WorkerState::Down);

    // Restart on the same port with an EMPTY catalog: the process is
    // back but cannot serve its fragments yet, and the registry keeps
    // it down until a probe proves otherwise.
    let reborn = Server::serve(ServerConfig::default(), Database::new(), &victim_addr).unwrap();
    assert_eq!(coordinator.worker_state(1), WorkerState::Down);

    coordinator.probe_now();
    assert_eq!(coordinator.worker_state(1), WorkerState::Up);
    let counters = coordinator.shard_counters();
    assert!(counters.probes.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert!(counters.rejoins.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    // The probe shipped both fragments worker 1 hosts (its primary and
    // its replica of fragment 0), fingerprint-verified.
    let mut direct = Client::connect(&victim_addr).unwrap();
    let (wstats, _) = ok_parts(direct.stats().unwrap());
    assert_eq!(json_u64(&wstats, "frags"), Some(2), "{wstats}");
    drop(direct);

    // A mutation clears the coordinator caches; the following flock
    // scatters cold — and lands on the rejoined worker as primary:
    // zero failovers and zero rescatters prove it served its fragment.
    let rel = db.iter().next().unwrap();
    assert!(client.load(&render_tsv(rel)).unwrap().is_ok());
    let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(meta.contains("\"sharded\":true"), "{meta}");
    assert_eq!(json_u64(&meta, "failovers"), Some(0), "{meta}");
    assert_eq!(json_u64(&meta, "rescatters"), Some(0), "{meta}");
    assert_eq!(body, expected_body(&text, &db));

    drop(client);
    reborn.shutdown();
    reborn.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
    coord.shutdown();
    coord.join();
}

/// A transport that sleeps before every write: a deterministic slow
/// worker for the hedging tests (no seeds, no clocks to race — the
/// delay dominates every margin by an order of magnitude).
struct StallStream {
    inner: TcpStream,
    delay: Duration,
}

impl Read for StallStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for StallStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(self.delay);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for StallStream {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> std::io::Result<()> {
        Transport::set_read_timeout(&mut self.inner, dur)
    }

    fn set_write_timeout(&mut self, dur: Option<Duration>) -> std::io::Result<()> {
        Transport::set_write_timeout(&mut self.inner, dur)
    }

    fn peer_gone(&mut self) -> bool {
        Transport::peer_gone(&mut self.inner)
    }

    fn shutdown(&mut self) -> std::io::Result<()> {
        Transport::shutdown(&mut self.inner)
    }
}

/// Dial through a [`StallStream`] with a per-address write delay.
fn stall_connector(delays: Vec<(String, Duration)>) -> ShardConnector {
    Arc::new(move |addr: &str, config: &ClientConfig| {
        let delay = delays
            .iter()
            .find(|(a, _)| a == addr)
            .map(|(_, d)| *d)
            .unwrap_or(Duration::ZERO);
        let addr = addr.to_string();
        let factory: qf_server::TransportFactory = Box::new(move || {
            let stream = TcpStream::connect(&addr).map_err(|e| ServerError::Io(e.to_string()))?;
            Ok(Box::new(StallStream {
                inner: stream,
                delay,
            }) as Box<dyn Transport>)
        });
        Client::connect_via(factory, config.clone())
    })
}

/// One hedged run: 2 workers at `--replicas 2`, `hedge_after` of 40 ms,
/// per-worker write stalls in milliseconds. Returns the flock meta and
/// body.
fn hedged_flock(db: &Database, stall0: u64, stall1: u64) -> (String, String) {
    let workers: Vec<Server> = (0..2)
        .map(|_| Server::serve(ServerConfig::default(), Database::new(), "127.0.0.1:0").unwrap())
        .collect();
    let delays: Vec<(String, Duration)> = workers
        .iter()
        .zip([stall0, stall1])
        .map(|(w, ms)| (w.addr().to_string(), Duration::from_millis(ms)))
        .collect();
    let shard = ShardConfig {
        addrs: workers.iter().map(|w| w.addr().to_string()).collect(),
        replicas: 2,
        // A stalled reply is slowness, not death: keep the breaker from
        // opening mid-test.
        fail_threshold: 100,
        probe_interval_ms: 0,
        hedge_after_ms: Some(40),
        ..ShardConfig::default()
    };
    let coordinator = Coordinator::new(ServerConfig::default(), shard, Database::new())
        .with_connector(stall_connector(delays));
    let coord = Server::serve_handler(Arc::new(coordinator), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&coord.addr().to_string()).unwrap();
    for rel in db.iter() {
        assert!(client.load(&render_tsv(rel)).unwrap().is_ok());
    }
    let text = pair_flock(2);
    let out = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    drop(client);
    for w in workers {
        w.shutdown();
        w.join();
    }
    coord.shutdown();
    coord.join();
    out
}

/// Hedging cuts the slow-primary tail, and the *winner flips* with the
/// stall shape: a slow primary loses to the hedged replica, while a
/// uniformly slow fleet keeps the primary's head start — and the bytes
/// are identical either way (replicas hold identical fragments, so the
/// race can never change the answer).
#[test]
fn hedged_winner_flips_between_primary_and_replica() {
    let db = demo_db(10);
    let text = pair_flock(2);
    let expected = expected_body(&text, &db);

    // Worker 1 (fragment 1's primary) stalls 300 ms per write; worker 0
    // is instant. The 40 ms hedge fires and the replica wins the race.
    let (meta, body) = hedged_flock(&db, 0, 300);
    assert!(json_u64(&meta, "hedges_launched").unwrap() >= 1, "{meta}");
    assert!(json_u64(&meta, "hedges_won").unwrap() >= 1, "{meta}");
    assert_eq!(json_u64(&meta, "rescatters"), Some(0), "{meta}");
    assert_eq!(body, expected);

    // Both workers stall 250 ms per write: every primary blows the
    // hedge budget, but the hedge is just as slow and starts 40 ms
    // behind (then queues behind the primary RPC on the shared
    // session), so the primary wins every race it triggered.
    let (meta, body) = hedged_flock(&db, 250, 250);
    assert!(json_u64(&meta, "hedges_launched").unwrap() >= 1, "{meta}");
    assert_eq!(json_u64(&meta, "hedges_won"), Some(0), "{meta}");
    assert_eq!(body, expected);
}

/// Satellite 6: probe connections are opened fresh, used, and closed —
/// they must never accumulate against the worker's `--max-conns` cap.
/// With the cap at 2 (one slot for the coordinator's pooled session,
/// one spare), a leaky probe would trip `conn_rejected` on the worker
/// or shed the post-rejoin scatter.
#[test]
fn probe_connections_do_not_leak_against_conn_cap() {
    let db = demo_db(8);
    let worker_config = ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    };
    let (workers, coord, coordinator, mut client) =
        replica_cluster(1, &db, &worker_config, |s| ShardConfig { replicas: 1, ..s });
    let worker_addr = workers[0].addr().to_string();

    // Kill and restart the only worker: the first flock after the kill
    // is answered by local re-derivation and opens the breaker.
    let victim = workers.into_iter().next().unwrap();
    victim.shutdown();
    victim.join();
    let text = pair_flock(2);
    let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(json_u64(&meta, "rescatters").unwrap() >= 1, "{meta}");
    assert_eq!(body, expected_body(&text, &db));
    assert_eq!(coordinator.worker_state(0), WorkerState::Down);

    let reborn = Server::serve(worker_config, Database::new(), &worker_addr).unwrap();
    coordinator.probe_now();
    assert_eq!(coordinator.worker_state(0), WorkerState::Up);

    // Mutate (drops coordinator caches, re-pushes the catalog over the
    // pooled session) and scatter again: with the probe's connection
    // closed, the pooled session and one direct stats client fit the
    // cap of 2 with zero sheds.
    let rel = db.iter().next().unwrap();
    assert!(client.load(&render_tsv(rel)).unwrap().is_ok());
    let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert_eq!(json_u64(&meta, "rescatters"), Some(0), "{meta}");
    assert_eq!(body, expected_body(&text, &db));

    let mut direct = Client::connect(&worker_addr).unwrap();
    let (wstats, _) = ok_parts(direct.stats().unwrap());
    assert_eq!(json_u64(&wstats, "conn_rejected"), Some(0), "{wstats}");
    drop(direct);

    drop(client);
    reborn.shutdown();
    reborn.join();
    coord.shutdown();
    coord.join();
}
