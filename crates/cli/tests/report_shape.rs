//! The two report shapes, pinned by key sequence (names and order, not
//! values): `stats` on each deployment — a standalone server, a worker
//! holding fragments, a coordinator over two workers — and the
//! per-request meta of every route that answers a flock — a standalone
//! `flock` (miss and cache hit), a worker's `partial`, a coordinator
//! `flock` (scattered and local fallback) and a local `qfsh --report
//! json` run.

use std::collections::BTreeSet;
use std::sync::Arc;

use qf_cli::Session;
use qf_server::service::render_tsv;
use qf_server::{Client, Coordinator, RequestLimits, Response, Server, ServerConfig, ShardConfig};
use qf_storage::{Database, Relation, Schema, Value};

/// The top-level keys of a one-line JSON object, in order.
fn keys(obj: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let mut current = String::new();
    let mut last_str: Option<String> = None;
    for c in obj.chars() {
        if in_str {
            match c {
                _ if escaped => {
                    escaped = false;
                    current.push(c);
                }
                '\\' => escaped = true,
                '"' => {
                    in_str = false;
                    last_str = Some(std::mem::take(&mut current));
                }
                _ => current.push(c),
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ':' if depth == 1 => out.extend(last_str.take()),
            _ if !c.is_whitespace() => last_str = None,
            _ => {}
        }
    }
    out
}

fn ok_meta(resp: Response) -> String {
    match resp {
        Response::Ok { meta, .. } => meta,
        Response::Err { kind, detail } => panic!("unexpected err {kind}: {detail}"),
    }
}

/// `r(a, b)` over integers only, so a fragment's TSV round trip is
/// exact and its fingerprint is the in-memory one.
fn demo_db() -> Database {
    let rows: Vec<Vec<Value>> = (0..12i64)
        .map(|a| vec![Value::int(a), Value::int(a % 3)])
        .collect();
    let mut db = Database::new();
    db.insert(Relation::from_rows(Schema::new("r", &["a", "b"]), rows));
    db
}

/// Shardable on `r`'s first column.
const SHARDED: &str = "QUERY:\nanswer(A) :- r(A,$1)\nFILTER:\nCOUNT(answer.A) >= 2";
/// Not shardable (the head variable is not the shard key): local
/// fallback at a coordinator.
const FALLBACK: &str = "QUERY:\nanswer(B) :- r(A,B)\nFILTER:\nCOUNT(answer.B) >= 2";

fn serve(db: Database) -> Server {
    Server::serve(ServerConfig::default(), db, "127.0.0.1:0").unwrap()
}

/// Two empty workers and a coordinator over them, loaded with
/// [`demo_db`] through the coordinator (which partitions and pushes).
fn cluster() -> (Vec<Server>, Server, Client) {
    let workers: Vec<Server> = (0..2).map(|_| serve(Database::new())).collect();
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
    for rel in demo_db().iter() {
        assert!(client.load(&render_tsv(rel)).unwrap().is_ok());
    }
    (workers, coord, client)
}

fn stop(servers: impl IntoIterator<Item = Server>) {
    for s in servers {
        s.shutdown();
        s.join();
    }
}

const STATS_KEYS: [&str; 28] = [
    "requests",
    "cache_hits",
    "cache_misses",
    "rejected",
    "timeouts",
    "cancelled",
    "conn_rejected",
    "conns",
    "queue_depth",
    "queue_depth_max",
    "active",
    "live_workers",
    "cached_results",
    "relations",
    "tuples",
    "fp",
    "delta_applied",
    "delta_maintained",
    "delta_rebuilds",
    "recheck_tuples",
    "wal_records",
    "wal_bytes",
    "snapshots",
    "compactions",
    "recovered_records",
    "recovery_ms",
    "frags",
    "shutting_down",
];

const COORDINATOR_STATS_KEYS: [&str; 26] = [
    "shards",
    "shards_live",
    "replicas",
    "scatters",
    "rescatters",
    "sharded_runs",
    "local_fallbacks",
    "failovers",
    "hedges_launched",
    "hedges_won",
    "probes",
    "rejoins",
    "worker_state",
    "shard_stats_partial",
    "shard_stats_missing",
    "shard_requests",
    "shard_cache_hits",
    "shard_cache_misses",
    "shard_timeouts",
    "shard_cancelled",
    "shard_rejected",
    "shard_delta_applied",
    "shard_delta_maintained",
    "shard_delta_rebuilds",
    "shard_recheck_tuples",
    "delta_pushes",
];

/// `stats` is the one report of server-wide counters: the same keys
/// in the same order on a standalone server and on a worker, and the
/// coordinator's fleet rollup after them.
#[test]
fn stats_key_sequence_is_pinned_on_every_deployment() {
    let standalone = serve(demo_db());
    let mut client = Client::connect(&standalone.addr().to_string()).unwrap();
    ok_meta(
        client
            .flock(SHARDED, None, RequestLimits::default())
            .unwrap(),
    );
    assert_eq!(keys(&ok_meta(client.stats().unwrap())), STATS_KEYS);
    drop(client);
    stop([standalone]);

    let (workers, coord, mut client) = cluster();
    ok_meta(
        client
            .flock(SHARDED, None, RequestLimits::default())
            .unwrap(),
    );
    let mut worker = Client::connect(&workers[0].addr().to_string()).unwrap();
    let worker_stats = ok_meta(worker.stats().unwrap());
    assert!(!worker_stats.contains("\"frags\":0"), "{worker_stats}");
    assert_eq!(keys(&worker_stats), STATS_KEYS);
    let coord_keys = keys(&ok_meta(client.stats().unwrap()));
    let want: Vec<&str> = STATS_KEYS
        .iter()
        .chain(&COORDINATOR_STATS_KEYS)
        .copied()
        .collect();
    assert_eq!(coord_keys, want);
    drop((client, worker));
    stop(workers.into_iter().chain([coord]));
}

/// A flock's meta reports that request alone, with the same keys on
/// every route; a coordinator adds how it was sharded.
#[test]
fn meta_key_sequence_is_pinned_on_every_route() {
    const META_KEYS: [&str; 15] = [
        "strategy",
        "results",
        "elapsed_ms",
        "rows",
        "bytes",
        "workers",
        "spilled_bytes",
        "spills",
        "resumed_steps",
        "io_retries",
        "corruption_recoveries",
        "spill_files_live",
        "tsv_skipped_lines",
        "cache_hit",
        "degradations",
    ];
    let with = |extra: &[&str]| -> Vec<String> {
        META_KEYS
            .iter()
            .chain(extra)
            .map(|k| k.to_string())
            .collect()
    };
    let sharded = with(&[
        "sharded",
        "shards",
        "rescatters",
        "failovers",
        "hedges_launched",
        "hedges_won",
    ]);

    // Standalone `flock`, evaluated and then from the cache, and a
    // `partial` against a synced fragment.
    let db = demo_db();
    let standalone = serve(db.clone());
    let mut client = Client::connect(&standalone.addr().to_string()).unwrap();
    for _ in 0..2 {
        let meta = ok_meta(
            client
                .flock(SHARDED, None, RequestLimits::default())
                .unwrap(),
        );
        assert_eq!(keys(&meta), with(&[]), "{meta}");
    }
    let relations = db.iter().map(render_tsv).collect();
    ok_meta(client.sync(0, db.fingerprint(), relations).unwrap());
    let limits = RequestLimits::default();
    let meta = ok_meta(
        client
            .partial(SHARDED, Vec::new(), (0, db.fingerprint()), limits)
            .unwrap(),
    );
    assert_eq!(keys(&meta), with(&[]), "{meta}");
    drop(client);
    stop([standalone]);

    // Coordinator `flock`: scattered (evaluated and from the cache) and
    // local fallback.
    let (workers, coord, mut client) = cluster();
    for _ in 0..2 {
        let meta = ok_meta(
            client
                .flock(SHARDED, None, RequestLimits::default())
                .unwrap(),
        );
        assert_eq!(keys(&meta), sharded, "{meta}");
    }
    let meta = ok_meta(
        client
            .flock(FALLBACK, None, RequestLimits::default())
            .unwrap(),
    );
    assert_eq!(keys(&meta), with(&["sharded"]), "{meta}");
    drop(client);
    stop(workers.into_iter().chain([coord]));

    // A local `qfsh --report json` run.
    let mut s = Session::new();
    s.execute_line("gen baskets").unwrap();
    s.execute_line(
        "flock QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
         FILTER: COUNT(answer.B) >= 20",
    )
    .unwrap();
    s.execute_line("report json").unwrap();
    let out = s.execute_line("run direct").unwrap();
    assert_eq!(keys(&out), with(&[]), "{out}");
}
