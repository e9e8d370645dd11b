//! Incremental-maintenance tests: the delta path's acceptance criteria.
//!
//! A warm query re-issued after an `append` batch is served through
//! the maintained cache entry (counters prove `delta_maintained > 0`,
//! `cache_hit:true` proves no recompute) bitwise-identical to a cold
//! evaluation; a MIN/MAX-affecting `retract` triggers the *bounded*
//! re-check instead of a cache wipe; and a property test drives random
//! interleavings of append/retract batches across every aggregate at 1
//! and 4 threads — plus the same ingest stream through a 2-shard
//! coordinator — comparing every answer against a from-scratch
//! recompute.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use qf_core::{evaluate_direct, JoinOrderStrategy, QueryFlock};
use qf_server::report::json_u64;
use qf_server::service::render_tsv;
use qf_server::{
    Client, Coordinator, FlockService, Request, RequestLimits, Response, Server, ServerConfig,
    ShardConfig,
};
use qf_storage::{Database, Relation, Schema, Value};

fn rel_of(rows: &[(i64, i64)]) -> Relation {
    let tuples: Vec<Vec<Value>> = rows
        .iter()
        .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
        .collect();
    Relation::from_rows(Schema::new("r", &["a", "b"]), tuples)
}

fn small_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.insert(rel_of(rows));
    db
}

fn rows_tsv(rows: &[(i64, i64)]) -> String {
    let mut out = "r\ta\tb\n".to_string();
    for (a, b) in rows {
        out.push_str(&format!("{a}\t{b}\n"));
    }
    out
}

/// `answer(B) :- r(B,$1)` under the given aggregate: groups are the
/// distinct `b` values, aggregated over each group's `a` values.
fn agg_flock(agg: &str, support: i64) -> String {
    format!("QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\n{agg}(answer.B) >= {support}")
}

fn cold_body(text: &str, db: &Database) -> String {
    let flock = QueryFlock::parse(text).unwrap();
    render_tsv(&evaluate_direct(&flock, db, JoinOrderStrategy::Greedy).unwrap())
}

fn ok_parts(resp: Response) -> (String, String) {
    match resp {
        Response::Ok { meta, body } => (meta, body),
        Response::Err { kind, detail } => panic!("unexpected err {kind}: {detail}"),
    }
}

fn stat(svc: &FlockService, key: &str) -> u64 {
    let (meta, _) = ok_parts(svc.handle_light(&Request::Stats));
    json_u64(&meta, key).unwrap_or_else(|| panic!("missing {key} in {meta}"))
}

/// The headline acceptance test: warm the cache, append a batch, and
/// the re-issued query is answered **from the maintained entry** — a
/// cache hit (no recompute), counted by `delta_maintained`, and
/// bitwise-identical to a cold evaluation over the mutated catalog.
#[test]
fn warm_query_after_append_is_delta_maintained_and_exact() {
    let initial = [(1, 1), (2, 1), (3, 2), (1, 2)];
    let svc = FlockService::new(ServerConfig::default(), small_db(&initial));
    let limits = RequestLimits::default();
    let text = agg_flock("COUNT", 2);

    let (meta, _) = ok_parts(svc.handle_flock(&text, None, &limits, 1));
    assert!(meta.contains("\"cache_hit\":false"), "{meta}");

    let delta = [(4, 1), (4, 2), (5, 3)];
    let resp = svc.handle_append_admitted("r", &rows_tsv(&delta), None);
    let (meta, _) = ok_parts(resp);
    assert!(meta.contains("\"tuples\":7"), "{meta}");
    assert_eq!(stat(&svc, "delta_applied"), 1);
    assert_eq!(
        stat(&svc, "delta_maintained"),
        1,
        "entry must survive in place"
    );
    assert_eq!(stat(&svc, "delta_rebuilds"), 0, "no cache wipe allowed");

    // Mirror catalog: initial ∪ delta.
    let mut rows: Vec<(i64, i64)> = initial.to_vec();
    rows.extend_from_slice(&delta);
    let (meta, body) = ok_parts(svc.handle_flock(&text, None, &limits, 1));
    assert!(meta.contains("\"cache_hit\":true"), "served warm: {meta}");
    assert_eq!(body, cold_body(&text, &small_db(&rows)));

    // The maintained entry holds the *full* scored relation, so it now
    // answers every same-direction threshold — including ones looser
    // than the original request, which a cold-inserted entry cannot.
    let (meta, body) = ok_parts(svc.handle_flock(&text, Some(1), &limits, 1));
    assert!(meta.contains("\"cache_hit\":true"), "{meta}");
    assert_eq!(body, cold_body(&agg_flock("COUNT", 1), &small_db(&rows)));
}

/// Concurrent appends to one relation each report their own effect: N
/// workers released together append disjoint batches; the `added`
/// counts sum to the tuples loaded and every ack's `tuples` is a prefix
/// sum of them (the sizes are read inside the commit's critical
/// section, not around it).
#[test]
fn concurrent_appends_report_their_own_added_counts() {
    const WORKERS: usize = 8;
    // A seed relation big enough that one commit (re-sort + catalog
    // fingerprint) outlasts the others' arrival: they all queue on the
    // catalog lock behind the first, which is the interleaving that
    // used to make every ack report the sum.
    const SEED: u64 = 20_000;
    let seed: Vec<(i64, i64)> = (0..SEED as i64).map(|i| (-1 - i, 0)).collect();
    let svc = FlockService::new(ServerConfig::default(), small_db(&seed));
    let gate = std::sync::Barrier::new(WORKERS);
    let mut acks: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (svc, gate) = (&svc, &gate);
                s.spawn(move || {
                    // Worker w appends w+1 tuples nobody else sends.
                    let batch: Vec<(i64, i64)> = (0..=w as i64)
                        .map(|i| (100 * (w as i64 + 1) + i, 7))
                        .collect();
                    let tsv = rows_tsv(&batch);
                    gate.wait();
                    let (meta, _) = ok_parts(svc.handle_append_admitted("r", &tsv, None));
                    let field = |key| json_u64(&meta, key).unwrap_or_else(|| panic!("{meta}"));
                    (field("tuples"), field("added"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let loaded: u64 = (1..=WORKERS as u64).sum();
    assert_eq!(acks.iter().map(|&(_, added)| added).sum::<u64>(), loaded);
    acks.sort_unstable();
    let mut total = SEED;
    for (tuples, added) in acks {
        total += added;
        assert_eq!(tuples, total, "ack sizes must be prefix sums");
    }
    assert_eq!(stat(&svc, "tuples"), SEED + loaded);
}

/// A delta touches only the entries whose query reads the mutated
/// relation as a predicate — not every entry whose text happens to
/// contain its name. `live` is a substring of `deliveries`: appending
/// to `live` must leave a warm flock over `deliveries` hitting and drop
/// nothing.
#[test]
fn append_leaves_entries_over_other_relations_alone() {
    let mut db = Database::new();
    let rows: Vec<Vec<Value>> = (0..12)
        .flat_map(|b| [(b, 1), (b, 2), (b, 10 + b)])
        .map(|(b, i)| vec![Value::int(b), Value::int(i)])
        .collect();
    db.insert(Relation::from_rows(
        Schema::new("deliveries", &["b", "i"]),
        rows,
    ));
    db.insert(Relation::from_rows(
        Schema::new("live", &["a", "b"]),
        vec![vec![Value::int(1), Value::int(1)]],
    ));
    let svc = FlockService::new(ServerConfig::default(), db);
    let limits = RequestLimits::default();
    let text = "QUERY:\nanswer(B) :- deliveries(B,$1) AND deliveries(B,$2) AND $1 < $2\n\
                FILTER:\nCOUNT(answer.B) >= 5";
    let (meta, warm) = ok_parts(svc.handle_flock(text, None, &limits, 1));
    assert!(meta.contains("\"strategy\":\"static\""), "{meta}");

    let tsv = "live\ta\tb\n2\t2\n";
    ok_parts(svc.handle_append_admitted("live", tsv, None));
    assert_eq!(stat(&svc, "delta_applied"), 1);
    assert_eq!(stat(&svc, "delta_rebuilds"), 0, "nothing may be dropped");
    assert_eq!(stat(&svc, "delta_maintained"), 0, "nothing was touched");
    assert_eq!(stat(&svc, "cached_results"), 1);

    // The entry was re-keyed to the new fingerprint and still hits…
    let (meta, body) = ok_parts(svc.handle_flock(text, None, &limits, 1));
    assert!(meta.contains("\"cache_hit\":true"), "{meta}");
    assert_eq!(body, warm);
    // …and a looser threshold still misses and evaluates.
    let (meta, _) = ok_parts(svc.handle_flock(text, Some(2), &limits, 1));
    assert!(meta.contains("\"cache_hit\":false"), "{meta}");
    assert!(meta.contains("\"strategy\":\"static\""), "{meta}");
}

/// A reader looping a warmed flock over `deliveries` beside a writer
/// appending 200 batches to `live`: the commits never move the entry's
/// key or the reader's, so every response is a cache hit with the cold
/// answer's bytes, whichever side of a commit the reader snapshots on.
#[test]
fn reader_beside_writer_hits_on_an_untouched_relation() {
    let mut db = Database::new();
    let rows: Vec<Vec<Value>> = (0..12)
        .flat_map(|b| [(b, 1), (b, 2), (b, 10 + b)])
        .map(|(b, i)| vec![Value::int(b), Value::int(i)])
        .collect();
    db.insert(Relation::from_rows(
        Schema::new("deliveries", &["b", "i"]),
        rows,
    ));
    db.insert(Relation::from_rows(
        Schema::new("live", &["a", "b"]),
        vec![vec![Value::int(0), Value::int(0)]],
    ));
    let text = "QUERY:\nanswer(B) :- deliveries(B,$1) AND deliveries(B,$2) AND $1 < $2\n\
                FILTER:\nCOUNT(answer.B) >= 5";
    let cold = cold_body(text, &db);
    let svc = FlockService::new(ServerConfig::default(), db);
    let limits = RequestLimits::default();
    let (meta, warm) = ok_parts(svc.handle_flock(text, None, &limits, 1));
    assert!(meta.contains("\"cache_hit\":false"), "{meta}");
    assert_eq!(warm, cold);

    let done = std::sync::atomic::AtomicBool::new(false);
    let (reads, appends) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reads = Vec::new();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                reads.push(svc.handle_flock(text, None, &limits, 1));
            }
            reads
        });
        let appends: Vec<Response> = (1..=200)
            .map(|i| svc.handle_append_admitted("live", &format!("live\ta\tb\n{i}\t{i}\n"), None))
            .collect();
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (reader.join().unwrap(), appends)
    });
    for resp in appends {
        ok_parts(resp);
    }
    assert!(!reads.is_empty());
    for resp in reads {
        let (meta, body) = ok_parts(resp);
        assert!(meta.contains("\"cache_hit\":true"), "{meta}");
        assert_eq!(body, cold);
    }
    assert_eq!(stat(&svc, "delta_applied"), 200);
    assert_eq!(stat(&svc, "delta_rebuilds"), 0);
}

/// A retract that removes a group's MAX witnesses beyond the bounded
/// re-check set forces a rescan of that group only — counted by
/// `recheck_tuples` — and the entry keeps serving exact answers.
#[test]
fn minmax_retract_triggers_bounded_recheck_not_cache_wipe() {
    // Group b=1 holds a = 1..=12 (deeper than the re-check bound of
    // 8); group b=2 is small ballast.
    let mut initial: Vec<(i64, i64)> = (1..=12).map(|a| (a, 1)).collect();
    initial.push((5, 2));
    let svc = FlockService::new(ServerConfig::default(), small_db(&initial));
    let limits = RequestLimits::default();
    let text = agg_flock("MAX", 4);

    ok_parts(svc.handle_flock(&text, None, &limits, 1));
    // A priming batch on the ballast group seeds the entry's view (the
    // first touch evaluates the body; only later batches join deltas,
    // and only a delta can trigger a re-check).
    ok_parts(svc.handle_append_admitted("r", &rows_tsv(&[(6, 2)]), None));
    initial.push((6, 2));
    assert_eq!(stat(&svc, "delta_maintained"), 1, "seeded in place");

    // Remove the 9 largest witnesses of group 1 in one batch: the
    // re-check set (top 8) drains while incomplete, so the view must
    // rescan group 1's live tuples.
    let gone: Vec<(i64, i64)> = (4..=12).map(|a| (a, 1)).collect();
    let resp = svc.handle_retract_admitted("r", &rows_tsv(&gone), None);
    let (meta, _) = ok_parts(resp);
    assert!(meta.contains("\"removed\":9"), "{meta}");
    assert_eq!(stat(&svc, "delta_maintained"), 2, "entry must survive");
    assert_eq!(stat(&svc, "delta_rebuilds"), 0, "no cache wipe allowed");
    assert!(
        stat(&svc, "recheck_tuples") > 0,
        "bounded re-check must fire"
    );

    let mut rows = initial.clone();
    rows.retain(|t| !gone.contains(t));
    // MAX of group 1 fell from 12 to 3: threshold 4 now excludes it.
    let (meta, body) = ok_parts(svc.handle_flock(&text, None, &limits, 1));
    assert!(meta.contains("\"cache_hit\":true"), "{meta}");
    assert_eq!(body, cold_body(&text, &small_db(&rows)));
    // The loosened threshold is served from the same maintained entry.
    let (meta, body) = ok_parts(svc.handle_flock(&text, Some(2), &limits, 1));
    assert!(meta.contains("\"cache_hit\":true"), "{meta}");
    assert_eq!(body, cold_body(&agg_flock("MAX", 2), &small_db(&rows)));
}

/// The fallback: a cached flock whose unfiltered answer is too large to
/// seed (one basket of 520 items is 270 400 derivations of the pair
/// body, over the 2¹⁸-tuple budget). Nothing is built on the miss; the
/// first `append` tries to seed, fails typed inside the engine's row
/// budget, and drops the entry — the mutation itself succeeds, and the
/// next query recomputes cold and exact.
#[test]
fn seed_over_budget_drops_the_entry_for_a_cold_recompute() {
    let mut rows: Vec<(i64, i64)> = (0..520).map(|i| (1, i)).collect();
    rows.extend([(2, 0), (2, 1)]);
    let svc = FlockService::new(ServerConfig::default(), small_db(&rows));
    let limits = RequestLimits::default();
    let text = "QUERY:\nanswer(B) :- r(B,$1) AND r(B,$2)\nFILTER:\nCOUNT(answer.B) >= 2";

    let (meta, body) = ok_parts(svc.handle_flock(text, None, &limits, 2));
    assert!(meta.contains("\"cache_hit\":false"), "{meta}");
    assert_eq!(body, cold_body(text, &small_db(&rows)));
    let (meta, _) = ok_parts(svc.handle_flock(text, None, &limits, 2));
    assert!(meta.contains("\"cache_hit\":true"), "cached: {meta}");

    let (meta, _) = ok_parts(svc.handle_append_admitted("r", &rows_tsv(&[(3, 0)]), None));
    assert!(meta.contains("\"added\":1"), "{meta}");
    assert_eq!(stat(&svc, "delta_rebuilds"), 1, "the seed must fail typed");
    assert_eq!(stat(&svc, "delta_maintained"), 0);
    assert_eq!(stat(&svc, "cached_results"), 0, "entry dropped");

    rows.push((3, 0));
    let (meta, body) = ok_parts(svc.handle_flock(text, None, &limits, 2));
    assert!(meta.contains("\"cache_hit\":false"), "{meta}");
    assert_eq!(body, cold_body(text, &small_db(&rows)));
}

/// One interleaving step: apply the batch to the mirror rows under set
/// semantics, mutate the service, and check the re-issued query against
/// a cold recompute over the mirror.
fn apply_and_check(
    svc: &FlockService,
    threads: usize,
    text: &str,
    rows: &mut Vec<(i64, i64)>,
    batch: &[(i64, i64)],
    retract: bool,
) -> Result<(), TestCaseError> {
    let tsv = rows_tsv(batch);
    let resp = if retract {
        rows.retain(|t| !batch.contains(t));
        svc.handle_retract_admitted("r", &tsv, None)
    } else {
        for t in batch {
            if !rows.contains(t) {
                rows.push(*t);
            }
        }
        svc.handle_append_admitted("r", &tsv, None)
    };
    prop_assert!(resp.is_ok(), "mutation failed");
    let (_, body) = ok_parts(svc.handle_flock(text, None, &RequestLimits::default(), threads));
    prop_assert_eq!(body, cold_body(text, &small_db(rows)));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of append/retract batches across every
    /// aggregate: after each batch the (possibly delta-maintained)
    /// answer must be bitwise-equal to a from-scratch recompute, at 1
    /// and at 4 threads.
    #[test]
    fn interleaved_ingest_matches_cold_recompute(
        initial in proptest::collection::vec((0i64..6, 0i64..4), 0..24),
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0i64..6, 0i64..4), 1..8)),
            1..6,
        ),
        agg_pick in 0usize..4,
        support in 1i64..3,
    ) {
        let agg = ["COUNT", "SUM", "MIN", "MAX"][agg_pick];
        let text = agg_flock(agg, support);
        for threads in [1usize, 4] {
            let mut rows: Vec<(i64, i64)> = Vec::new();
            for t in &initial {
                if !rows.contains(t) {
                    rows.push(*t);
                }
            }
            let svc = FlockService::new(ServerConfig::default(), small_db(&rows));
            // Warm the cache so later batches exercise maintenance.
            ok_parts(svc.handle_flock(&text, None, &RequestLimits::default(), threads));
            for (retract, batch) in &ops {
                apply_and_check(&svc, threads, &text, &mut rows, batch, *retract)?;
            }
        }
    }
}

/// The same ingest stream through a real 2-shard coordinator fronting
/// real TCP workers: every append/retract ships only delta tuples to
/// the owning fragments (`delta_pushes` counts the cheap path), and
/// every re-issued query matches a single-node cold recompute.
#[test]
fn two_shard_ingest_stream_matches_cold_recompute() {
    let workers: Vec<Server> = (0..2)
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

    let mut rows: Vec<(i64, i64)> = (0..10).map(|a| (a, a % 3)).collect();
    assert!(client.load(&rows_tsv(&rows)).unwrap().is_ok());
    let text = agg_flock("COUNT", 2);
    let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(meta.contains("\"sharded\":true"), "{meta}");
    assert_eq!(body, cold_body(&text, &small_db(&rows)));

    // A deterministic interleaving: two appends, two retracts, queries
    // between every batch.
    let batches: [(bool, Vec<(i64, i64)>); 4] = [
        (false, vec![(10, 0), (11, 1), (12, 2), (13, 0)]),
        (true, vec![(0, 0), (3, 0), (6, 0)]),
        (false, vec![(20, 1), (21, 1)]),
        (true, vec![(1, 1), (4, 1), (20, 1), (21, 1), (99, 3)]),
    ];
    for (retract, batch) in &batches {
        let tsv = rows_tsv(batch);
        let resp = if *retract {
            rows.retain(|t| !batch.contains(t));
            client.retract("r", &tsv).unwrap()
        } else {
            for t in batch {
                if !rows.contains(t) {
                    rows.push(*t);
                }
            }
            client.append("r", &tsv).unwrap()
        };
        assert!(resp.is_ok(), "mutation failed: {resp:?}");
        let (meta, body) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
        assert!(meta.contains("\"sharded\":true"), "{meta}");
        assert_eq!(body, cold_body(&text, &small_db(&rows)));
    }

    // The fleet was maintained by fragment deltas, not full re-syncs,
    // and the coordinator's stats surface both its own delta counters
    // and the per-worker rollup.
    let (stats, _) = ok_parts(client.stats().unwrap());
    assert!(
        json_u64(&stats, "delta_pushes").unwrap() >= 4,
        "every batch should take the delta path: {stats}"
    );
    assert!(json_u64(&stats, "delta_applied").unwrap() >= 4, "{stats}");
    for key in [
        "\"shard_delta_applied\":",
        "\"shard_delta_maintained\":",
        "\"shard_delta_rebuilds\":",
        "\"shard_recheck_tuples\":",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }

    drop(client);
    let mut c = Client::connect(&coord.addr().to_string()).unwrap();
    let _ = c.shutdown();
    coord.join();
    for w in workers {
        w.join();
    }
}
