//! Service-level tests (no sockets): cache equivalence, monotone
//! reuse, budget admission, and catalog invalidation.

use proptest::prelude::*;

use qf_core::{evaluate_direct, JoinOrderStrategy, QueryFlock};
use qf_server::service::render_tsv;
use qf_server::{FlockService, Request, RequestLimits, Response, ServerConfig};
use qf_storage::{Database, Relation, Schema, Value};

fn small_db(rows: &[(i64, i64)]) -> Database {
    let tuples: Vec<Vec<Value>> = rows
        .iter()
        .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
        .collect();
    let mut db = Database::new();
    db.insert(Relation::from_rows(Schema::new("r", &["a", "b"]), tuples));
    db
}

/// `answer(B) :- r(B,$1)`: one parameter `$1`, supported by the count
/// of distinct `B` values seen with it.
fn flock_text(support: i64) -> String {
    format!("QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\nCOUNT(answer.B) >= {support}")
}

fn ok_parts(resp: Response) -> (String, String) {
    match resp {
        Response::Ok { meta, body } => (meta, body),
        Response::Err { kind, detail } => panic!("unexpected err {kind}: {detail}"),
    }
}

fn err_kind(resp: Response) -> String {
    match resp {
        Response::Err { kind, .. } => kind,
        Response::Ok { meta, .. } => panic!("unexpected ok: {meta}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: a cached answer is bitwise identical to
    /// a cold evaluation — for the same request, and (monotone reuse)
    /// for any tightened threshold served from the same entry.
    #[test]
    fn cache_hit_equals_cold_eval(
        rows in proptest::collection::vec((0i64..6, 0i64..6), 0..40),
        support in 1i64..4,
        delta in 0i64..3,
    ) {
        let db = small_db(&rows);
        let text = flock_text(support);
        let flock = QueryFlock::parse(&text).unwrap();
        let cold = render_tsv(
            &evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap(),
        );
        let svc = FlockService::new(ServerConfig::default(), db.clone());
        let limits = RequestLimits::default();

        let (m1, b1) = ok_parts(svc.handle_flock(&text, None, &limits, 2));
        prop_assert!(m1.contains("\"cache_hit\":false"), "first run must miss: {m1}");
        prop_assert_eq!(&b1, &cold);

        let (m2, b2) = ok_parts(svc.handle_flock(&text, None, &limits, 2));
        prop_assert!(m2.contains("\"cache_hit\":true"), "repeat must hit: {m2}");
        prop_assert!(m2.contains("\"strategy\":\"cache\""));
        prop_assert_eq!(&b2, &cold);

        // Monotone reuse: a tightened threshold (s' >= s) is answered
        // from the same scored entry, identical to its own cold run.
        let tightened = support + delta;
        let (m3, b3) = ok_parts(svc.handle_flock(&text, Some(tightened), &limits, 2));
        prop_assert!(m3.contains("\"cache_hit\":true"), "tightened must hit: {m3}");
        let flock2 = QueryFlock::parse(&flock_text(tightened)).unwrap();
        let cold2 = render_tsv(
            &evaluate_direct(&flock2, &db, JoinOrderStrategy::Greedy).unwrap(),
        );
        prop_assert_eq!(&b3, &cold2);
    }
}

#[test]
fn loosened_threshold_misses_and_reevaluates() {
    let db = small_db(&[(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]);
    let svc = FlockService::new(ServerConfig::default(), db.clone());
    let limits = RequestLimits::default();
    let text = flock_text(3);
    ok_parts(svc.handle_flock(&text, None, &limits, 1));
    // support 2 is looser than the cached baseline 3: must re-evaluate
    // (a hit would silently drop answers) through a fresh plan search.
    let (meta, body) = ok_parts(svc.handle_flock(&text, Some(2), &limits, 1));
    assert!(meta.contains("\"cache_hit\":false"), "{meta}");
    assert!(meta.contains("\"strategy\":\"static\""), "{meta}");
    let flock = QueryFlock::parse(&flock_text(2)).unwrap();
    let cold = render_tsv(&evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap());
    assert_eq!(body, cold);
}

/// `cache_entries: 0` disables the result cache: a repeat evaluates
/// again, and nothing is kept.
#[test]
fn zero_cache_entries_caches_nothing() {
    let db = small_db(&[(1, 1), (2, 1), (3, 1), (1, 2)]);
    let config = ServerConfig {
        cache_entries: 0,
        ..Default::default()
    };
    let svc = FlockService::new(config, db.clone());
    let limits = RequestLimits::default();
    let text = flock_text(2);
    let flock = QueryFlock::parse(&text).unwrap();
    let cold = render_tsv(&evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap());
    for _ in 0..2 {
        let (meta, body) = ok_parts(svc.handle_flock(&text, None, &limits, 1));
        assert!(meta.contains("\"cache_hit\":false"), "{meta}");
        assert_eq!(body, cold);
    }
    let (stats, _) = ok_parts(svc.handle_light(&Request::Stats));
    assert!(stats.contains("\"cached_results\":0"), "{stats}");
}

#[test]
fn over_cap_request_is_rejected_with_budget_error() {
    let config = ServerConfig {
        max_rows: Some(1_000),
        ..Default::default()
    };
    let svc = FlockService::new(config, small_db(&[(1, 1)]));
    let limits = RequestLimits {
        max_rows: Some(1_000_000),
        ..Default::default()
    };
    let resp = svc.handle_flock(&flock_text(1), None, &limits, 1);
    assert_eq!(err_kind(resp), "budget");
}

#[test]
fn exhausted_governor_budget_is_a_typed_budget_error() {
    let svc = FlockService::new(
        ServerConfig::default(),
        small_db(&[(1, 1), (2, 1), (3, 2), (4, 2), (5, 3)]),
    );
    let limits = RequestLimits {
        max_rows: Some(1),
        ..Default::default()
    };
    let resp = svc.handle_flock(&flock_text(1), None, &limits, 1);
    assert_eq!(err_kind(resp), "budget");
}

#[test]
fn catalog_mutation_invalidates_the_cache() {
    let svc = FlockService::new(ServerConfig::default(), small_db(&[(1, 1), (2, 1)]));
    let limits = RequestLimits::default();
    let text = flock_text(1);
    ok_parts(svc.handle_flock(&text, None, &limits, 1));
    let (meta, _) = ok_parts(svc.handle_flock(&text, None, &limits, 1));
    assert!(meta.contains("\"cache_hit\":true"), "{meta}");

    // Replacing `r` changes the catalog fingerprint: the same program
    // must re-evaluate against the new data.
    let load = Request::Load {
        tsv: "r\ta\tb\n7\t1\n8\t1\n9\t1\n".to_string(),
    };
    assert!(svc.handle_light(&load).is_ok());
    let (meta, body) = ok_parts(svc.handle_flock(&text, None, &limits, 1));
    assert!(meta.contains("\"cache_hit\":false"), "{meta}");
    assert!(body.contains('1'), "result reflects the reloaded catalog");
}

/// `gen`'s note names every relation it wrote: `words` writes (and
/// replaces) `baskets`.
#[test]
fn gen_words_names_the_baskets_relation_it_writes() {
    let svc = FlockService::new(ServerConfig::default(), Database::new());
    let gen = Request::Gen {
        kind: "words".to_string(),
        seed: 7,
    };
    let (_, note) = ok_parts(svc.handle_light(&gen));
    assert!(note.contains("baskets"), "{note}");
    assert!(svc.snapshot().get("baskets").is_ok());
}

#[test]
fn sum_over_different_head_columns_does_not_cross_hit() {
    // Both programs canonicalize to the same query text — they differ
    // only in which head column `SUM(answer.W)` reads (position 1 of
    // answer(B,W) vs position 0 of answer(W,Z)). A cache comparing the
    // aggregate by raw variable name would serve the first program's
    // sums for the second, semantically different, request.
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("r", &["a", "b", "c"]),
        vec![
            vec![Value::int(1), Value::int(100), Value::int(7)],
            vec![Value::int(2), Value::int(100), Value::int(7)],
        ],
    ));
    let svc = FlockService::new(ServerConfig::default(), db);
    let limits = RequestLimits::default();
    let sum_col_b = "QUERY:\nanswer(B,W) :- r(B,W,$p)\nFILTER:\nSUM(answer.W) >= 10";
    let (_, body_b) = ok_parts(svc.handle_flock(sum_col_b, None, &limits, 1));
    assert!(body_b.contains('7'), "SUM over column b is 200: {body_b}");

    // Renaming the aggregate variable *along with* the query is pure
    // spelling — same column, must hit with identical bytes.
    let sum_col_b2 = "QUERY:\nanswer(X,Y) :- r(X,Y,$p)\nFILTER:\nSUM(answer.Y) >= 10";
    let (meta_b2, body_b2) = ok_parts(svc.handle_flock(sum_col_b2, None, &limits, 1));
    assert!(meta_b2.contains("\"cache_hit\":true"), "{meta_b2}");
    assert_eq!(body_b2, body_b);

    // Same raw variable name, different column: must MISS and return
    // the true (empty) answer — SUM over column a is 1+2 = 3 < 10.
    let sum_col_a = "QUERY:\nanswer(W,Z) :- r(W,Z,$p)\nFILTER:\nSUM(answer.W) >= 10";
    let (meta_a, body_a) = ok_parts(svc.handle_flock(sum_col_a, None, &limits, 1));
    assert!(meta_a.contains("\"cache_hit\":false"), "{meta_a}");
    assert!(!body_a.contains('7'), "SUM over column a is 3: {body_a}");
}

/// §5: a negative weight under a SUM filter is an `eval` error whose
/// text names the broken precondition, and the service stays usable.
#[test]
fn negative_sum_weight_is_a_typed_eval_error() {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("r", &["a", "b", "c"]),
        vec![
            vec![Value::int(1), Value::int(4), Value::int(7)],
            vec![Value::int(2), Value::int(-3), Value::int(7)],
        ],
    ));
    let svc = FlockService::new(ServerConfig::default(), db);
    let limits = RequestLimits::default();
    let text = "QUERY:\nanswer(B,W) :- r(B,W,$p)\nFILTER:\nSUM(answer.W) >= 1";
    match svc.handle_flock(text, None, &limits, 1) {
        Response::Err { kind, detail } => {
            assert_eq!(kind, "eval");
            assert!(
                detail.contains("negative weight under a SUM filter breaks monotonicity"),
                "{detail}"
            );
        }
        Response::Ok { meta, .. } => panic!("unexpected ok: {meta}"),
    }
    let count = "QUERY:\nanswer(B,W) :- r(B,W,$p)\nFILTER:\nCOUNT(answer.W) >= 2";
    let (_, body) = ok_parts(svc.handle_flock(count, None, &limits, 1));
    assert!(body.contains('7'), "{body}");
}

#[test]
fn fingerprint_is_syntax_insensitive() {
    let svc = FlockService::new(ServerConfig::default(), Database::new());
    let a = Request::Fingerprint {
        text: "QUERY:\nanswer(B) :- r(B,$1) AND s(B,$2)\nFILTER:\nCOUNT(answer.B) >= 2".to_string(),
    };
    // Same query up to ordinary-variable names and subgoal order.
    // Parameter names survive canonicalization on purpose: they label
    // the result columns, so renaming them changes observable output.
    let b = Request::Fingerprint {
        text: "QUERY:\nanswer(X) :- s(X,$2) AND r(X,$1)\nFILTER:\nCOUNT(answer.X) >= 2".to_string(),
    };
    let (meta_a, canon_a) = ok_parts(svc.handle_light(&a));
    let (meta_b, canon_b) = ok_parts(svc.handle_light(&b));
    assert_eq!(meta_a, meta_b);
    assert_eq!(canon_a, canon_b);
    assert!(meta_a.contains("\"fingerprint\":\""), "{meta_a}");
}

#[test]
fn stats_surface_cache_and_admission_counters() {
    let svc = FlockService::new(ServerConfig::default(), small_db(&[(1, 1), (2, 1)]));
    let limits = RequestLimits::default();
    let text = flock_text(1);
    ok_parts(svc.handle_flock(&text, None, &limits, 1));
    ok_parts(svc.handle_flock(&text, None, &limits, 1));
    let (stats, _) = ok_parts(svc.handle_light(&Request::Stats));
    for key in [
        "\"requests\":",
        "\"cache_hits\":1",
        "\"cache_misses\":1",
        "\"rejected\":0",
        "\"queue_depth_max\":",
        "\"relations\":1",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
}

/// The worker's fragment store refuses what it cannot certify, and no
/// refusal touches the stored fragment: a `sync` whose content misses
/// its declared fingerprint is `proto`; a frag-scoped `append`/
/// `retract` that would leave the fragment at another fingerprint, and
/// a `partial` naming a missing or stale fragment, are `no-frag`; a
/// `partial` without a fragment scope is `proto`.
#[test]
fn fragment_store_refusals_leave_the_fragment_unchanged() {
    let svc = FlockService::new(ServerConfig::default(), Database::new());
    let frag = small_db(&[(1, 1), (2, 1), (3, 2)]);
    let fp = frag.fingerprint();
    let sync = |db: &Database, fp| Request::Sync {
        frag: 0,
        fp,
        relations: db.iter().map(render_tsv).collect(),
    };
    ok_parts(svc.handle_light(&sync(&frag, fp)));
    let limits = RequestLimits::default();
    let text = flock_text(1);
    let partial = |scope| svc.handle_partial_admitted(&text, &[], scope, &limits, 1, None, None);
    let (_, stored) = ok_parts(partial(Some((0, fp))));

    let other = small_db(&[(9, 9)]);
    let cases: [(&str, &dyn Fn() -> Response, &str); 6] = [
        (
            "sync of other content under the stored fingerprint",
            &|| svc.handle_light(&sync(&other, fp)),
            "proto",
        ),
        (
            "append leaving the fragment at another fingerprint",
            &|| svc.handle_append_admitted("r", "r\ta\tb\n9\t1\n", Some((0, fp))),
            "no-frag",
        ),
        (
            "retract leaving the fragment at another fingerprint",
            &|| svc.handle_retract_admitted("r", "r\ta\tb\n1\t1\n", Some((0, fp))),
            "no-frag",
        ),
        (
            "partial against a missing fragment",
            &|| partial(Some((1, fp))),
            "no-frag",
        ),
        (
            "partial against a stale fragment",
            &|| partial(Some((0, fp ^ 1))),
            "no-frag",
        ),
        (
            "partial without a fragment scope",
            &|| partial(None),
            "proto",
        ),
    ];
    for (case, refused, kind) in cases {
        assert_eq!(err_kind(refused()), kind, "{case}");
        // The fragment still answers at its fingerprint, byte for byte.
        let (_, body) = ok_parts(partial(Some((0, fp))));
        assert_eq!(body, stored, "{case} changed the stored fragment");
    }
}

/// A relation name is any non-blank token, quotes included: the
/// acknowledgement of a frag-scoped delta escapes it like every other
/// string in a meta, so the reply stays valid JSON.
#[test]
fn frag_scoped_delta_meta_escapes_the_relation_name() {
    let svc = FlockService::new(ServerConfig::default(), Database::new());
    let frag = |xs: &[i64]| {
        let rows = xs.iter().map(|&x| vec![Value::int(x)]).collect();
        let mut db = Database::new();
        db.insert(Relation::from_rows(Schema::new("a\"b", &["x"]), rows));
        db
    };
    let (before, after) = (frag(&[1]), frag(&[1, 2]));
    ok_parts(svc.handle_light(&Request::Sync {
        frag: 0,
        fp: before.fingerprint(),
        relations: before.iter().map(render_tsv).collect(),
    }));
    let scope = Some((0, after.fingerprint()));
    let (meta, _) = ok_parts(svc.handle_append_admitted("a\"b", "a\"b\tx\n2\n", scope));
    assert!(meta.contains("\"relation\":\"a\\\"b\""), "{meta}");
}
