//! Semantic soundness of the containment machinery: whenever the
//! containment-mapping test says `Q2 ⊆ Q1`, evaluating both queries on
//! random databases must actually produce `answers(Q2) ⊆ answers(Q1)`.
//! This is the theorem (\[CM77\]) the whole §3 optimization rests on.

use proptest::prelude::*;

use query_flocks::core::{compile_rule, JoinOrderStrategy};
use query_flocks::datalog::{
    canonicalize, contained_in, equivalent, is_isomorphic, minimize, parse_rule, ConjunctiveQuery,
};
use query_flocks::engine::{execute_with, ExecContext};
use query_flocks::storage::{Database, Relation, Schema, Tuple, Value};

/// A pool of pure CQs over binary predicates r/s sharing a head shape.
fn query_pool() -> Vec<ConjunctiveQuery> {
    [
        "answer(X) :- r(X,Y)",
        "answer(X) :- r(X,X)",
        "answer(X) :- r(X,Y) AND r(Y,X)",
        "answer(X) :- r(X,Y) AND r(Y,Z)",
        "answer(X) :- r(X,Y) AND s(Y,Z)",
        "answer(X) :- r(X,Y) AND s(Y,Y)",
        "answer(X) :- r(X,Y) AND r(X,Z)",
        "answer(X) :- s(X,Y)",
        "answer(X) :- s(X,Y) AND r(Y,Z)",
        "answer(X) :- r(X,Y) AND r(Y,Z) AND s(Z,W)",
    ]
    .iter()
    .map(|t| parse_rule(t).unwrap())
    .collect()
}

fn eval(q: &ConjunctiveQuery, db: &Database) -> Vec<Tuple> {
    let compiled = compile_rule(q, db, JoinOrderStrategy::AsWritten).unwrap();
    execute_with(&compiled.plan, db, &ExecContext::unbounded())
        .unwrap()
        .tuples()
        .to_vec()
}

fn db_from(r: &[(i64, i64)], s: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("r", &["a", "b"]),
        r.iter()
            .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
            .collect(),
    ));
    db.insert(Relation::from_rows(
        Schema::new("s", &["a", "b"]),
        s.iter()
            .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
            .collect(),
    ));
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Containment-mapping verdicts are sound on real data.
    #[test]
    fn containment_verdicts_sound(
        r in prop::collection::vec((0i64..5, 0i64..5), 0..25),
        s in prop::collection::vec((0i64..5, 0i64..5), 0..25),
        qi in 0usize..10,
        qj in 0usize..10,
    ) {
        let pool = query_pool();
        let (q1, q2) = (&pool[qi], &pool[qj]);
        if contained_in(q2, q1).unwrap() {
            let db = db_from(&r, &s);
            let a2 = eval(q2, &db);
            let a1 = eval(q1, &db);
            for t in &a2 {
                prop_assert!(
                    a1.contains(t),
                    "claimed {q2} ⊆ {q1} but {t} only in the former"
                );
            }
        }
    }

    /// Minimization preserves semantics on real data.
    #[test]
    fn minimize_preserves_answers(
        r in prop::collection::vec((0i64..5, 0i64..5), 0..25),
        s in prop::collection::vec((0i64..5, 0i64..5), 0..25),
        qi in 0usize..10,
    ) {
        let pool = query_pool();
        let q = &pool[qi];
        let m = minimize(q).unwrap();
        prop_assert!(equivalent(&m, q).unwrap());
        let db = db_from(&r, &s);
        prop_assert_eq!(eval(q, &db), eval(&m, &db));
        prop_assert!(m.body.len() <= q.body.len());
    }

    /// Canonicalization preserves semantics and is idempotent.
    #[test]
    fn canonicalize_preserves_answers(
        r in prop::collection::vec((0i64..5, 0i64..5), 0..20),
        s in prop::collection::vec((0i64..5, 0i64..5), 0..20),
        qi in 0usize..10,
    ) {
        let pool = query_pool();
        let q = &pool[qi];
        let c = canonicalize(q);
        prop_assert!(is_isomorphic(q, &c));
        prop_assert_eq!(canonicalize(&c).clone(), c.clone());
        let db = db_from(&r, &s);
        prop_assert_eq!(eval(q, &db), eval(&c, &db));
    }
}
