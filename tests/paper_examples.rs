//! Every worked example in the paper, end to end: the figures parse in
//! the paper's own notation, the enumerations match the paper's counts,
//! and the semantics agree across evaluators.

use query_flocks::core::{
    chain_plan, direct_plan, evaluate_direct, evaluate_naive, execute_plan_with, ExecContext,
    JoinOrderStrategy, QueryFlock,
};
use query_flocks::datalog::{contained_in, parse_query, parse_rule, subquery::safe_subqueries};
use query_flocks::storage::{Database, Relation, Schema, Value};

/// Fig. 2: the market-basket flock in the paper's exact notation.
#[test]
fn fig2_parses_in_paper_notation() {
    let flock = QueryFlock::parse(
        "QUERY:
         answer(B) :-
             baskets(B,$1) AND
             baskets(B,$2)
         FILTER:
         COUNT(answer.B) >= 20",
    )
    .unwrap();
    assert_eq!(flock.param_names(), vec!["1", "2"]);
    assert_eq!(flock.filter().threshold, 20);
}

/// Example 3.1: the basket query has exactly two nontrivial subqueries,
/// and each contains the original (deleting subgoals only grows answers).
#[test]
fn example_3_1_two_subqueries_and_containment() {
    let full = parse_rule("answer(B) :- baskets(B,$1) AND baskets(B,$2)").unwrap();
    let subs = safe_subqueries(&full);
    assert_eq!(subs.len(), 2);
    for s in &subs {
        assert!(contained_in(&full, &s.query).unwrap());
        assert!(!contained_in(&s.query, &full).unwrap());
    }
}

/// Example 3.2: 8 of the 14 nontrivial subsets of the medical query are
/// safe; a lone `NOT causes(D,$s)` is not one of them.
#[test]
fn example_3_2_safe_subquery_census() {
    let rule = parse_rule(
        "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
         diagnoses(P,D) AND NOT causes(D,$s)",
    )
    .unwrap();
    let subs = safe_subqueries(&rule);
    assert_eq!(subs.len(), 8);
    assert!(subs
        .iter()
        .all(|s| s.to_string() != "answer(P) :- NOT causes(D,$s)"));
}

/// Fig. 3 + Fig. 5: the medical flock's Fig. 5 plan computes the same
/// answer as direct evaluation and as the naive reference semantics.
#[test]
fn fig3_and_fig5_agree_with_reference_semantics() {
    let mut db = Database::new();
    // Hand-built miniature: 25 patients on "m0" with symptom "s0"
    // (unexplained), 25 on "m0" with "fever" (explained by flu).
    let mut diagnoses = Vec::new();
    let mut exhibits = Vec::new();
    let mut treatments = Vec::new();
    for p in 0..25i64 {
        diagnoses.push(vec![Value::int(p), Value::str("flu")]);
        exhibits.push(vec![Value::int(p), Value::str("s0")]);
        treatments.push(vec![Value::int(p), Value::str("m0")]);
    }
    for p in 25..50i64 {
        diagnoses.push(vec![Value::int(p), Value::str("flu")]);
        exhibits.push(vec![Value::int(p), Value::str("fever")]);
        treatments.push(vec![Value::int(p), Value::str("m0")]);
    }
    db.insert(Relation::from_rows(
        Schema::new("diagnoses", &["p", "d"]),
        diagnoses,
    ));
    db.insert(Relation::from_rows(
        Schema::new("exhibits", &["p", "s"]),
        exhibits,
    ));
    db.insert(Relation::from_rows(
        Schema::new("treatments", &["p", "m"]),
        treatments,
    ));
    db.insert(Relation::from_rows(
        Schema::new("causes", &["d", "s"]),
        vec![vec![Value::str("flu"), Value::str("fever")]],
    ));

    let flock = QueryFlock::parse(
        "QUERY:
         answer(P) :-
             exhibits(P,$s) AND
             treatments(P,$m) AND
             diagnoses(P,D) AND
             NOT causes(D,$s)
         FILTER:
         COUNT(answer.P) >= 20",
    )
    .unwrap();

    let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    let naive = evaluate_naive(&flock, &db).unwrap();
    assert_eq!(direct.tuples(), naive.tuples());
    assert_eq!(direct.len(), 1);
    assert_eq!(direct.tuples()[0].get(0), Value::str("m0"));
    assert_eq!(direct.tuples()[0].get(1), Value::str("s0"));

    // Fig. 5 plan, built from the paper's step texts.
    let ok_s = query_flocks::core::FilterStep::new(
        "okS",
        parse_query("answer(P) :- exhibits(P,$s)").unwrap(),
    );
    let ok_m = query_flocks::core::FilterStep::new(
        "okM",
        parse_query("answer(P) :- treatments(P,$m)").unwrap(),
    );
    let with_reductions =
        flock.query().rules()[0].with_extra(vec![ok_s.head_subgoal(), ok_m.head_subgoal()]);
    let final_ = query_flocks::core::FilterStep::new(
        "ok",
        query_flocks::datalog::UnionQuery::single(with_reductions).unwrap(),
    );
    let plan = query_flocks::core::QueryPlan::new(flock, vec![ok_s, ok_m, final_]).unwrap();
    let run = execute_plan_with(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    assert_eq!(run.result.tuples(), direct.tuples());
}

/// Fig. 4: the union flock's three-branch structure and its semantics
/// (counting answers across branches) against the naive reference.
#[test]
fn fig4_union_semantics() {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("inTitle", &["d", "w"]),
        (0..12i64)
            .flat_map(|d| {
                vec![
                    vec![Value::int(d), Value::str("apple")],
                    vec![Value::int(d), Value::str("banana")],
                ]
            })
            .collect(),
    ));
    db.insert(Relation::from_rows(
        Schema::new("inAnchor", &["a", "w"]),
        (100..110i64)
            .map(|a| vec![Value::int(a), Value::str("apple")])
            .collect(),
    ));
    db.insert(Relation::from_rows(
        Schema::new("link", &["a", "src", "dst"]),
        (100..110i64)
            .map(|a| vec![Value::int(a), Value::int(0), Value::int(1)])
            .collect(),
    ));
    let flock = QueryFlock::parse(
        "QUERY:
         answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
         FILTER:
         COUNT(answer(*)) >= 20",
    )
    .unwrap();
    // 12 title co-occurrences + 10 anchors pointing at a banana title =
    // 22 >= 20.
    let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    assert_eq!(direct.len(), 1);
    let naive = evaluate_naive(&flock, &db).unwrap();
    assert_eq!(direct.tuples(), naive.tuples());
}

/// Fig. 6/7: the path flock's chain plan has n+1 steps and each ok_i
/// feeds ok_{i+1}, exactly as the figure shows.
#[test]
fn fig7_chain_structure() {
    let flock = QueryFlock::with_support(
        "answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2) AND arc(Y2,Y3)",
        20,
    )
    .unwrap();
    let plan = chain_plan(&flock).unwrap();
    // Body has 4 subgoals → ok0..ok2 + final = 4 steps (Fig. 7: n+1).
    assert_eq!(plan.len(), 4);
    for i in 1..plan.len() - 1 {
        let text = plan.steps[i].query.rules()[0].to_string();
        assert!(
            text.contains(&format!("ok{}($1)", i - 1)),
            "step {i} must consume ok{}: {text}",
            i - 1
        );
    }
}

/// Fig. 10: the weighted flock in the paper's notation, checked against
/// naive semantics.
#[test]
fn fig10_weighted_semantics() {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        (0..10i64)
            .flat_map(|b| {
                vec![
                    vec![Value::int(b), Value::str("beer")],
                    vec![Value::int(b), Value::str("diapers")],
                ]
            })
            .collect(),
    ));
    db.insert(Relation::from_rows(
        Schema::new("importance", &["bid", "w"]),
        (0..10i64)
            .map(|b| vec![Value::int(b), Value::int(3)])
            .collect(),
    ));
    let flock = QueryFlock::parse(
        "QUERY:
         answer(B,W) :-
             baskets(B,$1) AND
             baskets(B,$2) AND
             importance(B,W) AND $1 < $2
         FILTER:
         SUM(answer.W) >= 20",
    )
    .unwrap();
    assert!(flock.filter().is_monotone());
    let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    assert_eq!(direct.len(), 1); // 10 baskets × weight 3 = 30 >= 20.
    let naive = evaluate_naive(&flock, &db).unwrap();
    assert_eq!(direct.tuples(), naive.tuples());
}

/// §4.2: the direct plan is always legal, for every example flock in
/// the paper.
#[test]
fn direct_plans_legal_for_all_paper_flocks() {
    let texts = [
        "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) FILTER: COUNT(answer.B) >= 20",
        "QUERY: answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) AND \
         NOT causes(D,$s) FILTER: COUNT(answer.P) >= 20",
        "QUERY:
         answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
         FILTER: COUNT(answer(*)) >= 20",
        "QUERY: answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND importance(B,W) \
         FILTER: SUM(answer.W) >= 20",
    ];
    for text in texts {
        let flock = QueryFlock::parse(text).unwrap();
        direct_plan(&flock).unwrap();
    }
}
