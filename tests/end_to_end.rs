//! Cross-crate integration: generated workloads flow through the full
//! stack — datagen → storage → datalog → core planning/execution →
//! mine — with ground truth recovered and artifacts (TSV, SQL)
//! round-tripping.

use query_flocks::core::{
    best_plan_with, evaluate_direct, execute_plan_with, plan_to_sql, single_param_plan, to_sql,
    ExecContext, JoinOrderStrategy, QueryFlock,
};
use query_flocks::datagen::{baskets, medical, words};
use query_flocks::mine::{mine_apriori, mine_flockwise_with};
use query_flocks::storage::{tsv, Database, Value};

#[test]
fn words_pipeline_finds_frequent_pairs() {
    let rel = words::generate(&words::WordsConfig {
        n_docs: 400,
        words_per_doc: 15,
        vocabulary: 1500,
        exponent: 1.0,
        seed: 3,
    });
    let mut db = Database::new();
    db.insert(rel);
    let flock = QueryFlock::with_support(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        20,
    )
    .unwrap();
    let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    assert!(!direct.is_empty(), "Zipf head words must co-occur");
    // The two most frequent words must be among the found pairs.
    let (w0, w1) = (
        Value::str(&words::word_name(0)),
        Value::str(&words::word_name(1)),
    );
    assert!(direct
        .iter()
        .any(|t| t.get(0) == w0.min(w1) && t.get(1) == w0.max(w1)));

    // The best cost-searched plan agrees.
    let (plan, _) = best_plan_with(&flock, &db, &ExecContext::unbounded()).unwrap();
    let run = execute_plan_with(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    assert_eq!(run.result.tuples(), direct.tuples());
}

#[test]
fn medical_pipeline_recovers_planted_side_effects() {
    let data = medical::generate(&medical::MedicalConfig {
        n_patients: 1200,
        rare_fraction: 0.4,
        seed: 5,
        ..medical::MedicalConfig::default()
    });
    let flock = QueryFlock::with_support(
        "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
         diagnoses(P,D) AND NOT causes(D,$s)",
        20,
    )
    .unwrap();
    let plan = single_param_plan(&flock, &data.db).unwrap();
    let run = execute_plan_with(
        &plan,
        &data.db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    for (med, sym) in &data.planted {
        assert!(
            run.result
                .iter()
                .any(|t| t.get(0) == Value::str(med) && t.get(1) == Value::str(sym)),
            "planted ({med},{sym}) missing"
        );
    }
}

#[test]
fn basket_pipeline_three_way_agreement() {
    let data = baskets::generate(&baskets::BasketConfig {
        n_baskets: 500,
        avg_basket_size: 7,
        n_items: 150,
        n_patterns: 8,
        ..baskets::BasketConfig::default()
    });
    let mut db = Database::new();
    db.insert(data.baskets.clone());
    let threshold = 15i64;

    // Flock levelwise ≡ classic a-priori at every level.
    let levels = mine_flockwise_with(&db, threshold, 3, &ExecContext::unbounded()).unwrap();
    let txns: Vec<Vec<u32>> = data
        .transactions
        .iter()
        .map(|t| t.iter().map(|&i| i as u32).collect())
        .collect();
    let classic = mine_apriori(&txns, threshold as u64, 3);
    for (k, rel) in levels.iter().enumerate() {
        assert_eq!(
            rel.len(),
            classic.frequent_k(k + 1).len(),
            "level {}",
            k + 1
        );
    }
}

#[test]
fn tsv_roundtrip_preserves_mining_results() {
    let data = baskets::generate(&baskets::BasketConfig {
        n_baskets: 200,
        n_items: 80,
        ..baskets::BasketConfig::default()
    });
    let dir = std::env::temp_dir().join(format!("qf-tsv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baskets.tsv");
    tsv::save_tsv(&data.baskets, &path).unwrap();
    let reloaded = tsv::load_tsv(&path).unwrap();
    assert_eq!(reloaded, data.baskets);

    let mut db1 = Database::new();
    db1.insert(data.baskets.clone());
    let mut db2 = Database::new();
    db2.insert(reloaded);
    let flock = QueryFlock::with_support(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        10,
    )
    .unwrap();
    let a = evaluate_direct(&flock, &db1, JoinOrderStrategy::Greedy).unwrap();
    let b = evaluate_direct(&flock, &db2, JoinOrderStrategy::Greedy).unwrap();
    assert_eq!(a.tuples(), b.tuples());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sql_rendering_covers_paper_flocks() {
    let flock = QueryFlock::with_support(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        20,
    )
    .unwrap();
    let sql = to_sql(&flock).unwrap();
    assert!(sql.contains("GROUP BY"));
    assert!(sql.contains("HAVING"));

    let mut db = Database::new();
    db.insert(
        baskets::generate(&baskets::BasketConfig {
            n_baskets: 100,
            ..baskets::BasketConfig::default()
        })
        .baskets,
    );
    let plan = single_param_plan(&flock, &db).unwrap();
    let script = plan_to_sql(&plan).unwrap();
    assert!(script.contains("CREATE TABLE ok_1"));
    assert!(script.contains("CREATE TABLE ok_2"));
    assert!(script.contains("-- final step"));
}
