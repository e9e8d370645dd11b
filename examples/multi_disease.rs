//! Intermediate predicates: the multi-disease side-effects flock.
//!
//! Ex. 2.2 assumes one disease per patient and notes that handling
//! several diseases "would have to extend our query-flocks language to
//! allow intermediate predicates … That extension is feasible." This
//! example is that extension at work: a view `explained(P,S)` collects
//! the symptoms from *all* of a patient's diseases, and the flock
//! negates the view. Without it, Fig. 3's flock reports false
//! positives for comorbid patients.
//!
//! ```text
//! cargo run --example multi_disease
//! ```

use query_flocks::core::{
    evaluate_direct, ExecContext, FlockProgram, JoinOrderStrategy, Optimizer, QueryFlock,
};
use query_flocks::storage::{Database, Relation, Schema, Value};

fn main() {
    // 30 patients have BOTH flu and pox; pox causes their fever, flu
    // does not. 30 more have only flu and an unexplained ache.
    let mut diagnoses = Vec::new();
    let mut exhibits = Vec::new();
    let mut treatments = Vec::new();
    for p in 0..30i64 {
        diagnoses.push(vec![Value::int(p), Value::str("flu")]);
        diagnoses.push(vec![Value::int(p), Value::str("pox")]);
        exhibits.push(vec![Value::int(p), Value::str("fever")]);
        treatments.push(vec![Value::int(p), Value::str("zorix")]);
    }
    for p in 30..60i64 {
        diagnoses.push(vec![Value::int(p), Value::str("flu")]);
        exhibits.push(vec![Value::int(p), Value::str("ache")]);
        treatments.push(vec![Value::int(p), Value::str("zorix")]);
    }
    let mut db = Database::new();
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
        vec![vec![Value::str("pox"), Value::str("fever")]],
    ));

    // The Fig. 3 flock (one disease per patient assumed):
    let fig3 = QueryFlock::with_support(
        "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
         diagnoses(P,D) AND NOT causes(D,$s)",
        20,
    )
    .unwrap();
    let wrong = evaluate_direct(&fig3, &db, JoinOrderStrategy::Greedy).unwrap();
    println!("Fig. 3 flock (single-disease assumption) reports:");
    for t in wrong.iter() {
        let note = if t.get(1) == Value::str("fever") {
            "   <-- FALSE positive (explained by the second disease)"
        } else {
            ""
        };
        println!("  medicine={}  symptom={}{note}", t.get(0), t.get(1));
    }

    // The program with an intermediate predicate:
    let program = FlockProgram::parse(
        "explained(P,S) :- diagnoses(P,D) AND causes(D,S)
         QUERY:
         answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND NOT explained(P,$s)
         FILTER:
         COUNT(answer.P) >= 20",
    )
    .unwrap();
    let evaluation = program
        .evaluate_with(&db, &Optimizer::new(), &ExecContext::unbounded())
        .unwrap();
    println!(
        "\nWith the `explained` view (strategy: {}):",
        evaluation.strategy_used
    );
    for t in evaluation.result.iter() {
        println!("  medicine={}  symptom={}", t.get(0), t.get(1));
    }
}
