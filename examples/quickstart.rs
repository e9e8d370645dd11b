//! Quickstart: define a query flock in the paper's notation, evaluate
//! it, and look at the machinery underneath.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use query_flocks::core::{
    evaluate_direct, single_param_plan, to_sql, ExecContext, JoinOrderStrategy, Optimizer,
    QueryFlock,
};
use query_flocks::storage::{Database, Relation, Schema, Value};

fn main() {
    // A tiny market-basket database: who bought what.
    let mut db = Database::new();
    let rows = [
        (1, "beer"),
        (1, "diapers"),
        (1, "chips"),
        (2, "beer"),
        (2, "diapers"),
        (3, "beer"),
        (3, "diapers"),
        (3, "relish"),
        (4, "beer"),
        (5, "chips"),
        (5, "relish"),
    ];
    db.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        rows.iter()
            .map(|&(b, i)| vec![Value::int(b), Value::str(i)])
            .collect(),
    ));

    // Fig. 2 of the paper, with a threshold suiting the tiny data: find
    // item pairs appearing together in at least 3 baskets.
    let flock = QueryFlock::parse(
        "QUERY:
         answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
         FILTER:
         COUNT(answer.B) >= 3",
    )
    .expect("valid flock");

    println!("The flock, as the paper writes it:\n{flock}\n");
    println!("…and as SQL (Fig. 1):\n{}\n", to_sql(&flock).unwrap());

    // Evaluate directly: one join-group-filter plan.
    let result = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    println!("Flock result (parameter assignments):");
    for t in result.iter() {
        println!("  $1 = {}, $2 = {}", t.get(0), t.get(1));
    }

    // The generalized a-priori plan the optimizer would pick instead.
    let plan = single_param_plan(&flock, &db).unwrap();
    println!("\nThe a-priori query plan (Fig. 5 notation):\n{plan}");

    // Or let the optimizer choose a strategy end to end.
    let evaluation = Optimizer::new()
        .evaluate_with(&flock, &db, &ExecContext::unbounded())
        .unwrap();
    println!(
        "\nOptimizer used `{}` and found {} pair(s).",
        evaluation.strategy_used,
        evaluation.result.len()
    );
}
