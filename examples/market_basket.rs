//! Market-basket mining end to end on a generated Quest-style workload:
//! the Fig. 2 flock, the a-priori plan, the classic levelwise miner,
//! and §1.1's association measures.
//!
//! ```text
//! cargo run --release --example market_basket
//! ```

use query_flocks::core::{
    evaluate_direct, execute_plan_with, single_param_plan, ExecContext, JoinOrderStrategy,
    QueryFlock,
};
use query_flocks::datagen::baskets::{self, BasketConfig};
use query_flocks::mine::{generate_rules, mine_apriori, mine_flockwise_with};
use query_flocks::storage::Database;

fn main() {
    let config = BasketConfig {
        n_baskets: 2000,
        avg_basket_size: 8,
        n_items: 400,
        n_patterns: 15,
        ..BasketConfig::default()
    };
    let data = baskets::generate(&config);
    let mut db = Database::new();
    db.insert(data.baskets.clone());
    let threshold = 25i64;

    println!(
        "workload: {} baskets, {} distinct items, support threshold {}",
        config.n_baskets,
        data.baskets.distinct(1),
        threshold
    );

    // 1. The pair flock, direct vs. planned.
    let flock = QueryFlock::with_support(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        threshold,
    )
    .unwrap();
    let start = std::time::Instant::now();
    let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    let direct_t = start.elapsed();

    let plan = single_param_plan(&flock, &db).unwrap();
    let start = std::time::Instant::now();
    let planned = execute_plan_with(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    let plan_t = start.elapsed();
    assert_eq!(direct.tuples(), planned.result.tuples());

    println!(
        "\nfrequent pairs: {} (direct {:?}, a-priori plan {:?})",
        direct.len(),
        direct_t,
        plan_t
    );
    for step in &planned.steps {
        println!(
            "  step {:<18} answers={:<7} groups={:<6} survivors={:<6} ({:.0}% eliminated)",
            step.name,
            step.answer_tuples,
            step.groups,
            step.survivors,
            step.elimination_rate() * 100.0
        );
    }

    // 2. Levelwise itemsets via flocks, checked against the classic miner.
    let levels = mine_flockwise_with(&db, threshold, 3, &ExecContext::unbounded()).unwrap();
    let txns: Vec<Vec<u32>> = data
        .transactions
        .iter()
        .map(|t| t.iter().map(|&i| i as u32).collect())
        .collect();
    let classic = mine_apriori(&txns, threshold as u64, 3);
    println!("\nlevelwise frequent itemsets (flocks vs classic):");
    for (k, rel) in levels.iter().enumerate() {
        println!(
            "  k={}: {} itemsets (classic: {})",
            k + 1,
            rel.len(),
            classic.frequent_k(k + 1).len()
        );
    }

    // 3. Association rules with support / confidence / interest (§1.1).
    let rules = generate_rules(&classic, 0.7);
    println!("\ntop rules by confidence:");
    for r in rules.iter().take(8) {
        let ante: Vec<String> = r
            .antecedent
            .iter()
            .map(|&i| baskets::item_name(i as usize))
            .collect();
        println!(
            "  {{{}}} -> {}  supp={:.3} conf={:.2} interest={:.1}",
            ante.join(","),
            baskets::item_name(r.consequent as usize),
            r.support,
            r.confidence,
            r.interest
        );
    }
}
