//! The Ex. 2.3 strongly-connected-words flock: a union of three
//! extended conjunctive queries over an HTML corpus, optimized with the
//! §3.4 union-of-subqueries prefilter.
//!
//! ```text
//! cargo run --release --example web_words
//! ```

use std::collections::BTreeSet;

use query_flocks::core::{
    evaluate_direct, execute_plan_with, param_set_plan, ExecContext, JoinOrderStrategy, QueryFlock,
};
use query_flocks::datagen::web::{self, WebConfig};
use query_flocks::storage::Symbol;

fn main() {
    let data = web::generate(&WebConfig {
        n_docs: 1500,
        n_anchors: 3000,
        vocabulary: 4000,
        ..WebConfig::default()
    });
    let flock = QueryFlock::parse(
        "QUERY:
         answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
         FILTER:
         COUNT(answer(*)) >= 20",
    )
    .unwrap();

    println!("The Fig. 4 union flock:\n{flock}\n");

    let start = std::time::Instant::now();
    let direct = evaluate_direct(&flock, &data.db, JoinOrderStrategy::Greedy).unwrap();
    let direct_t = start.elapsed();

    // Ex. 3.3: prefilter each word parameter with the union of the three
    // per-branch safe subqueries (title count + anchor count +
    // anchor-target count must jointly reach support).
    let p1: BTreeSet<Symbol> = [Symbol::intern("1")].into_iter().collect();
    let p2: BTreeSet<Symbol> = [Symbol::intern("2")].into_iter().collect();
    let plan = param_set_plan(&flock, &data.db, &[p1, p2]).unwrap();
    println!("Union-prefilter plan:\n{plan}\n");

    let start = std::time::Instant::now();
    let planned = execute_plan_with(
        &plan,
        &data.db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    let plan_t = start.elapsed();
    assert_eq!(direct.tuples(), planned.result.tuples());

    println!(
        "strongly connected word pairs: {} (direct {:?}, prefiltered {:?})",
        direct.len(),
        direct_t,
        plan_t
    );
    for t in direct.iter().take(15) {
        println!("  {} ~ {}", t.get(0), t.get(1));
    }
    println!("(planted ground truth: {:?})", data.planted);
}
