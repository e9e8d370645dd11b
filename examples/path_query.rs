//! The Ex. 4.3 "pathological" path flock and its Fig. 7 chain plan:
//! the example showing the space of useful plans is not even
//! exponentially bounded.
//!
//! ```text
//! cargo run --release --example path_query
//! ```

use query_flocks::core::{
    chain_plan, evaluate_direct, execute_plan_with, ExecContext, JoinOrderStrategy, QueryFlock,
};
use query_flocks::datagen::graph::{self, GraphConfig};
use query_flocks::storage::Database;

fn main() {
    let mut db = Database::new();
    db.insert(graph::generate(&GraphConfig {
        n_nodes: 2000,
        n_random_arcs: 5000,
        n_hubs: 6,
        hub_degree: 30,
        chain_len: 6,
        seed: 7,
    }));
    println!(
        "graph: {} arcs; flock: nodes with >= 20 successors that extend a path\n",
        db.get("arc").unwrap().len()
    );

    for n in 1..=4usize {
        // Fig. 6: answer(X) :- arc($1,X) AND arc(X,Y1) AND … arc(Y_{n-1},Yn)
        let mut body = vec!["arc($1,X)".to_string()];
        let mut prev = "X".to_string();
        for i in 1..=n {
            body.push(format!("arc({prev},Y{i})"));
            prev = format!("Y{i}");
        }
        let flock =
            QueryFlock::with_support(&format!("answer(X) :- {}", body.join(" AND ")), 20).unwrap();

        let start = std::time::Instant::now();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::AsWritten).unwrap();
        let direct_t = start.elapsed();

        let plan = chain_plan(&flock).unwrap();
        let start = std::time::Instant::now();
        let chained = execute_plan_with(
            &plan,
            &db,
            JoinOrderStrategy::AsWritten,
            &ExecContext::unbounded(),
        )
        .unwrap();
        let chain_t = start.elapsed();
        assert_eq!(direct.tuples(), chained.result.tuples());

        println!(
            "n={n}: {} qualifying nodes | direct {:?} | {}-step chain {:?} ({:.1}x)",
            direct.len(),
            direct_t,
            plan.len(),
            chain_t,
            direct_t.as_secs_f64() / chain_t.as_secs_f64().max(1e-9)
        );
        if n == 2 {
            println!("\nThe Fig. 7 chain plan at n=2:\n{plan}\n");
        }
    }
}
