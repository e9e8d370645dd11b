//! The Ex. 2.2 medical-mining flock end to end: safe-subquery
//! enumeration (Ex. 3.2), the Fig. 5 static plan, cost-based plan
//! search, and the §4.4 dynamic evaluator with its decision trace.
//!
//! ```text
//! cargo run --release --example side_effects
//! ```

use query_flocks::core::{
    best_plan_with, evaluate_dynamic_with, execute_plan_with, DynamicConfig, ExecContext,
    JoinOrderStrategy, QueryFlock,
};
use query_flocks::datagen::medical::{self, MedicalConfig};
use query_flocks::datalog::subquery::safe_subqueries;

fn main() {
    let config = MedicalConfig {
        n_patients: 3000,
        rare_fraction: 0.4,
        ..MedicalConfig::default()
    };
    let data = medical::generate(&config);
    let flock = QueryFlock::parse(
        "QUERY:
         answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND
                      diagnoses(P,D) AND NOT causes(D,$s)
         FILTER:
         COUNT(answer.P) >= 20",
    )
    .unwrap();

    println!("The side-effects flock (Fig. 3):\n{flock}\n");

    // Ex. 3.2: which subgoal subsets are safe?
    let rule = flock.single_rule().unwrap();
    let subs = safe_subqueries(rule);
    println!("Safe subqueries ({} of 14 nontrivial subsets):", subs.len());
    for s in &subs {
        let params: Vec<String> = s.params().iter().map(|p| format!("${p}")).collect();
        println!("  [{:<6}] {}", params.join(","), s);
    }

    // Cost-based plan search over the legal plan space.
    let (plan, est_cost) = best_plan_with(&flock, &data.db, &ExecContext::unbounded()).unwrap();
    println!(
        "\nCost-based search chose ({} steps, estimated cost {:.0} tuples):\n{plan}\n",
        plan.len(),
        est_cost
    );
    let run = execute_plan_with(
        &plan,
        &data.db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    println!("Unexplained (medicine, symptom) pairs with support >= 20:");
    for t in run.result.iter() {
        println!("  medicine={}  symptom={}", t.get(0), t.get(1));
    }
    println!("(planted ground truth: {:?})", data.planted);

    // §4.4: the dynamic evaluator decides filters from observed sizes.
    let report = evaluate_dynamic_with(
        &flock,
        &data.db,
        &DynamicConfig::default(),
        &ExecContext::unbounded(),
    )
    .unwrap();
    assert_eq!(report.result.tuples(), run.result.tuples());
    println!("\nDynamic evaluation decisions (Ex. 4.4):");
    for d in &report.decisions {
        println!(
            "  after {:<28} tuples={:<7} assignments={:<6} ratio={:<8.2} {}",
            d.after_subgoal,
            d.tuples,
            d.assignments,
            d.ratio,
            if d.filtered {
                format!(
                    "FILTER → {} survive ({:?})",
                    d.survivors.unwrap_or(0),
                    d.reason
                )
            } else {
                format!("no filter ({:?})", d.reason)
            }
        );
    }
}
