//! Governor acceptance tests: a deliberately explosive flock terminates
//! under every kind of budget, governed failures leave the catalog
//! untouched, and a fault at any operator
//! invocation propagates cleanly out of the pipeline.

use std::time::Duration;

use qf_core::{
    best_plan_with, evaluate_direct, evaluate_direct_with, evaluate_dynamic_with, DynamicConfig,
    EngineError, ExecContext, FlockError, JoinOrderStrategy, QueryFlock, Resource,
};
use qf_storage::{Database, Relation};

fn basket_config() -> qf_datagen::BasketConfig {
    qf_datagen::BasketConfig {
        n_baskets: 200,
        avg_basket_size: 6,
        n_items: 50,
        n_patterns: 5,
        avg_pattern_size: 3,
        pattern_prob: 0.8,
        seed: 7,
    }
}

/// A realistic basket workload from the synthetic generator.
fn basket_db() -> Database {
    let data = qf_datagen::baskets::generate(&basket_config());
    let mut db = Database::new();
    db.insert(data.baskets);
    db
}

/// A flock whose two subgoals share no variables: its direct plan is a
/// cross product of `baskets` with itself (~1.4M tuples on
/// [`basket_db`]) — the §4 blow-up the governor exists to survive.
fn explosive_flock() -> QueryFlock {
    QueryFlock::parse(
        "QUERY:
         answer(B,C) :- baskets(B,$1) AND baskets(C,$2)
         FILTER:
         COUNT(answer.B) >= 2",
    )
    .unwrap()
}

/// The paper's Fig. 2 pairs flock — small enough to finish, used where
/// a *successful* governed run is needed.
fn pairs_flock() -> QueryFlock {
    QueryFlock::parse(
        "QUERY:
         answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
         FILTER:
         COUNT(answer.B) >= 20",
    )
    .unwrap()
}

fn snapshot(db: &Database) -> Vec<(String, Relation)> {
    db.iter()
        .map(|r| (r.name().to_string(), r.clone()))
        .collect()
}

#[test]
fn explosive_flock_trips_row_budget() {
    let db = basket_db();
    let ctx = ExecContext::unbounded().with_max_rows(20_000);
    let err =
        evaluate_direct_with(&explosive_flock(), &db, JoinOrderStrategy::Greedy, &ctx).unwrap_err();
    assert!(
        matches!(
            err,
            FlockError::Engine(EngineError::ResourceExhausted {
                resource: Resource::Rows,
                limit: 20_000,
                ..
            })
        ),
        "{err:?}"
    );
}

#[test]
fn explosive_flock_trips_mem_budget() {
    let db = basket_db();
    let ctx = ExecContext::unbounded().with_mem_budget(1 << 20);
    let err =
        evaluate_direct_with(&explosive_flock(), &db, JoinOrderStrategy::Greedy, &ctx).unwrap_err();
    assert!(
        matches!(
            err,
            FlockError::Engine(EngineError::ResourceExhausted {
                resource: Resource::Memory,
                ..
            })
        ),
        "{err:?}"
    );
}

#[test]
fn explosive_flock_observes_expired_deadline() {
    let db = basket_db();
    let ctx = ExecContext::unbounded().with_timeout(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let err =
        evaluate_direct_with(&explosive_flock(), &db, JoinOrderStrategy::Greedy, &ctx).unwrap_err();
    assert!(
        matches!(
            err,
            FlockError::Engine(EngineError::ResourceExhausted {
                resource: Resource::Time,
                ..
            })
        ),
        "{err:?}"
    );
}

#[test]
fn cancellation_aborts_evaluation() {
    let db = basket_db();
    let ctx = ExecContext::unbounded();
    ctx.cancel_token().cancel();
    let err =
        evaluate_direct_with(&explosive_flock(), &db, JoinOrderStrategy::Greedy, &ctx).unwrap_err();
    assert_eq!(err, FlockError::Engine(EngineError::Cancelled));
}

#[test]
fn governed_failure_leaves_catalog_untouched() {
    let db = basket_db();
    let before = snapshot(&db);
    let ctx = ExecContext::unbounded().with_max_rows(5_000);
    evaluate_direct_with(&explosive_flock(), &db, JoinOrderStrategy::Greedy, &ctx).unwrap_err();
    assert_eq!(snapshot(&db), before);
}

#[test]
fn governed_success_matches_ungoverned() {
    let db = basket_db();
    let flock = pairs_flock();
    let free = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    let ctx = ExecContext::unbounded().with_max_rows(10_000_000);
    let governed = evaluate_direct_with(&flock, &db, JoinOrderStrategy::Greedy, &ctx).unwrap();
    assert_eq!(governed, free);
    let stats = ctx.stats();
    assert!(stats.rows > 0, "accounting should have charged rows");
    assert!(stats.bytes > 0);
}

#[test]
fn concurrent_execution_respects_row_budget() {
    // Workers charge the shared atomic counters before materializing,
    // so a multi-thread run still trips the budget; overshoot is
    // bounded by one in-flight charge per worker.
    let db = basket_db();
    let limit = 20_000u64;
    let ctx = ExecContext::unbounded()
        .with_threads(4)
        .with_max_rows(limit);
    let err =
        evaluate_direct_with(&explosive_flock(), &db, JoinOrderStrategy::Greedy, &ctx).unwrap_err();
    assert!(
        matches!(
            err,
            FlockError::Engine(EngineError::ResourceExhausted {
                resource: Resource::Rows,
                limit: 20_000,
                ..
            })
        ),
        "{err:?}"
    );
    let stats = ctx.stats();
    let workers = stats.workers.max(1);
    assert!(
        stats.rows <= limit + workers,
        "counted {} rows under a {limit}-row budget with {workers} workers",
        stats.rows
    );
}

#[test]
fn concurrent_success_matches_single_thread() {
    let db = basket_db();
    let flock = pairs_flock();
    let one = evaluate_direct_with(
        &flock,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded().with_threads(1),
    )
    .unwrap();
    let four = evaluate_direct_with(
        &flock,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded().with_threads(4),
    )
    .unwrap();
    assert_eq!(one, four);
}

#[test]
fn plan_search_timeout_degrades_to_static_heuristic() {
    let db = basket_db();
    let flock = pairs_flock();
    let ctx = ExecContext::unbounded().with_timeout(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    // Degrades instead of failing: the §4 static heuristic plan comes
    // back, with the abandonment recorded for the caller to surface.
    let (plan, _cost) = best_plan_with(&flock, &db, &ctx).unwrap();
    assert!(!plan.steps.is_empty());
    let stats = ctx.stats();
    assert!(
        stats.degradations.iter().any(|d| d.stage == "plan-search"),
        "{:?}",
        stats.degradations
    );
}

/// Fault-injection acceptance: fail the Nth operator invocation for
/// every N the pipeline reaches, proving each operator propagates a
/// mid-pipeline error without panicking and without touching the
/// catalog.
#[test]
fn every_operator_invocation_propagates_injected_faults() {
    let db = basket_db();
    let flock = pairs_flock();
    let before = snapshot(&db);
    let mut operators_hit = std::collections::BTreeSet::new();
    let mut n = 1u64;
    loop {
        let ctx = ExecContext::unbounded().with_fault_point(n);
        match evaluate_direct_with(&flock, &db, JoinOrderStrategy::Greedy, &ctx) {
            Err(FlockError::Engine(EngineError::FaultInjected {
                operator,
                invocation,
            })) => {
                assert_eq!(invocation, n);
                operators_hit.insert(operator);
            }
            // The fault point lies beyond the pipeline's total operator
            // count: the whole pipeline has been swept.
            Ok(result) => {
                assert!(!result.is_empty(), "pairs flock should find pairs");
                break;
            }
            Err(e) => panic!("fault at invocation {n} surfaced as unexpected error: {e}"),
        }
        assert_eq!(
            snapshot(&db),
            before,
            "fault at invocation {n} mutated the catalog"
        );
        n += 1;
        assert!(n < 1_000, "runaway: pipeline never completed");
    }
    assert!(n > 1, "pipeline should invoke at least one operator");
    assert!(
        operators_hit.len() >= 3,
        "expected faults across several distinct operators, got {operators_hit:?}"
    );
}

/// A SUM flock costs what the same-body COUNT flock costs: the §5
/// weight rule is checked inside the aggregate's fold, so neither the
/// direct plan nor the §4.4 walk runs its answer plan a second time
/// for it. On E7's weighted body (every weight ≥ 1) `SUM ≥ 1` and
/// `COUNT ≥ 1` keep every group, so the governor's row counts must
/// match exactly. The §4.4 walk counts assignments and may prune only
/// under a *monotone* COUNT filter, work a SUM walk never does; there
/// the like-for-like COUNT flock is `COUNT ≤ 10⁶`, which keeps every
/// group too and walks without decisions, as SUM does.
#[test]
fn sum_flock_costs_what_the_count_flock_costs() {
    let mut db = basket_db();
    db.insert(qf_datagen::baskets::importance(&basket_config(), 50));
    let rows = |filter: &str, dynamic: bool| {
        let flock = QueryFlock::parse(&format!(
            "QUERY:
             answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND importance(B,W)
             FILTER:
             {filter}"
        ))
        .unwrap();
        let ctx = ExecContext::unbounded();
        let result = if dynamic {
            evaluate_dynamic_with(&flock, &db, &DynamicConfig::default(), &ctx)
                .unwrap()
                .result
        } else {
            evaluate_direct_with(&flock, &db, JoinOrderStrategy::Greedy, &ctx).unwrap()
        };
        assert!(!result.is_empty(), "{filter}");
        ctx.stats().rows
    };
    let sum = "SUM(answer.W) >= 1";
    assert_eq!(
        rows(sum, false),
        rows("COUNT(answer.W) >= 1", false),
        "direct"
    );
    assert_eq!(
        rows(sum, true),
        rows("COUNT(answer.W) <= 1000000", true),
        "§4.4"
    );
}
