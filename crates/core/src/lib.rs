//! # qf-core — query flocks and the generalized a-priori optimizer
//!
//! The paper's contribution: a **query flock** is a parametrized query
//! plus a filter over its result; its value is the set of parameter
//! assignments whose instantiated query passes the filter (§2). This
//! crate implements flocks end to end:
//!
//! * [`flock`] / [`filter`] — the flock type, the paper's
//!   `QUERY:`/`FILTER:` notation, support and monotone filters (§2, §5).
//! * [`compile`] — compilation of (unions of) extended conjunctive
//!   queries to relational plans over `qf-engine`.
//! * [`eval`] — the direct (Fig. 1-shaped) evaluator and the naive
//!   generate-and-test reference semantics.
//! * [`plan`] — `FILTER`-step query plans (§4.1) with the §4.2
//!   legality rule.
//! * [`exec`] — plan execution with per-step instrumentation.
//! * [`plangen`] — plan generators: the direct plan, per-parameter-set
//!   reductions (§4.3 heuristic 1, Fig. 5), prefix chains (Fig. 7),
//!   and bounded exhaustive cost-based search.
//! * [`dynamic`] — dynamic filter selection during join-tree execution
//!   (§4.4, Figs. 8–9).
//! * [`sql`] — SQL rendering of flocks and plans (Fig. 1).
//!
//! ## Quickstart
//!
//! ```
//! use qf_core::{evaluate_direct, JoinOrderStrategy, QueryFlock};
//! use qf_storage::{Database, Relation, Schema, Value};
//!
//! let mut db = Database::new();
//! db.insert(Relation::from_rows(
//!     Schema::new("baskets", &["bid", "item"]),
//!     vec![
//!         vec![Value::int(1), Value::str("beer")],
//!         vec![Value::int(1), Value::str("diapers")],
//!         vec![Value::int(2), Value::str("beer")],
//!         vec![Value::int(2), Value::str("diapers")],
//!     ],
//! ));
//! let flock = QueryFlock::parse(
//!     "QUERY:  answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
//!      FILTER: COUNT(answer.B) >= 2",
//! ).unwrap();
//! let result = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
//! assert_eq!(result.len(), 1); // {beer, diapers}
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod delta;
pub mod dynamic;
pub mod error;
pub mod eval;
pub mod exec;
pub mod filter;
pub mod flock;
pub mod journal;
pub mod optimizer;
pub mod plan;
pub mod plangen;
pub mod program;
pub mod shard;
pub mod sql;

pub use compile::{
    compile_answer, compile_rule, filter_answer_scored, CompiledRule, JoinOrderStrategy,
};
pub use delta::{DeltaApply, DeltaLimits, FlockDelta};
pub use dynamic::{
    evaluate_dynamic, evaluate_dynamic_with, DecisionReason, DynamicConfig, DynamicDecision,
    DynamicReport,
};
pub use error::{FlockError, Result};
pub use eval::{evaluate_direct, evaluate_direct_with, evaluate_naive, flock_result_from_scored};
pub use exec::{
    execute_plan, execute_plan_journaled, execute_plan_scored_on, execute_plan_scored_with,
    execute_plan_with, LocalEvaluator, PlanExecution, ScoredExecution, ScoredStep, StepEvaluator,
    StepReport,
};
pub use filter::{FilterAgg, FilterCondition};
pub use flock::QueryFlock;
pub use journal::{fingerprint_text, plan_fingerprint, RunJournal};
pub use optimizer::{Evaluation, Optimizer, OptimizerConfig, Strategy};
pub use plan::{FilterStep, QueryPlan};
pub use plangen::{
    best_plan, best_plan_with, chain_plan, direct_plan, enumerate_plans, estimate_plan_cost,
    estimate_plan_report, param_set_plan, single_param_plan, PlanCostReport, StepEstimate,
};
pub use program::FlockProgram;
pub use shard::{
    evaluate_scored_partial, is_vacuous, merge_scored_partials, partial_flock, partition_database,
    partition_relation, replica_workers, scored_schema, shard_key_pos, shard_of, shardable_program,
    stable_value_hash, vacuous_filter, worker_fragments,
};
pub use sql::{plan_to_sql, to_sql};
// Governor types, re-exported so downstream crates can budget flock
// evaluation without depending on qf-engine directly.
pub use qf_engine::{
    default_threads, env_mem_budget, CancelToken, Degradation, EngineError, ExecContext, ExecStats,
    Resource,
};
