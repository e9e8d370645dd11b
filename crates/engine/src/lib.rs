//! # qf-engine — relational operators, statistics, cost model
//!
//! The query-evaluation layer of the query-flocks system: physical plan
//! trees over [`qf_storage`] relations, an executor, Selinger-style
//! cardinality estimation, a tuple-count cost model, and join-order
//! search.
//!
//! The SIGMOD '98 paper deliberately stops above this layer — it assumes
//! a relational engine exists and asks how flock-level rewrites should
//! drive it ("the general theory of cost-based optimization \[G*79\]
//! applies here", §4.2). This crate supplies that engine:
//!
//! * **Operators** ([`plan`], [`exec`]): scan, select, project (with
//!   set-semantics dedup), hash equi-join (sort-merge on leading keys,
//!   [`merge`]), antijoin (for `NOT` subgoals), union, and grouped
//!   aggregation (`COUNT`/`SUM`/`MIN`/`MAX`) — everything a union of
//!   extended conjunctive queries with a support filter compiles to.
//!   One operator tree interprets them, in memory or out of core: each
//!   operator's output goes through a sink that spills sorted runs
//!   under memory pressure, and the join and group-by states
//!   Grace-partition (`spill`).
//! * **Estimation** ([`mod@estimate`]): cardinality and per-column distinct
//!   estimates under the classical uniformity/independence assumptions,
//!   the inputs the paper's static plan search needs.
//! * **Cost** ([`mod@cost`]): the C_out model — total tuples materialized —
//!   which is the quantity the paper reasons about throughout §4.
//! * **Join ordering** ([`joinorder`]): greedy and dynamic-programming
//!   left-deep orderings over a join graph; §4.4's dynamic strategy
//!   "start\[s\] by choosing a join order", and this is the chooser.
//!
//! ```
//! use qf_engine::{execute, PhysicalPlan};
//! use qf_storage::{Database, Relation, Schema, Value};
//!
//! let mut db = Database::new();
//! db.insert(Relation::from_rows(
//!     Schema::new("arc", &["src", "dst"]),
//!     vec![
//!         vec![Value::int(1), Value::int(2)],
//!         vec![Value::int(2), Value::int(3)],
//!     ],
//! ));
//! // arc ⋈ arc on dst = src: paths of length 2.
//! let plan = PhysicalPlan::hash_join(
//!     PhysicalPlan::scan("arc"),
//!     PhysicalPlan::scan("arc"),
//!     vec![(1, 0)],
//! );
//! let paths = execute(&plan, &db).unwrap();
//! assert_eq!(paths.len(), 1); // 1 → 2 → 3
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod delta;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod expr;
pub mod governor;
pub mod joinorder;
pub mod merge;
pub mod parallel;
pub mod partial;
pub mod plan;
mod spill;

pub use cost::{cost, cost_with};
pub use delta::{GroupAggView, RECHECK_BOUND};
pub use error::{EngineError, Result};
pub use estimate::{estimate, estimate_with, Estimate, MapStats, StatsSource};
pub use exec::{execute, execute_with};
pub use expr::{CmpOp, Operand, Predicate};
pub use governor::{
    env_mem_budget, row_cost, CancelToken, Degradation, ExecContext, ExecStats, Resource,
};
pub use joinorder::{order_greedy, order_optimal_dp, JoinGraph, JoinNode};
pub use merge::{join_auto, join_auto_with, merge_join, merge_join_with, merge_joinable};
pub use parallel::{default_threads, par_chunks, par_items, workers_for};
pub use partial::{merge_partials, MergeOp};
pub use plan::{AggFn, PhysicalPlan};
