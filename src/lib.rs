//! # query-flocks
//!
//! Facade crate for the query-flocks workspace: a full reproduction of
//! *"Query Flocks: A Generalization of Association-Rule Mining"*
//! (Tsur, Ullman, Abiteboul, Clifton, Motwani, Nestorov, Rosenthal —
//! SIGMOD 1998).
//!
//! Re-exports the component crates under stable module names; see each
//! crate for its own documentation:
//!
//! * [`storage`] — in-memory relational substrate
//! * [`engine`] — relational operators, statistics, cost model
//! * [`datalog`] — Datalog AST, parser, safety, containment
//! * [`core`] — query flocks, plans, the generalized a-priori optimizer
//! * [`mine`] — classic a-priori association-rule mining baseline
//! * [`datagen`] — synthetic workload generators
//!
//! ## Example
//!
//! ```
//! use query_flocks::core::{ExecContext, Optimizer, QueryFlock};
//! use query_flocks::storage::{Database, Relation, Schema, Value};
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
//!
//! // Fig. 2 of the paper, in its own notation.
//! let flock = QueryFlock::parse(
//!     "QUERY:
//!      answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
//!      FILTER:
//!      COUNT(answer.B) >= 2",
//! )?;
//!
//! // The optimizer picks a strategy (here: §4.4 dynamic evaluation)
//! // and runs it under the context's budgets (here: none).
//! let ctx = ExecContext::unbounded();
//! let evaluation = Optimizer::new().evaluate_with(&flock, &db, &ctx)?;
//! assert_eq!(evaluation.result.len(), 1); // {beer, diapers}
//! # Ok::<(), query_flocks::core::FlockError>(())
//! ```

pub use qf_core as core;
pub use qf_datagen as datagen;
pub use qf_datalog as datalog;
pub use qf_engine as engine;
pub use qf_mine as mine;
pub use qf_storage as storage;
