//! # qf-storage — relational storage substrate
//!
//! The in-memory relational layer beneath the query-flocks system: values
//! with cheap interned symbols, tuples, set-semantics relations, schemas,
//! hash indexes, per-column statistics, and a named-relation catalog.
//!
//! The SIGMOD '98 query-flocks paper assumes "the data is stored in a
//! conventional relational system" (§1.4). This crate is that system,
//! pared down to what mining workloads need:
//!
//! * **Set semantics.** Extended conjunctive queries in the paper follow
//!   set semantics ("Some of our claims would not hold for bag
//!   semantics", §2.3), so [`Relation`] stores sorted, deduplicated
//!   tuples and every construction path deduplicates.
//! * **Column statistics.** The paper's plan search (§4) is driven by
//!   relation sizes and numbers of distinct parameter values;
//!   [`Relation::stats`] exposes cardinality and per-column distinct
//!   counts so the optimizer in `qf-engine`/`qf-core` can make the same
//!   decisions.
//! * **Cheap values.** Mining joins touch every tuple many times, so
//!   [`Value`] is a two-word `Copy` type; strings are interned once into
//!   [`Symbol`]s and compared as integers thereafter.
//!
//! ```
//! use qf_storage::{Database, Relation, Schema, Value};
//!
//! let mut db = Database::new();
//! let baskets = Relation::from_rows(
//!     Schema::new("baskets", &["bid", "item"]),
//!     vec![
//!         vec![Value::int(1), Value::str("beer")],
//!         vec![Value::int(1), Value::str("diapers")],
//!         vec![Value::int(2), Value::str("beer")],
//!     ],
//! );
//! db.insert(baskets);
//! assert_eq!(db.get("baskets").unwrap().len(), 3);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod cmp;
pub mod error;
pub mod hash;
pub mod index;
pub mod relation;
pub mod schema;
pub mod spill;
pub mod stats;
pub mod symbol;
pub mod tsv;
pub mod tuple;
pub mod value;
pub mod vfs;
pub mod wal;

pub use catalog::Database;
pub use cmp::CmpOp;
pub use error::{Result, StorageError};
pub use hash::{FastHasher, FastMap, FastSet};
pub use index::HashIndex;
pub use relation::{Relation, RelationBuilder};
pub use schema::Schema;
pub use spill::{Fnv1a, SpillDir, SpillFile, SpillReader, SpillWriter};
pub use stats::ColumnStats;
pub use symbol::Symbol;
pub use tuple::Tuple;
pub use value::Value;
pub use vfs::{
    real_fs, splitmix64, ChaosFs, ChaosStream, Fault, FaultSchedule, OpClass, RealFs, Sever, Vfs,
    VfsFile,
};
pub use wal::{acquire_pid_lock, process_alive, Wal, WalCounters, WalOptions, WalRecord, WalStats};
