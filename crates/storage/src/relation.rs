//! Set-semantics relations.

use std::sync::{Arc, OnceLock};

use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::spill::Fnv1a;
use crate::stats::RelationStats;
use crate::tuple::Tuple;
use crate::value::Value;

/// An immutable, set-semantics relation: a schema plus sorted,
/// deduplicated tuples.
///
/// The paper's extended conjunctive queries "follow the conventional set
/// semantics rather than bag semantics" (§2.3) — the a-priori upper-bound
/// argument is unsound under bags — so every relation in this system is a
/// set by construction. Sorted storage gives `O(log n)` membership,
/// cheap ordered iteration for merge joins, and canonical equality for
/// tests.
///
/// Statistics ([`Relation::stats`]) and the content hash
/// ([`Relation::content_hash`]) are computed once on first use and
/// cached; the optimizer and the catalog fingerprint consult them
/// freely.
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    tuples: Arc<[Tuple]>,
    memo: Arc<Memo>,
}

/// What a relation computes once from its tuples. Shared by clones and
/// [renames](Relation::renamed): neither changes the columns or tuples
/// either value is computed from.
#[derive(Default)]
struct Memo {
    stats: OnceLock<RelationStats>,
    content_hash: OnceLock<u64>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: Arc::from(Vec::new()),
            memo: Arc::default(),
        }
    }

    /// Build from rows, sorting and deduplicating.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch — use [`RelationBuilder`] (or
    /// [`Relation::try_from_rows`]) for fallible construction.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Relation {
        match Relation::try_from_rows(schema, rows) {
            Ok(rel) => rel,
            Err(e) => panic!("Relation::from_rows: {e}"),
        }
    }

    /// Fallible form of [`Relation::from_rows`]: an arity-mismatched
    /// row is an error instead of a panic.
    pub fn try_from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> crate::error::Result<Relation> {
        let mut b = RelationBuilder::new(schema);
        for row in rows {
            b.push_row(row)?;
        }
        Ok(b.finish())
    }

    /// Build from tuples already known to match the schema's arity;
    /// sorts and deduplicates.
    pub fn from_tuples(schema: Schema, mut tuples: Vec<Tuple>) -> Relation {
        debug_assert!(tuples.iter().all(|t| t.arity() == schema.arity()));
        tuples.sort_unstable();
        tuples.dedup();
        Relation {
            schema,
            tuples: Arc::from(tuples),
            memo: Arc::default(),
        }
    }

    /// Build from tuples the caller guarantees are already sorted and
    /// deduplicated (debug-checked). Used by merge-based operators to
    /// skip a redundant sort.
    pub fn from_sorted_dedup(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        debug_assert!(
            tuples.windows(2).all(|w| w[0] < w[1]),
            "tuples must be strictly sorted"
        );
        debug_assert!(tuples.iter().all(|t| t.arity() == schema.arity()));
        Relation {
            schema,
            tuples: Arc::from(tuples),
            memo: Arc::default(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Relation name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Sorted tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterate tuples in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// Set membership via binary search.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.binary_search(t).is_ok()
    }

    /// Cached statistics (cardinality, per-column distinct counts).
    pub fn stats(&self) -> &RelationStats {
        self.memo
            .stats
            .get_or_init(|| RelationStats::compute(&self.schema, &self.tuples))
    }

    /// Process-stable fingerprint of the schema and full content,
    /// computed once and cached. Two relations hash equal iff their
    /// column names, arity, and tuple sets are equal (the relation
    /// *name* is excluded so renames don't invalidate journals).
    pub fn content_hash(&self) -> u64 {
        *self.memo.content_hash.get_or_init(|| {
            let mut h = Fnv1a::new();
            h.write(&(self.schema.arity() as u64).to_le_bytes());
            for col in self.schema.columns() {
                h.write(col.as_bytes());
                h.write(&[0xff]);
            }
            h.write(&(self.len() as u64).to_le_bytes());
            for t in self.iter() {
                for &v in t.values() {
                    h.write_value(v);
                }
            }
            h.finish()
        })
    }

    /// Distinct count for one column (from cached stats).
    pub fn distinct(&self, col: usize) -> usize {
        self.stats().column(col).distinct
    }

    /// A copy renamed to `name`. Tuples (and cached stats and content
    /// hash) are shared — `Relation` clones are reference-count bumps,
    /// which is what lets `FILTER`-step outputs be inserted into the
    /// working database without copying data.
    pub fn renamed(&self, name: &str) -> Relation {
        Relation {
            schema: self.schema.renamed(name),
            tuples: Arc::clone(&self.tuples),
            memo: Arc::clone(&self.memo),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.tuples.len())?;
        const SHOW: usize = 20;
        for t in self.tuples.iter().take(SHOW) {
            writeln!(f, "  {t}")?;
        }
        if self.tuples.len() > SHOW {
            writeln!(f, "  … {} more", self.tuples.len() - SHOW)?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

/// Incremental relation constructor enforcing arity; sorts and
/// deduplicates once at [`finish`](RelationBuilder::finish).
pub struct RelationBuilder {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl RelationBuilder {
    /// Start building a relation with `schema`.
    pub fn new(schema: Schema) -> RelationBuilder {
        RelationBuilder {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Reserve capacity for `n` additional tuples.
    pub fn reserve(&mut self, n: usize) {
        self.tuples.reserve(n);
    }

    /// Append a row, checking arity against the schema.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.tuples.push(Tuple::from(row));
        Ok(())
    }

    /// Append an already-built tuple, checking arity.
    pub fn push(&mut self, t: Tuple) -> Result<()> {
        if t.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                got: t.arity(),
            });
        }
        self.tuples.push(t);
        Ok(())
    }

    /// Number of rows staged so far (before dedup).
    pub fn staged(&self) -> usize {
        self.tuples.len()
    }

    /// Sort, deduplicate, and produce the relation.
    pub fn finish(self) -> Relation {
        Relation::from_tuples(self.schema, self.tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[(i64, i64)]) -> Relation {
        Relation::from_rows(
            Schema::new("r", &["a", "b"]),
            rows.iter()
                .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
                .collect(),
        )
    }

    #[test]
    fn dedup_and_sort() {
        let r = rel(&[(2, 1), (1, 1), (2, 1), (1, 1)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0], Tuple::from([Value::int(1), Value::int(1)]));
    }

    #[test]
    fn contains_uses_set_membership() {
        let r = rel(&[(1, 2), (3, 4)]);
        assert!(r.contains(&Tuple::from([Value::int(3), Value::int(4)])));
        assert!(!r.contains(&Tuple::from([Value::int(3), Value::int(5)])));
    }

    #[test]
    fn builder_rejects_bad_arity() {
        let mut b = RelationBuilder::new(Schema::new("r", &["a", "b"]));
        let err = b.push_row(vec![Value::int(1)]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { got: 1, .. }));
    }

    #[test]
    fn stats_cached_and_correct() {
        let r = rel(&[(1, 10), (1, 20), (2, 10)]);
        assert_eq!(r.stats().cardinality, 3);
        assert_eq!(r.distinct(0), 2);
        assert_eq!(r.distinct(1), 2);
    }

    #[test]
    fn renamed_shares_tuples() {
        let r = rel(&[(1, 2)]);
        let s = r.renamed("s");
        assert_eq!(s.name(), "s");
        assert_eq!(s.tuples(), r.tuples());
    }

    #[test]
    fn clone_and_renamed_carry_the_hash_memo() {
        let r = rel(&[(1, 2), (3, 4)]);
        let hash = r.content_hash();
        for copy in [r.clone(), r.renamed("s")] {
            assert!(Arc::ptr_eq(&copy.memo, &r.memo));
            assert_eq!(copy.memo.content_hash.get(), Some(&hash));
        }
        // A relation built afresh from the same content starts with an
        // empty memo and hashes its own tuples to the same value.
        let fresh = rel(&[(3, 4), (1, 2)]);
        assert!(fresh.memo.content_hash.get().is_none());
        assert_eq!(fresh.content_hash(), hash);
        assert_ne!(rel(&[(1, 2)]).content_hash(), hash);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::new("e", &["x"]));
        assert!(r.is_empty());
        assert_eq!(r.stats().cardinality, 0);
    }
}
