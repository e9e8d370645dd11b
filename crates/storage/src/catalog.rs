//! The database catalog: named relations.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::spill::Fnv1a;

/// A database: a set of named relations.
///
/// Query flocks name their base data by predicate (`baskets`,
/// `exhibits`, …); evaluation resolves each predicate here. Derived
/// relations produced by `FILTER` steps (`okS`, `okM`, `temp1`, …) are
/// inserted alongside base relations during plan execution, exactly as
/// the paper's plans treat them ("Each step can use in subgoals any of
/// the relations that hold the data of the problem and any of the
/// relations about the parameters that were created by previous steps",
/// §4.1).
///
/// A `BTreeMap` keeps iteration order deterministic for tests and dumps.
///
/// Fingerprints ([`Database::fingerprint`], [`Database::fingerprint_of`])
/// fold each relation's [content hash](Relation::content_hash), which
/// the relation memoizes itself: a clone of the catalog shares every
/// relation and its hash, so after a mutation only the relations it
/// replaced are hashed again.
#[derive(Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Insert (or replace) a relation under its schema name.
    pub fn insert(&mut self, relation: Relation) {
        self.relations.insert(relation.name().to_string(), relation);
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| StorageError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// True if `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Remove a relation, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Content fingerprint of the whole catalog: the
    /// [fold](Database::fingerprint_of) over every relation's name.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_of(self.names())
    }

    /// Content fingerprint of the relations named `names`: each name's
    /// bytes, then its column names and content hash — or, for a name
    /// the catalog lacks, an absence marker, so a missing relation never
    /// folds like an empty one. Names are folded once each, in sorted
    /// order, so neither repetition nor iteration order perturbs it.
    /// Changes iff a named relation's presence, columns or tuples do;
    /// relations not named never enter it.
    pub fn fingerprint_of<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> u64 {
        let mut h = Fnv1a::new();
        for name in names.into_iter().collect::<BTreeSet<_>>() {
            h.write(name.as_bytes());
            // Neither marker byte occurs in UTF-8, so it ends the name.
            let Some(rel) = self.relations.get(name) else {
                h.write(&[0xfd]);
                continue;
            };
            h.write(&[0xff]);
            for c in rel.schema().columns() {
                h.write(c.as_bytes());
                h.write(&[0xfe]);
            }
            h.write(&rel.content_hash().to_le_bytes());
        }
        h.finish()
    }

    /// Names of all relations, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// All relations, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Database [{} relations]", self.relations.len())?;
        for r in self.relations.values() {
            writeln!(f, "  {} [{} tuples]", r.schema(), r.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn rel(name: &str, n: i64) -> Relation {
        Relation::from_rows(
            Schema::new(name, &["x"]),
            (0..n).map(|i| vec![Value::int(i)]).collect(),
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut db = Database::new();
        db.insert(rel("a", 3));
        db.insert(rel("b", 2));
        assert_eq!(db.get("a").unwrap().len(), 3);
        assert_eq!(db.len(), 2);
        assert_eq!(db.total_tuples(), 5);
        assert!(db.remove("a").is_some());
        assert!(db.get("a").is_err());
    }

    #[test]
    fn replace_overwrites() {
        let mut db = Database::new();
        db.insert(rel("a", 3));
        db.insert(rel("a", 5));
        assert_eq!(db.get("a").unwrap().len(), 5);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn fingerprint_is_content_determined() {
        let mut db = Database::new();
        db.insert(rel("a", 3));
        let fp1 = db.fingerprint();
        assert_eq!(db.fingerprint(), fp1, "stable between mutations");
        // A clone shares the relations and hashes identically.
        let clone = db.clone();
        assert_eq!(clone.fingerprint(), fp1);
        // Any mutation changes the fingerprint…
        db.insert(rel("b", 2));
        let fp2 = db.fingerprint();
        assert_ne!(fp1, fp2);
        db.remove("b");
        // …and removing what was added restores the original value
        // (content-determined, not history-determined).
        assert_eq!(db.fingerprint(), fp1);
        // Replacing a relation with different content changes it too.
        db.insert(rel("a", 5));
        assert_ne!(db.fingerprint(), fp1);
    }

    /// The whole-catalog fingerprint is stamped into every WAL record
    /// and reported to clients as `fp`: its bytes are pinned.
    #[test]
    fn whole_catalog_fingerprint_is_pinned() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["b", "i"]),
            vec![
                vec![Value::int(1), Value::str("beer")],
                vec![Value::int(1), Value::str("diapers")],
                vec![Value::int(2), Value::str("beer")],
            ],
        ));
        db.insert(rel("dict", 4));
        assert_eq!(db.fingerprint(), 0xce5e_30a8_070e_34ed);
        assert_eq!(db.fingerprint(), db.fingerprint_of(["dict", "baskets"]));
        assert_eq!(Database::new().fingerprint(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn subset_fold_follows_only_the_named_relations() {
        let mut db = Database::new();
        db.insert(rel("a", 3));
        db.insert(rel("b", 2));
        let of_a = db.fingerprint_of(["a"]);
        assert_eq!(db.fingerprint_of(["a", "a"]), of_a, "each name once");
        assert_eq!(
            db.fingerprint_of(["b", "a"]),
            db.fingerprint_of(["a", "b"]),
            "order-free"
        );
        // A change to an unnamed relation leaves the fold alone…
        db.insert(rel("b", 7));
        db.insert(rel("c", 1));
        assert_eq!(db.fingerprint_of(["a"]), of_a);
        // …a change to a named one moves it, and restoring the content
        // restores it.
        db.insert(rel("a", 4));
        assert_ne!(db.fingerprint_of(["a"]), of_a);
        db.insert(rel("a", 3));
        assert_eq!(db.fingerprint_of(["a"]), of_a);
        // An absent name folds unlike an empty relation of that name,
        // and unlike not naming it at all.
        let absent = db.fingerprint_of(["a", "z"]);
        db.insert(rel("z", 0));
        assert_ne!(db.fingerprint_of(["a", "z"]), absent);
        assert_ne!(absent, of_a);
        assert_ne!(
            db.fingerprint_of(["z"]),
            Database::new().fingerprint_of(["z"])
        );
    }

    #[test]
    fn names_sorted() {
        let mut db = Database::new();
        db.insert(rel("zeta", 1));
        db.insert(rel("alpha", 1));
        let names: Vec<&str> = db.names().collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
