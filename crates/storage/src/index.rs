//! Hash indexes over relations.

use crate::hash::FastMap;
use crate::relation::Relation;
use crate::tuple::Tuple;

/// A hash index mapping a key (projection of a tuple onto chosen
/// columns) to the row ids of matching tuples.
///
/// Built on demand by join operators; the build side of every hash join
/// is a `HashIndex`. Row ids index into the indexed relation's sorted
/// tuple array, so probes return tuples in deterministic order.
pub struct HashIndex {
    key_cols: Vec<usize>,
    map: FastMap<Tuple, Vec<u32>>,
}

impl HashIndex {
    /// Build an index on `relation` keyed by `key_cols`.
    ///
    /// Panics if any key column is out of range for the schema (indexes
    /// are built by the engine from resolved plans, so this is a logic
    /// error, not input error).
    pub fn build(relation: &Relation, key_cols: &[usize]) -> HashIndex {
        assert!(
            key_cols.iter().all(|&c| c < relation.schema().arity()),
            "index key column out of range"
        );
        let mut map: FastMap<Tuple, Vec<u32>> = FastMap::default();
        for (i, t) in relation.iter().enumerate() {
            map.entry(t.project(key_cols)).or_default().push(i as u32);
        }
        HashIndex {
            key_cols: key_cols.to_vec(),
            map,
        }
    }

    /// The columns this index is keyed on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Row ids whose key equals `key` (empty if none).
    pub fn probe(&self, key: &Tuple) -> &[u32] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if any tuple has this key (semi/antijoin probes).
    pub fn contains_key(&self, key: &Tuple) -> bool {
        self.map.contains_key(key)
    }

    /// Iterate `(key, row-ids)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &[u32])> {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn sample() -> Relation {
        Relation::from_rows(
            Schema::new("r", &["a", "b"]),
            vec![
                vec![Value::int(1), Value::str("x")],
                vec![Value::int(1), Value::str("y")],
                vec![Value::int(2), Value::str("x")],
            ],
        )
    }

    #[test]
    fn probe_finds_all_matches() {
        let r = sample();
        let idx = HashIndex::build(&r, &[0]);
        let rows = idx.probe(&Tuple::from([Value::int(1)]));
        assert_eq!(rows.len(), 2);
        for &row in rows {
            assert_eq!(r.tuples()[row as usize].get(0), Value::int(1));
        }
        assert!(idx.probe(&Tuple::from([Value::int(9)])).is_empty());
    }

    #[test]
    fn composite_key() {
        let r = sample();
        let idx = HashIndex::build(&r, &[0, 1]);
        assert_eq!(idx.map.len(), 3);
        assert!(idx.contains_key(&Tuple::from([Value::int(2), Value::str("x")])));
        assert!(!idx.contains_key(&Tuple::from([Value::int(2), Value::str("y")])));
    }

    #[test]
    fn empty_key_groups_everything() {
        let r = sample();
        let idx = HashIndex::build(&r, &[]);
        assert_eq!(idx.map.len(), 1);
        assert_eq!(idx.probe(&Tuple::from([])).len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_panics() {
        HashIndex::build(&sample(), &[5]);
    }
}
