//! Joins: the sort-merge fast path and the one hash join.
//!
//! The engine's relations are stored sorted by full tuple, so a join
//! whose keys are the **leading columns of both sides** can skip hash
//! tables entirely and merge the two sorted runs. Mining plans hit this
//! case constantly — `FILTER`-step outputs are keyed by their parameter
//! columns, which are the leading columns by construction — and the
//! merge path avoids the build table.
//!
//! Everything else is the hash join, whose build-index-and-probe loop
//! is written once (`Exec::join_slice`): index the smaller side,
//! drive the other side's rows through the probe kernel into the
//! operator's sink. The executor's `HashJoin` operator, each
//! co-partitioned slice of an out-of-core Grace join, and the public
//! [`join_auto_with`] (the same kernel collecting into a `Relation`)
//! all run it; which route the probe rows take — parallel workers or a
//! single producer through a flush-capable sink — is the
//! `Exec`'s, not the join's.

use std::cmp::Ordering;

use qf_storage::{HashIndex, Relation, Schema, Tuple};

use crate::error::Result;
use crate::exec::{check_join_keys, Exec};
use crate::governor::{row_cost, ExecContext};
use crate::spill::{release_rel, Grace, OpOut, Sink};

/// True if `keys` are exactly the leading columns of both inputs, in
/// order — the precondition under which sorted-run merging is correct
/// (relations are sorted by full tuple, so they are sorted by any
/// leading-column prefix).
pub fn merge_joinable(keys: &[(usize, usize)]) -> bool {
    keys.iter().enumerate().all(|(i, &(l, r))| l == i && r == i)
}

/// Sort-merge join on the leading `n_keys` columns of both inputs,
/// governed by `ctx`. Output is `left ++ right`, sorted and
/// deduplicated.
///
/// `n_keys` exceeding either input's arity is
/// [`crate::EngineError::ColumnOutOfRange`]. (That the inputs are sorted
/// on those leading columns is guaranteed by `Relation`'s
/// sorted-by-full-tuple invariant.)
pub fn merge_join_with(
    left: &Relation,
    right: &Relation,
    n_keys: usize,
    ctx: &ExecContext,
) -> Result<Relation> {
    let keys: Vec<(usize, usize)> = (0..n_keys).map(|k| (k, k)).collect();
    check_join_keys(
        &keys,
        left.schema().arity(),
        right.schema().arity(),
        "MergeJoin",
    )?;
    let schema = concat_schema(left.schema(), right.schema());
    let mut sink = Exec::collecting(ctx).sink("join", schema.arity());
    merge_into(left, right, n_keys, ctx, &mut sink)?;
    sink.finish(schema, false)?.load(ctx)
}

/// Merge two sorted relations on their leading `n_keys` columns
/// (`n_keys` within both arities), emitting `left ++ right` rows.
fn merge_into(
    left: &Relation,
    right: &Relation,
    n_keys: usize,
    ctx: &ExecContext,
    sink: &mut Sink<'_>,
) -> Result<()> {
    debug_assert!(
        left.tuples().windows(2).all(|w| w[0] <= w[1])
            && right.tuples().windows(2).all(|w| w[0] <= w[1]),
        "merge_join inputs must be sorted"
    );
    let lt = left.tuples();
    let rt = right.tuples();
    let (mut i, mut j) = (0usize, 0usize);
    let key_cmp = |a: &Tuple, b: &Tuple| -> Ordering {
        for k in 0..n_keys {
            match a.get(k).cmp(&b.get(k)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    };
    while i < lt.len() && j < rt.len() {
        ctx.tick()?;
        match key_cmp(&lt[i], &rt[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find both runs of equal keys and emit the product.
                // (Left-major order, but concatenated tuples within a
                // run may interleave, so the sink still canonicalizes.)
                let i_end = run_end(lt, i, n_keys);
                let j_end = run_end(rt, j, n_keys);
                for a in &lt[i..i_end] {
                    for b in &rt[j..j_end] {
                        sink.push(a.concat(b))?;
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(())
}

/// Ungoverned [`merge_join_with`] (unbounded context).
pub fn merge_join(left: &Relation, right: &Relation, n_keys: usize) -> Result<Relation> {
    merge_join_with(left, right, n_keys, &ExecContext::unbounded())
}

/// End of the run of tuples sharing `t[start]`'s leading `n_keys` values.
fn run_end(tuples: &[Tuple], start: usize, n_keys: usize) -> usize {
    let mut end = start + 1;
    while end < tuples.len() && (0..n_keys).all(|k| tuples[end].get(k) == tuples[start].get(k)) {
        end += 1;
    }
    end
}

/// Join two materialized relations under `ctx`, choosing merge when the
/// key layout permits, hash otherwise. The hash path builds its table
/// on the **smaller** input and probes the larger one with up to
/// [`ExecContext::threads`] workers. Output is `left ++ right`, sorted
/// and deduplicated, identical regardless of path or build side. Always
/// collects in memory: the result is a `Relation` either way.
pub fn join_auto_with(
    left: &Relation,
    right: &Relation,
    keys: &[(usize, usize)],
    ctx: &ExecContext,
) -> Result<Relation> {
    check_join_keys(
        keys,
        left.schema().arity(),
        right.schema().arity(),
        "HashJoin",
    )?;
    // The caller's relations: borrowed for the join, not consumed.
    let (l, r) = (OpOut::Mem(left.clone()), OpOut::Mem(right.clone()));
    let schema = concat_schema(left.schema(), right.schema());
    let exec = Exec::collecting(ctx);
    let mut sink = exec.sink("join", schema.arity());
    exec.join_pair(&l, &r, keys, &mut sink)?;
    sink.finish(schema, false)?.load(ctx)
}

/// Ungoverned [`join_auto_with`] (unbounded context).
pub fn join_auto(left: &Relation, right: &Relation, keys: &[(usize, usize)]) -> Result<Relation> {
    join_auto_with(left, right, keys, &ExecContext::unbounded())
}

impl Exec<'_> {
    /// The `HashJoin` operator over validated `keys`, consuming both
    /// inputs: Grace partitioning when one arrives spilled, else one
    /// in-place join of the pair.
    pub(crate) fn join(&self, l: OpOut, r: OpOut, keys: &[(usize, usize)]) -> Result<OpOut> {
        let schema = concat_schema(l.schema(), r.schema());
        let mut sink = self.sink("join", schema.arity());
        match &self.spill {
            // Partitioning by an empty key cannot split a cross product.
            Some(dir) if !keys.is_empty() && (l.is_spilled() || r.is_spilled()) => {
                let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
                Grace {
                    ctx: self.ctx,
                    dir,
                    inputs: &[("jpart-l", &lk), ("jpart-r", &rk)],
                    // The build side: the smaller partition of the pair.
                    state_bytes: &|slice| {
                        slice
                            .iter()
                            .min_by_key(|p| p.rows_hint())
                            .map_or(0, |p| p.rows_hint() * row_cost(p.arity()))
                    },
                    kernel: &mut |slice, sink| match slice {
                        [l, r] => self.join_slice(l, r, keys, sink),
                        _ => Ok(()),
                    },
                }
                .split(vec![l, r], 0, &mut sink)?
            }
            _ => {
                self.join_pair(&l, &r, keys, &mut sink)?;
                l.release(self.ctx);
                r.release(self.ctx);
            }
        }
        sink.finish(schema, false)
    }

    /// Join one pair of inputs into `sink`: the merge fast path when
    /// both are resident and keyed on their leading columns, else the
    /// hash join.
    fn join_pair(
        &self,
        l: &OpOut,
        r: &OpOut,
        keys: &[(usize, usize)],
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        match (l, r) {
            (OpOut::Mem(l), OpOut::Mem(r)) if !keys.is_empty() && merge_joinable(keys) => {
                merge_into(l, r, keys.len(), self.ctx, sink)
            }
            _ => self.join_slice(l, r, keys, sink),
        }
    }

    /// The hash join's build-index-and-probe loop: hold the smaller
    /// side resident (the build table is the O(n) memory cost, the
    /// probe side only streams), index it by key, and drive the other
    /// side's rows through the probe into `sink`.
    fn join_slice(
        &self,
        l: &OpOut,
        r: &OpOut,
        keys: &[(usize, usize)],
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        let ctx = self.ctx;
        let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
        let build_left = l.rows_hint() < r.rows_hint();
        let (build, build_keys, probe, probe_keys) = if build_left {
            (l, lk, r, rk)
        } else {
            (r, rk, l, lk)
        };
        let build_rel = build.load(ctx)?;
        let idx = HashIndex::build(&build_rel, &build_keys);
        self.drive(probe, sink, false, |t, out| {
            ctx.tick()?;
            for &row in idx.probe(&t.project(&probe_keys)) {
                let bt = &build_rel.tuples()[row as usize];
                // Output columns are always left ++ right, whichever
                // side was built.
                out.push(if build_left {
                    bt.concat(t)
                } else {
                    t.concat(bt)
                })?;
            }
            Ok(())
        })?;
        if build.is_spilled() {
            // The loaded copy was charged here; a resident input is
            // released by whoever consumed it.
            release_rel(ctx, &build_rel);
        }
        Ok(())
    }
}

fn concat_schema(l: &Schema, r: &Schema) -> Schema {
    let mut names: Vec<String> = l.columns().to_vec();
    names.extend(r.columns().iter().cloned());
    Schema::from_columns("join", names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_storage::Value;

    fn rel(name: &str, rows: &[(i64, i64)]) -> Relation {
        Relation::from_rows(
            Schema::new(name, &["a", "b"]),
            rows.iter()
                .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
                .collect(),
        )
    }

    #[test]
    fn merge_equals_hash_on_leading_keys() {
        let l = rel("l", &[(1, 10), (1, 11), (2, 20), (3, 30)]);
        let r = rel("r", &[(1, 100), (2, 200), (2, 201), (4, 400)]);
        let merged = merge_join(&l, &r, 1).unwrap();
        let hashed = join_auto(&l, &r, &[(0, 1)]).unwrap(); // not merge-joinable layout
                                                            // Compare against hash join on the same (leading) keys.
        let hashed_same = {
            let (lk, rk) = (vec![0], vec![0]);
            let idx = HashIndex::build(&r, &rk);
            let mut out = Vec::new();
            for a in l.iter() {
                for &row in idx.probe(&a.project(&lk)) {
                    out.push(a.concat(&r.tuples()[row as usize]));
                }
            }
            Relation::from_tuples(merged.schema().clone(), out)
        };
        assert_eq!(merged.tuples(), hashed_same.tuples());
        assert_eq!(merged.len(), 2 + 2); // key 1: 2×1, key 2: 1×2
        let _ = hashed;
    }

    #[test]
    fn composite_leading_keys() {
        let l = rel("l", &[(1, 10), (1, 11), (2, 10)]);
        let r = rel("r", &[(1, 10), (1, 11), (2, 11)]);
        let merged = merge_join(&l, &r, 2).unwrap();
        assert_eq!(merged.len(), 2); // (1,10) and (1,11) match exactly.
        for t in merged.iter() {
            assert_eq!(t.get(0), t.get(2));
            assert_eq!(t.get(1), t.get(3));
        }
    }

    #[test]
    fn zero_key_merge_is_cross_product_via_auto() {
        let l = rel("l", &[(1, 1), (2, 2)]);
        let r = rel("r", &[(3, 3)]);
        let j = join_auto(&l, &r, &[]).unwrap();
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn joinable_predicate() {
        assert!(merge_joinable(&[(0, 0)]));
        assert!(merge_joinable(&[(0, 0), (1, 1)]));
        assert!(!merge_joinable(&[(1, 0)]));
        assert!(!merge_joinable(&[(0, 0), (2, 1)]));
    }

    #[test]
    fn disjoint_keys_empty_result() {
        let l = rel("l", &[(1, 1)]);
        let r = rel("r", &[(2, 2)]);
        assert!(merge_join(&l, &r, 1).unwrap().is_empty());
    }

    #[test]
    fn too_many_keys_is_a_typed_error() {
        // Library code runs on server pool workers: a caller-supplied
        // key count must not be able to panic one.
        let l = rel("l", &[(1, 1)]);
        let r = rel("r", &[(2, 2)]);
        assert!(matches!(
            merge_join(&l, &r, 9).unwrap_err(),
            crate::EngineError::ColumnOutOfRange {
                column: 2,
                arity: 2,
                ..
            }
        ));
    }

    #[test]
    fn build_side_does_not_change_result() {
        // Same key layout, asymmetric sizes in both directions: the
        // non-merge-joinable key (0, 1) forces the hash path.
        let small = rel("s", &[(1, 2), (3, 4)]);
        let big = rel("b", &(0..50).map(|i| (i % 5, i % 3)).collect::<Vec<_>>());
        let a = join_auto(&small, &big, &[(0, 1)]).unwrap();
        let b = join_auto(&big, &small, &[(1, 0)]).unwrap();
        // a's columns are small ++ big, b's are big ++ small; compare
        // cardinalities (same match set, transposed columns).
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn auto_picks_merge_and_agrees_with_hash() {
        // Property-style check over a grid of random-ish relations.
        for seed in 0..20i64 {
            let l_rows: Vec<(i64, i64)> =
                (0..30).map(|i| ((i * seed) % 7, (i + seed) % 5)).collect();
            let r_rows: Vec<(i64, i64)> = (0..25).map(|i| ((i + seed) % 7, (i * 3) % 4)).collect();
            let l = rel("l", &l_rows);
            let r = rel("r", &r_rows);
            let merged = merge_join(&l, &r, 1).unwrap();
            let auto = join_auto(&l, &r, &[(0, 0)]).unwrap();
            assert_eq!(merged.tuples(), auto.tuples(), "seed {seed}");
        }
    }

    #[test]
    fn governed_merge_join_charges_rows() {
        let l = rel("l", &[(1, 10), (2, 20)]);
        let r = rel("r", &[(1, 11), (2, 21)]);
        let ctx = ExecContext::unbounded();
        let out = merge_join_with(&l, &r, 1, &ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(ctx.stats().rows, 2);
        // A 1-row budget trips mid-merge.
        let tight = ExecContext::unbounded().with_max_rows(1);
        assert!(merge_join_with(&l, &r, 1, &tight).is_err());
    }
}
