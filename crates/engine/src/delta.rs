//! Counted-multiplicity incremental group aggregates (qf-delta).
//!
//! The maintained object is an *unfiltered* grouped aggregate over a
//! set-semantics extended answer: every distinct extended-answer tuple
//! carries a **derivation multiplicity** (how many valuations of the
//! rule body produce it — Gupta-Mumick counting), so inserting and
//! removing derivations keeps the distinct set exact without ever
//! re-running the full join. A tuple is live while its multiplicity is
//! positive; the group aggregates are functions of the live distinct
//! tuples only, matching the engine's set-semantics `aggregate`
//! operator bit for bit:
//!
//! * `COUNT` — the number of live distinct tuples per group;
//! * `SUM` — maintained as an exact `i128` and clamped to `i64` on
//!   read, which equals the executor's `saturating_add` fold: both
//!   read every weight through the one operand rule (an integer, never
//!   negative), so a sum only ever overflows upwards;
//! * `MIN`/`MAX` — a **bounded re-check set** of the
//!   [`RECHECK_BOUND`] best values per group. Inserts keep the set's
//!   invariant (it holds the best `len` live values; everything
//!   excluded is no better than its worst member); a delete of a value
//!   inside the set pops it, and only when the set drains while
//!   incomplete does the group rescan its live tuples — the rescanned
//!   tuple count is surfaced via [`GroupAggView::take_recheck_tuples`]
//!   so callers can report the work.
//!
//! This module is deliberately flock-agnostic: it speaks tuples,
//! group-prefix widths, and [`AggFn`]s. The delta-join enumeration
//! that decides *which* derivations appear or disappear lives in
//! `qf-core`, which knows about rules and parameters.

use std::collections::BTreeMap;

use qf_storage::{Tuple, Value};

use crate::error::{EngineError, Result};
use crate::exec::sum_operand;
use crate::governor::Resource;
use crate::plan::AggFn;

/// Values kept per MIN/MAX group before a delete has to rescan.
pub const RECHECK_BOUND: usize = 8;

/// A counted-multiplicity grouped aggregate, incrementally maintained.
///
/// Tuples are full extended-answer rows; the first `group_cols` fields
/// are the group key and `agg`'s input column (for `SUM`/`MIN`/`MAX`)
/// indexes into the full row.
#[derive(Debug, Clone)]
pub struct GroupAggView {
    group_cols: usize,
    agg: AggFn,
    groups: BTreeMap<Tuple, GroupState>,
    /// Live distinct tuples across all groups (memory accounting).
    stored: usize,
    max_tuples: usize,
    recheck_tuples: u64,
}

/// Per-group bookkeeping. `tuples` maps the row *suffix* (fields after
/// the group prefix) to its derivation multiplicity; a suffix is
/// removed the moment its multiplicity reaches zero, so `tuples.len()`
/// is the live distinct count.
#[derive(Debug, Clone, Default)]
struct GroupState {
    tuples: BTreeMap<Tuple, u64>,
    /// Exact running sum of the aggregate column (SUM only).
    sum: i128,
    /// Bounded best-value multiset (MIN/MAX only), best first.
    extremes: Vec<Value>,
    /// Whether `extremes` holds *every* live value of the group.
    complete: bool,
}

impl GroupAggView {
    /// An empty view. `SUM`/`MIN`/`MAX` input columns must lie in the
    /// row suffix (at or after `group_cols`) so rescans can read them.
    pub fn new(group_cols: usize, agg: AggFn, max_tuples: usize) -> Result<GroupAggView> {
        if let Some(c) = agg.input_column() {
            if c < group_cols {
                return Err(EngineError::DeltaInvariant {
                    detail: format!(
                        "aggregate input column {c} lies inside the {group_cols}-column group key"
                    ),
                });
            }
        }
        Ok(GroupAggView {
            group_cols,
            agg,
            groups: BTreeMap::new(),
            stored: 0,
            max_tuples,
            recheck_tuples: 0,
        })
    }

    /// Live distinct tuples across all groups.
    pub fn live_tuples(&self) -> usize {
        self.stored
    }

    /// Groups with at least one live tuple.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Drain the count of tuples rescanned by MIN/MAX re-checks since
    /// the last call.
    pub fn take_recheck_tuples(&mut self) -> u64 {
        std::mem::take(&mut self.recheck_tuples)
    }

    /// Record one derivation of `t`. Only the 0→1 multiplicity edge
    /// changes any aggregate (set semantics).
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        let (key, rest) = self.split(t)?;
        let group = self.groups.entry(key).or_default();
        let mult = group.tuples.entry(rest).or_insert(0);
        *mult += 1;
        if *mult > 1 {
            return Ok(());
        }
        self.stored += 1;
        if self.stored > self.max_tuples {
            return Err(EngineError::ResourceExhausted {
                resource: Resource::Rows,
                limit: self.max_tuples as u64,
                observed: self.stored as u64,
            });
        }
        match self.agg {
            AggFn::Count => {}
            AggFn::Sum(c) => group.sum += sum_operand(t.get(c))? as i128,
            AggFn::Min(c) | AggFn::Max(c) => {
                admit_extreme(group, t.get(c), self.agg);
            }
        }
        Ok(())
    }

    /// Remove one derivation of `t`. The derivation must exist — a
    /// miss means the caller's delta enumeration is incoherent with
    /// this state, which is an invariant violation, not a no-op.
    pub fn remove(&mut self, t: &Tuple) -> Result<()> {
        let (key, rest) = self.split(t)?;
        let Some(group) = self.groups.get_mut(&key) else {
            return Err(EngineError::DeltaInvariant {
                detail: format!("removed derivation {t} from an absent group"),
            });
        };
        let Some(mult) = group.tuples.get_mut(&rest) else {
            return Err(EngineError::DeltaInvariant {
                detail: format!("removed derivation {t} with no recorded multiplicity"),
            });
        };
        *mult -= 1;
        if *mult > 0 {
            return Ok(());
        }
        group.tuples.remove(&rest);
        self.stored -= 1;
        match self.agg {
            AggFn::Count => {}
            AggFn::Sum(c) => group.sum -= sum_operand(t.get(c))? as i128,
            AggFn::Min(c) | AggFn::Max(c) => {
                let agg = self.agg;
                let scanned = evict_extreme(group, t.get(c), c - self.group_cols, agg)?;
                self.recheck_tuples += scanned;
            }
        }
        if group.tuples.is_empty() {
            self.groups.remove(&key);
        }
        Ok(())
    }

    /// The full scored output: one sorted `(group key…, aggregate)` row
    /// per live group — exactly what the engine's `aggregate` operator
    /// produces over the live distinct tuples, with no filter applied.
    pub fn scored(&self) -> Result<Vec<Tuple>> {
        let mut out = Vec::with_capacity(self.groups.len());
        for (key, group) in &self.groups {
            let value = match self.agg {
                AggFn::Count => Value::int(group.tuples.len() as i64),
                // Non-negative operands: the fold only overflows upwards,
                // where the executor's `saturating_add` clamps.
                AggFn::Sum(_) => Value::int(i64::try_from(group.sum).unwrap_or(i64::MAX)),
                AggFn::Min(_) | AggFn::Max(_) => {
                    *group
                        .extremes
                        .first()
                        .ok_or_else(|| EngineError::DeltaInvariant {
                            detail: "live MIN/MAX group with an empty re-check set".to_string(),
                        })?
                }
            };
            let mut row = Vec::with_capacity(self.group_cols + 1);
            row.extend_from_slice(key.values());
            row.push(value);
            out.push(Tuple::from(row));
        }
        Ok(out)
    }

    fn split(&self, t: &Tuple) -> Result<(Tuple, Tuple)> {
        if t.arity() < self.group_cols {
            return Err(EngineError::DeltaInvariant {
                detail: format!(
                    "derivation {t} narrower than the {}-column group key",
                    self.group_cols
                ),
            });
        }
        let key = Tuple::new(t.values()[..self.group_cols].to_vec());
        let rest = Tuple::new(t.values()[self.group_cols..].to_vec());
        Ok((key, rest))
    }
}

/// Does `a` beat `b` for this aggregate's direction?
fn better(a: Value, b: Value, agg: AggFn) -> bool {
    match agg {
        AggFn::Min(_) => a < b,
        _ => a > b,
    }
}

/// Offer a newly-live value to the bounded extreme set, preserving the
/// invariant: the set holds the best `len` live values, and every
/// excluded live value is no better than its worst member.
fn admit_extreme(group: &mut GroupState, v: Value, agg: AggFn) {
    if group.tuples.len() == 1 {
        // First live tuple (re)creates the group: the set is trivially
        // complete.
        group.extremes = vec![v];
        group.complete = true;
        return;
    }
    let worst = *group.extremes.last().expect("live group has extremes");
    if !group.complete && better(worst, v, agg) {
        // Strictly worse than everything kept: it joins the excluded
        // region the invariant already covers.
        return;
    }
    let pos = group.extremes.partition_point(|&x| !better(v, x, agg));
    group.extremes.insert(pos, v);
    if group.extremes.len() > RECHECK_BOUND {
        group.extremes.pop();
        group.complete = false;
    }
}

/// Drop a no-longer-live value from the bounded extreme set. When the
/// set drains while incomplete the group rescans its remaining live
/// tuples (the *bounded* fallback: only this group pays). Returns the
/// number of tuples rescanned.
fn evict_extreme(group: &mut GroupState, v: Value, rest_col: usize, agg: AggFn) -> Result<u64> {
    let pos = group.extremes.partition_point(|&x| better(x, v, agg));
    if pos < group.extremes.len() && group.extremes[pos] == v {
        group.extremes.remove(pos);
    } else if group.complete {
        return Err(EngineError::DeltaInvariant {
            detail: format!("removed value {v} missing from a complete extreme set"),
        });
    }
    if group.extremes.is_empty() && !group.complete && !group.tuples.is_empty() {
        let mut values: Vec<Value> = group.tuples.keys().map(|rest| rest.get(rest_col)).collect();
        let scanned = values.len() as u64;
        values.sort_by(|&a, &b| {
            if better(a, b, agg) {
                std::cmp::Ordering::Less
            } else if better(b, a, agg) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        group.complete = values.len() <= RECHECK_BOUND;
        values.truncate(RECHECK_BOUND);
        group.extremes = values;
        return Ok(scanned);
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::int(v)).collect::<Vec<_>>())
    }

    /// Reference: recompute the scored rows from a bag of live tuples.
    fn naive_scored(live: &[Tuple], group_cols: usize, agg: AggFn) -> Vec<Tuple> {
        let mut distinct: Vec<&Tuple> = live.iter().collect();
        distinct.sort();
        distinct.dedup();
        let mut groups: BTreeMap<Tuple, Vec<&Tuple>> = BTreeMap::new();
        for tup in distinct {
            let key = Tuple::new(tup.values()[..group_cols].to_vec());
            groups.entry(key).or_default().push(tup);
        }
        groups
            .into_iter()
            .map(|(key, members)| {
                let value = match agg {
                    AggFn::Count => Value::int(members.len() as i64),
                    AggFn::Sum(c) => Value::int(
                        members
                            .iter()
                            .map(|m| m.get(c).as_int().unwrap())
                            .fold(0i64, i64::saturating_add),
                    ),
                    AggFn::Min(c) => members.iter().map(|m| m.get(c)).min().unwrap(),
                    AggFn::Max(c) => members.iter().map(|m| m.get(c)).max().unwrap(),
                };
                let mut row = key.values().to_vec();
                row.push(value);
                Tuple::from(row)
            })
            .collect()
    }

    /// Drive a random interleaving of inserts/removes through the view
    /// and the naive reference; multiplicities make removal legal only
    /// for derivations previously inserted.
    fn check_interleaving(agg: AggFn, seed: u64) {
        let mut view = GroupAggView::new(1, agg, 10_000).unwrap();
        let mut bag: Vec<Tuple> = Vec::new();
        let mut state = seed.max(1);
        let mut rng = move || {
            // xorshift64: deterministic, dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let remove = !bag.is_empty() && rng() % 3 == 0;
            if remove {
                let i = (rng() as usize) % bag.len();
                let tup = bag.swap_remove(i);
                view.remove(&tup).unwrap();
            } else {
                let tup = t(&[(rng() % 4) as i64, (rng() % 6) as i64]);
                view.insert(&tup).unwrap();
                bag.push(tup);
            }
            assert_eq!(view.scored().unwrap(), naive_scored(&bag, 1, agg));
        }
    }

    #[test]
    fn interleavings_match_naive_recompute() {
        for (i, agg) in [AggFn::Count, AggFn::Sum(1), AggFn::Min(1), AggFn::Max(1)]
            .into_iter()
            .enumerate()
        {
            check_interleaving(agg, 0x9E3779B9 + i as u64);
        }
    }

    #[test]
    fn multiplicity_edges_drive_set_semantics() {
        let mut view = GroupAggView::new(1, AggFn::Count, 100).unwrap();
        // Two derivations of the same tuple count once…
        view.insert(&t(&[1, 5])).unwrap();
        view.insert(&t(&[1, 5])).unwrap();
        assert_eq!(view.scored().unwrap(), vec![t(&[1, 1])]);
        // …and the tuple stays live until the last derivation leaves.
        view.remove(&t(&[1, 5])).unwrap();
        assert_eq!(view.scored().unwrap(), vec![t(&[1, 1])]);
        view.remove(&t(&[1, 5])).unwrap();
        assert!(view.scored().unwrap().is_empty());
        assert_eq!(view.groups(), 0);
    }

    #[test]
    fn min_delete_pops_the_recheck_set_then_rescans() {
        let mut view = GroupAggView::new(1, AggFn::Min(1), 10_000).unwrap();
        // More distinct values than the bound: the set is incomplete.
        let n = RECHECK_BOUND as i64 + 6;
        for v in 0..n {
            view.insert(&t(&[1, v])).unwrap();
        }
        // Popping the minimum uses the set, no rescan.
        view.remove(&t(&[1, 0])).unwrap();
        assert_eq!(view.scored().unwrap(), vec![t(&[1, 1])]);
        assert_eq!(view.take_recheck_tuples(), 0);
        // Draining the whole kept set forces one bounded rescan of the
        // group's remaining live tuples.
        for v in 1..=RECHECK_BOUND as i64 {
            view.remove(&t(&[1, v])).unwrap();
        }
        assert!(view.take_recheck_tuples() > 0);
        assert_eq!(
            view.scored().unwrap(),
            vec![t(&[1, RECHECK_BOUND as i64 + 1])]
        );
    }

    #[test]
    fn state_cap_is_a_typed_resource_error() {
        let mut view = GroupAggView::new(1, AggFn::Count, 2).unwrap();
        view.insert(&t(&[1, 1])).unwrap();
        view.insert(&t(&[1, 2])).unwrap();
        let err = view.insert(&t(&[1, 3])).unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { .. }),
            "{err}"
        );
    }

    #[test]
    fn incoherent_removal_is_an_invariant_error() {
        let mut view = GroupAggView::new(1, AggFn::Count, 100).unwrap();
        let err = view.remove(&t(&[1, 1])).unwrap_err();
        assert!(matches!(err, EngineError::DeltaInvariant { .. }), "{err}");
    }
}
