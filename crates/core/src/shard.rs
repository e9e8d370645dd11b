//! Sharded (scatter-gather) flock execution: the core algebra.
//!
//! The paper's central filters are algebraic — `COUNT`/`SUM` partials
//! merge by addition, `MIN`/`MAX` by min/max — so a flock can run over
//! a hash-partitioned catalog: each shard evaluates every `FILTER`
//! step at a *vacuous* threshold (nothing pruned locally), the
//! coordinator merges the scored partials exactly, and only the final
//! threshold test needs the global view. This module holds everything
//! both tiers share:
//!
//! * **stable partition hashing** ([`stable_value_hash`], [`shard_of`],
//!   [`partition_relation`], [`partition_database`]) — content-based
//!   (integers by value, symbols by *string*), so two processes with
//!   different interner states agree on every tuple's home shard;
//! * **vacuous filters** ([`vacuous_filter`]) — the per-shard filter
//!   that keeps every group while still [subsuming] every real
//!   threshold of the same direction, which makes shard-side cache
//!   entries maximally reusable;
//! * **the shardability check** ([`shard_key_pos`]) — the syntactic
//!   condition under which per-shard answer tuples are *disjoint*, the
//!   precondition for `COUNT`/`SUM` addition to be exact;
//! * **the merge wrapper** ([`merge_scored_partials`]) — maps the
//!   flock's aggregate onto the engine's [`merge_partials`] kernel,
//!   which combines partials with the group-by's own accumulator merge.
//!
//! [subsuming]: crate::FilterCondition::subsumes
//! [`merge_partials`]: qf_engine::merge_partials

use std::collections::BTreeSet;

use qf_datalog::{Literal, Term};
use qf_engine::{AggFn, ExecContext};
use qf_storage::{CmpOp, Database, Fnv1a, Relation, Schema, Tuple, Value};

use crate::compile::JoinOrderStrategy;
use crate::error::Result;
use crate::exec::execute_plan_scored_with;
use crate::filter::{FilterAgg, FilterCondition};
use crate::flock::QueryFlock;
use crate::plan::FilterStep;
use crate::plangen::direct_plan;
use crate::program::FlockProgram;

/// Content-based hash of a single value: integers by value, symbols by
/// their string. Two processes that interned symbols in different
/// orders still agree, which is what makes the partition map stable
/// across the coordinator and every worker.
pub fn stable_value_hash(v: Value) -> u64 {
    let mut h = Fnv1a::new();
    h.write_value(v);
    h.finish()
}

/// The home shard of a partition-key value among `shards` shards.
pub fn shard_of(v: Value, shards: usize) -> usize {
    (stable_value_hash(v) % shards.max(1) as u64) as usize
}

/// Hash-partition a relation by its **first column** into `shards`
/// fragments. Fragments keep the relation's schema and name; every
/// tuple lands in exactly one fragment, so the fragments partition the
/// relation.
pub fn partition_relation(rel: &Relation, shards: usize) -> Vec<Relation> {
    let n = shards.max(1);
    let mut buckets: Vec<Vec<Tuple>> = (0..n).map(|_| Vec::new()).collect();
    for t in rel.iter() {
        buckets[shard_of(t.get(0), n)].push(t.clone());
    }
    buckets
        .into_iter()
        // A subsequence of a sorted, deduplicated relation is itself
        // sorted and duplicate-free.
        .map(|ts| Relation::from_sorted_dedup(rel.schema().clone(), ts))
        .collect()
}

/// Partition a whole catalog: relations named in `replicated` are
/// cloned onto every shard, the rest are hash-partitioned by first
/// column. Fragment `k` is shard `k`'s entire catalog.
pub fn partition_database(
    db: &Database,
    shards: usize,
    replicated: &BTreeSet<String>,
) -> Vec<Database> {
    let n = shards.max(1);
    let mut frags: Vec<Database> = (0..n).map(|_| Database::new()).collect();
    for rel in db.iter() {
        if replicated.contains(rel.name()) {
            for frag in &mut frags {
                frag.insert(rel.clone());
            }
        } else {
            for (frag, part) in frags.iter_mut().zip(partition_relation(rel, n)) {
                frag.insert(part);
            }
        }
    }
    frags
}

/// The workers hosting copies of fragment `frag` under `replicas`-way
/// replication: fragment *i* lands on workers *i*, *i+1 mod n*, … up to
/// `replicas` distinct workers. The first entry is the fragment's
/// *primary*; the rest are failover/hedge targets holding bitwise-
/// identical copies. `replicas` is clamped to `[1, shards]`.
pub fn replica_workers(frag: usize, shards: usize, replicas: usize) -> Vec<usize> {
    let n = shards.max(1);
    let r = replicas.clamp(1, n);
    (0..r).map(|k| (frag + k) % n).collect()
}

/// The inverse map: every fragment hosted on worker `worker`. Worker
/// *w* holds fragment *i* exactly when *w ∈ replica_workers(i)*, i.e.
/// fragments *w*, *w-1 mod n*, … back through `replicas` slots. Sorted
/// ascending so re-sync ships fragments in a stable order.
pub fn worker_fragments(worker: usize, shards: usize, replicas: usize) -> Vec<usize> {
    let n = shards.max(1);
    let r = replicas.clamp(1, n);
    let mut frags: Vec<usize> = (0..r).map(|k| (worker + n - k) % n).collect();
    frags.sort_unstable();
    frags
}

/// The vacuous (keep-everything) version of a filter: same aggregate,
/// threshold pushed to the extreme of the filter's direction. `≤`-family
/// filters become `≤ i64::MAX`; everything else becomes `≥ i64::MIN`
/// (`=`/`≠` have no one-sided vacuous form, so shards compute the exact
/// aggregate under `≥ i64::MIN` and the coordinator applies the real
/// test after the merge). A vacuous filter
/// [subsumes](FilterCondition::subsumes) every same-direction filter
/// over the same aggregate, so a cached vacuous run answers *all*
/// future thresholds.
pub fn vacuous_filter(filter: &FilterCondition) -> FilterCondition {
    match filter.op {
        CmpOp::Le | CmpOp::Lt => FilterCondition {
            agg: filter.agg,
            op: CmpOp::Le,
            threshold: i64::MAX,
        },
        _ => FilterCondition {
            agg: filter.agg,
            op: CmpOp::Ge,
            threshold: i64::MIN,
        },
    }
}

/// Merge per-shard scored partials `(params…, agg)` into the global
/// scored relation, combining the aggregate column as `agg`'s partials
/// combine (`COUNT`/`SUM` add, `MIN`/`MAX` take the extremum). Exact
/// whenever the shards' answer tuples are disjoint — the invariant
/// [`shard_key_pos`] certifies.
pub fn merge_scored_partials(
    agg: &FilterAgg,
    schema: Schema,
    parts: &[Relation],
) -> Result<Relation> {
    let col = schema.arity() - 1;
    let agg = match agg {
        FilterAgg::Count => AggFn::Count,
        FilterAgg::Sum(_) => AggFn::Sum(col),
        FilterAgg::Min(_) => AggFn::Min(col),
        FilterAgg::Max(_) => AggFn::Max(col),
    };
    Ok(qf_engine::merge_partials(schema, parts, agg)?)
}

/// The shardability check: find a head position `h` such that
/// hash-partitioning every non-replicated relation by first column
/// makes the per-shard **answer tuples disjoint** (each answer tuple is
/// produced only on the home shard of its position-`h` value). That is
/// the precondition for `COUNT`/`SUM` partials to add exactly.
///
/// Position `h` qualifies when, in *every* rule:
///
/// * the head's argument `h` is a variable `v` (the partition
///   variable);
/// * every positive subgoal is either **keyed** — over a partitioned
///   relation with `v` as its first argument, so all of an answer
///   tuple's witnesses live on `v`'s home shard — or over a replicated
///   relation that does **not mention `v` at all**. The stronger
///   no-mention condition matters for plans, not just whole flocks: a
///   reduction step evaluates a *subset* of a rule's subgoals, and if
///   a replicated subgoal could bind `v` on its own, a step made only
///   of replicated subgoals would be safe yet produce every group on
///   every shard — `COUNT` partials would then add `n` copies. With
///   the condition, any safe (sub)query binding `v` must include a
///   keyed subgoal, which zeroes the group on every shard but its
///   home;
/// * at least one positive subgoal is keyed (implied by rule safety
///   under the previous condition, but checked explicitly);
/// * every negated subgoal is over a replicated relation — negation
///   against a fragment would *under*-reject.
///
/// Returns the first qualifying position, or `None` (the caller falls
/// back to single-node evaluation).
pub fn shard_key_pos(flock: &QueryFlock, replicated: &BTreeSet<String>) -> Option<usize> {
    let rules = flock.query().rules();
    'pos: for h in 0..flock.query().head_arity() {
        for rule in rules {
            let Some(Term::Var(v)) = rule.head.args.get(h) else {
                continue 'pos;
            };
            let mut keyed_subgoal = false;
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) => {
                        if replicated.contains(a.pred.as_str()) {
                            if a.args.contains(&Term::Var(*v)) {
                                continue 'pos;
                            }
                            continue;
                        }
                        if a.args.first() != Some(&Term::Var(*v)) {
                            continue 'pos;
                        }
                        keyed_subgoal = true;
                    }
                    Literal::Neg(a) => {
                        if !replicated.contains(a.pred.as_str()) {
                            continue 'pos;
                        }
                    }
                    Literal::Cmp(_) => {}
                }
            }
            if !keyed_subgoal {
                continue 'pos;
            }
        }
        return Some(h);
    }
    None
}

/// [`shard_key_pos`] lifted to whole programs. Views materialize
/// *before* partitioning is visible, so any program with views falls
/// back to single-node evaluation.
pub fn shardable_program(program: &FlockProgram, replicated: &BTreeSet<String>) -> Option<usize> {
    if !program.views().is_empty() {
        return None;
    }
    shard_key_pos(program.flock(), replicated)
}

/// Wrap one `FILTER` step as a standalone mini-flock at the vacuous
/// threshold of `filter` (the plan's real filter). Step rule heads are
/// the flock's own heads (§4.1 plans never rename them), so the step's
/// query *is* a legal flock query and the mini-flock round-trips
/// through the `QUERY:`/`FILTER:` notation — a partial request is just
/// an ordinary program the worker already knows how to parse.
pub fn partial_flock(step: &FilterStep, filter: &FilterCondition) -> Result<QueryFlock> {
    QueryFlock::new(step.query.clone(), vacuous_filter(filter))
}

/// The scored schema a partial evaluation of `step` produces:
/// the step's parameters plus the trailing `agg` column.
pub fn scored_schema(step: &FilterStep) -> Schema {
    let mut columns: Vec<String> = step.params.iter().map(|p| p.to_string()).collect();
    columns.push("agg".to_string());
    Schema::from_columns("scored_result", columns)
}

/// Evaluate a mini-flock to its scored relation on a local catalog —
/// the worker side of a scatter, also used by the coordinator to
/// re-evaluate a dead shard's fragment. Always the direct plan: a step
/// is already one step of a searched plan, so searching again would
/// only burn the budget the governor metered out.
pub fn evaluate_scored_partial(
    flock: &QueryFlock,
    db: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
) -> Result<Relation> {
    let plan = direct_plan(flock)?;
    let run = execute_plan_scored_with(&plan, db, strategy, ctx)?;
    Ok(run.scored)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basket_db(rows: Vec<Vec<Value>>) -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        db
    }

    #[test]
    fn partition_is_stable_and_total() {
        let rel = Relation::from_rows(
            Schema::new("r", &["k", "v"]),
            (0..100)
                .map(|i| vec![Value::int(i), Value::int(i * 7)])
                .collect(),
        );
        let parts = partition_relation(&rel, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Relation::len).sum();
        assert_eq!(total, rel.len());
        for part in &parts {
            for t in part.iter() {
                assert!(rel.contains(t));
                // Re-hashing sends the tuple back to the same fragment.
                assert!(parts[shard_of(t.get(0), 4)].contains(t));
            }
        }
    }

    #[test]
    fn replica_placement_round_trips_and_clamps() {
        // fragment i → workers i, i+1 mod n, … for R distinct workers.
        assert_eq!(replica_workers(0, 3, 2), vec![0, 1]);
        assert_eq!(replica_workers(2, 3, 2), vec![2, 0]);
        // R clamps to [1, n]: R=0 behaves like 1, R>n like n.
        assert_eq!(replica_workers(1, 3, 0), vec![1]);
        assert_eq!(replica_workers(1, 3, 9), vec![1, 2, 0]);
        // The two maps are inverses: w hosts f  ⇔  f scatters to w.
        for n in 1..=5 {
            for r in 1..=n {
                for f in 0..n {
                    for w in 0..n {
                        let hosts = replica_workers(f, n, r);
                        let held = worker_fragments(w, n, r);
                        assert_eq!(
                            hosts.contains(&w),
                            held.contains(&f),
                            "n={n} r={r} f={f} w={w}"
                        );
                    }
                    // Exactly R distinct hosts, primary first.
                    let hosts = replica_workers(f, n, r);
                    assert_eq!(hosts.len(), r);
                    assert_eq!(hosts[0], f);
                    let dedup: BTreeSet<usize> = hosts.iter().copied().collect();
                    assert_eq!(dedup.len(), r);
                }
            }
        }
    }

    #[test]
    fn symbol_hash_is_content_based() {
        // Same string, same hash — regardless of interner history.
        assert_eq!(
            stable_value_hash(Value::str("beer")),
            stable_value_hash(Value::str("beer"))
        );
        assert_ne!(
            stable_value_hash(Value::str("beer")),
            stable_value_hash(Value::str("diapers"))
        );
    }

    #[test]
    fn vacuous_filters_subsume_their_direction() {
        for text in [
            "COUNT(answer.B) >= 20",
            "COUNT(answer.B) > 3",
            "SUM(answer.W) >= 5",
            "MAX(answer.W) > 0",
            "COUNT(answer.B) = 2",
            "COUNT(answer.B) != 2",
        ] {
            let f = FilterCondition::parse(text).unwrap();
            let v = vacuous_filter(&f);
            assert!(
                matches!(
                    (v.op, v.threshold),
                    (CmpOp::Ge, i64::MIN) | (CmpOp::Le, i64::MAX)
                ),
                "{text}"
            );
            if matches!(f.op, CmpOp::Ge | CmpOp::Gt | CmpOp::Le | CmpOp::Lt) {
                assert!(v.subsumes(&f), "vacuous must subsume {text}");
            }
        }
        let min = FilterCondition::parse("MIN(answer.W) <= 9").unwrap();
        let v = vacuous_filter(&min);
        assert_eq!((v.op, v.threshold), (CmpOp::Le, i64::MAX));
        assert!(v.subsumes(&min));
    }

    #[test]
    fn vacuous_filter_renders_and_reparses() {
        let f = FilterCondition::parse("COUNT(answer.B) >= 20").unwrap();
        let v = vacuous_filter(&f);
        let text = v.render("answer");
        assert_eq!(FilterCondition::parse(&text).unwrap(), v);
    }

    #[test]
    fn shard_key_found_for_market_basket_flock() {
        let flock = QueryFlock::parse(
            "QUERY:  answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
             FILTER: COUNT(answer.B) >= 2",
        )
        .unwrap();
        // Every positive subgoal is keyed on B at position 0.
        assert_eq!(shard_key_pos(&flock, &BTreeSet::new()), Some(0));
    }

    #[test]
    fn shard_key_respects_replication_and_negation() {
        let replicated: BTreeSet<String> = ["dict".to_string()].into_iter().collect();
        // `dict` is not keyed on B, but it is replicated — fine.
        let flock = QueryFlock::parse(
            "QUERY:  answer(B) :- baskets(B,$1) AND dict($1,X)
             FILTER: COUNT(answer.B) >= 2",
        )
        .unwrap();
        assert_eq!(shard_key_pos(&flock, &BTreeSet::new()), None);
        assert_eq!(shard_key_pos(&flock, &replicated), Some(0));
        // A negated subgoal must be replicated.
        let neg = QueryFlock::parse(
            "QUERY:  answer(B) :- baskets(B,$1) AND NOT dict(B,$1)
             FILTER: COUNT(answer.B) >= 2",
        )
        .unwrap();
        assert_eq!(shard_key_pos(&neg, &BTreeSet::new()), None);
        assert_eq!(shard_key_pos(&neg, &replicated), Some(0));
    }

    #[test]
    fn replicated_subgoal_mentioning_key_var_disqualifies() {
        // `mirror(B,X)` is replicated *and* binds B: a reduction step
        // made only of `mirror` would produce every group on every
        // shard, so the position must be rejected.
        let replicated: BTreeSet<String> = ["mirror".to_string()].into_iter().collect();
        let flock = QueryFlock::parse(
            "QUERY:  answer(B) :- baskets(B,$1) AND mirror(B,X)
             FILTER: COUNT(answer.B) >= 2",
        )
        .unwrap();
        assert_eq!(shard_key_pos(&flock, &replicated), None);
    }

    #[test]
    fn all_replicated_flock_is_not_shardable() {
        // Every shard would hold the whole input and over-count.
        let replicated: BTreeSet<String> = ["baskets".to_string()].into_iter().collect();
        let flock = QueryFlock::parse(
            "QUERY:  answer(B) :- baskets(B,$1)
             FILTER: COUNT(answer.B) >= 2",
        )
        .unwrap();
        assert_eq!(shard_key_pos(&flock, &replicated), None);
    }

    #[test]
    fn partial_flock_round_trips_through_notation() {
        let flock = QueryFlock::parse(
            "QUERY:  answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
             FILTER: COUNT(answer.B) >= 2",
        )
        .unwrap();
        let plan = direct_plan(&flock).unwrap();
        let mini = partial_flock(&plan.steps[0], flock.filter()).unwrap();
        let rendered = mini.render();
        let reparsed = QueryFlock::parse(&rendered).unwrap();
        assert_eq!(reparsed.filter(), mini.filter());
        assert_eq!(
            reparsed.canonical_query_text(),
            flock.canonical_query_text()
        );
    }

    #[test]
    fn two_shard_scatter_matches_single_node() {
        let rows: Vec<Vec<Value>> = (0..20)
            .flat_map(|b| {
                let mut r = vec![vec![Value::int(b), Value::str("beer")]];
                if b % 2 == 0 {
                    r.push(vec![Value::int(b), Value::str("diapers")]);
                }
                r
            })
            .collect();
        let db = basket_db(rows);
        let flock = QueryFlock::parse(
            "QUERY:  answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
             FILTER: COUNT(answer.B) >= 1",
        )
        .unwrap();
        assert_eq!(shard_key_pos(&flock, &BTreeSet::new()), Some(0));
        let ctx = ExecContext::default();
        let plan = direct_plan(&flock).unwrap();
        let single = execute_plan_scored_with(&plan, &db, JoinOrderStrategy::Greedy, &ctx).unwrap();

        let step = &plan.steps[0];
        let mini = partial_flock(step, flock.filter()).unwrap();
        let frags = partition_database(&db, 2, &BTreeSet::new());
        let parts: Vec<Relation> = frags
            .iter()
            .map(|frag| {
                evaluate_scored_partial(&mini, frag, JoinOrderStrategy::Greedy, &ctx).unwrap()
            })
            .collect();
        let merged =
            merge_scored_partials(&flock.filter().agg, scored_schema(step), &parts).unwrap();
        // Vacuous per-shard runs keep every group; the real filter is
        // COUNT >= 1, which everything passes, so the merged scored
        // relation must be bitwise-identical to the single-node one.
        assert_eq!(merged.tuples(), single.scored.tuples());
    }
}
