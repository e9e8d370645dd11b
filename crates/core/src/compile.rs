//! Compilation of flock queries to engine plans.
//!
//! A flock's parametrized query denotes, for every parameter assignment,
//! an answer set. Evaluation does not iterate assignments; it computes
//! the **extended answer relation** — all distinct tuples
//! `(params…, head vars…)` — in one relational plan, then aggregates by
//! the parameter columns. This is precisely the join-group-filter shape
//! of the paper's Fig. 1 SQL, generalized to negation, arithmetic, and
//! unions.
//!
//! Compilation is positional: a `Binding` tracks which output column
//! of the running intermediate holds each open term (variable or
//! parameter). Negated subgoals become antijoins and arithmetic
//! subgoals become selections, each applied at the earliest point where
//! all their terms are bound.

use std::collections::BTreeSet;

use qf_datalog::{Atom, ConjunctiveQuery, Term, UnionQuery};
use qf_engine::{
    order_greedy, order_optimal_dp, AggFn, CmpOp, JoinGraph, JoinNode, Operand, PhysicalPlan,
    Predicate,
};
use qf_storage::Database;

use crate::error::{FlockError, Result};
use crate::filter::{FilterAgg, FilterCondition};

/// How to order a rule's positive subgoals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinOrderStrategy {
    /// Exactly the order the subgoals are written — the "conventional
    /// optimizer missing the trick" baseline of §1.3.
    AsWritten,
    /// Greedy smallest-next-intermediate ordering using base statistics.
    #[default]
    Greedy,
    /// Exact minimum-`C_out` left-deep order (subset DP).
    OptimalDp,
}

/// A compiled rule: a plan producing the distinct
/// `(params…, head vars…)` tuples of one rule.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// Number of leading parameter columns (sorted by parameter name).
    pub n_params: usize,
    /// Number of trailing head-variable columns (in head order).
    pub n_head: usize,
}

/// Column layout tracker: which column of the running intermediate holds
/// each open term.
#[derive(Clone, Debug, Default)]
pub(crate) struct Binding {
    cols: Vec<(Term, usize)>,
}

impl Binding {
    pub(crate) fn col_of(&self, t: Term) -> Option<usize> {
        self.cols.iter().find(|(u, _)| *u == t).map(|(_, c)| *c)
    }

    pub(crate) fn bind(&mut self, t: Term, col: usize) {
        if self.col_of(t).is_none() {
            self.cols.push((t, col));
        }
    }

    pub(crate) fn binds_all(&self, terms: &[Term]) -> bool {
        terms.iter().all(|&t| self.col_of(t).is_some())
    }

    /// Bind `leaf`'s open terms to its columns, which start at column
    /// `offset` of the running intermediate.
    pub(crate) fn bind_leaf(&mut self, leaf: &Leaf, offset: usize) {
        for (col, term) in leaf.terms.iter().enumerate() {
            if let Some(t) = term {
                self.bind(*t, offset + col);
            }
        }
    }

    /// Equi-join keys `(bound column, leaf column)`: one per leaf column
    /// whose term the running intermediate already binds.
    pub(crate) fn join_keys(&self, leaf: &Leaf) -> Vec<(usize, usize)> {
        let key = |(col, term): (usize, &Option<Term>)| Some((self.col_of((*term)?)?, col));
        leaf.terms.iter().enumerate().filter_map(key).collect()
    }
}

/// A scan of one atom's relation with constant/self-equality selections
/// applied; `terms[i]` is the open term at output column `i` of the
/// atom (columns mirror the base relation's columns).
#[derive(Clone, Debug)]
pub(crate) struct Leaf {
    pub(crate) plan: PhysicalPlan,
    /// Open term per column; `None` where the argument is a constant.
    pub(crate) terms: Vec<Option<Term>>,
}

/// Build the leaf plan for an atom: scan plus selections for constant
/// arguments and repeated open terms.
pub(crate) fn build_leaf(atom: &Atom) -> Leaf {
    let scan = PhysicalPlan::scan(atom.pred.as_str());
    let mut preds = Vec::new();
    let mut terms: Vec<Option<Term>> = Vec::with_capacity(atom.arity());
    let mut first_col: Vec<(Term, usize)> = Vec::new();
    for (col, &arg) in atom.args.iter().enumerate() {
        match arg {
            Term::Const(v) => {
                preds.push(Predicate::col_const(col, CmpOp::Eq, v));
                terms.push(None);
            }
            open => {
                if let Some(&(_, prev)) = first_col.iter().find(|(t, _)| *t == open) {
                    preds.push(Predicate::col_col(prev, CmpOp::Eq, col));
                } else {
                    first_col.push((open, col));
                }
                terms.push(Some(open));
            }
        }
    }
    Leaf {
        plan: PhysicalPlan::select(scan, preds),
        terms,
    }
}

/// Decide the positive-atom order for a rule under a strategy.
pub(crate) fn atom_order(
    atoms: &[&Atom],
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Vec<usize> {
    match strategy {
        JoinOrderStrategy::AsWritten => (0..atoms.len()).collect(),
        JoinOrderStrategy::Greedy | JoinOrderStrategy::OptimalDp => {
            let mut graph = JoinGraph::new();
            let mut attr_ids: Vec<Term> = Vec::new();
            let attr_id = |t: Term, ids: &mut Vec<Term>| -> u32 {
                match ids.iter().position(|&u| u == t) {
                    Some(i) => i as u32,
                    None => {
                        ids.push(t);
                        (ids.len() - 1) as u32
                    }
                }
            };
            for atom in atoms {
                let (rows, col_distinct) = match db.get(atom.pred.as_str()) {
                    Ok(r) => {
                        let s = r.stats();
                        (
                            s.cardinality as f64,
                            (0..s.arity())
                                .map(|c| s.column(c).distinct as f64)
                                .collect(),
                        )
                    }
                    // Unknown relation (e.g. a planned-but-unmaterialized
                    // filter step): neutral guess.
                    Err(_) => (1000.0, vec![100.0; atom.arity()]),
                };
                let col_distinct: Vec<f64> = col_distinct;
                let mut attrs = Vec::new();
                let mut dist = Vec::new();
                let mut seen = BTreeSet::new();
                for (col, &arg) in atom.args.iter().enumerate() {
                    if let Term::Const(_) = arg {
                        continue;
                    }
                    if seen.insert(arg) {
                        attrs.push(attr_id(arg, &mut attr_ids));
                        dist.push(*col_distinct.get(col).unwrap_or(&100.0));
                    }
                }
                graph.add(JoinNode::new(atom.pred.as_str(), attrs, rows, dist));
            }
            match strategy {
                JoinOrderStrategy::Greedy => order_greedy(&graph),
                _ => order_optimal_dp(&graph),
            }
        }
    }
}

/// The body walk of one rule, one positive subgoal at a time: which
/// column of the running intermediate holds each open term, how wide
/// it is, and which negations and comparisons still wait for their
/// terms. [`compile_body`] folds it over the whole atom order into one
/// plan; §4.4 dynamic evaluation ([`crate::dynamic`]) runs each step's
/// plan before taking the next.
pub(crate) struct BodyWalk<'r> {
    rule: &'r ConjunctiveQuery,
    binding: Binding,
    width: usize,
    pending_neg: Vec<&'r Atom>,
    pending_cmp: Vec<&'r qf_datalog::Comparison>,
}

impl<'r> BodyWalk<'r> {
    pub(crate) fn new(rule: &'r ConjunctiveQuery) -> BodyWalk<'r> {
        BodyWalk {
            rule,
            binding: Binding::default(),
            width: 0,
            pending_neg: rule.negated_atoms().collect(),
            pending_cmp: rule.comparisons().collect(),
        }
    }

    pub(crate) fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Start the walk at `atom`: its leaf, then everything now bound.
    pub(crate) fn start(&mut self, atom: &Atom) -> PhysicalPlan {
        let (leaf, _) = self.leaf(atom);
        self.apply_pending(leaf)
    }

    /// Join `atom` onto `plan` — whose columns are the walk so far — on
    /// the terms bound on both sides, then apply everything now bound.
    pub(crate) fn join(&mut self, plan: PhysicalPlan, atom: &Atom) -> PhysicalPlan {
        let (leaf, keys) = self.leaf(atom);
        self.apply_pending(PhysicalPlan::hash_join(plan, leaf, keys))
    }

    /// End the walk: every negation and comparison must have been
    /// applied.
    pub(crate) fn finish(self) -> Result<Binding> {
        if !self.pending_neg.is_empty() || !self.pending_cmp.is_empty() {
            // Safety guarantees full binding; reaching here means the rule
            // was not safety-checked.
            return Err(FlockError::UnsafeQuery {
                violation: format!(
                    "rule `{}` has unbound negated/arithmetic subgoals after all joins",
                    self.rule
                ),
            });
        }
        Ok(self.binding)
    }

    /// `atom`'s leaf plan and its join keys against the walk so far;
    /// binds the leaf's columns at the running width.
    fn leaf(&mut self, atom: &Atom) -> (PhysicalPlan, Vec<(usize, usize)>) {
        let leaf = build_leaf(atom);
        let keys = self.binding.join_keys(&leaf);
        self.binding.bind_leaf(&leaf, self.width);
        self.width += atom.arity();
        (leaf.plan, keys)
    }

    /// Apply all pending negations and comparisons whose terms are bound.
    fn apply_pending(&mut self, mut plan: PhysicalPlan) -> PhysicalPlan {
        let binding = &self.binding;
        // Comparisons first (cheap selections shrink antijoin inputs).
        let mut i = 0;
        while i < self.pending_cmp.len() {
            let c = self.pending_cmp[i];
            let operand = |t: Term| match t {
                Term::Const(v) => Some(Operand::Const(v)),
                open => binding.col_of(open).map(Operand::Col),
            };
            if let (Some(lhs), Some(rhs)) = (operand(c.lhs), operand(c.rhs)) {
                plan = PhysicalPlan::select(plan, vec![Predicate { lhs, op: c.op, rhs }]);
                self.pending_cmp.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.pending_neg.len() {
            let atom = self.pending_neg[i];
            let open: Vec<Term> = atom
                .args
                .iter()
                .copied()
                .filter(|t| !t.is_const())
                .collect();
            if binding.binds_all(&open) {
                let leaf = build_leaf(atom);
                let keys = binding.join_keys(&leaf);
                plan = PhysicalPlan::anti_join(plan, leaf.plan, keys);
                self.pending_neg.swap_remove(i);
            } else {
                i += 1;
            }
        }
        plan
    }
}

/// The body walk of one rule: positive subgoals joined in `strategy`
/// order, negations and comparisons applied as soon as their terms are
/// bound — **no projection**. Leaves select but never project and a
/// join concatenates its inputs, so the output rows are 1-1 with the
/// rule's derivations (one base tuple per positive subgoal); the
/// returned [`Binding`] says which column holds each open term.
pub(crate) fn compile_body(
    rule: &ConjunctiveQuery,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<(PhysicalPlan, Binding)> {
    let positive: Vec<&Atom> = rule.positive_atoms().collect();
    let order = atom_order(&positive, db, strategy);
    let Some((&first, rest)) = order.split_first() else {
        return Err(FlockError::IllegalPlan {
            detail: format!("rule `{rule}` has no positive subgoals to scan"),
        });
    };
    let mut walk = BodyWalk::new(rule);
    let mut plan = walk.start(positive[first]);
    for &ai in rest {
        plan = walk.join(plan, positive[ai]);
    }
    Ok((plan, walk.finish()?))
}

/// The extended-answer columns of a body-walk row: parameters sorted by
/// name, then the head's terms in head order.
pub(crate) fn answer_columns(rule: &ConjunctiveQuery, binding: &Binding) -> Result<Vec<usize>> {
    let unbound = |what: String| FlockError::UnsafeQuery {
        violation: format!("{what} is not bound by a positive subgoal"),
    };
    let params = rule.params().into_iter().map(|p| {
        binding
            .col_of(Term::Param(p))
            .ok_or_else(|| unbound(format!("parameter ${p}")))
    });
    let head = rule.head.args.iter().map(|&t| {
        binding
            .col_of(t)
            .ok_or_else(|| unbound(format!("head term {t}")))
    });
    params.chain(head).collect()
}

/// Compile one rule into a plan producing its distinct
/// `(params…, head vars…)` tuples. Parameters are sorted by name; head
/// variables follow in head-argument order.
pub fn compile_rule(
    rule: &ConjunctiveQuery,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<CompiledRule> {
    let (body, binding) = compile_body(rule, db, strategy)?;
    // Final projection: parameters sorted by name, then head vars.
    let cols = answer_columns(rule, &binding)?;
    let n_head = rule.head.arity();
    Ok(CompiledRule {
        n_params: cols.len() - n_head,
        n_head,
        plan: PhysicalPlan::project(body, cols),
    })
}

/// Compile a whole (possibly union) flock query into a plan producing
/// the distinct `(params…, head vars…)` tuples across all rules.
pub fn compile_answer(
    query: &UnionQuery,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<CompiledRule> {
    let mut plans = Vec::with_capacity(query.rules().len());
    let mut n_params = 0;
    let mut n_head = 0;
    for rule in query.rules() {
        let c = compile_rule(rule, db, strategy)?;
        n_params = c.n_params;
        n_head = c.n_head;
        plans.push(c.plan);
    }
    let plan = if plans.len() == 1 {
        plans.pop().unwrap()
    } else {
        PhysicalPlan::union(plans)
    };
    Ok(CompiledRule {
        plan,
        n_params,
        n_head,
    })
}

/// The engine aggregate a flock filter compiles to over the
/// extended-answer layout `(params…, head vars…)`: `rule0`'s head
/// resolves the aggregated variable to its column.
pub(crate) fn filter_agg_fn(
    filter: &FilterCondition,
    rule0: &ConjunctiveQuery,
    n_params: usize,
) -> Result<AggFn> {
    let (v, make): (_, fn(usize) -> AggFn) = match filter.agg {
        FilterAgg::Count => return Ok(AggFn::Count),
        FilterAgg::Sum(v) => (v, AggFn::Sum),
        FilterAgg::Min(v) => (v, AggFn::Min),
        FilterAgg::Max(v) => (v, AggFn::Max),
    };
    let pos = rule0
        .head
        .args
        .iter()
        .position(|&t| t == Term::Var(v))
        .ok_or_else(|| FlockError::FilterVarUnknown {
            var: format!("{v}"),
        })?;
    Ok(make(n_params + pos))
}

/// The §5 monotonicity precondition of `SUM` filters: no negative
/// weight reaches the aggregate. Reads the weight column's minimum off
/// the materialized extended answer's statistics; `what` names the
/// answer in the error.
pub(crate) fn check_sum_weights(
    filter: &FilterCondition,
    rule0: &ConjunctiveQuery,
    n_params: usize,
    answer_rel: &qf_storage::Relation,
    what: &str,
) -> Result<()> {
    if let AggFn::Sum(col) = filter_agg_fn(filter, rule0, n_params)? {
        if let Some(min) = answer_rel.stats().column(col).min {
            if min < qf_storage::Value::int(0) {
                return Err(FlockError::NegativeWeight {
                    detail: format!("{what}: minimum weight {min}"),
                });
            }
        }
    }
    Ok(())
}

/// Wrap an answer plan with the flock's filter: group by the parameter
/// columns, aggregate, threshold, and project the parameters — the
/// flock's *result* (§2: "a query flock is a query about its
/// parameters").
pub fn filter_answer(
    answer: &CompiledRule,
    rule0: &ConjunctiveQuery,
    filter: &FilterCondition,
) -> Result<PhysicalPlan> {
    let params: Vec<usize> = (0..answer.n_params).collect();
    Ok(PhysicalPlan::project(
        filter_answer_scored(answer, rule0, filter)?,
        params,
    ))
}

/// [`filter_answer`] without the final parameter projection: the plan
/// yields `(params…, aggregate)` rows for every parameter assignment
/// passing the filter. Projecting away the trailing aggregate column
/// recovers the flock result exactly; *keeping* it lets a result cache
/// re-filter the rows to answer any request whose filter the baseline
/// [subsumes](FilterCondition::subsumes) — the server's monotone reuse.
pub fn filter_answer_scored(
    answer: &CompiledRule,
    rule0: &ConjunctiveQuery,
    filter: &FilterCondition,
) -> Result<PhysicalPlan> {
    let group: Vec<usize> = (0..answer.n_params).collect();
    let agg = filter_agg_fn(filter, rule0, answer.n_params)?;
    // The aggregate output follows the group columns.
    Ok(PhysicalPlan::select(
        PhysicalPlan::aggregate(answer.plan.clone(), group, agg),
        vec![Predicate::col_const(
            answer.n_params,
            filter.op,
            qf_storage::Value::int(filter.threshold),
        )],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_datalog::parse_rule;
    use qf_engine::execute;
    use qf_storage::{Relation, Schema, Value};

    fn basket_db() -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::str("beer")],
                vec![Value::int(1), Value::str("diapers")],
                vec![Value::int(2), Value::str("beer")],
                vec![Value::int(2), Value::str("diapers")],
                vec![Value::int(3), Value::str("beer")],
            ],
        ));
        db
    }

    #[test]
    fn compile_basket_rule_produces_extended_answers() {
        let rule = parse_rule("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2").unwrap();
        let compiled = compile_rule(&rule, &basket_db(), JoinOrderStrategy::AsWritten).unwrap();
        assert_eq!(compiled.n_params, 2);
        assert_eq!(compiled.n_head, 1);
        let rel = execute(&compiled.plan, &basket_db()).unwrap();
        // ($1=beer, $2=diapers, B∈{1,2}) only.
        assert_eq!(rel.len(), 2);
        for t in rel.iter() {
            assert_eq!(t.get(0), Value::str("beer"));
            assert_eq!(t.get(1), Value::str("diapers"));
        }
    }

    #[test]
    fn constants_and_repeats_become_selections() {
        let rule = parse_rule("answer(B) :- baskets(B,beer)").unwrap();
        let compiled = compile_rule(&rule, &basket_db(), JoinOrderStrategy::AsWritten).unwrap();
        let rel = execute(&compiled.plan, &basket_db()).unwrap();
        assert_eq!(rel.len(), 3); // baskets 1, 2, 3

        // Self-equality: arc(X,X) style.
        let mut db = basket_db();
        db.insert(Relation::from_rows(
            Schema::new("arc", &["s", "t"]),
            vec![
                vec![Value::int(1), Value::int(1)],
                vec![Value::int(1), Value::int(2)],
            ],
        ));
        let rule = parse_rule("answer(X) :- arc(X,X)").unwrap();
        let compiled = compile_rule(&rule, &db, JoinOrderStrategy::AsWritten).unwrap();
        let rel = execute(&compiled.plan, &db).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].get(0), Value::int(1));
    }

    #[test]
    fn negation_compiles_to_antijoin() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            vec![
                vec![Value::int(1), Value::str("flu")],
                vec![Value::int(2), Value::str("flu")],
            ],
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            vec![
                vec![Value::int(1), Value::str("fever")],
                vec![Value::int(2), Value::str("rash")],
            ],
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        let rule =
            parse_rule("answer(P) :- exhibits(P,$s) AND diagnoses(P,D) AND NOT causes(D,$s)")
                .unwrap();
        let compiled = compile_rule(&rule, &db, JoinOrderStrategy::AsWritten).unwrap();
        let rel = execute(&compiled.plan, &db).unwrap();
        // Patient 1's fever is explained by flu; patient 2's rash is not.
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].get(0), Value::str("rash"));
        assert_eq!(rel.tuples()[0].get(1), Value::int(2));
    }

    #[test]
    fn all_orders_agree_on_results() {
        let rule = parse_rule("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2").unwrap();
        let db = basket_db();
        let mut results = Vec::new();
        for s in [
            JoinOrderStrategy::AsWritten,
            JoinOrderStrategy::Greedy,
            JoinOrderStrategy::OptimalDp,
        ] {
            let compiled = compile_rule(&rule, &db, s).unwrap();
            let rel = execute(&compiled.plan, &db).unwrap();
            results.push(rel.tuples().to_vec());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn filter_answer_counts_support() {
        let rule = parse_rule("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2").unwrap();
        let db = basket_db();
        let compiled = compile_rule(&rule, &db, JoinOrderStrategy::AsWritten).unwrap();
        let plan = filter_answer(&compiled, &rule, &FilterCondition::support(2)).unwrap();
        let rel = execute(&plan, &db).unwrap();
        // (beer, diapers) appears in baskets 1 and 2 → passes ≥2.
        assert_eq!(rel.len(), 1);
        let plan = filter_answer(&compiled, &rule, &FilterCondition::support(3)).unwrap();
        let rel = execute(&plan, &db).unwrap();
        assert!(rel.is_empty());
    }

    /// `compile_rule`'s plans, text for text, as they were before the
    /// body walk became the [`BodyWalk`] stepper (the server compiles
    /// one on every cache miss): the basket pair, the fig. 5 medical
    /// rule (negation), and a constant beside a repeated variable.
    #[test]
    fn body_walk_emits_the_plans_it_always_did() {
        let mut db = basket_db();
        let rows = |r: &[(i64, &str)]| -> Vec<Vec<Value>> {
            r.iter()
                .map(|&(p, v)| vec![Value::int(p), Value::str(v)])
                .collect()
        };
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            rows(&[(1, "flu"), (2, "flu"), (3, "cold")]),
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            rows(&[(1, "fever"), (2, "rash"), (2, "fever"), (3, "cough")]),
        ));
        db.insert(Relation::from_rows(
            Schema::new("treatments", &["p", "m"]),
            rows(&[(1, "zorix"), (2, "zorix")]),
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        db.insert(Relation::from_rows(
            Schema::new("arc", &["s", "t"]),
            vec![
                vec![Value::int(1), Value::int(1)],
                vec![Value::int(1), Value::int(2)],
            ],
        ));
        let pair = "\
Project [1, 3, 0]
  Select [#1 < #3]
    HashJoin [(0, 0)]
      Scan baskets
      Scan baskets
";
        let medical_as_written = "\
Project [3, 1, 0]
  AntiJoin [(5, 0), (1, 1)]
    HashJoin [(0, 0)]
      HashJoin [(0, 0)]
        Scan exhibits
        Scan treatments
      Scan diagnoses
    Scan causes
";
        let medical_ordered = "\
Project [1, 5, 0]
  AntiJoin [(3, 0), (5, 1)]
    HashJoin [(0, 0)]
      HashJoin [(0, 0)]
        Scan treatments
        Scan diagnoses
      Scan exhibits
    Scan causes
";
        let mixed_as_written = "\
Project [1, 0]
  HashJoin [(0, 0)]
    HashJoin [(0, 0), (0, 1)]
      Select [#1 != beer]
        Scan baskets
      Select [#0 = #1]
        Scan arc
    Select [#1 = beer]
      Scan baskets
";
        let mixed_greedy = "\
Project [3, 0]
  HashJoin [(0, 0)]
    Select [#3 != beer]
      HashJoin [(0, 0)]
        Select [#0 = #1]
          Scan arc
        Scan baskets
    Select [#1 = beer]
      Scan baskets
";
        use JoinOrderStrategy::{AsWritten, Greedy, OptimalDp};
        for (rule, plans) in [
            (
                "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
                [(AsWritten, pair), (Greedy, pair), (OptimalDp, pair)],
            ),
            (
                "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) \
                 AND NOT causes(D,$s)",
                [
                    (AsWritten, medical_as_written),
                    (Greedy, medical_ordered),
                    (OptimalDp, medical_ordered),
                ],
            ),
            (
                "answer(B) :- baskets(B,$1) AND arc(B,B) AND baskets(B,beer) AND $1 != beer",
                [
                    (AsWritten, mixed_as_written),
                    (Greedy, mixed_greedy),
                    (OptimalDp, mixed_as_written),
                ],
            ),
        ] {
            let rule = parse_rule(rule).unwrap();
            for (strategy, plan) in plans {
                let compiled = compile_rule(&rule, &db, strategy).unwrap();
                assert_eq!(compiled.plan.explain(), plan, "{rule} under {strategy:?}");
            }
        }
    }
}
