//! Abstract syntax for the query-flock language: unions of extended
//! conjunctive queries (§2.3).

use std::collections::BTreeSet;

use qf_storage::{CmpOp, Symbol, Value};

use crate::error::{DatalogError, Result};

/// A term: a variable, a `$`-parameter, or a constant.
///
/// Variables are ordinary Datalog variables (`B`, `P`, `Y1`);
/// parameters are "used in roles normally reserved for constants" (§2)
/// and are what the flock is *about*. "Parameters are variables, not
/// constants, as far as the … safety conditions are concerned" (§3.3) —
/// but for containment mappings they behave as constants (they stand
/// for a fixed, if unknown, value in every instantiated query).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A query variable, e.g. `B`.
    Var(Symbol),
    /// A flock parameter, e.g. `$1` (stored without the `$`).
    Param(Symbol),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Variable term from a name.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Parameter term from a name (without the `$`).
    pub fn param(name: &str) -> Term {
        Term::Param(Symbol::intern(name))
    }

    /// Constant term.
    pub fn constant(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// True for `Term::Var`.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// True for `Term::Const`.
    pub fn is_const(self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Var(s) => write!(f, "{s}"),
            Term::Param(s) => write!(f, "${s}"),
            Term::Const(v) => write!(f, "{v}"),
        }
    }
}

impl std::fmt::Debug for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

/// A relational atom: `pred(t1, …, tk)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate symbol.
    pub pred: Symbol,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(pred: &str, args: Vec<Term>) -> Atom {
        Atom {
            pred: Symbol::intern(pred),
            args,
        }
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Variables appearing in the atom, in argument order (with dups).
    pub fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.args.iter().filter_map(|t| match t {
            Term::Var(s) => Some(*s),
            _ => None,
        })
    }

    /// Parameters appearing in the atom.
    pub fn params(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.args.iter().filter_map(|t| match t {
            Term::Param(s) => Some(*s),
            _ => None,
        })
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl std::fmt::Debug for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

/// An arithmetic subgoal: `lhs op rhs` (§2.3 extension 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Comparison {
    /// Left term.
    pub lhs: Term,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: Term,
}

impl Comparison {
    /// Build a comparison subgoal.
    pub fn new(lhs: Term, op: CmpOp, rhs: Term) -> Comparison {
        Comparison { lhs, op, rhs }
    }

    /// The non-constant terms of the comparison.
    pub fn terms(&self) -> impl Iterator<Item = Term> {
        [self.lhs, self.rhs].into_iter().filter(|t| !t.is_const())
    }
}

impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

impl std::fmt::Debug for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

/// A body literal: positive relational, negated relational (§2.3
/// extension 1), or arithmetic.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// `p(…)`
    Pos(Atom),
    /// `NOT p(…)`
    Neg(Atom),
    /// `X < Y` etc.
    Cmp(Comparison),
}

impl Literal {
    /// The atom, if relational (positive or negated).
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp(_) => None,
        }
    }

    /// True for positive relational literals.
    pub fn is_positive(&self) -> bool {
        matches!(self, Literal::Pos(_))
    }

    /// All variable and parameter terms mentioned by the literal.
    pub fn open_terms(&self) -> Vec<Term> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => {
                a.args.iter().copied().filter(|t| !t.is_const()).collect()
            }
            Literal::Cmp(c) => c.terms().collect(),
        }
    }
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "NOT {a}"),
            Literal::Cmp(c) => write!(f, "{c}"),
        }
    }
}

impl std::fmt::Debug for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

/// An extended conjunctive query: `head :- l1 AND … AND ln`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// Head atom (`answer(B)`); arguments must be variables.
    pub head: Atom,
    /// Body literals.
    pub body: Vec<Literal>,
}

impl ConjunctiveQuery {
    /// Build a query.
    pub fn new(head: Atom, body: Vec<Literal>) -> ConjunctiveQuery {
        ConjunctiveQuery { head, body }
    }

    /// The distinct parameters of the query, sorted by name.
    pub fn params(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for l in &self.body {
            for t in l.open_terms() {
                if let Term::Param(s) = t {
                    out.insert(s);
                }
            }
        }
        out
    }

    /// The distinct variables of head and body, sorted by name.
    pub fn vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for t in &self.head.args {
            if let Term::Var(s) = t {
                out.insert(*s);
            }
        }
        for l in &self.body {
            for t in l.open_terms() {
                if let Term::Var(s) = t {
                    out.insert(s);
                }
            }
        }
        out
    }

    /// Variables appearing in the head.
    pub fn head_vars(&self) -> BTreeSet<Symbol> {
        self.head.vars().collect()
    }

    /// Positive relational atoms of the body.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// Negated relational atoms of the body.
    pub fn negated_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a),
            _ => None,
        })
    }

    /// Arithmetic subgoals of the body.
    pub fn comparisons(&self) -> impl Iterator<Item = &Comparison> {
        self.body.iter().filter_map(|l| match l {
            Literal::Cmp(c) => Some(c),
            _ => None,
        })
    }

    /// Names of all predicates used in the body (base data the query
    /// reads), sorted and deduplicated.
    pub fn predicates(&self) -> BTreeSet<Symbol> {
        self.body
            .iter()
            .filter_map(Literal::atom)
            .map(|a| a.pred)
            .collect()
    }

    /// The query restricted to the body literals at `kept` (same head).
    pub fn restrict(&self, kept: &[usize]) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self.head.clone(),
            body: kept.iter().map(|&i| self.body[i].clone()).collect(),
        }
    }

    /// A copy with extra literals appended (plan generation adds
    /// prior-step subgoals this way, §4.2 rule 3b).
    pub fn with_extra(&self, extra: Vec<Literal>) -> ConjunctiveQuery {
        let mut body = Vec::with_capacity(extra.len() + self.body.len());
        body.extend(extra);
        body.extend(self.body.iter().cloned());
        ConjunctiveQuery {
            head: self.head.clone(),
            body,
        }
    }

    /// Validate structural invariants: head args are variables, every
    /// head variable also occurs somewhere in the body (the head half of
    /// safety; the full safety check is [`crate::safety::check_safety`]).
    pub fn validate(&self) -> Result<()> {
        for t in &self.head.args {
            if !t.is_var() {
                return Err(DatalogError::InvalidHead {
                    detail: format!("head argument `{t}` is not a variable"),
                });
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

/// A union of extended conjunctive queries (§3.4): several rules with
/// the same head predicate, arity, and parameter set.
#[derive(Clone, PartialEq, Eq)]
pub struct UnionQuery {
    rules: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Build and validate a union query.
    pub fn new(rules: Vec<ConjunctiveQuery>) -> Result<UnionQuery> {
        if rules.is_empty() {
            return Err(DatalogError::EmptyUnion);
        }
        let first = &rules[0];
        for r in &rules {
            r.validate()?;
            if r.head.pred != first.head.pred || r.head.arity() != first.head.arity() {
                return Err(DatalogError::HeadMismatch {
                    first: first.head.to_string(),
                    other: r.head.to_string(),
                });
            }
            if r.params() != first.params() {
                return Err(DatalogError::ParamMismatch {
                    first: format_params(&first.params()),
                    other: format_params(&r.params()),
                });
            }
        }
        Ok(UnionQuery { rules })
    }

    /// A single-rule union.
    pub fn single(rule: ConjunctiveQuery) -> Result<UnionQuery> {
        UnionQuery::new(vec![rule])
    }

    /// The rules.
    pub fn rules(&self) -> &[ConjunctiveQuery] {
        &self.rules
    }

    /// True if the union has exactly one rule.
    pub fn is_single(&self) -> bool {
        self.rules.len() == 1
    }

    /// The shared parameter set, sorted by name.
    pub fn params(&self) -> BTreeSet<Symbol> {
        self.rules[0].params()
    }

    /// Head predicate name.
    pub fn head_pred(&self) -> Symbol {
        self.rules[0].head.pred
    }

    /// Head arity.
    pub fn head_arity(&self) -> usize {
        self.rules[0].head.arity()
    }

    /// All base predicates read by any rule.
    pub fn predicates(&self) -> BTreeSet<Symbol> {
        self.rules.iter().flat_map(|r| r.predicates()).collect()
    }
}

impl std::fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for UnionQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

fn format_params(params: &BTreeSet<Symbol>) -> String {
    params
        .iter()
        .map(|p| format!("${p}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 2 market-basket query built programmatically.
    fn basket_cq() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            Atom::new("answer", vec![Term::var("B")]),
            vec![
                Literal::Pos(Atom::new("baskets", vec![Term::var("B"), Term::param("1")])),
                Literal::Pos(Atom::new("baskets", vec![Term::var("B"), Term::param("2")])),
            ],
        )
    }

    #[test]
    fn params_and_vars() {
        let q = basket_cq();
        let params: Vec<String> = q.params().iter().map(|p| p.to_string()).collect();
        assert_eq!(params, vec!["1", "2"]);
        let vars: Vec<String> = q.vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(vars, vec!["B"]);
    }

    #[test]
    fn display_roundtrips_meaningfully() {
        let q = basket_cq();
        assert_eq!(
            q.to_string(),
            "answer(B) :- baskets(B,$1) AND baskets(B,$2)"
        );
    }

    #[test]
    fn restrict_picks_subgoals() {
        let q = basket_cq();
        let sub = q.restrict(&[0]);
        assert_eq!(sub.to_string(), "answer(B) :- baskets(B,$1)");
        assert_eq!(sub.params().len(), 1);
    }

    #[test]
    fn head_must_be_variables() {
        let bad = ConjunctiveQuery::new(
            Atom::new("answer", vec![Term::param("1")]),
            vec![Literal::Pos(Atom::new("r", vec![Term::param("1")]))],
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn union_param_sets_must_agree() {
        let r1 = basket_cq();
        let r2 = r1.restrict(&[0]); // only $1
        let err = UnionQuery::new(vec![r1, r2]).unwrap_err();
        assert!(matches!(err, DatalogError::ParamMismatch { .. }));
    }

    #[test]
    fn union_heads_must_agree() {
        let r1 = basket_cq();
        let mut r2 = basket_cq();
        r2.head = Atom::new("other", vec![Term::var("B")]);
        assert!(matches!(
            UnionQuery::new(vec![r1, r2]).unwrap_err(),
            DatalogError::HeadMismatch { .. }
        ));
    }

    #[test]
    fn empty_union_rejected() {
        assert!(matches!(
            UnionQuery::new(vec![]).unwrap_err(),
            DatalogError::EmptyUnion
        ));
    }

    #[test]
    fn with_extra_prepends() {
        let q = basket_cq();
        let extra = Literal::Pos(Atom::new("ok", vec![Term::param("1")]));
        let q2 = q.with_extra(vec![extra]);
        assert_eq!(q2.body.len(), 3);
        assert!(q2.to_string().starts_with("answer(B) :- ok($1)"));
    }

    #[test]
    fn comparison_terms_skip_constants() {
        let c = Comparison::new(Term::var("X"), CmpOp::Lt, Term::constant(5i64));
        assert_eq!(c.terms().count(), 1);
    }
}
