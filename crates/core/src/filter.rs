//! Flock filter conditions.
//!
//! A filter "specifies a condition that the result of the query must
//! satisfy in order for a given assignment of values to the parameters
//! to be acceptable" (§2). The paper's principal results concern
//! *support* filters — a lower bound on the size of the query result —
//! and its future-work section (§5) extends the machinery to any
//! **monotone** condition: "if the condition is true for a given set
//! then it must also be true for any superset", naming `COUNT`, `MIN`,
//! `MAX`, and `SUM` of non-negative numbers.
//!
//! Monotonicity is what makes a-priori pruning *sound*: a subquery's
//! answer is a superset of the full query's answer, so a parameter
//! value failing a monotone condition on the superset must fail it on
//! the subset too.

use qf_storage::{CmpOp, Symbol, Value};

use crate::error::{FlockError, Result};

/// The aggregate a filter applies to the query result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterAgg {
    /// `COUNT(answer.X)` / `COUNT(answer(*))` — the number of (distinct,
    /// under set semantics) answer tuples.
    Count,
    /// `SUM(answer.W)` over head variable `W` (Fig. 10).
    Sum(Symbol),
    /// `MIN(answer.W)`.
    Min(Symbol),
    /// `MAX(answer.W)`.
    Max(Symbol),
}

impl FilterAgg {
    /// The head variable the aggregate reads, if any.
    pub fn head_var(self) -> Option<Symbol> {
        match self {
            FilterAgg::Count => None,
            FilterAgg::Sum(v) | FilterAgg::Min(v) | FilterAgg::Max(v) => Some(v),
        }
    }

    /// The same aggregate reading a different head variable (`COUNT`
    /// is unchanged). Used by canonicalization to replace the raw
    /// variable with its positional name.
    pub fn with_var(self, v: Symbol) -> FilterAgg {
        match self {
            FilterAgg::Count => FilterAgg::Count,
            FilterAgg::Sum(_) => FilterAgg::Sum(v),
            FilterAgg::Min(_) => FilterAgg::Min(v),
            FilterAgg::Max(_) => FilterAgg::Max(v),
        }
    }

    /// SQL/paper spelling.
    pub fn name(self) -> &'static str {
        match self {
            FilterAgg::Count => "COUNT",
            FilterAgg::Sum(_) => "SUM",
            FilterAgg::Min(_) => "MIN",
            FilterAgg::Max(_) => "MAX",
        }
    }
}

/// A filter condition: `AGG(answer…) op threshold`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FilterCondition {
    /// Aggregate over the answer set.
    pub agg: FilterAgg,
    /// Comparison against the threshold.
    pub op: CmpOp,
    /// Threshold constant.
    pub threshold: i64,
}

impl FilterCondition {
    /// The paper's standard support filter: `COUNT(answer) >= threshold`.
    pub fn support(threshold: i64) -> FilterCondition {
        FilterCondition {
            agg: FilterAgg::Count,
            op: CmpOp::Ge,
            threshold,
        }
    }

    /// Is this condition monotone (true of a set ⇒ true of supersets)?
    ///
    /// Pruning with subquery upper bounds is only sound for monotone
    /// conditions; plan generation refuses non-monotone filters.
    pub fn is_monotone(&self) -> bool {
        match (self.agg, self.op) {
            // Growing a set can only increase COUNT, SUM (of
            // non-negative numbers), and MAX…
            (FilterAgg::Count | FilterAgg::Sum(_) | FilterAgg::Max(_), CmpOp::Ge | CmpOp::Gt) => {
                true
            }
            // …and only decrease MIN.
            (FilterAgg::Min(_), CmpOp::Le | CmpOp::Lt) => true,
            _ => false,
        }
    }

    /// Apply the condition to an aggregate value produced by the engine.
    pub fn accepts(&self, agg_value: Value) -> bool {
        self.op.eval(agg_value.cmp(&Value::int(self.threshold)))
    }

    /// Does every aggregate value accepted by `other` pass `self` too?
    ///
    /// When true, a materialized *scored* result for `self` (parameter
    /// tuples paired with their aggregate values) answers `other`
    /// exactly, by re-filtering rows with [`FilterCondition::accepts`] —
    /// the server's monotone cache reuse: a run at support `s` serves
    /// any later request at `s' ≥ s`.
    ///
    /// The aggregates are compared by their raw `Symbol`, so both sides
    /// must name the aggregate column the same way. Variable names are
    /// spelling, not semantics — `SUM(answer.W)` means different columns
    /// in `answer(B,W)` and `answer(W,Z)` — so callers comparing filters
    /// of *different* programs (the result cache) must first resolve the
    /// variable to its head position via
    /// [`QueryFlock::canonical_filter`](crate::QueryFlock::canonical_filter).
    pub fn subsumes(&self, other: &FilterCondition) -> bool {
        if self.agg != other.agg {
            return false;
        }
        // Threshold arithmetic saturates: thresholds are client-
        // controlled, and `i64::MIN - 1` / `i64::MAX + 1` must not
        // panic. Saturation keeps the comparison exact — at `MIN` the
        // `>=` baseline accepts every value (subsumes any `>`), and at
        // `MAX` the `<=` baseline accepts every value (subsumes any
        // `<`), which is what the clamped bound yields.
        match (self.op, other.op) {
            // `agg >= s` covers `agg >= s'` (and `agg > s'`) for s' ≥ s.
            (CmpOp::Ge, CmpOp::Ge) | (CmpOp::Gt, CmpOp::Gt) => other.threshold >= self.threshold,
            (CmpOp::Ge, CmpOp::Gt) => other.threshold >= self.threshold.saturating_sub(1),
            (CmpOp::Gt, CmpOp::Ge) => other.threshold > self.threshold,
            // Dually for upper bounds.
            (CmpOp::Le, CmpOp::Le) | (CmpOp::Lt, CmpOp::Lt) => other.threshold <= self.threshold,
            (CmpOp::Le, CmpOp::Lt) => other.threshold <= self.threshold.saturating_add(1),
            (CmpOp::Lt, CmpOp::Le) => other.threshold < self.threshold,
            // Equality/inequality only answers itself.
            (CmpOp::Eq, CmpOp::Eq) | (CmpOp::Ne, CmpOp::Ne) => other.threshold == self.threshold,
            _ => false,
        }
    }

    /// Render in the paper's `FILTER:` notation over head variable(s).
    pub fn render(&self, head_pred: &str) -> String {
        let arg = match self.agg.head_var() {
            Some(v) => format!("{head_pred}.{v}"),
            None => format!("{head_pred}(*)"),
        };
        format!(
            "{}({arg}) {} {}",
            self.agg.name(),
            self.op.symbol(),
            self.threshold
        )
    }

    /// Parse `COUNT(answer.B) >= 20`, `COUNT(answer(*)) >= 20`,
    /// `SUM(answer.W) >= 20`, etc.
    pub fn parse(input: &str) -> Result<FilterCondition> {
        let s = input.trim();
        let open = s.find('(').ok_or_else(|| bad(s, "expected `(`"))?;
        let agg_name = s[..open].trim().to_ascii_uppercase();
        let close = s.rfind(')').ok_or_else(|| bad(s, "expected `)`"))?;
        if close < open {
            return Err(bad(s, "mismatched parentheses"));
        }
        let inner = s[open + 1..close].trim();
        let rest = s[close + 1..].trim();

        // inner: `answer.B` or `answer(*)` (with its own parens consumed
        // by rfind — handle `answer(*` remnant) or bare `answer`.
        let var = inner
            .find('.')
            .map(|dot| inner[dot + 1..].trim().to_string());

        let agg = match (agg_name.as_str(), &var) {
            ("COUNT", _) => FilterAgg::Count,
            ("SUM", Some(v)) => FilterAgg::Sum(Symbol::intern(v)),
            ("MIN", Some(v)) => FilterAgg::Min(Symbol::intern(v)),
            ("MAX", Some(v)) => FilterAgg::Max(Symbol::intern(v)),
            (other, None) => {
                return Err(bad(
                    s,
                    format!("{other} requires a column, e.g. {other}(answer.W)"),
                ))
            }
            (other, _) => return Err(bad(s, format!("unknown aggregate `{other}`"))),
        };

        // rest: `>= 20` etc.
        let (op, num) = if let Some(n) = rest.strip_prefix(">=") {
            (CmpOp::Ge, n)
        } else if let Some(n) = rest.strip_prefix("<=") {
            (CmpOp::Le, n)
        } else if let Some(n) = rest.strip_prefix("!=") {
            (CmpOp::Ne, n)
        } else if let Some(n) = rest.strip_prefix('>') {
            (CmpOp::Gt, n)
        } else if let Some(n) = rest.strip_prefix('<') {
            (CmpOp::Lt, n)
        } else if let Some(n) = rest.strip_prefix('=') {
            (CmpOp::Eq, n)
        } else {
            return Err(bad(s, "expected comparison operator after aggregate"));
        };
        let threshold: i64 = num
            .trim()
            .parse()
            .map_err(|_| bad(s, format!("bad threshold `{}`", num.trim())))?;
        Ok(FilterCondition { agg, op, threshold })
    }
}

fn bad(input: &str, detail: impl Into<String>) -> FlockError {
    FlockError::FilterParse {
        input: input.to_string(),
        detail: detail.into(),
    }
}

impl std::fmt::Display for FilterCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render("answer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted support (Fig. 10): `SUM(answer.w) >= threshold`.
    fn weighted_support(weight_var: &str, threshold: i64) -> FilterCondition {
        FilterCondition {
            agg: FilterAgg::Sum(Symbol::intern(weight_var)),
            op: CmpOp::Ge,
            threshold,
        }
    }

    #[test]
    fn support_is_monotone() {
        assert!(FilterCondition::support(20).is_monotone());
        assert!(weighted_support("W", 20).is_monotone());
    }

    #[test]
    fn non_monotone_detected() {
        // COUNT <= 20: growing the set can invalidate it.
        let c = FilterCondition {
            agg: FilterAgg::Count,
            op: CmpOp::Le,
            threshold: 20,
        };
        assert!(!c.is_monotone());
        // MIN >= is anti-monotone; MIN <= is monotone.
        let min_ge = FilterCondition {
            agg: FilterAgg::Min(Symbol::intern("W")),
            op: CmpOp::Ge,
            threshold: 5,
        };
        assert!(!min_ge.is_monotone());
        let min_le = FilterCondition {
            agg: FilterAgg::Min(Symbol::intern("W")),
            op: CmpOp::Le,
            threshold: 5,
        };
        assert!(min_le.is_monotone());
    }

    #[test]
    fn accepts_applies_threshold() {
        let c = FilterCondition::support(20);
        assert!(c.accepts(Value::int(20)));
        assert!(c.accepts(Value::int(100)));
        assert!(!c.accepts(Value::int(19)));
    }

    #[test]
    fn parse_paper_forms() {
        let c = FilterCondition::parse("COUNT(answer.B) >= 20").unwrap();
        assert_eq!(c, FilterCondition::support(20));

        let c = FilterCondition::parse("COUNT(answer(*)) >= 20").unwrap();
        assert_eq!(c, FilterCondition::support(20));

        let c = FilterCondition::parse("SUM(answer.W) >= 20").unwrap();
        assert_eq!(c, weighted_support("W", 20));

        let c = FilterCondition::parse("MIN(answer.W) <= 3").unwrap();
        assert!(c.is_monotone());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FilterCondition::parse("COUNT answer >= 20").is_err());
        assert!(FilterCondition::parse("SUM(answer(*)) >= 20").is_err());
        assert!(FilterCondition::parse("AVG(answer.W) >= 20").is_err());
        assert!(FilterCondition::parse("COUNT(answer.B) >= lots").is_err());
        assert!(FilterCondition::parse("COUNT(answer.B) ~ 20").is_err());
    }

    #[test]
    fn subsumption_covers_tightened_thresholds() {
        let base = FilterCondition::support(10);
        assert!(base.subsumes(&FilterCondition::support(10)));
        assert!(base.subsumes(&FilterCondition::support(25)));
        assert!(!base.subsumes(&FilterCondition::support(9)));
        // `COUNT > 9` and `COUNT >= 10` accept the same integers.
        let gt9 = FilterCondition {
            agg: FilterAgg::Count,
            op: CmpOp::Gt,
            threshold: 9,
        };
        assert!(base.subsumes(&gt9));
        assert!(gt9.subsumes(&base));
        // Different aggregates never subsume.
        assert!(!base.subsumes(&weighted_support("W", 25)));
        // MIN upper bounds are the dual: smaller threshold tightens.
        let min = |t| FilterCondition {
            agg: FilterAgg::Min(Symbol::intern("W")),
            op: CmpOp::Le,
            threshold: t,
        };
        assert!(min(5).subsumes(&min(3)));
        assert!(!min(3).subsumes(&min(5)));
    }

    #[test]
    fn subsumption_thresholds_at_i64_extremes_do_not_panic() {
        let ge = |t| FilterCondition {
            agg: FilterAgg::Count,
            op: CmpOp::Ge,
            threshold: t,
        };
        let gt = |t| FilterCondition {
            agg: FilterAgg::Count,
            op: CmpOp::Gt,
            threshold: t,
        };
        // `COUNT >= MIN` accepts every value, so it subsumes any `>`.
        assert!(ge(i64::MIN).subsumes(&gt(i64::MIN)));
        assert!(ge(i64::MIN).subsumes(&gt(42)));
        assert!(!gt(i64::MIN).subsumes(&ge(i64::MIN)));
        // Dual: `MIN <= MAX` accepts every value, subsumes any `<`.
        let le = |t| FilterCondition {
            agg: FilterAgg::Min(Symbol::intern("W")),
            op: CmpOp::Le,
            threshold: t,
        };
        let lt = |t| FilterCondition {
            agg: FilterAgg::Min(Symbol::intern("W")),
            op: CmpOp::Lt,
            threshold: t,
        };
        assert!(le(i64::MAX).subsumes(&lt(i64::MAX)));
        assert!(le(i64::MAX).subsumes(&lt(0)));
        assert!(!lt(i64::MAX).subsumes(&le(i64::MAX)));
    }

    #[test]
    fn render_roundtrip() {
        let c = FilterCondition::support(20);
        assert_eq!(c.render("answer"), "COUNT(answer(*)) >= 20");
        let parsed = FilterCondition::parse(&c.render("answer")).unwrap();
        assert_eq!(parsed, c);
    }
}
