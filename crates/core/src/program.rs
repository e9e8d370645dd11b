//! Flock programs: intermediate predicates (views) + a flock.
//!
//! Ex. 2.2's side-effects flock assumes each patient has one disease;
//! for several diseases "we would have to extend our query-flocks
//! language to allow intermediate predicates (in particular, a
//! predicate relating patients to the set of symptoms from all their
//! diseases). That extension is feasible but we shall concentrate on
//! the simpler cases." This module is that extension:
//!
//! A [`FlockProgram`] is a set of **view rules** — non-recursive,
//! parameter-free Datalog rules defining intermediate predicates — plus
//! a query flock over base relations *and* views. Evaluation
//! materializes the views in dependency order, then evaluates the flock
//! on the extended database, so every optimizer in this crate (static
//! plans, dynamic filtering, the cost model) applies unchanged.
//!
//! Concretely, the multi-disease side-effects flock becomes:
//!
//! ```text
//! explained(P,S) :- diagnoses(P,D) AND causes(D,S)
//! QUERY:
//! answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND NOT explained(P,$s)
//! FILTER:
//! COUNT(answer.P) >= 20
//! ```

use std::collections::BTreeSet;

use qf_datalog::{check_safety, ConjunctiveQuery};
use qf_storage::{Database, Relation, Schema, Symbol};

use crate::compile::{compile_rule, JoinOrderStrategy};
use crate::error::{FlockError, Result};
use crate::flock::QueryFlock;

/// A flock plus the intermediate predicates it reads.
#[derive(Clone, Debug, PartialEq)]
pub struct FlockProgram {
    views: Vec<ConjunctiveQuery>,
    flock: QueryFlock,
}

impl FlockProgram {
    /// Build a program, checking each view rule is safe, parameter-free,
    /// and that the view dependency graph is acyclic (views may read
    /// earlier views, base relations, never themselves transitively).
    pub fn new(views: Vec<ConjunctiveQuery>, flock: QueryFlock) -> Result<FlockProgram> {
        for v in &views {
            v.validate()?;
            check_safety(v).map_err(|e| FlockError::UnsafeQuery {
                violation: format!("view `{v}`: {e}"),
            })?;
            if !v.params().is_empty() {
                return Err(FlockError::IllegalPlan {
                    detail: format!("view `{v}` mentions parameters; views must be parameter-free"),
                });
            }
        }
        let program = FlockProgram { views, flock };
        program.evaluation_order()?; // rejects recursion.
        Ok(program)
    }

    /// Parse the paper notation preceded by view rules: every rule
    /// before `QUERY:` whose head predicate is not `answer` is a view.
    ///
    /// ```text
    /// explained(P,S) :- diagnoses(P,D) AND causes(D,S)
    /// QUERY: answer(P) :- … AND NOT explained(P,$s)
    /// FILTER: COUNT(answer.P) >= 20
    /// ```
    pub fn parse(input: &str) -> Result<FlockProgram> {
        let upper = input.to_ascii_uppercase();
        let q_at = upper
            .find("QUERY:")
            .ok_or_else(|| FlockError::FilterParse {
                input: input.chars().take(40).collect(),
                detail: "missing `QUERY:` section".to_string(),
            })?;
        let views_text = &input[..q_at];
        let views = if views_text.trim().is_empty() {
            Vec::new()
        } else {
            parse_view_rules(views_text)?
        };
        let flock = QueryFlock::parse(&input[q_at..])?;
        FlockProgram::new(views, flock)
    }

    /// The view rules.
    pub fn views(&self) -> &[ConjunctiveQuery] {
        &self.views
    }

    /// The flock.
    pub fn flock(&self) -> &QueryFlock {
        &self.flock
    }

    /// Canonical rendering of the whole program: canonical view rules
    /// (sorted by text) above the flock's canonical text. Two programs
    /// that differ only in variable names, subgoal order, or rule order
    /// render identically — the program half of the server's
    /// result-cache key.
    pub fn canonical_text(&self) -> String {
        self.below_canonical_views(&self.flock.canonical_text())
    }

    /// Canonical query-only rendering (views + canonical query, filter
    /// excluded) — what the server's monotone result cache keys on, so
    /// one entry serves every subsumed support threshold.
    pub fn canonical_query_text(&self) -> String {
        self.below_canonical_views(&self.flock.canonical_query_text())
    }

    /// The canonical view rules, sorted by text, one per line, followed
    /// by `flock_text`.
    fn below_canonical_views(&self, flock_text: &str) -> String {
        let mut views: Vec<String> = self
            .views
            .iter()
            .map(|v| qf_datalog::canonical_rule(v).to_string())
            .collect();
        views.sort();
        let mut text = String::new();
        for v in &views {
            text.push_str(v);
            text.push('\n');
        }
        text.push_str(flock_text);
        text
    }

    /// The relations the program reads from its catalog: every
    /// predicate of the views and the query, negated atoms included,
    /// minus the view heads the program derives itself. The answer is a
    /// function of these relations alone (§3.1), which is what lets the
    /// server's result cache key an answer by their content.
    pub fn reads(&self) -> BTreeSet<Symbol> {
        let heads: BTreeSet<Symbol> = self.views.iter().map(|v| v.head.pred).collect();
        self.views
            .iter()
            .flat_map(ConjunctiveQuery::predicates)
            .chain(self.flock.query().predicates())
            .filter(|p| !heads.contains(p))
            .collect()
    }

    /// Syntax-insensitive fingerprint of the program (hash of
    /// [`FlockProgram::canonical_text`]).
    pub fn fingerprint(&self) -> u64 {
        crate::journal::fingerprint_text(&self.canonical_text())
    }

    /// Materialize every view into a copy of `db`, in dependency order,
    /// under an execution governor: view evaluation charges `ctx` like
    /// any other plan execution, so a runaway view blows the budget
    /// instead of memory.
    pub fn materialize_views_with(
        &self,
        db: &Database,
        strategy: JoinOrderStrategy,
        ctx: &qf_engine::ExecContext,
    ) -> Result<Database> {
        // A view named like a base relation would silently shadow it
        // (and self-referencing rules would then read their own partial
        // output): refuse.
        for v in &self.views {
            if db.contains(v.head.pred.as_str()) {
                return Err(FlockError::IllegalPlan {
                    detail: format!("view head `{}` collides with a base relation", v.head.pred),
                });
            }
        }
        let mut working = db.clone();
        for &vi in &self.evaluation_order()? {
            // Group all rules for this head predicate evaluated together
            // (the order walks head predicates, not individual rules).
            let head = self.views[vi].head.pred;
            if working.contains(head.as_str()) && !db.contains(head.as_str()) {
                continue; // already materialized via an earlier rule group.
            }
            let rules: Vec<&ConjunctiveQuery> =
                self.views.iter().filter(|v| v.head.pred == head).collect();
            let mut tuples = Vec::new();
            let mut arity = 0;
            for rule in &rules {
                let compiled = compile_rule(rule, &working, strategy)?;
                let rel = qf_engine::execute_with(&compiled.plan, &working, ctx)?;
                arity = rule.head.arity();
                tuples.extend(rel.iter().cloned());
            }
            let columns: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            working.insert(Relation::from_tuples(
                Schema::from_columns(head.to_string(), columns),
                tuples,
            ));
        }
        Ok(working)
    }

    /// Evaluate the program: materialize views, then the flock, via
    /// `optimizer`. View materialization and flock evaluation share
    /// `ctx`'s budgets, deadline and cancellation token.
    pub fn evaluate_with(
        &self,
        db: &Database,
        optimizer: &crate::optimizer::Optimizer,
        ctx: &qf_engine::ExecContext,
    ) -> Result<crate::optimizer::Evaluation> {
        let extended = self.materialize_views_with(db, optimizer.config.join_order, ctx)?;
        optimizer.evaluate_with(&self.flock, &extended, ctx)
    }

    /// Topologically order view indexes; error on recursion. Views with
    /// the same head predicate sort together (first index wins).
    fn evaluation_order(&self) -> Result<Vec<usize>> {
        let heads: BTreeSet<Symbol> = self.views.iter().map(|v| v.head.pred).collect();
        // Kahn's algorithm over head predicates.
        let depends = |v: &ConjunctiveQuery| -> BTreeSet<Symbol> {
            v.predicates().intersection(&heads).copied().collect()
        };
        let mut order = Vec::new();
        let mut done: BTreeSet<Symbol> = BTreeSet::new();
        let mut remaining: Vec<usize> = (0..self.views.len()).collect();
        while !remaining.is_empty() {
            let ready: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&i| {
                    // All rules of this head must be ready together.
                    let head = self.views[i].head.pred;
                    self.views
                        .iter()
                        .filter(|v| v.head.pred == head)
                        .all(|v| depends(v).iter().all(|d| done.contains(d) || *d == head))
                })
                .collect();
            // Self-dependency (recursion) is not allowed even though the
            // filter above tolerates `*d == head` for grouping: reject it.
            for &i in &ready {
                if depends(&self.views[i]).contains(&self.views[i].head.pred) {
                    return Err(FlockError::IllegalPlan {
                        detail: format!(
                            "view `{}` is recursive; flock views must be non-recursive",
                            self.views[i]
                        ),
                    });
                }
            }
            if ready.is_empty() {
                return Err(FlockError::IllegalPlan {
                    detail: "view rules are mutually recursive".to_string(),
                });
            }
            for i in ready {
                done.insert(self.views[i].head.pred);
                order.push(i);
                remaining.retain(|&j| j != i);
            }
        }
        Ok(order)
    }
}

/// Parse view rules: a sequence of rules with arbitrary head predicates
/// (unlike `parse_query`, which validates a shared `answer` head).
fn parse_view_rules(text: &str) -> Result<Vec<ConjunctiveQuery>> {
    // Reuse the rule parser by splitting on head predicates: the datalog
    // parser exposes single-rule parsing; walk the text rule by rule by
    // parsing greedily. Simplest robust approach: parse the whole text
    // as a union with relaxed validation by wrapping each rule; the
    // datalog crate's `parse_query` insists on equal heads, so split on
    // lines that contain `:-` starts.
    let mut rules = Vec::new();
    let mut current = String::new();
    for line in text.lines() {
        let starts_rule = line.contains(":-");
        if starts_rule && !current.trim().is_empty() {
            rules.push(qf_datalog::parse_rule(current.trim())?);
            current.clear();
        }
        current.push_str(line);
        current.push('\n');
    }
    if !current.trim().is_empty() {
        rules.push(qf_datalog::parse_rule(current.trim())?);
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The multi-disease side-effects program of the module docs, built
    /// from its parts.
    fn multi_disease_side_effects(threshold: i64) -> Result<FlockProgram> {
        let views = vec![qf_datalog::parse_rule(
            "explained(P,S) :- diagnoses(P,D) AND causes(D,S)",
        )?];
        let flock = QueryFlock::new(
            qf_datalog::UnionQuery::new(vec![qf_datalog::parse_rule(
                "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND NOT explained(P,$s)",
            )?])?,
            crate::filter::FilterCondition::support(threshold),
        )?;
        FlockProgram::new(views, flock)
    }
    use crate::Optimizer;
    use qf_engine::ExecContext;
    use qf_storage::Value;

    /// Patients with SEVERAL diseases — the exact case Ex. 2.2 says the
    /// base language cannot express.
    fn multi_disease_db() -> Database {
        let mut db = Database::new();
        let mut diagnoses = Vec::new();
        let mut exhibits = Vec::new();
        let mut treatments = Vec::new();
        // 25 patients each have BOTH flu and pox, take zorix, and show
        // fever. Flu does not cause fever, pox does → the symptom IS
        // explained, but only a multi-disease join can see it.
        for p in 0..25i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            diagnoses.push(vec![Value::int(p), Value::str("pox")]);
            exhibits.push(vec![Value::int(p), Value::str("fever")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        // 25 more patients have only flu, take zorix, show "ache" which
        // nothing causes → a true unexplained side-effect.
        for p in 25..50i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("ache")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            diagnoses,
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            exhibits,
        ));
        db.insert(Relation::from_rows(
            Schema::new("treatments", &["p", "m"]),
            treatments,
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            vec![vec![Value::str("pox"), Value::str("fever")]],
        ));
        db
    }

    #[test]
    fn multi_disease_case_handled_by_view() {
        let program = multi_disease_side_effects(20).unwrap();
        let db = multi_disease_db();
        let evaluation = program
            .evaluate_with(&db, &Optimizer::new(), &ExecContext::unbounded())
            .unwrap();
        // Only (zorix, ache) is unexplained; (zorix, fever) is explained
        // by the patients' SECOND disease, which the single-disease
        // flock of Fig. 3 would wrongly report.
        assert_eq!(evaluation.result.len(), 1);
        let t = &evaluation.result.tuples()[0];
        assert_eq!(t.get(0), Value::str("zorix"));
        assert_eq!(t.get(1), Value::str("ache"));

        // Demonstrate the paper's point: the viewless Fig. 3 flock on
        // the same data produces the false positive.
        let fig3 = QueryFlock::with_support(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s)",
            20,
        )
        .unwrap();
        let wrong = crate::eval::evaluate_direct(&fig3, &db, JoinOrderStrategy::Greedy).unwrap();
        assert!(
            wrong.iter().any(|t| t.get(1) == Value::str("fever")),
            "the single-disease flock should report the false positive"
        );
    }

    #[test]
    fn parse_program_notation() {
        let program = FlockProgram::parse(
            "explained(P,S) :- diagnoses(P,D) AND causes(D,S)
             QUERY:
             answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND NOT explained(P,$s)
             FILTER:
             COUNT(answer.P) >= 20",
        )
        .unwrap();
        assert_eq!(program.views().len(), 1);
        assert_eq!(program.flock().params().len(), 2);
        // Equivalent to the builder.
        assert_eq!(program, multi_disease_side_effects(20).unwrap());
    }

    #[test]
    fn views_may_chain() {
        let program = FlockProgram::parse(
            "hop(X,Z) :- arc(X,Y) AND arc(Y,Z)
             twohop(X,W) :- hop(X,Z) AND hop(Z,W)
             QUERY: answer(X) :- twohop($1,X)
             FILTER: COUNT(answer.X) >= 2",
        )
        .unwrap();
        let mut db = Database::new();
        // 0→1→2→3→4 plus 0→5→6→7→8: node 0 has two 4-hop targets.
        let mut rows = Vec::new();
        for (s, t) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 5),
            (5, 6),
            (6, 7),
            (7, 8),
        ] {
            rows.push(vec![Value::int(s), Value::int(t)]);
        }
        db.insert(Relation::from_rows(Schema::new("arc", &["s", "t"]), rows));
        let evaluation = program
            .evaluate_with(&db, &Optimizer::new(), &ExecContext::unbounded())
            .unwrap();
        assert_eq!(evaluation.result.len(), 1);
        assert_eq!(evaluation.result.tuples()[0].get(0), Value::int(0));
    }

    #[test]
    fn recursive_views_rejected() {
        let err = FlockProgram::parse(
            "reach(X,Y) :- arc(X,Y)
             reach(X,Z) :- reach(X,Y) AND arc(Y,Z)
             QUERY: answer(X) :- reach($1,X)
             FILTER: COUNT(answer.X) >= 2",
        )
        .unwrap_err();
        assert!(matches!(err, FlockError::IllegalPlan { .. }), "{err}");
    }

    #[test]
    fn parameterized_views_rejected() {
        let err = FlockProgram::parse(
            "v(P) :- exhibits(P,$s)
             QUERY: answer(P) :- v(P) AND treatments(P,$m)
             FILTER: COUNT(answer.P) >= 2",
        )
        .unwrap_err();
        assert!(matches!(err, FlockError::IllegalPlan { .. }));
    }

    #[test]
    fn union_views_merge_rules() {
        let program = FlockProgram::parse(
            "connected(X,Y) :- arc(X,Y)
             connected(X,Y) :- arc(Y,X)
             QUERY: answer(X) :- connected($1,X)
             FILTER: COUNT(answer.X) >= 2",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("arc", &["s", "t"]),
            vec![
                vec![Value::int(0), Value::int(1)],
                vec![Value::int(2), Value::int(0)],
            ],
        ));
        let extended = program
            .materialize_views_with(&db, JoinOrderStrategy::Greedy, &ExecContext::unbounded())
            .unwrap();
        // connected = {(0,1),(1,0),(2,0),(0,2)}.
        assert_eq!(extended.get("connected").unwrap().len(), 4);
        let evaluation = program
            .evaluate_with(&db, &Optimizer::new(), &ExecContext::unbounded())
            .unwrap();
        assert_eq!(evaluation.result.len(), 1); // $1 = 0 reaches 1 and 2.
    }

    #[test]
    fn view_shadowing_base_relation_rejected() {
        let program = FlockProgram::parse(
            "exhibits(P,S) :- diagnoses(P,S)
             QUERY: answer(P) :- exhibits(P,$s)
             FILTER: COUNT(answer.P) >= 1",
        )
        .unwrap();
        let db = multi_disease_db();
        let err = program
            .evaluate_with(&db, &Optimizer::new(), &ExecContext::unbounded())
            .unwrap_err();
        assert!(matches!(err, FlockError::IllegalPlan { .. }), "{err}");
    }

    #[test]
    fn program_canonical_text_covers_views() {
        let a = FlockProgram::parse(
            "explained(P,S) :- diagnoses(P,D) AND causes(D,S)
             QUERY: answer(P) :- exhibits(P,$s) AND NOT explained(P,$s)
             FILTER: COUNT(answer.P) >= 20",
        )
        .unwrap();
        // Renamed view variables and reordered view body.
        let b = FlockProgram::parse(
            "explained(Q,T) :- causes(E,T) AND diagnoses(Q,E)
             QUERY: answer(X) :- exhibits(X,$s) AND NOT explained(X,$s)
             FILTER: COUNT(answer(*)) >= 20",
        )
        .unwrap();
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A different view definition changes the fingerprint even when
        // the flock is identical.
        let c = FlockProgram::parse(
            "explained(P,S) :- diagnoses(P,S)
             QUERY: answer(P) :- exhibits(P,$s) AND NOT explained(P,$s)
             FILTER: COUNT(answer.P) >= 20",
        )
        .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Query-only text ignores the threshold.
        let d = FlockProgram::parse(
            "explained(P,S) :- diagnoses(P,D) AND causes(D,S)
             QUERY: answer(P) :- exhibits(P,$s) AND NOT explained(P,$s)
             FILTER: COUNT(answer.P) >= 99",
        )
        .unwrap();
        assert_eq!(a.canonical_query_text(), d.canonical_query_text());
        // Both renderings feed the result-cache key and `flock
        // fingerprint`: their bytes are pinned.
        let two_views = FlockProgram::parse(
            "explained(P,S) :- diagnoses(P,D) AND causes(D,S)
             cured(P) :- treatments(P,M) AND works(M)
             QUERY: answer(P) :- exhibits(P,$s) AND NOT explained(P,$s) AND NOT cured(P)
             FILTER: COUNT(answer.P) >= 20",
        )
        .unwrap();
        let views = "cured(V0) :- treatments(V0,V1) AND works(V1)\n\
                     explained(V0,V1) :- causes(V2,V1) AND diagnoses(V0,V2)\n";
        let query = "answer(V0) :- NOT cured(V0) AND NOT explained(V0,$s) AND exhibits(V0,$s)";
        assert_eq!(
            two_views.canonical_text(),
            format!("{views}QUERY:\n{query}\nFILTER:\nCOUNT(answer(*)) >= 20")
        );
        assert_eq!(two_views.canonical_query_text(), format!("{views}{query}"));
        assert_eq!(two_views.fingerprint(), 0x56f4_8efa_caf0_cc6c);
    }

    #[test]
    fn reads_names_base_relations_not_view_heads() {
        let program = FlockProgram::parse(
            "explained(P,S) :- diagnoses(P,D) AND causes(D,S)
             cured(P) :- explained(P,S) AND works(S)
             QUERY: answer(P) :- exhibits(P,$s) AND NOT explained(P,$s) AND NOT cured(P)
             FILTER: COUNT(answer.P) >= 20",
        )
        .unwrap();
        let reads: Vec<&str> = program.reads().into_iter().map(Symbol::as_str).collect();
        assert_eq!(reads, ["causes", "diagnoses", "exhibits", "works"]);
        // Negated atoms count: a view-less program reads them directly.
        let negated = FlockProgram::parse(
            "QUERY: answer(B) :- baskets(B,$1) AND NOT banned($1) FILTER: COUNT(answer.B) >= 1",
        )
        .unwrap();
        let reads: Vec<&str> = negated.reads().into_iter().map(Symbol::as_str).collect();
        assert_eq!(reads, ["banned", "baskets"]);
    }

    #[test]
    fn program_without_views_is_a_flock() {
        let program = FlockProgram::parse(
            "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2)
             FILTER: COUNT(answer.B) >= 1",
        )
        .unwrap();
        assert!(program.views().is_empty());
    }
}
