//! **E4 — Fig. 4, Ex. 3.3.** The strongly-connected-words flock: a
//! union of three extended conjunctive queries. The Ex. 3.3
//! optimization prefilters word `$1` (and `$2`) by the **union of
//! per-branch safe subqueries** — a word qualifies only if its summed
//! appearances across title/anchor/anchor-target reach support.
//!
//! Measured: direct union evaluation vs. the union-prefiltered plan,
//! with result equality asserted and the planted strongly-connected
//! pairs recovered.

use std::collections::BTreeSet;

use qf_core::{
    evaluate_direct, execute_plan_with, param_set_plan, ExecContext, JoinOrderStrategy, QueryFlock,
};
use qf_storage::{Symbol, Value};

use crate::table::{fmt_duration, Table};
use crate::timing::{speedup, time_median};
use crate::workloads::web_data;
use crate::Scale;

/// The Fig. 4 flock.
pub fn fig4_flock(threshold: i64) -> QueryFlock {
    QueryFlock::parse(&format!(
        "QUERY:
         answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
         answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
         FILTER: COUNT(answer(*)) >= {threshold}"
    ))
    .expect("static flock text")
}

/// Run E4.
pub fn run(scale: Scale) -> Vec<Table> {
    let data = web_data(scale);
    let db = &data.db;
    let thresholds: &[i64] = match scale {
        Scale::Small => &[5, 10],
        Scale::Full => &[10, 20, 40],
    };

    let mut table = Table::new(
        "E4 (Fig. 4, Ex. 3.3): union flock for strongly connected words",
        &[
            "support",
            "direct union",
            "union-prefiltered",
            "speedup",
            "pairs",
            "planted found",
        ],
    );
    table.note(format!(
        "corpus: {} title tuples, {} anchor tuples, {} links; {} planted pairs",
        db.get("inTitle").unwrap().len(),
        db.get("inAnchor").unwrap().len(),
        db.get("link").unwrap().len(),
        data.planted.len()
    ));
    table.note(
        "The prefilter is the Ex. 3.3 union of one safe subquery per branch: \
         a word's title + anchor + anchor-target counts must jointly reach \
         support."
            .to_string(),
    );

    let p1: BTreeSet<Symbol> = [Symbol::intern("1")].into_iter().collect();
    let p2: BTreeSet<Symbol> = [Symbol::intern("2")].into_iter().collect();
    for &threshold in thresholds {
        let flock = fig4_flock(threshold);
        let (direct, direct_t) = time_median(3, || {
            evaluate_direct(&flock, db, JoinOrderStrategy::Greedy).unwrap()
        });
        let plan = param_set_plan(&flock, db, &[p1.clone(), p2.clone()]).unwrap();
        let (planned, plan_t) = time_median(3, || {
            execute_plan_with(
                &plan,
                db,
                JoinOrderStrategy::Greedy,
                &ExecContext::unbounded(),
            )
            .unwrap()
        });
        assert_eq!(direct.tuples(), planned.result.tuples());

        let planted_found = data
            .planted
            .iter()
            .filter(|(a, b)| {
                direct
                    .iter()
                    .any(|t| t.get(0) == Value::str(a) && t.get(1) == Value::str(b))
            })
            .count();
        table.row(vec![
            threshold.to_string(),
            fmt_duration(direct_t),
            fmt_duration(plan_t),
            format!("{:.1}x", speedup(direct_t, plan_t)),
            direct.len().to_string(),
            format!("{planted_found}/{}", data.planted.len()),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_runs_and_finds_planted() {
        let tables = run(Scale::Small);
        let first = &tables[0].rows[0];
        assert_eq!(first[5], "3/3", "planted pairs must be mined: {first:?}");
    }
}
