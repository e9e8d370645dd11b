//! **E5 — Figs. 6 & 7, Ex. 4.3.** The "pathological" path flock: does
//! node `$1` have ≥ c successors from which a length-n path extends?
//!
//! Fig. 7's (n+1)-step plan chains a `FILTER` after every prefix — each
//! `ok_i` feeds `ok_{i+1}` — so nodes without enough successors never
//! join into the long path. We sweep n and compare the chain plan with
//! direct evaluation; the paper's point is that the chain's advantage
//! *grows with n*, which is why no exponential plan space can contain
//! all the good plans.

use qf_core::{
    chain_plan, evaluate_direct, execute_plan_with, ExecContext, JoinOrderStrategy, QueryFlock,
};

use crate::table::{fmt_duration, Table};
use crate::timing::{speedup, time_median};
use crate::workloads::graph_db;
use crate::Scale;

/// The Fig. 6 flock with a length-`n` extension after the first arc.
pub fn path_flock(n: usize, threshold: i64) -> QueryFlock {
    let mut body = vec!["arc($1,X)".to_string()];
    let mut prev = "X".to_string();
    for i in 1..=n {
        let next = format!("Y{i}");
        body.push(format!("arc({prev},{next})"));
        prev = next;
    }
    QueryFlock::with_support(&format!("answer(X) :- {}", body.join(" AND ")), threshold)
        .expect("static flock text")
}

/// Run E5.
pub fn run(scale: Scale) -> Vec<Table> {
    let db = graph_db(scale);
    let (ns, threshold): (&[usize], i64) = match scale {
        Scale::Small => (&[1, 2, 3], 10),
        Scale::Full => (&[1, 2, 3, 4, 5], 20),
    };

    let mut table = Table::new(
        "E5 (Figs. 6–7, Ex. 4.3): path flock, direct vs. (n+1)-step chain plan",
        &[
            "path n",
            "chain steps",
            "direct",
            "chain plan",
            "speedup",
            "nodes found",
        ],
    );
    table.note(format!(
        "graph: {} arcs over hub-structured random digraph, support {}",
        db.get("arc").unwrap().len(),
        threshold
    ));

    for &n in ns {
        let flock = path_flock(n, threshold);
        let (direct, direct_t) = time_median(3, || {
            evaluate_direct(&flock, &db, JoinOrderStrategy::AsWritten).unwrap()
        });
        let plan = chain_plan(&flock).unwrap();
        let (chained, chain_t) = time_median(3, || {
            execute_plan_with(
                &plan,
                &db,
                JoinOrderStrategy::AsWritten,
                &ExecContext::unbounded(),
            )
            .unwrap()
        });
        assert_eq!(direct.tuples(), chained.result.tuples(), "n={n}");
        table.row(vec![
            n.to_string(),
            plan.len().to_string(),
            fmt_duration(direct_t),
            fmt_duration(chain_t),
            format!("{:.1}x", speedup(direct_t, chain_t)),
            direct.len().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_runs_and_chain_wins_eventually() {
        let tables = run(Scale::Small);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 3);
        // The chain plan should win at the largest n.
        let last_speedup: f64 = rows.last().unwrap()[4]
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(
            last_speedup > 1.0,
            "chain should win at n=3: {last_speedup}x"
        );
    }

    #[test]
    fn flock_text_shape() {
        let f = path_flock(2, 20);
        assert_eq!(
            f.query().to_string(),
            "answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2)"
        );
    }
}
