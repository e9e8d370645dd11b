//! The correctness oracle: the benchmark's own mirror of the catalog
//! and `qf_core::evaluate_direct` on it — the monolithic Fig. 1 plan,
//! sharing no cache, plan search or delta code with the servers.
//!
//! Answers are computed once per distinct (flock, catalog state),
//! outside set-up and outside the timed section.

use std::collections::HashMap;

use qf_core::{evaluate_direct, FlockProgram, JoinOrderStrategy};
use qf_storage::Database;

use crate::data;
use crate::workload::{Plan, Script};

/// Catalog states are numbered: 0 is the catalog as loaded. With a
/// batch stream, iteration `i`'s append leaves state `1 + 2·(i mod
/// pool)` and its retraction (every 4th) state `2 + 2·(i mod pool)`.
pub fn state_after(pool: usize, iteration: usize, retracted: bool) -> usize {
    1 + 2 * (iteration % pool) + usize::from(retracted)
}

pub struct Oracle {
    /// `(text index, state)` → the expected response body's lines,
    /// sorted.
    expected: HashMap<(usize, usize), Vec<String>>,
}

fn sorted_lines(body: &str) -> Vec<String> {
    let mut lines: Vec<String> = body.lines().map(String::from).collect();
    lines.sort_unstable();
    lines
}

fn answer(text: &str, db: &Database) -> Result<Vec<String>, String> {
    let program = FlockProgram::parse(text).map_err(|e| format!("{text}: {e}"))?;
    let result = evaluate_direct(program.flock(), db, JoinOrderStrategy::Greedy)
        .map_err(|e| format!("{text}: {e}"))?;
    Ok(sorted_lines(&data::render(&result)))
}

impl Oracle {
    pub fn build(plan: &Plan) -> Result<Oracle, String> {
        let mut expected = HashMap::new();
        let mut db = data::mirror(plan.all_tables());
        // Flocks no writer disturbs are checked against state 0 only.
        let (count, max) = plan
            .scripts
            .iter()
            .find_map(|s| match s {
                Script::Ingest { count, max } => Some((Some(*count), Some(*max))),
                Script::Flocks { .. } => None,
            })
            .unwrap_or((None, None));
        for (i, text) in plan.texts.iter().enumerate() {
            if Some(i) != count && Some(i) != max {
                expected.insert((i, 0), answer(text, &db)?);
            }
        }
        if let (Some(live), Some(count), Some(max)) = (&plan.live, count, max) {
            // The mirror follows one full cycle of the stream; after
            // that the catalog repeats.
            let (window, pool) = (plan.sizes.window, plan.sizes.pool);
            for i in 0..pool {
                let front = i - i % 4;
                let appended = live.delta(front, window + 1 + i % 4);
                db.insert(data::parse(&appended));
                expected.insert(
                    (count, state_after(pool, i, false)),
                    answer(&plan.texts[count], &db)?,
                );
                if i % 4 == 3 {
                    db.insert(data::parse(&live.delta(front + 4, window)));
                    expected.insert(
                        (max, state_after(pool, i, true)),
                        answer(&plan.texts[max], &db)?,
                    );
                }
            }
        }
        Ok(Oracle { expected })
    }

    /// Is `body` the right answer to text `text` in catalog `state`?
    /// Byte-for-byte, after sorting lines.
    pub fn check(&self, text: usize, state: usize, body: &str) -> Result<(), String> {
        let want = self.expected.get(&(text, state)).ok_or(format!(
            "no reference answer for text {text} in state {state}"
        ))?;
        let got = sorted_lines(body);
        if &got == want {
            return Ok(());
        }
        let missing = want.iter().filter(|l| !got.contains(l)).count();
        let extra = got.iter().filter(|l| !want.contains(l)).count();
        Err(format!(
            "{} line(s) expected, {} returned: {missing} missing, {extra} unexpected",
            want.len(),
            got.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Sizes;
    use crate::workload::spec;

    #[test]
    fn stream_states_cycle_with_the_pool() {
        assert_eq!(state_after(12, 0, false), 1);
        assert_eq!(state_after(12, 3, true), 8);
        assert_eq!(state_after(12, 15, true), state_after(12, 3, true));
        assert_ne!(state_after(12, 3, false), state_after(12, 3, true));
    }

    #[test]
    fn mirror_follows_the_window() {
        let plan = Plan::new(spec("live-ingest").unwrap(), 4, Sizes::SMOKE);
        let oracle = Oracle::build(&plan).unwrap();
        let sizes = plan.sizes;
        // One COUNT answer per iteration of the cycle, one MAX answer
        // per retraction, one per reader flock.
        let readers = plan.texts.len() - 2;
        assert_eq!(oracle.expected.len(), sizes.pool + sizes.pool / 4 + readers);
        // A wrong body is told apart from the right one.
        let right = oracle.expected[&(0, 1)].join("\n");
        assert!(oracle.check(0, 1, &right).is_ok());
        assert!(oracle.check(0, 1, &format!("{right}\nextra\trow")).is_err());
        assert!(
            oracle.check(0, 0, &right).is_err(),
            "state 0 has no COUNT answer"
        );
    }
}
