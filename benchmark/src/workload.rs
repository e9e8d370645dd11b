//! The four workloads: which servers run with which flags, what the
//! clients send, and why each exists. Server flags are part of a
//! workload's definition — change one and it is a different workload.

use crate::data::{self, Live, Sizes, Table};
use crate::rng::{Rng, Zipf};

/// What fronts the clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// One `qfsh serve`.
    Serve,
    /// A `qfsh shard` coordinator over two `qfsh serve` workers.
    Shard,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    pub front: Front,
    pub front_flags: &'static [&'static str],
    /// Flags of each of the two workers behind a `Shard` front.
    pub worker_flags: &'static [&'static str],
    /// Serve from a `--data-dir` (WAL on, fsync per record — the
    /// server's only flush policy).
    pub durable: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "cold-mine",
        why: "batch mining: 9 flock bodies rotate through a 2-entry cache, so every op plans and evaluates; engine and plan search do the work, cache and wire almost none",
        clients: 1,
        front: Front::Serve,
        front_flags: &["--threads", "2", "--cache-entries", "2"],
        worker_flags: &[],
        durable: false,
    },
    Spec {
        name: "warm-dashboard",
        why: "threshold sweeps over warmed bodies: every op is a monotone-reuse cache hit, the engine idles, and parse, cache lookup, TSV render and the wire decide latency",
        clients: 2,
        front: Front::Serve,
        front_flags: &["--threads", "2", "--cache-entries", "64"],
        worker_flags: &[],
        durable: false,
    },
    Spec {
        name: "live-ingest",
        why: "writes beside reads: a writer appends/retracts batches through the WAL and reads its own write from delta-maintained results while a reader sweeps untouched cached flocks",
        clients: 2,
        front: Front::Serve,
        front_flags: &["--threads", "2", "--cache-entries", "64"],
        worker_flags: &[],
        durable: true,
    },
    Spec {
        name: "shard-scatter",
        why: "the shardable cold-mine bodies through a coordinator over 2 workers: the gap to cold-mine is the scatter cost (partials over the wire, merge, re-filter)",
        clients: 1,
        front: Front::Shard,
        front_flags: &[
            "--threads", "1", "--replicas", "2", "--cache-entries", "2", "--replicate", "causes",
        ],
        // A 2-entry cache here too: a worker's default 64 entries would
        // hold every partial after one rotation and the workers would
        // stop evaluating, which is not what cold-mine is compared to.
        worker_flags: &["--threads", "1", "--cache-entries", "2"],
        durable: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One flock body and the thresholds it is asked at.
pub struct Body {
    pub name: &'static str,
    query: &'static str,
    /// The filter up to and including its comparison operator.
    filter: &'static str,
    /// Thresholds the first one subsumes: a result cached at
    /// `ladder[0]` answers every other by re-filtering.
    pub ladder: &'static [i64],
    /// Passes `qf_core::shard_key_pos` with `causes` replicated.
    pub shardable: bool,
}

impl Body {
    pub fn text(&self, threshold: i64) -> String {
        format!("QUERY: {} FILTER: {} {threshold}", self.query, self.filter)
    }
}

const COUNT_LADDER: &[i64] = &[20, 22, 25, 30, 40, 60];

/// The mining rotation: the paper's flocks (§1.3 basket pairs, Fig. 10
/// weighted baskets, Ex. 2.2 side effects with and without the negated
/// subgoal, Ex. 4.3 paths, Ex. 2.3 web union) plus a MAX and a MIN filter.
pub const BODIES: [Body; 9] = [
    Body {
        name: "pairs",
        query: "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        filter: "COUNT(answer.B) >=",
        ladder: COUNT_LADDER,
        shardable: true,
    },
    Body {
        name: "weighted-pairs",
        query: "answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND importance(B,W)",
        filter: "SUM(answer.W) >=",
        ladder: &[300, 350, 400, 500, 700, 1000],
        shardable: true,
    },
    Body {
        name: "side-effects",
        query: "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) AND NOT causes(D,$s)",
        filter: "COUNT(answer.P) >=",
        ladder: COUNT_LADDER,
        shardable: true,
    },
    Body {
        name: "symptom-medicine",
        query: "answer(P) :- exhibits(P,$s) AND treatments(P,$m)",
        filter: "COUNT(answer.P) >=",
        ladder: COUNT_LADDER,
        shardable: true,
    },
    Body {
        name: "path2",
        query: "answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2)",
        filter: "COUNT(answer.X) >=",
        ladder: &[20, 22, 25, 28, 30],
        shardable: false,
    },
    Body {
        name: "path3",
        query: "answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2) AND arc(Y2,Y3)",
        filter: "COUNT(answer.X) >=",
        ladder: &[20, 22, 25, 28, 30],
        shardable: false,
    },
    Body {
        name: "web-union",
        query: "answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2 \
                answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2 \
                answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2",
        filter: "COUNT(answer(*)) >=",
        ladder: &[10, 12, 15, 20, 30],
        shardable: false,
    },
    Body {
        name: "max-weight",
        query: "answer(B,W) :- baskets(B,$1) AND importance(B,W)",
        filter: "MAX(answer.W) >=",
        ladder: &[45, 46, 47, 48, 49, 50],
        shardable: true,
    },
    // Its own body on purpose: the result cache keys on (query, the
    // aggregate's head position) and not on the aggregate, so a MIN over
    // the body of the SUM or MAX flock above would evict it and be
    // evicted by it, and the dashboard would not stay warm.
    Body {
        name: "min-successor",
        query: "answer(X,Y) :- arc($1,X) AND arc(X,Y)",
        filter: "MIN(answer.Y) <=",
        ladder: &[5, 4, 3, 2, 1],
        shardable: false,
    },
];

/// `live-ingest`'s reader: cached flocks over relations the writer
/// never touches.
const READER_BODIES: [usize; 2] = [2, 3];

/// `live-ingest`'s writer reads its own append from this COUNT flock…
const LIVE_COUNT: &str =
    "QUERY: answer(B) :- live(B,$1) AND live(B,$2) AND $1 < $2 FILTER: COUNT(answer.B) >= 3";
/// …and its own retraction from this MAX flock (deletes exercise the
/// bounded re-check path). Both are delta-maintainable.
const LIVE_MAX: &str =
    "QUERY: answer(B,W) :- live(B,$1) AND weight(B,W) FILTER: MAX(answer.W) >= 40";

/// What a flock response's meta must show.
#[derive(Clone, Copy, Default)]
pub struct Expect {
    /// The `cache_hit` flag every response must carry, if it is known.
    pub hit: Option<bool>,
    /// Every response must report a clean scatter: `"sharded":true`, no
    /// failover, no re-scatter.
    pub sharded: bool,
}

/// What one client does during the timed section.
pub enum Script {
    /// Loop over `requests` (indices into [`Plan::texts`]) forever.
    Flocks {
        requests: Vec<usize>,
        /// These ops are the workload's primary class: their latencies
        /// make `p50_ms`/`p95_ms`.
        primary: bool,
        expect: Expect,
    },
    /// `live-ingest`'s writer: iteration `i` appends pool batch
    /// `window + i` and reads [`Plan::texts`]`[count]`; every 4th also
    /// retracts the 4 oldest live batches in one delta (so the window
    /// is stationary however long the run lasts) and reads `max`.
    /// Each commit-then-read round is one primary sample.
    Ingest { count: usize, max: usize },
}

/// Everything a run sends, derived from `(workload, seed, sizes)` alone.
pub struct Plan {
    pub spec: &'static Spec,
    pub sizes: Sizes,
    /// Loaded over the wire during set-up, in this order.
    pub tables: Vec<Table>,
    /// Every distinct flock text the run may send.
    pub texts: Vec<String>,
    /// A short name per text (`pairs@20`), for reports.
    pub labels: Vec<String>,
    /// Asked once during set-up, after the loads.
    pub warmup: Vec<usize>,
    /// One per client.
    pub scripts: Vec<Script>,
    pub live: Option<Live>,
}

/// Requests pre-drawn per `warm-dashboard` client; the loop cycles
/// them, and 4096 Zipf draws cover every (body, threshold) pair.
const DASHBOARD_DRAWS: usize = 4096;

impl Plan {
    pub fn new(spec: &'static Spec, seed: u64, sizes: Sizes) -> Plan {
        let mut order: Vec<usize> = (0..BODIES.len()).collect();
        let mut plan = Plan {
            spec,
            sizes,
            tables: Vec::new(),
            texts: Vec::new(),
            labels: Vec::new(),
            warmup: Vec::new(),
            scripts: Vec::new(),
            live: None,
        };
        match spec.name {
            "cold-mine" | "shard-scatter" => {
                // The rotation order is part of the workload, not of the
                // seed: in a closed loop it decides what the caches hold
                // when a body comes round again and, while the wire
                // stalls on delayed ACKs, which requests pay one.
                let sharded = spec.front == Front::Shard;
                plan.tables = data::mining_tables(seed, &sizes);
                order.retain(|&b| !sharded || BODIES[b].shardable);
                for &b in &order {
                    plan.push_text(&BODIES[b], BODIES[b].ladder[0]);
                }
                plan.warmup = (0..plan.texts.len()).collect();
                plan.scripts = vec![Script::Flocks {
                    requests: plan.warmup.clone(),
                    primary: true,
                    expect: Expect {
                        hit: Some(false),
                        sharded,
                    },
                }];
            }
            "warm-dashboard" => {
                plan.tables = data::mining_tables(seed, &sizes);
                // Which body is the popular one differs by seed.
                Rng::new(seed, "popularity").shuffle(&mut order);
                // texts[first[k] + j] is body order[k] at ladder[j].
                let mut first = Vec::new();
                for &b in &order {
                    first.push(plan.texts.len());
                    for &t in BODIES[b].ladder {
                        plan.push_text(&BODIES[b], t);
                    }
                }
                plan.warmup = first.clone();
                let popularity = Zipf::new(order.len());
                for client in 0..spec.clients {
                    let mut rng = Rng::new(seed, &format!("dashboard-{client}"));
                    let requests = (0..DASHBOARD_DRAWS)
                        .map(|_| {
                            let k = popularity.sample(&mut rng);
                            first[k] + rng.below(BODIES[order[k]].ladder.len())
                        })
                        .collect();
                    plan.scripts.push(Script::Flocks {
                        requests,
                        primary: true,
                        expect: Expect {
                            hit: Some(true),
                            sharded: false,
                        },
                    });
                }
            }
            "live-ingest" => {
                let live = data::live(seed, &sizes);
                plan.tables = data::medical_tables(seed, &sizes);
                plan.texts = vec![LIVE_COUNT.to_string(), LIVE_MAX.to_string()];
                plan.labels = vec!["live-pairs@3".to_string(), "live-max-weight@40".to_string()];
                let mut reader: Vec<usize> = Vec::new();
                for &b in order.iter().filter(|b| READER_BODIES.contains(b)) {
                    reader.push(plan.texts.len());
                    plan.push_text(&BODIES[b], BODIES[b].ladder[0]);
                }
                plan.warmup = (0..plan.texts.len()).collect();
                plan.scripts = vec![
                    Script::Ingest { count: 0, max: 1 },
                    // A racing commit can make the reader miss once in
                    // a while (see README), so hits are counted, not
                    // required.
                    Script::Flocks {
                        requests: reader,
                        primary: false,
                        expect: Expect::default(),
                    },
                ];
                plan.live = Some(live);
            }
            other => unreachable!("no workload named {other}"),
        }
        plan
    }

    fn push_text(&mut self, body: &Body, threshold: i64) {
        self.texts.push(body.text(threshold));
        self.labels.push(format!("{}@{threshold}", body.name));
    }

    /// Tables in load order, the live ones last.
    pub fn all_tables(&self) -> impl Iterator<Item = &Table> {
        self.tables
            .iter()
            .chain(self.live.iter().flat_map(|l| l.tables.iter()))
    }

    /// Digest of every byte a run may send: the determinism tests pin
    /// that it is a function of the seed.
    pub fn digest(&self) -> u64 {
        let requests: String = self
            .scripts
            .iter()
            .map(|s| match s {
                Script::Flocks { requests, .. } => format!("{requests:?}"),
                Script::Ingest { count, max } => format!("ingest {count} {max}"),
            })
            .collect();
        let live_rows = self
            .live
            .iter()
            .flat_map(|l| l.rows.iter().map(String::as_str));
        data::digest(
            self.all_tables()
                .map(|t| t.tsv.as_str())
                .chain(self.texts.iter().map(String::as_str))
                .chain(live_rows)
                .chain([requests.as_str()]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in &SPECS {
            let a = Plan::new(spec, 1, Sizes::SMOKE).digest();
            assert_eq!(
                a,
                Plan::new(spec, 1, Sizes::SMOKE).digest(),
                "{}",
                spec.name
            );
            assert_ne!(
                a,
                Plan::new(spec, 2, Sizes::SMOKE).digest(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn every_body_parses_and_shardability_is_as_declared() {
        let replicated: BTreeSet<String> = ["causes".to_string()].into();
        for body in &BODIES {
            for &t in body.ladder {
                let program = qf_core::FlockProgram::parse(&body.text(t))
                    .unwrap_or_else(|e| panic!("{}: {e}", body.name));
                assert_eq!(
                    qf_core::shardable_program(&program, &replicated).is_some(),
                    body.shardable,
                    "{}",
                    body.name
                );
                let base = qf_core::FlockProgram::parse(&body.text(body.ladder[0])).unwrap();
                assert!(
                    base.flock()
                        .canonical_filter()
                        .subsumes(&program.flock().canonical_filter()),
                    "{} at {t} is not answered by its baseline",
                    body.name
                );
            }
        }
        for text in [LIVE_COUNT, LIVE_MAX] {
            let program = qf_core::FlockProgram::parse(text).unwrap();
            assert!(qf_core::FlockDelta::maintainable(program.flock()), "{text}");
        }
    }

    #[test]
    fn dashboard_draws_reach_every_threshold() {
        let plan = Plan::new(spec("warm-dashboard").unwrap(), 5, Sizes::SMOKE);
        let mut seen = BTreeSet::new();
        for script in &plan.scripts {
            if let Script::Flocks { requests, .. } = script {
                seen.extend(requests.iter().copied());
            }
        }
        assert_eq!(seen.len(), plan.texts.len());
    }

    #[test]
    fn pool_outlasts_the_window() {
        for sizes in [Sizes::FULL, Sizes::SMOKE] {
            assert_eq!(sizes.pool % 4, 0);
            assert!(sizes.pool > sizes.window + 4);
        }
    }
}
