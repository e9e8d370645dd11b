//! Seed-derived inputs: the catalogs every workload loads over the wire
//! and the cyclic batch stream `live-ingest` appends and retracts.
//!
//! Everything is rendered to TSV text once, because TSV is what the
//! servers receive; the oracle's mirror is parsed back from that same
//! text so both sides see the values the wire canonicalizes.

use qf_datagen::{baskets, graph, medical, web};
use qf_storage::{tsv, Database, Fnv1a, Relation};

/// Data sizes. `FULL` is the measured scale; `SMOKE` runs the same code
/// in about a second per workload for `cargo test`.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Quest baskets in `baskets`/`importance` (≈10 tuples each).
    pub baskets: usize,
    /// Patients in the medical relations.
    pub patients: usize,
    /// Background nodes in `arc` (plus 6 hubs × 30 chains of 6).
    pub nodes: usize,
    /// Documents in the web corpus (anchors are twice this).
    pub docs: usize,
    /// Baskets per `live-ingest` batch (≈10 tuples each).
    pub batch_baskets: usize,
    /// Batches live at rest; the window swells by up to 4 between
    /// retractions.
    pub window: usize,
    /// Distinct batches the stream cycles through. A multiple of 4
    /// larger than `window + 4`, so the catalog after iteration `i`
    /// depends on `i mod pool` only and no batch re-enters while live.
    pub pool: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        baskets: 600,
        patients: 2400,
        nodes: 900,
        docs: 300,
        batch_baskets: 20,
        window: 12,
        pool: 48,
    };
    pub const SMOKE: Sizes = Sizes {
        baskets: 200,
        patients: 600,
        nodes: 300,
        docs: 100,
        batch_baskets: 8,
        window: 4,
        pool: 12,
    };
}

/// One relation as it goes over the wire.
pub struct Table {
    pub name: String,
    pub tuples: usize,
    pub tsv: String,
}

pub fn render(rel: &Relation) -> String {
    let mut buf = Vec::new();
    tsv::write_tsv(rel, &mut buf).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("TSV output is UTF-8")
}

fn table(rel: &Relation) -> Table {
    Table {
        name: rel.name().to_string(),
        tuples: rel.len(),
        tsv: render(rel),
    }
}

fn medical_relations(seed: u64, sizes: &Sizes) -> Database {
    medical::generate(&medical::MedicalConfig {
        n_patients: sizes.patients,
        seed,
        ..Default::default()
    })
    .db
}

/// The medical catalog alone: what `live-ingest`'s reader queries and
/// its writer never touches.
pub fn medical_tables(seed: u64, sizes: &Sizes) -> Vec<Table> {
    medical_relations(seed, sizes).iter().map(table).collect()
}

/// The mining catalog of `cold-mine`, `warm-dashboard` and
/// `shard-scatter`: Quest baskets with weights, the medical relations,
/// a hub digraph and the web corpus.
pub fn mining_tables(seed: u64, sizes: &Sizes) -> Vec<Table> {
    let config = baskets::BasketConfig {
        n_baskets: sizes.baskets,
        n_items: 1000,
        n_patterns: 30,
        seed,
        ..Default::default()
    };
    let mut tables = vec![
        table(&baskets::generate(&config).baskets),
        table(&baskets::importance(&config, 50)),
    ];
    tables.extend(medical_tables(seed, sizes));
    // Hubs of out-degree 30 heading chains of 6: what the path flocks
    // find at support 20, whatever the background looks like.
    tables.push(table(&graph::generate(&graph::GraphConfig {
        n_nodes: sizes.nodes,
        n_random_arcs: sizes.nodes * 7 / 3,
        n_hubs: 6,
        hub_degree: 30,
        chain_len: 6,
        seed,
    })));
    let corpus = web::generate(&web::WebConfig {
        n_docs: sizes.docs,
        n_anchors: sizes.docs * 2,
        vocabulary: sizes.docs * 5,
        seed,
        ..Default::default()
    });
    tables.extend(corpus.db.iter().map(table));
    tables
}

/// `live-ingest`'s mutable side: the `live(bid,item)` relation as
/// loaded, its static `weight(bid,w)` companion, and the batch pool.
pub struct Live {
    /// `live` holding batches `0..window`, then `weight`.
    pub tables: Vec<Table>,
    /// The TSV header line of `live`, newline included.
    pub header: String,
    /// Data lines of each pool batch. Batches hold whole baskets with
    /// disjoint ids, so appending one adds exactly its tuples.
    pub rows: Vec<String>,
    /// Tuples in each pool batch.
    pub tuples: Vec<usize>,
}

/// One commit of the stream.
pub struct Delta {
    pub retract: bool,
    pub tsv: String,
    pub tuples: usize,
}

impl Live {
    /// TSV for the batches `from..from + n` of the pool (wrapping).
    pub fn delta(&self, from: usize, n: usize) -> String {
        let mut out = self.header.clone();
        for j in from..from + n {
            out.push_str(&self.rows[j % self.rows.len()]);
        }
        out
    }

    fn delta_tuples(&self, from: usize, n: usize) -> usize {
        (from..from + n)
            .map(|j| self.tuples[j % self.tuples.len()])
            .sum()
    }

    /// What iteration `i` (taken modulo the pool) of the stream commits:
    /// always the append of pool batch `window + i`; on every 4th
    /// iteration also the retraction of the 4 oldest live batches.
    pub fn deltas_of_iteration(&self, window: usize, i: usize) -> Vec<Delta> {
        let delta = |retract, from, n| Delta {
            retract,
            tsv: self.delta(from, n),
            tuples: self.delta_tuples(from, n),
        };
        let mut deltas = vec![delta(false, window + i, 1)];
        if i % 4 == 3 {
            deltas.push(delta(true, i - 3, 4));
        }
        deltas
    }
}

pub fn live(seed: u64, sizes: &Sizes) -> Live {
    let config = baskets::BasketConfig {
        n_baskets: sizes.pool * sizes.batch_baskets,
        n_items: 1000,
        n_patterns: 30,
        // Not the mining baskets again under another name.
        seed: seed ^ 0x6c69_7665,
        ..Default::default()
    };
    let all = baskets::generate(&config).baskets.renamed("live");
    let text = render(&all);
    let (header, body) = text.split_at(text.find('\n').expect("TSV has a header line") + 1);
    let mut rows = vec![String::new(); sizes.pool];
    let mut tuples = vec![0usize; sizes.pool];
    for line in body.lines() {
        let bid: usize = line
            .split('\t')
            .next()
            .and_then(|f| f.parse().ok())
            .expect("basket ids are integers");
        let batch = bid / sizes.batch_baskets;
        rows[batch].push_str(line);
        rows[batch].push('\n');
        tuples[batch] += 1;
    }
    let mut live = Live {
        tables: Vec::new(),
        header: header.to_string(),
        rows,
        tuples,
    };
    let weight = baskets::importance(&config, 50).renamed("weight");
    live.tables = vec![
        Table {
            name: "live".to_string(),
            tuples: live.delta_tuples(0, sizes.window),
            tsv: live.delta(0, sizes.window),
        },
        table(&weight),
    ];
    live
}

pub fn parse(tsv_text: &str) -> Relation {
    tsv::read_tsv(std::io::Cursor::new(tsv_text.as_bytes()))
        .expect("the benchmark's own TSV parses")
}

/// The catalog a server holds after loading `tables`.
pub fn mirror<'a>(tables: impl IntoIterator<Item = &'a Table>) -> Database {
    let mut db = Database::new();
    for t in tables {
        db.insert(parse(&t.tsv));
    }
    db
}

pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv1a::new();
    for t in texts {
        h.write(t.as_bytes());
        h.write(&[0xff]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_batches_partition_the_pool() {
        let sizes = Sizes::SMOKE;
        let l = live(3, &sizes);
        assert_eq!(l.rows.len(), sizes.pool);
        assert!(l.tuples.iter().all(|&n| n > 0));
        // The loaded window is exactly the first `window` batches, and
        // a wrapped delta names the same tuples as the unwrapped one.
        assert_eq!(
            parse(&l.tables[0].tsv).len(),
            l.delta_tuples(0, sizes.window)
        );
        assert_eq!(l.delta(sizes.pool, 2), l.delta(0, 2));
        // Disjoint batches: the whole pool parses to the sum of parts.
        assert_eq!(
            parse(&l.delta(0, sizes.pool)).len(),
            l.tuples.iter().sum::<usize>()
        );
    }

    #[test]
    fn mining_catalog_has_every_relation_the_bodies_read() {
        let names: Vec<String> = mining_tables(1, &Sizes::SMOKE)
            .into_iter()
            .map(|t| t.name)
            .collect();
        for rel in [
            "baskets",
            "importance",
            "diagnoses",
            "exhibits",
            "treatments",
            "causes",
            "arc",
            "inTitle",
            "inAnchor",
            "link",
        ] {
            assert!(names.iter().any(|n| n == rel), "missing {rel} in {names:?}");
        }
    }
}
