//! # qf-datagen — synthetic workloads for the query-flocks experiments
//!
//! The paper evaluates its ideas on data we cannot ship: word
//! occurrences in newspaper articles (§1.3), retail market baskets,
//! medical records (Ex. 2.2), and an HTML crawl (Ex. 2.3). This crate
//! generates statistically faithful stand-ins:
//!
//! * [`baskets`] — IBM-Quest-style market baskets (frequent patterns
//!   embedded in noise) plus basket weights for the Fig. 10 flock;
//! * [`words`] — Zipf-distributed word/document data matching the skew
//!   of natural-language token frequencies (the regime where the paper
//!   observed its 20× speedup);
//! * [`medical`] — the Ex. 2.2 schema with selectivity knobs for rare
//!   symptoms/medicines (the §3.2 trade-off discussion);
//! * [`web`] — the Ex. 2.3 schema (`inTitle`/`inAnchor`/`link`);
//! * [`graph`] — random digraphs for the Ex. 4.3 path flock;
//! * [`zipf`] — the shared Zipf sampler.
//!
//! All generators take an explicit seed and are deterministic.
//! [`demo`] is the one catalog of demo workloads that `qfsh`'s `gen`
//! and the server's `gen` both serve.

#![warn(missing_docs)]

use std::fmt::Write as _;

use qf_storage::Relation;

pub mod baskets;
pub mod graph;
pub mod medical;
pub mod web;
pub mod words;
pub mod zipf;

pub use baskets::{BasketConfig, BasketData};
pub use graph::GraphConfig;
pub use medical::{MedicalConfig, MedicalData};
pub use web::{WebConfig, WebData};
pub use words::WordsConfig;
pub use zipf::Zipf;

/// Generate the demo workload `kind` (`baskets|words|medical|web|graph`)
/// at `seed`, with default sizes: the relations to insert, and a
/// one-line note naming each of them (plus the planted ground truth of
/// `medical` and `web`).
pub fn demo(kind: &str, seed: u64) -> Result<(Vec<Relation>, String), String> {
    let (relations, planted): (Vec<Relation>, _) = match kind {
        "baskets" => {
            let config = BasketConfig {
                seed,
                ..Default::default()
            };
            let weights = baskets::importance(&config, 50);
            (vec![baskets::generate(&config).baskets, weights], None)
        }
        "words" => {
            let config = WordsConfig {
                seed,
                ..Default::default()
            };
            (vec![words::generate(&config)], None)
        }
        "medical" => {
            let data = medical::generate(&MedicalConfig {
                seed,
                ..Default::default()
            });
            (data.db.iter().cloned().collect(), Some(data.planted))
        }
        "web" => {
            let data = web::generate(&WebConfig {
                seed,
                ..Default::default()
            });
            (data.db.iter().cloned().collect(), Some(data.planted))
        }
        "graph" => {
            let config = GraphConfig {
                seed,
                ..Default::default()
            };
            (vec![graph::generate(&config)], None)
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (baskets|words|medical|web|graph)"
            ))
        }
    };
    let mut note = format!("generated {kind}:");
    for (i, rel) in relations.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(note, "{sep} {} [{} tuples]", rel.schema().name(), rel.len());
    }
    if let Some(planted) = planted {
        let _ = write!(note, "; planted: {planted:?}");
    }
    Ok((relations, note))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_note_names_every_relation() {
        for kind in ["baskets", "words", "medical", "web", "graph"] {
            let (relations, note) = demo(kind, 7).unwrap();
            assert!(!relations.is_empty(), "{kind}");
            for rel in &relations {
                let named = format!(" {} [{} tuples]", rel.schema().name(), rel.len());
                assert!(note.contains(&named), "{kind}: {note}");
            }
        }
        assert!(demo("nothing", 1).is_err());
    }
}
