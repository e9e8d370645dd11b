//! Shared workload constructors, scaled per [`Scale`].
//!
//! Every `reproduce` experiment draws from these constructors, so
//! experiments that share a workload describe the same data.

use qf_datagen::{baskets, graph, medical, web, words};
use qf_storage::Database;

use crate::Scale;

/// Zipf word-occurrence database (§1.3's "newspaper articles").
pub fn words_db(scale: Scale) -> Database {
    let config = match scale {
        Scale::Small => words::WordsConfig {
            n_docs: 300,
            words_per_doc: 20,
            vocabulary: 2000,
            exponent: 1.0,
            seed: 1,
        },
        Scale::Full => words::WordsConfig {
            n_docs: 4000,
            words_per_doc: 40,
            vocabulary: 120_000,
            exponent: 0.8,
            seed: 1,
        },
    };
    let mut db = Database::new();
    db.insert(words::generate(&config));
    db
}

/// The basket generator's configuration at `scale`.
fn basket_config(scale: Scale) -> baskets::BasketConfig {
    match scale {
        Scale::Small => baskets::BasketConfig {
            n_baskets: 300,
            avg_basket_size: 8,
            n_items: 200,
            n_patterns: 10,
            ..baskets::BasketConfig::default()
        },
        Scale::Full => baskets::BasketConfig {
            n_baskets: 4000,
            avg_basket_size: 10,
            n_items: 1000,
            n_patterns: 30,
            ..baskets::BasketConfig::default()
        },
    }
}

/// Quest-style basket database plus ground truth.
pub fn basket_data(scale: Scale) -> baskets::BasketData {
    baskets::generate(&basket_config(scale))
}

/// Basket database plus `importance` weights (Fig. 10).
pub fn weighted_basket_db(scale: Scale) -> Database {
    let config = basket_config(scale);
    let data = baskets::generate(&config);
    let mut db = Database::new();
    db.insert(data.baskets);
    db.insert(baskets::importance(&config, 50));
    db
}

/// Medical database (Ex. 2.2) with a chosen rare-value density.
pub fn medical_data(scale: Scale, rare_fraction: f64) -> medical::MedicalData {
    let config = match scale {
        Scale::Small => medical::MedicalConfig {
            n_patients: 600,
            rare_fraction,
            seed: 1,
            ..medical::MedicalConfig::default()
        },
        Scale::Full => medical::MedicalConfig {
            n_patients: 20_000,
            n_symptoms: 500,
            n_medicines: 250,
            symptoms_per_patient: 4,
            rare_fraction,
            seed: 1,
            ..medical::MedicalConfig::default()
        },
    };
    medical::generate(&config)
}

/// Web corpus (Ex. 2.3).
pub fn web_data(scale: Scale) -> web::WebData {
    let config = match scale {
        Scale::Small => web::WebConfig {
            n_docs: 300,
            n_anchors: 600,
            vocabulary: 1000,
            ..web::WebConfig::default()
        },
        Scale::Full => web::WebConfig {
            n_docs: 3000,
            n_anchors: 6000,
            vocabulary: 40_000,
            words_per_title: 14,
            words_per_anchor: 5,
            ..web::WebConfig::default()
        },
    };
    web::generate(&config)
}

/// Hub-structured digraph (Ex. 4.3).
pub fn graph_db(scale: Scale) -> Database {
    let config = match scale {
        Scale::Small => graph::GraphConfig {
            n_nodes: 500,
            n_random_arcs: 1000,
            ..graph::GraphConfig::default()
        },
        Scale::Full => graph::GraphConfig {
            n_nodes: 5000,
            n_random_arcs: 12_000,
            n_hubs: 8,
            hub_degree: 40,
            chain_len: 8,
            seed: 1,
        },
    };
    let mut db = Database::new();
    db.insert(graph::generate(&config));
    db
}

/// The paper's standard support threshold.
pub const PAPER_THRESHOLD: i64 = 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_small_workloads_build() {
        assert!(words_db(Scale::Small).get("baskets").unwrap().len() > 1000);
        assert!(basket_data(Scale::Small).baskets.len() > 500);
        assert!(weighted_basket_db(Scale::Small).contains("importance"));
        assert!(medical_data(Scale::Small, 0.3).db.contains("causes"));
        assert!(web_data(Scale::Small).db.contains("link"));
        assert!(graph_db(Scale::Small).get("arc").unwrap().len() > 500);
    }
}
