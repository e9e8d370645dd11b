//! # qf-mine — classic association-rule mining
//!
//! The comparator the paper generalizes *from*: market-basket analysis
//! with the a-priori algorithm (\[AIS93\], \[AS94\]) and the three
//! association measures of §1.1 (support, confidence, interest).
//!
//! Two implementations of the same computation:
//!
//! * [`apriori`] — the classic levelwise file algorithm over raw
//!   transactions, with candidate generation and subset pruning. This
//!   is the "ad-hoc file processing algorithm" of §1.4.
//! * [`flockwise`] — §4.3 option 2: the same levelwise computation
//!   "expressed as a sequence of query flocks for increasing
//!   cardinalities, with each flock depending on the result of the
//!   previous flock" (§2, footnote 2), evaluated through the relational
//!   engine.
//!
//! Equality of their outputs is asserted in tests: the flock framework
//! really is a generalization of a-priori.

#![warn(missing_docs)]

pub mod apriori;
pub mod flockwise;
pub mod maximal;
pub mod measures;
pub mod rules;

pub use apriori::{mine_apriori, AprioriResult, ItemSet};
pub use flockwise::mine_flockwise_with;
pub use maximal::maximal_itemsets;
pub use measures::{confidence, interest, support_fraction};
pub use rules::{generate_rules, AssociationRule};
