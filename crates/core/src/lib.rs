//! **Cornet** — learning conditional formatting rules by example.
//!
//! This crate implements the paper's primary contribution (Singh et al.,
//! *Cornet: Learning Table Formatting Rules By Example*, VLDB 2023): given a
//! column of cells and a handful of user-formatted example cells, learn a
//! conditional-formatting rule that generalises to the rest of the column.
//!
//! The pipeline mirrors Figure 2 of the paper:
//!
//! 1. [`predgen`] — enumerate typed predicates (Table 1) with constants
//!    concretised from the column (Table 2),
//! 2. [`cluster`] — semi-supervised clustering hypothesises a formatting
//!    label for every cell (§3.2),
//! 3. [`enumerate`] — iterative decision-tree learning emits diverse
//!    candidate rules in disjunctive normal form (§3.3),
//! 4. [`rank`] — a ranker (symbolic, neural, or the paper's hybrid) scores
//!    candidates and the best rule is returned (§3.4).
//!
//! ```
//! use cornet_core::prelude::*;
//! use cornet_table::CellValue;
//!
//! // The running example of the paper (Figures 1 and 2): the user formats
//! // the RW ids and Cornet learns "starts with RW and does not end with T"
//! // — the unformatted RW-131-T between two examples becomes a soft
//! // negative, which is the evidence for the NOT clause.
//! let cells: Vec<CellValue> = ["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]
//!     .iter()
//!     .map(|s| CellValue::from(*s))
//!     .collect();
//! let cornet = Cornet::with_default_ranker();
//! let outcome = cornet.learn(&cells, &[0, 2, 5]).expect("rule learned");
//! let best = &outcome.candidates[0];
//! let formatted = best.rule.execute(&cells);
//! assert!(formatted.get(0) && formatted.get(2) && formatted.get(5));
//! assert!(!formatted.get(1) && !formatted.get(3) && !formatted.get(4));
//! ```

pub mod cluster;
pub mod constants;
pub mod enumerate;
pub mod features;
pub mod fullsearch;
pub mod json;
pub mod learner;
pub mod metrics;
pub mod predgen;
pub mod predicate;
pub mod rank;
pub mod rule;
pub mod ruleset;
pub mod signature;

/// Convenient glob-import surface for downstream users.
pub mod prelude {
    pub use crate::cluster::{ClusterConfig, ClusterMode};
    pub use crate::learner::{
        ClassSpec, ColumnContext, Cornet, CornetConfig, LearnError, LearnOutcome, LearnSpec,
        RuleSetOutcome, RuleSetSpec,
    };
    pub use crate::metrics::{exact_match, execution_match};
    pub use crate::predicate::{CmpOp, DatePart, Predicate, TextOp};
    pub use crate::rank::{Ranker, ScoredRule};
    pub use crate::rule::{Conjunct, Rule, RuleLiteral};
    pub use crate::ruleset::{RuleSet, StyledRule};
}

pub use learner::{
    ClassSpec, ColumnContext, Cornet, CornetConfig, LearnOutcome, LearnSpec, RuleSetSpec,
};
pub use predicate::Predicate;
pub use rule::Rule;
pub use ruleset::{RuleSet, StyledRule};
