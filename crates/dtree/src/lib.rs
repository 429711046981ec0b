//! Weighted binary decision trees over boolean feature matrices.
//!
//! Cornet's rule enumeration (§3.3 of the paper) repeatedly fits small
//! decision trees whose features are *predicate outputs* (one bit per cell
//! per predicate) and whose labels are the noisy formatting labels produced
//! by clustering. Each fitted tree is then read back as a propositional
//! formula in disjunctive normal form (one conjunct per positive leaf path),
//! which is exactly the rule language of §3.3.1.
//!
//! The learner supports everything the paper's procedure needs:
//!
//! * per-sample weights (labeled cells count double, §3.3.2),
//! * a positive-class weight (the decision-tree baselines use 5:1, §4.1.1),
//! * a node budget (λₙ = 10) and depth / min-sample limits,
//! * a tie-break hook so a ranker can choose between equal-impurity splits
//!   (the "+ ranking" decision-tree baseline of Table 4),
//! * DNF extraction ([`DecisionTree::to_dnf`]),
//! * a prepared [`Fitter`] for refits that differ only in their allowed
//!   features, the shape of the enumeration loop.
//!
//! Fitting and prediction are word-parallel over the packed signatures
//! and run on the calling thread; see the [`tree`] module for when the
//! popcount sums are exact.

pub mod matrix;
pub mod tree;

pub use matrix::FeatureMatrix;
pub use tree::{DecisionTree, Fitter, Literal, Node, TreeConfig};
