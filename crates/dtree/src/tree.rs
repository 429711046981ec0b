//! CART-style tree induction with weighted Gini impurity.
//!
//! Node sample sets are [`BitVec`] masks, so partitioning a node is an AND
//! and an AND-NOT with the split feature's signature. When every sample
//! weight and `positive_class_weight` is an integer and the column's
//! weight total (each weight's magnitude times
//! `max(1, |positive_class_weight|)`, summed) is below 2^53, every partial
//! weight sum is an exact integer in f64. Class weights and split gains
//! are then sums of `count × weight` over a few label/weight-class masks,
//! each count one popcount of ANDed words, and come out bit-identical to
//! a serial per-sample loop in any order. Other weights (the baselines'
//! 0.1 weak negatives), and integer weights with more than four distinct
//! values, take that serial loop itself.

use crate::matrix::FeatureMatrix;
use cornet_table::BitVec;

/// Hyper-parameters for tree induction.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum number of decision (internal) nodes — the paper's λₙ budget
    /// on rule size (§3.3.2 uses λₙ = 10 counting all nodes; we bound
    /// internal nodes, which implies ≤ 2·budget+1 total).
    pub max_decision_nodes: usize,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Multiplier applied to the weight of positive-labeled samples
    /// (the decision-tree baselines of §4.1.1 use 5.0).
    pub positive_class_weight: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_decision_nodes: 10,
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 1,
            positive_class_weight: 1.0,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf predicting a class.
    Leaf {
        /// Predicted class.
        prediction: bool,
        /// Total weight of positive samples that reached the leaf.
        pos_weight: f64,
        /// Total weight of negative samples that reached the leaf.
        neg_weight: f64,
    },
    /// An internal decision node: samples where the feature is `false` go
    /// left, `true` goes right.
    Split {
        /// Feature index tested by this node.
        feature: usize,
        /// Index of the left (feature = false) child in the node arena.
        left: usize,
        /// Index of the right (feature = true) child in the node arena.
        right: usize,
    },
}

/// A literal in an extracted DNF conjunct: feature index plus required
/// polarity (`true` = the predicate must hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Literal {
    /// Feature (predicate) index.
    pub feature: usize,
    /// Required value of the feature.
    pub polarity: bool,
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    root: usize,
}

impl DecisionTree {
    /// Fits a tree on the given features and labels.
    ///
    /// * `allowed` — feature indices the tree may split on (the iterative
    ///   enumeration of §3.3.2 removes each used root from this set).
    /// * `weights` — per-sample weights (labeled cells are weighted 2×).
    /// * `tie_break` — called with the set of equal-gain best features; must
    ///   return one of them. Defaults to the smallest index, which keeps
    ///   fitting deterministic.
    ///
    /// This is [`Fitter::new`] followed by one [`Fitter::fit`].
    pub fn fit(
        features: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        allowed: &[usize],
        config: &TreeConfig,
        tie_break: Option<&dyn Fn(&[usize]) -> usize>,
    ) -> DecisionTree {
        Fitter::new(features, labels, weights, config).fit(allowed, tie_break)
    }

    /// Predicts the class of a single sample given a feature oracle.
    pub fn predict_with(&self, feature_value: impl Fn(usize) -> bool) -> bool {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { prediction, .. } => return *prediction,
                Node::Split {
                    feature,
                    left,
                    right,
                } => {
                    at = if feature_value(*feature) {
                        *right
                    } else {
                        *left
                    };
                }
            }
        }
    }

    /// Predicts classes for every sample in a feature matrix: the OR, over
    /// the paths to `true` leaves, of the AND of each path's signatures
    /// (or their complements). Word-parallel, with no per-sample walk.
    pub fn predict_all(&self, features: &FeatureMatrix) -> BitVec {
        let n = features.n_samples();
        let mut out = BitVec::zeros(n);
        self.or_true_paths(self.root, BitVec::ones(n), features, &mut out);
        out
    }

    fn or_true_paths(&self, at: usize, reach: BitVec, features: &FeatureMatrix, out: &mut BitVec) {
        match &self.nodes[at] {
            Node::Leaf { prediction, .. } => {
                if *prediction {
                    out.or_assign(&reach);
                }
            }
            Node::Split {
                feature,
                left,
                right,
            } => {
                let (l, r) = partition(&reach, features.feature(*feature));
                self.or_true_paths(*left, l, features, out);
                self.or_true_paths(*right, r, features, out);
            }
        }
    }

    /// Weighted accuracy of the tree's predictions against labels: the
    /// weight of the samples it predicts correctly over the total weight.
    /// With integer weights (see the module docs) both sums are popcounts
    /// times weights; otherwise a serial per-sample loop. Either way the
    /// result is bit-identical to that serial loop.
    pub fn weighted_accuracy(
        &self,
        features: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
    ) -> f64 {
        let classes = weight_classes(labels, weights, 1.0);
        agreement(
            classes.as_deref(),
            &self.predict_all(features),
            labels,
            weights,
        )
    }

    /// The feature tested at the root, or `None` if the tree is a bare leaf.
    pub fn root_feature(&self) -> Option<usize> {
        match &self.nodes[self.root] {
            Node::Split { feature, .. } => Some(*feature),
            Node::Leaf { .. } => None,
        }
    }

    /// Number of decision (internal) nodes.
    pub fn decision_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    /// Depth of the tree (bare leaf = 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Extracts the tree as a DNF formula: one conjunct (list of literals)
    /// per path from the root to a `true`-predicting leaf. An empty outer
    /// vector means the tree never predicts `true`; a conjunct with no
    /// literals means the tree always predicts `true`.
    pub fn to_dnf(&self) -> Vec<Vec<Literal>> {
        let mut dnf = Vec::new();
        let mut path = Vec::new();
        self.collect_paths(self.root, &mut path, &mut dnf);
        dnf
    }

    fn collect_paths(&self, at: usize, path: &mut Vec<Literal>, dnf: &mut Vec<Vec<Literal>>) {
        match &self.nodes[at] {
            Node::Leaf { prediction, .. } => {
                if *prediction {
                    dnf.push(path.clone());
                }
            }
            Node::Split {
                feature,
                left,
                right,
            } => {
                path.push(Literal {
                    feature: *feature,
                    polarity: false,
                });
                self.collect_paths(*left, path, dnf);
                path.pop();
                path.push(Literal {
                    feature: *feature,
                    polarity: true,
                });
                self.collect_paths(*right, path, dnf);
                path.pop();
            }
        }
    }
}

/// Fits trees that differ only in their `allowed` features over one fixed
/// feature matrix, labels, weights and config — the shape of §3.3.2's
/// enumeration, which removes one root feature per iteration.
///
/// Preparing holds the label/weight-class masks and the root split's gain
/// for every feature. The root's samples, labels and weights never change,
/// so each [`Fitter::fit`] replays the epsilon/tie selection over its own
/// `allowed` order from those cached gains and computes gains only below
/// the root.
pub struct Fitter<'a> {
    features: &'a FeatureMatrix,
    labels: &'a BitVec,
    weights: &'a [f64],
    config: &'a TreeConfig,
    /// `Some` when the popcount kernel is exact (see the module docs).
    classes: Option<Vec<WeightClass>>,
    /// Gain of splitting the root on each feature; empty when the root can
    /// never split.
    root_gains: Vec<Option<f64>>,
}

impl<'a> Fitter<'a> {
    /// Prepares fitting on `features`, `labels` and `weights` under
    /// `config`.
    pub fn new(
        features: &'a FeatureMatrix,
        labels: &'a BitVec,
        weights: &'a [f64],
        config: &'a TreeConfig,
    ) -> Fitter<'a> {
        let n = features.n_samples();
        assert_eq!(labels.len(), n);
        assert_eq!(weights.len(), n);
        let mut fitter = Fitter {
            features,
            labels,
            weights,
            config,
            classes: weight_classes(labels, weights, config.positive_class_weight),
            root_gains: Vec::new(),
        };
        let root = fitter.node(BitVec::ones(n));
        if !root.is_pure() && config.max_depth > 0 && config.max_decision_nodes > 0 {
            fitter.root_gains = (0..features.n_features())
                .map(|f| fitter.feature_gain(&root, f))
                .collect();
        }
        fitter
    }

    /// Fits a tree splitting only on `allowed` features; see
    /// [`DecisionTree::fit`] for `tie_break`.
    pub fn fit(
        &self,
        allowed: &[usize],
        tie_break: Option<&dyn Fn(&[usize]) -> usize>,
    ) -> DecisionTree {
        let mut builder = Builder {
            fitter: self,
            allowed,
            tie_break,
            nodes: Vec::new(),
            decision_nodes: 0,
        };
        let root = builder.grow(self.node(BitVec::ones(self.features.n_samples())), 0);
        DecisionTree {
            nodes: builder.nodes,
            root,
        }
    }

    /// Weighted agreement of a prediction mask with the fitter's labels,
    /// bit-identical to [`DecisionTree::weighted_accuracy`] of a tree that
    /// predicts `predictions` (the positive-class multiplier plays no part).
    pub fn accuracy(&self, predictions: &BitVec) -> f64 {
        agreement(
            self.classes.as_deref(),
            predictions,
            self.labels,
            self.weights,
        )
    }

    /// A node over `samples` with its class weights.
    fn node(&self, samples: BitVec) -> NodeSamples {
        let count = samples.count_ones();
        let (mut pos, mut neg) = (0.0, 0.0);
        let parts = match &self.classes {
            Some(classes) => {
                let mut parts = Vec::with_capacity(classes.len());
                for class in classes {
                    let mut mask = class.mask.clone();
                    mask.and_assign(&samples);
                    let c = mask.count_ones();
                    if c == 0 {
                        continue;
                    }
                    if class.positive {
                        pos += c as f64 * class.split_weight;
                    } else {
                        neg += c as f64 * class.split_weight;
                    }
                    parts.push(WeightClass {
                        mask,
                        size: c,
                        ..*class
                    });
                }
                parts
            }
            None => {
                for s in samples.iter_ones() {
                    if self.labels.get(s) {
                        pos += self.weights[s] * self.config.positive_class_weight;
                    } else {
                        neg += self.weights[s];
                    }
                }
                Vec::new()
            }
        };
        NodeSamples {
            samples,
            count,
            pos,
            neg,
            parts,
        }
    }

    /// Weighted-Gini gain of splitting `node` on feature `f`, or `None`
    /// when a child would fall under `min_samples_leaf`.
    fn feature_gain(&self, node: &NodeSamples, f: usize) -> Option<f64> {
        let signature = self.features.feature(f);
        let (mut count_r, mut pos_r, mut neg_r) = (0usize, 0.0, 0.0);
        if self.classes.is_some() {
            for part in &node.parts {
                let c = part.mask.and_count(signature);
                count_r += c;
                if part.positive {
                    pos_r += c as f64 * part.split_weight;
                } else {
                    neg_r += c as f64 * part.split_weight;
                }
            }
        } else {
            for s in node.samples.iter_ones() {
                if signature.get(s) {
                    count_r += 1;
                    if self.labels.get(s) {
                        pos_r += self.weights[s] * self.config.positive_class_weight;
                    } else {
                        neg_r += self.weights[s];
                    }
                }
            }
        }
        let min_leaf = self.config.min_samples_leaf;
        if node.count - count_r < min_leaf || count_r < min_leaf {
            return None;
        }
        let (pos, neg) = (node.pos, node.neg);
        let (pos_l, neg_l) = (pos - pos_r, neg - neg_r);
        let (w_l, w_r) = (pos_l + neg_l, pos_r + neg_r);
        let child = (w_l * gini(pos_l, neg_l) + w_r * gini(pos_r, neg_r)) / (pos + neg);
        Some(gini(pos, neg) - child)
    }
}

/// The samples reaching one node.
struct NodeSamples {
    samples: BitVec,
    count: usize,
    /// Total weight of positive samples (positive-class multiplier applied).
    pos: f64,
    /// Total weight of negative samples.
    neg: f64,
    /// On the popcount path, the non-empty intersections of `samples` with
    /// each weight class.
    parts: Vec<WeightClass>,
}

impl NodeSamples {
    fn is_pure(&self) -> bool {
        self.pos == 0.0 || self.neg == 0.0
    }
}

/// The samples sharing one label and one integral weight.
struct WeightClass {
    positive: bool,
    /// Each sample's weight.
    weight: f64,
    /// `weight`, times `positive_class_weight` for a positive class.
    split_weight: f64,
    mask: BitVec,
    /// Number of samples in `mask`.
    size: usize,
}

/// Samples with more distinct weights than this take the scalar loop:
/// every weight class costs two popcounts per feature at every node.
const MAX_DISTINCT_WEIGHTS: usize = 4;

/// Groups the samples into [`WeightClass`]es, or `None` when the popcount
/// kernel would not be exact: a weight or `positive_class_weight` is not
/// an integer, the weighted total reaches 2^53, or there are more than
/// [`MAX_DISTINCT_WEIGHTS`] distinct weights.
fn weight_classes(
    labels: &BitVec,
    weights: &[f64],
    positive_class_weight: f64,
) -> Option<Vec<WeightClass>> {
    const EXACT: f64 = (1u64 << 53) as f64;
    if positive_class_weight.fract() != 0.0 {
        return None;
    }
    let scale = positive_class_weight.abs().max(1.0);
    let n = weights.len();
    let mut distinct: Vec<f64> = Vec::new();
    let mut total = 0u64;
    for &w in weights {
        let magnitude = w.abs() * scale;
        if w.fract() != 0.0 || magnitude >= EXACT {
            return None;
        }
        total += magnitude as u64;
        if total >= 1 << 53 {
            return None;
        }
        if !distinct.contains(&w) {
            if distinct.len() == MAX_DISTINCT_WEIGHTS {
                return None;
            }
            distinct.push(w);
        }
    }
    let mut classes: Vec<WeightClass> = Vec::with_capacity(2 * distinct.len());
    for &weight in &distinct {
        for positive in [true, false] {
            classes.push(WeightClass {
                positive,
                weight,
                split_weight: if positive {
                    weight * positive_class_weight
                } else {
                    weight
                },
                mask: BitVec::zeros(n),
                size: 0,
            });
        }
    }
    for (s, &w) in weights.iter().enumerate() {
        let positive = labels.get(s);
        let class = classes
            .iter_mut()
            .find(|c| c.weight == w && c.positive == positive)
            .expect("every weight has a class per label");
        class.mask.set(s, true);
        class.size += 1;
    }
    classes.retain(|c| c.size > 0);
    Some(classes)
}

/// Weighted agreement of `predictions` with `labels`: popcounts per weight
/// class when `classes` is given, else the serial per-sample loop.
fn agreement(
    classes: Option<&[WeightClass]>,
    predictions: &BitVec,
    labels: &BitVec,
    weights: &[f64],
) -> f64 {
    let (mut correct, mut total) = (0.0, 0.0);
    match classes {
        Some(classes) => {
            for class in classes {
                let hits = class.mask.and_count(predictions);
                let agree = if class.positive {
                    hits
                } else {
                    class.size - hits
                };
                total += class.size as f64 * class.weight;
                correct += agree as f64 * class.weight;
            }
        }
        None => {
            for (s, &w) in weights.iter().enumerate() {
                total += w;
                if predictions.get(s) == labels.get(s) {
                    correct += w;
                }
            }
        }
    }
    if total == 0.0 {
        1.0
    } else {
        correct / total
    }
}

/// Splits `samples` by `signature` into (`samples ∧ ¬signature`,
/// `samples ∧ signature`): the left (feature false) and right children.
fn partition(samples: &BitVec, signature: &BitVec) -> (BitVec, BitVec) {
    let mut right = samples.clone();
    right.and_assign(signature);
    let mut left = samples.clone();
    left.xor_assign(&right);
    (left, right)
}

/// One fit's growing state over a prepared [`Fitter`].
struct Builder<'f, 'a> {
    fitter: &'f Fitter<'a>,
    allowed: &'f [usize],
    tie_break: Option<&'f dyn Fn(&[usize]) -> usize>,
    nodes: Vec<Node>,
    decision_nodes: usize,
}

impl Builder<'_, '_> {
    fn grow(&mut self, node: NodeSamples, depth: usize) -> usize {
        let config = self.fitter.config;
        let (pos, neg) = (node.pos, node.neg);
        let split = if node.is_pure()
            || depth >= config.max_depth
            || node.count < config.min_samples_split
            || self.decision_nodes >= config.max_decision_nodes
            || self.allowed.is_empty()
        {
            None
        } else {
            self.best_split(&node, depth)
        };
        let Some(feature) = split else {
            self.nodes.push(Node::Leaf {
                prediction: pos > neg,
                pos_weight: pos,
                neg_weight: neg,
            });
            return self.nodes.len() - 1;
        };
        let (left, right) = partition(&node.samples, self.fitter.features.feature(feature));
        self.decision_nodes += 1;
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            left: usize::MAX,
            right: usize::MAX,
        });
        let left_idx = self.grow(self.fitter.node(left), depth + 1);
        let right_idx = self.grow(self.fitter.node(right), depth + 1);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_idx]
        {
            *l = left_idx;
            *r = right_idx;
        }
        node_idx
    }

    /// Picks the split with the greatest weighted Gini gain, honouring
    /// `min_samples_leaf` and the tie-break hook. Returns `None` when no
    /// valid split improves impurity.
    ///
    /// Gains are a few popcounts per feature on integer weights (see the
    /// module docs), so they are computed serially on the calling thread;
    /// the root's come from the [`Fitter`]'s cache. The epsilon/tie
    /// selection replays in `allowed` order, so the chosen feature does
    /// not depend on which path computed the gains.
    fn best_split(&self, node: &NodeSamples, depth: usize) -> Option<usize> {
        // Zero-gain splits are allowed (as in sklearn): XOR-shaped labels
        // have no impurity-reducing split at the root yet become separable
        // one level down. Strictly negative gains are rejected below.
        let mut best_gain = f64::NEG_INFINITY;
        let mut best: Vec<usize> = Vec::new();
        for &f in self.allowed {
            let gain = if depth == 0 {
                self.fitter.root_gains[f]
            } else {
                self.fitter.feature_gain(node, f)
            };
            let Some(gain) = gain else { continue };
            if gain > best_gain + 1e-12 {
                best_gain = gain;
                best.clear();
                best.push(f);
            } else if gain > best_gain - 1e-12 {
                best.push(f);
            }
        }
        if best.is_empty() || best_gain < -1e-9 {
            return None;
        }
        match best.len() {
            1 => Some(best[0]),
            _ => match self.tie_break {
                Some(hook) => Some(hook(&best)),
                None => Some(best[0]),
            },
        }
    }
}

fn gini(pos: f64, neg: f64) -> f64 {
    let total = pos + neg;
    if total == 0.0 {
        return 0.0;
    }
    let p = pos / total;
    let q = neg / total;
    1.0 - p * p - q * q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(cols: &[&[bool]]) -> FeatureMatrix {
        let n = cols[0].len();
        FeatureMatrix::new(n, cols.iter().map(|c| BitVec::from_bools(c)).collect())
    }

    fn uniform_weights(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn single_feature_perfect_split() {
        let m = matrix(&[&[true, true, false, false]]);
        let labels = BitVec::from_bools(&[true, true, false, false]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[0],
            &TreeConfig::default(),
            None,
        );
        assert_eq!(t.root_feature(), Some(0));
        assert_eq!(t.predict_all(&m), labels);
        assert_eq!(t.decision_node_count(), 1);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn pure_labels_make_a_leaf() {
        let m = matrix(&[&[true, false, true]]);
        let labels = BitVec::from_bools(&[true, true, true]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(3),
            &[0],
            &TreeConfig::default(),
            None,
        );
        assert_eq!(t.root_feature(), None);
        assert!(t.predict_with(|_| false));
        assert_eq!(t.to_dnf(), vec![Vec::<Literal>::new()]);
    }

    #[test]
    fn xor_needs_two_levels() {
        // labels = f0 XOR f1: no single feature separates, two levels do.
        let m = matrix(&[&[false, false, true, true], &[false, true, false, true]]);
        let labels = BitVec::from_bools(&[false, true, true, false]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[0, 1],
            &TreeConfig::default(),
            None,
        );
        assert_eq!(t.predict_all(&m), labels);
        assert_eq!(t.depth(), 2);
        // DNF should have two conjuncts: (f0 ∧ ¬f1) ∨ (¬f0 ∧ f1).
        let dnf = t.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert!(dnf.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn node_budget_limits_growth() {
        let m = matrix(&[&[false, false, true, true], &[false, true, false, true]]);
        let labels = BitVec::from_bools(&[false, true, true, false]);
        let config = TreeConfig {
            max_decision_nodes: 1,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &uniform_weights(4), &[0, 1], &config, None);
        assert!(t.decision_node_count() <= 1);
    }

    #[test]
    fn allowed_features_are_respected() {
        let m = matrix(&[
            &[true, true, false, false], // perfect
            &[true, false, true, false], // junk
        ]);
        let labels = BitVec::from_bools(&[true, true, false, false]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[1],
            &TreeConfig::default(),
            None,
        );
        assert_ne!(t.root_feature(), Some(0));
    }

    #[test]
    fn sample_weights_shift_the_split() {
        // Feature separates samples {0,1} from {2,3}; labels disagree on
        // sample 3. With sample 3 weighted heavily the majority flips.
        let m = matrix(&[&[true, true, false, false]]);
        let labels = BitVec::from_bools(&[true, true, false, true]);
        let mut weights = uniform_weights(4);
        weights[3] = 10.0;
        let config = TreeConfig {
            min_samples_leaf: 2,
            max_depth: 1,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &weights, &[0], &config, None);
        // Right side (feature=false) should now predict true thanks to the
        // heavy sample.
        assert!(t.predict_with(|_| false));
    }

    #[test]
    fn class_weight_biases_toward_positive() {
        let m = matrix(&[&[true, true, true, false]]);
        let labels = BitVec::from_bools(&[true, false, false, false]);
        // Unweighted: feature=true leaf is majority-negative.
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[],
            &TreeConfig::default(),
            None,
        );
        assert!(!t.predict_with(|_| true));
        // With 5:1 positive weight a bare-leaf tree flips once positives
        // outweigh: 1*5 vs 3 → positive.
        let config = TreeConfig {
            positive_class_weight: 5.0,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &uniform_weights(4), &[], &config, None);
        assert!(t.predict_with(|_| true));
    }

    #[test]
    fn tie_break_hook_is_used() {
        // Two identical features: hook picks the second.
        let m = matrix(&[&[true, true, false, false], &[true, true, false, false]]);
        let labels = BitVec::from_bools(&[true, true, false, false]);
        let pick_last = |cands: &[usize]| *cands.last().unwrap();
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[0, 1],
            &TreeConfig::default(),
            Some(&pick_last),
        );
        assert_eq!(t.root_feature(), Some(1));
    }

    #[test]
    fn weighted_accuracy() {
        let m = matrix(&[&[true, false]]);
        let labels = BitVec::from_bools(&[true, true]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(2),
            &[0],
            &TreeConfig::default(),
            None,
        );
        let acc = t.weighted_accuracy(&m, &labels, &uniform_weights(2));
        assert!((acc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dnf_round_trips_predictions() {
        let m = matrix(&[
            &[true, true, false, false, true],
            &[false, true, true, false, true],
        ]);
        let labels = BitVec::from_bools(&[false, true, false, false, true]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(5),
            &[0, 1],
            &TreeConfig::default(),
            None,
        );
        let dnf = t.to_dnf();
        for s in 0..5 {
            let via_dnf = dnf
                .iter()
                .any(|conj| conj.iter().all(|lit| m.get(lit.feature, s) == lit.polarity));
            assert_eq!(via_dnf, t.predict_with(|f| m.get(f, s)), "sample {s}");
        }
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let m = matrix(&[&[true, false, false, false]]);
        let labels = BitVec::from_bools(&[true, false, false, false]);
        let config = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &uniform_weights(4), &[0], &config, None);
        assert_eq!(t.root_feature(), None); // split would isolate 1 sample
    }
}
