//! Differential suite for the word-parallel kernels: they must be
//! **bit-identical** to the naive serial loops they replaced.
//!
//! * The tiled/transposed `Matrix` kernels and the stacked attention path,
//!   for any shape and any input values — including non-finite ones,
//!   which the kernels must propagate rather than skip.
//! * The popcount decision-tree kernel (`cornet_dtree::Fitter`), against
//!   the per-sample scalar tree builder it replaced, copied below as the
//!   reference: same trees, predictions and weighted-accuracy bits on
//!   integer weights (the popcount path) and on the baselines' 0.1/1.0
//!   weights (the scalar path).
//!
//! Wired into the CI `thread-matrix` job by name next to the other
//! differential suites; the kernels themselves are single-threaded, so
//! this suite is trivially thread-count invariant.

use cornet_repro::dtree::{DecisionTree, FeatureMatrix, Fitter, Literal, Node, TreeConfig};
use cornet_repro::nn::{CrossAttention, Matrix};
use cornet_repro::table::BitVec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The historical naive `i,k,j` triple loop `A·B` (accumulate ascending
/// `k` from `+0.0`, no zero skipping).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

/// The direct `A·Bᵀ`: one row·row dot per output element, folded from the
/// canonical `+0.0` start. (The historical code used `Iterator::sum`,
/// whose identity is `-0.0` — an all-`-0.0`-terms dot came out `-0.0`
/// there while the sibling kernels produced `+0.0`; the `+0.0`-start rule
/// deliberately normalises that, see the `matrix` module doc.)
fn naive_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let dot = a
                .row(i)
                .iter()
                .zip(b.row(j))
                .fold(0.0f64, |acc, (x, y)| acc + x * y);
            out.set(i, j, dot);
        }
    }
    out
}

/// The historical direct `Aᵀ·B`: `k`-outer axpy in ascending `k`.
fn naive_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for k in 0..a.rows() {
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + a.get(k, i) * b.get(k, j));
            }
        }
    }
    out
}

/// Bit equality with one carve-out: when *both* sides are NaN, any payload
/// matches. Rust documents NaN payload/sign bits as non-deterministic —
/// e.g. `acc + term` with two NaN operands keeps whichever operand's
/// payload LLVM put in the `addsd` destination, so a propagated input NaN
/// (`7ff8…`) and the x86 indefinite NaN from `∞ × −0.0` (`fff8…`) can win
/// in either order across code shapes. The value *class* is still pinned:
/// a NaN may never become a non-NaN (that was the zero-skip bug) and vice
/// versa, and every non-NaN output — including ±0.0 and ±∞ — must match
/// bit for bit.
fn assert_bits_equal(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        if x.is_nan() && y.is_nan() {
            continue;
        }
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {i} diverged ({x} vs {y})"
        );
    }
}

proptest! {
    /// Tiled `matmul` ≡ naive triple loop, bit for bit, over random shapes
    /// straddling the tile edges and values including NaN/±∞/−0.0.
    #[test]
    fn blocked_matmul_matches_naive(
        m in 1usize..40,
        k in 1usize..140,
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let (a, b) = two_matrices(m, k, n, seed);
        assert_bits_equal("matmul", &a.matmul(&b), &naive_matmul(&a, &b));
    }

    /// `matmul_t` (now via a transposed copy) ≡ the direct row·row dots.
    #[test]
    fn matmul_t_matches_direct_dots(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..16,
        seed in any::<u64>(),
    ) {
        let (a, bt) = two_matrices(m, k, n, seed);
        let b = bt.transpose(); // n×k → rows share a's row width
        assert_bits_equal("matmul_t", &a.matmul_t(&b), &naive_matmul_t(&a, &b));
    }

    /// `t_matmul` (now via a transposed copy) ≡ the direct `k`-outer loop.
    #[test]
    fn t_matmul_matches_direct_loop(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..16,
        seed in any::<u64>(),
    ) {
        let (a0, b) = two_matrices(m, k, n, seed);
        let a = a0.transpose(); // k×m: rows match b's k rows
        prop_assert_eq!(a.rows(), b.rows());
        assert_bits_equal("t_matmul", &a.t_matmul(&b), &naive_t_matmul(&a, &b));
    }

    /// Stacked attention ≡ per-candidate attention, bit for bit, for
    /// ragged candidate counts (0, 1, many) and any key-block height.
    #[test]
    fn stacked_attention_matches_per_candidate(
        n_cand in 0usize..6,
        m in 0usize..9,
        n in 1usize..7,
        seed in any::<u64>(),
    ) {
        let d = 5;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let attn = CrossAttention::new(d, &mut rng);
        let x = Matrix::xavier(n, d, &mut rng);
        let blocks: Vec<Matrix> =
            (0..n_cand).map(|_| Matrix::xavier(m, d, &mut rng)).collect();
        let mut stacked = Matrix::zeros(n_cand * m, d);
        for (c, e) in blocks.iter().enumerate() {
            for r in 0..m {
                stacked.row_mut(c * m + r).copy_from_slice(e.row(r));
            }
        }
        let out = attn.forward_stacked(&x, &stacked, n_cand);
        prop_assert_eq!((out.rows(), out.cols()), (n_cand * n, d));
        for (c, e) in blocks.iter().enumerate() {
            let (single, _) = attn.forward(&x, e);
            for r in 0..n {
                for j in 0..d {
                    prop_assert_eq!(
                        out.get(c * n + r, j).to_bits(),
                        single.get(r, j).to_bits(),
                        "candidate {} row {} col {}", c, r, j
                    );
                }
            }
        }
    }
}

/// Deterministically builds an `m×k` and a `k×n` matrix from a seed using
/// the same non-finite-inclusive element distribution as [`arb_element`].
fn two_matrices(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let element = |rng: &mut StdRng| -> f64 {
        match rng.gen_range(0..13u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            _ => rng.gen_range(-1e3..1e3),
        }
    };
    let a = Matrix::from_vec(m, k, (0..m * k).map(|_| element(&mut rng)).collect());
    let b = Matrix::from_vec(k, n, (0..k * n).map(|_| element(&mut rng)).collect());
    (a, b)
}

/// All kernels agree on the degenerate all-`-0.0`-terms dot: `+0.0`, per
/// the `+0.0`-start accumulation rule (the historical `matmul_t` answered
/// `-0.0` here via `Iterator::sum`).
#[test]
fn signed_zero_dot_is_normalised_to_positive_zero() {
    let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    let negz = Matrix::from_vec(1, 2, vec![-0.0, -0.0]);
    assert_eq!(a.matmul_t(&negz).get(0, 0).to_bits(), 0.0f64.to_bits());
    assert_eq!(
        a.matmul(&negz.transpose()).get(0, 0).to_bits(),
        0.0f64.to_bits()
    );
    let at = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
    let bz = Matrix::from_vec(2, 1, vec![-0.0, -0.0]);
    assert_eq!(at.t_matmul(&bz).get(0, 0).to_bits(), 0.0f64.to_bits());
}

/// `0.0 × NaN` and `0.0 × ∞` must poison the product — the old kernels
/// skipped zero terms and silently dropped the NaN.
#[test]
fn zero_terms_propagate_non_finite_values() {
    let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
    let nan = Matrix::from_vec(2, 1, vec![f64::NAN, 2.0]);
    assert!(a.matmul(&nan).get(0, 0).is_nan());
    let inf = Matrix::from_vec(2, 1, vec![f64::INFINITY, 2.0]);
    assert!(a.matmul(&inf).get(0, 0).is_nan());
    let at = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
    assert!(at.t_matmul(&nan).get(0, 0).is_nan());
}

/// The scalar tree builder the popcount kernel replaced: node samples as
/// index lists, class weights and split gains as serial per-sample f64
/// sums, predictions as per-sample tree walks.
struct ReferenceTree {
    nodes: Vec<Node>,
    root: usize,
}

struct ReferenceBuilder<'a> {
    features: &'a FeatureMatrix,
    labels: &'a BitVec,
    weights: &'a [f64],
    config: &'a TreeConfig,
    tie_break: Option<&'a dyn Fn(&[usize]) -> usize>,
    nodes: Vec<Node>,
    decision_nodes: usize,
}

impl ReferenceBuilder<'_> {
    fn weight(&self, s: usize) -> f64 {
        let w = self.weights[s];
        if self.labels.get(s) {
            w * self.config.positive_class_weight
        } else {
            w
        }
    }

    fn class_weights(&self, samples: &[usize]) -> (f64, f64) {
        let mut pos = 0.0;
        let mut neg = 0.0;
        for &s in samples {
            if self.labels.get(s) {
                pos += self.weight(s);
            } else {
                neg += self.weight(s);
            }
        }
        (pos, neg)
    }

    fn grow(&mut self, samples: &[usize], allowed: &[usize], depth: usize) -> usize {
        let (pos, neg) = self.class_weights(samples);
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                prediction: pos > neg,
                pos_weight: pos,
                neg_weight: neg,
            });
            nodes.len() - 1
        };
        if pos == 0.0
            || neg == 0.0
            || depth >= self.config.max_depth
            || samples.len() < self.config.min_samples_split
            || self.decision_nodes >= self.config.max_decision_nodes
            || allowed.is_empty()
        {
            return make_leaf(&mut self.nodes);
        }
        let Some(feature) = self.best_split(samples, allowed, pos, neg) else {
            return make_leaf(&mut self.nodes);
        };
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &s in samples {
            if self.features.get(feature, s) {
                right.push(s);
            } else {
                left.push(s);
            }
        }
        self.decision_nodes += 1;
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            left: usize::MAX,
            right: usize::MAX,
        });
        let left_idx = self.grow(&left, allowed, depth + 1);
        let right_idx = self.grow(&right, allowed, depth + 1);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_idx]
        {
            *l = left_idx;
            *r = right_idx;
        }
        node_idx
    }

    fn best_split(
        &self,
        samples: &[usize],
        allowed: &[usize],
        pos: f64,
        neg: f64,
    ) -> Option<usize> {
        let total = pos + neg;
        let parent_gini = gini(pos, neg);
        let mut best_gain = f64::NEG_INFINITY;
        let mut best: Vec<usize> = Vec::new();
        for &f in allowed {
            let mut pos_r = 0.0;
            let mut neg_r = 0.0;
            let mut count_r = 0usize;
            for &s in samples {
                if self.features.get(f, s) {
                    count_r += 1;
                    if self.labels.get(s) {
                        pos_r += self.weights[s] * self.config.positive_class_weight;
                    } else {
                        neg_r += self.weights[s];
                    }
                }
            }
            let count_l = samples.len() - count_r;
            if count_l < self.config.min_samples_leaf || count_r < self.config.min_samples_leaf {
                continue;
            }
            let (pos_l, neg_l) = (pos - pos_r, neg - neg_r);
            let (w_l, w_r) = (pos_l + neg_l, pos_r + neg_r);
            let child = (w_l * gini(pos_l, neg_l) + w_r * gini(pos_r, neg_r)) / total;
            let gain = parent_gini - child;
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

impl ReferenceTree {
    fn fit(
        features: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        allowed: &[usize],
        config: &TreeConfig,
        tie_break: Option<&dyn Fn(&[usize]) -> usize>,
    ) -> ReferenceTree {
        let mut builder = ReferenceBuilder {
            features,
            labels,
            weights,
            config,
            tie_break,
            nodes: Vec::new(),
            decision_nodes: 0,
        };
        let all: Vec<usize> = (0..features.n_samples()).collect();
        let root = builder.grow(&all, allowed, 0);
        ReferenceTree {
            nodes: builder.nodes,
            root,
        }
    }

    fn predict(&self, features: &FeatureMatrix, s: usize) -> bool {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { prediction, .. } => return *prediction,
                Node::Split {
                    feature,
                    left,
                    right,
                } => {
                    at = if features.get(*feature, s) {
                        *right
                    } else {
                        *left
                    }
                }
            }
        }
    }

    fn predict_all(&self, features: &FeatureMatrix) -> BitVec {
        (0..features.n_samples())
            .map(|s| self.predict(features, s))
            .collect()
    }

    fn weighted_accuracy(&self, features: &FeatureMatrix, labels: &BitVec, weights: &[f64]) -> f64 {
        reference_agreement(&self.predict_all(features), labels, weights)
    }

    fn root_feature(&self) -> Option<usize> {
        match &self.nodes[self.root] {
            Node::Split { feature, .. } => Some(*feature),
            Node::Leaf { .. } => None,
        }
    }

    fn decision_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.root)
    }

    fn to_dnf(&self) -> Vec<Vec<Literal>> {
        fn rec(nodes: &[Node], at: usize, path: &mut Vec<Literal>, dnf: &mut Vec<Vec<Literal>>) {
            match &nodes[at] {
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
                    for (child, polarity) in [(*left, false), (*right, true)] {
                        path.push(Literal {
                            feature: *feature,
                            polarity,
                        });
                        rec(nodes, child, path, dnf);
                        path.pop();
                    }
                }
            }
        }
        let mut dnf = Vec::new();
        rec(&self.nodes, self.root, &mut Vec::new(), &mut dnf);
        dnf
    }
}

/// The serial per-sample weighted agreement of a prediction mask.
fn reference_agreement(predictions: &BitVec, labels: &BitVec, weights: &[f64]) -> f64 {
    let mut correct = 0.0;
    let mut total = 0.0;
    for s in 0..labels.len() {
        total += weights[s];
        if predictions.get(s) == labels.get(s) {
            correct += weights[s];
        }
    }
    if total == 0.0 {
        1.0
    } else {
        correct / total
    }
}

/// One random fitting problem: features (some correlated with the labels,
/// some duplicated so ties occur), labels, weights and a config.
struct TreeCase {
    features: FeatureMatrix,
    labels: BitVec,
    weights: Vec<f64>,
    config: TreeConfig,
    allowed: Vec<usize>,
    pick_last: bool,
}

/// Sample counts straddling the 64-bit word edges, then uniform in 1..=300.
fn sample_count(choice: usize) -> usize {
    const EDGES: [usize; 7] = [1, 63, 64, 65, 128, 129, 300];
    if choice < EDGES.len() {
        EDGES[choice]
    } else {
        choice - EDGES.len() + 1
    }
}

fn tree_case(n: usize, seed: u64, weight_pair: [f64; 2]) -> TreeCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let label_rate = rng.gen_range(0.05..0.95);
    let labels: BitVec = (0..n).map(|_| rng.gen_bool(label_rate)).collect();
    let n_features = rng.gen_range(0..=40usize);
    let mut signatures: Vec<BitVec> = Vec::with_capacity(n_features);
    for _ in 0..n_features {
        let sig: BitVec = match rng.gen_range(0..4u32) {
            // Labels with a little noise: a good split.
            0 => {
                let noise = rng.gen_range(0.0..0.2);
                labels.iter().map(|l| l != rng.gen_bool(noise)).collect()
            }
            // A copy of an earlier feature: an exact gain tie.
            1 if !signatures.is_empty() => {
                let i = rng.gen_range(0..signatures.len());
                signatures[i].clone()
            }
            _ => {
                let density = rng.gen_range(0.0..1.0);
                (0..n).map(|_| rng.gen_bool(density)).collect()
            }
        };
        signatures.push(sig);
    }
    let weights: Vec<f64> = (0..n)
        .map(|_| weight_pair[usize::from(rng.gen_bool(0.3))])
        .collect();
    let mut allowed: Vec<usize> = (0..n_features).filter(|_| rng.gen_bool(0.8)).collect();
    allowed.shuffle(&mut rng);
    let min_samples_leaf = rng.gen_range(1..=4usize);
    let config = TreeConfig {
        max_decision_nodes: rng.gen_range(1..=10),
        max_depth: rng.gen_range(1..=6),
        min_samples_split: rng.gen_range(2..=2 * min_samples_leaf + 2),
        min_samples_leaf,
        positive_class_weight: if rng.gen_bool(0.5) { 1.0 } else { 5.0 },
    };
    TreeCase {
        features: FeatureMatrix::new(n, signatures),
        labels,
        weights,
        config,
        allowed,
        pick_last: rng.gen_bool(0.5),
    }
}

/// Fits `case` with the kernel (a fresh fit and, for each shrinking prefix
/// of removed roots, a refit over one prepared [`Fitter`]) and with the
/// reference, asserting every observable is identical.
fn assert_tree_kernel_matches(case: &TreeCase) {
    let pick_last = |cands: &[usize]| *cands.last().unwrap();
    let hook: Option<&dyn Fn(&[usize]) -> usize> = if case.pick_last {
        Some(&pick_last)
    } else {
        None
    };
    let (features, labels, weights) = (&case.features, &case.labels, &case.weights[..]);
    let fitter = Fitter::new(features, labels, weights, &case.config);
    let mut allowed = case.allowed.clone();
    for round in 0..4 {
        let want = ReferenceTree::fit(features, labels, weights, &allowed, &case.config, hook);
        let fresh = DecisionTree::fit(features, labels, weights, &allowed, &case.config, hook);
        let refit = fitter.fit(&allowed, hook);
        for (path, got) in [("fit", &fresh), ("prepared fit", &refit)] {
            let at = format!("{path}, round {round}");
            assert_eq!(got.to_dnf(), want.to_dnf(), "{at}: dnf");
            assert_eq!(got.root_feature(), want.root_feature(), "{at}: root");
            assert_eq!(
                got.decision_node_count(),
                want.decision_node_count(),
                "{at}: decision nodes"
            );
            assert_eq!(got.depth(), want.depth(), "{at}: depth");
            let predictions = got.predict_all(features);
            assert_eq!(predictions, want.predict_all(features), "{at}: predict_all");
            let accuracy = want.weighted_accuracy(features, labels, weights);
            assert_eq!(
                got.weighted_accuracy(features, labels, weights).to_bits(),
                accuracy.to_bits(),
                "{at}: weighted_accuracy"
            );
            assert_eq!(
                fitter.accuracy(&predictions).to_bits(),
                accuracy.to_bits(),
                "{at}: Fitter::accuracy"
            );
        }
        // The enumeration's variety step: drop the root and refit.
        match want.root_feature() {
            Some(root) => allowed.retain(|&f| f != root),
            None => break,
        }
    }
}

proptest! {
    /// Popcount kernel ≡ scalar builder on integer weights {1, 2} and
    /// positive-class weights {1, 5}: the exact, word-parallel path.
    #[test]
    fn popcount_tree_kernel_matches_scalar_builder(
        size in 0usize..307,
        seed in any::<u64>(),
    ) {
        assert_tree_kernel_matches(&tree_case(sample_count(size), seed, [1.0, 2.0]));
    }

    /// The decision-tree baselines' weights (0.1 weak negatives, 1.0
    /// examples) are not integers and take the scalar path; it too must
    /// match the reference bit for bit.
    #[test]
    fn fractional_weights_take_the_scalar_path(
        size in 0usize..307,
        seed in any::<u64>(),
    ) {
        assert_tree_kernel_matches(&tree_case(sample_count(size), seed, [1.0, 0.1]));
    }
}

/// Prediction masks agree with the reference weighted agreement on
/// arbitrary masks, not only on a tree's own predictions, at the word
/// edges.
#[test]
fn fitter_accuracy_matches_serial_agreement_on_random_masks() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in [1usize, 63, 64, 65, 128, 129, 300] {
        for weight_pair in [[1.0, 2.0], [1.0, 0.1]] {
            let case = tree_case(n, rng.gen(), weight_pair);
            let fitter = Fitter::new(&case.features, &case.labels, &case.weights, &case.config);
            for _ in 0..20 {
                let mask: BitVec = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                assert_eq!(
                    fitter.accuracy(&mask).to_bits(),
                    reference_agreement(&mask, &case.labels, &case.weights).to_bits(),
                    "n {n}, weights {weight_pair:?}"
                );
            }
        }
    }
}
