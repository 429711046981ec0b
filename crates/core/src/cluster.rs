//! Semi-supervised clustering (§3.2).
//!
//! Rather than combining predicates into rules directly, Cornet first
//! hypothesises the expected output of the rule on every unlabeled cell.
//! Three clusters are maintained — formatted (seeded with the user
//! examples), unformatted (seeded with *soft negative* cells, i.e.
//! unformatted cells lying between two formatted examples), and unassigned.
//! Unassigned cells are iteratively pulled into the closer of the two
//! labeled clusters using a combined min+max linkage over the
//! symmetric-difference distance, until assignments stabilise.
//!
//! The three ablations of Table 5 are configurable as [`ClusterMode`]s.

use crate::signature::CellSignatures;
use cornet_table::BitVec;

/// Which clustering variant to run (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMode {
    /// The full algorithm: positives, soft negatives, iterative assignment.
    Full,
    /// Ablation: no clustering at all — user examples positive, everything
    /// else negative.
    NoClustering,
    /// Ablation: no negative cluster — cells may only join the positive
    /// cluster; whatever remains unassigned becomes negative at the end.
    NoNegatives,
    /// Ablation: clustering as in `Full`, but the learner weighs labeled and
    /// unlabeled cells equally (§5.2.1 "hard negatives").
    HardNegatives,
}

/// Clustering configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Variant to run.
    pub mode: ClusterMode,
    /// Maximum reassignment sweeps.
    pub max_iters: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            mode: ClusterMode::Full,
            max_iters: 10,
        }
    }
}

/// The hypothesised labels produced by clustering.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Hypothesised formatting label `f̂ᵢ` per cell (true = formatted).
    pub labels: BitVec,
    /// Mask of the user-provided examples (hard constraints).
    pub observed: BitVec,
    /// Mask of soft negative cells.
    pub soft_negatives: BitVec,
    /// Mask of the user's *hard* negative corrections (§5.2.1): cells the
    /// user explicitly unformatted. They seed the negative cluster, stay
    /// fixed there, are never labeled positive, and downstream search must
    /// not emit a rule that covers one. All-zero on unconstrained learns.
    pub hard_negatives: BitVec,
    /// Weight the rule learner should give observed cells relative to
    /// unlabeled ones (2.0 normally, 1.0 under `HardNegatives`).
    pub observed_weight: f64,
    /// Number of reassignment sweeps performed.
    pub iterations: usize,
}

/// Soft negatives: cells `cᵢ ∉ C_obs` such that observed examples exist both
/// above and below (`∃ j < i < k` with `cⱼ, cₖ ∈ C_obs`) — "tables are
/// typically annotated by users from top to bottom".
pub fn soft_negatives(n_cells: usize, observed: &[usize]) -> BitVec {
    let mut out = BitVec::zeros(n_cells);
    let (Some(&first), Some(&last)) = (observed.iter().min(), observed.iter().max()) else {
        return out;
    };
    let obs_mask = BitVec::from_indices(n_cells, observed);
    for i in first + 1..last {
        if !obs_mask.get(i) {
            out.set(i, true);
        }
    }
    out
}

/// Runs semi-supervised clustering and returns hypothesised labels.
///
/// Compatibility wrapper over [`cluster_constrained`] with no hard
/// negatives; output is bit-identical to the historical implementation.
pub fn cluster(
    signatures: &CellSignatures,
    observed: &[usize],
    config: &ClusterConfig,
) -> ClusterOutcome {
    cluster_constrained(signatures, observed, &[], config)
}

/// Semi-supervised clustering with the user's hard negative corrections
/// threaded in as first-class constraints (§5.2.1).
///
/// Hard negatives seed the negative cluster alongside the soft negatives
/// and stay fixed there for every sweep, so nearby unlabeled cells are
/// pulled toward the negative side by real user evidence instead of the
/// positional soft-negative heuristic alone. The final labels never mark a
/// hard negative positive, regardless of mode. With `negatives` empty this
/// is exactly the historical [`cluster`] (same sweeps, same labels, bit
/// for bit).
pub fn cluster_constrained(
    signatures: &CellSignatures,
    observed: &[usize],
    negatives: &[usize],
    config: &ClusterConfig,
) -> ClusterOutcome {
    let n = signatures.n_cells();
    let observed_mask = BitVec::from_indices(n, observed);
    let mut soft_neg = soft_negatives(n, observed);
    let hard_neg = BitVec::from_indices(n, negatives);
    // A cell the user explicitly unformatted is a hard negative, not a
    // soft one — keep the masks disjoint so weighting stays well-defined.
    for i in hard_neg.iter_ones() {
        soft_neg.set(i, false);
    }
    let observed_weight = if config.mode == ClusterMode::HardNegatives {
        1.0
    } else {
        2.0
    };

    if config.mode == ClusterMode::NoClustering {
        let mut labels = observed_mask.clone();
        for i in hard_neg.iter_ones() {
            labels.set(i, false);
        }
        return ClusterOutcome {
            labels,
            observed: observed_mask,
            soft_negatives: soft_neg,
            hard_negatives: hard_neg,
            observed_weight,
            iterations: 0,
        };
    }

    // Cluster membership: 0 = positive, 1 = negative, 2 = unassigned.
    const POS: u8 = 0;
    const NEG: u8 = 1;
    const UNK: u8 = 2;
    let mut assign: Vec<u8> = vec![UNK; n];
    for &i in observed {
        assign[i] = POS;
    }
    let use_negative_cluster = config.mode != ClusterMode::NoNegatives;
    if use_negative_cluster {
        for i in soft_neg.iter_ones() {
            assign[i] = NEG;
        }
    }
    // Hard negatives are negative-cluster seeds in every mode (they are
    // user-labeled, so even the NoNegatives ablation must not let them
    // drift into the positive cluster).
    for i in hard_neg.iter_ones() {
        assign[i] = NEG;
    }
    let fixed: Vec<bool> = (0..n)
        .map(|i| {
            observed_mask.get(i) || hard_neg.get(i) || (use_negative_cluster && soft_neg.get(i))
        })
        .collect();

    let mut iterations = 0;
    for _ in 0..config.max_iters {
        iterations += 1;
        let pos_members: Vec<usize> = (0..n).filter(|&i| assign[i] == POS).collect();
        let neg_members: Vec<usize> = (0..n).filter(|&i| assign[i] == NEG).collect();
        let unk_members: Vec<usize> = (0..n).filter(|&i| assign[i] == UNK).collect();
        let mut changed = false;
        for i in 0..n {
            if fixed[i] {
                continue;
            }
            // NoNegatives: once a cell joins the positive cluster it stays —
            // the only alternative cluster is the shrinking unassigned pool.
            if config.mode == ClusterMode::NoNegatives && assign[i] == POS {
                continue;
            }
            let d_pos = signatures.linkage(i, &pos_members);
            let new_assign = if use_negative_cluster {
                let d_neg = if neg_members.is_empty() {
                    // No negative seeds (e.g. a single example): compare
                    // against the unassigned pool instead, like NoNegatives.
                    signatures.linkage(i, &unk_members)
                } else {
                    signatures.linkage(i, &neg_members)
                };
                match (d_pos, d_neg) {
                    (Some(dp), Some(dn)) if dp < dn => POS,
                    (Some(_), Some(_)) => {
                        if neg_members.is_empty() {
                            UNK
                        } else {
                            NEG
                        }
                    }
                    (Some(_), None) => POS,
                    _ => assign[i],
                }
            } else {
                // NoNegatives: join positive when strictly closer to the
                // positive cluster than to the remaining unassigned pool.
                let d_unk = signatures.linkage(i, &unk_members);
                match (d_pos, d_unk) {
                    (Some(dp), Some(du)) if dp < du => POS,
                    (Some(_), None) => POS,
                    _ => assign[i],
                }
            };
            if new_assign != assign[i] {
                assign[i] = new_assign;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Unassigned collapses into the negative cluster ("cluster_u added to
    // cluster_0").
    let mut labels = BitVec::zeros(n);
    for (i, &a) in assign.iter().enumerate() {
        if a == POS {
            labels.set(i, true);
        }
    }
    // Hard constraints: observed examples are always positive, explicit
    // negatives never are. (The learner rejects overlapping indices, so
    // the order here is only a belt-and-braces tiebreak.)
    labels.or_assign(&observed_mask);
    for i in hard_neg.iter_ones() {
        labels.set(i, false);
    }

    ClusterOutcome {
        labels,
        observed: observed_mask,
        soft_negatives: soft_neg,
        hard_negatives: hard_neg,
        observed_weight,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predgen::{generate_predicates, GenConfig};
    use crate::signature::CellSignatures;
    use cornet_table::CellValue;

    fn signatures_for(raw: &[&str]) -> CellSignatures {
        let cells: Vec<CellValue> = raw.iter().map(|s| CellValue::parse(s)).collect();
        let set = generate_predicates(&cells, &GenConfig::default());
        CellSignatures::from_predicates(&set)
    }

    #[test]
    fn soft_negative_extraction() {
        // Observed formatted at 0 and 4: cells 1..3 between them are soft
        // negatives; 5 is after the last example and stays unlabeled.
        let sn = soft_negatives(6, &[0, 4]);
        assert_eq!(sn.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(soft_negatives(6, &[2]).none());
        assert!(soft_negatives(6, &[]).none());
    }

    #[test]
    fn running_example_clusters_correctly() {
        // Figure 2: the user formats the three RW ids; the unformatted
        // cells in between (RS-762, RW-131-T, TW-224) are soft negatives and
        // stay fixed in the negative cluster ("these cells are never
        // assigned to another cluster", §3.2).
        let sigs = signatures_for(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let outcome = cluster(&sigs, &[0, 2, 5], &ClusterConfig::default());
        assert_eq!(
            outcome.labels.iter_ones().collect::<Vec<_>>(),
            vec![0, 2, 5]
        );
        assert_eq!(
            outcome.soft_negatives.iter_ones().collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
        assert_eq!(outcome.observed_weight, 2.0);
    }

    #[test]
    fn two_adjacent_examples_generalise_without_negative_evidence() {
        // With examples {0, 2} there is no evidence against RW-131-T, so it
        // legitimately joins the positives (prefix-similar to the examples).
        let sigs = signatures_for(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let outcome = cluster(&sigs, &[0, 2], &ClusterConfig::default());
        assert!(outcome.labels.get(0) && outcome.labels.get(2));
        assert!(!outcome.labels.get(1), "soft negative RS-762 stays out");
        assert!(!outcome.labels.get(4), "TW-224 stays out");
    }

    #[test]
    fn no_clustering_mode_labels_only_observed() {
        let sigs = signatures_for(&["RW-1", "RW-2", "RW-3", "XX-4"]);
        let outcome = cluster(
            &sigs,
            &[0],
            &ClusterConfig {
                mode: ClusterMode::NoClustering,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(outcome.labels.iter_ones().collect::<Vec<_>>(), vec![0]);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn no_negatives_mode_still_finds_positives() {
        let sigs = signatures_for(&["RW-1", "RW-2", "XX-9", "RW-3"]);
        let outcome = cluster(
            &sigs,
            &[0, 1],
            &ClusterConfig {
                mode: ClusterMode::NoNegatives,
                ..ClusterConfig::default()
            },
        );
        assert!(outcome.labels.get(3), "RW-3 should join");
        assert!(outcome.labels.get(0) && outcome.labels.get(1));
    }

    #[test]
    fn hard_negatives_sets_weight_one() {
        let sigs = signatures_for(&["RW-1", "XX-2", "RW-3"]);
        let outcome = cluster(
            &sigs,
            &[0, 2],
            &ClusterConfig {
                mode: ClusterMode::HardNegatives,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(outcome.observed_weight, 1.0);
        assert!(outcome.labels.get(0) && outcome.labels.get(2));
    }

    #[test]
    fn observed_cells_never_flip() {
        // Even when an observed cell looks like the negatives, the hard
        // constraint keeps it positive.
        let sigs = signatures_for(&["XX-1", "XX-2", "XX-3", "RW-9"]);
        let outcome = cluster(&sigs, &[0], &ClusterConfig::default());
        assert!(outcome.labels.get(0));
    }

    #[test]
    fn single_example_without_negatives_terminates() {
        let sigs = signatures_for(&["RW-1", "RW-2", "RW-3", "XX-4", "XX-5"]);
        let outcome = cluster(&sigs, &[0], &ClusterConfig::default());
        assert!(outcome.iterations <= 10);
        assert!(outcome.labels.get(0));
    }

    #[test]
    fn hard_negatives_seed_and_stay_negative() {
        // With examples {0, 2} alone, RW-131-T joins the positives (no
        // counter-evidence — see the test above). An explicit hard
        // negative on it pins it out and gives the negative cluster a
        // prefix-similar seed.
        let sigs = signatures_for(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let unconstrained = cluster(&sigs, &[0, 2], &ClusterConfig::default());
        assert!(
            unconstrained.labels.get(3),
            "fixture requires RW-131-T to join without a correction"
        );
        let outcome = cluster_constrained(&sigs, &[0, 2], &[3], &ClusterConfig::default());
        assert!(!outcome.labels.get(3), "hard negative must stay out");
        assert!(outcome.labels.get(0) && outcome.labels.get(2));
        assert_eq!(
            outcome.hard_negatives.iter_ones().collect::<Vec<_>>(),
            vec![3]
        );
        // The hard negative is carved out of the soft-negative mask.
        assert!(!outcome.soft_negatives.get(3));
    }

    #[test]
    fn empty_negatives_is_bit_identical_to_cluster() {
        let sigs = signatures_for(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        for observed in [vec![0], vec![0, 2], vec![0, 2, 5]] {
            for mode in [
                ClusterMode::Full,
                ClusterMode::NoClustering,
                ClusterMode::NoNegatives,
                ClusterMode::HardNegatives,
            ] {
                let config = ClusterConfig {
                    mode,
                    ..ClusterConfig::default()
                };
                let a = cluster(&sigs, &observed, &config);
                let b = cluster_constrained(&sigs, &observed, &[], &config);
                assert_eq!(a.labels, b.labels);
                assert_eq!(a.soft_negatives, b.soft_negatives);
                assert_eq!(a.iterations, b.iterations);
                assert!(b.hard_negatives.none());
            }
        }
    }

    #[test]
    fn hard_negatives_hold_in_every_mode() {
        let sigs = signatures_for(&["RW-1", "RW-2", "RW-3", "XX-4", "RW-5"]);
        for mode in [
            ClusterMode::Full,
            ClusterMode::NoClustering,
            ClusterMode::NoNegatives,
            ClusterMode::HardNegatives,
        ] {
            let config = ClusterConfig {
                mode,
                ..ClusterConfig::default()
            };
            let outcome = cluster_constrained(&sigs, &[0], &[2], &config);
            assert!(
                !outcome.labels.get(2),
                "{mode:?}: hard negative labeled positive"
            );
            assert!(outcome.labels.get(0));
        }
    }

    #[test]
    fn empty_predicate_space_is_safe() {
        // Uniform column → no predicates → all distances zero; everything
        // must still terminate with observed as positives.
        let sigs = signatures_for(&["same", "same", "same"]);
        let outcome = cluster(&sigs, &[1], &ClusterConfig::default());
        assert!(outcome.labels.get(1));
    }
}
