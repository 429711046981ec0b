//! Task generation: columns + ground-truth rules + corpus filters.

use crate::rulegen::{date_rule, numeric_rule, text_rule};
use crate::userformula::user_formula;
use crate::values::{date_column, numeric_column, text_column, NumericFamily, TextFamily};
use cornet_core::rule::Rule;
use cornet_formula::Expr;
use cornet_table::{BitVec, CellValue, DataType};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One benchmark task: a column, its ground-truth rule and formatting, and
/// the user-style formula equivalent.
#[derive(Debug, Clone)]
pub struct Task {
    /// Stable identifier.
    pub id: u64,
    /// Column cells.
    pub cells: Vec<CellValue>,
    /// Column type.
    pub dtype: DataType,
    /// Ground-truth rule.
    pub rule: Rule,
    /// `rule` executed over `cells`.
    pub formatted: BitVec,
    /// User-written formula equivalent (execution-identical to `rule`).
    pub user_formula: Expr,
    /// True when the simulated user wrote a custom formula (vs. picking a
    /// predefined template) — the population Figures 15/16 study.
    pub custom_formula: bool,
}

impl Task {
    /// Indices of formatted cells, in column order.
    pub fn formatted_indices(&self) -> Vec<usize> {
        self.formatted.iter_ones().collect()
    }

    /// The first `k` formatted cells — the paper's default "user gives
    /// examples top to bottom" protocol.
    pub fn examples(&self, k: usize) -> Vec<usize> {
        self.formatted.iter_ones().take(k).collect()
    }
}

/// Corpus generation configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed; same seed, same corpus.
    pub seed: u64,
    /// Number of tasks to generate.
    pub n_tasks: usize,
    /// Task-type mixture `[text, numeric, date]`, matching Table 3
    /// (13.81K : 9.32K : 1.87K ≈ 0.55 : 0.37 : 0.08).
    pub type_mix: [f64; 3],
    /// Mean column lengths per type (Table 3: 107.5 / 184.8 / 73.3).
    pub mean_cells: [f64; 3],
    /// Probability a task's user wrote a custom formula rather than using a
    /// template.
    pub custom_formula_rate: f64,
    /// Verbosity of user formulas (see [`crate::userformula`]).
    pub user_verbosity: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xC0FFEE,
            n_tasks: 500,
            type_mix: [0.55, 0.37, 0.08],
            mean_cells: [107.5, 184.8, 73.3],
            custom_formula_rate: 0.45,
            user_verbosity: 0.8,
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The tasks.
    pub tasks: Vec<Task>,
}

impl Corpus {
    /// Splits into train/test by task order (tasks are i.i.d. by
    /// construction). `train_fraction` ∈ (0, 1).
    pub fn split(&self, train_fraction: f64) -> (Vec<Task>, Vec<Task>) {
        let cut = ((self.tasks.len() as f64) * train_fraction).round() as usize;
        let cut = cut.min(self.tasks.len());
        (self.tasks[..cut].to_vec(), self.tasks[cut..].to_vec())
    }

    /// Tasks of one type.
    pub fn of_type(&self, dtype: DataType) -> Vec<&Task> {
        self.tasks.iter().filter(|t| t.dtype == dtype).collect()
    }
}

/// Generates a corpus. Each task is rejection-sampled until the paper's
/// corpus filters pass: the rule formats at least 5 cells, not the entire
/// column, and more than a single cell (§5.0.1).
///
/// This is [`generate_corpus_sharded`] with one shard per
/// [`cornet_pool`] worker; the corpus depends only on `config`.
pub fn generate_corpus(config: &CorpusConfig) -> Corpus {
    generate_corpus_sharded(config, cornet_pool::current_threads())
}

/// Generates a corpus sharded across the [`cornet_pool`] worker threads.
///
/// Each task slot `i` derives its own seed from `(config.seed, i)` via
/// SplitMix64 and is generated independently. The result is
/// **byte-identical for any shard count and any thread count** —
/// `n_shards` only controls how the slots are batched onto workers —
/// which is what makes §5-scale corpora (1.7M tables) feasible to
/// generate in parallel and to reproduce anywhere.
pub fn generate_corpus_sharded(config: &CorpusConfig, n_shards: usize) -> Corpus {
    let n_shards = n_shards.clamp(1, config.n_tasks.max(1));
    let per_shard = config.n_tasks.div_ceil(n_shards);
    let shards: Vec<Task> = cornet_pool::par_flat_map(n_shards, |s| {
        let lo = s * per_shard;
        let hi = ((s + 1) * per_shard).min(config.n_tasks);
        (lo..hi)
            .map(|slot| generate_slot_task(slot as u64, config))
            .collect()
    });
    Corpus { tasks: shards }
}

/// Generates the task for one slot of a sharded corpus: a fresh RNG seeded
/// from `(config.seed, slot)`, redrawing the task type and retrying until
/// the corpus filters pass. Depends only on the root seed and the slot
/// index, never on neighbouring slots.
fn generate_slot_task(slot: u64, config: &CorpusConfig) -> Task {
    let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, slot));
    loop {
        let r: f64 = rng.gen();
        let dtype = if r < config.type_mix[0] {
            DataType::Text
        } else if r < config.type_mix[0] + config.type_mix[1] {
            DataType::Number
        } else {
            DataType::Date
        };
        if let Some(task) = generate_task(slot, dtype, config, &mut rng) {
            return task;
        }
    }
}

/// SplitMix64 finalizer over the root seed and a stream index; decorrelates
/// per-slot streams even for adjacent slots or adjacent root seeds.
fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut z = root
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates one task of the requested type, or `None` if rejection
/// sampling failed (caller retries with fresh randomness).
pub fn generate_task(
    id: u64,
    dtype: DataType,
    config: &CorpusConfig,
    rng: &mut StdRng,
) -> Option<Task> {
    let mean = match dtype {
        DataType::Text => config.mean_cells[0],
        DataType::Number => config.mean_cells[1],
        DataType::Date => config.mean_cells[2],
    };
    // Column lengths: lognormal-ish around the Table 3 mean, at least 10.
    let n = ((mean * (0.4 + 1.2 * rng.gen::<f64>())) as usize).max(10);
    generate_task_with_len(id, dtype, n, config, rng)
}

/// Generates a task with an exact column length (used by the column-length
/// and unformatted-row sweeps, Figures 9 and 13).
pub fn generate_task_with_len(
    id: u64,
    dtype: DataType,
    n: usize,
    config: &CorpusConfig,
    rng: &mut StdRng,
) -> Option<Task> {
    for _attempt in 0..8 {
        let (cells, rule) = match dtype {
            DataType::Text => {
                let family = *[
                    TextFamily::IdCodes,
                    TextFamily::StatusWords,
                    TextFamily::Names,
                    TextFamily::Emails,
                    TextFamily::Products,
                ]
                .choose(rng)
                .unwrap();
                let (cells, spec) = text_column(family, n, rng);
                let rule = text_rule(&spec, &cells, rng);
                (cells, rule)
            }
            DataType::Number => {
                let family = *[
                    NumericFamily::Integers,
                    NumericFamily::Measurements,
                    NumericFamily::Prices,
                    NumericFamily::Percentages,
                ]
                .choose(rng)
                .unwrap();
                let (cells, spec) = numeric_column(family, n, rng);
                let rule = numeric_rule(&spec, &cells, rng);
                (cells, rule)
            }
            DataType::Date => {
                let (cells, spec) = date_column(n, rng);
                let rule = date_rule(&spec, &cells, rng);
                (cells, rule)
            }
        };
        let formatted = rule.execute(&cells);
        let count = formatted.count_ones();
        // Corpus filters (§5.0.1): ≥5 formatted cells, not the entire
        // column, not a single cell.
        if count < 5 || count == cells.len() {
            continue;
        }
        let custom_formula = rng.gen_bool(config.custom_formula_rate);
        let verbosity = if custom_formula {
            config.user_verbosity
        } else {
            0.0
        };
        let user_formula = user_formula(&rule, verbosity, rng);
        return Some(Task {
            id,
            cells,
            dtype,
            rule,
            formatted,
            user_formula,
            custom_formula,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_formula::evaluate_bool;

    fn small_corpus(n: usize, seed: u64) -> Corpus {
        generate_corpus(&CorpusConfig {
            n_tasks: n,
            seed,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn corpus_filters_hold() {
        let corpus = small_corpus(60, 1);
        assert_eq!(corpus.tasks.len(), 60);
        for task in &corpus.tasks {
            let count = task.formatted.count_ones();
            assert!(count >= 5, "rule formats too few cells");
            assert!(count < task.cells.len(), "rule formats entire column");
            assert!(task.cells.len() >= 10);
        }
    }

    #[test]
    fn formatting_matches_rule_execution() {
        let corpus = small_corpus(30, 2);
        for task in &corpus.tasks {
            assert_eq!(task.rule.execute(&task.cells), task.formatted);
        }
    }

    #[test]
    fn user_formula_execution_matches_rule() {
        let corpus = small_corpus(30, 3);
        for task in &corpus.tasks {
            for cell in &task.cells {
                assert_eq!(
                    evaluate_bool(&task.user_formula, cell),
                    task.rule.eval(cell),
                    "task {}: formula {} vs rule {}",
                    task.id,
                    task.user_formula,
                    task.rule
                );
            }
        }
    }

    #[test]
    fn type_mix_is_roughly_table3() {
        let corpus = small_corpus(300, 4);
        let text = corpus.of_type(DataType::Text).len() as f64 / 300.0;
        let num = corpus.of_type(DataType::Number).len() as f64 / 300.0;
        let date = corpus.of_type(DataType::Date).len() as f64 / 300.0;
        assert!((text - 0.55).abs() < 0.1, "text share {text}");
        assert!((num - 0.37).abs() < 0.1, "numeric share {num}");
        assert!((date - 0.08).abs() < 0.06, "date share {date}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_corpus(10, 5);
        let b = small_corpus(10, 5);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.cells, y.cells);
            assert_eq!(x.rule.to_string(), y.rule.to_string());
        }
        let c = small_corpus(10, 6);
        assert!(a
            .tasks
            .iter()
            .zip(&c.tasks)
            .any(|(x, y)| x.cells != y.cells));
    }

    fn corpus_fingerprint(corpus: &Corpus) -> Vec<(u64, Vec<CellValue>, String, String)> {
        corpus
            .tasks
            .iter()
            .map(|t| {
                (
                    t.id,
                    t.cells.clone(),
                    t.rule.to_string(),
                    t.user_formula.to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_corpus_is_identical_for_any_shard_or_thread_count() {
        let config = CorpusConfig {
            n_tasks: 12,
            seed: 99,
            ..CorpusConfig::default()
        };
        let reference = cornet_pool::with_threads(1, || {
            corpus_fingerprint(&generate_corpus_sharded(&config, 1))
        });
        for (threads, shards) in [(1, 3), (2, 2), (4, 5), (4, 12), (2, 64)] {
            let got = cornet_pool::with_threads(threads, || {
                corpus_fingerprint(&generate_corpus_sharded(&config, shards))
            });
            assert_eq!(got, reference, "threads={threads} shards={shards}");
        }
    }

    #[test]
    fn sharded_corpus_passes_the_corpus_filters() {
        let config = CorpusConfig {
            n_tasks: 24,
            seed: 13,
            ..CorpusConfig::default()
        };
        let corpus = generate_corpus_sharded(&config, 4);
        assert_eq!(corpus.tasks.len(), 24);
        for (slot, task) in corpus.tasks.iter().enumerate() {
            assert_eq!(task.id, slot as u64, "ids are slot indices in order");
            let count = task.formatted.count_ones();
            assert!(count >= 5 && count < task.cells.len());
            assert_eq!(task.rule.execute(&task.cells), task.formatted);
        }
    }

    #[test]
    fn sharded_corpora_differ_across_root_seeds() {
        let a = generate_corpus_sharded(
            &CorpusConfig {
                n_tasks: 6,
                seed: 1,
                ..CorpusConfig::default()
            },
            2,
        );
        let b = generate_corpus_sharded(
            &CorpusConfig {
                n_tasks: 6,
                seed: 2,
                ..CorpusConfig::default()
            },
            2,
        );
        assert!(a
            .tasks
            .iter()
            .zip(&b.tasks)
            .any(|(x, y)| x.cells != y.cells));
    }

    #[test]
    fn split_partitions() {
        let corpus = small_corpus(50, 7);
        let (train, test) = corpus.split(0.8);
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 10);
    }

    #[test]
    fn examples_are_top_down() {
        let corpus = small_corpus(10, 8);
        for task in &corpus.tasks {
            let ex = task.examples(3);
            assert!(ex.len() <= 3);
            let all = task.formatted_indices();
            assert_eq!(ex, all[..ex.len().min(all.len())].to_vec());
        }
    }
}
