//! Input generation. Everything here is a pure function of the `--seed`
//! argument: the same seed gives the same columns, rules and requests.
//! The evaluation corpus the learner is asked about is the same for every
//! seed ([`eval_tasks`]).
//!
//! Column lengths and data types follow a fixed stratified schedule
//! ([`SHAPES`]), so short and long columns, and every data type, keep
//! their share of the work.

use crate::check::values_of;
use cornet_core::rule::Rule;
use cornet_core::ruleset::RuleSet;
use cornet_corpus::taskgen::generate_task_with_len;
use cornet_corpus::{generate_multirule_corpus, CorpusConfig, MultiRuleConfig};
use cornet_serde::{to_string, ToJson};
use cornet_serve::service::{ClassRequest, LearnRequest};
use cornet_serve::store::{rule_id, rule_set_id, ClassFingerprint, RuleStore, StoredRule};
use cornet_serve::suggest::{embed_column, SuggestRequest};
use cornet_table::{BitVec, CellValue, DataType};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::Path;

/// Rules seeded into the store before the service opens.
pub const SEEDED_RULES: usize = 10_000;

/// Examples the simulated user gives per single-class task (the paper's
/// "first formatted cells, top to bottom" protocol).
const EXAMPLES: usize = 3;

/// The (type, length) schedule cold tasks cycle through: the corpus type
/// mix (55% text, 37% numeric, 8% date) crossed with lengths from short
/// columns, where the pool's work-size gates keep the learner inline, to
/// several hundred cells, where they fan out.
const SHAPES: [(DataType, usize); 13] = [
    (DataType::Text, 16),
    (DataType::Number, 24),
    (DataType::Text, 40),
    (DataType::Number, 60),
    (DataType::Text, 80),
    (DataType::Date, 50),
    (DataType::Text, 110),
    (DataType::Number, 140),
    (DataType::Text, 160),
    (DataType::Number, 220),
    (DataType::Text, 260),
    (DataType::Text, 330),
    (DataType::Number, 400),
];

/// Every seventh cold task is a k-class rule set (about 15%).
const MULTI_EVERY: usize = 7;

/// Independent RNG stream `stream` of `seed` (SplitMix64 finaliser).
pub fn stream(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One learn input: a column plus what the user painted.
#[derive(Debug, Clone)]
pub struct Task {
    pub cells: Vec<String>,
    /// Single-class examples (empty for a k-class task).
    pub examples: Vec<usize>,
    /// The classes of a k-class task (empty for a single-class task).
    pub classes: Vec<ClassRequest>,
    pub negatives: Vec<usize>,
    /// Ground-truth formatting of a single-class task, for execution match.
    pub formatted: Option<BitVec>,
}

impl Task {
    pub fn request(&self) -> LearnRequest {
        LearnRequest {
            cells: self.cells.clone(),
            examples: self.examples.clone(),
            negatives: self.negatives.clone(),
            classes: self.classes.clone(),
            tenant: None,
        }
    }

    pub fn body(&self) -> String {
        to_string(&self.request().to_json())
    }

    /// The store id the service fingerprints this request to.
    pub fn rule_id(&self) -> String {
        if self.classes.is_empty() {
            rule_id(&self.cells, &self.examples, &self.negatives)
        } else {
            let prints: Vec<ClassFingerprint<'_>> = self
                .classes
                .iter()
                .map(|c| ClassFingerprint {
                    style: &c.style,
                    scope: c.scope,
                    examples: &c.examples,
                })
                .collect();
            rule_set_id(&self.cells, &prints, &self.negatives)
        }
    }

    pub fn is_multi(&self) -> bool {
        !self.classes.is_empty()
    }
}

fn texts(values: &[CellValue]) -> Vec<String> {
    values.iter().map(CellValue::display_string).collect()
}

/// A single-class task of the given shape; about a third carry one or two
/// negative corrections drawn from the cells the ground truth leaves
/// unformatted, so the constrained learner stays satisfiable.
fn single_task(seed: u64, (dtype, len): (DataType, usize)) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = CorpusConfig::default();
    let task = loop {
        if let Some(task) = generate_task_with_len(0, dtype, len, &config, &mut rng) {
            break task;
        }
    };
    // Ground truth on the cells as the service parses them.
    let cells = texts(&task.cells);
    let formatted = task.rule.execute(&values_of(&cells));
    let examples: Vec<usize> = formatted.iter_ones().take(EXAMPLES).collect();
    let mut negatives = Vec::new();
    if rng.gen_range(0..3) == 0 {
        let mut unformatted: Vec<usize> = (0..cells.len()).filter(|&i| !formatted.get(i)).collect();
        unformatted.shuffle(&mut rng);
        negatives = unformatted.into_iter().take(rng.gen_range(1..=2)).collect();
        negatives.sort_unstable();
    }
    Task {
        cells,
        examples,
        classes: Vec::new(),
        negatives,
        formatted: Some(formatted),
    }
}

/// A k-class task from the multi-rule corpus, two examples per class.
fn multi_task(seed: u64) -> Task {
    let task = generate_multirule_corpus(&MultiRuleConfig {
        seed,
        n_tasks: 1,
        cells_range: (24, 120),
        classes_range: (2, 4),
    })
    .pop()
    .expect("one task requested");
    let classes = task
        .classes
        .iter()
        .map(|c| ClassRequest {
            style: c.style.clone(),
            scope: c.scope,
            examples: c.members.iter().take(2).copied().collect(),
        })
        .collect();
    Task {
        cells: texts(&task.cells),
        examples: Vec::new(),
        classes,
        negatives: Vec::new(),
        formatted: None,
    }
}

/// Cold task `i` of stream `salt`: every [`MULTI_EVERY`]th is a k-class
/// task, the rest cycle through [`SHAPES`].
fn cold_task(seed: u64, salt: u64, i: usize) -> Task {
    let s = stream(stream(seed, salt), i as u64);
    if i % MULTI_EVERY == MULTI_EVERY - 1 {
        multi_task(s)
    } else {
        single_task(s, SHAPES[i % SHAPES.len()])
    }
}

/// The seed of the evaluation corpus, which is the same for every
/// `--seed`.
const EVAL_SEED: u64 = 0xC0_2E7;

/// The first `n` tasks of the evaluation corpus, which every learner-bound
/// request draws from. The corpus is fixed, and `--seed` only orders it,
/// so that two seeds ask the learner for the same work and `exec_match`
/// repeats exactly. Column contents alone move the learn tail by about
/// 15% between seeds at a few hundred learns.
pub fn eval_tasks(n: usize) -> Vec<Task> {
    (0..n).map(|i| cold_task(EVAL_SEED, 0xE7A1, i)).collect()
}

/// A column for `/suggest`: a fresh column of the corpus mix, never stored.
pub fn suggest_column(seed: u64, i: usize) -> Vec<String> {
    let s = stream(stream(seed, 0x5u64), i as u64);
    let shape = SHAPES[i % SHAPES.len()];
    single_task(s, shape).cells
}

pub fn suggest_body(cells: &[String]) -> String {
    to_string(
        &SuggestRequest {
            cells: cells.to_vec(),
            tenant: None,
            k: None,
        }
        .to_json(),
    )
}

/// One rule seeded into the store: its ground-truth rule, the column it
/// was learned from, and the request that fingerprints to it.
pub struct Seeded {
    pub id: String,
    pub rule: Rule,
    pub cells: Vec<String>,
    pub examples: Vec<usize>,
}

impl Seeded {
    pub fn learn_body(&self) -> String {
        to_string(
            &LearnRequest {
                cells: self.cells.clone(),
                examples: self.examples.clone(),
                negatives: Vec::new(),
                classes: Vec::new(),
                tenant: None,
            }
            .to_json(),
        )
    }

    pub fn score_body(&self) -> String {
        format!(
            "{{\"rule_id\":{},\"cells\":{}}}",
            to_string(&self.id.to_json()),
            to_string(&self.cells.to_json())
        )
    }
}

/// Writes [`SEEDED_RULES`] corpus rules into a fresh store at `dir`
/// through the public `RuleStore::put`, each under the id its learn
/// request fingerprints to and with its real column embedding, so store
/// hits, `/score` by id and the suggest index all do real work.
pub fn seed_store(dir: &Path, seed: u64) -> io::Result<Vec<Seeded>> {
    let corpus = cornet_corpus::generate_corpus_sharded(
        &CorpusConfig {
            seed: stream(seed, 0x1),
            n_tasks: SEEDED_RULES,
            ..CorpusConfig::default()
        },
        4,
    );
    let mut store = RuleStore::open(dir, 1)?;
    let mut seeded = Vec::with_capacity(corpus.tasks.len());
    for task in corpus.tasks {
        let cells = texts(&task.cells);
        let examples = task.examples(EXAMPLES);
        let id = rule_id(&cells, &examples, &[]);
        store.put(StoredRule {
            id: id.clone(),
            rule: task.rule.clone(),
            score: 1.0,
            examples: examples.clone(),
            negatives: Vec::new(),
            column_len: cells.len(),
            consistent: true,
            rule_set: None,
            tenant: None,
            embedding: Some(embed_column(&cells)),
        })?;
        seeded.push(Seeded {
            id,
            rule: task.rule,
            cells,
            examples,
        });
    }
    Ok(seeded)
}

/// What a stored rule formats on `cells`: the rule's own execution, or a
/// rule set's conflict-resolved union.
pub fn matches_of(rule: &Rule, set: Option<&RuleSet>, cells: &[CellValue]) -> Vec<usize> {
    match set {
        Some(set) => set
            .apply(cells)
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|_| i))
            .collect(),
        None => rule.execute(cells).iter_ones().collect(),
    }
}
