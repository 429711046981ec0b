//! The end-to-end Cornet learner (Figure 2), including the constrained
//! correct-and-relearn entry point ([`LearnSpec`]).
//!
//! Every learn is two steps: [`Cornet::prepare`] builds a [`ColumnContext`]
//! from the cells alone (span `learn.predgen`, covering predicate
//! generation and the signature build), then a search clusters
//! (`learn.cluster`), enumerates and ranks over it. A rule-set learn runs
//! all its classes and relaxed fallbacks over one shared context.

use crate::cluster::{cluster_constrained, ClusterConfig};
use crate::enumerate::{enumerate_rules, EnumConfig};
use crate::features::rule_features_constrained;
use crate::fullsearch::{full_search, FullSearchConfig};
use crate::predgen::{generate_predicates, infer_type, GenConfig, PredicateSet};
use crate::rank::{score_descending, RankContext, Ranker, ScoredRule, SymbolicRanker};
use crate::ruleset::{RuleSet, StyledRule};
use crate::signature::CellSignatures;
use cornet_obs::{Counter, Histogram, StageTimer};
use cornet_table::{CellValue, DataType, Format, FormatTable, TargetScope};
use std::fmt;
use std::sync::OnceLock;

/// Learner-level metric handles, registered once in the process-wide
/// [`cornet_obs::registry`]. Purely observational: timers and counters
/// never influence the search, so instrumented learns stay bit-identical
/// to uninstrumented ones at any thread count.
struct LearnMetrics {
    /// Successful learns (any entry point).
    learns: Counter,
    /// Enforcing learns that proved no rule satisfies the spec.
    abstentions: Counter,
    /// Relaxed-fallback learns ([`Cornet::learn_spec_relaxed`]).
    relaxed: Counter,
    /// Rule-set learns ([`Cornet::learn_ruleset_in`]).
    rulesets: Counter,
    /// Per-stage wall time, labelled by pipeline stage.
    predgen: Histogram,
    cluster: Histogram,
    enumerate: Histogram,
    fullsearch: Histogram,
    rank: Histogram,
}

fn learn_metrics() -> &'static LearnMetrics {
    static METRICS: OnceLock<LearnMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = cornet_obs::registry();
        let stage = |name: &str| {
            registry.histogram_with(
                "cornet_learn_stage_duration_seconds",
                "Learner pipeline stage wall time",
                &[("stage", name)],
            )
        };
        LearnMetrics {
            learns: registry.counter("cornet_learns_total", "Learns that produced candidates"),
            abstentions: registry.counter(
                "cornet_learn_abstentions_total",
                "Enforcing learns that abstained (no rule satisfies the spec)",
            ),
            relaxed: registry.counter(
                "cornet_learn_relaxed_total",
                "Relaxed-fallback learns after an abstention",
            ),
            rulesets: registry.counter(
                "cornet_learn_rulesets_total",
                "Rule-set learns that produced a rule set (every cornet-serve learn is one)",
            ),
            predgen: stage("predgen"),
            cluster: stage("cluster"),
            enumerate: stage("enumerate"),
            fullsearch: stage("fullsearch"),
            rank: stage("rank"),
        }
    })
}

/// Which candidate generator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Cornet's greedy iterative tree learning (§3.3.2).
    #[default]
    Greedy,
    /// Depth-bounded exhaustive search (§5.2.2 comparison).
    Exhaustive,
}

/// Learner configuration; defaults are the paper's (λₙ = 10, λₐ = 0.8,
/// full three-cluster semi-supervised clustering).
#[derive(Debug, Clone, Default)]
pub struct CornetConfig {
    /// Predicate generation bounds.
    pub gen: GenConfig,
    /// Clustering mode and iteration budget.
    pub cluster: ClusterConfig,
    /// Rule enumeration parameters.
    pub enumeration: EnumConfig,
    /// Full-search parameters (used by [`SearchStrategy::Exhaustive`]).
    pub full_search: FullSearchConfig,
    /// Candidate generator.
    pub strategy: SearchStrategy,
}

/// Why learning produced no rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// No formatted examples were provided.
    NoExamples,
    /// An example index is out of range for the column.
    ExampleOutOfRange(usize),
    /// A negative index is out of range for the column.
    NegativeOutOfRange(usize),
    /// An index appears in both the positives and the negatives.
    ConflictingExample(usize),
    /// No predicates could be generated (empty or constant column).
    NoPredicates,
    /// No candidate rule was consistent with the examples. On a
    /// constrained learn this is an *abstention*: the search proved that
    /// no rule in the language (within the configured bounds) covers every
    /// positive while excluding every negative.
    NoConsistentRule,
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::NoExamples => write!(f, "no formatted example cells were provided"),
            LearnError::ExampleOutOfRange(i) => {
                write!(f, "example index {i} is outside the column")
            }
            LearnError::NegativeOutOfRange(i) => {
                write!(f, "negative index {i} is outside the column")
            }
            LearnError::ConflictingExample(i) => {
                write!(f, "index {i} is both a positive and a negative example")
            }
            LearnError::NoPredicates => {
                write!(f, "no predicates hold on a proper subset of the column")
            }
            LearnError::NoConsistentRule => {
                write!(f, "no candidate rule is consistent with the examples")
            }
        }
    }
}

impl std::error::Error for LearnError {}

/// A learning task: the column plus the user's positive examples and hard
/// negative corrections. This is the first-class input of the constrained
/// learner ([`Cornet::learn_spec`]); the demo paper's correct-and-relearn
/// loop re-learns from an updated spec after every correction.
///
/// With `negatives` empty a spec is exactly the historical
/// `learn(cells, observed)` task, and the learner's output is bit-identical
/// to it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LearnSpec {
    /// The column.
    pub cells: Vec<CellValue>,
    /// Indices the user formatted (`C_obs`).
    pub positives: Vec<usize>,
    /// Indices the user explicitly unformatted (hard negatives, §5.2.1).
    pub negatives: Vec<usize>,
}

impl LearnSpec {
    /// A spec with no negative corrections.
    pub fn new(cells: Vec<CellValue>, positives: Vec<usize>) -> LearnSpec {
        LearnSpec {
            cells,
            positives,
            negatives: Vec::new(),
        }
    }

    /// Adds hard negative corrections.
    pub fn with_negatives(mut self, negatives: Vec<usize>) -> LearnSpec {
        self.negatives = negatives;
        self
    }
}

/// One format class of a [`RuleSetSpec`]: the style the user painted, the
/// scope it paints, and the cells they painted it on.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// The style payload this class applies.
    pub style: Format,
    /// Whether the style paints the matching cell or its whole row.
    pub scope: TargetScope,
    /// Indices the user gave this style (`C_obs` for this class).
    pub positives: Vec<usize>,
}

impl ClassSpec {
    /// A cell-scoped class.
    pub fn new(style: Format, positives: Vec<usize>) -> ClassSpec {
        ClassSpec {
            style,
            scope: TargetScope::default(),
            positives,
        }
    }

    /// Sets the target scope.
    pub fn with_scope(mut self, scope: TargetScope) -> ClassSpec {
        self.scope = scope;
        self
    }
}

/// A multi-class learning task: the column partitioned into k styled
/// format classes, plus cells the user explicitly left unformatted.
/// The k>2 generalisation of [`LearnSpec`] — with a single class and no
/// negatives it describes exactly the same task.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSetSpec {
    /// The column.
    pub cells: Vec<CellValue>,
    /// The format classes, in priority order (class 0 outranks class 1…).
    pub classes: Vec<ClassSpec>,
    /// Indices the user explicitly unformatted — hard negatives for
    /// *every* class.
    pub negatives: Vec<usize>,
}

impl RuleSetSpec {
    /// A spec with no negative corrections.
    pub fn new(cells: Vec<CellValue>, classes: Vec<ClassSpec>) -> RuleSetSpec {
        RuleSetSpec {
            cells,
            classes,
            negatives: Vec::new(),
        }
    }

    /// Adds hard negative corrections.
    pub fn with_negatives(mut self, negatives: Vec<usize>) -> RuleSetSpec {
        self.negatives = negatives;
        self
    }
}

/// The result of a multi-class learn: the rule set plus per-class detail.
#[derive(Debug, Clone)]
pub struct RuleSetOutcome {
    /// One styled rule per class, in class order (`rules[k]` is class k;
    /// its priority is k).
    pub rule_set: RuleSet,
    /// The format table the set's `rule.format` ids index into.
    pub format_table: FormatTable,
    /// Winning class per cell after conflict resolution
    /// ([`RuleSet::apply`] on the spec's column).
    pub assignments: Vec<Option<usize>>,
    /// Per-class run statistics, in class order.
    pub class_stats: Vec<LearnStats>,
}

/// Statistics of a learning run (Table 5 reports candidate counts and
/// timings; Figure 9/11 report timings measured by the caller).
#[derive(Debug, Clone, Default)]
pub struct LearnStats {
    /// Number of generated predicates after filtering and dedup.
    pub n_predicates: usize,
    /// Number of candidate rules before ranking.
    pub n_candidates: usize,
    /// Clustering sweeps performed.
    pub cluster_iterations: usize,
}

/// Result of a successful learning run: candidates sorted best-first.
#[derive(Debug, Clone)]
pub struct LearnOutcome {
    /// Scored candidates, descending by score (ties broken by shorter rule,
    /// then display string for determinism).
    pub candidates: Vec<ScoredRule>,
    /// Run statistics.
    pub stats: LearnStats,
}

impl LearnOutcome {
    /// The best rule.
    pub fn best(&self) -> &ScoredRule {
        &self.candidates[0]
    }
}

/// A column prepared for learning by [`Cornet::prepare`]: its cells,
/// predicates (§3.1), cell signatures (§3.2), display texts and type
/// (§3.4). It derives from the cells alone, so it serves every search over
/// the column: each class, each relaxed fallback, each session re-learn.
#[derive(Debug)]
pub struct ColumnContext {
    cells: Vec<CellValue>,
    predicates: PredicateSet,
    signatures: CellSignatures,
    cell_texts: Vec<String>,
    dtype: Option<DataType>,
}

/// The Cornet learner: pipeline configuration plus a ranker.
pub struct Cornet<R: Ranker = SymbolicRanker> {
    config: CornetConfig,
    ranker: R,
}

impl Cornet<SymbolicRanker> {
    /// A learner with default configuration and the heuristic symbolic
    /// ranker — works out of the box with no training.
    pub fn with_default_ranker() -> Cornet<SymbolicRanker> {
        Cornet {
            config: CornetConfig::default(),
            ranker: SymbolicRanker::heuristic(),
        }
    }
}

impl<R: Ranker> Cornet<R> {
    /// Builds a learner from configuration and a ranker.
    pub fn new(config: CornetConfig, ranker: R) -> Cornet<R> {
        Cornet { config, ranker }
    }

    /// The configuration.
    pub fn config(&self) -> &CornetConfig {
        &self.config
    }

    /// The ranker.
    pub fn ranker(&self) -> &R {
        &self.ranker
    }

    /// Prepares a column for learning; emits the `learn.predgen` span.
    pub fn prepare(&self, cells: &[CellValue]) -> ColumnContext {
        let _timer = StageTimer::start("learn.predgen", learn_metrics().predgen.clone());
        let predicates = generate_predicates(cells, &self.config.gen);
        ColumnContext {
            signatures: CellSignatures::from_predicates(&predicates),
            predicates,
            cell_texts: cells.iter().map(CellValue::display_string).collect(),
            dtype: infer_type(cells),
            cells: cells.to_vec(),
        }
    }

    /// Learns a formatting rule from a column and user-formatted example
    /// indices (`C_obs`). Returns candidates sorted best-first.
    ///
    /// Compatibility wrapper over the constrained pipeline with no
    /// negatives; output is bit-identical to the historical learner.
    pub fn learn(
        &self,
        cells: &[CellValue],
        observed: &[usize],
    ) -> Result<LearnOutcome, LearnError> {
        self.learn_once(cells, observed, &[], true)
    }

    /// Learns a formatting rule under the spec's hard constraints: every
    /// candidate returned covers all `positives` and excludes all
    /// `negatives`. The negatives flow through the whole pipeline — they
    /// seed the negative cluster (§5.2.1), prune enumeration and full
    /// search while it runs, and reach the ranker as a mask — rather than
    /// being filtered off a ranked list after the fact.
    ///
    /// [`LearnError::NoConsistentRule`] is then an abstention: the search
    /// proved no rule in the language (within the configured bounds)
    /// satisfies the spec.
    pub fn learn_spec(&self, spec: &LearnSpec) -> Result<LearnOutcome, LearnError> {
        self.learn_once(&spec.cells, &spec.positives, &spec.negatives, true)
    }

    /// Best-effort fallback for an unsatisfiable spec: the search runs
    /// unconstrained (same candidates as [`Cornet::learn`]), but the
    /// negatives reach the ranker as a mask — covering one is nearly
    /// disqualifying via
    /// [`crate::features::NEGATIVE_COVERAGE_FEATURE`] — so among
    /// inconsistent rules the one covering the fewest corrections ranks
    /// first. A rule-set class falls back to this search when its
    /// constrained search abstains.
    pub fn learn_spec_relaxed(&self, spec: &LearnSpec) -> Result<LearnOutcome, LearnError> {
        learn_metrics().relaxed.inc();
        self.learn_once(&spec.cells, &spec.positives, &spec.negatives, false)
    }

    /// Learns one disjoint styled rule per format class from a single
    /// call — the rule-set generalisation of [`Cornet::learn_spec`]. The
    /// column is prepared once ([`Cornet::prepare`]) and shared by every
    /// class's search; see [`Cornet::learn_ruleset_in`].
    pub fn learn_ruleset(&self, spec: &RuleSetSpec) -> Result<RuleSetOutcome, LearnError> {
        self.learn_ruleset_in(&self.prepare(&spec.cells), &spec.classes, &spec.negatives)
    }

    /// Learns a rule set over an already-prepared column.
    ///
    /// Each class k runs the constrained search *one-vs-rest* over the
    /// shared context: its own positives are the examples, and the union
    /// of every other class's positives with the global `negatives` are
    /// hard negatives. With a single class and no negatives the outcome is
    /// bit-identical to [`Cornet::learn_spec`] (and, transitively, to the
    /// historical `learn`), which `tests/ruleset_differential.rs` pins.
    ///
    /// **Per-class abstention:** when the constrained search proves class
    /// k unsatisfiable, the class falls back to the relaxed search (see
    /// [`Cornet::learn_spec_relaxed`]) over the same context and its rule
    /// is flagged `consistent: false`; the other classes are unaffected. A
    /// class without hard negatives has no relaxed search to fall back to.
    ///
    /// The returned rules carry `priority = class index`, so
    /// [`RuleSet::apply`]'s lowest-priority-wins order resolves overlaps
    /// in favour of the earliest class. Styles are interned through one
    /// shared [`FormatTable`] in class order; each `rule.format` is the
    /// interned id of its class's style.
    ///
    /// Index errors take precedence over [`LearnError::NoPredicates`].
    pub fn learn_ruleset_in(
        &self,
        ctx: &ColumnContext,
        classes: &[ClassSpec],
        negatives: &[usize],
    ) -> Result<RuleSetOutcome, LearnError> {
        validate_classes(ctx.cells.len(), classes, negatives)?;
        let mut format_table = FormatTable::new();
        let mut rules = Vec::with_capacity(classes.len());
        let mut class_stats = Vec::with_capacity(classes.len());
        for (k, class) in classes.iter().enumerate() {
            let rest = one_vs_rest(classes, negatives, k);
            let (outcome, consistent) = match self.search(ctx, &class.positives, &rest, true) {
                Ok(outcome) => (outcome, true),
                Err(LearnError::NoConsistentRule) if !rest.is_empty() => {
                    learn_metrics().relaxed.inc();
                    (self.search(ctx, &class.positives, &rest, false)?, false)
                }
                Err(e) => return Err(e),
            };
            let best = outcome.best();
            let mut rule = best.rule.clone();
            rule.format = format_table.intern(class.style.clone());
            rules.push(StyledRule {
                rule,
                style: class.style.clone(),
                scope: class.scope,
                priority: k as u32,
                score: best.score,
                consistent,
            });
            class_stats.push(outcome.stats);
        }
        learn_metrics().rulesets.inc();

        let rule_set = RuleSet { rules };
        let assignments = rule_set.apply(&ctx.cells);
        Ok(RuleSetOutcome {
            rule_set,
            format_table,
            assignments,
            class_stats,
        })
    }

    /// Validates one spec, prepares its column and runs one search.
    fn learn_once(
        &self,
        cells: &[CellValue],
        positives: &[usize],
        negatives: &[usize],
        enforce: bool,
    ) -> Result<LearnOutcome, LearnError> {
        validate(cells.len(), positives, negatives)?;
        self.search(&self.prepare(cells), positives, negatives, enforce)
    }

    /// Clusters, enumerates and ranks over a prepared column (§3.2–3.4).
    /// `enforce` selects the constrained search; otherwise the negatives
    /// reach only the ranker (the relaxed fallback).
    fn search(
        &self,
        ctx: &ColumnContext,
        positives: &[usize],
        negatives: &[usize],
        enforce: bool,
    ) -> Result<LearnOutcome, LearnError> {
        if ctx.predicates.is_empty() {
            return Err(LearnError::NoPredicates);
        }
        let metrics = learn_metrics();

        // 1. Semi-supervised clustering (§3.2). On an enforcing learn the
        // hard negatives seed the negative cluster (§5.2.1); the relaxed
        // fallback clusters as if uncorrected, so its candidate pool is
        // exactly the unconstrained learner's and only the *ranking* sees
        // the corrections (via the mask below).
        let timer = StageTimer::start("learn.cluster", metrics.cluster.clone());
        let search_negatives: &[usize] = if enforce { negatives } else { &[] };
        let outcome = cluster_constrained(
            &ctx.signatures,
            positives,
            search_negatives,
            &self.config.cluster,
        );
        drop(timer);
        let negative_mask = cornet_table::BitVec::from_indices(ctx.cells.len(), negatives);

        // 2. Candidate rule enumeration (§3.3). When enforcing, both
        // strategies reject any candidate covering a negative during the
        // search, so every rule here covers the positives and excludes the
        // negatives.
        let candidates = match self.config.strategy {
            SearchStrategy::Greedy => {
                let _timer = StageTimer::start("learn.enumerate", metrics.enumerate.clone());
                enumerate_rules(&ctx.predicates, &outcome, &self.config.enumeration)
            }
            SearchStrategy::Exhaustive => {
                let _timer = StageTimer::start("learn.fullsearch", metrics.fullsearch.clone());
                full_search(&ctx.predicates, &outcome, &self.config.full_search)
            }
        };
        if candidates.is_empty() {
            if enforce {
                metrics.abstentions.inc();
            }
            return Err(LearnError::NoConsistentRule);
        }

        // 3. Ranking (§3.4). All contexts are assembled first and scored in
        // one `score_batch` call so rankers can amortise per-column work
        // (the neural ranker embeds the column once and batches its linear
        // layers across candidates).
        let rank_timer = StageTimer::start("learn.rank", metrics.rank.clone());
        let executions: Vec<_> = candidates
            .iter()
            .map(|cand| {
                let execution = cand.rule.execute(&ctx.cells);
                let features = rule_features_constrained(
                    &cand.rule,
                    &execution,
                    &outcome.labels,
                    &negative_mask,
                    ctx.dtype,
                );
                (execution, features)
            })
            .collect();
        let ctxs: Vec<RankContext<'_>> = candidates
            .iter()
            .zip(&executions)
            .map(|(cand, (execution, features))| RankContext {
                rule: &cand.rule,
                cell_texts: &ctx.cell_texts,
                execution,
                cluster_labels: &outcome.labels,
                negatives: &negative_mask,
                dtype: ctx.dtype,
                features: *features,
            })
            .collect();
        let scores = self.ranker.score_batch(&ctxs);
        assert_eq!(
            scores.len(),
            candidates.len(),
            "Ranker::score_batch must return one score per context"
        );
        drop(ctxs);
        let mut scored: Vec<ScoredRule> = candidates
            .into_iter()
            .zip(scores)
            .map(|(cand, score)| ScoredRule {
                score,
                cluster_accuracy: cand.cluster_accuracy,
                rule: cand.rule,
            })
            .collect();
        scored.sort_by(|a, b| {
            score_descending(a.score, b.score)
                .then_with(|| a.rule.token_length().cmp(&b.rule.token_length()))
                .then_with(|| a.rule.to_string().cmp(&b.rule.to_string()))
        });
        drop(rank_timer);
        metrics.learns.inc();

        Ok(LearnOutcome {
            stats: LearnStats {
                n_predicates: ctx.predicates.len(),
                n_candidates: scored.len(),
                cluster_iterations: outcome.iterations,
            },
            candidates: scored,
        })
    }
}

/// Checks one spec's indices against a column of `n` cells.
fn validate(n: usize, positives: &[usize], negatives: &[usize]) -> Result<(), LearnError> {
    if positives.is_empty() {
        return Err(LearnError::NoExamples);
    }
    if let Some(&bad) = positives.iter().find(|&&i| i >= n) {
        return Err(LearnError::ExampleOutOfRange(bad));
    }
    if let Some(&bad) = negatives.iter().find(|&&i| i >= n) {
        return Err(LearnError::NegativeOutOfRange(bad));
    }
    if let Some(&bad) = positives.iter().find(|i| negatives.contains(i)) {
        return Err(LearnError::ConflictingExample(bad));
    }
    Ok(())
}

/// Checks every class of a rule-set learn as the one-vs-rest spec it runs
/// as, in class order, before any class is searched.
fn validate_classes(
    n: usize,
    classes: &[ClassSpec],
    negatives: &[usize],
) -> Result<(), LearnError> {
    if classes.iter().all(|c| c.positives.is_empty()) {
        return Err(LearnError::NoExamples);
    }
    // Cross-class overlaps are conflicts: a cell can wear one style.
    for (k, class) in classes.iter().enumerate() {
        if let Some(&i) = class
            .positives
            .iter()
            .find(|i| classes[..k].iter().any(|c| c.positives.contains(i)))
        {
            return Err(LearnError::ConflictingExample(i));
        }
    }
    for (k, class) in classes.iter().enumerate() {
        validate(n, &class.positives, &one_vs_rest(classes, negatives, k))?;
    }
    Ok(())
}

/// Class k's hard negatives: the global negatives plus every other class's
/// positives, sorted and deduplicated.
fn one_vs_rest(classes: &[ClassSpec], negatives: &[usize], k: usize) -> Vec<usize> {
    let mut rest = negatives.to_vec();
    for (other, c) in classes.iter().enumerate() {
        if other != k {
            rest.extend_from_slice(&c.positives);
        }
    }
    rest.sort_unstable();
    rest.dedup();
    rest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterMode;

    fn parse(raw: &[&str]) -> Vec<CellValue> {
        raw.iter().map(|s| CellValue::parse(s)).collect()
    }

    #[test]
    fn running_example_end_to_end() {
        let cells = parse(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let cornet = Cornet::with_default_ranker();
        let outcome = cornet.learn(&cells, &[0, 2, 5]).expect("learns a rule");
        let best = outcome.best();
        let mask = best.rule.execute(&cells);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert!(outcome.stats.n_predicates > 0);
        assert!(outcome.stats.n_candidates >= 1);
    }

    #[test]
    fn numeric_threshold_task() {
        let cells = parse(&["12", "45", "3", "78", "90", "8", "55"]);
        let cornet = Cornet::with_default_ranker();
        // Format everything > 40: examples at 1 (45) and 3 (78).
        let outcome = cornet.learn(&cells, &[1, 3]).expect("learns");
        let mask = outcome.best().rule.execute(&cells);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![1, 3, 4, 6]);
    }

    #[test]
    fn date_task() {
        // Format the 2022 dates. The interleaved 2021 dates become soft
        // negatives, pinning down the year signal among the competing
        // day/month/weekday predicates (dates are the hardest type —
        // Figure 12 of the paper).
        let cells = parse(&[
            "2021-03-10",
            "2022-05-02",
            "2021-07-15",
            "2022-08-09",
            "2021-01-20",
            "2022-02-14",
        ]);
        let cornet = Cornet::with_default_ranker();
        let outcome = cornet.learn(&cells, &[1, 3, 5]).expect("learns");
        let mask = outcome.best().rule.execute(&cells);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn single_example_is_enough() {
        let cells = parse(&["Pass", "Fail", "Pass", "Fail", "Pass"]);
        let cornet = Cornet::with_default_ranker();
        let outcome = cornet.learn(&cells, &[0]).expect("learns from one example");
        let mask = outcome.best().rule.execute(&cells);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 2, 4]);
    }

    #[test]
    fn error_cases() {
        let cells = parse(&["a", "b"]);
        let cornet = Cornet::with_default_ranker();
        assert!(matches!(
            cornet.learn(&cells, &[]).unwrap_err(),
            LearnError::NoExamples
        ));
        assert!(matches!(
            cornet.learn(&cells, &[5]).unwrap_err(),
            LearnError::ExampleOutOfRange(5)
        ));
        let uniform = parse(&["x", "x", "x"]);
        assert!(matches!(
            cornet.learn(&uniform, &[0]).unwrap_err(),
            LearnError::NoPredicates
        ));
    }

    #[test]
    fn exhaustive_strategy_works() {
        let cells = parse(&["RW-1", "XX-2", "RW-3", "XX-4"]);
        let config = CornetConfig {
            strategy: SearchStrategy::Exhaustive,
            ..CornetConfig::default()
        };
        let cornet = Cornet::new(config, SymbolicRanker::heuristic());
        let outcome = cornet.learn(&cells, &[0, 2]).expect("learns");
        let mask = outcome.best().rule.execute(&cells);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn cluster_mode_flows_through() {
        let cells = parse(&["RW-1", "XX-2", "RW-3", "XX-4", "RW-5"]);
        let config = CornetConfig {
            cluster: ClusterConfig {
                mode: ClusterMode::NoClustering,
                ..ClusterConfig::default()
            },
            ..CornetConfig::default()
        };
        let cornet = Cornet::new(config, SymbolicRanker::heuristic());
        // Even without clustering the learner satisfies the examples.
        let outcome = cornet.learn(&cells, &[0, 2]).expect("learns");
        let mask = outcome.best().rule.execute(&cells);
        assert!(mask.get(0) && mask.get(2));
    }

    /// A ranker that poisons some candidates with NaN: any rule mentioning
    /// the pattern "RW" scores NaN, everything else a constant.
    struct NanRanker;

    impl Ranker for NanRanker {
        fn score(&self, ctx: &RankContext<'_>) -> f64 {
            if ctx.rule.to_string().contains("RW") {
                f64::NAN
            } else {
                0.5
            }
        }

        fn name(&self) -> &'static str {
            "nan"
        }

        fn param_count(&self) -> usize {
            0
        }
    }

    #[test]
    fn nan_scores_sink_below_real_candidates() {
        let cells = parse(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let cornet = Cornet::new(CornetConfig::default(), NanRanker);
        let outcome = cornet.learn(&cells, &[0, 2, 5]).expect("learns");
        let scores: Vec<f64> = outcome.candidates.iter().map(|c| c.score).collect();
        assert!(
            scores.iter().any(|s| s.is_nan()),
            "fixture must produce at least one NaN-scored candidate"
        );
        // NaN never outranks a real score: every NaN sits after every
        // non-NaN, and the best candidate has a real score.
        let first_nan = scores.iter().position(|s| s.is_nan()).unwrap();
        assert!(scores[..first_nan].iter().all(|s| !s.is_nan()));
        assert!(scores[first_nan..].iter().all(|s| s.is_nan()));
        assert!(!outcome.best().score.is_nan());
    }

    #[test]
    fn candidates_sorted_descending() {
        let cells = parse(&["1", "5", "9", "12", "20", "3"]);
        let cornet = Cornet::with_default_ranker();
        let outcome = cornet.learn(&cells, &[2, 3]).expect("learns");
        for pair in outcome.candidates.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn constrained_learn_excludes_negatives_everywhere() {
        // With examples {0, 2} alone the learner generalises RW-131-T in;
        // a hard negative on it must flip every candidate to exclude it.
        let cells = parse(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let cornet = Cornet::with_default_ranker();
        let unconstrained = cornet.learn(&cells, &[0, 2]).expect("learns");
        assert!(
            unconstrained.best().rule.eval(&cells[3]),
            "fixture requires the unconstrained best rule to cover RW-131-T"
        );
        let spec = LearnSpec::new(cells.clone(), vec![0, 2]).with_negatives(vec![3]);
        let outcome = cornet.learn_spec(&spec).expect("constrained learn");
        for cand in &outcome.candidates {
            assert!(cand.rule.eval(&cells[0]) && cand.rule.eval(&cells[2]));
            assert!(
                !cand.rule.eval(&cells[3]),
                "candidate {} covers the negative",
                cand.rule
            );
        }
        let mask = outcome.best().rule.execute(&cells);
        assert!(!mask.get(3));
    }

    #[test]
    fn constrained_learn_works_exhaustively_too() {
        let cells = parse(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let config = CornetConfig {
            strategy: SearchStrategy::Exhaustive,
            ..CornetConfig::default()
        };
        let cornet = Cornet::new(config, SymbolicRanker::heuristic());
        let spec = LearnSpec::new(cells.clone(), vec![0, 2]).with_negatives(vec![3]);
        let outcome = cornet.learn_spec(&spec).expect("constrained learn");
        for cand in &outcome.candidates {
            assert!(!cand.rule.eval(&cells[3]));
        }
    }

    #[test]
    fn relaxed_learn_ranks_negative_coverage_down() {
        // The relaxed learner searches as if uncorrected, so its candidate
        // pool is exactly `learn`'s — but every candidate covering the
        // correction is penalised by the negative-coverage feature, and
        // only those.
        let cells = parse(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let cornet = Cornet::with_default_ranker();
        let plain = cornet.learn(&cells, &[0, 2]).expect("learns");
        let spec = LearnSpec::new(cells.clone(), vec![0, 2]).with_negatives(vec![3]);
        let relaxed = cornet.learn_spec_relaxed(&spec).expect("relaxed learn");

        let scores = |outcome: &LearnOutcome| -> std::collections::HashMap<String, f64> {
            outcome
                .candidates
                .iter()
                .map(|c| (c.rule.to_string(), c.score))
                .collect()
        };
        let plain_scores = scores(&plain);
        let relaxed_scores = scores(&relaxed);
        assert_eq!(
            {
                let mut keys: Vec<&String> = plain_scores.keys().collect();
                keys.sort();
                keys
            },
            {
                let mut keys: Vec<&String> = relaxed_scores.keys().collect();
                keys.sort();
                keys
            },
            "relaxed search must admit exactly the unconstrained pool"
        );
        let mut penalised = 0usize;
        for cand in &plain.candidates {
            let key = cand.rule.to_string();
            if cand.rule.eval(&cells[3]) {
                assert!(
                    relaxed_scores[&key] < plain_scores[&key],
                    "covering rule {key} must score lower relaxed"
                );
                penalised += 1;
            } else {
                assert_eq!(
                    relaxed_scores[&key].to_bits(),
                    plain_scores[&key].to_bits(),
                    "non-covering rule {key} must be untouched"
                );
            }
        }
        assert!(penalised > 0, "fixture must penalise at least one rule");
    }

    #[test]
    fn unsatisfiable_spec_abstains() {
        // Two identical cells, one positive one negative: no rule in the
        // language can separate them, so the learner abstains instead of
        // returning a near-miss.
        let cells = parse(&["x", "x", "y", "z"]);
        let cornet = Cornet::with_default_ranker();
        let spec = LearnSpec::new(cells, vec![0]).with_negatives(vec![1]);
        assert!(matches!(
            cornet.learn_spec(&spec).unwrap_err(),
            LearnError::NoConsistentRule
        ));
    }

    #[test]
    fn spec_validation_errors() {
        let cells = parse(&["a", "b", "c"]);
        let cornet = Cornet::with_default_ranker();
        let oob = LearnSpec::new(cells.clone(), vec![0]).with_negatives(vec![7]);
        assert!(matches!(
            cornet.learn_spec(&oob).unwrap_err(),
            LearnError::NegativeOutOfRange(7)
        ));
        let clash = LearnSpec::new(cells, vec![0, 1]).with_negatives(vec![1]);
        assert!(matches!(
            cornet.learn_spec(&clash).unwrap_err(),
            LearnError::ConflictingExample(1)
        ));
    }

    #[test]
    fn empty_negatives_spec_matches_learn_bitwise() {
        let cells = parse(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let cornet = Cornet::with_default_ranker();
        let by_learn = cornet.learn(&cells, &[0, 2, 5]).expect("learns");
        let spec = LearnSpec::new(cells, vec![0, 2, 5]);
        let by_spec = cornet.learn_spec(&spec).expect("learns");
        assert_eq!(by_learn.candidates.len(), by_spec.candidates.len());
        for (a, b) in by_learn.candidates.iter().zip(&by_spec.candidates) {
            assert_eq!(a.rule.to_string(), b.rule.to_string());
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.cluster_accuracy.to_bits(), b.cluster_accuracy.to_bits());
        }
    }

    #[test]
    fn learn_ruleset_three_class_status_column() {
        let cells = parse(&[
            "completed",
            "pending",
            "failed",
            "completed",
            "pending",
            "failed",
            "completed",
        ]);
        let cornet = Cornet::with_default_ranker();
        let spec = RuleSetSpec::new(
            cells.clone(),
            vec![
                ClassSpec::new(Format::fill("#dcfce7"), vec![0]).with_scope(TargetScope::Row),
                ClassSpec::new(Format::fill("#fef9c3"), vec![1]).with_scope(TargetScope::Row),
                ClassSpec::new(Format::fill("#fee2e2"), vec![2]).with_scope(TargetScope::Row),
            ],
        );
        let outcome = cornet.learn_ruleset(&spec).expect("learns a rule set");
        assert_eq!(outcome.rule_set.len(), 3);
        assert!(outcome.rule_set.consistent());
        for (k, rule) in outcome.rule_set.rules.iter().enumerate() {
            assert_eq!(rule.priority, k as u32);
            assert_eq!(rule.scope, TargetScope::Row);
            assert_eq!(
                outcome.format_table.get(rule.rule.format).unwrap(),
                &rule.style,
                "rule.format must resolve to the class style"
            );
        }
        let expected: Vec<Option<usize>> = ["completed", "pending", "failed"]
            .iter()
            .cycle()
            .zip(&cells)
            .map(|(_, cell)| match cell.display_string().as_str() {
                "completed" => Some(0),
                "pending" => Some(1),
                _ => Some(2),
            })
            .collect();
        assert_eq!(outcome.assignments, expected);
        // Disjoint by construction: each rule covers only its class.
        for (i, cell) in cells.iter().enumerate() {
            let claimants: Vec<usize> = (0..3)
                .filter(|&k| outcome.rule_set.rules[k].rule.eval(cell))
                .collect();
            assert_eq!(claimants, vec![expected[i].unwrap()], "cell {i}");
        }
    }

    #[test]
    fn learn_ruleset_single_class_is_bit_identical_to_learn_spec() {
        let cells = parse(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let cornet = Cornet::with_default_ranker();
        let by_spec = cornet
            .learn_spec(&LearnSpec::new(cells.clone(), vec![0, 2, 5]))
            .expect("learns");
        let outcome = cornet
            .learn_ruleset(&RuleSetSpec::new(
                cells,
                vec![ClassSpec::new(Format::fill("#beaed4"), vec![0, 2, 5])],
            ))
            .expect("learns");
        let styled = &outcome.rule_set.rules[0];
        assert_eq!(styled.rule.to_string(), by_spec.best().rule.to_string());
        assert_eq!(styled.score.to_bits(), by_spec.best().score.to_bits());
        assert!(styled.consistent);
    }

    #[test]
    fn learn_ruleset_abstains_per_class() {
        // The user's global negative at 1 holds the same value as class
        // 1's positive at 0, so no rule in the language satisfies class 1:
        // it falls back to the relaxed search and is flagged inconsistent.
        // Class 0 ("y") separates cleanly from both and stays consistent.
        let cells = parse(&["x", "x", "y", "z"]);
        let cornet = Cornet::with_default_ranker();
        let spec = RuleSetSpec::new(
            cells,
            vec![
                ClassSpec::new(Format::fill("#111111"), vec![2]),
                ClassSpec::new(Format::fill("#222222"), vec![0]),
            ],
        )
        .with_negatives(vec![1]);
        let outcome = cornet.learn_ruleset(&spec).expect("learns with fallback");
        assert!(outcome.rule_set.rules[0].consistent);
        assert!(!outcome.rule_set.rules[1].consistent);
        assert!(!outcome.rule_set.consistent());
    }

    #[test]
    fn learn_ruleset_validation() {
        let cells = parse(&["a", "b", "c"]);
        let cornet = Cornet::with_default_ranker();
        assert!(matches!(
            cornet
                .learn_ruleset(&RuleSetSpec::new(cells.clone(), vec![]))
                .unwrap_err(),
            LearnError::NoExamples
        ));
        let clash = RuleSetSpec::new(
            cells.clone(),
            vec![
                ClassSpec::new(Format::fill("#111111"), vec![0, 1]),
                ClassSpec::new(Format::fill("#222222"), vec![1]),
            ],
        );
        assert!(matches!(
            cornet.learn_ruleset(&clash).unwrap_err(),
            LearnError::ConflictingExample(1)
        ));
        let global_negative_clash = RuleSetSpec::new(
            cells,
            vec![ClassSpec::new(Format::fill("#111111"), vec![0])],
        )
        .with_negatives(vec![0]);
        assert!(matches!(
            cornet.learn_ruleset(&global_negative_clash).unwrap_err(),
            LearnError::ConflictingExample(0)
        ));
    }

    #[test]
    fn learn_ruleset_shares_format_ids_for_equal_styles() {
        let cells = parse(&["alpha-1", "beta-2", "alpha-3", "beta-4"]);
        let cornet = Cornet::with_default_ranker();
        let spec = RuleSetSpec::new(
            cells,
            vec![
                ClassSpec::new(Format::fill("#336699"), vec![0]),
                ClassSpec::new(Format::fill("#336699"), vec![1]),
            ],
        );
        let outcome = cornet.learn_ruleset(&spec).expect("learns");
        assert_eq!(
            outcome.rule_set.rules[0].rule.format, outcome.rule_set.rules[1].rule.format,
            "identical styles intern to one id"
        );
        assert_eq!(outcome.format_table.len(), 2);
    }

    #[test]
    fn all_candidates_cover_examples() {
        let cells = parse(&["alpha-1", "beta-2", "alpha-3", "beta-4", "alpha-5"]);
        let cornet = Cornet::with_default_ranker();
        let outcome = cornet.learn(&cells, &[0, 2]).expect("learns");
        for cand in &outcome.candidates {
            assert!(cand.rule.eval(&cells[0]));
            assert!(cand.rule.eval(&cells[2]));
        }
    }
}
