//! Correctness of every response, checked after the timed phase so the
//! checks take no CPU from the server while it is measured.

use crate::client::{Done, Kind};
use crate::inputs::{matches_of, Seeded, Task};
use cornet_core::learner::{Cornet, LearnSpec, RuleSetSpec};
use cornet_core::rule::Rule;
use cornet_core::ruleset::RuleSet;
use cornet_core::ClassSpec;
use cornet_serde::ToJson;
use cornet_serde::{decode, open_envelope, parse, to_string};
use cornet_serve::service::{CornetService, LearnResponse, ScoreResponse, SessionResponse};
use cornet_serve::suggest::{SuggestRequest, SuggestResponse};
use cornet_table::CellValue;
use std::collections::{BTreeSet, HashMap};

/// A column of the run's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Col {
    Seeded(usize),
    Task(usize),
    Suggest(usize),
}

/// What a request's answer must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `/score` of rule `id` on `column`: the rule's in-process
    /// execution on the same cells (a 404 when the run never stored it).
    Score { id: String, column: Col },
    /// `/suggest`: equal to the reference service's answer when one is
    /// given, else every suggestion is a known rule whose `matches` equal
    /// its in-process execution.
    Suggest { column: Col },
    /// Store-hit `/learn` of rule `id` on `column`: `cached:true`, the
    /// stored rule, its in-process execution on the same cells, and
    /// byte-equal to the first one.
    LearnHit { id: String, column: Col },
    /// Cold `/learn` of `tasks[task]`.
    Learn { task: usize },
    /// `POST /session` over `tasks[task]`, opening session `slot`.
    Session { task: usize, slot: usize },
    /// A correction of session `slot` (opened over `tasks[task]`).
    Correct {
        task: usize,
        slot: usize,
        format: Vec<usize>,
        unformat: Vec<usize>,
    },
}

impl Expect {
    pub fn kind(&self) -> Kind {
        match self {
            Expect::Score { .. } => Kind::Score,
            Expect::Suggest { .. } => Kind::Suggest,
            Expect::LearnHit { .. } => Kind::LearnHit,
            Expect::Learn { .. } => Kind::LearnCold,
            Expect::Session { .. } => Kind::Session,
            Expect::Correct { .. } => Kind::Correct,
        }
    }
}

/// The verdict on one response.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Correct; `learner` says whether answering it ran the learner.
    Ok {
        learner: bool,
    },
    /// A refusal the inputs call for: a 422 the in-process learner
    /// confirms (the examples admit no rule in the language), or a 404 for
    /// scoring a rule such a learn never stored. Correct, and excluded
    /// from latency metrics.
    Refused,
    Wrong(String),
}

fn payload<'a>(doc: &'a cornet_serde::Json, kind: &str) -> Result<&'a cornet_serde::Json, String> {
    open_envelope(doc, kind).map_err(|e| e.message)
}

/// Checks `rule` (or each rule of `set`) against the examples it was
/// learned from: it covers them, and a consistent rule excludes the
/// negatives (for a set, also every other class's examples).
fn covers(
    rule: &Rule,
    set: Option<&RuleSet>,
    consistent: bool,
    values: &[CellValue],
    examples: &[usize],
    classes: &[Vec<usize>],
    negatives: &[usize],
) -> Result<(), String> {
    let check = |rule: &Rule, pos: &[usize], neg: &[usize], consistent: bool| {
        let hit = rule.execute(values);
        if let Some(i) = pos.iter().find(|&&i| !hit.get(i)) {
            return Err(format!("rule {rule} misses example {i}"));
        }
        if consistent {
            if let Some(i) = neg.iter().find(|&&i| hit.get(i)) {
                return Err(format!("consistent rule {rule} covers negative {i}"));
            }
        }
        Ok(())
    };
    match set {
        None => check(rule, examples, negatives, consistent),
        Some(set) => {
            if set.rules.len() != classes.len() {
                return Err("rule set has the wrong number of classes".into());
            }
            for (k, styled) in set.rules.iter().enumerate() {
                let mut rest: Vec<usize> = negatives.to_vec();
                for (j, c) in classes.iter().enumerate() {
                    if j != k {
                        rest.extend_from_slice(c);
                    }
                }
                check(&styled.rule, &classes[k], &rest, styled.consistent)?;
            }
            Ok(())
        }
    }
}

/// Whether the in-process learner also finds no rule for these examples,
/// relaxed fallback included (the service's 422 condition).
fn learner_abstains(
    values: &[CellValue],
    examples: &[usize],
    classes: &[Vec<usize>],
    negatives: &[usize],
    task: &Task,
) -> bool {
    let cornet = Cornet::with_default_ranker();
    if task.is_multi() {
        let specs = task
            .classes
            .iter()
            .zip(classes)
            .filter(|(_, ex)| !ex.is_empty())
            .map(|(c, ex)| ClassSpec::new(c.style.clone(), ex.clone()).with_scope(c.scope))
            .collect();
        cornet
            .learn_ruleset(
                &RuleSetSpec::new(values.to_vec(), specs).with_negatives(negatives.to_vec()),
            )
            .is_err()
    } else {
        let spec =
            LearnSpec::new(values.to_vec(), examples.to_vec()).with_negatives(negatives.to_vec());
        cornet.learn_spec(&spec).is_err()
            && (negatives.is_empty() || cornet.learn_spec_relaxed(&spec).is_err())
    }
}

/// What checks remember across the phases of one run: rules learned so
/// far (suggestions may return them) and each id's first store-hit body.
#[derive(Default)]
pub struct Memory {
    learned: HashMap<String, (Rule, Option<RuleSet>)>,
    first_hit: HashMap<String, String>,
    /// The reference service's `/suggest` payload per column (its store
    /// does not change, so one query per column suffices).
    reference_answers: HashMap<Col, String>,
    /// Per single-class task learned cold: whether its rule, executed on
    /// the full column, equals the ground truth.
    pub exec: HashMap<usize, bool>,
}

/// The response checker of one phase.
pub struct Checker<'a> {
    tasks: &'a [Task],
    seeded_cells: &'a [Seeded],
    suggest_cells: &'a [Vec<String>],
    /// Rules the store holds before the run.
    seeded: &'a HashMap<String, Rule>,
    /// A service over the same store, for exact `/suggest` answers.
    reference: Option<&'a CornetService>,
    memory: &'a mut Memory,
    sessions: HashMap<usize, (BTreeSet<usize>, BTreeSet<usize>)>,
}

impl<'a> Checker<'a> {
    pub fn new(
        tasks: &'a [Task],
        seeded_cells: &'a [Seeded],
        suggest_cells: &'a [Vec<String>],
        seeded: &'a HashMap<String, Rule>,
        reference: Option<&'a CornetService>,
        memory: &'a mut Memory,
    ) -> Checker<'a> {
        Checker {
            tasks,
            seeded_cells,
            suggest_cells,
            seeded,
            reference,
            memory,
            sessions: HashMap::new(),
        }
    }

    /// Records every rule the run learned, so suggestions of them check.
    pub fn learn_rules(&mut self, expects: &[Expect], done: &[Done]) {
        for d in done.iter().filter(|d| d.status == 200) {
            let learned = match expects[d.req] {
                Expect::Learn { .. } | Expect::LearnHit { .. } => {
                    decode::<LearnResponse>("learn", &d.body).ok()
                }
                Expect::Session { .. } | Expect::Correct { .. } => {
                    decode::<SessionResponse>("session", &d.body)
                        .ok()
                        .and_then(|s| s.result)
                }
                _ => None,
            };
            if let Some(r) = learned {
                self.memory.learned.insert(r.rule_id, (r.rule, r.rule_set));
            }
        }
    }

    pub fn check(&mut self, expect: &Expect, done: &Done) -> Verdict {
        match self.verdict(expect, done) {
            Ok(v) => v,
            Err(why) => Verdict::Wrong(format!("{} {}: {why}", done.status, expect.kind().path())),
        }
    }

    fn column(&self, col: Col) -> &'a [String] {
        match col {
            Col::Seeded(i) => &self.seeded_cells[i].cells,
            Col::Task(i) => &self.tasks[i].cells,
            Col::Suggest(i) => &self.suggest_cells[i],
        }
    }

    /// A rule the store holds: seeded before the run or learned in it.
    fn known(&self, id: &str) -> Option<(&Rule, Option<&RuleSet>)> {
        self.seeded
            .get(id)
            .map(|r| (r, None))
            .or_else(|| self.memory.learned.get(id).map(|(r, s)| (r, s.as_ref())))
    }

    fn verdict(&mut self, expect: &Expect, done: &Done) -> Result<Verdict, String> {
        let tasks: &'a [Task] = self.tasks;
        let task_of = |t: usize| &tasks[t];
        // The example sets a learner-bound request asks for.
        let asked = match expect {
            Expect::Learn { task } => {
                let t = task_of(*task);
                Some((
                    t,
                    t.examples.iter().copied().collect(),
                    t.negatives.iter().copied().collect(),
                ))
            }
            Expect::Session { task, .. } => {
                let t = task_of(*task);
                Some((t, t.examples.iter().copied().collect(), BTreeSet::new()))
            }
            Expect::Correct {
                task,
                slot,
                format,
                unformat,
            } => {
                let (mut pos, mut neg) = self
                    .sessions
                    .get(slot)
                    .cloned()
                    .ok_or("correction of an unknown session")?;
                for i in format {
                    neg.remove(i);
                    pos.insert(*i);
                }
                for i in unformat {
                    pos.remove(i);
                    neg.insert(*i);
                }
                Some((task_of(*task), pos, neg))
            }
            _ => None,
        };
        if done.status == 422 {
            let (task, pos, neg): (&Task, BTreeSet<usize>, BTreeSet<usize>) =
                asked.ok_or("unexpected 422")?;
            let examples: Vec<usize> = pos.into_iter().collect();
            let negatives: Vec<usize> = neg.into_iter().collect();
            let values = values_of(&task.cells);
            return if learner_abstains(&values, &examples, &class_examples(task), &negatives, task)
            {
                Ok(Verdict::Refused)
            } else {
                Err("422, but the in-process learner finds a rule".into())
            };
        }
        if let (404, Expect::Score { id, .. }) = (done.status, expect) {
            return match self.known(id) {
                None => Ok(Verdict::Refused),
                Some(_) => Err("404 for a stored rule".into()),
            };
        }
        if done.status != 200 {
            return Err(format!("status {}", done.status));
        }
        let doc = parse(&done.body).map_err(|e| e.to_string())?;
        match expect {
            Expect::Score { id, column } => {
                let r: ScoreResponse = cornet_serde::FromJson::from_json(payload(&doc, "score")?)
                    .map_err(|e| e.message)?;
                let (rule, set) = self.known(id).ok_or("scored a rule the store never held")?;
                if r.matches != matches_of(rule, set, &values_of(self.column(*column))) {
                    return Err("matches differ from the in-process execution".into());
                }
                Ok(Verdict::Ok { learner: false })
            }
            Expect::Suggest { column } => {
                let cells = self.column(*column);
                let got = payload(&doc, "suggest")?;
                if let Some(reference) = self.reference {
                    let want = match self.memory.reference_answers.get(column) {
                        Some(want) => want.clone(),
                        None => {
                            let want = reference
                                .suggest(&SuggestRequest {
                                    cells: cells.to_vec(),
                                    tenant: None,
                                    k: None,
                                })
                                .map_err(|e| e.to_string())?
                                .to_json();
                            let want = to_string(&want);
                            self.memory.reference_answers.insert(*column, want.clone());
                            want
                        }
                    };
                    if to_string(got) != want {
                        return Err("differs from the in-process reference query".into());
                    }
                    return Ok(Verdict::Ok { learner: false });
                }
                let r: SuggestResponse =
                    cornet_serde::FromJson::from_json(got).map_err(|e| e.message)?;
                let values = values_of(cells);
                if r.suggestions.len() > 3 {
                    return Err("more suggestions than asked for".into());
                }
                for s in &r.suggestions {
                    let (rule, set) = self
                        .known(&s.rule_id)
                        .ok_or_else(|| format!("suggested unknown rule {}", s.rule_id))?;
                    let want = matches_of(rule, set, &values);
                    if s.matches != want {
                        return Err(format!("suggestion {} matches differ", s.rule_id));
                    }
                }
                Ok(Verdict::Ok { learner: false })
            }
            Expect::LearnHit { id, column } => {
                let r: LearnResponse = cornet_serde::FromJson::from_json(payload(&doc, "learn")?)
                    .map_err(|e| e.message)?;
                if !r.cached || &r.rule_id != id {
                    return Err("not answered from the store".into());
                }
                let (rule, set) = self.known(id).ok_or("store hit on a rule never stored")?;
                if &r.rule != rule || r.rule_set.as_ref() != set {
                    return Err("store hit returned another rule than the stored one".into());
                }
                if r.matches != matches_of(rule, set, &values_of(self.column(*column))) {
                    return Err("matches differ from the in-process execution".into());
                }
                self.same_as_first_hit(id, &done.body)?;
                Ok(Verdict::Ok { learner: false })
            }
            Expect::Learn { task } => {
                let t = task_of(*task);
                let r: LearnResponse = cornet_serde::FromJson::from_json(payload(&doc, "learn")?)
                    .map_err(|e| e.message)?;
                if r.rule_id != t.rule_id() {
                    return Err("rule id is not the request's fingerprint".into());
                }
                let values = values_of(&t.cells);
                covers(
                    &r.rule,
                    r.rule_set.as_ref(),
                    r.consistent,
                    &values,
                    &t.examples,
                    &class_examples(t),
                    &t.negatives,
                )?;
                if r.matches != matches_of(&r.rule, r.rule_set.as_ref(), &values) {
                    return Err("matches differ from the rule's execution".into());
                }
                if r.cached {
                    self.same_as_first_hit(&r.rule_id, &done.body)?;
                } else if let Some(truth) = &t.formatted {
                    self.memory
                        .exec
                        .insert(*task, &r.rule.execute(&values) == truth);
                }
                Ok(Verdict::Ok { learner: !r.cached })
            }
            Expect::Session { slot, .. } | Expect::Correct { slot, .. } => {
                let (t, pos, neg) = asked.expect("learner-bound request");
                self.session(&doc, t, *slot, pos, neg)
            }
        }
    }

    fn same_as_first_hit(&mut self, id: &str, body: &str) -> Result<(), String> {
        let first = self
            .memory
            .first_hit
            .entry(id.to_string())
            .or_insert_with(|| body.to_string());
        if first != body {
            return Err("store-hit body differs from the first one".into());
        }
        Ok(())
    }

    /// Checks a single-class session answer against the expected example
    /// sets and records them as the session's state.
    fn session(
        &mut self,
        doc: &cornet_serde::Json,
        task: &Task,
        slot: usize,
        pos: BTreeSet<usize>,
        neg: BTreeSet<usize>,
    ) -> Result<Verdict, String> {
        let r: SessionResponse =
            cornet_serde::FromJson::from_json(payload(doc, "session")?).map_err(|e| e.message)?;
        let (p, n): (Vec<usize>, Vec<usize>) =
            (pos.iter().copied().collect(), neg.iter().copied().collect());
        if r.positives != p || r.negatives != n {
            return Err("session example sets differ from the corrections sent".into());
        }
        let result = r.result.ok_or("session has no learned rule")?;
        covers(
            &result.rule,
            None,
            result.consistent,
            &values_of(&task.cells),
            &p,
            &[],
            &n,
        )?;
        self.sessions.insert(slot, (pos, neg));
        Ok(Verdict::Ok {
            learner: !result.cached,
        })
    }
}

/// The parse the service applies to raw cell text.
pub fn values_of(cells: &[String]) -> Vec<CellValue> {
    cells.iter().map(|c| CellValue::parse(c)).collect()
}

fn class_examples(task: &Task) -> Vec<Vec<usize>> {
    task.classes.iter().map(|c| c.examples.clone()).collect()
}
