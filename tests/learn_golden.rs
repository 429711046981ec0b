//! Golden-response suite for the service's learn paths.
//!
//! Every case drives [`CornetService`] in-process and pins, as literals,
//! the exact response JSON a client receives and the exact `rules.log`
//! record line the store appends. Any refactor of the learner or of the
//! service's learn flow must leave every byte here unchanged: rule ids,
//! rule text, score bits, match sets, rule-set assignments, the stored
//! example order and the embedding.
//!
//! Cases: single-rule learns (unsorted examples, negatives, an abstention
//! that falls back to the relaxed search, a tenant), multi-class learns (a
//! clean 3-class set and a 2-class set with one abstaining class), a
//! cached re-learn, `/score` by id for a rule and for a set, and a session
//! corrected twice, then resumed and corrected again after a restart.
//!
//! One more case pins the learner below the service: a digest of every
//! ranked candidate of the first 60 tasks of a fixed-seed corpus, at one
//! and at four pool threads.

use cornet_repro::core::learner::Cornet;
use cornet_repro::corpus::{generate_corpus, CorpusConfig};
use cornet_repro::pool::with_threads;
use cornet_repro::serde::{to_string, ToJson};
use cornet_repro::serve::service::{
    ClassRequest, CornetService, LearnRequest, LearnResponse, ScoreRequest, ServiceConfig,
};
use cornet_repro::serve::store::LOG_FILE;
use cornet_repro::table::{Format, TargetScope};
use std::path::PathBuf;

/// A store directory that is removed when the test ends.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Dir {
        let dir =
            std::env::temp_dir().join(format!("cornet-learn-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Dir(dir)
    }

    fn open(&self) -> CornetService {
        CornetService::new(&ServiceConfig {
            store_dir: self.0.clone(),
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    /// The log line holding the record for `id`, without its newline.
    fn record(&self, id: &str) -> String {
        let log = std::fs::read_to_string(self.0.join(LOG_FILE)).unwrap();
        let prefix = format!("{id}\t");
        let lines: Vec<&str> = log.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(lines.len(), 1, "exactly one record for {id}");
        lines[0].to_string()
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn strings(raw: &[&str]) -> Vec<String> {
    raw.iter().map(|s| s.to_string()).collect()
}

fn rw_column() -> Vec<String> {
    strings(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"])
}

fn status_column() -> Vec<String> {
    strings(&[
        "completed",
        "pending",
        "failed",
        "completed",
        "pending",
        "failed",
        "completed",
    ])
}

fn single(cells: Vec<String>, examples: &[usize], negatives: &[usize]) -> LearnRequest {
    LearnRequest {
        cells,
        examples: examples.to_vec(),
        negatives: negatives.to_vec(),
        classes: Vec::new(),
        tenant: None,
    }
}

fn class(fill: &str, scope: TargetScope, examples: &[usize]) -> ClassRequest {
    ClassRequest {
        style: Format::fill(fill),
        scope,
        examples: examples.to_vec(),
    }
}

fn json(value: &impl ToJson) -> String {
    to_string(&value.to_json())
}

fn pin(name: &str, actual: &str, expected: &str) {
    assert_eq!(actual, expected, "golden `{name}` changed");
}

/// Learns `req` on a fresh service and pins the response and its record.
fn pin_learn(tag: &str, req: &LearnRequest, response: &str, record: &str, runs: u64) {
    let dir = Dir::new(tag);
    let service = dir.open();
    let learned = service.learn(req).unwrap();
    pin(&format!("{tag} response"), &json(&learned), response);
    pin(
        &format!("{tag} record"),
        &dir.record(&learned.rule_id),
        record,
    );
    assert_eq!(service.learns_performed(), runs, "{tag}: learner runs");
}

#[test]
fn single_rule_learn_with_unsorted_examples() {
    pin_learn(
        "unsorted",
        &single(rw_column(), &[5, 0, 2], &[]),
        r##"{"rule_id":"rd810c4a26097cbe17242f321d7880739","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"rule_text":"AND(TextStartsWith(\"rw-\"),NOT(TextEquals(\"RW-131-T\")))","formula":"AND(AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\"),NOT(A1=\"RW-131-T\"))","score":0.5805423048206597,"matches":[0,2,5],"cached":false,"consistent":true}"##,
        r##"rd810c4a26097cbe17242f321d7880739	{"v":1,"kind":"stored-rule","payload":{"id":"rd810c4a26097cbe17242f321d7880739","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"score":0.5805423048206597,"examples":[5,0,2],"negatives":[],"column_len":6,"consistent":true,"embedding":[0.39520227509003086,0.3066866738403997,-0.5095339765721698,0.3565685157332461,-0.16835774360977698,0.21473177111035058,0.13953780476870378,-0.242950339847035,-0.2919439691032172,0.2446901589866019,-0.11183541506583837,0.027840674479591643,-0.013427884186508116,0.21928512231456304,0.01623687496315042,-0.05591072294141116]}}"##,
        1,
    );
}

#[test]
fn consistent_learn_with_negatives() {
    pin_learn(
        "negatives",
        &single(rw_column(), &[2, 0], &[4, 3]),
        r##"{"rule_id":"r65290558b3560e41bf615017690c19ed","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"rule_text":"AND(TextStartsWith(\"rw-\"),NOT(TextEquals(\"RW-131-T\")))","formula":"AND(AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\"),NOT(A1=\"RW-131-T\"))","score":0.5805423048206597,"matches":[0,2,5],"cached":false,"consistent":true}"##,
        r##"r65290558b3560e41bf615017690c19ed	{"v":1,"kind":"stored-rule","payload":{"id":"r65290558b3560e41bf615017690c19ed","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"score":0.5805423048206597,"examples":[2,0],"negatives":[4,3],"column_len":6,"consistent":true,"embedding":[0.39520227509003086,0.3066866738403997,-0.5095339765721698,0.3565685157332461,-0.16835774360977698,0.21473177111035058,0.13953780476870378,-0.242950339847035,-0.2919439691032172,0.2446901589866019,-0.11183541506583837,0.027840674479591643,-0.013427884186508116,0.21928512231456304,0.01623687496315042,-0.05591072294141116]}}"##,
        1,
    );
}

#[test]
fn abstaining_learn_falls_back_to_the_relaxed_search() {
    pin_learn(
        "relaxed",
        &single(strings(&["x", "x", "y", "z"]), &[0], &[1]),
        r##"{"rule_id":"rb4b1da8e05818ad8f09283b635f9b1c9","rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"x"},"neg":false}]],"format":1},"rule_text":"TextEquals(\"x\")","formula":"A1=\"x\"","score":0.01045670623191807,"matches":[0,1],"cached":false,"consistent":false}"##,
        r##"rb4b1da8e05818ad8f09283b635f9b1c9	{"v":1,"kind":"stored-rule","payload":{"id":"rb4b1da8e05818ad8f09283b635f9b1c9","rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"x"},"neg":false}]],"format":1},"score":0.01045670623191807,"examples":[0],"negatives":[1],"column_len":4,"consistent":false,"embedding":[0.05848371251678279,0.023975745582814772,-0.38240477976615506,-0.07664276301398015,0.5643075189271075,0.21126629246380013,0.030135429022037103,-0.08177836736689312,0.13644957621115023,-0.12209485299298363,0.17660556259249444,0.21848273701808238,0.422859308248918,-0.05329811097626051,0.40868635441439366,-0.10999969092209391]}}"##,
        2,
    );
}

#[test]
fn tenanted_learn() {
    let req = LearnRequest {
        tenant: Some("acme".into()),
        ..single(rw_column(), &[0, 2, 5], &[])
    };
    pin_learn(
        "tenant",
        &req,
        r##"{"rule_id":"rdae062fad03732433032f9589fd9b5a5","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"rule_text":"AND(TextStartsWith(\"rw-\"),NOT(TextEquals(\"RW-131-T\")))","formula":"AND(AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\"),NOT(A1=\"RW-131-T\"))","score":0.5805423048206597,"matches":[0,2,5],"cached":false,"consistent":true}"##,
        r##"rdae062fad03732433032f9589fd9b5a5	{"v":1,"kind":"stored-rule","payload":{"id":"rdae062fad03732433032f9589fd9b5a5","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"score":0.5805423048206597,"examples":[0,2,5],"negatives":[],"column_len":6,"consistent":true,"tenant":"acme","embedding":[0.39520227509003086,0.3066866738403997,-0.5095339765721698,0.3565685157332461,-0.16835774360977698,0.21473177111035058,0.13953780476870378,-0.242950339847035,-0.2919439691032172,0.2446901589866019,-0.11183541506583837,0.027840674479591643,-0.013427884186508116,0.21928512231456304,0.01623687496315042,-0.05591072294141116]}}"##,
        1,
    );
}

#[test]
fn three_class_learn() {
    let req = LearnRequest {
        classes: vec![
            class("#dcfce7", TargetScope::Row, &[0]),
            class("#fef9c3", TargetScope::Row, &[1]),
            class("#fee2e2", TargetScope::Cell, &[5, 2]),
        ],
        ..single(status_column(), &[], &[])
    };
    pin_learn(
        "three-class",
        &req,
        r##"{"rule_id":"rcffd8a710427e151fb6f4ff47e53d9d3","rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"completed"},"neg":false}]],"format":1},"rule_text":"TextEquals(\"completed\")","formula":"A1=\"completed\"","score":0.7448684956686833,"matches":[0,1,2,3,4,5,6],"cached":false,"consistent":true,"rule_set":{"rules":[{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"completed"},"neg":false}]],"format":1},"style":{"fill":"#dcfce7"},"scope":"row","priority":0,"score":0.7448684956686833,"consistent":true},{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"pending"},"neg":false}]],"format":2},"style":{"fill":"#fef9c3"},"scope":"row","priority":1,"score":0.771056378226556,"consistent":true},{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"failed"},"neg":false}]],"format":3},"style":{"fill":"#fee2e2"},"scope":"cell","priority":2,"score":0.7797629873199954,"consistent":true}]},"assignments":[0,1,2,0,1,2,0]}"##,
        r##"rcffd8a710427e151fb6f4ff47e53d9d3	{"v":1,"kind":"stored-rule","payload":{"id":"rcffd8a710427e151fb6f4ff47e53d9d3","rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"completed"},"neg":false}]],"format":1},"score":0.7448684956686833,"examples":[0,1,2,5],"negatives":[],"column_len":7,"consistent":true,"rule_set":{"rules":[{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"completed"},"neg":false}]],"format":1},"style":{"fill":"#dcfce7"},"scope":"row","priority":0,"score":0.7448684956686833,"consistent":true},{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"pending"},"neg":false}]],"format":2},"style":{"fill":"#fef9c3"},"scope":"row","priority":1,"score":0.771056378226556,"consistent":true},{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"failed"},"neg":false}]],"format":3},"style":{"fill":"#fee2e2"},"scope":"cell","priority":2,"score":0.7797629873199954,"consistent":true}]},"embedding":[0.4188762310782253,0.1680889776652165,-0.2962419606278213,0.3561666405986142,-0.12983774998784814,-0.28079169870063236,-0.3885704587079981,-0.23261779397087903,0.043699338821911037,-0.20600942968755026,0.19531148854381508,-0.18187148705373488,0.2554760181843403,-0.011221663876495768,0.2733504204336395,0.15870494014680264]}}"##,
        1,
    );
}

#[test]
fn two_class_learn_with_one_abstaining_class() {
    let req = LearnRequest {
        classes: vec![
            class("#111111", TargetScope::Cell, &[2]),
            class("#222222", TargetScope::Cell, &[0]),
        ],
        ..single(strings(&["x", "x", "y", "z"]), &[], &[1])
    };
    pin_learn(
        "two-class",
        &req,
        r##"{"rule_id":"re492e739e3ba41606838912104af0841","rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"y"},"neg":false}]],"format":1},"rule_text":"TextEquals(\"y\")","formula":"A1=\"y\"","score":0.8212735763411496,"matches":[0,1,2],"cached":false,"consistent":false,"rule_set":{"rules":[{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"y"},"neg":false}]],"format":1},"style":{"fill":"#111111"},"scope":"cell","priority":0,"score":0.8212735763411496,"consistent":true},{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"x"},"neg":false}]],"format":2},"style":{"fill":"#222222"},"scope":"cell","priority":1,"score":0.17508626816403985,"consistent":false}]},"assignments":[1,1,0,null]}"##,
        r##"re492e739e3ba41606838912104af0841	{"v":1,"kind":"stored-rule","payload":{"id":"re492e739e3ba41606838912104af0841","rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"y"},"neg":false}]],"format":1},"score":0.8212735763411496,"examples":[0,2],"negatives":[1],"column_len":4,"consistent":false,"rule_set":{"rules":[{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"y"},"neg":false}]],"format":1},"style":{"fill":"#111111"},"scope":"cell","priority":0,"score":0.8212735763411496,"consistent":true},{"rule":{"cond":[[{"pred":{"p":"text","op":"equals","pattern":"x"},"neg":false}]],"format":2},"style":{"fill":"#222222"},"scope":"cell","priority":1,"score":0.17508626816403985,"consistent":false}]},"embedding":[0.05848371251678279,0.023975745582814772,-0.38240477976615506,-0.07664276301398015,0.5643075189271075,0.21126629246380013,0.030135429022037103,-0.08177836736689312,0.13644957621115023,-0.12209485299298363,0.17660556259249444,0.21848273701808238,0.422859308248918,-0.05329811097626051,0.40868635441439366,-0.10999969092209391]}}"##,
        1,
    );
}

#[test]
fn cached_relearn_and_score_by_id() {
    let dir = Dir::new("cached");
    let service = dir.open();
    let req = single(rw_column(), &[5, 0, 2], &[]);
    let first: LearnResponse = service.learn(&req).unwrap();
    let again = service.learn(&req).unwrap();
    pin(
        "cached response",
        &json(&again),
        r##"{"rule_id":"rd810c4a26097cbe17242f321d7880739","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"rule_text":"AND(TextStartsWith(\"rw-\"),NOT(TextEquals(\"RW-131-T\")))","formula":"AND(AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\"),NOT(A1=\"RW-131-T\"))","score":0.5805423048206597,"matches":[0,2,5],"cached":true,"consistent":true}"##,
    );
    assert_eq!(
        service.learns_performed(),
        1,
        "a cached re-learn never learns"
    );

    let set = service
        .learn(&LearnRequest {
            classes: vec![
                class("#dcfce7", TargetScope::Row, &[0]),
                class("#fee2e2", TargetScope::Row, &[2]),
            ],
            ..single(status_column(), &[], &[])
        })
        .unwrap();
    let score = |rule_id: &str, cells: &[&str]| {
        json(
            &service
                .score(&ScoreRequest {
                    rule_id: Some(rule_id.to_string()),
                    rule: None,
                    rule_set: None,
                    cells: strings(cells),
                })
                .unwrap(),
        )
    };
    pin(
        "score rule",
        &score(&first.rule_id, &["RW-555", "XX-1", "RW-9-T", "RW-10"]),
        r##"{"rule_id":"rd810c4a26097cbe17242f321d7880739","matches":[0,2,3],"n_cells":4}"##,
    );
    pin(
        "score set",
        &score(&set.rule_id, &["failed", "completed", "pending", "failed"]),
        r##"{"rule_id":"r13659876d7babd0131c659da50d6932f","matches":[0,1,3],"n_cells":4,"assignments":[1,0,null,1]}"##,
    );
}

#[test]
fn session_corrected_twice_then_resumed_after_a_restart() {
    let dir = Dir::new("session");
    let service = dir.open();
    let created = service
        .session_create(rw_column(), vec![0], Vec::new())
        .unwrap();
    pin(
        "session created",
        &json(&created),
        r##"{"session_id":"s1","revision":0,"n_cells":6,"positives":[0],"negatives":[],"result":{"rule_id":"ref4af16af299b5f515b9865bac2919e5","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false}]],"format":1},"rule_text":"TextStartsWith(\"rw-\")","formula":"AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\")","score":0.7685247834990178,"matches":[0,2,3,5],"cached":false,"consistent":true}}"##,
    );
    let id = created.session_id.clone();
    let first = service.session_correct(&id, &[5], &[3], None).unwrap();
    pin(
        "session first",
        &json(&first),
        r##"{"session_id":"s1","revision":1,"n_cells":6,"positives":[0,5],"negatives":[3],"result":{"rule_id":"r184a4b5ad157ee9ad7ca74493fc07a9e","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-159"},"neg":true},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"rule_text":"AND(TextStartsWith(\"rw-\"),NOT(TextEquals(\"RW-159\")),NOT(TextEquals(\"RW-131-T\")))","formula":"AND(AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\"),NOT(A1=\"RW-159\"),NOT(A1=\"RW-131-T\"))","score":0.5539557547196071,"matches":[0,5],"cached":false,"consistent":true}}"##,
    );
    let second = service.session_correct(&id, &[2], &[], None).unwrap();
    pin(
        "session second",
        &json(&second),
        r##"{"session_id":"s1","revision":2,"n_cells":6,"positives":[0,2,5],"negatives":[3],"result":{"rule_id":"r0d5285a8e9e9222dc3858da831360b5b","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"rule_text":"AND(TextStartsWith(\"rw-\"),NOT(TextEquals(\"RW-131-T\")))","formula":"AND(AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\"),NOT(A1=\"RW-131-T\"))","score":0.5805423048206597,"matches":[0,2,5],"cached":false,"consistent":true}}"##,
    );
    assert_eq!(service.learns_performed(), 3);
    drop(service);

    let restarted = dir.open();
    let resumed = restarted.session_get(&id).unwrap();
    assert_eq!(json(&resumed), json(&second), "a restart keeps the session");
    let third = restarted.session_correct(&id, &[], &[4], None).unwrap();
    pin(
        "session third",
        &json(&third),
        r##"{"session_id":"s1","revision":3,"n_cells":6,"positives":[0,2,5],"negatives":[3,4],"result":{"rule_id":"r40457d711f1bf69d6eddf80bb6ddbf88","rule":{"cond":[[{"pred":{"p":"text","op":"starts_with","pattern":"rw-"},"neg":false},{"pred":{"p":"text","op":"equals","pattern":"RW-131-T"},"neg":true}]],"format":1},"rule_text":"AND(TextStartsWith(\"rw-\"),NOT(TextEquals(\"RW-131-T\")))","formula":"AND(AND(ISTEXT(A1),LEFT(A1,3)=\"rw-\"),NOT(A1=\"RW-131-T\"))","score":0.5805423048206597,"matches":[0,2,5],"cached":false,"consistent":true}}"##,
    );
    assert_eq!(restarted.learns_performed(), 1);
}

/// FNV-1a over every ranked candidate of each task: its canonical rule,
/// its `cluster_accuracy` bits and its score bits, in rank order, or the
/// error of a task that learns nothing.
fn candidate_digest(learner: &Cornet, tasks: &[cornet_repro::corpus::Task]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (i, task) in tasks.iter().enumerate() {
        fold(format!("task {i}\n").as_bytes());
        match learner.learn(&task.cells, &task.examples(3)) {
            Ok(outcome) => {
                for c in &outcome.candidates {
                    fold(c.rule.canonical().to_string().as_bytes());
                    fold(&c.cluster_accuracy.to_bits().to_le_bytes());
                    fold(&c.score.to_bits().to_le_bytes());
                }
            }
            Err(e) => fold(e.to_string().as_bytes()),
        }
    }
    hash
}

#[test]
fn enumeration_digest_over_sixty_corpus_tasks() {
    let corpus = generate_corpus(&CorpusConfig {
        seed: 20,
        n_tasks: 60,
        ..CorpusConfig::default()
    });
    let learner = Cornet::with_default_ranker();
    for threads in [1, 4] {
        let digest = with_threads(threads, || candidate_digest(&learner, &corpus.tasks));
        assert_eq!(
            format!("{digest:016x}"),
            "ea1ab00663f558b7",
            "candidate digest at {threads} threads"
        );
    }
}
