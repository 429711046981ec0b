//! End-to-end service throughput: sustained learn+score tasks/sec on the
//! in-process `cornet-serve` service layer over a realistic corpus mix
//! (Table 3 type shares), the bench anchoring the ROADMAP's "serve
//! millions of users" north star.
//!
//! Three regimes:
//! * `learn_cold` — every request is a fresh column: the learner runs.
//! * `learn_cached` — the same requests repeated: answered from the rule
//!   store's LRU without learning (the steady state of the demo's
//!   re-open-my-workbook traffic).
//! * `score_stored` — scoring fresh rows against stored rules (the bulk
//!   workload of a deployed formatting service).
//!
//! Per-iteration time here is per *request*; tasks/sec is its inverse.

use cornet_corpus::{generate_corpus_sharded, CorpusConfig};
use cornet_serve::service::{CornetService, LearnRequest, ScoreRequest, ServiceConfig};
use cornet_table::CellValue;
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cornet-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Learn requests from a realistic corpus mix: 3 top-down examples each
/// (the paper's default protocol).
fn corpus_requests(n: usize) -> Vec<LearnRequest> {
    let corpus = generate_corpus_sharded(
        &CorpusConfig {
            seed: 0xBEEF,
            n_tasks: n,
            ..CorpusConfig::default()
        },
        8,
    );
    corpus
        .tasks
        .iter()
        .map(|task| LearnRequest {
            cells: task.cells.iter().map(CellValue::display_string).collect(),
            examples: task.examples(3),
            negatives: vec![],
            classes: vec![],
            tenant: None,
        })
        .collect()
}

fn service_throughput(c: &mut Criterion) {
    let requests = corpus_requests(24);
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);

    // Cold learning: every iteration must actually run the learner, so
    // each request is made unique by re-texting one non-example cell
    // with a serial number — the content fingerprint changes, the store
    // can never answer, and the column is realistic except for one cell.
    {
        let dir = temp_store("cold");
        let service = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 4,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut next = 0usize;
        let total = requests.len();
        group.bench_function("learn_cold", |b| {
            b.iter(|| {
                let mut req = requests[next % total].clone();
                let victim = (0..req.cells.len())
                    .rev()
                    .find(|i| !req.examples.contains(i))
                    .unwrap_or(0);
                req.cells[victim] = format!("uniq-{next}");
                next += 1;
                service.learn(&req).map(|r| r.matches.len()).unwrap_or(0)
            })
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    // Steady state: every request already stored.
    {
        let dir = temp_store("cached");
        let service = CornetService::new(&ServiceConfig {
            store_dir: dir.clone(),
            cache_capacity: 64,
            ..ServiceConfig::default()
        })
        .unwrap();
        for req in &requests {
            let _ = service.learn(req);
        }
        let mut next = 0usize;
        let total = requests.len();
        group.bench_function("learn_cached", |b| {
            b.iter(|| {
                let req = &requests[next % total];
                next += 1;
                service.learn(req).map(|r| r.matches.len()).unwrap_or(0)
            })
        });

        // Bulk scoring against the stored rules.
        let rule_ids: Vec<String> = requests
            .iter()
            .filter_map(|req| service.learn(req).ok().map(|r| r.rule_id))
            .collect();
        let mut next = 0usize;
        group.bench_function("score_stored", |b| {
            b.iter(|| {
                let i = next % rule_ids.len();
                next += 1;
                service
                    .score(&ScoreRequest {
                        rule_id: Some(rule_ids[i].clone()),
                        rule: None,
                        rule_set: None,
                        cells: requests[i].cells.clone(),
                    })
                    .map(|r| r.matches.len())
                    .unwrap_or(0)
            })
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    group.finish();
}

criterion_group!(benches, service_throughput);
criterion_main!(benches);
