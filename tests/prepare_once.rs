//! Each learn prepares its column once: predicate generation and the
//! signature build (the `learn.predgen` span) run once per learn request
//! that misses the store, however many classes and relaxed fallbacks it
//! searches, and never again for a correction to a recently re-learned
//! session, whose column does not change.
//!
//! The trace sink is process-global; the tests in this binary serialize
//! on [`SINK_LOCK`] so one test's sink never observes another's spans.

use cornet_repro::obs::{clear_trace_sink, set_trace_sink, VecSink};
use cornet_repro::serve::service::{ClassRequest, CornetService, LearnRequest, ServiceConfig};
use cornet_repro::table::{Format, TargetScope};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

static SINK_LOCK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn empty_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cornet-prepare-once-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> CornetService {
    CornetService::new(&ServiceConfig {
        store_dir: dir.to_path_buf(),
        ..ServiceConfig::default()
    })
    .unwrap()
}

fn strings(raw: &[&str]) -> Vec<String> {
    raw.iter().map(|s| s.to_string()).collect()
}

/// Runs `f` under a fresh trace sink; returns its result and the names
/// of the spans it emitted.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<String>) {
    let sink = Arc::new(VecSink::default());
    set_trace_sink(sink.clone());
    let out = f();
    clear_trace_sink();
    (out, sink.events().into_iter().map(|e| e.span).collect())
}

fn count(spans: &[String], name: &str) -> usize {
    spans.iter().filter(|s| *s == name).count()
}

#[test]
fn a_k_class_learn_with_a_relaxed_fallback_prepares_once() {
    let _serial = sink_lock();
    let dir = empty_dir("k-class");
    let service = open(&dir);
    // Class 1's only example equals the global negative at 1, so class 1
    // abstains and falls back to the relaxed search; class 0 does not.
    let req = LearnRequest {
        cells: strings(&["x", "x", "y", "z"]),
        examples: Vec::new(),
        negatives: vec![1],
        classes: vec![
            ClassRequest {
                style: Format::fill("#111111"),
                scope: TargetScope::Cell,
                examples: vec![2],
            },
            ClassRequest {
                style: Format::fill("#222222"),
                scope: TargetScope::Cell,
                examples: vec![0],
            },
        ],
        tenant: None,
    };
    let (learned, spans) = traced(|| service.learn(&req).unwrap());
    assert!(!learned.consistent, "fixture must fall back");
    // Three searches (class 0, class 1 strict, class 1 relaxed) ran over
    // one prepared column.
    assert_eq!(count(&spans, "learn.cluster"), 3, "three searches ran");
    assert_eq!(
        count(&spans, "learn.predgen"),
        1,
        "the column is prepared once"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_corrections_reuse_the_prepared_column() {
    let _serial = sink_lock();
    let dir = empty_dir("session");
    let service = open(&dir);
    let cells = strings(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
    let (created, spans) = traced(|| service.session_create(cells, vec![0], Vec::new()));
    let id = created.unwrap().session_id;
    assert_eq!(
        count(&spans, "learn.predgen"),
        1,
        "the first learn prepares"
    );
    // Each correction re-learns (a store miss) and prepares nothing.
    let correct = |service: &CornetService, format: &[usize], unformat: &[usize]| {
        let (corrected, spans) = traced(|| service.session_correct(&id, format, unformat, None));
        assert!(!corrected.unwrap().result.unwrap().cached);
        count(&spans, "learn.predgen")
    };
    assert_eq!(
        correct(&service, &[5], &[3]),
        0,
        "a correction prepares nothing"
    );
    assert_eq!(
        correct(&service, &[2], &[]),
        0,
        "a correction prepares nothing"
    );

    // A restart drops the in-memory context: the first re-learn after it
    // prepares the column again, later ones do not.
    drop(service);
    let restarted = open(&dir);
    assert_eq!(correct(&restarted, &[], &[4]), 1, "rebuilt after a restart");
    assert_eq!(correct(&restarted, &[4], &[]), 0, "then reused");
    std::fs::remove_dir_all(&dir).ok();
}
