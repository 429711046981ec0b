//! The rule store's durability work counter: every acknowledged `put`
//! is one `fsync` (`fdatasync` of the rule log), counted on
//! `cornet_store_fsyncs_total`.
//!
//! The counter is process-global, so this file holds a single test: as
//! its own test binary, no other test's puts can move the counter while
//! it checks exact deltas.

use cornet_repro::core::predicate::{Predicate, TextOp};
use cornet_repro::core::rule::Rule;
use cornet_repro::obs::expo;
use cornet_repro::serve::store::{rule_id, RuleStore, StoredRule};

fn fsyncs() -> f64 {
    let text = cornet_repro::obs::registry().render();
    let exposition = expo::parse(&text).expect("registry renders valid exposition");
    exposition
        .value("cornet_store_fsyncs_total", &[])
        .unwrap_or(0.0)
}

fn stored(cell: &str) -> StoredRule {
    StoredRule {
        id: rule_id(&[cell.to_string()], &[0], &[]),
        rule: Rule::from_predicate(Predicate::Text {
            op: TextOp::StartsWith,
            pattern: cell.into(),
        }),
        score: 0.5,
        examples: vec![0],
        negatives: vec![],
        column_len: 1,
        consistent: true,
        rule_set: None,
        tenant: None,
        embedding: None,
    }
}

#[test]
fn every_put_is_synced_exactly_once() {
    let dir = std::env::temp_dir().join(format!("cornet-store-fsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before_open = fsyncs();
    let mut store = RuleStore::open(&dir, 4).expect("open store");
    assert_eq!(
        fsyncs(),
        before_open + 1.0,
        "creating the log syncs its directory"
    );

    let before = fsyncs();
    for (i, cell) in ["a", "b", "c", "a"].iter().enumerate() {
        store.put(stored(cell)).expect("put");
        assert_eq!(fsyncs(), before + (i + 1) as f64, "put {i} syncs once");
    }
    drop(store);

    // Reopening an existing log and reading from it syncs nothing.
    let before_reopen = fsyncs();
    let mut reopened = RuleStore::open(&dir, 4).expect("reopen store");
    assert!(reopened.get(&stored("b").id).is_some());
    assert_eq!(fsyncs(), before_reopen);
    std::fs::remove_dir_all(&dir).ok();
}
