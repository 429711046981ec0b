//! Session durability work counter: every acknowledged session state is
//! one record appended to the rule log and synced once, counted on
//! `cornet_store_fsyncs_total` next to the rule records a re-learn puts.
//!
//! The counter is process-global, so this file holds a single test: as
//! its own test binary, no other test's puts can move the counter while
//! it checks exact deltas.

use cornet_repro::obs::expo;
use cornet_repro::serve::service::{CornetService, ServiceConfig};

fn fsyncs() -> f64 {
    let text = cornet_repro::obs::registry().render();
    let exposition = expo::parse(&text).expect("registry renders valid exposition");
    exposition
        .value("cornet_store_fsyncs_total", &[])
        .unwrap_or(0.0)
}

#[test]
fn a_persisted_correction_is_synced_twice() {
    let dir = std::env::temp_dir().join(format!("cornet-session-fsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = CornetService::new(&ServiceConfig {
        store_dir: dir.clone(),
        ..ServiceConfig::default()
    })
    .unwrap();
    let cells: Vec<String> = ["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    let before_create = fsyncs();
    let id = service
        .session_create(cells.clone(), vec![0], Vec::new())
        .unwrap()
        .session_id;
    assert_eq!(
        fsyncs(),
        before_create + 2.0,
        "a create that learns syncs its rule and its session state"
    );

    let before = fsyncs();
    service.session_correct(&id, &[5], &[3], None).unwrap();
    assert_eq!(
        fsyncs(),
        before + 2.0,
        "a correction whose re-learn misses the store syncs exactly twice"
    );

    // A second session over the same request finds its rule stored: only
    // the session state is synced.
    let before_hit = fsyncs();
    service.session_create(cells, vec![0], Vec::new()).unwrap();
    assert_eq!(
        fsyncs(),
        before_hit + 1.0,
        "a store hit syncs the state only"
    );

    // Reads sync nothing.
    let before_get = fsyncs();
    service.session_get(&id).unwrap();
    assert_eq!(fsyncs(), before_get);
    std::fs::remove_dir_all(&dir).ok();
}
