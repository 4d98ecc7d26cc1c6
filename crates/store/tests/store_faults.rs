//! Fault injection at the `store` site: corrupted writes are detected on
//! load and never served.
//!
//! This test lives in its own binary because the fault override it arms
//! is process-global: the store's unit tests, running in the same process,
//! would otherwise write their records through it.

use std::fs;
use std::sync::atomic::Ordering::Relaxed;

use moss_store::{LabelRecord, LabelStore};

#[test]
fn store_fault_site_corrupts_writes_but_never_serves_poison() {
    let root = std::env::temp_dir().join(format!("moss_store_faultsite_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = LabelStore::open(&root).unwrap();
    let rec = LabelRecord {
        toggle: vec![0.5, 0.25, 0.0, 1.0],
        probability: vec![0.5, 0.75, 0.125, 0.5],
        dynamic_nw: vec![12.5, 0.0, 3.25, 8.0],
        arrival_ns: vec![(1, 0.35), (3, 0.8)],
        total_power_nw: 123.456,
        leakage_nw: 23.456,
    };
    let faults = moss_faults::override_for_tests(Some("store:1.0"));
    // Both corruption flavors: even key = short record, odd = bit flip,
    // each inside an intact frame.
    for key in [10u64, 11] {
        store.store(key, &rec).unwrap();
        assert_eq!(store.load(key), None, "poisoned record served (key {key})");
        assert_eq!(store.load(key), None, "poisoned record kept (key {key})");
    }
    drop(faults);
    assert_eq!(store.stats().corrupt.load(Relaxed), 2);
    // The scan walks past both frames, and a fresh instance's load evicts
    // them too.
    let fresh = LabelStore::open(&root).unwrap();
    assert_eq!(fresh.record_count(), 2);
    for key in [10u64, 11] {
        assert_eq!(fresh.load(key), None, "poisoned record served (key {key})");
    }
    assert_eq!(fresh.stats().corrupt.load(Relaxed), 2);
    // Recovery: recompute-and-rewrite with the site quiet.
    fresh.store(10, &rec).unwrap();
    assert_eq!(fresh.load(10).as_ref(), Some(&rec));
    let later = LabelStore::open(&root).unwrap();
    assert_eq!(later.load(10), Some(rec));
    assert_eq!(later.stats().corrupt.load(Relaxed), 0);
    let _ = fs::remove_dir_all(&root);
}
