//! Crash-recovery integration tests for the store's fault hooks: kill
//! mid-append at every torn prefix length, kill mid-compaction, and
//! assert that every reopen rebuilds an index equal to the surviving
//! log. The seeded scenario that mixes these with bit flips is
//! `rckalign::chaos::run_store_scenario` (tested in `crates/core`).

use rck_obs::Registry;
use rck_store::{PairKey, Store, StoreConfig, StoredPair};
use std::fs;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rck-store-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir.join("store.rckstore")
}

fn record(n: u64) -> (PairKey, StoredPair) {
    (
        PairKey {
            hash_a: n * 17 + 1,
            hash_b: n * 31 + 2,
            method: (n % 3) as u8,
            kernel_version: 1,
        },
        StoredPair {
            similarity: (n as f64).sin(),
            rmsd: if n.is_multiple_of(4) {
                f64::NAN
            } else {
                n as f64 / 3.0
            },
            aligned_len: n as u32,
            ops: n * 999,
        },
    )
}

/// Kill mid-append at every torn prefix length: the reopened index must
/// equal the intact records, and a rewrite of the lost record must
/// converge to the full contents — the store-level analogue of the
/// incremental-run-converges acceptance criterion.
#[test]
fn mid_append_kill_then_rewrite_converges() {
    for keep in [1u8, 64, 128, 200, 255] {
        let path = scratch(&format!("midappend-{keep}"));
        {
            let mut s = Store::open(&path, StoreConfig::on_registry(Registry::new())).unwrap();
            for n in 0..5 {
                let (k, p) = record(n);
                s.append(k, p).unwrap();
            }
            let (k, p) = record(5);
            s.append_torn(k, p, keep).unwrap();
        }
        let mut s = Store::open(&path, StoreConfig::on_registry(Registry::new())).unwrap();
        assert_eq!(s.len(), 5, "keep={keep}: torn record must not surface");
        assert_eq!(s.counters().torn_tail_truncations.get(), 1);
        // The "incremental re-run": appending the lost record again
        // lands it cleanly after the truncated tail.
        let (k, p) = record(5);
        assert!(s.append(k, p).unwrap());
        drop(s);
        let s = Store::open(&path, StoreConfig::on_registry(Registry::new())).unwrap();
        assert_eq!(s.len(), 6);
        for n in 0..6 {
            let (k, p) = record(n);
            assert!(
                s.get(&k).unwrap().same_bits(&p),
                "keep={keep}: record {n} diverged"
            );
        }
    }
}

/// Kill mid-compaction at every torn prefix length: the original log
/// must stay authoritative and the stale temp file must be cleaned up.
#[test]
fn mid_compaction_kill_loses_nothing() {
    for keep in [1u8, 64, 128, 200, 255] {
        let path = scratch(&format!("midcompact-{keep}"));
        {
            let mut s = Store::open(&path, StoreConfig::on_registry(Registry::new())).unwrap();
            for n in 0..12 {
                let (k, p) = record(n);
                s.append(k, p).unwrap();
            }
            s.compact_torn(keep).unwrap();
        }
        let s = Store::open(&path, StoreConfig::on_registry(Registry::new())).unwrap();
        assert_eq!(s.len(), 12, "keep={keep}: killed compaction lost data");
        assert_eq!(s.counters().torn_tail_truncations.get(), 0);
        assert_eq!(s.counters().recovered_records.get(), 12);
        for n in 0..12 {
            let (k, p) = record(n);
            assert!(s.get(&k).unwrap().same_bits(&p));
        }
    }
}
