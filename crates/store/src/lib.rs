//! # rck-store
//!
//! A persistent, content-addressed store of pairwise comparison results
//! — the on-disk memo that turns re-runs of the all-vs-all farm into
//! cache hits and makes adding one structure to an N-structure database
//! cost N new pairs instead of N².
//!
//! Results are keyed by [`PairKey`]: the two chains' content hashes,
//! the method code and the kernel version. The key says nothing about
//! *where* a chain sits in a dataset, so any run over any dataset
//! ordering can reuse any other run's results, and a kernel bump
//! quietly invalidates everything it should.
//!
//! On disk a store is a versioned superblock plus an append-only log of
//! FNV-1a-checksummed records ([`log`]). Opening a store scans the log,
//! truncates any torn or corrupt tail (a crashed append, a flipped
//! byte), and rebuilds the in-memory index from the intact prefix —
//! recovery is a read, not a repair tool. [`Store::compact`] rewrites
//! the log through a temp file and an atomic rename, dropping
//! superseded records and evicting the oldest entries past
//! [`StoreConfig::max_records`]; a crash mid-compaction leaves the
//! original log untouched and only a stale temp file behind.
//!
//! Everything is instrumented through the `rck_store_*` counter
//! families ([`StoreCounters`]), and the failure behavior is testable
//! deterministically: [`Store::append_torn`] and [`Store::compact_torn`]
//! are the fault hooks (a kill mid-append, a kill mid-compaction), and
//! the seeded crash-recovery scenario that drives them, together with
//! bit flips in the log body, is `rckalign::chaos::run_store_scenario`.
//!
//! ```
//! use rck_store::{PairKey, Store, StoreConfig, StoredPair};
//!
//! let dir = std::env::temp_dir().join(format!("rck-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("results.rckstore");
//! let key = PairKey { hash_a: 1, hash_b: 2, method: 0, kernel_version: 1 };
//! let pair = StoredPair { similarity: 0.83, rmsd: 2.1, aligned_len: 64, ops: 1000 };
//! {
//!     let mut store = Store::open(&path, StoreConfig::default()).unwrap();
//!     assert!(store.append(key, pair).unwrap());
//! }
//! let store = Store::open(&path, StoreConfig::default()).unwrap();
//! assert!(store.get(&key).unwrap().same_bits(&pair));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod log;
pub mod stats;

pub use log::{fnv1a64, fnv1a64_lanes, PairKey, StoredPair};
pub use stats::StoreCounters;

use rck_obs::Registry;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store tuning knobs.
#[derive(Clone)]
pub struct StoreConfig {
    /// Most live records kept across a compaction; beyond it the oldest
    /// entries are evicted. Sized for production databases by default
    /// (a 10k-structure database is ~50M pairs per method; the default
    /// caps the *store*, not the workload — evicted pairs are simply
    /// recomputed on next use).
    pub max_records: usize,
    /// Registry the `rck_store_*` counters land on.
    pub registry: Arc<Registry>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            max_records: 1 << 22,
            registry: Arc::clone(Registry::global()),
        }
    }
}

impl StoreConfig {
    /// A config whose counters land on `registry` (tests assert exact
    /// counter values and need isolation from the global registry).
    pub fn on_registry(registry: Arc<Registry>) -> StoreConfig {
        StoreConfig {
            registry,
            ..StoreConfig::default()
        }
    }
}

/// The hasher of maps whose keys this process derives itself: the store
/// index (content hashes read from its own log) and the pair memo
/// (dataset indices). A multiply–rotate fold over the key's words, one
/// multiply per word where the default SipHash runs its rounds per
/// field — the keys are already FNV hashes or small indices, and no
/// network peer chooses them, so SipHash's flood resistance buys
/// nothing. A zero-state builder that is its own hasher:
/// `HashMap<K, V, KeyHasher>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// Odd multiplier with well-spread bits (the golden ratio's).
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl BuildHasher for KeyHasher {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

impl Hasher for KeyHasher {
    /// Only a key with a variable-length field reaches this.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u8(b));
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x.into());
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(Self::K);
    }

    /// The product's well-mixed high bits, rotated down to where the
    /// table takes its bucket index.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// An open store: an append handle on the log plus the in-memory index
/// rebuilt from it.
pub struct Store {
    path: PathBuf,
    file: File,
    /// `key → (value, sequence)`; the sequence orders entries by
    /// recency for eviction (higher = newer).
    index: HashMap<PairKey, (StoredPair, u64), KeyHasher>,
    next_seq: u64,
    /// Physical records in the log, including superseded duplicates —
    /// the gap to `index.len()` is what compaction reclaims.
    log_records: u64,
    /// Bytes in the log: where a failed write is cut back to.
    log_len: u64,
    counters: StoreCounters,
    max_records: usize,
    /// Test hook: the next log write stops after this many bytes, failing.
    #[cfg(test)]
    short_write: Option<usize>,
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

impl Store {
    /// Open (or create) the store at `path`, rebuilding the index from
    /// the log. A torn or corrupt tail is truncated away and counted; a
    /// corrupt superblock empties the store (nothing behind it can be
    /// trusted); a stale compaction temp file is removed.
    pub fn open(path: impl AsRef<Path>, cfg: StoreConfig) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        let counters = StoreCounters::register(&cfg.registry);
        // A crash mid-compaction leaves `<name>.tmp` behind; the rename
        // never happened, so the original log is authoritative.
        let _ = fs::remove_file(tmp_path(&path));

        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        let mut index = HashMap::default();
        let mut next_seq = 0u64;
        let mut log_records = 0u64;
        let mut log_len = log::SUPERBLOCK_LEN as u64;
        if bytes.is_empty() {
            fs::write(&path, log::encode_superblock())?;
        } else if log::read_superblock(&bytes).is_err() {
            // Unrecoverable head: reinitialize rather than misparse.
            counters.torn_tail_truncations.inc();
            fs::write(&path, log::encode_superblock())?;
        } else {
            // Pre-sized from the bytes in hand, then filled straight from
            // the scan: no record list in between.
            index.reserve(bytes.len() / log::PAIR_RECORD_LEN);
            let clean_len = log::scan_records(&bytes, |key, pair| {
                index.insert(key, (pair, next_seq));
                next_seq += 1;
            });
            log_len = clean_len as u64;
            if clean_len != bytes.len() {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(log_len)?;
                f.sync_data()?;
                counters.torn_tail_truncations.inc();
            }
            counters.recovered_records.add(next_seq);
            log_records = next_seq;
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Store {
            path,
            file,
            index,
            next_seq,
            log_records,
            log_len,
            counters,
            max_records: cfg.max_records.max(1),
            #[cfg(test)]
            short_write: None,
        })
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Live (deduplicated) records in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Physical records in the log, superseded duplicates included.
    pub fn log_records(&self) -> u64 {
        self.log_records
    }

    /// The store's counter handles.
    pub fn counters(&self) -> &StoreCounters {
        &self.counters
    }

    /// Look up a result, counting the hit or miss.
    pub fn get(&self, key: &PairKey) -> Option<StoredPair> {
        match self.index.get(key) {
            Some((pair, _)) => {
                self.counters.hits.inc();
                Some(*pair)
            }
            None => {
                self.counters.misses.inc();
                None
            }
        }
    }

    /// Whether a key is present, without touching the hit/miss counters
    /// (used by idempotent append paths, not by consumers deciding
    /// whether to compute).
    pub fn contains(&self, key: &PairKey) -> bool {
        self.index.contains_key(key)
    }

    /// Append one record. Returns `false` (writing nothing) if the key
    /// is already present — appends are idempotent, so run-completion
    /// paths can offer every outcome without double-writing prefilled
    /// hits. Exceeding [`StoreConfig::max_records`] triggers an
    /// automatic compaction, which evicts the oldest entries. The
    /// one-record instance of [`Store::append_all`].
    pub fn append(&mut self, key: PairKey, pair: StoredPair) -> io::Result<bool> {
        Ok(self.append_all([(key, pair)])? == 1)
    }

    /// Append records with one log write; returns how many were new. Log
    /// and index end as one [`Store::append`] per record leaves them (a
    /// compaction falling mid-way is preceded by a write of what it
    /// follows). All or nothing: a failed write is cut back off the file
    /// and none of its records is indexed.
    pub fn append_all(
        &mut self,
        records: impl IntoIterator<Item = (PairKey, StoredPair)>,
    ) -> io::Result<usize> {
        let mut buf = Vec::new();
        let mut first_seq = self.next_seq;
        let mut appended = 0;
        for (key, pair) in records {
            if self.index.contains_key(&key) {
                continue;
            }
            log::encode_record_into(&mut buf, &key, &pair);
            self.index.insert(key, (pair, self.next_seq));
            self.next_seq += 1;
            if self.index.len() > self.max_records {
                appended += self.commit(&mut buf, first_seq)?;
                self.compact()?;
                first_seq = self.next_seq;
            }
        }
        appended += self.commit(&mut buf, first_seq)?;
        Ok(appended)
    }

    /// The store's one log write: the records indexed from `first_seq` on,
    /// encoded in `buf` and checksummed here in one lock-step pass — or,
    /// if the write fails, cut back and unindexed.
    fn commit(&mut self, buf: &mut Vec<u8>, first_seq: u64) -> io::Result<usize> {
        let records = self.next_seq - first_seq;
        if records == 0 {
            return Ok(0);
        }
        self.counters.writes.inc();
        log::seal_records(buf);
        #[cfg(test)]
        let written = match self.short_write.take() {
            Some(k) => self
                .file
                .write_all(&buf[..k])
                .and(Err(io::ErrorKind::Other.into())),
            None => self.file.write_all(buf),
        };
        #[cfg(not(test))]
        let written = self.file.write_all(buf);
        if let Err(e) = written {
            // If the cut fails too, the next open truncates, as after a crash.
            let _ = self.file.set_len(self.log_len);
            self.index.retain(|_, (_, seq)| *seq < first_seq);
            self.next_seq = first_seq;
            return Err(e);
        }
        self.log_len += buf.len() as u64;
        buf.clear();
        self.log_records += records;
        self.counters.appends.add(records);
        Ok(records as usize)
    }

    /// Force appended records to stable storage (appends themselves
    /// reach the OS before they return but are only fsynced here and at
    /// compaction).
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Rewrite the log through a temp file and an atomic rename:
    /// superseded records are dropped, and if the index exceeds
    /// [`StoreConfig::max_records`] the oldest entries are evicted. A
    /// crash before the rename leaves the original log untouched.
    pub fn compact(&mut self) -> io::Result<()> {
        let bytes = self.compacted_bytes();
        let tmp = tmp_path(&self.path);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.log_len = bytes.len() as u64;
        self.log_records = self.index.len() as u64;
        self.counters.compactions.inc();
        Ok(())
    }

    /// The compacted file image: superblock plus live records in
    /// recency order, oldest evicted past the cap. Renumbers the index.
    fn compacted_bytes(&mut self) -> Vec<u8> {
        let mut live: Vec<(u64, PairKey, StoredPair)> = self
            .index
            .drain()
            .map(|(k, (p, seq))| (seq, k, p))
            .collect();
        live.sort_unstable_by_key(|(seq, _, _)| *seq);
        if live.len() > self.max_records {
            live.drain(..live.len() - self.max_records);
        }
        let mut bytes = log::encode_superblock().to_vec();
        self.next_seq = 0;
        for (_, key, pair) in live {
            log::encode_record_into(&mut bytes, &key, &pair);
            self.index.insert(key, (pair, self.next_seq));
            self.next_seq += 1;
        }
        log::seal_records(&mut bytes[log::SUPERBLOCK_LEN..]);
        bytes
    }

    /// Crash-harness seam: write only a prefix of one record, as a
    /// process killed mid-append would. The index is *not* updated —
    /// the simulated process died. Drop the store and reopen it to
    /// exercise recovery; using it further is undefined (the log tail
    /// is garbage until an open truncates it).
    pub fn append_torn(&mut self, key: PairKey, pair: StoredPair, keep_num: u8) -> io::Result<()> {
        let rec = log::encode_record(&key, &pair);
        let keep = ((keep_num as usize * rec.len()) / 256).clamp(1, rec.len() - 1);
        self.file.write_all(&rec[..keep])?;
        self.log_len += keep as u64;
        self.file.sync_data()
    }

    /// Crash-harness seam: begin a compaction and die before the
    /// rename — a prefix of the temp file is written and abandoned.
    /// The live store is untouched and remains fully usable; the next
    /// [`Store::open`] removes the stale temp file.
    pub fn compact_torn(&mut self, keep_num: u8) -> io::Result<()> {
        let bytes = self.compacted_bytes();
        let keep = ((keep_num as usize * bytes.len()) / 256).clamp(1, bytes.len().max(2) - 1);
        let mut f = File::create(tmp_path(&self.path))?;
        f.write_all(&bytes[..keep])?;
        f.sync_all()
    }

    /// Iterate the live records (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&PairKey, &StoredPair)> {
        self.index.iter().map(|(k, (p, _))| (k, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rck-store-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("store.rckstore")
    }

    fn cfg() -> StoreConfig {
        StoreConfig::on_registry(Registry::new())
    }

    fn key(n: u64) -> PairKey {
        PairKey {
            hash_a: n,
            hash_b: n + 1,
            method: 0,
            kernel_version: 1,
        }
    }

    fn pair(n: u64) -> StoredPair {
        StoredPair {
            similarity: n as f64 * 0.5,
            rmsd: f64::NAN,
            aligned_len: n as u32,
            ops: n,
        }
    }

    #[test]
    fn append_get_reopen() {
        let path = scratch("roundtrip");
        {
            let mut s = Store::open(&path, cfg()).unwrap();
            for n in 0..10 {
                assert!(s.append(key(n), pair(n)).unwrap());
            }
            assert!(!s.append(key(3), pair(3)).unwrap(), "idempotent");
            assert_eq!(s.counters().appends.get(), 10);
        }
        let s = Store::open(&path, cfg()).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.counters().recovered_records.get(), 10);
        assert_eq!(s.counters().torn_tail_truncations.get(), 0);
        assert!(s.get(&key(7)).unwrap().same_bits(&pair(7)));
        assert!(s.get(&key(99)).is_none());
        assert_eq!(s.counters().hits.get(), 1);
        assert_eq!(s.counters().misses.get(), 1);
    }

    #[test]
    fn torn_append_is_truncated_on_open() {
        let path = scratch("torn");
        {
            let mut s = Store::open(&path, cfg()).unwrap();
            for n in 0..4 {
                s.append(key(n), pair(n)).unwrap();
            }
            s.append_torn(key(4), pair(4), 128).unwrap();
        }
        let s = Store::open(&path, cfg()).unwrap();
        assert_eq!(s.len(), 4, "intact prefix survives");
        assert_eq!(s.counters().torn_tail_truncations.get(), 1);
        assert_eq!(s.counters().recovered_records.get(), 4);
        // The truncation is physical: a second open is clean.
        let s2 = Store::open(&path, StoreConfig::on_registry(Registry::new())).unwrap();
        assert_eq!(s2.counters().torn_tail_truncations.get(), 0);
    }

    #[test]
    fn killed_compaction_leaves_the_log_untouched() {
        let path = scratch("killcompact");
        {
            let mut s = Store::open(&path, cfg()).unwrap();
            for n in 0..6 {
                s.append(key(n), pair(n)).unwrap();
            }
            s.compact_torn(100).unwrap();
            assert!(tmp_path(&path).exists());
        }
        let s = Store::open(&path, cfg()).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.counters().torn_tail_truncations.get(), 0);
        assert!(!tmp_path(&path).exists(), "stale temp removed");
    }

    #[test]
    fn compaction_preserves_contents() {
        let path = scratch("compact");
        let mut s = Store::open(&path, cfg()).unwrap();
        for n in 0..20 {
            s.append(key(n), pair(n)).unwrap();
        }
        s.compact().unwrap();
        assert_eq!(s.counters().compactions.get(), 1);
        assert_eq!(s.log_records(), 20);
        drop(s);
        let s = Store::open(&path, cfg()).unwrap();
        assert_eq!(s.len(), 20);
        for n in 0..20 {
            assert!(s.get(&key(n)).unwrap().same_bits(&pair(n)));
        }
    }

    #[test]
    fn eviction_caps_the_index_and_keeps_the_newest() {
        let path = scratch("evict");
        let mut c = cfg();
        c.max_records = 8;
        let mut s = Store::open(&path, c).unwrap();
        for n in 0..20 {
            s.append(key(n), pair(n)).unwrap();
        }
        assert!(s.len() <= 8, "cap enforced: {}", s.len());
        assert!(s.contains(&key(19)), "newest kept");
        assert!(!s.contains(&key(0)), "oldest evicted");
        assert!(s.counters().compactions.get() > 0);
    }

    #[test]
    fn corrupt_superblock_empties_the_store() {
        let path = scratch("badsuper");
        {
            let mut s = Store::open(&path, cfg()).unwrap();
            s.append(key(1), pair(1)).unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        bytes[2] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let s = Store::open(&path, cfg()).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.counters().torn_tail_truncations.get(), 1);
    }

    /// The live records of the store at `path`, reopened, in key order.
    fn reopened(path: &Path) -> Vec<(PairKey, [u64; 4])> {
        let s = Store::open(path, cfg()).unwrap();
        let mut live: Vec<_> = s
            .iter()
            .map(|(k, p)| {
                let bits = [
                    p.similarity.to_bits(),
                    p.rmsd.to_bits(),
                    p.aligned_len.into(),
                    p.ops,
                ];
                (*k, bits)
            })
            .collect();
        live.sort_by_key(|(k, _)| *k);
        live
    }

    /// A slice append leaves the log byte for byte what one `append` per
    /// record leaves, and an equal index after reopen: duplicates within
    /// and across slices, an empty slice, and caps small enough that
    /// compaction (with eviction) falls mid-slice.
    #[test]
    fn a_slice_append_is_the_one_at_a_time_loop() {
        let slices: [&[u64]; 6] = [
            &[0, 1, 2, 2, 3],
            &[],
            &[3, 4, 5, 6, 7, 4, 8],
            &[0, 9],
            &[10, 11, 12, 13, 14, 15, 16, 10],
            &[1, 17],
        ];
        for max_records in [1 << 22, 7, 3, 1] {
            let (one, many) = (scratch("loop"), scratch("slices"));
            let config = || StoreConfig {
                max_records,
                ..cfg()
            };
            let (mut a, mut b) = (
                Store::open(&one, config()).unwrap(),
                Store::open(&many, config()).unwrap(),
            );
            for slice in slices {
                let mut appended = 0;
                for &n in slice {
                    appended += usize::from(a.append(key(n), pair(n)).unwrap());
                }
                let records = slice.iter().map(|&n| (key(n), pair(n)));
                assert_eq!(
                    b.append_all(records).unwrap(),
                    appended,
                    "cap {max_records}"
                );
            }
            let (ca, cb) = (a.counters(), b.counters());
            assert_eq!(ca.appends.get(), cb.appends.get());
            assert_eq!(ca.compactions.get(), cb.compactions.get());
            assert!(cb.writes.get() < ca.writes.get() || max_records == 1);
            drop((a, b));
            assert_eq!(
                fs::read(&one).unwrap(),
                fs::read(&many).unwrap(),
                "cap {max_records}"
            );
            assert_eq!(reopened(&one), reopened(&many));
        }
    }

    /// A write that fails part-way strands nothing: the log is cut back,
    /// nothing from the call is indexed, and the next append's record
    /// survives a reopen (at the parent the torn bytes stayed, and the
    /// next open truncated every later, acknowledged record with them).
    #[test]
    fn a_failed_append_strands_no_later_record() {
        for keep in [1, 13, 40, log::PAIR_RECORD_LEN - 1] {
            let path = scratch("short-write");
            {
                let mut s = Store::open(&path, cfg()).unwrap();
                s.append(key(0), pair(0)).unwrap();
                s.short_write = Some(keep);
                assert!(s.append(key(1), pair(1)).is_err());
                s.short_write = Some(keep + log::PAIR_RECORD_LEN);
                let slice = [(key(2), pair(2)), (key(3), pair(3))];
                assert!(s.append_all(slice).is_err());
                assert!(!s.contains(&key(1)) && !s.contains(&key(2)));
                assert_eq!(s.counters().appends.get(), 1);
                assert!(s.append(key(4), pair(4)).unwrap());
                assert!(
                    s.append(key(1), pair(1)).unwrap(),
                    "the failed key is not indexed"
                );
            }
            let s = Store::open(&path, cfg()).unwrap();
            assert_eq!(s.counters().torn_tail_truncations.get(), 0, "keep {keep}");
            assert_eq!(s.len(), 3);
            assert!(s.get(&key(4)).unwrap().same_bits(&pair(4)));
        }
    }

    /// The key hasher spreads the keys its maps hold — sequential probe
    /// keys and the memo's `(i, j, method)` triples — over both the low
    /// bits the table indexes buckets by and the top seven it tags them
    /// with, about as well as random bits would.
    #[test]
    fn the_key_hasher_spreads_sequential_keys() {
        fn spread(hashes: &[u64]) -> (usize, usize) {
            let distinct = |f: &dyn Fn(u64) -> u64| {
                let mut seen: Vec<u64> = hashes.iter().map(|&h| f(h)).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            };
            (distinct(&|h| h & 4095), distinct(&|h| h >> 57))
        }
        let keys = KeyHasher::default();
        let probe: Vec<u64> = (0..4096u64)
            .map(|k| {
                keys.hash_one(PairKey {
                    hash_a: k,
                    hash_b: !k,
                    ..key(0)
                })
            })
            .collect();
        let memo: Vec<u64> = (0..91u32)
            .flat_map(|j| (0..j).map(move |i| (i, j, 1u8)))
            .map(|t| keys.hash_one(t))
            .collect();
        for hashes in [&probe, &memo] {
            // 4096 random 12-bit buckets leave about 63 % distinct.
            let (low, top) = spread(hashes);
            assert!(low * 100 >= hashes.len() * 58, "{low} of {}", hashes.len());
            assert_eq!(top, 128);
        }
    }

    #[test]
    fn flush_and_iter() {
        let path = scratch("flush");
        let mut s = Store::open(&path, cfg()).unwrap();
        s.append(key(1), pair(1)).unwrap();
        s.flush().unwrap();
        assert_eq!(s.iter().count(), 1);
    }
}
