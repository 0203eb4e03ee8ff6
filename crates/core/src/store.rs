//! Binding between the workload types and the persistent result store.
//!
//! [`rck_store::Store`] knows nothing about chains or datasets — it
//! stores values under content-addressed [`PairKey`]s. This module
//! supplies the addressing: [`chain_content_hash`] fingerprints a chain
//! by its exact bytes (name, sequence, IEEE-754 coordinate bits — the
//! gate's query fingerprints continue from it), and
//! [`StoreBinding`] pins a store to one dataset so `(i, j, method)`
//! jobs translate to keys and [`PairOutcome`]s round-trip losslessly.
//!
//! Keys use the chains' hashes in job order (`i < j` everywhere in the
//! workspace), so the address is independent of where a chain sits in a
//! dataset: an incremental run over N+1 chains hits every pair an
//! earlier N-chain run stored, and only the N new pairs miss.

use crate::jobs::{PairJob, PairOutcome};
use parking_lot::Mutex;
use rck_pdb::model::CaChain;
use rck_store::{PairKey, Store, StoredPair};
use rck_tmalign::MethodKind;

/// Content hash of one chain: FNV-1a 64 over the name bytes, the
/// residue indices and the raw coordinate bits. Bit-exact coordinates
/// feed bit-exact hashes, matching the farm's fidelity contract. The
/// one-chain case of the lock-step hashing [`StoreBinding::new`] does.
pub fn chain_content_hash(chain: &CaChain) -> u64 {
    content_hashes(std::slice::from_ref(chain))[0]
}

/// The content hash of every chain, four chains in lock-step.
fn content_hashes(chains: &[CaChain]) -> Vec<u64> {
    rck_store::fnv1a64_lanes(chains.len(), |k, buf| {
        let chain = &chains[k];
        buf.reserve(chain.name.len() + chain.seq.len() + 24 * chain.coords.len());
        buf.extend_from_slice(chain.name.as_bytes());
        buf.extend(chain.seq.iter().map(|aa| aa.index()));
        for c in &chain.coords {
            for v in [c.x, c.y, c.z] {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    })
}

/// A store pinned to one dataset: per-chain content hashes computed
/// once, plus the kernel version every key carries. Shared behind an
/// `Arc` by caches, masters and gates; the store itself sits behind a
/// mutex because appends need `&mut`.
pub struct StoreBinding {
    store: Mutex<Store>,
    hashes: Vec<u64>,
    kernel_version: u32,
}

impl StoreBinding {
    /// Bind `store` to `chains`, hashing every chain up front (the
    /// warm-start cost of a resident database), four at a time.
    pub fn new(store: Store, chains: &[CaChain]) -> StoreBinding {
        StoreBinding {
            store: Mutex::new(store),
            hashes: content_hashes(chains),
            kernel_version: rck_tmalign::KERNEL_VERSION,
        }
    }

    /// The content hash of chain `ix`.
    ///
    /// # Panics
    /// Panics if `ix` is out of range for the bound dataset.
    pub fn hash_of(&self, ix: usize) -> u64 {
        self.hashes[ix]
    }

    /// The kernel version folded into every key.
    pub fn kernel_version(&self) -> u32 {
        self.kernel_version
    }

    /// Build a key from two explicit chain hashes — the seam for chains
    /// outside the bound dataset, like a gate query at its virtual
    /// index.
    pub fn key_for(&self, hash_a: u64, hash_b: u64, method: MethodKind) -> PairKey {
        PairKey {
            hash_a,
            hash_b,
            method: method.code(),
            kernel_version: self.kernel_version,
        }
    }

    /// The content-addressed key of one job over the bound dataset.
    pub fn key(&self, job: &PairJob) -> PairKey {
        self.key_for(
            self.hashes[job.i as usize],
            self.hashes[job.j as usize],
            job.method,
        )
    }

    /// Look up a job's outcome, rebuilding the positional fields from
    /// the job itself (counts a store hit or miss).
    pub fn lookup(&self, job: &PairJob) -> Option<PairOutcome> {
        let key = self.key(job);
        self.lookup_key(&key, job.i, job.j, job.method)
    }

    /// Look up under an explicit key, materialising the outcome at the
    /// given positional coordinates.
    pub fn lookup_key(
        &self,
        key: &PairKey,
        i: u32,
        j: u32,
        method: MethodKind,
    ) -> Option<PairOutcome> {
        let stored = self.store.lock().get(key)?;
        Some(outcome(i, j, method, stored))
    }

    /// Warm start: the outcomes the store already holds for `jobs` and
    /// the jobs it does not, both in job order.
    pub fn split(&self, jobs: &[PairJob]) -> (Vec<PairOutcome>, Vec<PairJob>) {
        self.split_by(jobs, |job| self.key(job))
    }

    /// [`StoreBinding::split`] under explicit keys — the seam for jobs
    /// against a chain outside the bound dataset. One store lock for the
    /// whole call, so `key` must not reach back into the store.
    pub fn split_by(
        &self,
        jobs: &[PairJob],
        key: impl Fn(&PairJob) -> PairKey,
    ) -> (Vec<PairOutcome>, Vec<PairJob>) {
        let mut hits = Vec::with_capacity(jobs.len());
        let mut misses = Vec::new();
        let store = self.store.lock();
        for job in jobs {
            match store.get(&key(job)) {
                Some(stored) => hits.push(outcome(job.i, job.j, job.method, stored)),
                None => misses.push(*job),
            }
        }
        (hits, misses)
    }

    /// Hand a finished run's outcomes back: record them (pairs the store
    /// satisfied are skipped by its idempotence), then flush, reporting
    /// a failure under the tier's log `tag`.
    pub fn absorb(&self, outcomes: &[PairOutcome], tag: &str) {
        self.record_all(outcomes);
        if let Err(e) = self.store.lock().flush() {
            eprintln!("{tag} store flush failed: {e}");
        }
    }

    /// Persist one outcome of the bound dataset. Idempotent (an
    /// already-stored key writes nothing) and best-effort: an I/O error
    /// is reported on stderr, not propagated — a failing store must
    /// never fail the computation it memoises.
    pub fn record(&self, outcome: &PairOutcome) -> bool {
        self.record_all(std::slice::from_ref(outcome)) == 1
    }

    /// [`StoreBinding::record`] for many outcomes, with one lock and one
    /// log write ([`Store::append_all`]: on an I/O error none persists);
    /// returns how many were new.
    pub fn record_all(&self, outcomes: &[PairOutcome]) -> usize {
        let hash = |ix: u32| self.hashes[ix as usize];
        let key = |o: &PairOutcome| self.key_for(hash(o.i), hash(o.j), o.method);
        self.record_keys(outcomes.iter().map(|o| (key(o), o)))
    }

    /// Persist one outcome under an explicit key (same semantics as
    /// [`StoreBinding::record`]).
    pub fn record_key(&self, key: PairKey, outcome: &PairOutcome) -> bool {
        self.record_keys([(key, outcome)]) == 1
    }

    /// [`StoreBinding::record_all`] under explicit keys — the one record
    /// body: one lock, one [`Store::append_all`].
    pub fn record_keys<'a>(
        &self,
        records: impl IntoIterator<Item = (PairKey, &'a PairOutcome)>,
    ) -> usize {
        let records = records.into_iter().map(|(key, o)| {
            let stored = StoredPair {
                similarity: o.similarity,
                rmsd: o.rmsd,
                aligned_len: o.aligned_len,
                ops: o.ops,
            };
            (key, stored)
        });
        match self.store.lock().append_all(records) {
            Ok(appended) => appended,
            Err(e) => {
                eprintln!("[rck-store] append failed (results not persisted): {e}");
                0
            }
        }
    }

    /// Run `f` with the underlying store locked — the seam for
    /// compaction, flushing and counter inspection.
    pub fn with_store<T>(&self, f: impl FnOnce(&mut Store) -> T) -> T {
        f(&mut self.store.lock())
    }
}

/// A stored result at the positional coordinates `(i, j, method)`.
fn outcome(i: u32, j: u32, method: MethodKind, stored: StoredPair) -> PairOutcome {
    PairOutcome {
        i,
        j,
        method,
        similarity: stored.similarity,
        rmsd: stored.rmsd,
        aligned_len: stored.aligned_len,
        ops: stored.ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_obs::Registry;
    use rck_pdb::datasets::tiny_profile;
    use rck_store::StoreConfig;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rck-core-storebind-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.rckstore")
    }

    fn open(name: &str) -> Store {
        Store::open(scratch(name), StoreConfig::on_registry(Registry::new())).unwrap()
    }

    #[test]
    fn chain_hash_is_content_addressed() {
        let chains = tiny_profile().generate(3);
        assert_eq!(
            chain_content_hash(&chains[0]),
            chain_content_hash(&chains[0])
        );
        assert_ne!(
            chain_content_hash(&chains[0]),
            chain_content_hash(&chains[1])
        );
        // Same content generated twice hashes identically.
        let again = tiny_profile().generate(3);
        assert_eq!(
            chain_content_hash(&chains[0]),
            chain_content_hash(&again[0])
        );
        // A one-coordinate nudge changes the address.
        let mut moved = chains[0].clone();
        moved.coords[0].x += 1.0e-12;
        assert_ne!(chain_content_hash(&chains[0]), chain_content_hash(&moved));
    }

    /// Store keys are the log's addresses, so the chain hashes may never
    /// drift: a fold of every chain's hash per dataset, pinned, through
    /// the lanes and through the one-chain entry.
    #[test]
    fn content_hashes_keep_their_pinned_folds() {
        use rck_pdb::datasets::{ck34_profile, rs119_profile};
        let fold = |hashes: &mut dyn Iterator<Item = u64>| {
            hashes.fold(0, |h, x| rck_store::fnv1a64(h, &x.to_le_bytes()))
        };
        for (chains, want) in [
            (rs119_profile().generate(2013), 0xaa6d_860b_52ed_f166),
            (ck34_profile().generate(2013), 0xddc4_4b75_b7b6_751d),
            (rs119_profile().generate(4242), 0x3eee_f883_0c2a_f44a),
        ] {
            assert_eq!(fold(&mut content_hashes(&chains).into_iter()), want);
            assert_eq!(fold(&mut chains.iter().map(chain_content_hash)), want);
        }
    }

    #[test]
    fn record_then_lookup_roundtrips_bitwise() {
        let chains = tiny_profile().generate(4);
        let binding = StoreBinding::new(open("roundtrip"), &chains);
        let job = PairJob {
            i: 0,
            j: 1,
            method: MethodKind::TmAlign,
        };
        assert!(binding.lookup(&job).is_none());
        let outcome = PairOutcome {
            i: 0,
            j: 1,
            method: MethodKind::TmAlign,
            similarity: 0.875,
            rmsd: f64::NAN,
            aligned_len: 42,
            ops: 31337,
        };
        assert!(binding.record(&outcome));
        assert!(!binding.record(&outcome), "record is idempotent");
        let back = binding.lookup(&job).expect("stored outcome");
        assert_eq!(back.similarity.to_bits(), outcome.similarity.to_bits());
        assert_eq!(back.rmsd.to_bits(), outcome.rmsd.to_bits());
        assert_eq!(back.aligned_len, outcome.aligned_len);
        assert_eq!(back.ops, outcome.ops);
        assert_eq!((back.i, back.j, back.method), (0, 1, MethodKind::TmAlign));
    }

    #[test]
    fn keys_separate_methods_and_kernel_versions() {
        let chains = tiny_profile().generate(2);
        let binding = StoreBinding::new(open("keys"), &chains);
        let tm = binding.key(&PairJob {
            i: 0,
            j: 1,
            method: MethodKind::TmAlign,
        });
        let cm = binding.key(&PairJob {
            i: 0,
            j: 1,
            method: MethodKind::ContactMap,
        });
        assert_ne!(tm, cm);
        assert_eq!(tm.kernel_version, rck_tmalign::KERNEL_VERSION);
        let other_kernel = PairKey {
            kernel_version: tm.kernel_version + 1,
            ..tm
        };
        assert_ne!(tm, other_kernel);
    }

    #[test]
    fn addresses_survive_dataset_reordering() {
        let chains = tiny_profile().generate(5);
        let binding = StoreBinding::new(open("reorder"), &chains);
        let outcome = PairOutcome {
            i: 1,
            j: 2,
            method: MethodKind::KabschRmsd,
            similarity: 0.5,
            rmsd: 1.25,
            aligned_len: 10,
            ops: 77,
        };
        binding.record(&outcome);
        // Rebind the same store file's records under a shuffled dataset:
        // the pair now sits at different indices but the same address.
        let mut shuffled = chains.clone();
        shuffled.swap(0, 1); // old chain 1 → index 0; old chain 2 stays at 2
        let rebound = StoreBinding::new(
            binding.with_store(|s| {
                Store::open(s.path(), StoreConfig::on_registry(Registry::new())).unwrap()
            }),
            &shuffled,
        );
        let hit = rebound
            .lookup(&PairJob {
                i: 0,
                j: 2,
                method: MethodKind::KabschRmsd,
            })
            .expect("address independent of position");
        assert_eq!(hit.ops, 77);
        assert_eq!((hit.i, hit.j), (0, 2), "positional fields rebuilt");
    }
}
