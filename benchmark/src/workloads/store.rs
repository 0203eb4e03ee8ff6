//! `store_cold_rs119` and `store_grow_rs119`: one `PairCache` session
//! over the persistent result store — the write path (empty log) and the
//! read path (log holding all but the newest chain's pairs).

use crate::inputs::Dataset;
use crate::rigs::LANES;
use crate::trace::{phase, Phases};
use crate::workload::{
    cached_outcomes, check_count, check_fingerprint, reference_outcomes, warm_up, Layers, OpResult,
    Workload,
};
use rck_pdb::model::CaChain;
use rck_serve::chaos::outcomes_fingerprint;
use rck_store::{Store, StoreConfig};
use rck_tmalign::MethodKind;
use rckalign::{all_vs_all, PairCache, PairJob, StoreBinding};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const METHOD: MethodKind = MethodKind::KabschRmsd;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Every op starts from no log at all.
    Cold,
    /// Every op starts from a log of the first N−1 chains' pairs.
    Grow,
}

pub struct StoreSession {
    pub mode: StoreMode,
    pub warmups: usize,
}

pub struct StoreOracle {
    fingerprint: u64,
}

pub struct StoreRig {
    chains: Vec<CaChain>,
    jobs: Vec<PairJob>,
    dir: PathBuf,
    /// (hits, misses, appends) of the last op.
    last: Option<[u64; 3]>,
}

impl Drop for StoreRig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A scratch directory under the benchmark's own `out/`, so the run
/// writes nowhere outside its checkout.
fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("tmp")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn store_config() -> StoreConfig {
    StoreConfig {
        max_records: 1 << 22,
        registry: rck_obs::Registry::new(),
    }
}

/// One store-backed session: open (replaying whatever the log holds),
/// bind the chains, prefill every job, flush.
pub fn session(
    path: &Path,
    chains: &[CaChain],
    jobs: &[PairJob],
) -> Result<(PairCache, Arc<StoreBinding>), String> {
    let store = Store::open(path, store_config()).map_err(|e| format!("open store: {e}"))?;
    let binding = Arc::new(StoreBinding::new(store, chains));
    let cache = PairCache::new(chains.to_vec()).with_store(Arc::clone(&binding));
    cache.prefill(jobs, LANES);
    binding
        .with_store(|s| s.flush())
        .map_err(|e| format!("flush store: {e}"))?;
    Ok((cache, binding))
}

impl StoreSession {
    /// Exact (hits, misses, appends) of one op.
    fn expected(&self, rig: &StoreRig) -> [u64; 3] {
        let all = rig.jobs.len() as u64;
        match self.mode {
            StoreMode::Cold => [0, all, all],
            StoreMode::Grow => {
                let resident = rckalign::pair_count(rig.chains.len() - 1) as u64;
                [resident, all - resident, all - resident]
            }
        }
    }

    fn run_one(&self, rig: &mut StoreRig, oracle: &StoreOracle, phases: &mut Phases) -> OpResult {
        let work = rig.dir.join("work.rckstore");
        let staged = match self.mode {
            StoreMode::Cold => match std::fs::remove_file(&work) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            },
            StoreMode::Grow => std::fs::copy(rig.dir.join("pristine.rckstore"), &work).map(|_| ()),
        };
        if let Err(e) = staged {
            return OpResult::fail(format!("staging the log: {e}"));
        }
        let start = Instant::now();
        let done = session(&work, &rig.chains, &rig.jobs);
        let end = Instant::now();
        phases.push(("op.compute", start, end));
        let (cache, binding) = match done {
            Ok(x) => x,
            Err(why) => return OpResult::fail(why),
        };
        let want = self.expected(rig);
        let got = binding.with_store(|s| {
            let c = s.counters();
            [c.hits.get(), c.misses.get(), c.appends.get()]
        });
        let check = phase(phases, "op.verify", || {
            check_fingerprint(&cached_outcomes(&cache, &rig.jobs), oracle.fingerprint)?;
            check_count("store hits", got[0], want[0])?;
            check_count("store misses", got[1], want[1])?;
            check_count("store appends", got[2], want[2])
        });
        rig.last = Some(got);
        OpResult::checked((end - start).as_secs_f64() * 1e3, check)
    }
}

impl Workload for StoreSession {
    type Oracle = StoreOracle;
    type Rig = StoreRig;

    fn oracle(&self, seed: u64) -> StoreOracle {
        let chains = Dataset::Rs119.generate(seed);
        StoreOracle {
            fingerprint: outcomes_fingerprint(&reference_outcomes(&chains, METHOD)),
        }
    }

    fn setup(
        &self,
        seed: u64,
        oracle: &StoreOracle,
        phases: &mut Phases,
    ) -> Result<StoreRig, String> {
        let chains = phase(phases, "setup.generate", || Dataset::Rs119.generate(seed));
        let jobs = all_vs_all(chains.len(), METHOD);
        let tag = match self.mode {
            StoreMode::Cold => "store_cold",
            StoreMode::Grow => "store_grow",
        };
        let mut rig = StoreRig {
            chains,
            jobs,
            dir: scratch_dir(tag)?,
            last: None,
        };
        if self.mode == StoreMode::Grow {
            phase(phases, "rig.boot", || {
                let resident = &rig.chains[..rig.chains.len() - 1];
                let jobs = all_vs_all(resident.len(), METHOD);
                session(&rig.dir.join("pristine.rckstore"), resident, &jobs).map(|_| ())
            })?;
        }
        warm_up(self.warmups, || {
            self.run_one(&mut rig, oracle, &mut Phases::new())
        })?;
        Ok(rig)
    }

    fn op(&self, rig: &mut StoreRig, oracle: &StoreOracle, phases: &mut Phases) -> OpResult {
        self.run_one(rig, oracle, phases)
    }

    fn finish(
        &self,
        rig: &mut StoreRig,
        _oracle: &StoreOracle,
        _traced: bool,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let [hits, misses, appends] = rig.last.ok_or("no op completed")?;
        layers.set("store.hits", hits as f64);
        layers.set("store.misses", misses as f64);
        layers.set("store.appends", appends as f64);
        Ok(())
    }
}
