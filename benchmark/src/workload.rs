//! What a workload is to the runner, and the helpers workloads share.

use crate::stats::median;
use crate::trace::Phases;
use rck_pdb::model::CaChain;
use rck_serve::chaos::outcomes_fingerprint;
use rck_tmalign::MethodKind;
use rckalign::{all_vs_all, PairCache, PairJob, PairOutcome};
use std::collections::BTreeMap;

/// What one call of [`Workload::op`] measured.
#[derive(Debug, Default)]
pub struct OpResult {
    /// Wall time of each operation the call ran, in milliseconds (one
    /// entry for most workloads; one per query for the gate's blocks).
    /// Failed operations contribute no sample.
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the log.
    pub errors: Vec<String>,
}

impl OpResult {
    /// One operation that took `ms` and verified.
    pub fn ok(ms: f64) -> OpResult {
        OpResult {
            samples_ms: vec![ms],
            attempted: 1,
            ..OpResult::default()
        }
    }

    /// One operation that failed for `why`.
    pub fn fail(why: String) -> OpResult {
        OpResult {
            attempted: 1,
            failed: 1,
            errors: vec![why],
            ..OpResult::default()
        }
    }

    /// One operation: its time if `check` passed, a failure otherwise.
    pub fn checked(ms: f64, check: Result<(), String>) -> OpResult {
        match check {
            Ok(()) => OpResult::ok(ms),
            Err(why) => OpResult::fail(why),
        }
    }
}

/// Per-layer numbers a workload or a probe reports, keyed by the names
/// in [`crate::manifest::PER_LAYER`]. Anything not set reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Free-form lines for the printed summary.
    pub notes: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Median of per-op readings (0 when there were none).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples).unwrap_or(0.0));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }
}

/// One benchmark workload. The runner computes the oracle once
/// (untimed), sets up several times (timed, median reported as
/// `setup_s`), then calls `op` until the measuring time is used up.
pub trait Workload {
    /// The in-process reference every op is verified against.
    type Oracle;
    /// Whatever `setup` builds and `op` drives; dropping it tears it down.
    type Rig;

    fn oracle(&self, seed: u64) -> Self::Oracle;

    /// Everything before the first timed op: generate the inputs from
    /// `seed`, boot the rig, run the warm-up ops.
    fn setup(
        &self,
        seed: u64,
        oracle: &Self::Oracle,
        phases: &mut Phases,
    ) -> Result<Self::Rig, String>;

    /// Run and verify one operation (or one block of them).
    fn op(&self, rig: &mut Self::Rig, oracle: &Self::Oracle, phases: &mut Phases) -> OpResult;

    /// After the last op: check the exact whole-run counts (an `Err` is
    /// a failed run) and report this workload's per-layer numbers.
    fn finish(
        &self,
        rig: &mut Self::Rig,
        oracle: &Self::Oracle,
        traced: bool,
        layers: &mut Layers,
    ) -> Result<(), String>;
}

/// The in-process oracle of an all-vs-all run: `PairCache::prefill` on
/// the scalar kernel, sorted by pair.
pub fn reference_outcomes(chains: &[CaChain], method: MethodKind) -> Vec<PairOutcome> {
    let jobs = all_vs_all(chains.len(), method);
    let cache = PairCache::new(chains.to_vec());
    cache.prefill(&jobs, crate::rigs::LANES);
    cached_outcomes(&cache, &jobs)
}

/// The memoised outcome of every job (computes any that are missing).
pub fn cached_outcomes(cache: &PairCache, jobs: &[PairJob]) -> Vec<PairOutcome> {
    jobs.iter().map(|j| cache.get_or_compute(j)).collect()
}

/// `Ok` iff `got` is bit-identical to the oracle fingerprint `want`.
pub fn check_fingerprint(got: &[PairOutcome], want: u64) -> Result<(), String> {
    let fnv = outcomes_fingerprint(got);
    if fnv == want {
        Ok(())
    } else {
        Err(format!(
            "outcomes fingerprint {fnv:016x} != oracle {want:016x} ({} outcomes)",
            got.len()
        ))
    }
}

/// Run `n` warm-up ops; a failed one fails the set-up.
pub fn warm_up(n: usize, mut op: impl FnMut() -> OpResult) -> Result<(), String> {
    for _ in 0..n {
        let warm = op();
        if warm.failed > 0 {
            return Err(format!("warm-up op failed: {}", warm.errors.join("; ")));
        }
    }
    Ok(())
}

/// `Ok` iff `got == want`, naming the counter otherwise.
pub fn check_count(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} = {got}, expected exactly {want}"))
    }
}
