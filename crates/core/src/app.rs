//! rckAlign: the master–slaves PSC application on the simulated SCC,
//! and the one chip setup every simulated program shares.
//!
//! Core 0 runs the master: it loads every structure (charging the parse
//! cost), builds the job list, and drives the rckskel `FARM` over slave
//! cores 1..=N; each job's payload carries *both chains' data* (§IV of
//! the paper — the master is the only process touching storage). The
//! slaves decode the chains, run the comparison method, and return a
//! compact result record. Experiment II of the paper is exactly this
//! program swept over N = 1..47 slaves.
//!
//! As in the paper's rckskel, the farm is written once and the other
//! programs supply jobs or a master: one-vs-all is `farm_run` over the
//! query's job list, the hierarchy and MC-PSC keep only their masters
//! over `pair_slave`s, and the distributed baseline keeps only its
//! pssh/NFS slave. All of them end in `run_on_chip`.

use crate::cache::PairCache;
use crate::jobs::{
    all_vs_all, decode_outcome, decode_pair_payload, encode_outcome, encode_pair_payload, PairJob,
    PairOutcome,
};
use crate::loadbalance::{order_jobs, JobOrdering};
use rck_noc::{CoreCtx, CoreId, CoreProgram, NocConfig, SimReport, Simulator};
use rck_pdb::CaChain;
use rck_rcce::Rcce;
use rck_skel::{farm, slave_loop, waves, Job, SlaveReply};
use rck_tmalign::MethodKind;
use serde::{Deserialize, Serialize};

/// Cycles a core spends parsing one residue's records when loading a
/// structure from storage (charged once per chain by whoever loads it —
/// the master here, every process in the distributed baseline).
pub const LOAD_CYCLES_PER_RESIDUE: u64 = 20_000;

/// PDB text bytes per residue (ATOM records for a 4-atom backbone) —
/// what the loader pulls through its quadrant memory controller.
pub const PDB_BYTES_PER_RESIDUE: usize = 320;

/// Which skeleton drives the distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduling {
    /// Dynamic work queue (the paper's FARM).
    Farm,
    /// Static slave-count-sized waves (PAR + COLLECT) — ablation baseline.
    Waves,
}

/// Options for one rckAlign run.
#[derive(Debug, Clone)]
pub struct RckAlignOptions {
    /// Number of slave cores (the master is one more core on top).
    pub n_slaves: usize,
    /// Comparison method the slaves run.
    pub method: MethodKind,
    /// Job-queue ordering.
    pub ordering: JobOrdering,
    /// Distribution skeleton.
    pub scheduling: Scheduling,
    /// Chip configuration.
    pub noc: NocConfig,
}

impl RckAlignOptions {
    /// The paper's configuration: FARM, FIFO ordering, TM-align, SCC chip.
    pub fn paper(n_slaves: usize) -> RckAlignOptions {
        RckAlignOptions {
            n_slaves,
            method: MethodKind::TmAlign,
            ordering: JobOrdering::Fifo,
            scheduling: Scheduling::Farm,
            noc: NocConfig::scc(),
        }
    }
}

/// Result of one simulated run: rckAlign's, and that of every program
/// built on the same chip setup (one-vs-all, the hierarchy, the
/// distributed baseline).
#[derive(Debug, Clone)]
pub struct RckAlignRun {
    /// Simulator timing report.
    pub report: SimReport,
    /// All pairwise outcomes, in collection order.
    pub outcomes: Vec<PairOutcome>,
    /// Makespan in simulated seconds.
    pub makespan_secs: f64,
}

/// Charge the master (or any loader) for reading the whole dataset: the
/// raw PDB bytes come through the core's quadrant memory controller, the
/// parsing burns core cycles.
pub fn charge_dataset_load(ctx: &mut CoreCtx, chains: &[CaChain]) {
    let residues: u64 = chains.iter().map(|c| c.len() as u64).sum();
    ctx.read_memory(residues as usize * PDB_BYTES_PER_RESIDUE);
    let cycles = residues.saturating_mul(LOAD_CYCLES_PER_RESIDUE);
    let cfg = ctx.config().clone();
    ctx.compute(cfg.cycles(cycles));
}

/// Cores `0..cores` of the chip, the master first.
pub(crate) fn chip_cores(cores: usize, noc: &NocConfig) -> Vec<CoreId> {
    let chip = noc.topology.core_count();
    assert!(
        cores <= chip,
        "{cores} cores exceed the chip ({chip} cores)"
    );
    (0..cores).map(CoreId).collect()
}

/// The cores of a flat run: the master on core 0, slaves on 1..=n_slaves.
pub(crate) fn master_and_slaves(n_slaves: usize, noc: &NocConfig) -> Vec<CoreId> {
    assert!(n_slaves >= 1, "rckAlign needs at least one slave");
    chip_cores(n_slaves + 1, noc)
}

/// A pair job's payload: the job and both chains' data.
pub(crate) fn pair_payload(chains: &[CaChain], job: &PairJob) -> Vec<u8> {
    encode_pair_payload(job, &chains[job.i as usize], &chains[job.j as usize])
}

/// The slave every on-chip program runs: decode the pair, take its
/// outcome from the cache (the real comparison kernel, memoised across
/// sweep points; its operation count is what the skeleton charges as
/// compute time) and reply to `master` — core 0, or the sub-master of a
/// hierarchy slave.
pub(crate) fn pair_slave<'a>(
    cache: &'a PairCache,
    ues: &[CoreId],
    master: usize,
) -> CoreProgram<'a> {
    let ues = ues.to_vec();
    Box::new(move |ctx: &mut CoreCtx| {
        let mut comm = Rcce::new(ctx, &ues);
        slave_loop(&mut comm, master, |_id, payload| {
            let decoded = decode_pair_payload(payload).expect("well-formed job");
            let outcome = cache.get_or_compute(&decoded.job);
            SlaveReply {
                payload: encode_outcome(&outcome),
                ops: outcome.ops,
            }
        });
    })
}

/// Every program's tail: core 0 runs `master`, which returns the encoded
/// outcomes it collected, in collection order; cores 1.. run `others`.
pub(crate) fn run_on_chip<'a>(
    noc: &NocConfig,
    master: impl FnOnce(&mut CoreCtx) -> Vec<Vec<u8>> + Send + 'a,
    others: impl IntoIterator<Item = CoreProgram<'a>>,
) -> RckAlignRun {
    let outcomes = parking_lot::Mutex::new(Vec::new());
    let mut programs: Vec<Option<CoreProgram>> = vec![Some(Box::new(|ctx: &mut CoreCtx| {
        let collected = master(ctx)
            .into_iter()
            .map(|payload| decode_outcome(payload).expect("well-formed result"))
            .collect();
        *outcomes.lock() = collected;
    }))];
    for program in others {
        programs.push(Some(program));
    }
    let report = Simulator::new(noc.clone()).run(programs);
    RckAlignRun {
        makespan_secs: report.makespan.as_secs_f64(),
        outcomes: outcomes.into_inner(),
        report,
    }
}

/// The FARM (or waves) over `pair_jobs`, in order, with `n_slaves` pair
/// slaves: the master loads the dataset, ships each pair with both
/// chains' data and collects the outcomes.
pub(crate) fn farm_run(
    cache: &PairCache,
    pair_jobs: &[PairJob],
    n_slaves: usize,
    scheduling: Scheduling,
    noc: &NocConfig,
) -> RckAlignRun {
    let chains = cache.chains();
    let ues = master_and_slaves(n_slaves, noc);
    let slave_ranks: Vec<usize> = (1..=n_slaves).collect();
    let master = {
        let ues = ues.clone();
        move |ctx: &mut CoreCtx| {
            charge_dataset_load(ctx, chains);
            let jobs: Vec<Job> = pair_jobs
                .iter()
                .enumerate()
                .map(|(k, pj)| Job::new(k as u64, pair_payload(chains, pj)))
                .collect();
            let mut comm = Rcce::new(ctx, &ues);
            let results = match scheduling {
                Scheduling::Farm => farm(&mut comm, &slave_ranks, &jobs),
                Scheduling::Waves => {
                    let rs = waves(&mut comm, &slave_ranks, &jobs);
                    for &r in &slave_ranks {
                        comm.send(r, rck_skel::wire::encode_terminate());
                    }
                    rs
                }
            };
            results.into_iter().map(|r| r.payload).collect()
        }
    };
    let slaves = (0..n_slaves).map(|_| pair_slave(cache, &ues, 0));
    run_on_chip(noc, master, slaves)
}

/// Run the all-vs-all comparison of the cache's dataset on the simulated
/// SCC with the given options.
///
/// # Panics
/// Panics if `n_slaves` is zero or master + slaves exceed the chip.
pub fn run_all_vs_all(cache: &PairCache, opts: &RckAlignOptions) -> RckAlignRun {
    let chains = cache.chains();
    let mut pair_jobs = all_vs_all(chains.len(), opts.method);
    order_jobs(&mut pair_jobs, chains, opts.ordering);
    farm_run(cache, &pair_jobs, opts.n_slaves, opts.scheduling, &opts.noc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{pair_count, SimilarityMatrix};
    use rck_pdb::datasets::tiny_profile;

    fn small_cache() -> PairCache {
        PairCache::new(tiny_profile().generate(99))
    }

    #[test]
    fn all_pairs_come_back() {
        let cache = small_cache();
        let run = run_all_vs_all(&cache, &RckAlignOptions::paper(3));
        assert_eq!(run.outcomes.len(), pair_count(cache.len()));
        let m = SimilarityMatrix::from_outcomes(cache.len(), &run.outcomes);
        assert!((m.coverage() - 1.0).abs() < 1e-12);
        assert!(run.makespan_secs > 0.0);
    }

    #[test]
    fn results_independent_of_slave_count() {
        let cache = small_cache();
        let sorted = |mut v: Vec<PairOutcome>| {
            v.sort_by_key(|o| (o.i, o.j));
            v
        };
        let r2 = sorted(run_all_vs_all(&cache, &RckAlignOptions::paper(2)).outcomes);
        let r7 = sorted(run_all_vs_all(&cache, &RckAlignOptions::paper(7)).outcomes);
        assert_eq!(r2, r7);
    }

    #[test]
    fn more_slaves_is_faster() {
        let cache = small_cache();
        let t1 = run_all_vs_all(&cache, &RckAlignOptions::paper(1)).makespan_secs;
        let t4 = run_all_vs_all(&cache, &RckAlignOptions::paper(4)).makespan_secs;
        assert!(t4 < t1, "t1={t1} t4={t4}");
        // Not super-linear.
        assert!(t4 > t1 / 8.0);
    }

    #[test]
    fn deterministic_runs() {
        let cache = small_cache();
        let a = run_all_vs_all(&cache, &RckAlignOptions::paper(5));
        let b = run_all_vs_all(&cache, &RckAlignOptions::paper(5));
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn farm_not_slower_than_waves() {
        let cache = small_cache();
        let farm_run = run_all_vs_all(&cache, &RckAlignOptions::paper(4));
        let wave_run = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                scheduling: Scheduling::Waves,
                ..RckAlignOptions::paper(4)
            },
        );
        assert!(farm_run.makespan_secs <= wave_run.makespan_secs * 1.0001);
        // Same science either way.
        let key = |mut v: Vec<PairOutcome>| {
            v.sort_by_key(|o| (o.i, o.j));
            v
        };
        assert_eq!(key(farm_run.outcomes), key(wave_run.outcomes));
    }

    #[test]
    fn ordering_changes_schedule_not_results() {
        let cache = small_cache();
        let fifo = run_all_vs_all(&cache, &RckAlignOptions::paper(3));
        let lpt = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                ordering: JobOrdering::LongestFirst,
                ..RckAlignOptions::paper(3)
            },
        );
        let key = |mut v: Vec<PairOutcome>| {
            v.sort_by_key(|o| (o.i, o.j));
            v
        };
        assert_eq!(key(fifo.outcomes), key(lpt.outcomes));
    }

    #[test]
    fn cheap_method_runs_too() {
        let cache = small_cache();
        let run = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                method: MethodKind::KabschRmsd,
                ..RckAlignOptions::paper(3)
            },
        );
        assert_eq!(run.outcomes.len(), pair_count(cache.len()));
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.method == MethodKind::KabschRmsd));
    }

    #[test]
    #[should_panic(expected = "at least one slave")]
    fn zero_slaves_rejected() {
        let cache = small_cache();
        let _ = run_all_vs_all(&cache, &RckAlignOptions::paper(0));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_slaves_rejected() {
        let cache = small_cache();
        let _ = run_all_vs_all(&cache, &RckAlignOptions::paper(48));
    }
}
