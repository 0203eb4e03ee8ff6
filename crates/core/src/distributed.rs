//! The distributed TM-align baseline of Experiment I.
//!
//! In the paper's comparison system, the controlling master runs on the
//! SCC *host PC* (MCPC): it creates the job list and issues each pairwise
//! comparison to an SCC core with the `pssh` remote-execution command.
//! Every issued job starts a fresh process on the core (environment setup
//! cost) and **loads its own structure data over NFS** from the MCPC disk
//! — whose controller becomes a bottleneck when many cores read
//! concurrently. The paper names exactly these two overheads as the reason
//! rckAlign wins (§V-C); this module models them explicitly:
//!
//! * a per-job process-spawn delay on the executing core, and
//! * per-file NFS reads serialised through a single FCFS disk resource.
//!
//! The MCPC dispatcher itself is modelled as a master core whose job
//! messages carry only a tiny descriptor (the `pssh` command line), since
//! the structure data does *not* flow master→slave in this design.

use crate::app::{master_and_slaves, run_on_chip, RckAlignRun};
use crate::cache::PairCache;
use crate::jobs::{encode_outcome, PairJob};
use rck_noc::{CoreCtx, CoreProgram, NocConfig, ResourceId, SimDuration};
use rck_rcce::{Rcce, Reader, Writer};
use rck_skel::{farm, wire, Job};
use serde::{Deserialize, Serialize};

/// The shared NFS disk of the MCPC.
const NFS_DISK: ResourceId = ResourceId(0);

/// Cost model of the MCPC-hosted distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedConfig {
    /// Seconds to start a fresh comparison process on a core via `pssh`
    /// (ssh session + process environment setup on an 800 MHz core).
    pub spawn_overhead_secs: f64,
    /// Seconds of NFS disk service per structure file read.
    pub nfs_read_secs_per_file: f64,
    /// Structure files each job loads (two chains → 2).
    pub files_per_job: u32,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        // Fit to the paper's Table II: at 1 worker the distributed version
        // costs ≈5.2 s/job over the pure comparison (5212 vs 2027 s over
        // ~560 jobs); the shared-disk floor (jobs × per-job read time)
        // keeps the curve above rckAlign's at every core count without
        // flattening it before 47 cores, as in the paper.
        DistributedConfig {
            spawn_overhead_secs: 5.0,
            nfs_read_secs_per_file: 0.105,
            files_per_job: 2,
        }
    }
}

fn encode_descriptor(job: &PairJob) -> Vec<u8> {
    // The pssh command line: indices + method + ~120 bytes of shell/ssh
    // framing, which we pad to model realistic message size.
    let mut w = Writer::with_capacity(140);
    w.put_u32(job.i).put_u32(job.j).put_u8(job.method.code());
    w.put_bytes(&[0u8; 120]);
    w.finish()
}

fn decode_descriptor(data: Vec<u8>) -> PairJob {
    let mut r = Reader::new(data);
    let i = r.get_u32().expect("descriptor i");
    let j = r.get_u32().expect("descriptor j");
    let method = rck_tmalign::MethodKind::from_code(r.get_u8().expect("descriptor method"))
        .expect("valid method");
    PairJob { i, j, method }
}

/// Run the all-vs-all workload through the distributed (MCPC-master)
/// model on `n_slaves` cores.
pub fn run_distributed(
    cache: &PairCache,
    jobs: &[PairJob],
    n_slaves: usize,
    noc: &NocConfig,
    dcfg: &DistributedConfig,
) -> RckAlignRun {
    let ues = master_and_slaves(n_slaves, noc);
    let slave_ranks: Vec<usize> = (1..=n_slaves).collect();
    let spawn = SimDuration::from_secs_f64(dcfg.spawn_overhead_secs);
    let nfs = SimDuration::from_secs_f64(dcfg.nfs_read_secs_per_file * dcfg.files_per_job as f64);

    // The MCPC dispatcher: dynamic farm over tiny job descriptors.
    let master = {
        let ues = ues.clone();
        let descriptors: Vec<Job> = jobs
            .iter()
            .enumerate()
            .map(|(k, j)| Job::new(k as u64, encode_descriptor(j)))
            .collect();
        move |ctx: &mut CoreCtx| {
            let mut comm = Rcce::new(ctx, &ues);
            let results = farm(&mut comm, &slave_ranks, &descriptors);
            results.into_iter().map(|r| r.payload).collect()
        }
    };
    // Worker cores: per-job process spawn + NFS loads + compute.
    let workers = (0..n_slaves).map(|_| {
        let ues = ues.clone();
        Box::new(move |ctx: &mut CoreCtx| {
            let mut comm = Rcce::new(ctx, &ues);
            while let Some(job) = wire::decode_job(comm.recv(0)) {
                let pj = decode_descriptor(job.payload);
                // Fresh process for every pairwise comparison.
                comm.ctx().advance_idle(spawn);
                // Load both structures through the shared NFS disk.
                comm.ctx().use_resource(NFS_DISK, nfs);
                let outcome = cache.get_or_compute(&pj);
                comm.compute_ops(outcome.ops);
                comm.send(0, wire::encode_result(job.id, &encode_outcome(&outcome)));
            }
        }) as CoreProgram
    });
    run_on_chip(noc, master, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{run_all_vs_all, RckAlignOptions};
    use crate::jobs::all_vs_all;
    use rck_pdb::datasets::tiny_profile;
    use rck_tmalign::MethodKind;

    fn setup() -> (PairCache, Vec<PairJob>) {
        let cache = PairCache::new(tiny_profile().generate(31));
        let jobs = all_vs_all(cache.len(), MethodKind::TmAlign);
        (cache, jobs)
    }

    #[test]
    fn distributed_completes_all_jobs() {
        let (cache, jobs) = setup();
        let run = run_distributed(&cache, &jobs, 3, &NocConfig::scc(), &Default::default());
        assert_eq!(run.outcomes.len(), jobs.len());
    }

    #[test]
    fn distributed_is_slower_than_rckalign() {
        // The headline of Experiment I.
        let (cache, jobs) = setup();
        for n in [1usize, 4] {
            let dist = run_distributed(&cache, &jobs, n, &NocConfig::scc(), &Default::default());
            let rck = run_all_vs_all(&cache, &RckAlignOptions::paper(n));
            assert!(
                dist.makespan_secs > rck.makespan_secs * 1.5,
                "n={n}: distributed {} vs rckAlign {}",
                dist.makespan_secs,
                rck.makespan_secs
            );
        }
    }

    #[test]
    fn same_science_as_rckalign() {
        let (cache, jobs) = setup();
        let dist = run_distributed(&cache, &jobs, 2, &NocConfig::scc(), &Default::default());
        let rck = run_all_vs_all(&cache, &RckAlignOptions::paper(2));
        let key = |mut v: Vec<crate::jobs::PairOutcome>| {
            v.sort_by_key(|o| (o.i, o.j));
            v
        };
        assert_eq!(key(dist.outcomes), key(rck.outcomes));
    }

    #[test]
    fn overhead_matches_configuration_at_one_worker() {
        let (cache, jobs) = setup();
        let dcfg = DistributedConfig::default();
        let run = run_distributed(&cache, &jobs, 1, &NocConfig::scc(), &dcfg);
        let per_job_overhead =
            dcfg.spawn_overhead_secs + dcfg.nfs_read_secs_per_file * dcfg.files_per_job as f64;
        let compute: f64 = jobs
            .iter()
            .map(|j| CpuSecs::secs(cache.get_or_compute(j).ops, NocConfig::scc().cycles_per_op))
            .sum();
        let expect = compute + per_job_overhead * jobs.len() as f64;
        let rel = (run.makespan_secs - expect).abs() / expect;
        assert!(rel < 0.02, "got {} expected {expect}", run.makespan_secs);
    }

    struct CpuSecs;
    impl CpuSecs {
        fn secs(ops: u64, cycles_per_op: f64) -> f64 {
            ops as f64 * cycles_per_op / 800e6
        }
    }

    #[test]
    fn nfs_contention_grows_with_workers() {
        // Per-job overhead (beyond compute) should be larger at high
        // worker counts because the shared disk queues.
        let (cache, jobs) = setup();
        let dcfg = DistributedConfig {
            spawn_overhead_secs: 0.0,
            nfs_read_secs_per_file: 0.5,
            files_per_job: 2,
        };
        let noc = NocConfig::scc();
        let total_compute: f64 = jobs
            .iter()
            .map(|j| CpuSecs::secs(cache.get_or_compute(j).ops, noc.cycles_per_op))
            .sum();
        let t8 = run_distributed(&cache, &jobs, 8, &noc, &dcfg).makespan_secs;
        // Disk demand: jobs × 1.0 s of serialised disk time.
        let disk_total = jobs.len() as f64;
        // With 8 workers, compute would take total/8 — but the serial disk
        // floor binds if it is larger.
        assert!(
            t8 >= disk_total.max(total_compute / 8.0) * 0.95,
            "t8 {t8} < disk floor {disk_total}"
        );
    }
}
