//! The skeleton constructs: SEQ, PAR, COLLECT and FARM.
//!
//! These are idiomatic-Rust renderings of the C constructs the paper's
//! `rckskel` library exposes:
//!
//! * [`seq`] — submit jobs to the slave set one at a time, in order;
//! * [`par`] — distribute jobs statically (round-robin) without waiting;
//! * [`collect`] — poll the slaves round-robin until every outstanding
//!   result has been gathered;
//! * [`farm`] — the master–slaves construct: keep every slave busy by
//!   handing it a new job the moment its previous result arrives, until
//!   the job list is exhausted, then send terminate signals.
//!
//! The rckAlign application uses [`farm`]; `par`+`collect` ("wave"
//! scheduling) is kept both for fidelity to the paper's API and as the
//! baseline in the load-balancing ablation.

use crate::task::{wire, Job, JobResult};
use rck_rcce::Rcce;

/// Run `jobs` through the slave set one at a time: each job is sent to a
/// slave (cycling through `slave_ranks`) and its result awaited before the
/// next job is submitted. The paper's `SEQ` construct.
pub fn seq(comm: &mut Rcce, slave_ranks: &[usize], jobs: &[Job]) -> Vec<JobResult> {
    assert!(!slave_ranks.is_empty(), "SEQ needs at least one slave");
    let mut results = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let rank = slave_ranks[k % slave_ranks.len()];
        comm.send(rank, wire::encode_job(job));
        let data = comm.recv(rank);
        results.push(wire::decode_result(rank, data));
    }
    results
}

/// Distribute one wave of `jobs` to the slave set — at most one job per
/// slave — without collecting results. Returns the number of outstanding
/// results the caller must later [`collect`]. The paper's `PAR` construct
/// ("distributes N jobs among the N slaves").
///
/// Sends are synchronous (RCCE semantics): queueing a second job on a
/// slave that is still computing would deadlock — the slave is itself
/// blocked sending its result — so more jobs than slaves is rejected.
/// Use [`waves`] for static multi-round scheduling or [`farm`] for
/// dynamic scheduling.
pub fn par(comm: &mut Rcce, slave_ranks: &[usize], jobs: &[Job]) -> usize {
    assert!(!slave_ranks.is_empty(), "PAR needs at least one slave");
    assert!(
        jobs.len() <= slave_ranks.len(),
        "PAR takes at most one job per slave ({} jobs, {} slaves)",
        jobs.len(),
        slave_ranks.len()
    );
    for (k, job) in jobs.iter().enumerate() {
        let rank = slave_ranks[k % slave_ranks.len()];
        comm.send(rank, wire::encode_job(job));
    }
    jobs.len()
}

/// Static wave scheduling: repeatedly [`par`] a slave-count-sized wave of
/// jobs and [`collect`] it before starting the next wave. The synchronous
/// baseline the load-balancing ablation compares [`farm`] against.
pub fn waves(comm: &mut Rcce, slave_ranks: &[usize], jobs: &[Job]) -> Vec<JobResult> {
    let mut results = Vec::with_capacity(jobs.len());
    for wave in jobs.chunks(slave_ranks.len()) {
        let outstanding = par(comm, slave_ranks, wave);
        collect(comm, slave_ranks, outstanding, |r| results.push(r));
    }
    results
}

/// Gather `outstanding` results by polling the slave set round-robin,
/// applying `collector` to each as it arrives. The paper's `COLLECT`
/// construct.
pub fn collect(
    comm: &mut Rcce,
    slave_ranks: &[usize],
    outstanding: usize,
    mut collector: impl FnMut(JobResult),
) {
    for _ in 0..outstanding {
        let (rank, data) = comm.recv_any(slave_ranks);
        collector(wire::decode_result(rank, data));
    }
}

/// The master–slaves construct (`FARM`): dynamic work-queue scheduling.
/// Every slave is primed with one job; whenever a result is collected
/// (round-robin polling), the freed slave immediately receives the next
/// pending job; when the job list is exhausted and every result is in,
/// each slave gets the terminate signal that ends its [`slave_loop`].
/// Returns all results in arrival order.
///
/// This must be called on the master; every rank in `slave_ranks` must be
/// running [`slave_loop`].
pub fn farm(comm: &mut Rcce, slave_ranks: &[usize], jobs: &[Job]) -> Vec<JobResult> {
    assert!(!slave_ranks.is_empty(), "FARM needs at least one slave");
    let metrics = crate::metrics::farm_metrics();
    metrics.queue_depth.set(jobs.len() as i64);
    let mut results = Vec::with_capacity(jobs.len());
    let mut next = 0usize;

    // Prime each slave with one job.
    let mut active: Vec<usize> = Vec::with_capacity(slave_ranks.len());
    for &rank in slave_ranks {
        if next >= jobs.len() {
            break;
        }
        comm.send(rank, wire::encode_job(&jobs[next]));
        next += 1;
        active.push(rank);
    }
    metrics.jobs_dispatched.add(active.len() as u64);
    metrics.jobs_inflight.add(active.len() as i64);
    metrics.queue_depth.set((jobs.len() - next) as i64);

    // Steady state: collect one result, refill that slave.
    let mut outstanding = active.len();
    while outstanding > 0 {
        let (rank, data) = comm.recv_any(&active);
        results.push(wire::decode_result(rank, data));
        metrics.results_collected.inc();
        metrics.jobs_inflight.sub(1);
        crate::metrics::slave_jobs(rank).inc();
        if next < jobs.len() {
            comm.send(rank, wire::encode_job(&jobs[next]));
            next += 1;
            metrics.jobs_dispatched.inc();
            metrics.jobs_inflight.add(1);
            metrics.queue_depth.sub(1);
        } else {
            outstanding -= 1;
        }
    }
    metrics.rounds.inc();

    for &rank in slave_ranks {
        comm.send(rank, wire::encode_terminate());
    }
    results
}

/// What a slave's job handler returns: the encoded result plus the
/// kernel-operation count to charge as virtual compute time.
#[derive(Debug, Clone)]
pub struct SlaveReply {
    /// Encoded result payload.
    pub payload: Vec<u8>,
    /// Abstract operations the job cost (drives the simulated clock).
    pub ops: u64,
}

/// The slave side of every construct above: block for a job from the
/// master, hand it to `handler`, charge the reported compute cost, return
/// the result; loop until the terminate signal. Mirrors the paper's
/// `client_receive_job` template (its Figure 4).
pub fn slave_loop(
    comm: &mut Rcce,
    master_rank: usize,
    mut handler: impl FnMut(u64, Vec<u8>) -> SlaveReply,
) {
    loop {
        let msg = comm.recv(master_rank);
        match wire::decode_job(msg) {
            None => return,
            Some(job) => {
                let reply = handler(job.id, job.payload);
                comm.compute_ops(reply.ops);
                comm.send(master_rank, wire::encode_result(job.id, &reply.payload));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_noc::{CoreCtx, CoreId, CoreProgram, NocConfig, SimReport, Simulator};
    use std::sync::Mutex;

    /// Run a master body on core 0 and the standard doubling slave on
    /// cores 1..=n.
    fn with_farm<F>(n_slaves: usize, master_body: F) -> SimReport
    where
        F: FnOnce(&mut Rcce, &[usize]) + Send,
    {
        let ues: Vec<CoreId> = (0..=n_slaves).map(CoreId).collect();
        let slave_ranks: Vec<usize> = (1..=n_slaves).collect();
        let mut programs: Vec<Option<CoreProgram>> = Vec::new();
        {
            let ues = ues.clone();
            let slave_ranks = slave_ranks.clone();
            programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
                let mut comm = Rcce::new(ctx, &ues);
                master_body(&mut comm, &slave_ranks);
            })));
        }
        for _ in 0..n_slaves {
            let ues = ues.clone();
            programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
                let mut comm = Rcce::new(ctx, &ues);
                slave_loop(&mut comm, 0, |_id, payload| SlaveReply {
                    payload: payload.iter().map(|b| b.wrapping_mul(2)).collect(),
                    ops: payload[0] as u64 * 10_000,
                });
            })));
        }
        Simulator::new(NocConfig::scc()).run(programs)
    }

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(i as u64, vec![i as u8 + 1]))
            .collect()
    }

    #[test]
    fn farm_processes_every_job_exactly_once() {
        let collected = Mutex::new(Vec::new());
        with_farm(4, |comm, slaves| {
            let rs = farm(comm, slaves, &jobs(20));
            collected.lock().unwrap().extend(rs);
        });
        let mut rs = collected.into_inner().unwrap();
        assert_eq!(rs.len(), 20);
        rs.sort_by_key(|r| r.job_id);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.job_id, i as u64);
            assert_eq!(r.payload, vec![(i as u8 + 1) * 2]);
            assert!((1..=4).contains(&r.slave_rank));
        }
    }

    #[test]
    fn farm_with_fewer_jobs_than_slaves() {
        let collected = Mutex::new(Vec::new());
        with_farm(6, |comm, slaves| {
            let rs = farm(comm, slaves, &jobs(3));
            collected.lock().unwrap().extend(rs);
        });
        assert_eq!(collected.into_inner().unwrap().len(), 3);
    }

    #[test]
    fn farm_with_no_jobs_terminates_cleanly() {
        let done = Mutex::new(false);
        with_farm(3, |comm, slaves| {
            let rs = farm(comm, slaves, &[]);
            assert!(rs.is_empty());
            *done.lock().unwrap() = true;
        });
        assert!(*done.lock().unwrap());
    }

    #[test]
    fn farm_single_slave_serialises() {
        let report = with_farm(1, |comm, slaves| {
            let rs = farm(comm, slaves, &jobs(5));
            assert_eq!(rs.len(), 5);
            // With one slave, results arrive in submission order.
            let ids: Vec<u64> = rs.iter().map(|r| r.job_id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        });
        // Slave busy time equals the sum of job costs.
        let total_ops: u64 = (1..=5u64).map(|v| v * 10_000).sum();
        let expect = NocConfig::scc().ops_to_duration(total_ops);
        assert_eq!(report.per_core[1].busy, expect);
    }

    #[test]
    fn seq_runs_in_order() {
        let collected = Mutex::new(Vec::new());
        with_farm(3, |comm, slaves| {
            let rs = seq(comm, slaves, &jobs(7));
            // Terminate slaves afterwards.
            for &r in slaves {
                comm.send(r, wire::encode_terminate());
            }
            collected.lock().unwrap().extend(rs);
        });
        let rs = collected.into_inner().unwrap();
        let ids: Vec<u64> = rs.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn par_collect_gathers_one_wave() {
        let collected = Mutex::new(Vec::new());
        with_farm(4, |comm, slaves| {
            let outstanding = par(comm, slaves, &jobs(4));
            assert_eq!(outstanding, 4);
            collect(comm, slaves, outstanding, |r| {
                collected.lock().unwrap().push(r.job_id);
            });
            for &r in slaves {
                comm.send(r, wire::encode_terminate());
            }
        });
        let mut ids = collected.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..4).collect::<Vec<u64>>());
    }

    #[test]
    fn waves_gather_everything() {
        let collected = Mutex::new(Vec::new());
        with_farm(4, |comm, slaves| {
            let rs = waves(comm, slaves, &jobs(10));
            collected
                .lock()
                .unwrap()
                .extend(rs.into_iter().map(|r| r.job_id));
            for &r in slaves {
                comm.send(r, wire::encode_terminate());
            }
        });
        let mut ids = collected.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn farm_beats_waves_on_heterogeneous_jobs() {
        // Jobs with wildly different costs: dynamic FARM should finish
        // sooner than static PAR+COLLECT waves.
        let heavy_jobs: Vec<Job> = (0..12)
            .map(|i| {
                // Payload byte doubles as cost weight: a couple of heavy
                // jobs among light ones.
                let weight = if i % 6 == 0 { 200u8 } else { 5 };
                Job::new(i as u64, vec![weight])
            })
            .collect();
        let farm_time = {
            let hj = heavy_jobs.clone();
            with_farm(3, move |comm, slaves| {
                let _ = farm(comm, slaves, &hj);
            })
            .makespan
        };
        let wave_time = {
            let hj = heavy_jobs;
            with_farm(3, move |comm, slaves| {
                let _ = waves(comm, slaves, &hj);
                for &r in slaves {
                    comm.send(r, wire::encode_terminate());
                }
            })
            .makespan
        };
        assert!(
            farm_time <= wave_time,
            "farm {farm_time} vs waves {wave_time}"
        );
    }

    #[test]
    fn farm_is_deterministic() {
        let run = || {
            let collected = Mutex::new(Vec::new());
            let report = with_farm(5, |comm, slaves| {
                let rs = farm(comm, slaves, &jobs(30));
                collected
                    .lock()
                    .unwrap()
                    .extend(rs.into_iter().map(|r| (r.job_id, r.slave_rank)));
            });
            (report.makespan, collected.into_inner().unwrap())
        };
        let (t1, r1) = run();
        let (t2, r2) = run();
        assert_eq!(t1, t2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn slaves_utilised_under_farm() {
        let report = with_farm(4, |comm, slaves| {
            let _ = farm(comm, slaves, &jobs(40));
        });
        // Every slave should have computed something.
        for slave in 1..=4 {
            assert!(report.per_core[slave].busy.0 > 0, "slave {slave} idle");
        }
    }
}
