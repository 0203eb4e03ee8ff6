//! The rck-serve worker: connect, receive batches, run the real kernel,
//! stream results back.
//!
//! The worker is stateless across connections by design — a chain ships
//! with the first batch of a session that needs it (the paper's "data
//! ships with the job" rule, paid once) and stays in the session's chain
//! table until the connection ends, so a worker can join, die, or be
//! replaced at any point without the master's dataset ever leaving the
//! master. Hello, heartbeats and the shared write half are the one
//! [`Session`]'s; this module is its batch handler.
//!
//! Like the master, the worker runs on the [`crate::transport`] seam:
//! [`run_worker`] is the TCP entry point, [`run_worker_conn`] serves any
//! [`Conn`] — which is how the chaos harness drives scripted worker
//! sessions (crash, hang, slowdown) over the in-memory network.
//!
//! Computation is *exactly* the in-process path: decode f64 coordinates,
//! `MethodKind::instantiate`, `PscMethod::compare_many` (each score bit
//! for bit its pair's `compare`) — which is what makes the service matrix
//! bit-identical to [`rckalign::run_all_vs_all`].

use crate::dispatch::Session;
use crate::proto::{self, Frame};
use crate::transport::{Conn, TcpConn};
use rand::{Rng, SeedableRng};
use rck_obs::{Counter, Registry};
use rck_pdb::model::CaChain;
use rckalign::{PairJob, PairOutcome};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker configuration.
#[derive(Clone)]
pub struct WorkerConfig {
    /// Master address to connect to.
    pub addr: SocketAddr,
    /// Name reported in the Hello (shows up in the master's stats table).
    pub name: String,
    /// How often the heartbeat thread pings the master.
    pub heartbeat_interval: Duration,
    /// Kernel lanes: each received batch is split across this many
    /// threads (contiguous chunks, so outcome order is preserved) and
    /// computed in parallel over the single master connection. Per-lane
    /// throughput shows up as `rck_worker_lane_jobs_total{lane=…}` on
    /// [`WorkerConfig::registry`]. Clamped to at least 1.
    pub threads: usize,
    /// Metrics registry the worker's lane counters register on. Each
    /// config gets its own by default; share one to aggregate several
    /// in-process workers.
    pub registry: Arc<Registry>,
    /// Fault injection: drop the connection without replying after
    /// receiving this many batches (`Some(0)` = die on the first batch).
    /// `None` (the default) never fails.
    pub fail_after_batches: Option<usize>,
    /// Fault injection: go completely silent — no replies, no
    /// heartbeats, connection left open — after receiving this many
    /// batches, until the master tears the connection down.
    pub hang_after_batches: Option<usize>,
    /// Fault injection: sleep this long before computing each batch (a
    /// straggler, not a failure — the run still completes).
    pub slow_per_batch: Option<Duration>,
}

impl std::fmt::Debug for WorkerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerConfig")
            .field("addr", &self.addr)
            .field("name", &self.name)
            .field("heartbeat_interval", &self.heartbeat_interval)
            .field("threads", &self.threads)
            .field("fail_after_batches", &self.fail_after_batches)
            .field("hang_after_batches", &self.hang_after_batches)
            .field("slow_per_batch", &self.slow_per_batch)
            .finish_non_exhaustive()
    }
}

impl WorkerConfig {
    /// Defaults for a worker connecting to `addr`: named `"worker"`,
    /// 100 ms heartbeats, one kernel lane, no fault injection.
    pub fn connect_to(addr: SocketAddr) -> WorkerConfig {
        WorkerConfig {
            addr,
            name: "worker".to_string(),
            heartbeat_interval: Duration::from_millis(100),
            threads: 1,
            registry: Registry::new(),
            fail_after_batches: None,
            hang_after_batches: None,
            slow_per_batch: None,
        }
    }
}

/// Backoff policy for dialing a master that may be down or not up yet.
///
/// The old behavior — fail the process on the first refused connect, or
/// (worse) retry in a tight loop from a supervisor script — hammers a
/// restarting master with synchronized connect storms. Instead each
/// failed attempt doubles a base delay (capped at `max_delay`) and
/// sleeps a uniformly jittered fraction of it, so a fleet of workers
/// desynchronizes naturally; after `total` has elapsed the dial gives up
/// with a clear error naming the address, the attempt count, and the
/// last underlying failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First retry delay (doubles each failure). Default 50 ms.
    pub initial: Duration,
    /// Ceiling on the per-attempt delay. Default 2 s.
    pub max_delay: Duration,
    /// Total time budget across all attempts before giving up.
    /// Default 30 s.
    pub total: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            initial: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            total: Duration::from_secs(30),
        }
    }
}

/// Dial `addr` over TCP with jittered exponential backoff per
/// [`BackoffPolicy`]. Returns the connection, or a `TimedOut` error once
/// the policy's total budget is exhausted.
pub fn connect_with_backoff(addr: SocketAddr, policy: &BackoffPolicy) -> io::Result<Box<dyn Conn>> {
    let started = Instant::now();
    let mut delay = policy.initial.max(Duration::from_millis(1));
    // Per-process jitter seed: wall clock ⊕ pid, so workers launched
    // together still desynchronize.
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0)
        ^ u64::from(std::process::id());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let last = match TcpConn::connect(addr) {
            Ok(conn) => return Ok(Box::new(conn)),
            Err(e) => e,
        };
        let elapsed = started.elapsed();
        if elapsed >= policy.total {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "master {addr} unreachable: gave up after {attempts} attempts over \
                     {:.1}s (last error: {last})",
                    elapsed.as_secs_f64()
                ),
            ));
        }
        // Jitter in [0.5, 1.0)× so synchronized workers spread out, and
        // never sleep past the remaining budget.
        let jittered = delay.mul_f64(rng.gen_range(0.5..1.0));
        let remaining = policy.total.saturating_sub(elapsed);
        std::thread::sleep(jittered.min(remaining));
        delay = (delay * 2).min(policy.max_delay);
    }
}

/// [`run_worker`] with reconnect backoff on the initial dial: retries a
/// down master per `policy` instead of failing on the first refused
/// connect.
pub fn run_worker_with_backoff(
    cfg: &WorkerConfig,
    policy: &BackoffPolicy,
) -> io::Result<WorkerReport> {
    run_worker_conn(connect_with_backoff(cfg.addr, policy)?, cfg)
}

/// What one worker did over its session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Id the master assigned.
    pub worker_id: u32,
    /// Batches fully computed and answered.
    pub batches_done: u64,
    /// Jobs fully computed and answered.
    pub jobs_done: u64,
    /// Bytes written to the master.
    pub bytes_tx: u64,
    /// Bytes read from the master.
    pub bytes_rx: u64,
    /// Whether the session ended by injected fault rather than Shutdown.
    pub failed_by_injection: bool,
}

/// The kernel inner loop over one slice of a batch's jobs, against the
/// session's table of every chain the master has shipped: one
/// `PscMethod::compare_many` per run of same-method jobs (a farm batch of
/// RMSD jobs is one lock-step group of four). A job referencing a chain
/// the session never received violates the protocol — a master bug, or a
/// lost frame — and fails the session instead of panicking the worker.
fn compute_jobs(
    jobs: &[PairJob],
    table: &HashMap<u32, Arc<CaChain>>,
) -> io::Result<Vec<PairOutcome>> {
    let chain = |ix: u32| {
        table.get(&ix).map(|c| &**c).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("a job references chain {ix}, which this session never received"),
            )
        })
    };
    let mut outcomes = Vec::with_capacity(jobs.len());
    for run in jobs.chunk_by(|a, b| a.method == b.method) {
        let pairs = run
            .iter()
            .map(|job| Ok((chain(job.i)?, chain(job.j)?)))
            .collect::<io::Result<Vec<_>>>()?;
        let scores = run[0].method.instantiate().compare_many(&pairs);
        outcomes.extend(run.iter().zip(scores).map(|(job, score)| PairOutcome {
            i: job.i,
            j: job.j,
            method: job.method,
            similarity: score.similarity,
            rmsd: score.rmsd.unwrap_or(f64::NAN),
            aligned_len: score.aligned_len as u32,
            ops: score.ops,
        }));
    }
    Ok(outcomes)
}

/// Split a batch across up to `threads` kernel lanes and compute the
/// chunks in parallel against the one shared table. Chunks are
/// contiguous and reassembled in order, so the outcome list is
/// byte-for-byte what the single-lane path produces — lanes change
/// wall-clock, never results. Each lane credits its
/// `rck_worker_lane_jobs_total{lane=…}` counter.
fn compute_batch_lanes(
    jobs: &[PairJob],
    table: &HashMap<u32, Arc<CaChain>>,
    threads: usize,
    lane_jobs: &[Arc<Counter>],
) -> io::Result<Vec<PairOutcome>> {
    let lanes = threads.max(1).min(jobs.len().max(1));
    if lanes <= 1 {
        if let Some(c) = lane_jobs.first() {
            c.add(jobs.len() as u64);
        }
        return compute_jobs(jobs, table);
    }
    let chunk = jobs.len().div_ceil(lanes);
    let results: Vec<io::Result<Vec<PairOutcome>>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .enumerate()
            .map(|(lane, jobs)| {
                let counter = lane_jobs.get(lane).cloned();
                s.spawn(move || {
                    let out = compute_jobs(jobs, table)?;
                    if let Some(c) = counter {
                        c.add(out.len() as u64);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("kernel lane panicked")))
            })
            .collect()
    });
    let mut all = Vec::with_capacity(jobs.len());
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Connect to the master over TCP and serve until it sends Shutdown (or
/// the configured fault injection fires).
pub fn run_worker(cfg: &WorkerConfig) -> io::Result<WorkerReport> {
    run_worker_conn(Box::new(TcpConn::connect(cfg.addr)?), cfg)
}

/// Serve a master over an already-established connection — any
/// [`Conn`], which is how the chaos harness runs scripted sessions over
/// the in-memory transport.
pub fn run_worker_conn(mut stream: Box<dyn Conn>, cfg: &WorkerConfig) -> io::Result<WorkerReport> {
    let session = Session::open(&mut stream, &cfg.name, cfg.heartbeat_interval)?;
    let mut report = WorkerReport {
        worker_id: session.id(),
        batches_done: 0,
        jobs_done: 0,
        bytes_tx: 0,
        bytes_rx: 0,
        failed_by_injection: false,
    };
    let lane_jobs: Vec<Arc<Counter>> = (0..cfg.threads.max(1))
        .map(|lane| {
            cfg.registry.counter_with(
                "rck_worker_lane_jobs_total",
                "Jobs computed per worker kernel lane.",
                &[("lane", &lane.to_string())],
            )
        })
        .collect();
    let outcome = serve_loop(cfg, &mut stream, &session, &lane_jobs, &mut report);
    report.jobs_done = session.progress();
    (report.bytes_tx, report.bytes_rx) = session.close();
    outcome.map(|()| report)
}

/// The batch-serving loop; returns once the master says Shutdown, an
/// injected fault fires (marked in `report`), or the connection errors.
fn serve_loop(
    cfg: &WorkerConfig,
    stream: &mut Box<dyn Conn>,
    session: &Session,
    lane_jobs: &[Arc<Counter>],
    report: &mut WorkerReport,
) -> io::Result<()> {
    let due = |limit: Option<usize>, done: u64| limit.is_some_and(|limit| done >= limit as u64);
    let mut table = HashMap::new();
    loop {
        match session.read(stream)? {
            Frame::JobBatch(batch) => {
                if due(cfg.fail_after_batches, report.batches_done) {
                    // Injected fault: vanish without replying.
                    stream.shutdown();
                    report.failed_by_injection = true;
                    return Ok(());
                }
                if due(cfg.hang_after_batches, report.batches_done) {
                    // Injected fault: no replies, no heartbeats, the
                    // connection left open.
                    session.go_silent();
                    report.failed_by_injection = true;
                    while session.read(stream).is_ok() {}
                    return Ok(());
                }
                if let Some(delay) = cfg.slow_per_batch {
                    std::thread::sleep(delay);
                }
                table.extend(batch.chains);
                let outcomes = compute_batch_lanes(&batch.jobs, &table, cfg.threads, lane_jobs)?;
                session.advance(outcomes.len() as u64);
                session.send(&Frame::ResultBatch(proto::ResultBatch {
                    batch_id: batch.batch_id,
                    outcomes,
                }))?;
                report.batches_done += 1;
            }
            Frame::Shutdown => return Ok(()),
            // The master never sends anything else after Welcome.
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected frame from master",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;
    use rck_tmalign::MethodKind;
    use rckalign::{PairCache, PairJob};

    /// Mixed methods in runs of one, two, five and six same-method jobs:
    /// Kabsch runs that are one lane, spill past a lock-step group of
    /// four, and end part-full.
    #[test]
    fn compute_batch_matches_the_in_process_cache() {
        let chains = tiny_profile().generate(9);
        let (kabsch, tm) = (MethodKind::KabschRmsd, MethodKind::TmAlign);
        let methods = [
            vec![tm, kabsch, tm, tm],
            vec![kabsch; 5],
            vec![tm; 2],
            vec![kabsch; 6],
        ];
        let jobs: Vec<PairJob> = (methods.iter().flatten())
            .enumerate()
            .map(|(k, &method)| PairJob {
                i: (k % 8) as u32,
                j: ((k + 1 + k % 3) % 8) as u32,
                method,
            })
            .collect();
        let table: HashMap<u32, Arc<CaChain>> = proto::build_job_batch(1, jobs.clone(), &chains)
            .chains
            .into_iter()
            .collect();
        let ours = compute_jobs(&jobs, &table).unwrap();
        let cache = PairCache::new(chains);
        for (job, got) in jobs.iter().zip(&ours) {
            let want = cache.get_or_compute(job);
            assert_eq!(*got, want, "worker diverged from in-process kernel");
        }
    }

    #[test]
    fn connect_to_defaults() {
        let cfg = WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 9)));
        assert_eq!(cfg.name, "worker");
        assert_eq!(cfg.threads, 1);
        assert!(cfg.fail_after_batches.is_none());
        assert!(cfg.hang_after_batches.is_none());
        assert!(cfg.slow_per_batch.is_none());
        assert!(cfg.heartbeat_interval < Duration::from_secs(1));
    }

    #[test]
    fn lanes_preserve_single_lane_results_bit_for_bit() {
        let chains = tiny_profile().generate(11);
        let jobs: Vec<PairJob> = rckalign::all_vs_all(chains.len(), MethodKind::TmAlign)
            .into_iter()
            .take(13)
            .collect();
        let table: HashMap<u32, Arc<CaChain>> = proto::build_job_batch(3, jobs.clone(), &chains)
            .chains
            .into_iter()
            .collect();
        let single = compute_jobs(&jobs, &table).unwrap();
        for threads in [2usize, 3, 5, 64] {
            let registry = rck_obs::Registry::new();
            let counters: Vec<Arc<Counter>> = (0..threads)
                .map(|lane| {
                    registry.counter_with(
                        "test_lane_jobs_total",
                        "test",
                        &[("lane", &lane.to_string())],
                    )
                })
                .collect();
            let laned = compute_batch_lanes(&jobs, &table, threads, &counters).unwrap();
            assert_eq!(laned.len(), single.len());
            for (a, b) in laned.iter().zip(&single) {
                assert_eq!(a, b, "lane split changed results at threads={threads}");
            }
            let counted: u64 = counters.iter().map(|c| c.get()).sum();
            assert_eq!(counted, jobs.len() as u64, "lanes missed counting jobs");
            if threads > 1 && jobs.len() >= threads {
                let busy = counters.iter().filter(|c| c.get() > 0).count();
                assert!(busy > 1, "expected multiple lanes to do work");
            }
        }
    }

    #[test]
    fn backoff_gives_up_with_a_clear_timeout_error() {
        // Grab a port nobody is listening on by binding and dropping.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = BackoffPolicy {
            initial: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            total: Duration::from_millis(120),
        };
        let started = Instant::now();
        let err = match connect_with_backoff(addr, &policy) {
            Ok(_) => panic!("no master is listening, connect must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(msg.contains("unreachable"), "unhelpful error: {msg}");
        assert!(msg.contains("attempts"), "unhelpful error: {msg}");
        assert!(
            started.elapsed() >= policy.total,
            "gave up before the budget was spent"
        );
        // Exponential growth means far fewer attempts than a tight spin
        // would make in the same window.
        let attempts: u32 = msg
            .split("after ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("attempt count in message");
        assert!(
            (2..50).contains(&attempts),
            "attempt count {attempts} not consistent with jittered backoff"
        );
    }

    #[test]
    fn backoff_connects_when_the_master_is_up() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = connect_with_backoff(addr, &BackoffPolicy::default());
        assert!(conn.is_ok());
    }
}
