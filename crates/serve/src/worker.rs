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
use crate::sync::MutexExt;
use crate::transport::{Conn, TcpConn};
use rand::{Rng, SeedableRng};
use rck_obs::{Counter, Registry};
use rck_pdb::model::CaChain;
use rckalign::{PairJob, PairOutcome};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Kernel lanes: threads that persist for the session and pull the
    /// batches queued on the single master connection — whole while
    /// others wait, in contiguous chunks when a batch is alone (outcome
    /// order is preserved either way). Per-lane throughput shows up as
    /// `rck_worker_lane_jobs_total{lane=…}` on
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

/// The session's chain table: every chain the master has shipped.
type Table = HashMap<u32, Arc<CaChain>>;
/// Finished chunks of a batch by start index, and how many are still out.
type Parts = (Vec<(usize, Vec<PairOutcome>)>, usize);
/// A contiguous run of one batch's jobs.
type Chunk = (Arc<Batch>, Range<usize>);

/// One received batch, shared by the lanes computing its chunks.
struct Batch {
    id: u64,
    jobs: Vec<PairJob>,
    table: Arc<Table>,
    parts: Mutex<Parts>,
}

impl Batch {
    /// Record the chunk starting at `start`; the whole batch's outcomes,
    /// in job order, once it was the last one out.
    fn finish(&self, start: usize, outcomes: Vec<PairOutcome>) -> Option<Vec<PairOutcome>> {
        let mut parts = self.parts.lock_recover();
        parts.0.push((start, outcomes));
        parts.1 -= 1;
        if parts.1 > 0 {
            return None;
        }
        parts.0.sort_unstable_by_key(|&(start, _)| start);
        Some(parts.0.drain(..).flat_map(|(_, part)| part).collect())
    }
}

/// Kernel lanes that persist for a session, pulling from one local
/// queue: a batch goes in whole while earlier work is still queued, and
/// as one contiguous chunk per lane once the lanes have drained it — so
/// a deep window keeps each lane on whole batches, and a lone coarse
/// batch still runs on every lane. Chunks reassemble in job order, so
/// the answer is the single-lane one byte for byte; the lane finishing a
/// batch answers it.
#[derive(Default)]
struct Lanes {
    /// Queued chunks, and whether the reader is done.
    queue: Mutex<(VecDeque<Chunk>, bool)>,
    ready: Condvar,
    /// Set once the session stops answering (hang hook, failed lane).
    muted: AtomicBool,
    /// The first compute error a lane hit: it fails the session.
    failed: Mutex<Option<io::Error>>,
    answered: AtomicU64,
}

impl Lanes {
    /// Queue `batch` for `lanes` lanes.
    fn push(&self, batch: Batch, lanes: usize) {
        let (n, batch) = (batch.jobs.len(), Arc::new(batch));
        let mut queue = self.queue.lock_recover();
        let per = n
            .div_ceil(if queue.0.is_empty() { lanes } else { 1 })
            .max(1);
        let starts = (0..n.max(1)).step_by(per);
        batch.parts.lock_recover().1 = starts.len();
        let chunks = starts.map(|start| (Arc::clone(&batch), start..(start + per).min(n)));
        queue.0.extend(chunks);
        drop(queue);
        self.ready.notify_all();
    }

    /// The next chunk, or `None` once closed and drained.
    fn pop(&self) -> Option<Chunk> {
        let mut queue = self.queue.lock_recover();
        loop {
            if let Some(chunk) = queue.0.pop_front() {
                return Some(chunk);
            }
            if queue.1 {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// No more batches: lanes exit once the queue is drained.
    fn close(&self) {
        self.queue.lock_recover().1 = true;
        self.ready.notify_all();
    }

    /// Stop answering: drop what is queued, suppress what is computing.
    fn mute(&self) {
        self.muted.store(true, Ordering::SeqCst);
        self.queue.lock_recover().0.clear();
    }

    /// One lane: compute chunks until the queue closes, and answer every
    /// batch this lane completes.
    fn run(&self, session: &Session, jobs_done: &Counter) {
        while let Some((batch, range)) = self.pop() {
            let outcomes = match compute_jobs(&batch.jobs[range.clone()], &batch.table) {
                Ok(outcomes) => outcomes,
                Err(e) => {
                    self.failed.lock_recover().get_or_insert(e);
                    self.mute();
                    session.shutdown();
                    continue;
                }
            };
            jobs_done.add(outcomes.len() as u64);
            if let Some(outcomes) = batch.finish(range.start, outcomes) {
                let _ = self.answer(session, batch.id, outcomes);
            }
        }
    }

    /// Answer one finished batch, unless the session was muted.
    fn answer(
        &self,
        session: &Session,
        batch_id: u64,
        outcomes: Vec<PairOutcome>,
    ) -> io::Result<()> {
        if self.muted.load(Ordering::SeqCst) {
            return Ok(());
        }
        session.advance(outcomes.len() as u64);
        session.send(&Frame::ResultBatch(proto::ResultBatch {
            batch_id,
            outcomes,
        }))?;
        self.answered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
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
/// One lane computes on the reading thread; more run as [`Lanes`].
fn serve_loop(
    cfg: &WorkerConfig,
    stream: &mut Box<dyn Conn>,
    session: &Session,
    lane_jobs: &[Arc<Counter>],
    report: &mut WorkerReport,
) -> io::Result<()> {
    let lanes = Lanes::default();
    let read = std::thread::scope(|s| {
        if let [jobs_done] = lane_jobs {
            return read_batches(cfg, stream, session, &lanes, |batch| {
                let outcomes = compute_jobs(&batch.jobs, &batch.table)?;
                jobs_done.add(outcomes.len() as u64);
                lanes.answer(session, batch.id, outcomes)
            });
        }
        for jobs_done in lane_jobs {
            let lanes = &lanes;
            s.spawn(move || lanes.run(session, jobs_done));
        }
        let read = read_batches(cfg, stream, session, &lanes, |batch| {
            lanes.push(batch, lane_jobs.len());
            Ok(())
        });
        lanes.close();
        read
    });
    report.batches_done = lanes.answered.load(Ordering::Relaxed);
    if let Some(e) = lanes.failed.lock_recover().take() {
        return Err(e);
    }
    report.failed_by_injection = read?;
    Ok(())
}

/// Read batches until Shutdown, an injected fault or a connection error,
/// handing each to `answer` against the session table grown by its
/// chains. Returns whether an injected fault ended the session.
fn read_batches(
    cfg: &WorkerConfig,
    stream: &mut Box<dyn Conn>,
    session: &Session,
    lanes: &Lanes,
    mut answer: impl FnMut(Batch) -> io::Result<()>,
) -> io::Result<bool> {
    let due = |limit: Option<usize>, taken: usize| limit.is_some_and(|limit| taken >= limit);
    let mut table = Arc::new(Table::new());
    let mut taken = 0;
    loop {
        match session.read(stream)? {
            Frame::JobBatch(batch) => {
                if due(cfg.fail_after_batches, taken) {
                    // Injected fault: vanish without replying.
                    stream.shutdown();
                    return Ok(true);
                }
                if due(cfg.hang_after_batches, taken) {
                    // Injected fault: no replies, no heartbeats, the
                    // connection left open.
                    lanes.mute();
                    session.go_silent();
                    while session.read(stream).is_ok() {}
                    return Ok(true);
                }
                if let Some(delay) = cfg.slow_per_batch {
                    std::thread::sleep(delay);
                }
                if !batch.chains.is_empty() {
                    Arc::make_mut(&mut table).extend(batch.chains);
                }
                answer(Batch {
                    id: batch.batch_id,
                    jobs: batch.jobs,
                    table: Arc::clone(&table),
                    parts: Mutex::default(),
                })?;
                taken += 1;
            }
            Frame::Shutdown => return Ok(false),
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
        let table: Table = proto::build_job_batch(1, jobs.clone(), &chains)
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

    /// A batch pushed onto drained lanes is cut into contiguous chunks,
    /// one per lane; one queued behind it goes whole; chunks finished in
    /// any order reassemble to the single-lane answer.
    #[test]
    fn lanes_preserve_single_lane_results_bit_for_bit() {
        let chains = tiny_profile().generate(11);
        let jobs: Vec<PairJob> = rckalign::all_vs_all(chains.len(), MethodKind::TmAlign)
            .into_iter()
            .take(13)
            .collect();
        let table: Table = proto::build_job_batch(3, jobs.clone(), &chains)
            .chains
            .into_iter()
            .collect();
        let single = compute_jobs(&jobs, &table).unwrap();
        let table = Arc::new(table);
        for threads in [2usize, 3, 5, 64] {
            let lanes = Lanes::default();
            for id in [3, 4] {
                let batch = Batch {
                    id,
                    jobs: jobs.clone(),
                    table: Arc::clone(&table),
                    parts: Mutex::default(),
                };
                lanes.push(batch, threads);
            }
            lanes.close();
            let mut items: Vec<_> = std::iter::from_fn(|| lanes.pop()).collect();
            let chunks = |id| items.iter().filter(|(b, _)| b.id == id).count();
            let chunk = jobs.len().div_ceil(threads);
            assert_eq!(chunks(3), jobs.len().div_ceil(chunk), "threads={threads}");
            assert!(chunks(3) > 1, "a lone batch runs on several lanes");
            assert_eq!(chunks(4), 1, "a batch queued behind another goes whole");
            items.reverse();
            let mut answers = HashMap::new();
            for (batch, range) in items {
                let part = compute_jobs(&batch.jobs[range.clone()], &batch.table).unwrap();
                if let Some(all) = batch.finish(range.start, part) {
                    answers.insert(batch.id, all);
                }
            }
            for id in [3, 4] {
                assert_eq!(
                    answers[&id], single,
                    "lane split changed results at threads={threads}"
                );
            }
        }
    }

    /// A worker with three lanes, sent a window of batches at once,
    /// answers each exactly as one lane would, counts every job on some
    /// lane, and reports every batch answered.
    #[test]
    fn a_worker_with_lanes_answers_a_window_bit_for_bit() {
        let chains = tiny_profile().generate(12);
        let jobs = rckalign::all_vs_all(chains.len(), MethodKind::KabschRmsd);
        let table: Table = proto::build_job_batch(0, jobs.clone(), &chains)
            .chains
            .into_iter()
            .collect();
        let (conn, mut master) = crate::transport::MemNet::pair();
        let mut cfg = WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 0)));
        cfg.threads = 3;
        let registry = Arc::clone(&cfg.registry);
        let worker = std::thread::spawn(move || run_worker_conn(conn, &cfg));
        assert!(matches!(
            proto::read_frame(&mut master).unwrap().0,
            Frame::Hello(_)
        ));
        let welcome = proto::Welcome {
            worker_id: 1,
            n_chains: chains.len() as u32,
        };
        proto::write_frame(&mut master, &Frame::Welcome(welcome)).unwrap();
        let batches: Vec<Vec<PairJob>> = jobs.chunks(4).map(<[PairJob]>::to_vec).collect();
        for (id, batch) in batches.iter().enumerate() {
            // The first batch brings every chain; the rest bring none.
            let chains = match id {
                0 => proto::build_job_batch(0, jobs.clone(), &chains).chains,
                _ => Vec::new(),
            };
            let frame = Frame::JobBatch(proto::JobBatch {
                batch_id: id as u64,
                chains,
                jobs: batch.clone(),
            });
            proto::write_frame(&mut master, &frame).unwrap();
        }
        let mut answered = HashMap::new();
        while answered.len() < batches.len() {
            if let Frame::ResultBatch(rb) = proto::read_frame(&mut master).unwrap().0 {
                assert!(answered.insert(rb.batch_id, rb.outcomes).is_none());
            }
        }
        proto::write_frame(&mut master, &Frame::Shutdown).unwrap();
        let report = worker.join().unwrap().expect("session ends on Shutdown");
        for (id, batch) in batches.iter().enumerate() {
            let want = compute_jobs(batch, &table).unwrap();
            assert_eq!(answered[&(id as u64)], want, "batch {id}");
        }
        assert_eq!(report.batches_done, batches.len() as u64);
        assert_eq!(report.jobs_done, jobs.len() as u64);
        let text = registry.render();
        let counted: u64 = (0..3)
            .filter_map(|lane| {
                let series = format!("rck_worker_lane_jobs_total{{lane=\"{lane}\"}} ");
                text.lines()
                    .find_map(|l| l.strip_prefix(series.as_str())?.trim().parse::<u64>().ok())
            })
            .sum();
        assert_eq!(counted, jobs.len() as u64, "every job counted on a lane");
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
