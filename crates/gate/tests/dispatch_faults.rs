//! One fault table, run over the `WorkSource` policies of the shared
//! dispatcher (`rck_serve::dispatch`): the master's FIFO queue and the
//! gate's stride pick. A scripted worker takes the first batch and
//! misbehaves; the dispatcher must requeue at the right moment, drop the
//! worker where the fault demands it, and still finish bit-identical to
//! the in-process reference once a healthy worker joins.
//!
//! The residency rows check the chain tables under the same faults: a
//! chain crosses a connection once, a connection that lost a table is
//! never used again, and a replacement connection starts from nothing.
//!
//! The peer-session rows put a real worker (`run_worker_conn`, the one
//! `dispatch::Session`) in the scripted worker's place: its heartbeats
//! must carry a batch that computes for longer than the heartbeat
//! timeout, and its "go silent" switch must be caught by the deadline
//! rule, not by connection loss.
//!
//! The window rows run a finer workload (one microsecond job per batch)
//! so a connection can earn a window deeper than one, and check what the
//! window rule promises: an unproven or slow peer is never fed ahead, a
//! fast one is fed ahead by a bounded amount, and everything a connection
//! holds — in whatever order it answers, replays or loses it — is
//! accepted once or requeued once.
//!
//! The tile rows put a scripted shard master in front of the shard
//! frontend, the same loop in the tile dialect: its credits size its
//! window, and a tile past its cap costs the master like a batch past
//! its cap costs a worker, so the tile is never granted back to it.

use rck_gate::{reference_ranking, Gate, GateClient, GateConfig};
use rck_pdb::datasets::tiny_profile;
use rck_pdb::model::CaChain;
use rck_serve::chaos::outcomes_fingerprint;
use rck_serve::dispatch::hello;
use rck_serve::proto::{
    self, Frame, Heartbeat, JobBatch, QuerySubmit, ResultBatch, StealRequest, TileGrant, TileResult,
};
use rck_serve::{run_worker_conn, Conn, Master, MasterConfig, MemNet, WorkerConfig};
use rck_shard::{ShardConfig, ShardFrontend};
use rck_tmalign::MethodKind;
use rckalign::PairOutcome;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(200);
const BATCH_TIMEOUT: Duration = Duration::from_millis(700);
/// The monitor's tick (`heartbeat_timeout / 4`) plus scheduling noise.
const SLACK: Duration = Duration::from_millis(450);
/// Well over the dispatcher's `COVER` (what a window's worth of queued
/// batches may take to serve): a worker this slow per batch holds one.
const SLOW: Duration = Duration::from_millis(3);
/// The dispatcher's `CAP`: the deepest window any connection gets.
const DEEPEST: usize = 32;
/// How long a connection stays quiet before the worker concludes the
/// dispatcher has given it all its window allows.
const QUIET: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tier {
    Master,
    Gate,
}

/// What a farm under test is given to compute.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Eight chains under TM-align in two batches: milliseconds each.
    Coarse,
    /// Forty chains under Kabsch RMSD, one job per batch: microseconds
    /// each, and more batches than the deepest window.
    Fine,
}

impl Shape {
    fn chains(self) -> Vec<CaChain> {
        let sets = if self == Shape::Fine { 5 } else { 1 };
        (0..sets)
            .flat_map(|set| tiny_profile().generate(7 + 10 * set))
            .collect()
    }

    fn method(self) -> MethodKind {
        match self {
            Shape::Coarse => MethodKind::TmAlign,
            Shape::Fine => MethodKind::KabschRmsd,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// Takes a batch, then says nothing at all.
    Silent,
    /// Heartbeats flow but the result never arrives.
    ResultLost,
    /// Answers with outcomes for jobs it was never given.
    Byzantine,
    /// Answers correctly, then replays the same result frame.
    LateDuplicate,
    /// The first batch — the one carrying first-contact chains — never
    /// reaches the worker; its heartbeats flow on.
    DroppedFirstContact,
    /// The first batch reaches the worker twice.
    DuplicatedFirstContact,
    /// Answers the first batch, then dies holding the second; an
    /// inspected replacement takes over.
    ReplacedMidRun,
}

/// Scripted workers probing the window rule. The rows from
/// `DiesHoldingWindow` on first answer fast until the dispatcher trusts
/// their connection with several batches, and start from a full window.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WindowFault {
    /// Has answered nothing: is offered no second batch.
    UnprovenHoldsOne,
    /// Takes longer than `COVER` per batch: never holds two.
    SlowStaysAtOne,
    /// Answers at once: comes to hold several, never more than `CAP`.
    FastDeepens,
    /// Dies holding a full window; an inspected replacement takes over.
    DiesHoldingWindow,
    /// Answers a full window in reverse.
    OutOfOrder,
    /// Never answers the first batch it holds, answers the second;
    /// heartbeats flow on.
    ResultLostSecondQueued,
    /// Answers the first batch it holds, then replays that result while
    /// the rest of the window is still out on it.
    StaleReplay,
}

/// Faults injected into a real worker's session.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SessionFault {
    /// Every batch takes longer than the heartbeat timeout; only the
    /// session's heartbeats keep the worker alive.
    Slow,
    /// Takes a batch and goes silent — no reply, no heartbeat,
    /// connection left open.
    Silent,
}

#[derive(Debug)]
struct Counters {
    requeued: u64,
    completed: u64,
    workers_lost: u64,
    /// `None` where the tier keeps no such counter.
    stale: Option<u64>,
    mismatched: Option<u64>,
}

/// A tier under test, reduced to what the fault table needs.
struct Farm {
    workers: Arc<MemNet>,
    total_jobs: u64,
    counters: Box<dyn Fn() -> Counters>,
    /// Join the run and assert its result is bit-identical to the
    /// in-process reference.
    finish: Box<dyn FnOnce()>,
}

fn boot_master(shape: Shape) -> Farm {
    let chains = shape.chains();
    let method = shape.method();
    let workers = Arc::new(MemNet::new());
    let cfg = MasterConfig {
        batch_size: if shape == Shape::Fine { 1 } else { 16 },
        method,
        heartbeat_timeout: HEARTBEAT_TIMEOUT,
        batch_timeout: Some(BATCH_TIMEOUT),
        ..MasterConfig::default()
    };
    let master = Master::bind_on(workers.listener(), chains.clone(), cfg);
    let stats = master.stats();
    let run = std::thread::spawn(move || master.run());
    let n = chains.len() as u64;
    Farm {
        workers,
        total_jobs: n * (n - 1) / 2,
        counters: Box::new(move || {
            let s = stats.snapshot();
            Counters {
                requeued: s.jobs_requeued,
                completed: s.jobs_completed,
                workers_lost: s.workers_lost,
                stale: Some(s.stale_results),
                mismatched: Some(s.mismatched_results),
            }
        }),
        finish: Box::new(move || {
            let run = run.join().expect("master thread").expect("run completes");
            let cache = rckalign::PairCache::new(chains);
            let options = rckalign::RckAlignOptions {
                method,
                ..rckalign::RckAlignOptions::paper(2)
            };
            let want = rckalign::run_all_vs_all(&cache, &options);
            assert_eq!(
                outcomes_fingerprint(&run.outcomes),
                outcomes_fingerprint(&want.outcomes),
                "matrix diverges from the in-process reference"
            );
        }),
    }
}

fn boot_gate(shape: Shape) -> Farm {
    let db = shape.chains();
    let query = tiny_profile().generate(8)[0].clone();
    let workers = Arc::new(MemNet::new());
    let clients = MemNet::new();
    let cfg = GateConfig {
        batch_size: if shape == Shape::Fine { 1 } else { 4 },
        heartbeat_timeout: HEARTBEAT_TIMEOUT,
        batch_timeout: Some(BATCH_TIMEOUT),
        ..GateConfig::default()
    };
    let combiner = cfg.combiner;
    let gate = Gate::bind_on(workers.listener(), clients.listener(), db.clone(), cfg);
    let handle = gate.handle();
    let stats = gate.stats();
    let gate_thread = std::thread::spawn(move || gate.run());
    let client_conn = clients.connect().expect("client connect");
    let methods = vec![shape.method()];
    let submit = QuerySubmit {
        tenant: "lab".to_string(),
        query_id: 1,
        weight: 1,
        methods: methods.clone(),
        chain: query.clone(),
    };
    let client = std::thread::spawn(move || {
        let mut client = GateClient::connect(client_conn, "lab").expect("client handshake");
        client.run_query(submit).expect("query answered")
    });
    Farm {
        workers,
        total_jobs: db.len() as u64,
        counters: Box::new(move || {
            let s = stats.snapshot();
            Counters {
                requeued: s.jobs_requeued,
                completed: s.jobs_completed,
                workers_lost: s.workers_lost,
                stale: None,
                mismatched: None,
            }
        }),
        finish: Box::new(move || {
            let outcome = client.join().expect("client thread");
            let got = outcome.ranking.expect("query ends with a ranking");
            let want = reference_ranking(&db, &query, &methods, combiner);
            assert_eq!(got.len(), want.len());
            for ((gi, gs), (wi, ws)) in got.iter().zip(&want) {
                assert_eq!(gi, wi);
                assert_eq!(gs.to_bits(), ws.to_bits(), "ranking not bit-identical");
            }
            handle.drain();
            gate_thread.join().expect("gate thread");
        }),
    }
}

/// One scripted worker connection with the session table an honest
/// worker keeps, so every batch can be checked against what this
/// connection was actually sent.
struct Scripted {
    conn: Box<dyn Conn>,
    worker_id: u32,
    table: HashMap<u32, Arc<CaChain>>,
    /// Index of every row received over the connection's life.
    shipped: Vec<u32>,
    /// Every chain index a job of this connection referenced.
    referenced: BTreeSet<u32>,
}

impl Scripted {
    fn connect(farm: &Farm, name: &str) -> Scripted {
        let mut conn = farm.workers.connect().expect("scripted connect");
        let (welcome, _, _) = hello(&mut conn, name).expect("handshake");
        Scripted {
            conn,
            worker_id: welcome.worker_id,
            table: HashMap::new(),
            shipped: Vec::new(),
            referenced: BTreeSet::new(),
        }
    }

    /// The next batch off the wire, untouched; `None` once the
    /// dispatcher says Shutdown or drops the connection.
    fn read_batch(&mut self) -> Option<JobBatch> {
        loop {
            match proto::read_frame(&mut self.conn) {
                Ok((Frame::JobBatch(batch), _)) => return Some(batch),
                Ok((Frame::Shutdown, _)) | Err(_) => return None,
                Ok(_) => {}
            }
        }
    }

    /// Take a batch in as an honest worker does: merge its table, then
    /// require that every chain it references is held — the dispatcher
    /// must never ask for a computation against a chain this connection
    /// was not sent — and that no held chain was sent again.
    fn absorb(&mut self, batch: &JobBatch) {
        for (ix, chain) in &batch.chains {
            let again = self.table.insert(*ix, Arc::clone(chain));
            assert!(
                again.is_none_or(|held| *held != **chain),
                "chain {ix} shipped twice on one connection"
            );
            self.shipped.push(*ix);
        }
        for ix in rckalign::chain_indices(&batch.jobs) {
            assert!(
                self.table.contains_key(&ix),
                "batch {} references chain {ix} this connection never received",
                batch.batch_id
            );
            self.referenced.insert(ix);
        }
    }

    fn next_batch(&mut self) -> Option<JobBatch> {
        let batch = self.read_batch()?;
        self.absorb(&batch);
        Some(batch)
    }

    /// The next batch if it reaches the wire within `wait` (zero: only
    /// if it is already there), absorbed.
    fn poll_batch(&mut self, wait: Duration) -> Option<JobBatch> {
        self.conn.set_read_timeout(Some(wait)).expect("timeout");
        let batch = self.next_batch();
        self.conn.set_read_timeout(None).expect("timeout");
        batch
    }

    /// Compute and answer `batch` honestly.
    fn answer(&mut self, batch: &JobBatch) {
        let outcomes = self.compute(batch);
        self.send_result(batch.batch_id, outcomes);
    }

    /// Answer at once, oldest first, taking in whatever is on the wire
    /// before each answer, until `done` says stop or `jobs` jobs are
    /// answered. Returns the unanswered batches and the jobs answered.
    fn serve_fast(
        &mut self,
        first: JobBatch,
        jobs: u64,
        mut done: impl FnMut(&VecDeque<JobBatch>) -> bool,
    ) -> (VecDeque<JobBatch>, u64) {
        let mut held = VecDeque::from([first]);
        let mut answered = 0;
        loop {
            while let Some(batch) = self.poll_batch(Duration::ZERO) {
                held.push_back(batch);
            }
            assert!(held.len() <= DEEPEST, "holds {} batches", held.len());
            if done(&held) || answered == jobs {
                return (held, answered);
            }
            let batch = match held.pop_front() {
                Some(batch) => batch,
                None => self.next_batch().expect("next batch dispatched"),
            };
            self.answer(&batch);
            answered += batch.jobs.len() as u64;
        }
    }

    /// Answer fast until this connection is trusted with several batches
    /// at once, then answer nothing until the dispatcher has filled the
    /// window. Returns what is held and the jobs answered on the way.
    fn fill_window(&mut self, first: JobBatch, jobs: u64) -> (VecDeque<JobBatch>, u64) {
        let (mut held, answered) = self.serve_fast(first, jobs, |held| held.len() >= 2);
        assert!(held.len() >= 2, "the window never deepened");
        while let Some(batch) = self.poll_batch(QUIET) {
            held.push_back(batch);
        }
        assert!(held.len() <= DEEPEST, "holds {} batches", held.len());
        (held, answered)
    }

    /// Compute `batch` honestly. Like a real worker's session, heartbeat
    /// whenever the computing has kept the connection quiet for a
    /// quarter of the heartbeat timeout: an unoptimised TM-align batch on
    /// a loaded host computes for longer than the timeout itself.
    fn compute(&mut self, batch: &JobBatch) -> Vec<PairOutcome> {
        let beat = Frame::Heartbeat(Heartbeat {
            worker_id: self.worker_id,
            completed: 0,
        });
        let mut quiet_since = Instant::now();
        let mut outcomes = Vec::with_capacity(batch.jobs.len());
        for job in &batch.jobs {
            let score = job
                .method
                .instantiate()
                .compare(&self.table[&job.i], &self.table[&job.j]);
            outcomes.push(PairOutcome {
                i: job.i,
                j: job.j,
                method: job.method,
                similarity: score.similarity,
                rmsd: score.rmsd.unwrap_or(f64::NAN),
                aligned_len: score.aligned_len as u32,
                ops: score.ops,
            });
            if quiet_since.elapsed() >= HEARTBEAT_TIMEOUT / 4 {
                let _ = proto::write_frame(&mut self.conn, &beat);
                quiet_since = Instant::now();
            }
        }
        outcomes
    }

    fn send_result(&mut self, batch_id: u64, outcomes: Vec<PairOutcome>) {
        let frame = Frame::ResultBatch(ResultBatch { batch_id, outcomes });
        proto::write_frame(&mut self.conn, &frame).expect("result write");
    }

    /// Serve honestly until `jobs` jobs are answered.
    fn serve(&mut self, jobs: u64) {
        let mut answered = 0;
        while answered < jobs {
            let batch = self.next_batch().expect("next batch dispatched");
            answered += batch.jobs.len() as u64;
            self.answer(&batch);
        }
    }

    /// Heartbeat until `until`; `limit` bounds the wait.
    fn heartbeat_until(&mut self, limit: Duration, what: &str, until: impl Fn() -> bool) {
        let beat = Frame::Heartbeat(Heartbeat {
            worker_id: self.worker_id,
            completed: 0,
        });
        let start = Instant::now();
        while !until() {
            assert!(start.elapsed() < limit, "{what}");
            let _ = proto::write_frame(&mut self.conn, &beat);
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Poll `counters` until `ready`, failing the test after `limit`.
fn wait_for(farm: &Farm, limit: Duration, what: &str, ready: impl Fn(&Counters) -> bool) {
    let start = Instant::now();
    while !ready(&(farm.counters)()) {
        assert!(
            start.elapsed() < limit,
            "{what} not seen within {limit:?}: {:?}",
            (farm.counters)()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn spawn_healthy(farm: &Farm) -> std::thread::JoinHandle<()> {
    let conn = farm.workers.connect().expect("healthy connect");
    std::thread::spawn(move || {
        let mut cfg = WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 0)));
        cfg.heartbeat_interval = Duration::from_millis(40);
        let _ = run_worker_conn(conn, &cfg);
    })
}

fn boot(tier: Tier, shape: Shape) -> Farm {
    match tier {
        Tier::Master => boot_master(shape),
        Tier::Gate => boot_gate(shape),
    }
}

/// The peer-session rows: a real worker under an injected fault.
fn run_session_case(tier: Tier, fault: SessionFault) {
    let case = &format!("{tier:?}/{fault:?}");
    let farm = boot(tier, Shape::Coarse);
    let connected = Instant::now();
    let conn = farm.workers.connect().expect("worker connect");
    let worker = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 0)));
        cfg.heartbeat_interval = Duration::from_millis(40);
        match fault {
            SessionFault::Slow => cfg.slow_per_batch = Some(HEARTBEAT_TIMEOUT.mul_f64(1.5)),
            SessionFault::Silent => cfg.hang_after_batches = Some(0),
        }
        run_worker_conn(conn, &cfg)
    });
    let silent = fault == SessionFault::Silent;
    let mut healthy = None;
    if silent {
        wait_for(&farm, HEARTBEAT_TIMEOUT + SLACK, case, |c| c.requeued > 0);
        let waited = connected.elapsed();
        assert!(
            waited >= HEARTBEAT_TIMEOUT.mul_f64(0.9),
            "{case}: requeued after {waited:?}: by connection loss, not the deadline"
        );
        healthy = Some(spawn_healthy(&farm));
    }
    wait_for(&farm, Duration::from_secs(20), case, |c| {
        c.completed == farm.total_jobs
    });
    let c = (farm.counters)();
    assert_eq!(c.workers_lost, u64::from(silent), "{case}: {c:?}");
    assert_eq!(c.requeued > 0, silent, "{case}: {c:?}");
    (farm.finish)();
    // With nothing requeued and nobody lost, the slow worker (the only
    // one) served the whole run; how its session ends is the tier's
    // business (the gate's stop may close it before a Shutdown frame).
    let report = worker.join().expect("worker thread");
    if let Some(healthy) = healthy {
        let report = report.expect("a silent session ends when its connection does");
        assert!(report.failed_by_injection, "{case}");
        healthy.join().expect("healthy worker thread");
    }
}

fn run_case(tier: Tier, fault: Fault) {
    let case = format!("{tier:?}/{fault:?}");
    let farm = boot(tier, Shape::Coarse);
    let mut w = Scripted::connect(&farm, "scripted");
    let first = w.read_batch().expect("first batch dispatched");
    let dispatched = Instant::now();
    let first_jobs = first.jobs.len() as u64;
    assert_eq!(
        first.chains.iter().map(|(ix, _)| *ix).collect::<Vec<_>>(),
        rckalign::chain_indices(&first.jobs),
        "{case}: a connection's first batch carries every chain it references"
    );
    // Jobs expected back on the queue, where the row lets one batch go.
    let mut lost_jobs = first_jobs;

    match fault {
        Fault::Silent => {
            wait_for(&farm, HEARTBEAT_TIMEOUT + SLACK, &case, |c| c.requeued > 0);
            let waited = dispatched.elapsed();
            assert!(
                waited >= HEARTBEAT_TIMEOUT.mul_f64(0.9),
                "{case}: requeued after {waited:?}, before the heartbeat deadline"
            );
        }
        Fault::ResultLost | Fault::DroppedFirstContact => {
            // To the dispatcher a batch that never arrived and a result
            // that never came back look the same; the worker differs —
            // here `first` was never absorbed into its table.
            w.heartbeat_until(
                BATCH_TIMEOUT + SLACK,
                &format!("{case}: heartbeats kept the batch alive past the batch timeout"),
                || (farm.counters)().requeued > 0,
            );
            let waited = dispatched.elapsed();
            assert!(
                waited >= BATCH_TIMEOUT.mul_f64(0.9),
                "{case}: requeued after {waited:?} although heartbeats flowed"
            );
            if fault == Fault::DroppedFirstContact {
                assert!(
                    w.next_batch().is_none(),
                    "{case}: a connection that lost a chain table must end, not be fed"
                );
            }
        }
        Fault::Byzantine => {
            let alien = PairOutcome {
                i: 1000,
                j: 1001,
                method: MethodKind::TmAlign,
                similarity: 1.0,
                rmsd: 0.0,
                aligned_len: 1,
                ops: 1,
            };
            w.send_result(first.batch_id, vec![alien; first.jobs.len()]);
            wait_for(&farm, SLACK, &case, |c| c.requeued == first_jobs);
            assert!(
                w.next_batch().is_none(),
                "{case}: a byzantine worker must be dropped, not fed"
            );
        }
        Fault::LateDuplicate | Fault::DuplicatedFirstContact => {
            w.absorb(&first);
            if fault == Fault::DuplicatedFirstContact {
                // The second copy overwrites each row with itself.
                w.table.extend(first.chains.iter().cloned());
            }
            let outcomes = w.compute(&first);
            w.send_result(first.batch_id, outcomes.clone());
            w.send_result(first.batch_id, outcomes);
            // Keep serving honestly: the replayed frame is read while
            // the next batch is already out on this worker, and must
            // not cost it that batch.
            w.serve(farm.total_jobs - first_jobs);
        }
        Fault::ReplacedMidRun => {
            w.absorb(&first);
            w.answer(&first);
            let second = w.next_batch().expect("second batch dispatched");
            w.conn.shutdown();
            // Everything it was sent and did not answer: the second batch
            // and whatever its window put on the wire behind it.
            lost_jobs = second.jobs.len() as u64;
            while let Some(queued) = w.read_batch() {
                lost_jobs += queued.jobs.len() as u64;
            }
            wait_for(&farm, SLACK, &case, |c| c.requeued == lost_jobs);
        }
    }

    let duplicate = matches!(fault, Fault::LateDuplicate | Fault::DuplicatedFirstContact);
    let mut healthy = None;
    let mut takeover = None;
    if duplicate {
        // `w` served the whole run itself.
    } else if matches!(fault, Fault::DroppedFirstContact | Fault::ReplacedMidRun) {
        // The takeover connection starts from nothing: `absorb` fails it
        // on any chain assumed to have survived from the dead one.
        let done_by_w = if fault == Fault::ReplacedMidRun {
            first_jobs
        } else {
            0
        };
        let t = take_over(&farm, &case, &first, farm.total_jobs - done_by_w);
        takeover = Some(t);
    } else {
        healthy = Some(spawn_healthy(&farm));
    }
    wait_for(&farm, Duration::from_secs(20), &case, |c| {
        c.completed == farm.total_jobs
    });
    let c = (farm.counters)();
    assert_eq!(
        c.completed, farm.total_jobs,
        "{case}: each job counted once"
    );
    if duplicate {
        assert_eq!(c.requeued, 0, "{case}");
        assert_eq!(c.workers_lost, 0, "{case}");
        assert_eq!(c.stale.unwrap_or(1), 1, "{case}: replay counted stale");
    } else {
        assert_eq!(c.requeued, lost_jobs, "{case}: exactly the lost batch");
        assert_eq!(c.workers_lost, 1, "{case}");
        let want = u64::from(fault == Fault::Byzantine);
        assert_eq!(c.mismatched.unwrap_or(want), want, "{case}");
    }
    (farm.finish)();
    w.conn.shutdown();
    if let Some(t) = takeover {
        t.conn.shutdown();
    }
    if let Some(healthy) = healthy {
        healthy.join().expect("healthy worker thread");
    }
}

/// The takeover connection of a dead one starts from nothing: it serves
/// `jobs` jobs, is sent exactly the chains they reference, once each,
/// and among them chains the dead connection (whose first batch was
/// `first`) had been sent.
fn take_over(farm: &Farm, case: &str, first: &JobBatch, jobs: u64) -> Scripted {
    let mut t = Scripted::connect(farm, "takeover");
    t.serve(jobs);
    t.shipped.sort_unstable();
    assert_eq!(
        t.shipped,
        t.referenced.iter().copied().collect::<Vec<_>>(),
        "{case}: the takeover was sent exactly the chains its jobs reference, once each"
    );
    assert!(
        first.chains.iter().any(|(ix, _)| t.shipped.contains(ix)),
        "{case}: chains the dead connection was sent were sent again"
    );
    t
}

fn run_window_case(tier: Tier, fault: WindowFault) {
    let case = &format!("{tier:?}/{fault:?}");
    let farm = boot(tier, Shape::Fine);
    let total = farm.total_jobs;
    let mut w = Scripted::connect(&farm, "scripted");
    let first = w.next_batch().expect("first batch dispatched");
    let first_contact = first.clone();
    // Jobs this connection answered; jobs it was sent and never answered.
    let (mut answered, mut lost_jobs) = (0, 0);
    let mut stale = 0;

    match fault {
        WindowFault::UnprovenHoldsOne => {
            assert!(
                w.poll_batch(QUIET).is_none(),
                "{case}: a connection that has answered nothing was fed ahead"
            );
            w.answer(&first);
            answered = first.jobs.len() as u64;
        }
        WindowFault::SlowStaysAtOne => {
            let mut batch = first;
            for _ in 0..20 {
                assert!(
                    w.poll_batch(SLOW).is_none(),
                    "{case}: a second batch behind one that takes longer than COVER"
                );
                w.answer(&batch);
                answered += batch.jobs.len() as u64;
                batch = w.next_batch().expect("next batch dispatched");
            }
            w.answer(&batch);
            answered += batch.jobs.len() as u64;
        }
        WindowFault::FastDeepens => {
            let mut deepest = 0;
            (_, answered) = w.serve_fast(first, total, |held| {
                deepest = deepest.max(held.len());
                false
            });
            assert!(deepest > 1, "{case}: the window never deepened");
        }
        WindowFault::DiesHoldingWindow => {
            let held;
            (held, answered) = w.fill_window(first, total);
            w.conn.shutdown();
            lost_jobs = held.iter().map(|b| b.jobs.len() as u64).sum();
            wait_for(&farm, SLACK, case, |c| c.requeued == lost_jobs);
        }
        WindowFault::OutOfOrder => {
            let held;
            (held, answered) = w.fill_window(first, total);
            for batch in held.iter().rev() {
                w.answer(batch);
                answered += batch.jobs.len() as u64;
            }
        }
        WindowFault::ResultLostSecondQueued => {
            let mut held;
            (held, answered) = w.fill_window(first, total);
            let taken = Instant::now();
            let second = held.remove(1).expect("a second batch is queued");
            w.answer(&second);
            answered += second.jobs.len() as u64;
            w.heartbeat_until(
                BATCH_TIMEOUT + SLACK,
                &format!("{case}: heartbeats kept a batch alive past the batch timeout"),
                || (farm.counters)().workers_lost > 0,
            );
            let waited = taken.elapsed();
            assert!(
                waited >= BATCH_TIMEOUT.mul_f64(0.9) - QUIET,
                "{case}: dropped after {waited:?} although heartbeats flowed"
            );
            // The answered batch made room for more before the cap fired.
            held.extend(std::iter::from_fn(|| w.next_batch()));
            lost_jobs = held.iter().map(|b| b.jobs.len() as u64).sum();
        }
        WindowFault::StaleReplay => {
            let mut held;
            (held, answered) = w.fill_window(first, total);
            let head = held.pop_front().expect("window holds several");
            w.answer(&head);
            w.answer(&head);
            answered += head.jobs.len() as u64;
            stale = 1;
            for batch in &held {
                w.answer(batch);
                answered += batch.jobs.len() as u64;
            }
        }
    }

    let mut takeover = None;
    if lost_jobs > 0 {
        takeover = Some(take_over(&farm, case, &first_contact, total - answered));
    } else {
        // The connection is still trusted: it serves out the run.
        w.serve(total - answered);
    }
    wait_for(&farm, Duration::from_secs(20), case, |c| {
        c.completed == total
    });
    let c = (farm.counters)();
    assert_eq!(c.completed, total, "{case}: each job counted once");
    assert_eq!(c.requeued, lost_jobs, "{case}: exactly what it held");
    assert_eq!(c.workers_lost, u64::from(lost_jobs > 0), "{case}");
    assert_eq!(c.stale.unwrap_or(stale), stale, "{case}");
    assert_eq!(c.mismatched.unwrap_or(0), 0, "{case}");
    (farm.finish)();
    w.conn.shutdown();
    if let Some(t) = takeover {
        t.conn.shutdown();
    }
}

#[test]
fn fault_table_holds_for_both_work_sources() {
    for tier in [Tier::Master, Tier::Gate] {
        for fault in [
            Fault::Silent,
            Fault::ResultLost,
            Fault::Byzantine,
            Fault::LateDuplicate,
            Fault::DroppedFirstContact,
            Fault::DuplicatedFirstContact,
            Fault::ReplacedMidRun,
        ] {
            run_case(tier, fault);
        }
        for fault in [SessionFault::Slow, SessionFault::Silent] {
            run_session_case(tier, fault);
        }
        for fault in [
            WindowFault::UnprovenHoldsOne,
            WindowFault::SlowStaysAtOne,
            WindowFault::FastDeepens,
            WindowFault::DiesHoldingWindow,
            WindowFault::OutOfOrder,
            WindowFault::ResultLostSecondQueued,
            WindowFault::StaleReplay,
        ] {
            run_window_case(tier, fault);
        }
    }
}

/// Faults a scripted shard master injects in front of the frontend.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TileFault {
    /// Spends three credits, then dies holding the three tiles.
    DiesHoldingWindow,
    /// Answers a window of three tiles in reverse.
    OutOfOrder,
    /// Holds two tiles with heartbeats flowing and answers neither: the
    /// cap costs it the connection, and the tiles go to another master.
    CappedNotRegrantedToHolder,
    /// Answers a tile, then replays the answer.
    StaleReplay,
    /// Answers a tile with outcomes for jobs it was never given.
    Byzantine,
}

/// A scripted shard master: spends credits, keeps the chain table a real
/// one keeps, and checks every grant against it.
struct ScriptedMaster {
    conn: Box<dyn Conn>,
    master_id: u32,
    table: HashMap<u32, Arc<CaChain>>,
    shipped: Vec<u32>,
    referenced: BTreeSet<u32>,
    granted: Vec<u32>,
}

impl ScriptedMaster {
    fn connect(net: &MemNet, name: &str) -> ScriptedMaster {
        let mut conn = net.connect().expect("scripted master connect");
        let (welcome, _, _) = hello(&mut conn, name).expect("handshake");
        ScriptedMaster {
            conn,
            master_id: welcome.worker_id,
            table: HashMap::new(),
            shipped: Vec::new(),
            referenced: BTreeSet::new(),
            granted: Vec::new(),
        }
    }

    fn credit(&mut self, n: usize) {
        let credit = Frame::StealRequest(StealRequest {
            master_id: self.master_id,
            tiles_done: 0,
        });
        for _ in 0..n {
            proto::write_frame(&mut self.conn, &credit).expect("credit write");
        }
    }

    /// The next grant, absorbed; `None` once the frontend says Shutdown
    /// or drops the connection.
    fn next_grant(&mut self) -> Option<TileGrant> {
        let grant = loop {
            match proto::read_frame(&mut self.conn) {
                Ok((Frame::TileGrant(grant), _)) => break grant,
                Ok((Frame::Shutdown, _)) | Err(_) => return None,
                Ok(_) => {}
            }
        };
        for (ix, chain) in &grant.chains {
            assert!(
                self.table.insert(*ix, Arc::clone(chain)).is_none(),
                "chain {ix} granted twice on one connection"
            );
            self.shipped.push(*ix);
        }
        for ix in rckalign::chain_indices(&grant.jobs) {
            assert!(
                self.table.contains_key(&ix),
                "tile {} references chain {ix} this connection never received",
                grant.tile_id
            );
            self.referenced.insert(ix);
        }
        self.granted.push(grant.tile_id);
        Some(grant)
    }

    fn send_result(&mut self, tile_id: u32, outcomes: Vec<PairOutcome>) {
        let frame = Frame::TileResult(TileResult { tile_id, outcomes });
        proto::write_frame(&mut self.conn, &frame).expect("result write");
    }

    fn compute(&self, grant: &TileGrant) -> Vec<PairOutcome> {
        grant
            .jobs
            .iter()
            .map(|job| {
                let score = job
                    .method
                    .instantiate()
                    .compare(&self.table[&job.i], &self.table[&job.j]);
                PairOutcome {
                    i: job.i,
                    j: job.j,
                    method: job.method,
                    similarity: score.similarity,
                    rmsd: score.rmsd.unwrap_or(f64::NAN),
                    aligned_len: score.aligned_len as u32,
                    ops: score.ops,
                }
            })
            .collect()
    }

    fn answer(&mut self, grant: &TileGrant) {
        let outcomes = self.compute(grant);
        self.send_result(grant.tile_id, outcomes);
    }

    /// Serve honestly, one credit per tile, until the frontend says
    /// Shutdown.
    fn serve_out(&mut self) {
        loop {
            self.credit(1);
            let Some(grant) = self.next_grant() else {
                return;
            };
            self.answer(&grant);
        }
    }
}

fn run_tile_case(fault: TileFault) {
    let case = &format!("Shard/{fault:?}");
    let chains = tiny_profile().generate(7);
    let tiles = rckalign::tile_partition(chains.len(), 2).len() as u64;
    let net = MemNet::new();
    let frontend = ShardFrontend::bind_on(
        net.listener(),
        chains.clone(),
        ShardConfig {
            tile_size: 2,
            masters: 1,
            // Microsecond pairs: the scripted master computes between
            // reads without heartbeating, so a tile must not take long.
            method: MethodKind::KabschRmsd,
            heartbeat_timeout: HEARTBEAT_TIMEOUT,
            tile_timeout: Some(BATCH_TIMEOUT),
            ..ShardConfig::default()
        },
    );
    let stats = frontend.stats();
    let run = std::thread::spawn(move || frontend.run());
    let counters = || {
        let s = stats.snapshot();
        Counters {
            requeued: s.tiles_requeued,
            completed: s.tiles_completed,
            workers_lost: s.masters_lost,
            stale: Some(s.duplicate_tiles),
            mismatched: Some(s.mismatched_tiles),
        }
    };
    let wait = |limit: Duration, ready: &dyn Fn(&Counters) -> bool| {
        let start = Instant::now();
        while !ready(&counters()) {
            assert!(start.elapsed() < limit, "{case}: {:?}", counters());
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    let mut m = ScriptedMaster::connect(&net, "scripted");
    // Tiles the scripted master held when it was lost.
    let mut lost = Vec::new();
    let mut stale = 0;
    match fault {
        TileFault::DiesHoldingWindow => {
            m.credit(3);
            lost = (0..3)
                .map(|_| m.next_grant().expect("grant").tile_id)
                .collect();
            m.conn.shutdown();
        }
        TileFault::OutOfOrder => {
            m.credit(3);
            let held: Vec<TileGrant> = (0..3).map(|_| m.next_grant().expect("grant")).collect();
            for grant in held.iter().rev() {
                m.answer(grant);
            }
            m.serve_out();
        }
        TileFault::CappedNotRegrantedToHolder => {
            m.credit(2);
            lost = (0..2)
                .map(|_| m.next_grant().expect("grant").tile_id)
                .collect();
            let taken = Instant::now();
            let beat = Frame::Heartbeat(Heartbeat {
                worker_id: m.master_id,
                completed: 0,
            });
            while counters().workers_lost == 0 {
                assert!(
                    taken.elapsed() < BATCH_TIMEOUT + SLACK,
                    "{case}: never capped"
                );
                let _ = proto::write_frame(&mut m.conn, &beat);
                std::thread::sleep(Duration::from_millis(25));
            }
            let waited = taken.elapsed();
            assert!(
                waited >= BATCH_TIMEOUT.mul_f64(0.9),
                "{case}: lost after {waited:?} although heartbeats flowed"
            );
            assert!(
                m.next_grant().is_none(),
                "{case}: a master past its cap must end, not be granted its tiles back"
            );
        }
        TileFault::StaleReplay => {
            m.credit(1);
            let grant = m.next_grant().expect("grant");
            let outcomes = m.compute(&grant);
            m.send_result(grant.tile_id, outcomes.clone());
            m.send_result(grant.tile_id, outcomes);
            stale = 1;
            m.serve_out();
        }
        TileFault::Byzantine => {
            m.credit(1);
            let grant = m.next_grant().expect("grant");
            let alien = PairOutcome {
                i: 1000,
                j: 1001,
                method: MethodKind::TmAlign,
                similarity: 1.0,
                rmsd: 0.0,
                aligned_len: 1,
                ops: 1,
            };
            m.send_result(grant.tile_id, vec![alien; grant.jobs.len()]);
            lost = vec![grant.tile_id];
            assert!(
                m.next_grant().is_none(),
                "{case}: a byzantine master is dropped"
            );
        }
    }

    if !lost.is_empty() {
        let n = lost.len() as u64;
        wait(SLACK, &|c| c.requeued == n && c.workers_lost == 1);
        // The takeover starts from nothing and is sent exactly what its
        // tiles reference — among them every tile the lost master held.
        let mut t = ScriptedMaster::connect(&net, "takeover");
        t.serve_out();
        t.shipped.sort_unstable();
        assert_eq!(
            t.shipped,
            t.referenced.iter().copied().collect::<Vec<_>>(),
            "{case}: the takeover was sent exactly the chains its tiles reference"
        );
        assert!(
            lost.iter().all(|tile| t.granted.contains(tile)),
            "{case}: the lost master's tiles moved to the takeover"
        );
        t.conn.shutdown();
    }
    let run = run
        .join()
        .expect("frontend thread")
        .expect("sharded run completes");
    let c = counters();
    assert_eq!(c.completed, tiles, "{case}: each tile accepted once");
    assert_eq!(
        c.requeued,
        lost.len() as u64,
        "{case}: exactly what it held"
    );
    assert_eq!(c.workers_lost, u64::from(!lost.is_empty()), "{case}");
    assert_eq!(c.stale, Some(stale), "{case}");
    let byzantine = u64::from(fault == TileFault::Byzantine);
    assert_eq!(c.mismatched, Some(byzantine), "{case}");
    let options = rckalign::RckAlignOptions {
        method: MethodKind::KabschRmsd,
        ..rckalign::RckAlignOptions::paper(2)
    };
    let want = rckalign::run_all_vs_all(&rckalign::PairCache::new(chains), &options);
    assert_eq!(
        outcomes_fingerprint(&run.outcomes),
        outcomes_fingerprint(&want.outcomes),
        "{case}: merged matrix diverges from the in-process reference"
    );
    m.conn.shutdown();
}

#[test]
fn tile_rows_hold_for_the_shard_frontend() {
    for fault in [
        TileFault::DiesHoldingWindow,
        TileFault::OutOfOrder,
        TileFault::CappedNotRegrantedToHolder,
        TileFault::StaleReplay,
        TileFault::Byzantine,
    ] {
        run_tile_case(fault);
    }
}
