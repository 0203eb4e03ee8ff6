//! End-to-end gate tests over the in-memory network: a real gate, real
//! workers (`rck_serve::run_worker_conn`) and real clients, with every
//! frame passing through the v3 codec. The load-bearing assertion
//! throughout: the ranking a client reassembles from its partial stream
//! is **bit-identical** to an in-process one-vs-all run.

use rck_gate::{reference_ranking, Gate, GateClient, GateConfig, QueryEvent};
use rck_pdb::datasets::tiny_profile;
use rck_pdb::model::CaChain;
use rck_serve::proto::QuerySubmit;
use rck_serve::transport::{Conn, Listener, MemNet};
use rck_serve::{run_worker_conn, WorkerConfig};
use rck_tmalign::MethodKind;
use rckalign::consensus::Combiner;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Harness {
    worker_net: Arc<MemNet>,
    client_net: Arc<MemNet>,
    handle: rck_gate::GateHandle,
    stats: Arc<rck_gate::GateStats>,
    gate_thread: std::thread::JoinHandle<rck_gate::GateReport>,
    db: Vec<CaChain>,
}

/// A client-plane connection whose every write (one frame) takes 30 ms
/// to leave: the gate's session writer is still holding a frame long
/// after the pool has queued it.
struct SlowConn(Box<dyn Conn>);

impl std::io::Read for SlowConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl std::io::Write for SlowConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(30));
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Conn for SlowConn {
    fn try_clone(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(SlowConn(self.0.try_clone()?)))
    }

    fn shutdown(&self) {
        self.0.shutdown();
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
}

/// A listener whose accepted connections are [`SlowConn`]s.
struct SlowListener(Box<dyn Listener>);

impl Listener for SlowListener {
    fn poll_accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        let conn = self.0.poll_accept()?;
        Ok(conn.map(|c| Box::new(SlowConn(c)) as Box<dyn Conn>))
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        self.0.local_addr()
    }
}

fn boot(cfg: GateConfig) -> Harness {
    boot_on(cfg, |clients| clients)
}

/// [`boot`] with the client-plane listener passed through `wrap`.
fn boot_on(cfg: GateConfig, wrap: fn(Box<dyn Listener>) -> Box<dyn Listener>) -> Harness {
    let db = tiny_profile().generate(42);
    let worker_net = Arc::new(MemNet::new());
    let client_net = Arc::new(MemNet::new());
    let gate = Gate::bind_on(
        worker_net.listener(),
        wrap(client_net.listener()),
        db.clone(),
        cfg,
    );
    let handle = gate.handle();
    let stats = gate.stats();
    let gate_thread = std::thread::spawn(move || gate.run());
    Harness {
        worker_net,
        client_net,
        handle,
        stats,
        gate_thread,
        db,
    }
}

impl Harness {
    fn spawn_worker(&self, name: &str, fail_after: Option<usize>) -> std::thread::JoinHandle<()> {
        let conn = self.worker_net.connect().expect("worker connect");
        let name = name.to_string();
        std::thread::spawn(move || {
            let mut cfg = WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 0)));
            cfg.name = name;
            // Well inside the shortest `heartbeat_timeout` a test configures.
            cfg.heartbeat_interval = Duration::from_millis(10);
            cfg.fail_after_batches = fail_after;
            let _ = run_worker_conn(conn, &cfg);
        })
    }

    fn client(&self, name: &str) -> GateClient {
        GateClient::connect(self.client_net.connect().expect("client connect"), name)
            .expect("client handshake")
    }

    fn finish(self) -> rck_gate::GateReport {
        self.handle.drain();
        self.gate_thread.join().expect("gate thread")
    }
}

fn submit(tenant: &str, query_id: u64, weight: u32, chain: CaChain) -> QuerySubmit {
    QuerySubmit {
        tenant: tenant.to_string(),
        query_id,
        weight,
        methods: vec![MethodKind::TmAlign],
        chain,
    }
}

fn assert_bit_identical(got: &[(u32, f64)], want: &[(u32, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: ranking length differs");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "{what}: neighbour {k} index differs");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{what}: neighbour {k} score differs in bits"
        );
    }
}

/// The acceptance-criteria test: one query, streamed over the loopback,
/// reassembles to exactly the in-process reference ranking, and the
/// partial stream carries exactly one outcome per expanded pair job.
#[test]
fn streamed_ranking_is_bit_identical_to_in_process() {
    let h = boot(GateConfig {
        batch_size: 3,
        ..GateConfig::default()
    });
    h.spawn_worker("w0", None);
    let query = tiny_profile().generate(77)[0].clone();
    let mut client = h.client("lab-a");
    assert_eq!(client.n_chains() as usize, h.db.len());
    let outcome = client
        .run_query(submit("lab-a", 1, 1, query.clone()))
        .expect("query");
    let expect = reference_ranking(&h.db, &query, &[MethodKind::TmAlign], Combiner::MeanRank);
    assert_bit_identical(
        outcome.ranking.as_deref().expect("completed"),
        &expect,
        "clean run",
    );
    // Stream exactness: one outcome per pair job, every db index once.
    assert_eq!(outcome.outcomes.len(), h.db.len());
    let mut seen: Vec<u32> = outcome.outcomes.iter().map(|o| o.i.min(o.j)).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..h.db.len() as u32).collect::<Vec<_>>());
    assert!(outcome.partials >= 1);
    client.finish().expect("goodbye");
    let report = h.finish();
    assert_eq!(report.stats.queries_completed, 1);
    assert_eq!(report.stats.jobs_completed as usize, seen.len());
}

/// Same bit-identity bar with a worker that dies after its first batch:
/// the requeue path must re-run its lost jobs, not lose or double them.
#[test]
fn ranking_survives_a_worker_crash() {
    let h = boot(GateConfig {
        batch_size: 2,
        heartbeat_timeout: Duration::from_millis(200),
        ..GateConfig::default()
    });
    h.spawn_worker("crasher", Some(1));
    h.spawn_worker("survivor", None);
    let query = tiny_profile().generate(78)[1].clone();
    let mut client = h.client("lab-a");
    let outcome = client
        .run_query(submit("lab-a", 1, 1, query.clone()))
        .expect("query");
    let expect = reference_ranking(&h.db, &query, &[MethodKind::TmAlign], Combiner::MeanRank);
    assert_bit_identical(
        outcome.ranking.as_deref().expect("completed"),
        &expect,
        "crash run",
    );
    assert_eq!(
        outcome.outcomes.len(),
        h.db.len(),
        "no lost or doubled jobs"
    );
    client.finish().expect("goodbye");
    let report = h.finish();
    assert_eq!(report.stats.queries_completed, 1);
}

/// Multi-tenant fairness: a flooder queues six queries before any worker
/// exists; a light tenant then submits one heavily-weighted query. With
/// a single worker draining the stride scheduler, the light tenant's
/// answer must arrive well before the flooder's last.
#[test]
fn weighted_fairness_prefers_the_light_tenant() {
    let h = boot(GateConfig {
        batch_size: 2,
        ..GateConfig::default()
    });
    let chains = tiny_profile().generate(79);
    let mut flooder = h.client("flood");
    for q in 0..6 {
        flooder
            .submit(submit("flood", q, 1, chains[q as usize].clone()))
            .expect("flood submit");
    }
    let mut light = h.client("light");
    // Both tenants' backlogs staged before the worker connects, so the
    // scheduler's choices are purely weight-driven.
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.snapshot().queries_submitted < 6 {
        assert!(Instant::now() < deadline, "submissions not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let light_thread = std::thread::spawn(move || {
        let outcome = light
            .run_query(submit("light", 100, 8, chains[6].clone()))
            .expect("light query");
        (Instant::now(), outcome)
    });
    // Give the light submission time to stage, then start the farm.
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.snapshot().queries_submitted < 7 {
        assert!(Instant::now() < deadline, "light submission not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    h.spawn_worker("solo", None);

    let mut flood_done = 0;
    let flood_last_at = loop {
        match flooder.next_event().expect("flood event") {
            QueryEvent::Done(_) => {
                flood_done += 1;
                if flood_done == 6 {
                    break Instant::now();
                }
            }
            QueryEvent::Partial(_) => {}
            other => panic!("unexpected flood event: {other:?}"),
        }
    };
    let (light_done_at, light_outcome) = light_thread.join().expect("light thread");
    assert!(light_outcome.completed(), "light query not answered");
    assert!(
        light_done_at < flood_last_at,
        "weighted tenant finished after the flooder's last query"
    );
    let expect = reference_ranking(
        &h.db,
        &tiny_profile().generate(79)[6],
        &[MethodKind::TmAlign],
        Combiner::MeanRank,
    );
    assert_bit_identical(
        light_outcome.ranking.as_deref().unwrap(),
        &expect,
        "light tenant under contention",
    );
    flooder.finish().expect("goodbye");
    h.finish();
}

/// Every query's chain lives at the same virtual index, `db.len()`. Two
/// tenants of equal weight staged before the only worker connects are
/// served batch by batch in turn, so that one slot on that one
/// connection changes hands again and again: each change must re-ship
/// the chain (an index-only residency check computes one tenant's jobs
/// against the other's query), and nothing else ships twice.
#[test]
fn interleaved_queries_share_the_query_slot_without_mixing() {
    let h = boot(GateConfig {
        batch_size: 2,
        ..GateConfig::default()
    });
    let chains = tiny_profile().generate(83);
    let mut a = h.client("lab-a");
    let mut b = h.client("lab-b");
    a.submit(submit("lab-a", 1, 1, chains[0].clone()))
        .expect("a");
    b.submit(submit("lab-b", 2, 1, chains[1].clone()))
        .expect("b");
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.snapshot().queries_submitted < 2 {
        assert!(Instant::now() < deadline, "submissions not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    h.spawn_worker("solo", None);

    let collect = |client: &mut GateClient, query_id: u64| -> Vec<(u32, f64)> {
        loop {
            match client.next_event().expect("event") {
                QueryEvent::Done(d) if d.query_id == query_id => return d.ranking,
                QueryEvent::Partial(p) if p.query_id == query_id => {}
                other => panic!("unexpected event: {other:?}"),
            }
        }
    };
    for (client, query_id, query) in [(&mut a, 1, &chains[0]), (&mut b, 2, &chains[1])] {
        let want = reference_ranking(&h.db, query, &[MethodKind::TmAlign], Combiner::MeanRank);
        assert_bit_identical(&collect(client, query_id), &want, "interleaved tenant");
    }
    a.finish().expect("goodbye");
    b.finish().expect("goodbye");
    let db_len = h.db.len() as u64;
    let report = h.finish();
    let batches = 2 * db_len.div_ceil(2);
    let slot_ships = report.stats.chains_shipped - db_len;
    assert!(
        (3..=batches).contains(&slot_ships),
        "the query slot changed hands between batches: {slot_ships} ships over {batches} batches"
    );
}

/// Identical submissions from two tenants coalesce into one computation:
/// both get bit-identical answers, the pair jobs are dispatched once.
#[test]
fn duplicate_queries_coalesce_and_dispatch_once() {
    let h = boot(GateConfig {
        batch_size: 4,
        ..GateConfig::default()
    });
    let query = tiny_profile().generate(80)[2].clone();
    let mut a = h.client("lab-a");
    let mut b = h.client("lab-b");
    a.submit(submit("lab-a", 1, 1, query.clone())).expect("a");
    // Stage the duplicate before any worker can finish the original.
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.snapshot().queries_submitted < 1 {
        assert!(Instant::now() < deadline, "first submission not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    b.submit(submit("lab-b", 2, 1, query.clone())).expect("b");
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.queries_coalesced() < 1 {
        assert!(Instant::now() < deadline, "duplicate did not coalesce");
        std::thread::sleep(Duration::from_millis(5));
    }
    h.spawn_worker("w0", None);

    let collect = |client: &mut GateClient, query_id: u64| -> Vec<(u32, f64)> {
        loop {
            match client.next_event().expect("event") {
                QueryEvent::Done(d) if d.query_id == query_id => return d.ranking,
                QueryEvent::Partial(p) if p.query_id == query_id => {}
                other => panic!("unexpected event: {other:?}"),
            }
        }
    };
    let ranking_a = collect(&mut a, 1);
    let ranking_b = collect(&mut b, 2);
    let expect = reference_ranking(&h.db, &query, &[MethodKind::TmAlign], Combiner::MeanRank);
    assert_bit_identical(&ranking_a, &expect, "subscriber a");
    assert_bit_identical(&ranking_b, &expect, "subscriber b");
    a.finish().expect("goodbye");
    b.finish().expect("goodbye");
    let db_len = h.db.len();
    let report = h.finish();
    assert_eq!(report.stats.queries_coalesced, 1);
    assert_eq!(
        report.stats.jobs_dispatched as usize, db_len,
        "coalesced duplicate must not re-dispatch the jobs"
    );
}

/// Drain semantics: admitted queries finish with full fidelity, new ones
/// are refused with an explicit reason, then `run()` returns.
#[test]
fn drain_rejects_new_queries_then_returns() {
    let h = boot(GateConfig::default());
    let chains = tiny_profile().generate(81);
    let mut client = h.client("lab-a");
    // Stage a query with no worker attached, so the gate cannot finish
    // (and therefore cannot exit) before the drain is observed.
    client
        .submit(submit("lab-a", 1, 1, chains[0].clone()))
        .expect("pre-drain submit");
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.snapshot().queries_submitted < 1 {
        assert!(Instant::now() < deadline, "submission not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    h.handle.drain();
    let refused = client
        .run_query(submit("lab-a", 2, 1, chains[1].clone()))
        .expect("post-drain reply");
    assert!(!refused.completed());
    assert!(
        refused
            .rejected
            .as_deref()
            .unwrap_or("")
            .contains("draining"),
        "expected an explicit drain reject, got {refused:?}"
    );
    // The admitted query still runs to completion once a worker shows up.
    h.spawn_worker("late", None);
    let ranking = loop {
        match client.next_event().expect("event") {
            QueryEvent::Done(d) if d.query_id == 1 => break d.ranking,
            QueryEvent::Partial(p) if p.query_id == 1 => {}
            other => panic!("unexpected event: {other:?}"),
        }
    };
    let expect = reference_ranking(
        &h.db,
        &chains[0],
        &[MethodKind::TmAlign],
        Combiner::MeanRank,
    );
    assert_bit_identical(&ranking, &expect, "drained gate");
    let report = h.gate_thread.join().expect("gate returned after drain");
    assert_eq!(report.stats.queries_completed, 1);
    assert_eq!(report.stats.queries_rejected, 1);
}

/// A settled drain ends a session in order: what the pool queued for it
/// is flushed — however slowly the client's connection takes it — and
/// only then does the connection close. The gate used to hard-stop the
/// moment the last run completed, closing the connection under a writer
/// that had not yet written the final ranking.
#[test]
fn a_drained_gate_delivers_the_last_ranking_before_closing() {
    let h = boot_on(GateConfig::default(), |clients| {
        Box::new(SlowListener(clients))
    });
    let query = tiny_profile().generate(84)[0].clone();
    let mut client = h.client("lab-a");
    client
        .submit(submit("lab-a", 1, 1, query.clone()))
        .expect("submit");
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.snapshot().queries_submitted < 1 {
        assert!(Instant::now() < deadline, "submission not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    h.handle.drain();
    h.spawn_worker("late", None);
    let ranking = loop {
        match client.next_event().expect("event") {
            QueryEvent::Done(d) if d.query_id == 1 => break d.ranking,
            QueryEvent::Partial(p) if p.query_id == 1 => {}
            other => panic!("the stream ended without the ranking: {other:?}"),
        }
    };
    let expect = reference_ranking(&h.db, &query, &[MethodKind::TmAlign], Combiner::MeanRank);
    assert_bit_identical(&ranking, &expect, "slow client on a drained gate");
    assert_eq!(
        client.next_event().expect("clean end of stream"),
        QueryEvent::Ended
    );
    let report = h.gate_thread.join().expect("gate returned after drain");
    assert_eq!(report.stats.queries_completed, 1);
}

/// Fault isolation on the query plane: a client that vanishes mid-query
/// must not disturb another tenant's stream — and its abandoned run
/// still finishes so the backlog drains.
#[test]
fn client_disconnect_does_not_corrupt_the_other_tenant() {
    let h = boot(GateConfig {
        batch_size: 1,
        ..GateConfig::default()
    });
    let chains = tiny_profile().generate(82);
    let mut vanisher = h.client("vanish");
    let mut steady = h.client("steady");
    vanisher
        .submit(submit("vanish", 1, 1, chains[3].clone()))
        .expect("vanish submit");
    steady
        .submit(submit("steady", 2, 1, chains[4].clone()))
        .expect("steady submit");
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.stats.snapshot().queries_submitted < 2 {
        assert!(Instant::now() < deadline, "submissions not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The vanisher drops its connection before any result exists.
    drop(vanisher);
    h.spawn_worker("w0", None);

    let ranking = loop {
        match steady.next_event().expect("steady event") {
            QueryEvent::Done(d) if d.query_id == 2 => break d.ranking,
            QueryEvent::Partial(p) if p.query_id == 2 => {}
            other => panic!("unexpected steady event: {other:?}"),
        }
    };
    let expect = reference_ranking(
        &h.db,
        &chains[4],
        &[MethodKind::TmAlign],
        Combiner::MeanRank,
    );
    assert_bit_identical(&ranking, &expect, "steady tenant");
    steady.finish().expect("goodbye");
    let report = h.finish();
    // Both runs completed — the abandoned one simply had nobody to tell.
    assert_eq!(report.stats.queries_completed, 2);
}

/// Every wait is bounded: a client that connects and never says Hello is
/// not yet a session `stop()` can close, so its handler must time the
/// handshake out on its own — or `run()` never returns.
#[test]
fn a_silent_client_does_not_keep_run_from_returning() {
    let h = boot(GateConfig {
        heartbeat_timeout: Duration::from_millis(100),
        ..GateConfig::default()
    });
    let _silent = h.client_net.connect().expect("silent connect");
    h.spawn_worker("w0", None);
    let query = tiny_profile().generate(83)[0].clone();
    let mut client = h.client("lab-a");
    let outcome = client
        .run_query(submit("lab-a", 1, 1, query))
        .expect("query");
    assert!(outcome.ranking.is_some(), "healthy query completed");
    client.finish().expect("goodbye");

    h.handle.stop();
    // Join on a helper thread so a gate that never returns fails this
    // test instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(h.gate_thread.join());
    });
    let report = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("run() returns within 1 s of stop()")
        .expect("gate thread");
    assert_eq!(report.stats.queries_completed, 1);
}
