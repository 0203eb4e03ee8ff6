//! Fault-path regression tests for the serve layer.
//!
//! Two of these document bug classes that predate the chaos harness and
//! fail against the pre-harness master:
//!
//! * **decode-error swallowing** — garbage on the wire used to be folded
//!   silently into "worker lost", indistinguishable from ordinary churn;
//!   it is now counted in `rck_serve_decode_errors_total`;
//! * **byzantine results** — a structurally valid ResultBatch carrying
//!   pairs the batch never dispatched used to be accepted straight into
//!   the matrix (an out-of-range pair would panic
//!   `SimilarityMatrix::from_outcomes`); it is now rejected, counted in
//!   `rck_serve_mismatched_results_total`, and the batch requeued.

use rck_serve::chaos::{run_scenario, ScenarioPlan};
use rck_serve::proto::{self, Frame, Hello, ResultBatch};
use rck_serve::transport::MemNet;
use rck_serve::{
    run_worker, run_worker_conn, Master, MasterConfig, WorkerConfig, PROTOCOL_VERSION,
};
use rck_tmalign::MethodKind;
use rckalign::{run_all_vs_all, PairCache, PairOutcome, RckAlignOptions, SimilarityMatrix};
use std::net::TcpStream;
use std::time::Duration;

fn tiny_chains() -> Vec<rck_pdb::model::CaChain> {
    rck_pdb::datasets::tiny_profile().generate(42)
}

fn in_process_matrix(chains: &[rck_pdb::model::CaChain]) -> SimilarityMatrix {
    let cache = PairCache::new(chains.to_vec());
    let run = run_all_vs_all(&cache, &RckAlignOptions::paper(4));
    SimilarityMatrix::from_outcomes(chains.len(), &run.outcomes)
}

fn fast_cfg() -> MasterConfig {
    MasterConfig {
        batch_size: 4,
        heartbeat_timeout: Duration::from_millis(300),
        ..MasterConfig::default()
    }
}

/// Handshake as a worker by hand, so the test controls every byte that
/// follows. Returns the connected stream.
fn handshake_by_hand(addr: std::net::SocketAddr, name: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    proto::write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            protocol_version: PROTOCOL_VERSION,
            worker_name: name.to_string(),
        }),
    )
    .unwrap();
    let (frame, _) = proto::read_frame(&mut stream).unwrap();
    assert!(matches!(frame, Frame::Welcome(_)));
    stream
}

#[test]
fn garbage_on_the_wire_is_counted_not_swallowed() {
    let chains = tiny_chains();
    let expected = in_process_matrix(&chains);
    let master = Master::bind(chains, fast_cfg()).unwrap();
    let addr = master.local_addr();
    let master_thread = std::thread::spawn(move || master.run());

    // A "worker" that handshakes, accepts its first batch, then spews
    // bytes that are not a frame. Pre-harness masters dropped the
    // connection with no trace; the stats must now say what happened.
    {
        use std::io::Write;
        let mut stream = handshake_by_hand(addr, "garbler");
        let (frame, _) = proto::read_frame(&mut stream).unwrap();
        assert!(matches!(frame, Frame::JobBatch(_)));
        stream.write_all(b"this is definitely not a frame").unwrap();
        stream.flush().unwrap();
        // Leave the connection open: only the decode error, not an EOF,
        // can be what the master reacts to.
        std::thread::sleep(Duration::from_millis(200));
    }

    let healthy = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::connect_to(addr);
        cfg.name = "healthy".to_string();
        run_worker(&cfg)
    });
    let run = master_thread.join().unwrap().unwrap();
    healthy.join().unwrap().unwrap();

    assert!(
        run.stats.decode_errors >= 1,
        "decode error was swallowed: {:?}",
        run.stats
    );
    assert!(run.stats.jobs_requeued >= 1, "garbled batch not requeued");
    assert_eq!(run.matrix, expected, "matrix diverged after wire garbage");
}

#[test]
fn byzantine_results_are_rejected_and_requeued() {
    let chains = tiny_chains();
    let n = chains.len();
    let expected = in_process_matrix(&chains);
    let master = Master::bind(chains, fast_cfg()).unwrap();
    let addr = master.local_addr();
    let master_thread = std::thread::spawn(move || master.run());

    // A worker that answers its batch with outcomes for pairs it was
    // never asked about — including one far outside the dataset, which
    // would panic matrix assembly if it were ever accepted.
    {
        let mut stream = handshake_by_hand(addr, "byzantine");
        let (frame, _) = proto::read_frame(&mut stream).unwrap();
        let Frame::JobBatch(batch) = frame else {
            panic!("expected a JobBatch")
        };
        let alien = |i: u32, j: u32| PairOutcome {
            i,
            j,
            method: MethodKind::TmAlign,
            similarity: 0.99,
            rmsd: 0.1,
            aligned_len: 1,
            ops: 1,
        };
        let reply = Frame::ResultBatch(ResultBatch {
            batch_id: batch.batch_id,
            outcomes: vec![alien(0, 1), alien(900, 901)],
        });
        proto::write_frame(&mut stream, &reply).unwrap();
        std::thread::sleep(Duration::from_millis(200));
    }

    let healthy = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::connect_to(addr);
        cfg.name = "healthy".to_string();
        run_worker(&cfg)
    });
    let run = master_thread.join().unwrap().unwrap();
    healthy.join().unwrap().unwrap();

    assert!(
        run.stats.mismatched_results >= 1,
        "byzantine frame was accepted: {:?}",
        run.stats
    );
    assert!(
        run.outcomes
            .iter()
            .all(|o| (o.i as usize) < n && (o.j as usize) < n),
        "an alien pair reached the accepted outcomes"
    );
    assert!(
        run.outcomes.iter().all(|o| o.similarity != 0.99),
        "a byzantine outcome value reached the matrix"
    );
    assert_eq!(
        run.matrix, expected,
        "matrix diverged after byzantine frame"
    );
}

#[test]
fn in_memory_transport_reproduces_the_in_process_matrix() {
    let chains = tiny_chains();
    let expected = in_process_matrix(&chains);
    let net = MemNet::new();
    let master = Master::bind_on(net.listener(), chains, fast_cfg());
    let master_thread = std::thread::spawn(move || master.run());

    let workers: Vec<_> = (0..2)
        .map(|k| {
            let net = net.clone();
            std::thread::spawn(move || {
                let mut cfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
                cfg.name = format!("mem{k}");
                run_worker_conn(net.connect()?, &cfg)
            })
        })
        .collect();
    let run = master_thread.join().unwrap().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    assert_eq!(run.stats.jobs_completed, 28);
    assert_eq!(run.matrix, expected, "in-memory transport diverged");
}

#[test]
fn chaos_scenarios_are_deterministic_and_pass() {
    // A completing seed and an aborting seed, each run twice: the
    // canonical report line must be byte-identical across runs, and both
    // verdicts must match the plan's expectation. (The wider sweep lives
    // in the rck_chaos bin; this keeps two known-shape scenarios on the
    // `cargo test` path.)
    for seed in [0u64, 1] {
        let plan = ScenarioPlan::from_seed(seed);
        let a = run_scenario(&plan);
        let b = run_scenario(&plan);
        assert!(a.pass, "seed {seed} failed: {}", a.line);
        assert!(b.pass, "seed {seed} rerun failed: {}", b.line);
        assert_eq!(
            a.line, b.line,
            "seed {seed} produced a nondeterministic report"
        );
    }
}

/// A handler that unwinds drops its `dispatch::Session` without closing
/// it. The session used to keep heartbeating from its own thread, so the
/// master never lost the worker and its batch never came back; now the
/// drop goes silent and shuts the connection: the worker is declared
/// lost within `heartbeat_timeout`, its batch is requeued, and a healthy
/// worker finishes the matrix bit-identically.
#[test]
fn a_dropped_session_is_lost_and_its_batch_requeued() {
    let chains = tiny_chains();
    let expected = in_process_matrix(&chains);
    let cfg = fast_cfg();
    let timeout = cfg.heartbeat_timeout;
    let net = MemNet::new();
    let master = Master::bind_on(net.listener(), chains, cfg);
    let stats = master.stats();
    let master_thread = std::thread::spawn(move || master.run());

    let mut conn = net.connect().unwrap();
    let handler = std::thread::spawn(move || {
        let session =
            rck_serve::dispatch::Session::open(&mut conn, "unwinds", Duration::from_millis(10))
                .unwrap();
        let first = session.read(&mut conn).unwrap();
        assert!(matches!(first, Frame::JobBatch(_)), "{first:?}");
        panic!("the handler unwinds holding its batch");
    });
    assert!(handler.join().is_err(), "the handler panicked");
    let dropped_at = std::time::Instant::now();
    while stats.snapshot().workers_lost == 0 {
        assert!(
            dropped_at.elapsed() < timeout,
            "the dropped session was not lost within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        stats.snapshot().jobs_requeued >= 1,
        "its batch was requeued"
    );

    let healthy = {
        let net = net.clone();
        std::thread::spawn(move || {
            let mut cfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            cfg.name = "healthy".into();
            run_worker_conn(net.connect()?, &cfg)
        })
    };
    let run = master_thread.join().unwrap().unwrap();
    healthy.join().unwrap().unwrap();
    assert_eq!(run.stats.workers_lost, 1);
    assert_eq!(run.matrix, expected, "matrix diverged after the requeue");
}
