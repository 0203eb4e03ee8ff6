//! End-to-end sharded-farm tests: frontend + shard masters + workers
//! over the in-memory network (and once over real TCP), always checked
//! bit-for-bit against the in-process `run_all_vs_all` ground truth.

use rck_pdb::datasets::tiny_profile;
use rck_pdb::model::CaChain;
use rck_serve::chaos::outcomes_fingerprint;
use rck_serve::dispatch::hello;
use rck_serve::proto::{self, Frame, StealRequest, TileGrant, TileResult};
use rck_serve::{run_worker_conn, Conn, Listener, Master, MasterConfig, MemNet, WorkerConfig};
use rck_shard::{run_shard_master, ShardConfig, ShardFrontend, ShardMasterConfig};
use rck_tmalign::MethodKind;
use rckalign::{
    all_vs_all, run_all_vs_all, tile_partition, PairCache, PairOutcome, RckAlignOptions,
    SimilarityMatrix, StoreBinding,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn reference(chains: &[CaChain]) -> (Vec<PairOutcome>, SimilarityMatrix) {
    let cache = PairCache::new(chains.to_vec());
    let outcomes = run_all_vs_all(&cache, &RckAlignOptions::paper(4)).outcomes;
    let matrix = SimilarityMatrix::from_outcomes(chains.len(), &outcomes);
    (outcomes, matrix)
}

fn worker_cfg(name: String) -> WorkerConfig {
    let mut cfg = WorkerConfig::connect_to("127.0.0.1:0".parse().expect("addr"));
    cfg.name = name;
    cfg.heartbeat_interval = Duration::from_millis(40);
    cfg
}

fn master_cfg(name: String) -> ShardMasterConfig {
    ShardMasterConfig {
        name,
        serve: MasterConfig {
            batch_size: 3,
            heartbeat_timeout: Duration::from_millis(300),
            ..MasterConfig::default()
        },
        heartbeat_interval: Duration::from_millis(50),
        ..ShardMasterConfig::default()
    }
}

/// A booted MemNet shard farm: the frontend's thread (its result and
/// when `run()` returned), the master and worker threads, live counters.
struct BootedFarm {
    frontend: JoinHandle<(std::io::Result<rck_shard::ShardRun>, Instant)>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<rck_shard::ShardStats>,
}

impl BootedFarm {
    fn join(self) -> (rck_shard::ShardRun, Arc<rck_shard::ShardStats>, Instant) {
        for t in self.threads {
            t.join().expect("farm thread");
        }
        let (run, returned_at) = self.frontend.join().expect("frontend thread");
        (run.expect("sharded run completes"), self.stats, returned_at)
    }
}

/// Boot a full MemNet shard farm; `tune` adjusts master `m`'s
/// configuration and that of its workers.
fn boot_memnet_farm(
    chains: Vec<CaChain>,
    cfg: ShardConfig,
    masters: usize,
    workers_per_master: usize,
    tune: impl Fn(usize, &mut ShardMasterConfig, &mut WorkerConfig),
) -> BootedFarm {
    let net = MemNet::new();
    let frontend = ShardFrontend::bind_on(net.listener(), chains, cfg);
    let stats = frontend.stats();
    let frontend = std::thread::spawn(move || (frontend.run(), Instant::now()));

    let mut threads = Vec::new();
    for m in 0..masters {
        let worker_net = MemNet::new();
        let conn = net.connect().expect("frontend accepting");
        let mut cfg = master_cfg(format!("m{m}"));
        let mut wcfg = worker_cfg(String::new());
        tune(m, &mut cfg, &mut wcfg);
        for w in 0..workers_per_master {
            let mut wcfg = wcfg.clone();
            wcfg.name = format!("m{m}w{w}");
            let worker_net = worker_net.clone();
            threads.push(std::thread::spawn(move || {
                if let Ok(conn) = worker_net.connect() {
                    let _ = run_worker_conn(conn, &wcfg);
                }
            }));
        }
        threads.push(std::thread::spawn(move || {
            let _ = run_shard_master(conn, worker_net.listener(), &cfg);
        }));
    }
    BootedFarm {
        frontend,
        threads,
        stats,
    }
}

/// Boot a farm and return the frontend's run result. `crash` optionally
/// kills one master (by index) after that many delivered tiles.
fn run_memnet_farm(
    chains: Vec<CaChain>,
    cfg: ShardConfig,
    masters: usize,
    workers_per_master: usize,
    crash: Option<(usize, u32)>,
) -> (rck_shard::ShardRun, Arc<rck_shard::ShardStats>) {
    let farm = boot_memnet_farm(chains, cfg, masters, workers_per_master, |m, cfg, _| {
        cfg.crash_after_tiles = crash.and_then(|(victim, after)| (victim == m).then_some(after));
    });
    let (run, stats, _) = farm.join();
    (run, stats)
}

fn assert_bit_identical(run: &rck_shard::ShardRun, chains: &[CaChain]) {
    let (want_outcomes, want_matrix) = reference(chains);
    assert_eq!(
        run.outcomes.len(),
        want_outcomes.len(),
        "every pair answered exactly once"
    );
    assert_eq!(
        outcomes_fingerprint(&run.outcomes),
        outcomes_fingerprint(&want_outcomes),
        "merged outcomes bit-identical to the single-process run"
    );
    assert_eq!(run.matrix, want_matrix, "merged matrix bit-identical");
}

/// A listener whose first `poll_accept` fails, as an accept may when
/// the process is out of descriptors; every later call is the inner
/// listener's.
struct FailsFirstAccept(Box<dyn Listener>, AtomicBool);

impl FailsFirstAccept {
    fn wrap(inner: Box<dyn Listener>) -> Box<dyn Listener> {
        Box::new(FailsFirstAccept(inner, AtomicBool::new(false)))
    }
}

impl Listener for FailsFirstAccept {
    fn poll_accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        if !self.1.swap(true, Ordering::SeqCst) {
            return Err(std::io::Error::other("injected accept failure"));
        }
        self.0.poll_accept()
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        self.0.local_addr()
    }
}

/// An accept error is logged and the run goes on serving: a batch
/// master and a shard frontend whose first accept fails both finish
/// bit-identical instead of returning the error with their monitor and
/// handlers still running.
#[test]
fn an_accept_error_does_not_end_the_run() {
    let chains = tiny_profile().generate(29);
    let (want, want_matrix) = reference(&chains);

    let net = MemNet::new();
    let cfg = MasterConfig {
        batch_size: 3,
        ..MasterConfig::default()
    };
    let master = Master::bind_on(FailsFirstAccept::wrap(net.listener()), chains.clone(), cfg);
    let conn = net.connect().expect("master accepting");
    let worker = std::thread::spawn(move || run_worker_conn(conn, &worker_cfg("w".into())));
    let run = master.run().expect("an accept error does not end a farm");
    let _ = worker.join();
    assert_eq!(
        outcomes_fingerprint(&run.outcomes),
        outcomes_fingerprint(&want)
    );
    assert_eq!(run.matrix, want_matrix);

    let net = MemNet::new();
    let cfg = ShardConfig {
        tile_size: 4,
        masters: 1,
        ..ShardConfig::default()
    };
    let frontend =
        ShardFrontend::bind_on(FailsFirstAccept::wrap(net.listener()), chains.clone(), cfg);
    let conn = net.connect().expect("frontend accepting");
    let worker_net = MemNet::new();
    let workers = worker_net.listener();
    let master =
        std::thread::spawn(move || run_shard_master(conn, workers, &master_cfg("m".into())));
    let worker_conn = worker_net.connect().expect("shard master accepting");
    let worker = std::thread::spawn(move || run_worker_conn(worker_conn, &worker_cfg("mw".into())));
    let run = frontend
        .run()
        .expect("an accept error does not end a sharded run");
    let _ = (master.join(), worker.join());
    assert_bit_identical(&run, &chains);
}

#[test]
fn two_masters_over_memnet_merge_bit_identical() {
    let chains = tiny_profile().generate(11);
    let cfg = ShardConfig {
        tile_size: 3,
        masters: 2,
        heartbeat_timeout: Duration::from_millis(800),
        ..ShardConfig::default()
    };
    let tiles = tile_partition(chains.len(), 3).len() as u64;
    let (run, stats) = run_memnet_farm(chains.clone(), cfg, 2, 2, None);
    assert_bit_identical(&run, &chains);
    assert_eq!(run.stats.tiles_completed, tiles, "every tile accepted once");
    assert_eq!(run.stats.masters_connected, 2);
    assert_eq!(run.stats.masters_lost, 0);
    assert_eq!(run.stats.mismatched_tiles, 0);
    assert_eq!(stats.tiles_completed(), tiles);
    // Per-master tallies account for every tile exactly once.
    let credited: u64 = run.stats.masters.iter().map(|(_, _, t)| t).sum();
    assert_eq!(credited, tiles);
}

#[test]
fn a_killed_master_is_requeued_onto_the_survivor() {
    let chains = tiny_profile().generate(12);
    let cfg = ShardConfig {
        tile_size: 3,
        masters: 2,
        // Tight deadlines so the dead master is noticed quickly.
        heartbeat_timeout: Duration::from_millis(300),
        tile_timeout: Some(Duration::from_millis(1500)),
        ..ShardConfig::default()
    };
    let (run, _stats) = run_memnet_farm(chains.clone(), cfg, 2, 1, Some((0, 1)));
    assert_bit_identical(&run, &chains);
    assert_eq!(run.stats.masters_lost, 1, "exactly the injected death");
    assert!(
        run.stats.tiles_requeued >= 1,
        "the dead master's granted tiles were requeued: {:?}",
        run.stats
    );
    // The survivor finished everything the victim didn't deliver.
    let survivor = run
        .stats
        .masters
        .iter()
        .find(|(_, name, _)| name == "m1")
        .expect("survivor in the table");
    assert!(survivor.2 > 0);
}

/// `run()` returns when the last tile is accepted: a master's session
/// ends on the frontend's Shutdown, not a heartbeat interval (1 s here)
/// later.
#[test]
fn run_returns_promptly_after_the_last_tile() {
    let chains = tiny_profile().generate(20);
    let cfg = ShardConfig {
        tile_size: 3,
        masters: 2,
        heartbeat_timeout: Duration::from_secs(5),
        ..ShardConfig::default()
    };
    let tiles = tile_partition(chains.len(), 3).len() as u64;
    let farm = boot_memnet_farm(chains.clone(), cfg, 2, 1, |_, cfg, _| {
        cfg.heartbeat_interval = Duration::from_secs(1);
    });
    while farm.stats.tiles_completed() < tiles {
        std::thread::sleep(Duration::from_micros(200));
    }
    let completed_at = Instant::now();
    let (run, _, returned_at) = farm.join();
    assert_bit_identical(&run, &chains);
    let teardown = returned_at.saturating_duration_since(completed_at);
    assert!(
        teardown < Duration::from_millis(50),
        "run() returned {teardown:?} after the last tile"
    );
}

/// A tile that computes for longer than the frontend's heartbeat timeout
/// is carried by its master's heartbeats (and each slow batch, inside the
/// farm, by its worker's): nobody is declared dead, nothing is requeued.
#[test]
fn heartbeats_carry_a_tile_slower_than_the_heartbeat_timeout() {
    let chains: Vec<CaChain> = tiny_profile().generate(21).into_iter().take(5).collect();
    let timeout = Duration::from_millis(300);
    let cfg = ShardConfig {
        tile_size: 4,
        masters: 2,
        heartbeat_timeout: timeout,
        ..ShardConfig::default()
    };
    let farm = boot_memnet_farm(chains.clone(), cfg, 2, 1, |_, cfg, wcfg| {
        // One batch per tile, each slower than both heartbeat timeouts.
        cfg.serve.batch_size = 16;
        assert_eq!(cfg.serve.heartbeat_timeout, timeout);
        wcfg.slow_per_batch = Some(timeout.mul_f64(1.5));
    });
    let (run, _, _) = farm.join();
    assert_bit_identical(&run, &chains);
    assert_eq!(run.stats.masters_lost, 0, "{:?}", run.stats);
    assert_eq!(run.stats.tiles_requeued, 0, "{:?}", run.stats);
}

/// A scripted shard master: pulls one grant per credit and keeps the
/// chain table a real one keeps, so each grant can be checked against
/// what this connection was actually sent.
struct ScriptedMaster {
    conn: Box<dyn Conn>,
    master_id: u32,
    table: HashMap<u32, Arc<CaChain>>,
}

impl ScriptedMaster {
    fn connect(net: &MemNet, name: &str) -> ScriptedMaster {
        let mut conn = net.connect().expect("frontend accepting");
        let (welcome, _, _) = hello(&mut conn, name).expect("handshake");
        ScriptedMaster {
            conn,
            master_id: welcome.worker_id,
            table: HashMap::new(),
        }
    }

    /// Spend one credit; `None` once the frontend says Shutdown.
    fn pull(&mut self) -> Option<TileGrant> {
        let credit = Frame::StealRequest(StealRequest {
            master_id: self.master_id,
            tiles_done: 0,
        });
        proto::write_frame(&mut self.conn, &credit).expect("credit write");
        let grant = match proto::read_frame(&mut self.conn).expect("frontend reply") {
            (Frame::TileGrant(grant), _) => grant,
            (Frame::Shutdown, _) => return None,
            (other, _) => panic!("unexpected frame from the frontend: {other:?}"),
        };
        for (ix, chain) in &grant.chains {
            assert!(
                self.table.insert(*ix, Arc::clone(chain)).is_none(),
                "tile {}: chain {ix} granted twice on one connection",
                grant.tile_id
            );
        }
        for ix in rckalign::chain_indices(&grant.jobs) {
            assert!(
                self.table.contains_key(&ix),
                "tile {} references chain {ix} this master was never granted",
                grant.tile_id
            );
        }
        Some(grant)
    }

    fn answer(&mut self, grant: &TileGrant) {
        let outcomes = grant
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
            .collect();
        let result = Frame::TileResult(TileResult {
            tile_id: grant.tile_id,
            outcomes,
        });
        proto::write_frame(&mut self.conn, &result).expect("result write");
    }
}

/// Grants are deltas per connection, so a tile requeued from a dead
/// master must reach the survivor with every chain the *survivor* lacks
/// — what the victim had been sent is gone with its connection — and
/// none it already holds.
#[test]
fn a_requeued_tile_brings_the_survivor_every_chain_it_lacks() {
    let chains = tiny_profile().generate(19);
    let cfg = ShardConfig {
        tile_size: 3,
        masters: 2,
        heartbeat_timeout: Duration::from_secs(5),
        ..ShardConfig::default()
    };
    let net = MemNet::new();
    let frontend = ShardFrontend::bind_on(net.listener(), chains.clone(), cfg);
    let frontend_thread = std::thread::spawn(move || frontend.run());

    let mut victim = ScriptedMaster::connect(&net, "victim");
    let mut survivor = ScriptedMaster::connect(&net, "survivor");
    let orphan = victim.pull().expect("victim's first grant");
    assert!(!orphan.chains.is_empty(), "first contact carries chains");
    // The survivor already holds part of what the orphan references.
    let own = survivor.pull().expect("survivor's first grant");
    survivor.answer(&own);
    victim.conn.shutdown();

    let mut regranted = None;
    while let Some(grant) = survivor.pull() {
        if grant.tile_id == orphan.tile_id {
            regranted = Some(grant.chains.len());
        }
        survivor.answer(&grant);
    }
    survivor.conn.shutdown();
    let brought = regranted.expect("the victim's tile was re-granted to the survivor");
    assert!(
        brought <= orphan.chains.len(),
        "the re-grant is a delta against the survivor, not a copy of the victim's"
    );
    let run = frontend_thread
        .join()
        .expect("frontend thread")
        .expect("run completes on the survivor");
    assert_bit_identical(&run, &chains);
    assert_eq!(run.stats.masters_lost, 1);
    assert_eq!(run.stats.tiles_requeued, 1, "exactly the victim's tile");
}

#[test]
fn stealing_drains_an_unserved_slot() {
    // Three ownership queues but only two masters ever connect: the
    // third slot's tiles can only complete by being stolen.
    let chains = tiny_profile().generate(13);
    let cfg = ShardConfig {
        tile_size: 2,
        masters: 3,
        heartbeat_timeout: Duration::from_millis(800),
        ..ShardConfig::default()
    };
    let (run, _stats) = run_memnet_farm(chains.clone(), cfg, 2, 1, None);
    assert_bit_identical(&run, &chains);
    assert!(
        run.stats.tiles_stolen >= 1,
        "slot 2's tiles must be stolen: {:?}",
        run.stats
    );
}

#[test]
fn tcp_end_to_end_small() {
    let chains: Vec<CaChain> = tiny_profile().generate(14).into_iter().take(6).collect();
    let cfg = ShardConfig {
        tile_size: 3,
        masters: 2,
        heartbeat_timeout: Duration::from_millis(800),
        ..ShardConfig::default()
    };
    let frontend = ShardFrontend::bind(chains.clone(), cfg).expect("bind frontend");
    let fe_addr = frontend.local_addr();
    let frontend_thread = std::thread::spawn(move || frontend.run());

    let mut threads = Vec::new();
    for m in 0..2 {
        let listener =
            rck_serve::transport::TcpChannelListener::bind("127.0.0.1:0".parse().expect("addr"))
                .expect("bind master listener");
        let farm_addr = rck_serve::Listener::local_addr(&listener).expect("tcp has an addr");
        let conn =
            Box::new(rck_serve::transport::TcpConn::connect(fe_addr).expect("dial frontend"));
        let cfg = master_cfg(format!("tcp-m{m}"));
        threads.push(std::thread::spawn(move || {
            let _ = run_shard_master(conn, Box::new(listener), &cfg);
        }));
        threads.push(std::thread::spawn(move || {
            let mut cfg = worker_cfg(format!("tcp-m{m}w0"));
            cfg.addr = farm_addr;
            let _ = rck_serve::run_worker(&cfg);
        }));
    }
    for t in threads {
        t.join().expect("farm thread");
    }
    let run = frontend_thread
        .join()
        .expect("frontend thread")
        .expect("tcp sharded run completes");
    assert_bit_identical(&run, &chains);
    assert_eq!(run.stats.masters_connected, 2);
}

/// One deadline rule for every tier: a tile past `tile_timeout` costs
/// its master the connection, as a batch past its cap costs a worker —
/// heartbeats flowing or not. Its tiles move to the survivor, so a tile
/// is never granted back to the master that let it expire.
#[test]
fn a_tile_past_its_cap_costs_its_master_and_moves_to_a_survivor() {
    let chains = tiny_profile().generate(18);
    let cfg = ShardConfig {
        tile_size: 3,
        masters: 2,
        heartbeat_timeout: Duration::from_millis(400),
        tile_timeout: Some(Duration::from_millis(1000)),
        ..ShardConfig::default()
    };
    let farm = boot_memnet_farm(chains.clone(), cfg, 2, 1, |m, cfg, wcfg| {
        // One batch per tile; master 0's worker outlives the tile cap.
        cfg.serve.batch_size = 64;
        if m == 0 {
            wcfg.slow_per_batch = Some(Duration::from_millis(2500));
        }
    });
    let (run, _, _) = farm.join();
    assert_bit_identical(&run, &chains);
    assert_eq!(run.stats.masters_lost, 1, "exactly the slow master");
    assert_eq!(run.stats.mismatched_tiles, 0, "no partial tile answers");
    assert!(
        run.stats.tiles_requeued >= 1,
        "the slow master's tiles were requeued: {:?}",
        run.stats
    );
    let slow = run
        .stats
        .masters
        .iter()
        .find(|(_, name, _)| name == "m0")
        .expect("slow master in the table");
    assert_eq!(slow.2, 0, "no tile of the slow master was accepted");
}

fn scratch_binding(name: &str, chains: &[CaChain]) -> Arc<StoreBinding> {
    let dir = std::env::temp_dir().join(format!("rck-shard-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = rck_store::Store::open(
        dir.join("store.rckstore"),
        rck_store::StoreConfig::on_registry(rck_obs::Registry::new()),
    )
    .expect("open store");
    Arc::new(StoreBinding::new(store, chains))
}

#[test]
fn store_resident_pairs_are_answered_without_dispatch() {
    let chains = tiny_profile().generate(15);
    let binding = scratch_binding("partial", &chains);
    // Precompute a third of the workload into the store.
    let cache = PairCache::new(chains.clone()).with_store(Arc::clone(&binding));
    let jobs = all_vs_all(chains.len(), MethodKind::TmAlign);
    let stored = &jobs[..jobs.len() / 3];
    cache.prefill(stored, 2);

    let cfg = ShardConfig {
        tile_size: 3,
        masters: 2,
        heartbeat_timeout: Duration::from_millis(800),
        ..ShardConfig::default()
    };
    let net = MemNet::new();
    let frontend = ShardFrontend::bind_on(net.listener(), chains.clone(), cfg).with_store(binding);
    let frontend_thread = std::thread::spawn(move || frontend.run());
    let mut threads = Vec::new();
    for m in 0..2 {
        let worker_net = MemNet::new();
        let conn = net.connect().expect("frontend accepting");
        let cfg = master_cfg(format!("s{m}"));
        {
            let worker_net = worker_net.clone();
            threads.push(std::thread::spawn(move || {
                if let Ok(conn) = worker_net.connect() {
                    let _ = run_worker_conn(conn, &worker_cfg(format!("s{m}w0")));
                }
            }));
        }
        threads.push(std::thread::spawn(move || {
            let _ = run_shard_master(conn, worker_net.listener(), &cfg);
        }));
    }
    for t in threads {
        t.join().expect("farm thread");
    }
    let run = frontend_thread
        .join()
        .expect("frontend thread")
        .expect("store-warmed run completes");
    assert_bit_identical(&run, &chains);
    assert_eq!(
        run.stats.store_pairs,
        stored.len() as u64,
        "stored pairs answered from the store"
    );
}

#[test]
fn a_fully_stored_dataset_finishes_with_no_masters_at_all() {
    let chains = tiny_profile().generate(16);
    let binding = scratch_binding("full", &chains);
    let cache = PairCache::new(chains.clone()).with_store(Arc::clone(&binding));
    let jobs = all_vs_all(chains.len(), MethodKind::TmAlign);
    cache.prefill(&jobs, 4);

    let net = MemNet::new();
    let frontend = ShardFrontend::bind_on(net.listener(), chains.clone(), ShardConfig::default())
        .with_store(binding);
    // No master ever connects; the store satisfies every tile.
    let run = frontend.run().expect("fully stored run completes");
    assert_bit_identical(&run, &chains);
    assert_eq!(run.stats.tiles_granted, 0, "nothing was ever dispatched");
    assert_eq!(run.stats.store_pairs, jobs.len() as u64);
}
