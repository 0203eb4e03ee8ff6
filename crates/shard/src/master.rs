//! The shard master: one [`rck_serve::Master`] farm driven by a
//! frontend's tile grants.
//!
//! A shard master is a *worker* to the frontend and a *master* to its
//! own worker pool — the two-level hierarchy of the paper's NoC design,
//! realised over the transport seam. The worker side is the one
//! [`Session`] (Hello, heartbeats carrying the tiles-done count, the
//! shared write half); this module is its frame handler and the credit
//! policy: [`ShardMasterConfig::prefetch`] credits after the handshake,
//! every [`rck_serve::proto::TileGrant`] fed straight into a feed-mode
//! farm ([`Master::bind_feed_on`]) whose workers stay connected across
//! tiles, and every completed tile answered with a [`TileResult`] plus
//! one fresh credit.
//!
//! [`ShardMasterConfig::crash_after_tiles`] is the chaos lever: the
//! master dies abruptly — connection torn, farm aborted, completed
//! result unsent — after the configured number of results, exercising
//! the frontend's requeue path.

use rck_serve::dispatch::Session;
use rck_serve::proto::{Frame, StealRequest, TileResult};
use rck_serve::stats::StatsSnapshot;
use rck_serve::{Conn, FeedHandle, Listener, Master, MasterConfig};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Shard-master configuration.
#[derive(Debug, Clone)]
pub struct ShardMasterConfig {
    /// Name shown in the frontend's per-master table.
    pub name: String,
    /// Configuration of the inner worker farm (its `addr` is unused —
    /// the worker listener is passed to [`run_shard_master`] directly).
    pub serve: MasterConfig,
    /// Credits sent right after the handshake; 2 keeps one tile
    /// computing while the next grant is in flight.
    pub prefetch: usize,
    /// How often to heartbeat the frontend.
    pub heartbeat_interval: Duration,
    /// Chaos lever: die abruptly (tear the frontend connection, abort
    /// the farm, *don't* send the result) when this many tile results
    /// have already been sent. `None` runs to completion.
    pub crash_after_tiles: Option<u32>,
}

impl Default for ShardMasterConfig {
    fn default() -> ShardMasterConfig {
        ShardMasterConfig {
            name: "shard-master".to_string(),
            serve: MasterConfig::default(),
            prefetch: 2,
            heartbeat_interval: Duration::from_millis(100),
            crash_after_tiles: None,
        }
    }
}

/// What one shard-master session did.
#[derive(Debug, Clone)]
pub struct ShardMasterReport {
    /// Id the frontend assigned this master.
    pub master_id: u32,
    /// Tile results delivered to the frontend.
    pub tiles_done: u32,
    /// True when [`ShardMasterConfig::crash_after_tiles`] fired.
    pub failed_by_injection: bool,
    /// Final counters of the inner worker farm.
    pub farm: StatsSnapshot,
}

/// Run one shard master: handshake with the frontend over `conn`, serve
/// granted tiles on a feed-mode farm accepting workers on
/// `worker_listener`, and return once the frontend says Shutdown (or
/// the connection is lost, or the crash lever fires).
pub fn run_shard_master(
    mut conn: Box<dyn Conn>,
    worker_listener: Box<dyn Listener>,
    cfg: &ShardMasterConfig,
) -> io::Result<ShardMasterReport> {
    let session = Session::open(&mut conn, &cfg.name, cfg.heartbeat_interval)?;
    let master_id = session.id();
    let credit = |tiles_done: u64| {
        Frame::StealRequest(StealRequest {
            master_id,
            tiles_done: tiles_done as u32,
        })
    };
    let (master, feed, tiles_rx) = Master::bind_feed_on(worker_listener, cfg.serve.clone());
    let abort = master.abort_handle();
    let injected = AtomicBool::new(false);

    let (served, farm) = std::thread::scope(|s| {
        let farm = s.spawn(move || master.run());
        // Forwarder: completed tiles out, one fresh credit per result,
        // until the farm finishes and drops its side of the channel.
        let (session, injected) = (&session, &injected);
        s.spawn(move || {
            for done in tiles_rx {
                if cfg.crash_after_tiles.map(u64::from) == Some(session.progress()) {
                    // Die abruptly: result unsent, connection torn
                    // (unblocking the reader below), farm aborted.
                    injected.store(true, Ordering::SeqCst);
                    session.shutdown();
                    abort.abort();
                    break;
                }
                let result = Frame::TileResult(TileResult {
                    tile_id: done.tile_id,
                    outcomes: done.outcomes,
                });
                let sent = session
                    .send(&result)
                    .and_then(|()| session.send(&credit(session.advance(1))));
                if sent.is_err() {
                    break;
                }
            }
        });
        let served = (0..cfg.prefetch.max(1))
            .try_for_each(|_| session.send(&credit(0)))
            .and_then(|()| feed_grants(session, &mut conn, &feed));
        feed.close();
        (served, farm.join())
    });
    let tiles_done = session.progress() as u32;
    session.close();
    conn.shutdown();

    served?;
    let farm = farm.map_err(|_| io::Error::other("farm thread panicked"))?;
    let failed_by_injection = injected.load(Ordering::SeqCst);
    if !failed_by_injection {
        farm?;
    }
    Ok(ShardMasterReport {
        master_id,
        tiles_done,
        failed_by_injection,
        farm: feed.stats().snapshot(),
    })
}

/// Feed every granted tile into the farm until the frontend says
/// Shutdown or the connection ends (the frontend is gone, or the crash
/// lever tore it).
fn feed_grants(session: &Session, conn: &mut Box<dyn Conn>, feed: &FeedHandle) -> io::Result<()> {
    loop {
        match session.read(conn) {
            Ok(Frame::TileGrant(g)) => feed.submit_tile(g.tile_id, g.chains, g.jobs)?,
            Ok(Frame::Shutdown) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_prefetch_two_tiles() {
        let cfg = ShardMasterConfig::default();
        assert_eq!(cfg.prefetch, 2);
        assert!(cfg.crash_after_tiles.is_none());
        assert_eq!(cfg.heartbeat_interval.as_millis(), 100);
    }

    /// The session ends when the frontend's Shutdown arrives, not a
    /// heartbeat interval (1 s here) later.
    #[test]
    fn returns_promptly_after_the_frontends_shutdown() {
        use rck_serve::proto::{self, Welcome};
        use std::time::Instant;

        let (conn, mut frontend) = rck_serve::MemNet::pair();
        let worker_net = rck_serve::MemNet::new();
        let listener = worker_net.listener();
        let cfg = ShardMasterConfig {
            heartbeat_interval: Duration::from_secs(1),
            ..ShardMasterConfig::default()
        };
        let master = std::thread::spawn(move || {
            let report = run_shard_master(conn, listener, &cfg);
            (report, Instant::now())
        });
        let worker_conn = worker_net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let wcfg = rck_serve::WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            rck_serve::run_worker_conn(worker_conn, &wcfg)
        });

        // Scripted frontend: Welcome, one granted tile, then Shutdown.
        let (hello, _) = proto::read_frame(&mut frontend).unwrap();
        assert!(matches!(hello, Frame::Hello(_)));
        let welcome = Frame::Welcome(Welcome {
            worker_id: 7,
            n_chains: 8,
        });
        proto::write_frame(&mut frontend, &welcome).unwrap();
        let chains = rck_pdb::datasets::tiny_profile().generate(3);
        let tile = rckalign::tile_partition(chains.len(), 4)[0];
        let jobs = tile.jobs(rck_tmalign::MethodKind::TmAlign);
        let grant = Frame::TileGrant(proto::build_tile_grant(tile.id, jobs, &chains));
        proto::write_frame(&mut frontend, &grant).unwrap();
        loop {
            match proto::read_frame(&mut frontend).unwrap().0 {
                Frame::TileResult(result) => break assert_eq!(result.tile_id, tile.id),
                Frame::StealRequest(_) | Frame::Heartbeat(_) => {}
                other => panic!("unexpected frame from the master: {other:?}"),
            }
        }
        proto::write_frame(&mut frontend, &Frame::Shutdown).unwrap();
        let shutdown_at = Instant::now();

        let (report, returned_at) = master.join().unwrap();
        let report = report.expect("session ends cleanly");
        let _ = worker.join();
        assert_eq!((report.master_id, report.tiles_done), (7, 1));
        let teardown = returned_at.saturating_duration_since(shutdown_at);
        assert!(
            teardown < Duration::from_millis(50),
            "run_shard_master returned {teardown:?} after Shutdown"
        );
    }

    #[test]
    fn handshake_failure_is_a_clean_error() {
        // Peer closes immediately: Hello may be written into the buffer,
        // but no Welcome ever arrives.
        let (conn, peer) = rck_serve::MemNet::pair();
        peer.shutdown();
        drop(peer);
        let net = rck_serve::MemNet::new();
        assert!(
            run_shard_master(conn, net.listener(), &ShardMasterConfig::default()).is_err(),
            "handshake against a closed peer must fail"
        );
    }
}
