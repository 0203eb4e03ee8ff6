//! The shard master: one [`rck_serve::Master`] farm driven by a
//! frontend's tile grants.
//!
//! A shard master is a *worker* to the frontend (same Hello/Welcome
//! handshake, same heartbeats) and a *master* to its own worker pool —
//! the two-level hierarchy of the paper's NoC design, realised over the
//! transport seam. It binds a feed-mode farm ([`Master::bind_feed_on`]),
//! keeps its workers connected across tiles, and pulls work with a
//! credit protocol:
//!
//! 1. after the handshake it sends [`ShardMasterConfig::prefetch`]
//!    [`StealRequest`] credits, so one tile computes while the next
//!    grant is already in flight;
//! 2. every [`rck_serve::proto::TileGrant`] is fed straight into the
//!    farm, whose chain table keeps what each grant brought: later
//!    grants bring only what it lacks (else the session ends);
//! 3. every completed tile goes back as a [`TileResult`] followed by
//!    one fresh credit — the self-clocking loop that makes a fast
//!    master automatically drain (and then steal from) the slow ones.
//!
//! [`ShardMasterConfig::crash_after_tiles`] is the chaos lever: the
//! master dies abruptly — connection torn, farm aborted, completed
//! result unsent — after the configured number of results, exercising
//! the frontend's requeue path.

use rck_serve::dispatch::{hello, send};
use rck_serve::proto::{self, Frame, Heartbeat, StealRequest, TileResult, Welcome};
use rck_serve::stats::StatsSnapshot;
use rck_serve::{Conn, Listener, Master, MasterConfig, MutexExt};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    let (
        Welcome {
            worker_id: master_id,
            ..
        },
        _,
        _,
    ) = hello(&mut conn, &cfg.name)?;

    let (master, feed, tiles_rx) = Master::bind_feed_on(worker_listener, cfg.serve.clone());
    let farm_stats = feed.stats();
    let abort = master.abort_handle();
    let serve_thread = std::thread::spawn(move || master.run());

    let writer = Arc::new(Mutex::new(conn.try_clone()?));
    let stop = Arc::new(AtomicBool::new(false));
    let tiles_done = Arc::new(AtomicU32::new(0));
    let injected = Arc::new(AtomicBool::new(false));

    let heartbeat = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let tiles_done = Arc::clone(&tiles_done);
        let interval = cfg.heartbeat_interval;
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let frame = Frame::Heartbeat(Heartbeat {
                    worker_id: master_id,
                    completed: tiles_done.load(Ordering::SeqCst) as u64,
                });
                if send(&writer, &frame).is_err() {
                    break;
                }
                std::thread::sleep(interval);
            }
        })
    };

    for _ in 0..cfg.prefetch.max(1) {
        send(
            &writer,
            &Frame::StealRequest(StealRequest {
                master_id,
                tiles_done: 0,
            }),
        )?;
    }

    // Forwarder: completed tiles out, one fresh credit per result. A
    // timeout-and-flag loop rather than a blocking recv — the sender
    // side lives inside the farm's `Shared`, which this thread's own
    // handles keep alive, so a plain `recv` could never disconnect.
    let forwarder = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let tiles_done = Arc::clone(&tiles_done);
        let injected = Arc::clone(&injected);
        let crash_after = cfg.crash_after_tiles;
        let abort = abort.clone();
        std::thread::spawn(move || loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match tiles_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(done) => {
                    let sent = tiles_done.load(Ordering::SeqCst);
                    if crash_after == Some(sent) {
                        // Die abruptly: result unsent, connection torn
                        // (unblocking the main reader), farm aborted.
                        injected.store(true, Ordering::SeqCst);
                        writer.lock_recover().shutdown();
                        abort.abort();
                        break;
                    }
                    let result = Frame::TileResult(TileResult {
                        tile_id: done.tile_id,
                        outcomes: done.outcomes,
                    });
                    if send(&writer, &result).is_err() {
                        break;
                    }
                    let n = tiles_done.fetch_add(1, Ordering::SeqCst) + 1;
                    let credit = Frame::StealRequest(StealRequest {
                        master_id,
                        tiles_done: n,
                    });
                    if send(&writer, &credit).is_err() {
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        })
    };

    let session = loop {
        match proto::read_frame(&mut conn) {
            Ok((Frame::TileGrant(grant), _)) => {
                if let Err(e) = feed.submit_tile(grant.tile_id, grant.chains, grant.jobs) {
                    break Err(e);
                }
            }
            Ok((Frame::Shutdown, _)) => break Ok(()),
            Ok(_) => continue,
            // Frontend gone, or our own crash lever tore the connection.
            Err(_) => break Ok(()),
        }
    };

    feed.close();
    let serve_result = serve_thread
        .join()
        .map_err(|_| io::Error::other("farm thread panicked"))?;
    stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();
    let _ = forwarder.join();
    conn.shutdown();

    session?;
    let failed_by_injection = injected.load(Ordering::SeqCst);
    if !failed_by_injection {
        serve_result?;
    }
    Ok(ShardMasterReport {
        master_id,
        tiles_done: tiles_done.load(Ordering::SeqCst),
        failed_by_injection,
        farm: farm_stats.snapshot(),
    })
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
