//! The three serving rigs the workloads drive — batch-mode farm, sharded
//! farm, resident gate — each built from the crates' public API over
//! `MemNet`, with every config field set explicitly so a changed
//! `Default` cannot silently change what is measured.
//!
//! A farm or shard op is timed **to the last result accepted**, read by
//! polling the public stats handle: `Master::run` and
//! `ShardFrontend::run` return on their monitor/heartbeat grids (250 ms
//! and 100 ms here), so a clock stopped at `run()` measures ticks. Both
//! instants are returned; the difference is the teardown padding.

use crate::stats::median;
use crate::trace::Phases;
use crate::workload::Layers;
use rck_gate::{Gate, GateClient, GateConfig, GateHandle, GateReport, GateStats};
use rck_pdb::model::CaChain;
use rck_serve::{
    run_worker_conn, MasterConfig, MemNet, ServeRun, StatsSnapshot, WorkerConfig, WorkerReport,
};
use rck_shard::{
    run_shard_master, ShardConfig, ShardFrontend, ShardMasterConfig, ShardMasterReport, ShardRun,
};
use rck_tmalign::MethodKind;
use rckalign::{Combiner, JobOrdering};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Compute lanes of every rig (= `nproc` of the reference box).
pub const LANES: usize = 2;
/// Jobs per dispatched batch, all rigs.
pub const BATCH_SIZE: usize = 4;
/// Side of the shard workload's tiles.
pub const TILE_SIZE: usize = 8;
/// An op that has not finished by then has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);
/// Period of the stats poller that reads the last-accept instant.
const POLL_PERIOD: Duration = Duration::from_micros(200);

const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(1000);
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// `MemNet` peers have no socket address; the config field is unused.
fn no_addr() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

fn master_config(method: MethodKind, min_workers: usize) -> MasterConfig {
    MasterConfig {
        addr: no_addr(),
        batch_size: BATCH_SIZE,
        method,
        ordering: JobOrdering::LongestFirst,
        heartbeat_timeout: HEARTBEAT_TIMEOUT,
        batch_timeout: None,
        min_workers,
    }
}

fn worker_config(name: String) -> WorkerConfig {
    WorkerConfig {
        addr: no_addr(),
        name,
        heartbeat_interval: HEARTBEAT_INTERVAL,
        threads: 1,
        registry: rck_obs::Registry::new(),
        fail_after_batches: None,
        hang_after_batches: None,
        slow_per_batch: None,
    }
}

fn spawn_worker(net: &MemNet, name: String) -> Result<JoinHandle<Option<WorkerReport>>, String> {
    let conn = net.connect().map_err(|e| format!("worker connect: {e}"))?;
    Ok(std::thread::spawn(move || {
        run_worker_conn(conn, &worker_config(name)).ok()
    }))
}

/// Poll `done` every [`POLL_PERIOD`] until it holds (returning the
/// instant it was first seen to) or `deadline` passes.
fn poll_until(deadline: Instant, mut done: impl FnMut() -> bool) -> Option<Instant> {
    loop {
        if done() {
            return Some(Instant::now());
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(POLL_PERIOD);
    }
}

/// Instants of one farm or shard op, all on the caller's clock.
#[derive(Debug, Clone, Copy)]
pub struct OpClock {
    /// Just before `bind_on`.
    pub start: Instant,
    /// Every worker / master connected.
    pub booted: Instant,
    /// Last result accepted (as seen by the poller).
    pub last_accept: Instant,
    /// `run()` returned.
    pub returned: Instant,
}

impl OpClock {
    /// The gated number: bind → last result accepted.
    pub fn compute_ms(&self) -> f64 {
        (self.last_accept - self.start).as_secs_f64() * 1e3
    }

    pub fn boot_ms(&self) -> f64 {
        (self.booted - self.start).as_secs_f64() * 1e3
    }

    /// `run()` return − last accept: the tick padding.
    pub fn teardown_ms(&self) -> f64 {
        (self.returned - self.last_accept).as_secs_f64() * 1e3
    }

    /// The op's spans.
    pub fn push_phases(&self, phases: &mut Phases) {
        phases.push(("rig.boot", self.start, self.booted));
        phases.push(("op.compute", self.booted, self.last_accept));
        phases.push(("op.teardown", self.last_accept, self.returned));
    }
}

/// Report the clocks of a run's ops: last-accept and `run()`-return
/// times side by side, and the boot and teardown medians under the two
/// given metric names. Returns the median op time.
pub fn clock_layers(
    clocks: &[OpClock],
    boot: &'static str,
    teardown: &'static str,
    layers: &mut Layers,
) -> f64 {
    let of = |f: fn(&OpClock) -> f64| {
        let ms: Vec<f64> = clocks.iter().map(f).collect();
        median(&ms).unwrap_or(0.0)
    };
    let op_ms = of(OpClock::compute_ms);
    layers.note(format!(
        "last accept p50 {:.3} ms | run() return p50 {:.3} ms (teardown padding p50 {:.3} ms)",
        op_ms,
        of(|c| c.compute_ms() + c.teardown_ms()),
        of(OpClock::teardown_ms),
    ));
    layers.set(boot, of(OpClock::boot_ms));
    layers.set(teardown, of(OpClock::teardown_ms));
    op_ms
}

/// One finished batch-mode farm op.
pub struct FarmOp {
    pub clock: OpClock,
    pub run: ServeRun,
    pub workers: Vec<WorkerReport>,
}

/// All-vs-all over `chains` through `serve::Master::bind_on` (batch
/// mode) and [`LANES`] `run_worker_conn` workers.
pub fn farm_op(chains: &[CaChain], method: MethodKind) -> Result<FarmOp, String> {
    let pairs = rckalign::pair_count(chains.len()) as u64;
    let start = Instant::now();
    let net = MemNet::new();
    let master = rck_serve::Master::bind_on(
        net.listener(),
        chains.to_vec(),
        master_config(method, LANES),
    );
    let stats = master.stats();
    let abort = master.abort_handle();
    let master_thread = std::thread::spawn(move || {
        let run = master.run();
        (run, Instant::now())
    });
    let workers: Vec<_> = (0..LANES)
        .map(|k| spawn_worker(&net, format!("w{k}")))
        .collect::<Result<_, _>>()?;

    let mut booted = None;
    let last_accept = poll_until(start + OP_TIMEOUT, || {
        if booted.is_none() && stats.workers_connected() == LANES as u64 {
            booted = Some(Instant::now());
        }
        stats.jobs_completed() == pairs
    });
    if last_accept.is_none() {
        abort.abort();
    }
    let (run, returned) = master_thread
        .join()
        .map_err(|_| "master thread panicked".to_string())?;
    let workers: Vec<WorkerReport> = workers
        .into_iter()
        .filter_map(|w| w.join().ok().flatten())
        .collect();
    let last_accept = last_accept.ok_or("farm op timed out")?;
    let run = run.map_err(|e| format!("master run: {e}"))?;
    if workers.len() != LANES {
        return Err("a worker session failed".to_string());
    }
    Ok(FarmOp {
        clock: OpClock {
            start,
            booted: booted.unwrap_or(last_accept),
            last_accept,
            returned,
        },
        run,
        workers,
    })
}

/// One finished sharded op.
pub struct ShardOp {
    pub clock: OpClock,
    pub run: ShardRun,
    pub masters: Vec<ShardMasterReport>,
    /// Mean grant→result round trip of a tile, from the frontend's
    /// `rck_shard_tile_rtt_seconds` histogram (sum / count).
    pub tile_rtt_mean_ms: f64,
}

/// The same pairs through `ShardFrontend::bind_on` → [`LANES`]
/// `run_shard_master` (feed mode) × 1 worker each.
pub fn shard_op(chains: &[CaChain], method: MethodKind) -> Result<ShardOp, String> {
    let tiles = rckalign::tile_partition(chains.len(), TILE_SIZE).len() as u64;
    let start = Instant::now();
    let net = MemNet::new();
    let frontend = ShardFrontend::bind_on(
        net.listener(),
        chains.to_vec(),
        ShardConfig {
            addr: no_addr(),
            tile_size: TILE_SIZE,
            masters: LANES,
            method,
            heartbeat_timeout: HEARTBEAT_TIMEOUT,
            tile_timeout: None,
            stall_timeout: Some(OP_TIMEOUT),
        },
    );
    let stats = frontend.stats();
    let abort = frontend.abort_handle();
    let frontend_thread = std::thread::spawn(move || {
        let run = frontend.run();
        (run, Instant::now())
    });

    let mut masters = Vec::new();
    let mut workers = Vec::new();
    for m in 0..LANES {
        let worker_net = MemNet::new();
        let conn = net.connect().map_err(|e| format!("master connect: {e}"))?;
        let listener = worker_net.listener();
        let cfg = ShardMasterConfig {
            name: format!("m{m}"),
            serve: master_config(method, 1),
            prefetch: 2,
            heartbeat_interval: HEARTBEAT_INTERVAL,
            crash_after_tiles: None,
        };
        masters.push(std::thread::spawn(move || {
            run_shard_master(conn, listener, &cfg).ok()
        }));
        workers.push(spawn_worker(&worker_net, format!("m{m}w0"))?);
    }

    let mut booted = None;
    let last_accept = poll_until(start + OP_TIMEOUT, || {
        if booted.is_none() && stats.snapshot().masters_connected == LANES as u64 {
            booted = Some(Instant::now());
        }
        stats.tiles_completed() == tiles
    });
    if last_accept.is_none() {
        abort.abort();
    }
    let (run, returned) = frontend_thread
        .join()
        .map_err(|_| "frontend thread panicked".to_string())?;
    let masters: Vec<ShardMasterReport> = masters
        .into_iter()
        .filter_map(|m| m.join().ok().flatten())
        .collect();
    for w in workers {
        let _ = w.join();
    }
    let last_accept = last_accept.ok_or("shard op timed out")?;
    let run = run.map_err(|e| format!("frontend run: {e}"))?;
    if masters.len() != LANES {
        return Err("a shard master session failed".to_string());
    }
    let text = stats.registry().render();
    let rtt_sum = prom_value(&text, "rck_shard_tile_rtt_seconds_sum").unwrap_or(0.0);
    let rtt_count = prom_value(&text, "rck_shard_tile_rtt_seconds_count").unwrap_or(0.0);
    Ok(ShardOp {
        clock: OpClock {
            start,
            booted: booted.unwrap_or(last_accept),
            last_accept,
            returned,
        },
        run,
        masters,
        tile_rtt_mean_ms: if rtt_count > 0.0 {
            rtt_sum / rtt_count * 1e3
        } else {
            0.0
        },
    })
}

/// Value of the unlabeled series `name` in a Prometheus text dump.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Sum of the inner farms' counters of a shard op.
pub fn farm_totals(masters: &[ShardMasterReport]) -> StatsSnapshot {
    let mut it = masters.iter().map(|m| m.farm.clone());
    let mut total = it.next().expect("at least one master");
    for s in it {
        total.jobs_dispatched += s.jobs_dispatched;
        total.jobs_completed += s.jobs_completed;
        total.jobs_requeued += s.jobs_requeued;
        total.batches_dispatched += s.batches_dispatched;
        total.batches_completed += s.batches_completed;
        total.bytes_tx += s.bytes_tx;
        total.bytes_rx += s.bytes_rx;
        total.batch_rtt = total.batch_rtt.merge(&s.batch_rtt);
    }
    total
}

/// A resident gate with [`LANES`] pool workers and one connected client
/// per tenant. Dropping it drains the gate and joins every thread.
pub struct GateRig {
    pub clients: Vec<GateClient>,
    pub stats: Arc<GateStats>,
    handle: GateHandle,
    gate: Option<JoinHandle<GateReport>>,
    workers: Vec<JoinHandle<Option<WorkerReport>>>,
}

impl GateRig {
    pub fn boot(db: Vec<CaChain>, tenants: usize) -> Result<GateRig, String> {
        let worker_net = MemNet::new();
        let client_net = MemNet::new();
        let gate = Gate::bind_on(
            worker_net.listener(),
            client_net.listener(),
            db,
            GateConfig {
                db_version: 1,
                batch_size: BATCH_SIZE,
                max_inflight_per_tenant: 8,
                max_queue_depth: 1024,
                heartbeat_timeout: HEARTBEAT_TIMEOUT,
                batch_timeout: None,
                combiner: Combiner::MeanRank,
                kernel_version: rck_tmalign::KERNEL_VERSION,
            },
        );
        let handle = gate.handle();
        let stats = gate.stats();
        let gate = Some(std::thread::spawn(move || gate.run()));
        let workers = (0..LANES)
            .map(|k| spawn_worker(&worker_net, format!("w{k}")))
            .collect::<Result<_, _>>()?;
        let clients = (0..tenants)
            .map(|t| {
                let conn = client_net.connect().map_err(|e| e.to_string())?;
                GateClient::connect(conn, &format!("tenant-{t}")).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let rig = GateRig {
            clients,
            stats,
            handle,
            gate,
            workers,
        };
        let stats = Arc::clone(&rig.stats);
        poll_until(Instant::now() + OP_TIMEOUT, || {
            stats.workers_connected() == LANES as u64
        })
        .ok_or("gate workers never connected")?;
        Ok(rig)
    }
}

impl Drop for GateRig {
    fn drop(&mut self) {
        self.clients.clear();
        self.handle.drain();
        if let Some(gate) = self.gate.take() {
            let _ = gate.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
