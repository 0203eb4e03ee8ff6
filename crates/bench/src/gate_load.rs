//! The one in-process gate run behind `rck_loadgen`'s self-contained
//! mode and `rck_report`'s serving section, plus the tenant closed loops
//! `rck_loadgen` also points at a live `rck_gate` daemon.
//!
//! A run boots a gate over the in-memory network with real pool workers,
//! drives it from closed-loop tenant threads (one outstanding query per
//! tenant, open across tenants), measures client-side submit-to-ranking
//! latency, then drains the gate and joins every thread. Tenants own
//! disjoint strided shares of the query pool, so no two submissions in
//! flight are identical and nothing coalesces by accident of timing.
//! Every completed ranking is held to the in-process
//! [`reference_ranking`] once the load is over.

use rck_gate::{
    rankings_bit_identical, reference_ranking, Gate, GateClient, GateConfig, GateSnapshot,
};
use rck_obs::{HistogramSnapshot, Registry, DEFAULT_LATENCY_BOUNDS};
use rck_pdb::model::CaChain;
use rck_serve::proto::QuerySubmit;
use rck_serve::transport::MemNet;
use rck_serve::{run_worker_conn, WorkerConfig};
use rck_tmalign::MethodKind;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shape of one load: how many tenants share how many queries.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Closed-loop tenant threads; at most the query pool's length.
    pub tenants: usize,
    /// Queries across all tenants; the first tenants take the remainder.
    pub queries: usize,
}

/// What the tenants saw.
#[derive(Debug)]
pub struct TenantReport {
    /// Queries answered with a ranking.
    pub completed: u64,
    /// Queries the gate refused.
    pub rejected: u64,
    /// Tenant loops cut short by a connection error.
    pub errored: u64,
    /// Wall time from the first submission to the last tenant's exit.
    pub wall_secs: f64,
    /// Client-side submit-to-ranking latency of the completed queries.
    pub latency: HistogramSnapshot,
    /// Completed rankings that differ from the in-process reference;
    /// `None` when the database is not known here (a remote gate).
    pub diverged: Option<u64>,
}

impl TenantReport {
    /// Completed queries per second of wall time.
    pub fn queries_per_sec(&self) -> f64 {
        self.completed as f64 / self.wall_secs.max(1e-9)
    }
}

/// Drive `load` from closed-loop tenant threads, each on its own
/// connection from `connect`. With `db`, every completed ranking is then
/// checked against [`reference_ranking`] under `cfg`'s combiner.
pub fn drive(
    connect: impl Fn(usize) -> Result<GateClient, String>,
    query_pool: &[CaChain],
    load: Load,
    db: Option<(&[CaChain], &GateConfig)>,
) -> Result<TenantReport, String> {
    if load.tenants > query_pool.len() {
        return Err(format!(
            "--tenants {} exceeds the {} query chains (each tenant owns a disjoint share)",
            load.tenants,
            query_pool.len()
        ));
    }
    let latency = Registry::new().histogram(
        "rck_loadgen_query_latency_seconds",
        "client-side submit-to-ranking latency",
        DEFAULT_LATENCY_BOUNDS,
    );
    // Every tenant connects before any submits, so a failed connection
    // leaves no tenant thread behind.
    let shares = (0..load.tenants)
        .map(|t| {
            (
                t,
                load.queries / load.tenants + usize::from(t < load.queries % load.tenants),
            )
        })
        .filter(|&(_, share)| share > 0)
        .map(|(t, share)| Ok((t, share, connect(t)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let started = Instant::now();
    let mut threads = Vec::new();
    for (t, share, mut client) in shares {
        let pool: Vec<CaChain> = query_pool
            .iter()
            .skip(t)
            .step_by(load.tenants)
            .cloned()
            .collect();
        let latency = Arc::clone(&latency);
        threads.push(std::thread::spawn(move || {
            let (mut answered, mut rejected, mut errored) = (Vec::new(), 0, 0);
            for q in 0..share {
                let chain = pool[q % pool.len()].clone();
                let submitted = Instant::now();
                let submit = QuerySubmit {
                    tenant: format!("tenant-{t}"),
                    query_id: q as u64,
                    weight: 1,
                    methods: vec![MethodKind::TmAlign],
                    chain: chain.clone(),
                };
                match client.run_query(submit) {
                    Ok(outcome) => match outcome.ranking {
                        Some(ranking) => {
                            latency.observe(submitted.elapsed().as_secs_f64());
                            answered.push((chain, ranking));
                        }
                        None => rejected += 1,
                    },
                    Err(_) => {
                        errored += 1;
                        break;
                    }
                }
            }
            let _ = client.finish();
            (answered, rejected, errored)
        }));
    }
    let (mut answered, mut rejected, mut errored) = (Vec::new(), 0, 0);
    for thread in threads {
        let (a, r, e) = thread
            .join()
            .map_err(|_| "tenant thread panicked".to_string())?;
        answered.extend(a);
        rejected += r;
        errored += e;
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let diverged = db.map(|(db, cfg)| {
        let methods = [MethodKind::TmAlign];
        let differs = |(chain, ranking): &(CaChain, Vec<(u32, f64)>)| {
            let want = reference_ranking(db, chain, &methods, cfg.combiner);
            !rankings_bit_identical(ranking, &want)
        };
        answered.iter().filter(|a| differs(a)).count() as u64
    });
    Ok(TenantReport {
        completed: answered.len() as u64,
        rejected,
        errored,
        wall_secs,
        latency: latency.snapshot(),
        diverged,
    })
}

/// Boot a gate over the in-memory network with `workers` pool workers,
/// drive `load` against it, then drain the gate and join every thread.
/// Returns what the tenants saw, rankings checked against the reference,
/// and the gate's counters at shutdown.
pub fn run_in_process(
    db: &[CaChain],
    query_pool: &[CaChain],
    load: Load,
    workers: usize,
    cfg: GateConfig,
) -> Result<(TenantReport, GateSnapshot), String> {
    let worker_net = MemNet::new();
    let client_net = MemNet::new();
    let gate = Gate::bind_on(
        worker_net.listener(),
        client_net.listener(),
        db.to_vec(),
        cfg.clone(),
    );
    let handle = gate.handle();
    let gate_thread = std::thread::spawn(move || gate.run());
    let worker_threads = (0..workers)
        .map(|k| {
            let conn = worker_net.connect().map_err(|e| e.to_string())?;
            Ok(std::thread::spawn(move || {
                let mut wcfg = WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 0)));
                wcfg.name = format!("w{k}");
                wcfg.heartbeat_interval = Duration::from_millis(100);
                let _ = run_worker_conn(conn, &wcfg);
            }))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let connect = |t: usize| {
        let conn = client_net.connect().map_err(|e| e.to_string())?;
        GateClient::connect(conn, &format!("tenant-{t}")).map_err(|e| e.to_string())
    };
    let tenants = drive(connect, query_pool, load, Some((db, &cfg)));
    handle.drain();
    let report = gate_thread
        .join()
        .map_err(|_| "gate thread panicked".to_string())?;
    for w in worker_threads {
        let _ = w.join();
    }
    Ok((tenants?, report.stats))
}
