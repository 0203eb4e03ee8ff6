//! `rck_loadgen` — multi-tenant load generator for the rck-gate serving
//! tier.
//!
//! Two modes:
//!
//! * **self-contained** (default): boots a gate over the in-memory
//!   network with `--workers` real pool workers, then drives it — no
//!   ports, deterministic dataset, suitable for CI smoke runs;
//! * **remote** (`--addr`): dials an already-running `rck_gate` daemon's
//!   query plane over TCP and only generates load.
//!
//! `--tenants` concurrent tenant threads each submit their share of
//! `--queries` (one outstanding query per tenant — per-tenant closed
//! loop, open across tenants), measuring client-side submit→ranking
//! latency into an `rck_obs` histogram. Tenants own disjoint shares of
//! the query pool, so no two submissions in flight are ever identical:
//! the self-contained run fails unless the gate coalesced nothing. The
//! run prints queries/sec and p50/p95/p99; the repeatable gate numbers
//! are `benchmark/`'s `gate_rs119_rmsd` workload.

use rck_gate::{Gate, GateClient, GateConfig};
use rck_obs::{HistogramSnapshot, Registry, DEFAULT_LATENCY_BOUNDS};
use rck_serve::proto::QuerySubmit;
use rck_serve::transport::MemNet;
use rck_serve::{run_worker_conn, WorkerConfig};
use rck_tmalign::MethodKind;
use rckalign::cli::{Flags, ParseError};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
rck_loadgen — multi-tenant load generator for the rck-gate serving tier

USAGE:
  rck_loadgen [--queries N] [--tenants N] [--workers N]
              [--dataset CK34|RS119|TINY8] [--seed S] [--batch N]
              [--addr HOST:PORT]

Defaults: --queries 50, --tenants 3, --workers 2, --dataset TINY8,
--seed 2013, --batch 4. Without --addr a gate is booted in-process over
the in-memory network; with --addr an already-running rck_gate daemon
is driven instead (its --workers/--dataset/--seed/--batch are then its
own business). --tenants may not exceed the dataset's chain count: each
tenant owns a disjoint share of the query pool.
";

#[derive(Debug, Clone, PartialEq)]
struct Options {
    queries: usize,
    tenants: usize,
    workers: usize,
    dataset: String,
    seed: u64,
    batch: usize,
    addr: Option<SocketAddr>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            queries: 50,
            tenants: 3,
            workers: 2,
            dataset: "TINY8".to_string(),
            seed: 2013,
            batch: 4,
            addr: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut opts = Options::default();
    let mut flags = Flags::new(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "queries" => opts.queries = flags.value()?.in_range(1.., "query count")?,
            "tenants" => opts.tenants = flags.value()?.in_range(1.., "tenant count")?,
            "workers" => opts.workers = flags.value()?.in_range(1.., "worker count")?,
            "dataset" => opts.dataset = flags.value()?.string(),
            "seed" => opts.seed = flags.value()?.parse("seed")?,
            "batch" => opts.batch = flags.value()?.in_range(1.., "batch size")?,
            "addr" => opts.addr = Some(flags.value()?.parse("address")?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// Everything one load run measured.
struct LoadReport {
    completed: u64,
    rejected: u64,
    errored: u64,
    wall_secs: f64,
    latency: HistogramSnapshot,
    /// Mean fraction of the worker pool observed busy (self-contained
    /// mode only; sampled from the gate's dispatch counters).
    worker_utilization: Option<f64>,
    /// Duplicate submissions the gate joined onto a running query
    /// (self-contained mode only).
    coalesced: Option<u64>,
}

impl LoadReport {
    fn queries_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.completed as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

fn fmt_secs(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{:.1}", v * 1e3),
        Some(_) => ">60000".to_string(),
        None => "nan".to_string(),
    }
}

/// One tenant's closed loop: submit its share of queries back-to-back,
/// observing each submit→terminal latency.
#[allow(clippy::too_many_arguments)]
fn tenant_loop(
    mut client: GateClient,
    tenant: String,
    n_queries: usize,
    queries: Vec<rck_pdb::model::CaChain>,
    latency: Arc<rck_obs::Histogram>,
    completed: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    errored: Arc<AtomicU64>,
) {
    for q in 0..n_queries {
        let chain = queries[q % queries.len()].clone();
        let started = Instant::now();
        match client.run_query(QuerySubmit {
            tenant: tenant.clone(),
            query_id: q as u64,
            weight: 1,
            methods: vec![MethodKind::TmAlign],
            chain,
        }) {
            Ok(outcome) if outcome.completed() => {
                latency.observe(started.elapsed().as_secs_f64());
                completed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {
                rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                errored.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    let _ = client.finish();
}

fn run_load(opts: &Options) -> Result<LoadReport, String> {
    let profile = rck_pdb::datasets::by_name(&opts.dataset)
        .ok_or_else(|| format!("unknown dataset {} (try CK34, RS119, TINY8)", opts.dataset))?;
    let db = profile.generate(opts.seed);
    // Query structures from a shifted seed: realistic "not in the
    // database" queries, still fully deterministic.
    let query_pool = profile.generate(opts.seed ^ 0x5eed);
    if opts.tenants > query_pool.len() {
        return Err(format!(
            "--tenants {} exceeds the {} query chains of {} (each tenant owns a disjoint share)",
            opts.tenants,
            query_pool.len(),
            opts.dataset
        ));
    }
    eprintln!(
        "rck_loadgen: {} db chains, {} tenants x {} queries, {} workers",
        db.len(),
        opts.tenants,
        opts.queries,
        opts.workers
    );

    // Plumbing that differs between the two modes: how to mint a client
    // connection, plus (self-contained only) the gate and its farm.
    let mut gate_rig = None;
    let connect: Box<dyn Fn(usize) -> Result<GateClient, String>> = match opts.addr {
        Some(addr) => Box::new(move |t| {
            GateClient::dial(addr, &format!("tenant-{t}")).map_err(|e| e.to_string())
        }),
        None => {
            let worker_net = Arc::new(MemNet::new());
            let client_net = Arc::new(MemNet::new());
            let gate = Gate::bind_on(
                worker_net.listener(),
                client_net.listener(),
                db.clone(),
                GateConfig {
                    batch_size: opts.batch,
                    ..GateConfig::default()
                },
            );
            let handle = gate.handle();
            let stats = gate.stats();
            let gate_thread = std::thread::spawn(move || gate.run());
            let workers: Vec<_> = (0..opts.workers)
                .map(|k| {
                    let conn = worker_net.connect().map_err(|e| e.to_string())?;
                    Ok(std::thread::spawn(move || {
                        let mut cfg =
                            WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 0)));
                        cfg.name = format!("w{k}");
                        cfg.heartbeat_interval = Duration::from_millis(100);
                        let _ = run_worker_conn(conn, &cfg);
                    }))
                })
                .collect::<Result<_, String>>()?;
            gate_rig = Some((handle, stats, gate_thread, workers));
            let client_net = Arc::clone(&client_net);
            Box::new(move |t| {
                let conn = client_net.connect().map_err(|e| e.to_string())?;
                GateClient::connect(conn, &format!("tenant-{t}")).map_err(|e| e.to_string())
            })
        }
    };

    // Occupancy sampler (self-contained mode): every few ms, estimate
    // how many workers hold outstanding jobs from the dispatch/complete
    // counters. A sampled mean, not an exact integral — labelled as such.
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler = gate_rig.as_ref().map(|(_, stats, _, _)| {
        let stats = Arc::clone(stats);
        let sampling = Arc::clone(&sampling);
        let workers = opts.workers;
        let batch = opts.batch.max(1);
        std::thread::spawn(move || {
            let mut samples = 0u64;
            let mut busy = 0.0f64;
            while sampling.load(Ordering::Relaxed) {
                let snap = stats.snapshot();
                let outstanding_jobs = snap.jobs_dispatched.saturating_sub(snap.jobs_completed);
                let busy_workers = (outstanding_jobs as usize).div_ceil(batch).min(workers);
                busy += busy_workers as f64 / workers as f64;
                samples += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            if samples == 0 {
                0.0
            } else {
                busy / samples as f64
            }
        })
    });

    let registry = Registry::new();
    let latency = registry.histogram(
        "rck_loadgen_query_latency_seconds",
        "client-side submit-to-ranking latency",
        DEFAULT_LATENCY_BOUNDS,
    );
    let completed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let errored = Arc::new(AtomicU64::new(0));

    let started = Instant::now();
    let mut tenant_threads = Vec::new();
    for t in 0..opts.tenants {
        // Spread the queries across tenants, first tenants take the
        // remainder so the total is exact.
        let share = opts.queries / opts.tenants + usize::from(t < opts.queries % opts.tenants);
        if share == 0 {
            continue;
        }
        let client = connect(t)?;
        // Disjoint strided share of the pool: no two tenants ever hold
        // the same query, so nothing coalesces by accident of timing.
        let pool: Vec<_> = query_pool
            .iter()
            .skip(t)
            .step_by(opts.tenants)
            .cloned()
            .collect();
        let tenant = format!("tenant-{t}");
        let latency = Arc::clone(&latency);
        let (completed, rejected, errored) = (
            Arc::clone(&completed),
            Arc::clone(&rejected),
            Arc::clone(&errored),
        );
        tenant_threads.push(std::thread::spawn(move || {
            tenant_loop(
                client, tenant, share, pool, latency, completed, rejected, errored,
            );
        }));
    }
    for t in tenant_threads {
        t.join().map_err(|_| "tenant thread panicked".to_string())?;
    }
    let wall_secs = started.elapsed().as_secs_f64();

    sampling.store(false, Ordering::Relaxed);
    let worker_utilization = sampler.map(|s| s.join().unwrap_or(0.0));
    let coalesced = gate_rig
        .as_ref()
        .map(|(_, stats, _, _)| stats.queries_coalesced());
    if let Some((handle, _, gate_thread, workers)) = gate_rig {
        handle.drain();
        gate_thread
            .join()
            .map_err(|_| "gate thread panicked".to_string())?;
        for w in workers {
            let _ = w.join();
        }
    }

    Ok(LoadReport {
        completed: completed.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        errored: errored.load(Ordering::Relaxed),
        wall_secs,
        latency: latency.snapshot(),
        worker_utilization,
        coalesced,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(refusal) => return refusal.exit(USAGE),
    };
    let report = match run_load(&opts) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "rck_loadgen: {}/{} queries completed in {:.2}s -> {:.1} queries/sec",
        report.completed,
        opts.queries,
        report.wall_secs,
        report.queries_per_sec()
    );
    println!(
        "rck_loadgen: latency p50 {} ms, p95 {} ms, p99 {} ms",
        fmt_secs(report.latency.percentile(50.0)),
        fmt_secs(report.latency.percentile(95.0)),
        fmt_secs(report.latency.percentile(99.0)),
    );
    if let Some(u) = report.worker_utilization {
        println!("rck_loadgen: worker utilization ~{:.0}%", u * 100.0);
    }
    if report.errored > 0 {
        eprintln!("error: {} tenant loops errored", report.errored);
        return ExitCode::FAILURE;
    }
    if report.completed + report.rejected < opts.queries as u64 {
        eprintln!("error: queries went missing (no terminal frame)");
        return ExitCode::FAILURE;
    }
    if let Some(n) = report.coalesced.filter(|&n| n > 0) {
        eprintln!("error: {n} queries coalesced although tenants own disjoint query shares");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Options, ParseError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults() {
        assert_eq!(parse("").unwrap(), Options::default());
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(
            "--queries 10 --tenants 2 --workers 4 --dataset CK34 --seed 9 \
             --batch 2 --addr 127.0.0.1:7200",
        )
        .unwrap();
        assert_eq!(opts.queries, 10);
        assert_eq!(opts.tenants, 2);
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.dataset, "CK34");
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.batch, 2);
        assert_eq!(opts.addr.unwrap().port(), 7200);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--queries 0").is_err());
        assert!(parse("--tenants").is_err());
        assert!(parse("--addr nowhere").is_err());
        assert!(parse("--frobnicate 1").is_err());
        assert!(parse("positional").is_err());
    }
}
