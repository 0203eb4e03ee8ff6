//! `rck_gate` — the long-running multi-tenant query-serving daemon.
//!
//! Boots a [`rck_gate::Gate`] over TCP: workers dial the pool plane,
//! tenants dial the query plane. The resident database is loaded once
//! at startup from a named dataset profile. On SIGINT/SIGTERM the gate
//! drains — new submissions are rejected, inflight queries finish, and
//! the final metrics registry is dumped to stdout before exit.

use rck_gate::{Gate, GateConfig};
use rckalign::cli::{Flags, ParseError};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
rck_gate - multi-tenant online query-serving tier over the TM-align farm

USAGE:
    rck_gate [OPTIONS]

OPTIONS:
    --addr ADDR           query-plane bind address (default 127.0.0.1:0)
    --worker-addr ADDR    pool-plane bind address (default 127.0.0.1:0)
    --dataset NAME        resident database profile: TINY8, CK34, RS119
                          (default TINY8)
    --seed N              dataset generation seed (default 7)
    --batch N             pair jobs per dispatched batch (default 8)
    --timeout-ms N        worker heartbeat timeout in ms (default 1000)
    --max-inflight N      per-tenant inflight query cap (default 8)
    --max-queue N         global scheduler backlog cap (default 1024)
    --metrics-addr ADDR   optional /metrics dump server bind address
    --help                print this message
";

struct Options {
    addr: SocketAddr,
    worker_addr: SocketAddr,
    dataset: String,
    seed: u64,
    cfg: GateConfig,
    metrics_addr: Option<SocketAddr>,
}

fn parse_args<I: Iterator<Item = String>>(it: I) -> Result<Options, ParseError> {
    let argv: Vec<String> = it.collect();
    let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
    let mut opts = Options {
        addr: loopback,
        worker_addr: loopback,
        dataset: "TINY8".to_string(),
        seed: 7,
        cfg: GateConfig::default(),
        metrics_addr: None,
    };
    let cfg = &mut opts.cfg;
    let mut flags = Flags::new(&argv);
    while let Some(name) = flags.next_flag()? {
        match name {
            "addr" => opts.addr = flags.value()?.parse("address")?,
            "worker-addr" => opts.worker_addr = flags.value()?.parse("worker address")?,
            "dataset" => opts.dataset = flags.value()?.string(),
            "seed" => opts.seed = flags.value()?.parse("seed")?,
            "batch" => cfg.batch_size = flags.value()?.in_range(1.., "batch size")?,
            "timeout-ms" => cfg.heartbeat_timeout = flags.value()?.millis("timeout")?,
            "max-inflight" => {
                cfg.max_inflight_per_tenant = flags.value()?.in_range(1.., "inflight cap")?
            }
            "max-queue" => cfg.max_queue_depth = flags.value()?.in_range(1.., "queue cap")?,
            "metrics-addr" => opts.metrics_addr = Some(flags.value()?.parse("metrics address")?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(refusal) => return refusal.exit(USAGE),
    };

    let Some(profile) = rck_pdb::datasets::by_name(&args.dataset) else {
        eprintln!("rck_gate: unknown dataset {:?}", args.dataset);
        return ExitCode::FAILURE;
    };
    let db = profile.generate(args.seed);
    eprintln!(
        "[rck-gate] resident database: {} ({} chains, seed {})",
        args.dataset,
        db.len(),
        args.seed
    );

    let gate = match Gate::bind(args.worker_addr, args.addr, db, args.cfg) {
        Ok(gate) => gate,
        Err(e) => {
            eprintln!("rck_gate: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("[rck-gate] pool plane on {}", gate.worker_addr());
    println!("[rck-gate] query plane on {}", gate.client_addr());

    let registry = gate.stats().registry();
    if let Some(metrics_addr) = args.metrics_addr {
        match rck_obs::spawn_dump_server(metrics_addr, vec![Arc::clone(&registry)]) {
            Ok((bound, _server)) => eprintln!("[rck-gate] metrics on {bound}"),
            Err(e) => eprintln!("[rck-gate] metrics server failed: {e}"),
        }
    }

    // SIGINT/SIGTERM → drain: refuse new queries, finish inflight ones,
    // then fall out of run() for the final metrics flush.
    rck_serve::signal::install_shutdown_handler();
    let handle = gate.handle();
    let watcher = std::thread::spawn(move || {
        while !rck_serve::signal::shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("[rck-gate] shutdown requested; draining");
        handle.drain();
    });

    let report = gate.run();
    // Unblock the watcher if run() ended for another reason.
    rck_serve::signal::request_shutdown();
    let _ = watcher.join();

    println!(
        "[rck-gate] served {} queries ({} rejected, {} coalesced)",
        report.stats.queries_completed,
        report.stats.queries_rejected,
        report.stats.queries_coalesced
    );
    print!("{}", registry.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Options, ParseError> {
        parse_args(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_parse_from_empty_argv() {
        let opts = parse(&[]).unwrap();
        let (cfg, default) = (&opts.cfg, GateConfig::default());
        assert_eq!((opts.addr.port(), opts.worker_addr.port()), (0, 0));
        assert_eq!((opts.dataset.as_str(), opts.seed), ("TINY8", 7));
        assert_eq!(cfg.batch_size, default.batch_size);
        assert_eq!(cfg.heartbeat_timeout, default.heartbeat_timeout);
        assert_eq!(cfg.max_inflight_per_tenant, default.max_inflight_per_tenant);
        assert_eq!(cfg.max_queue_depth, default.max_queue_depth);
        assert!(opts.metrics_addr.is_none());
    }

    #[test]
    fn every_flag_is_recognised() {
        let args = parse(&[
            "--addr",
            "127.0.0.1:7100",
            "--worker-addr",
            "127.0.0.1:7101",
            "--dataset",
            "CK34",
            "--seed",
            "11",
            "--batch",
            "4",
            "--timeout-ms",
            "250",
            "--max-inflight",
            "2",
            "--max-queue",
            "64",
            "--metrics-addr",
            "127.0.0.1:7102",
        ])
        .unwrap();
        assert_eq!(args.dataset, "CK34");
        assert_eq!(args.seed, 11);
        assert_eq!(args.cfg.batch_size, 4);
        assert_eq!(args.cfg.heartbeat_timeout, Duration::from_millis(250));
        assert_eq!(args.cfg.max_inflight_per_tenant, 2);
        assert_eq!(args.cfg.max_queue_depth, 64);
        assert_eq!(args.addr.port(), 7100);
        assert_eq!(args.worker_addr.port(), 7101);
        assert_eq!(args.metrics_addr.unwrap().port(), 7102);
    }

    #[test]
    fn unknown_flags_and_missing_values_fail() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "not-a-number"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--batch", "0"]).is_err());
        assert!(parse(&["--timeout-ms", "0"]).is_err());
        assert!(parse(&["--max-inflight", "0"]).is_err());
        assert!(parse(&["--max-queue", "0"]).is_err());
    }
}
