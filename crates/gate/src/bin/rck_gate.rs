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

#[derive(Debug, Clone, PartialEq)]
struct Args {
    addr: SocketAddr,
    worker_addr: SocketAddr,
    dataset: String,
    seed: u64,
    batch: usize,
    timeout_ms: u64,
    max_inflight: usize,
    max_queue: usize,
    metrics_addr: Option<SocketAddr>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            worker_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dataset: "TINY8".to_string(),
            seed: 7,
            batch: 8,
            timeout_ms: 1000,
            max_inflight: 8,
            max_queue: 1024,
            metrics_addr: None,
        }
    }
}

fn parse_args<I: Iterator<Item = String>>(it: I) -> Result<Args, ParseError> {
    let argv: Vec<String> = it.collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Err(ParseError::help());
    }
    let mut args = Args::default();
    let mut flags = Flags::new(&argv);
    while let Some(name) = flags.next_flag()? {
        match name {
            "addr" => args.addr = flags.value()?.parse("address")?,
            "worker-addr" => args.worker_addr = flags.value()?.parse("worker address")?,
            "dataset" => args.dataset = flags.value()?.string(),
            "seed" => args.seed = flags.value()?.parse("seed")?,
            "batch" => args.batch = flags.value()?.parse("batch size")?,
            "timeout-ms" => args.timeout_ms = flags.value()?.parse("timeout")?,
            "max-inflight" => args.max_inflight = flags.value()?.parse("inflight cap")?,
            "max-queue" => args.max_queue = flags.value()?.parse("queue cap")?,
            "metrics-addr" => args.metrics_addr = Some(flags.value()?.parse("metrics address")?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(args)
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

    let cfg = GateConfig {
        batch_size: args.batch.max(1),
        heartbeat_timeout: Duration::from_millis(args.timeout_ms.max(1)),
        max_inflight_per_tenant: args.max_inflight.max(1),
        max_queue_depth: args.max_queue.max(1),
        ..GateConfig::default()
    };
    let gate = match Gate::bind(args.worker_addr, args.addr, db, cfg) {
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

    fn parse(flags: &[&str]) -> Result<Args, ParseError> {
        parse_args(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_parse_from_empty_argv() {
        assert_eq!(parse(&[]).unwrap(), Args::default());
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
        assert_eq!(args.batch, 4);
        assert_eq!(args.timeout_ms, 250);
        assert_eq!(args.max_inflight, 2);
        assert_eq!(args.max_queue, 64);
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
}
