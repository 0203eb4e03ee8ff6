//! `rck_worker` — an rck-serve compute worker.
//!
//! ```text
//! rck_worker --addr HOST:PORT [--name NAME] [--heartbeat-ms MS]
//!            [--threads N] [--retry-for SECS]
//! ```
//!
//! Connects to a running `rck_served` (retrying a down master with
//! jittered exponential backoff for up to `--retry-for` seconds),
//! computes job batches with the real TM-align kernel across `--threads`
//! parallel lanes until the master sends Shutdown, then prints a session
//! summary with per-lane job counts.

use rck_serve::{run_worker_with_backoff, BackoffPolicy, WorkerConfig};
use rckalign::cli::{Flags, ParseError};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
rck_worker — compute worker for rck_served

USAGE:
  rck_worker --addr HOST:PORT [--name NAME] [--heartbeat-ms MS]
             [--threads N] [--retry-for SECS]

Defaults: --name worker, --heartbeat-ms 100, --threads 1, --retry-for 30.
--retry-for 0 fails immediately when the master is unreachable.
";

fn parse_args(args: &[String]) -> Result<(WorkerConfig, BackoffPolicy), ParseError> {
    let mut addr: Option<SocketAddr> = None;
    let mut name = "worker".to_string();
    let mut heartbeat = Duration::from_millis(100);
    let mut threads = 1usize;
    let mut policy = BackoffPolicy::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "addr" => addr = Some(flags.value()?.parse("address")?),
            "name" => name = flags.value()?.string(),
            "heartbeat-ms" => heartbeat = flags.value()?.millis("heartbeat interval")?,
            "threads" => threads = flags.value()?.in_range(1..=256, "thread count")?,
            "retry-for" => {
                policy.total = Duration::from_secs(flags.value()?.parse("retry budget")?);
            }
            _ => return Err(flags.unknown()),
        }
    }
    let addr = addr.ok_or_else(|| ParseError("--addr is required".into()))?;
    let mut cfg = WorkerConfig::connect_to(addr);
    cfg.name = name;
    cfg.heartbeat_interval = heartbeat;
    cfg.threads = threads;
    Ok((cfg, policy))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, policy) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(refusal) => return refusal.exit(USAGE),
    };
    match run_worker_with_backoff(&cfg, &policy) {
        Ok(report) => {
            println!(
                "{}: worker {} done — {} jobs in {} batches over {} lanes ({} B out, {} B in)",
                cfg.name,
                report.worker_id,
                report.jobs_done,
                report.batches_done,
                cfg.threads,
                report.bytes_tx,
                report.bytes_rx
            );
            if cfg.threads > 1 {
                print!("{}", cfg.registry.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<(WorkerConfig, BackoffPolicy), ParseError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn addr_is_required() {
        assert!(parse("").is_err());
        assert!(parse("--name farmhand").is_err());
    }

    #[test]
    fn full_flag_set() {
        let (cfg, policy) = parse(
            "--addr 127.0.0.1:7000 --name farmhand --heartbeat-ms 50 --threads 4 --retry-for 5",
        )
        .unwrap();
        assert_eq!(cfg.addr.port(), 7000);
        assert_eq!(cfg.name, "farmhand");
        assert_eq!(cfg.heartbeat_interval.as_millis(), 50);
        assert_eq!(cfg.threads, 4);
        assert_eq!(policy.total, Duration::from_secs(5));
        assert!(cfg.fail_after_batches.is_none());
    }

    #[test]
    fn defaults_keep_one_lane_and_a_30s_retry_budget() {
        let (cfg, policy) = parse("--addr 127.0.0.1:7000").unwrap();
        assert_eq!(cfg.threads, 1);
        assert_eq!(policy, BackoffPolicy::default());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--addr nonsense").is_err());
        assert!(parse("--addr 127.0.0.1:1 --heartbeat-ms 0").is_err());
        assert!(parse("--addr 127.0.0.1:1 --threads 0").is_err());
        assert!(parse("--addr 127.0.0.1:1 --threads 9999").is_err());
        assert!(parse("--addr 127.0.0.1:1 --retry-for x").is_err());
        assert!(parse("--addr 127.0.0.1:1 --frobnicate x").is_err());
        assert!(parse("--addr").is_err());
        assert!(parse("positional").is_err());
    }
}
