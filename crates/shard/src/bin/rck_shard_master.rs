//! `rck_shard_master` — one shard master: a worker farm driven by
//! `rck_shardd` tile grants.
//!
//! ```text
//! rck_shard_master --frontend HOST:PORT [--addr HOST:PORT] [--name NAME]
//!                  [--batch N] [--prefetch N] [--heartbeat-ms MS]
//!                  [--retry-for SECS]
//! ```
//!
//! Dials the frontend (retrying with jittered exponential backoff for up
//! to `--retry-for` seconds), binds its own worker listener on `--addr`
//! (printed, for `rck_worker --addr`), and serves granted tiles until
//! the frontend says Shutdown.

use rck_serve::transport::TcpChannelListener;
use rck_serve::{connect_with_backoff, BackoffPolicy, Listener};
use rck_shard::{run_shard_master, ShardMasterConfig};
use rckalign::cli::{Flags, ParseError};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
rck_shard_master — worker farm serving rck_shardd tile grants

USAGE:
  rck_shard_master --frontend HOST:PORT [--addr HOST:PORT] [--name NAME]
                   [--batch N] [--prefetch N] [--heartbeat-ms MS]
                   [--retry-for SECS]

Defaults: --addr 127.0.0.1:0 (prints the picked port), --name
shard-master, --batch 16, --prefetch 2, --heartbeat-ms 100,
--retry-for 30. --retry-for 0 fails immediately when the frontend is
unreachable.
";

struct Options {
    frontend: SocketAddr,
    addr: SocketAddr,
    cfg: ShardMasterConfig,
    policy: BackoffPolicy,
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut frontend: Option<SocketAddr> = None;
    let mut addr: SocketAddr = SocketAddr::from(([127, 0, 0, 1], 0));
    let mut cfg = ShardMasterConfig::default();
    let mut policy = BackoffPolicy::default();
    let mut flags = Flags::new(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "frontend" => frontend = Some(flags.value()?.parse("frontend address")?),
            "addr" => addr = flags.value()?.parse("address")?,
            "name" => cfg.name = flags.value()?.string(),
            "batch" => cfg.serve.batch_size = flags.value()?.in_range(1.., "batch size")?,
            "prefetch" => cfg.prefetch = flags.value()?.in_range(1..=64, "prefetch")?,
            "heartbeat-ms" => {
                cfg.heartbeat_interval = flags.value()?.millis("heartbeat interval")?
            }
            "retry-for" => {
                policy.total = Duration::from_secs(flags.value()?.parse("retry budget")?);
            }
            _ => return Err(flags.unknown()),
        }
    }
    let frontend = frontend.ok_or_else(|| ParseError("--frontend is required".into()))?;
    Ok(Options {
        frontend,
        addr,
        cfg,
        policy,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(refusal) => return refusal.exit(USAGE),
    };
    let listener = match TcpChannelListener::bind(opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind worker listener on {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(bound) = Listener::local_addr(&listener) {
        println!("{}: workers connect to {bound}", opts.cfg.name);
    }
    let conn = match connect_with_backoff(opts.frontend, &opts.policy) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_shard_master(conn, Box::new(listener), &opts.cfg) {
        Ok(report) => {
            println!(
                "{}: master {} done — {} tiles delivered ({} jobs through the farm){}",
                opts.cfg.name,
                report.master_id,
                report.tiles_done,
                report.farm.jobs_completed,
                if report.failed_by_injection {
                    " [crash-injected]"
                } else {
                    ""
                }
            );
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

    fn parse(s: &str) -> Result<Options, ParseError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn frontend_is_required() {
        assert!(parse("").is_err());
        assert!(parse("--name m0").is_err());
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(
            "--frontend 127.0.0.1:7500 --addr 127.0.0.1:7600 --name m0 \
             --batch 8 --prefetch 3 --heartbeat-ms 50 --retry-for 5",
        )
        .unwrap();
        assert_eq!(opts.frontend.port(), 7500);
        assert_eq!(opts.addr.port(), 7600);
        assert_eq!(opts.cfg.name, "m0");
        assert_eq!(opts.cfg.serve.batch_size, 8);
        assert_eq!(opts.cfg.prefetch, 3);
        assert_eq!(opts.cfg.heartbeat_interval.as_millis(), 50);
        assert_eq!(opts.policy.total, Duration::from_secs(5));
        assert!(opts.cfg.crash_after_tiles.is_none());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--frontend nonsense").is_err());
        assert!(parse("--frontend 127.0.0.1:1 --batch 0").is_err());
        assert!(parse("--frontend 127.0.0.1:1 --prefetch 0").is_err());
        assert!(parse("--frontend 127.0.0.1:1 --prefetch 999").is_err());
        assert!(parse("--frontend 127.0.0.1:1 --heartbeat-ms 0").is_err());
        assert!(parse("--frontend 127.0.0.1:1 --retry-for x").is_err());
        assert!(parse("--frontend 127.0.0.1:1 --frobnicate 1").is_err());
        assert!(parse("positional").is_err());
    }
}
