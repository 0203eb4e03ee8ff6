//! `rck_served` — the rck-serve master daemon.
//!
//! ```text
//! rck_served [--addr HOST:PORT] [--dataset CK34|RS119|TINY8] [--seed S]
//!            [--batch N] [--ordering fifo|lpt|shuffle] [--timeout-ms MS]
//!            [--min-workers N] [--metrics-addr HOST:PORT]
//! ```
//!
//! Loads the dataset, prints the bound address, serves the all-vs-all
//! workload to connecting `rck_worker`s, and prints the final stats and
//! a matrix digest when every pair is done. Signals and metrics are the
//! [`rck_serve::daemon`] shell's: `--metrics-addr` serves the serve
//! counters plus the global (kernel/farm) registry, SIGINT/SIGTERM drains
//! (inflight batches finish, workers get an orderly Shutdown frame), and
//! the final metrics dump goes to stderr.

use rck_pdb::datasets;
use rck_serve::{daemon, Master, MasterConfig};
use rckalign::cli::{self, Flags, ParseError};
use rckalign::JobOrdering;
use std::net::SocketAddr;
use std::process::ExitCode;

const USAGE: &str = "\
rck_served — TCP master serving the all-vs-all TM-align workload

USAGE:
  rck_served [--addr HOST:PORT] [--dataset CK34|RS119|TINY8] [--seed S]
             [--batch N] [--ordering fifo|lpt|shuffle] [--timeout-ms MS]
             [--min-workers N] [--metrics-addr HOST:PORT]

Defaults: --addr 127.0.0.1:0 (prints the picked port), --dataset TINY8,
--seed 2013, --batch 16, --ordering lpt, --timeout-ms 1000,
--min-workers 1, no metrics listener.
";

#[derive(Debug, PartialEq)]
struct Options {
    dataset: String,
    seed: u64,
    cfg: MasterConfig,
    metrics_addr: Option<SocketAddr>,
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut cfg = MasterConfig::default();
    let mut dataset = "TINY8".to_string();
    let mut seed = 2013u64;
    let mut ordering = "lpt".to_string();
    let mut metrics_addr = None;
    let mut flags = Flags::new(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "addr" => cfg.addr = flags.value()?.parse("address")?,
            "dataset" => dataset = flags.value()?.string(),
            "seed" => seed = flags.value()?.parse("seed")?,
            "batch" => cfg.batch_size = flags.value()?.in_range(1.., "batch size")?,
            "ordering" => ordering = flags.value()?.string(),
            "timeout-ms" => cfg.heartbeat_timeout = flags.value()?.millis("timeout")?,
            "min-workers" => cfg.min_workers = flags.value()?.parse("worker count")?,
            "metrics-addr" => metrics_addr = Some(flags.value()?.parse("metrics address")?),
            _ => return Err(flags.unknown()),
        }
    }
    // Resolved after the loop so `--ordering shuffle --seed N` works in
    // either flag order.
    cfg.ordering = match ordering.as_str() {
        "fifo" => JobOrdering::Fifo,
        "lpt" => JobOrdering::LongestFirst,
        "shuffle" => JobOrdering::Shuffled(seed),
        other => return Err(ParseError(format!("unknown ordering {other}"))),
    };
    Ok(Options {
        dataset,
        seed,
        cfg,
        metrics_addr,
    })
}

fn serve(opts: Options) -> Result<(), String> {
    let chains = datasets::by_name(&opts.dataset)?.generate(opts.seed);
    let n = chains.len();
    let master = Master::bind(chains, opts.cfg).map_err(|e| e.to_string())?;
    println!(
        "rck_served: {} chains ({} pairs) on {}",
        n,
        rckalign::pair_count(n),
        master.local_addr()
    );
    let registry = master.stats().registry();
    daemon::serve_metrics(opts.metrics_addr, &registry)?;
    let drain = master.abort_handle();
    let shell = daemon::on_signal(registry, move || drain.drain());
    let run = master.run();
    shell.finish();
    let run = run.map_err(|e| e.to_string())?;
    println!();
    print!("{}", run.stats.render());
    println!();
    println!(
        "matrix: {}x{} assembled, coverage {:.0}%",
        run.matrix.len(),
        run.matrix.len(),
        run.matrix.coverage() * 100.0
    );
    Ok(())
}

fn main() -> ExitCode {
    cli::run_main(USAGE, parse_args, serve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_tmalign::MethodKind;

    fn parse(s: &str) -> Result<Options, ParseError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults() {
        let opts = parse("").unwrap();
        assert_eq!(opts.dataset, "TINY8");
        assert_eq!(opts.seed, 2013);
        assert_eq!(opts.cfg.batch_size, 16);
        assert_eq!(opts.cfg.method, MethodKind::TmAlign);
        assert_eq!(opts.cfg.min_workers, 1);
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(
            "--addr 0.0.0.0:7000 --dataset CK34 --seed 9 --batch 32 \
             --ordering shuffle --timeout-ms 250 --min-workers 4 \
             --metrics-addr 127.0.0.1:9100",
        )
        .unwrap();
        assert_eq!(opts.dataset, "CK34");
        assert_eq!(opts.cfg.addr.port(), 7000);
        assert_eq!(opts.cfg.batch_size, 32);
        assert_eq!(opts.cfg.ordering, JobOrdering::Shuffled(9));
        assert_eq!(opts.cfg.heartbeat_timeout.as_millis(), 250);
        assert_eq!(opts.cfg.min_workers, 4);
        assert_eq!(opts.metrics_addr.unwrap().port(), 9100);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("positional").is_err());
        assert!(parse("--addr nonsense").is_err());
        assert!(parse("--batch 0").is_err());
        assert!(parse("--ordering sideways").is_err());
        assert!(parse("--timeout-ms 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate 1").is_err());
        assert!(parse("--metrics-addr not-an-addr").is_err());
    }
}
