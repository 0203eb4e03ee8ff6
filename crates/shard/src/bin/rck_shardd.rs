//! `rck_shardd` — the shard frontend daemon (master-of-masters).
//!
//! ```text
//! rck_shardd [--addr HOST:PORT] [--dataset CK34|RS119|TINY8] [--seed S]
//!            [--tile-size N] [--masters N] [--timeout-ms MS]
//!            [--tile-timeout-ms MS] [--stall-timeout-ms MS] [--store PATH]
//!            [--metrics-addr HOST:PORT]
//! ```
//!
//! Loads the dataset, prints the bound address, deals tile ownership
//! across connecting `rck_shard_master`s, and prints the merged-matrix
//! digest plus the shard counters when every tile is in. With `--store`
//! the persistent result store answers already-computed pairs without
//! dispatch and absorbs the new ones on completion. Signals and metrics
//! are the [`rck_serve::daemon`] shell's: `--metrics-addr` serves the
//! shard counters plus the global registry, SIGINT/SIGTERM aborts the run
//! (the frontend has no drain), and the final metrics dump goes to
//! stderr.

use rck_pdb::datasets;
use rck_serve::daemon;
use rck_shard::{ShardConfig, ShardFrontend};
use rck_store::{Store, StoreConfig};
use rckalign::cli::{self, Flags, ParseError};
use rckalign::StoreBinding;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
rck_shardd — shard frontend dealing pair-matrix tiles across masters

USAGE:
  rck_shardd [--addr HOST:PORT] [--dataset CK34|RS119|TINY8] [--seed S]
             [--tile-size N] [--masters N] [--timeout-ms MS]
             [--tile-timeout-ms MS] [--stall-timeout-ms MS] [--store PATH]
             [--metrics-addr HOST:PORT]

Defaults: --addr 127.0.0.1:0 (prints the picked port), --dataset TINY8,
--seed 2013, --tile-size 4, --masters 2, --timeout-ms 1000, no tile
deadline, stall bound 8x the heartbeat timeout (the run fails instead of
waiting forever when no master is connected), no store, no metrics
listener.
";

#[derive(Debug, PartialEq)]
struct Options {
    dataset: String,
    seed: u64,
    cfg: ShardConfig,
    store: Option<String>,
    metrics_addr: Option<SocketAddr>,
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut cfg = ShardConfig::default();
    let mut dataset = "TINY8".to_string();
    let mut seed = 2013u64;
    let mut store = None;
    let mut metrics_addr = None;
    let mut flags = Flags::new(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "addr" => cfg.addr = flags.value()?.parse("address")?,
            "dataset" => dataset = flags.value()?.string(),
            "seed" => seed = flags.value()?.parse("seed")?,
            "tile-size" => cfg.tile_size = flags.value()?.in_range(1.., "tile size")?,
            "masters" => cfg.masters = flags.value()?.in_range(1.., "master count")?,
            "timeout-ms" => cfg.heartbeat_timeout = flags.value()?.millis("timeout")?,
            "tile-timeout-ms" => cfg.tile_timeout = Some(flags.value()?.millis("tile timeout")?),
            "stall-timeout-ms" => cfg.stall_timeout = Some(flags.value()?.millis("stall timeout")?),
            "store" => store = Some(flags.value()?.string()),
            "metrics-addr" => metrics_addr = Some(flags.value()?.parse("metrics address")?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(Options {
        dataset,
        seed,
        cfg,
        store,
        metrics_addr,
    })
}

fn serve(opts: Options) -> Result<(), String> {
    let chains = datasets::by_name(&opts.dataset)?.generate(opts.seed);
    let n = chains.len();
    let mut frontend =
        ShardFrontend::bind(chains.clone(), opts.cfg.clone()).map_err(|e| e.to_string())?;
    if let Some(path) = &opts.store {
        let store = Store::open(path, StoreConfig::default()).map_err(|e| e.to_string())?;
        let stored = store.len();
        frontend = frontend.with_store(Arc::new(StoreBinding::new(store, &chains)));
        println!("rck_shardd: store {path} attached ({stored} pairs resident)");
    }
    println!(
        "rck_shardd: {} chains ({} pairs) in {}-wide tiles across {} masters on {}",
        n,
        rckalign::pair_count(n),
        opts.cfg.tile_size,
        opts.cfg.masters,
        frontend.local_addr()
    );
    let registry = frontend.stats().registry();
    daemon::serve_metrics(opts.metrics_addr, &registry)?;
    // The frontend has no drain: a signal aborts the run.
    let abort = frontend.abort_handle();
    let shell = daemon::on_signal(registry, move || abort.abort());
    let run = frontend.run();
    shell.finish();
    let run = run.map_err(|e| e.to_string())?;
    println!();
    print!("{}", run.stats.render());
    println!();
    println!(
        "matrix: {}x{} merged, coverage {:.0}%",
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

    fn parse(s: &str) -> Result<Options, ParseError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults() {
        let opts = parse("").unwrap();
        assert_eq!(opts.dataset, "TINY8");
        assert_eq!(opts.seed, 2013);
        assert_eq!(opts.cfg, ShardConfig::default());
        assert!(opts.store.is_none());
        assert!(opts.metrics_addr.is_none());
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(
            "--addr 0.0.0.0:7500 --dataset CK34 --seed 9 --tile-size 6 \
             --masters 4 --timeout-ms 250 --tile-timeout-ms 5000 \
             --stall-timeout-ms 60000 --store /tmp/s.rckstore \
             --metrics-addr 127.0.0.1:9101",
        )
        .unwrap();
        assert_eq!(opts.dataset, "CK34");
        assert_eq!(opts.cfg.addr.port(), 7500);
        assert_eq!(opts.cfg.tile_size, 6);
        assert_eq!(opts.cfg.masters, 4);
        assert_eq!(opts.cfg.heartbeat_timeout.as_millis(), 250);
        assert_eq!(opts.cfg.tile_timeout.unwrap().as_millis(), 5000);
        assert_eq!(opts.cfg.stall_timeout.unwrap().as_millis(), 60000);
        assert_eq!(opts.store.as_deref(), Some("/tmp/s.rckstore"));
        assert_eq!(opts.metrics_addr.unwrap().port(), 9101);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("positional").is_err());
        assert!(parse("--addr nonsense").is_err());
        assert!(parse("--tile-size 0").is_err());
        assert!(parse("--masters 0").is_err());
        assert!(parse("--timeout-ms 0").is_err());
        assert!(parse("--tile-timeout-ms x").is_err());
        assert!(parse("--stall-timeout-ms 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate 1").is_err());
    }
}
