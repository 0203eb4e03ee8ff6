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
//! Both drive `--tenants` closed-loop tenant threads over their share
//! of `--queries` through [`rckalign_bench::gate_load`], the run
//! `rck_report` shares. Tenants own disjoint shares of the query pool, so
//! the self-contained run fails unless the gate coalesced nothing, and
//! unless every ranking is bit-identical to the in-process reference.
//! The run prints queries/sec and p50/p95/p99; the repeatable gate
//! numbers are `benchmark/`'s `gate_rs119_rmsd` workload.

use rck_gate::{GateClient, GateConfig};
use rck_pdb::datasets;
use rckalign::cli::{self, Flags, ParseError};
use rckalign_bench::gate_load::{self, Load};
use std::net::SocketAddr;
use std::process::ExitCode;

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

fn fmt_secs(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{:.1}", v * 1e3),
        Some(_) => ">60000".to_string(),
        None => "nan".to_string(),
    }
}

fn run_load(opts: &Options) -> Result<(), String> {
    let profile = datasets::by_name(&opts.dataset)?;
    let db = profile.generate(opts.seed);
    // Query structures from a shifted seed: realistic "not in the
    // database" queries, still fully deterministic.
    let query_pool = profile.generate(opts.seed ^ 0x5eed);
    eprintln!(
        "rck_loadgen: {} db chains, {} tenants x {} queries, {} workers",
        db.len(),
        opts.tenants,
        opts.queries,
        opts.workers
    );
    let load = Load {
        tenants: opts.tenants,
        queries: opts.queries,
    };
    let (report, gate) = match opts.addr {
        Some(addr) => {
            let connect = |t: usize| {
                GateClient::dial(addr, &format!("tenant-{t}")).map_err(|e| e.to_string())
            };
            (gate_load::drive(connect, &query_pool, load, None)?, None)
        }
        None => {
            let cfg = GateConfig {
                batch_size: opts.batch,
                ..GateConfig::default()
            };
            let (report, gate) =
                gate_load::run_in_process(&db, &query_pool, load, opts.workers, cfg)?;
            (report, Some(gate))
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
    if let Some(diverged) = report.diverged {
        println!(
            "rck_loadgen: {} of {} rankings bit-identical to the in-process reference",
            report.completed - diverged,
            report.completed
        );
    }
    if report.errored > 0 {
        return Err(format!("{} tenant loops errored", report.errored));
    }
    if report.completed + report.rejected < opts.queries as u64 {
        return Err("queries went missing (no terminal frame)".to_string());
    }
    if let Some(n) = report.diverged.filter(|&n| n > 0) {
        return Err(format!(
            "{n} rankings diverged from the in-process reference"
        ));
    }
    if let Some(n) = gate.map(|g| g.queries_coalesced).filter(|&n| n > 0) {
        return Err(format!(
            "{n} queries coalesced although tenants own disjoint query shares"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::run_main(USAGE, parse_args, |opts| run_load(&opts))
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
