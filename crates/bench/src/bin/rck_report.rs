//! `rck-report` — render one live-measured run into a Markdown report.
//!
//! ```text
//! rck_report [--dataset CK34|RS119|TINY8] [--seed S] [--workers N]
//!            [--slaves 1,2,4,8] [--out PATH]
//! ```
//!
//! The report reproduces the paper's speedup/utilization tables from
//! *measurements of this build*, in three parts:
//!
//! 1. a simulated-SCC slave-count sweep (makespan, speedup, efficiency,
//!    utilization — the shape of the paper's Tables II/IV and Figs. 5–7),
//!    with the paper's published speedups alongside where the dataset and
//!    slave count match;
//! 2. a **real loopback serve run** — `--workers` worker threads against
//!    a TCP master on 127.0.0.1 — with its batch RTT percentiles and
//!    per-worker throughput, plus the bit-identity check of the wire
//!    matrix against the in-process one;
//! 3. the kernel-stage counters (DP rounds and cells, Kabsch
//!    superpositions, TM-score searches per alignment) accumulated in the
//!    global metric registry by everything above;
//! 4. a cold store-backed prefill of the Kabsch RMSD pairs: appends per
//!    log write from the `rck_store_*` counters.
//!
//! The Markdown lands at `--out` (default `docs/reports/run-report.md`).

use rck_gate::GateConfig;
use rck_obs::Registry;
use rck_pdb::datasets;
use rck_pdb::model::CaChain;
use rck_serve::{run_worker, Master, MasterConfig, WorkerConfig};
use rck_store::{Store, StoreConfig};
use rck_tmalign::stages::stage_counters;
use rck_tmalign::MethodKind;
use rckalign::cli::{self, Flags, ParseError};
use rckalign::experiments::PAPER_SLAVE_COUNTS;
use rckalign::{
    run_all_vs_all, utilization_sweep, PairCache, RckAlignOptions, SimilarityMatrix, StoreBinding,
    UtilizationPoint,
};
use rckalign_bench::gate_load::{self, Load};
use rckalign_bench::{paper, DATASET_SEED};
use std::fmt::Write as FmtWrite;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
rck_report — render a live-measurement run report to Markdown

USAGE:
  rck_report [--dataset CK34|RS119|TINY8] [--seed S] [--workers N]
             [--slaves N,N,...] [--out PATH]

Defaults: --dataset TINY8, --seed 2013, --workers 3, --slaves 1,2,4,8,
--out docs/reports/run-report.md.
";

#[derive(Debug, PartialEq)]
struct Options {
    dataset: String,
    seed: u64,
    workers: usize,
    slaves: Vec<usize>,
    out: String,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            dataset: "TINY8".to_string(),
            seed: DATASET_SEED,
            workers: 3,
            slaves: vec![1, 2, 4, 8],
            out: "docs/reports/run-report.md".to_string(),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut opts = Options::default();
    let mut flags = Flags::new(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "dataset" => opts.dataset = flags.value()?.string(),
            "seed" => opts.seed = flags.value()?.parse("seed")?,
            "workers" => opts.workers = flags.value()?.in_range(1.., "worker count")?,
            "slaves" => opts.slaves = flags.value()?.list(1.., "slave count")?,
            "out" => opts.out = flags.value()?.string(),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// The paper's published (speedup, seconds) for this dataset and slave
/// count, when it has one.
fn paper_reference(dataset: &str, slaves: usize) -> Option<(f64, f64)> {
    let table = match dataset.to_ascii_uppercase().as_str() {
        "CK34" => &paper::TABLE4_CK34,
        "RS119" => &paper::TABLE4_RS119,
        _ => return None,
    };
    let ix = PAPER_SLAVE_COUNTS.iter().position(|&s| s == slaves)?;
    Some(table[ix])
}

fn speedup_table(dataset: &str, points: &[UtilizationPoint]) -> String {
    let base = points[0].makespan_secs * points[0].slaves as f64;
    let mut md = String::new();
    md.push_str(
        "| slaves | makespan (s) | speedup | efficiency | mean slave util | master comm |\n",
    );
    md.push_str("|---:|---:|---:|---:|---:|---:|\n");
    for p in points {
        let speedup = base / p.makespan_secs;
        let paper_col = match paper_reference(dataset, p.slaves) {
            Some((s, _)) => format!(" (paper: {s:.2})"),
            None => String::new(),
        };
        let _ = writeln!(
            md,
            "| {} | {:.2} | {:.2}{} | {:.2} | {:.0}% | {:.0}% |",
            p.slaves,
            p.makespan_secs,
            speedup,
            paper_col,
            speedup / p.slaves as f64,
            p.mean_slave_utilization * 100.0,
            p.master_comm_fraction * 100.0,
        );
    }
    md
}

fn fmt_percentile(snap: &rck_obs::HistogramSnapshot, p: f64) -> String {
    match snap.percentile(p) {
        Some(v) if v.is_finite() => format!("≤{:.1} ms", v * 1e3),
        Some(_) => ">60 s".to_string(),
        None => "—".to_string(),
    }
}

fn serve_section(run: &rck_serve::ServeRun, identical: bool) -> String {
    let s = &run.stats;
    let mut md = String::new();
    let _ = writeln!(
        md,
        "| jobs completed | batches | requeues | bytes tx | chains shipped | bytes rx | workers |\n\
         |---:|---:|---:|---:|---:|---:|---:|\n\
         | {} | {} | {} | {} | {} | {} | {} |\n",
        s.jobs_completed,
        s.batches_completed,
        s.batches_requeued,
        s.bytes_tx,
        s.chains_shipped,
        s.bytes_rx,
        s.workers_connected,
    );
    let _ = writeln!(
        md,
        "Batch round-trip: p50 {}, p95 {}, p99 {} over {} batches, grant to \
         result — queue wait included: the deepest window a connection was \
         given (`rck_window_batches`) was {}.\n",
        fmt_percentile(&s.batch_rtt, 50.0),
        fmt_percentile(&s.batch_rtt, 95.0),
        fmt_percentile(&s.batch_rtt, 99.0),
        s.batch_rtt.count,
        s.window_batches,
    );
    md.push_str("| worker | jobs | batches | jobs/s |\n|---|---:|---:|---:|\n");
    for w in &s.workers {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:.1} |",
            w.name, w.jobs_completed, w.batches_completed, w.jobs_per_sec
        );
    }
    let _ = writeln!(
        md,
        "\nWire matrix vs in-process `run_all_vs_all`: **{}** \
         ({}×{} matrix, coverage {:.0}%).",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        run.matrix.len(),
        run.matrix.len(),
        run.matrix.coverage() * 100.0,
    );
    md
}

/// The serving section: a fixed multi-tenant load through
/// [`gate_load::run_in_process`], rendered from the live `rck_gate_*`
/// histograms. Every ranking is checked bit-identical against the
/// in-process reference; returns an error line instead of a section if
/// any diverged or was refused.
fn gate_section(db: &[CaChain], queries: &[CaChain], workers: usize) -> Result<String, String> {
    let load = Load {
        tenants: 3,
        queries: 12,
    };
    let cfg = GateConfig {
        batch_size: 4,
        ..GateConfig::default()
    };
    let (tenants, snap) = gate_load::run_in_process(db, queries, load, workers, cfg)?;
    let mut md = String::new();
    let _ = writeln!(
        md,
        "| tenants | queries | coalesced | jobs | requeues | queries/sec |\n\
         |---:|---:|---:|---:|---:|---:|\n\
         | {} | {} | {} | {} | {} | {:.1} |\n",
        load.tenants,
        snap.queries_completed,
        snap.queries_coalesced,
        snap.jobs_completed,
        snap.jobs_requeued,
        tenants.queries_per_sec(),
    );
    let _ = writeln!(
        md,
        "Query latency (`rck_gate_query_latency_seconds`): p50 {}, p95 {}, \
         p99 {} over {} queries; first partial \
         (`rck_gate_first_result_seconds`): p50 {}; deepest pool window \
         (`rck_gate_window_batches`): {}.\n",
        fmt_percentile(&snap.query_latency, 50.0),
        fmt_percentile(&snap.query_latency, 95.0),
        fmt_percentile(&snap.query_latency, 99.0),
        snap.query_latency.count,
        fmt_percentile(&snap.first_result, 50.0),
        snap.window_batches,
    );
    let identical = tenants.diverged == Some(0);
    let _ = writeln!(
        md,
        "All {} streamed rankings vs in-process one-vs-all: **{}**.",
        tenants.completed,
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
    );
    if tenants.completed < load.queries as u64 {
        return Err(format!(
            "{} of {} gate queries were refused or lost",
            load.queries as u64 - tenants.completed,
            load.queries
        ));
    }
    if !identical {
        return Err("gate rankings diverged from the in-process reference".to_string());
    }
    Ok(md)
}

fn kernel_section() -> String {
    let st = stage_counters();
    let alignments = st.alignments.get().max(1);
    let mut md = String::new();
    md.push_str("| stage | total | per alignment |\n|---|---:|---:|\n");
    for (name, counter) in [
        ("initial alignments", &st.initial_alignments),
        ("DP rounds", &st.dp_rounds),
        ("DP cells", &st.dp_cells),
        ("Kabsch superpositions", &st.kabsch_iterations),
        ("TM-score searches", &st.tmscore_refinements),
        ("rounds reused", &st.rounds_reused),
        ("kernel ops", &st.ops),
    ] {
        let total = counter.get();
        let _ = writeln!(
            md,
            "| {name} | {total} | {:.1} |",
            total as f64 / alignments as f64
        );
    }
    let _ = writeln!(md, "\n{} alignments measured.", st.alignments.get());
    md
}

/// A cold store-backed `prefill` of every Kabsch RMSD pair on 2 threads,
/// from its `rck_store_*` counters: each thread's piece is one log write.
fn store_section(chains: &[CaChain], path: &Path) -> Result<String, String> {
    let _ = std::fs::remove_file(path);
    let store = Store::open(path, StoreConfig::on_registry(Registry::new()))
        .map_err(|e| format!("store {}: {e}", path.display()))?;
    let binding = Arc::new(StoreBinding::new(store, chains));
    let jobs = rckalign::all_vs_all(chains.len(), MethodKind::KabschRmsd);
    PairCache::new(chains.to_vec())
        .with_store(Arc::clone(&binding))
        .prefill(&jobs, 2);
    let _ = std::fs::remove_file(path);
    let c = binding.with_store(|s| s.counters().clone());
    let (appends, writes) = (c.appends.get(), c.writes.get());
    Ok(format!(
        "| misses | appends | log writes | appends per write |\n|---:|---:|---:|---:|\n\
         | {} | {appends} | {writes} | {:.1} |\n",
        c.misses.get(),
        appends as f64 / writes.max(1) as f64,
    ))
}

fn run_report(opts: &Options) -> Result<String, String> {
    let profile = datasets::by_name(&opts.dataset)?;
    let chains = profile.generate(opts.seed);
    let n = chains.len();
    eprintln!("rck_report: {} chains, preparing pair cache...", n);
    let cache = PairCache::new(chains.clone());
    rckalign::experiments::prepare(&cache);

    // Part 1: simulated-SCC sweep.
    eprintln!("rck_report: sweeping slave counts {:?}...", opts.slaves);
    let points = utilization_sweep(&cache, &opts.slaves, RckAlignOptions::paper);

    // Bit-identity reference for the loopback run.
    let reference = {
        let run = run_all_vs_all(&cache, &RckAlignOptions::paper(4));
        SimilarityMatrix::from_outcomes(n, &run.outcomes)
    };

    // Part 2: real loopback serve run.
    eprintln!(
        "rck_report: loopback serve run with {} workers...",
        opts.workers
    );
    let cfg = MasterConfig {
        batch_size: 4,
        min_workers: opts.workers,
        ..MasterConfig::default()
    };
    let master = Master::bind(chains, cfg).map_err(|e| e.to_string())?;
    let addr = master.local_addr();
    let serve_registry = master.stats().registry();
    let workers: Vec<_> = (0..opts.workers)
        .map(|k| {
            std::thread::spawn(move || {
                let mut wcfg = WorkerConfig::connect_to(addr);
                wcfg.name = format!("w{k}");
                run_worker(&wcfg)
            })
        })
        .collect();
    let run = master.run().map_err(|e| e.to_string())?;
    for w in workers {
        w.join()
            .map_err(|_| "worker thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
    }
    let identical = run.matrix == reference;

    // Part 3: assemble the Markdown.
    let mut md = String::new();
    let _ = writeln!(md, "# rckAlign run report\n");
    let _ = writeln!(
        md,
        "Dataset **{}** (seed {}): {} chains, {} pairs. All numbers below \
         are measured from this build — the simulated-SCC sweep, a real \
         loopback TCP serve run, and the kernel-stage counters they \
         accumulated.\n",
        opts.dataset,
        opts.seed,
        n,
        rckalign::pair_count(n),
    );
    let _ = writeln!(md, "## Simulated SCC: speedup and utilization\n");
    md.push_str(&speedup_table(&opts.dataset, &points));
    let _ = writeln!(
        md,
        "\nSpeedup is against the single-slave makespan; the paper column \
         (Table IV) appears when the dataset and slave count match a \
         published row.\n",
    );
    let _ = writeln!(
        md,
        "## Loopback service run ({} workers over TCP)\n",
        opts.workers
    );
    md.push_str(&serve_section(&run, identical));
    // Part 2b: online serving tier over the same farm machinery.
    eprintln!(
        "rck_report: gate serving run with {} workers...",
        opts.workers
    );
    let gate_queries = profile.generate(opts.seed ^ 0x5eed);
    let gate_db = profile.generate(opts.seed);
    let _ = writeln!(
        md,
        "\n## Online serving tier (rck-gate over the in-memory network)\n"
    );
    md.push_str(&gate_section(&gate_db, &gate_queries, opts.workers)?);
    let _ = writeln!(md, "\n## Kernel stage counters\n");
    md.push_str(&kernel_section());
    let _ = writeln!(md, "\n## Result store (cold Kabsch RMSD prefill)\n");
    let store_path = Path::new(&opts.out).with_extension("rckstore");
    md.push_str(&store_section(cache.chains(), &store_path)?);
    let _ = writeln!(md, "\n## Prometheus dump excerpt\n");
    let _ = writeln!(
        md,
        "The same numbers as scraped from `rck_served --metrics-addr` \
         (serve registry first, then the global kernel/farm registry):\n"
    );
    md.push_str("```text\n");
    let dump = rck_obs::render_all(&[serve_registry, Registry::global().clone()]);
    for line in dump.lines().filter(|l| !l.starts_with("# HELP")).take(40) {
        md.push_str(line);
        md.push('\n');
    }
    md.push_str("```\n");
    if !identical {
        return Err("wire matrix diverged from the in-process run".to_string());
    }
    Ok(md)
}

fn main() -> ExitCode {
    cli::run_main(USAGE, parse_args, |opts| {
        let path = Path::new(&opts.out);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
        let md = run_report(&opts)?;
        std::fs::write(path, &md).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("rck_report: wrote {}", path.display());
        Ok(())
    })
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
        assert_eq!(opts, Options::default());
    }

    #[test]
    fn full_flag_set() {
        let opts =
            parse("--dataset CK34 --seed 7 --workers 5 --slaves 1,3,9 --out /tmp/r.md").unwrap();
        assert_eq!(opts.dataset, "CK34");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.workers, 5);
        assert_eq!(opts.slaves, vec![1, 3, 9]);
        assert_eq!(opts.out, "/tmp/r.md");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("positional").is_err());
        assert!(parse("--workers 0").is_err());
        assert!(parse("--slaves 1,x").is_err());
        assert!(parse("--slaves").is_err());
        assert!(parse("--nope 1").is_err());
    }

    #[test]
    fn paper_reference_matches_known_rows() {
        assert_eq!(paper_reference("CK34", 1), Some((1.0, 2029.0)));
        assert_eq!(paper_reference("ck34", 47).unwrap().0, 36.17);
        assert_eq!(paper_reference("RS119", 3).unwrap().1, 9654.0);
        assert_eq!(
            paper_reference("CK34", 2),
            None,
            "no paper row for 2 slaves"
        );
        assert_eq!(paper_reference("TINY8", 1), None);
    }

    #[test]
    fn speedup_table_is_markdown() {
        let points = vec![
            UtilizationPoint {
                slaves: 1,
                makespan_secs: 10.0,
                mean_slave_utilization: 0.99,
                min_slave_utilization: 0.99,
                master_comm_fraction: 0.01,
                mean_slave_idle_secs: 0.1,
            },
            UtilizationPoint {
                slaves: 4,
                makespan_secs: 3.0,
                mean_slave_utilization: 0.8,
                min_slave_utilization: 0.7,
                master_comm_fraction: 0.05,
                mean_slave_idle_secs: 0.5,
            },
        ];
        let md = speedup_table("TINY8", &points);
        assert!(md.starts_with("| slaves |"));
        assert!(md.contains("| 4 | 3.00 | 3.33 |"), "got:\n{md}");
    }
}
