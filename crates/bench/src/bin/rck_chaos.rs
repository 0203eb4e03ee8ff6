//! `rck-chaos` — drive seeded fault scenarios through the serve layer.
//!
//! ```text
//! rck_chaos [--seeds N] [--base-seed S] [--repeat K] [--out PATH]
//! ```
//!
//! Each seed deterministically derives one complete scenario — dataset
//! size, batch size, worker-session scripts (crash/hang/slow), and
//! frame-level fault plans (drop, duplicate, corrupt, truncate, split,
//! reorder) — and runs it end-to-end over the in-memory transport
//! ([`rck_serve::transport::MemNet`]): a real [`rck_serve::Master`] and
//! real workers computing the actual TM-align kernel, with faults
//! injected underneath them.
//!
//! Every scenario must uphold the serve layer's core promise:
//!
//! * if the fault plan permits completion, the assembled matrix is
//!   **bit-identical** to in-process `run_all_vs_all`;
//! * otherwise the master fails **cleanly** — never a wrong matrix,
//!   never a deadlock (a per-scenario watchdog enforces the latter).
//!
//! The gate, store and sharded-farm scenarios are rows of the same
//! table (`rckalign_bench::chaos::TIERS`), each a run over the scenario
//! core `rckalign::chaos`.
//!
//! The canonical report (one line per scenario: plan + verdict + matrix
//! fingerprint) contains no timings and no fired-fault counts, so
//! re-running a seed yields a byte-identical line — `--repeat K` asserts
//! exactly that, failing a scenario whose rerun differs. Observed
//! fault/serve counters (which *are* timing-dependent) go to stderr
//! instead.

use rckalign::chaos::Report;
use rckalign::cli::{Flags, ParseError};
use rckalign_bench::chaos::{render_report, Tally, Tier, TIERS};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

const USAGE: &str = "\
rck_chaos — seeded fault-injection scenarios for the rck-serve layer

USAGE:
  rck_chaos [--seeds N] [--base-seed S] [--repeat K] [--gate-seeds N]
            [--store-seeds N] [--shard-seeds N] [--out PATH]

Defaults: --seeds 32, --base-seed 0, --repeat 1 (set 2+ to assert
byte-identical reports per seed), --gate-seeds 4 (multi-tenant serving
-tier scenarios; 0 disables), --store-seeds 8 (persistent-store
crash-recovery scenarios; 0 disables), --shard-seeds 4 (sharded-farm
kill-a-master scenarios; 0 disables), no --out (stdout only).
";

/// A scenario that neither completes nor aborts within this window is a
/// liveness bug — exactly what the harness exists to catch.
const WATCHDOG: Duration = Duration::from_secs(120);

struct Options {
    /// Seeds per tier, in [`TIERS`] order.
    seeds: [u64; TIERS.len()],
    base_seed: u64,
    repeat: u64,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut opts = Options {
        seeds: TIERS.each_ref().map(|t| t.default_seeds),
        base_seed: 0,
        repeat: 1,
        out: None,
    };
    let mut flags = Flags::new(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "base-seed" => opts.base_seed = flags.value()?.parse("base seed")?,
            "repeat" => opts.repeat = flags.value()?.in_range(1.., "repeat count")?,
            "out" => opts.out = Some(flags.value()?.string()),
            "seeds" => opts.seeds[0] = flags.value()?.in_range(1.., "seed count")?,
            _ => {
                let Some(t) = TIERS.iter().position(|t| t.flag == name) else {
                    return Err(flags.unknown());
                };
                opts.seeds[t] = flags.value()?.parse("seed count")?;
            }
        }
    }
    Ok(opts)
}

/// Run one scenario under the deadlock watchdog.
fn run_guarded(tier: &'static Tier, seed: u64) -> Report {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send((tier.run)(seed));
    });
    rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
        eprintln!(
            "{} {seed:06}: DEADLOCK — scenario still running after {WATCHDOG:?}",
            tier.label
        );
        std::process::exit(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(refusal) => return refusal.exit(USAGE),
    };

    let mut lines = Vec::new();
    let mut tally = Tally::default();
    for (tier, &seeds) in TIERS.iter().zip(&opts.seeds) {
        let passes_before = tally.passes;
        for seed in opts.base_seed..opts.base_seed + seeds {
            let report = tally.scenario(tier, seed, opts.repeat, || run_guarded(tier, seed));
            let mark = if report.pass { "ok  " } else { "FAIL" };
            println!("{mark} {}", report.line);
            for note in &report.notes {
                eprintln!("{} {seed:06}{note}", tier.label);
            }
            lines.push(report.line);
        }
        if seeds > 0 && !tier.held.is_empty() {
            // `--gate-seeds` counts the seeds of the tier named "gate".
            let name = tier.flag.trim_end_matches("-seeds");
            let passes = tally.passes - passes_before;
            println!("{name}: {passes}/{seeds} {}", tier.held);
        }
    }

    println!("{}", tally.summary());
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, render_report(&lines, &tally)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::from(u8::from(tally.failures > 0))
}
