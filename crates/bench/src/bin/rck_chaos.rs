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
//! The canonical report (one line per scenario: plan + verdict + matrix
//! fingerprint) contains no timings and no fired-fault counts, so
//! re-running a seed yields a byte-identical line — `--repeat K` asserts
//! exactly that. Observed fault/serve counters (which *are*
//! timing-dependent) go to stderr instead.

use rck_gate::chaos::{run_gate_scenario, GateScenarioPlan};
use rck_serve::chaos::run_scenario;
use rck_serve::ScenarioPlan;
use rck_shard::{run_shard_scenario, ShardScenarioPlan};
use rck_store::fault::run_store_scenario;
use rckalign::cli::{Flags, ParseError};
use std::fmt::Write as FmtWrite;
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

/// What one scenario run reports to the driver.
struct Outcome {
    /// The canonical, deterministic report line.
    line: String,
    pass: bool,
    /// The plan expected a clean abort, not a bit-identical completion.
    aborts: bool,
    /// Timing-dependent observations for stderr, each printed behind the
    /// tier's label and the seed.
    notes: Vec<String>,
}

fn outcome(line: String, pass: bool, aborts: bool, notes: Vec<String>) -> Outcome {
    Outcome {
        line,
        pass,
        aborts,
        notes,
    }
}

/// One tier of the stack under seeded faults. Failures of every tier
/// fold into one exit code and one final "N failures" figure, which the
/// CI smoke greps for.
struct Tier {
    /// Flag that sets the tier's seed count, and its default.
    flag: &'static str,
    default_seeds: u64,
    /// stderr prefix of one scenario.
    label: &'static str,
    /// What the tier's summary line says held; empty prints none.
    held: &'static str,
    run: fn(u64) -> Outcome,
}

const TIERS: [Tier; 4] = [
    // Worker sessions that crash, hang or stall, and frame-level fault
    // plans, under a real master; some plans can only abort cleanly.
    Tier {
        flag: "seeds",
        default_seeds: 32,
        label: "seed",
        held: "",
        run: |seed| {
            let r = run_scenario(&ScenarioPlan::from_seed(seed));
            let notes = vec![format!(" observed: {}", r.observed)];
            outcome(r.report_line, r.pass, !r.plan.expect_complete, notes)
        },
    },
    // Multi-tenant gates under client-stream faults and worker crashes.
    Tier {
        flag: "gate-seeds",
        default_seeds: 4,
        label: "gate seed",
        held: "serving-tier scenarios held isolation and bit-identity",
        run: |seed| {
            let r = run_gate_scenario(&GateScenarioPlan::from_seed(seed));
            let notes = r.failures.iter().map(|f| format!(": {f}")).collect();
            outcome(r.report_line(), r.passed(), false, notes)
        },
    },
    // Torn appends, bit flips and killed compactions against a real
    // on-disk log: every reopen recovers exactly the surviving prefix.
    Tier {
        flag: "store-seeds",
        default_seeds: 8,
        label: "store seed",
        held: "crash-recovery scenarios recovered the surviving prefix",
        run: |seed| {
            let r = run_store_scenario(seed);
            outcome(r.report_line(), r.failures == 0, false, Vec::new())
        },
    },
    // Whole masters killed mid-tile, the frontend requeueing their tiles
    // onto the survivors.
    Tier {
        flag: "shard-seeds",
        default_seeds: 4,
        label: "shard seed",
        held: "sharded-farm scenarios requeued and merged bit-identical",
        run: |seed| {
            let r = run_shard_scenario(&ShardScenarioPlan::from_seed(seed));
            let notes = vec![format!(" observed: {}", r.observed)];
            outcome(r.report_line, r.pass, false, notes)
        },
    },
];

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
fn run_guarded(tier: &'static Tier, seed: u64) -> Outcome {
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

    let mut report = String::new();
    let (mut failures, mut passes, mut aborted) = (0u64, 0u64, 0u64);
    for (tier, &seeds) in TIERS.iter().zip(&opts.seeds) {
        let passes_before = passes;
        for seed in opts.base_seed..opts.base_seed + seeds {
            let first = run_guarded(tier, seed);
            for rerun in 1..opts.repeat {
                let again = run_guarded(tier, seed);
                if again.line != first.line {
                    eprintln!(
                        "{} {seed:06}: NONDETERMINISTIC report (rerun {rerun})\n  first: {}\n  again: {}",
                        tier.label, first.line, again.line
                    );
                    failures += 1;
                }
            }
            passes += u64::from(first.pass);
            aborted += u64::from(first.pass && first.aborts);
            failures += u64::from(!first.pass);
            let mark = if first.pass { "ok  " } else { "FAIL" };
            println!("{mark} {}", first.line);
            for note in &first.notes {
                eprintln!("{} {seed:06}{note}", tier.label);
            }
            let _ = writeln!(report, "{}", first.line);
        }
        if seeds > 0 && !tier.held.is_empty() {
            // `--gate-seeds` counts the seeds of the tier named "gate".
            let name = tier.flag.trim_end_matches("-seeds");
            println!("{name}: {}/{seeds} {}", passes - passes_before, tier.held);
        }
    }

    let summary = format!(
        "{} scenarios: {} completed bit-identical, {aborted} aborted cleanly, {failures} failures",
        opts.seeds.iter().sum::<u64>(),
        passes - aborted,
    );
    println!("{summary}");
    if let Some(path) = &opts.out {
        let full = format!("# rck-chaos scenario report\n\n```\n{report}```\n\n{summary}\n");
        if let Err(e) = std::fs::write(path, full) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::from(u8::from(failures > 0))
}
