//! The repository's one repeatable benchmark — see `README.md` beside
//! this package for the workloads, the metrics and how to read them.

pub mod cli;
pub mod inputs;
pub mod json;
pub mod manifest;
pub mod mem;
pub mod probes;
pub mod rigs;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod workloads;

use cli::Command;
use std::process::ExitCode;

/// Shared `main` of the two binaries. `untraced_p25_ms` lets the traced
/// binary hand over the untraced run's number for `trace.overhead_pct`.
pub fn main_with(
    args: &[String],
    untraced_p25_ms: impl FnOnce(&cli::RunArgs) -> Option<f64>,
) -> ExitCode {
    let run_args = match cli::parse(args) {
        Ok(Command::Run(a)) => a,
        Ok(Command::List) => {
            for w in &manifest::WORKLOADS {
                println!("{:<18} {}", w.name, w.why);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Command::Manifest) => {
            print!("{}", manifest::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("rck-benchmark: {msg}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let baseline = untraced_p25_ms(&run_args);
    match runner::run_named(&run_args, baseline) {
        Ok(report) => {
            print!("{}", report.human);
            println!(
                "{}",
                json::result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("rck-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
