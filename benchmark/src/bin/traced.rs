//! The traced binary: same code behind a counting allocator. Before its
//! own run it runs the untraced sibling binary on the same workload and
//! seed, so `trace.overhead_pct` compares like with like.

use rck_benchmark::cli::RunArgs;
use rck_benchmark::mem::CountingAlloc;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `op_p25_ms` of a short untraced run of the same workload, or `None`
/// if the sibling binary is missing or its run failed.
fn untraced_p25_ms(args: &RunArgs) -> Option<f64> {
    let sibling = std::env::current_exe()
        .ok()?
        .with_file_name("rck-benchmark");
    let out = Command::new(sibling)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / 2.0).to_string()])
        .args(["--trace", "0"])
        .output()
        .ok()?;
    let stdout = String::from_utf8(out.stdout).ok()?;
    let line = stdout.lines().last()?;
    let rest = line.split("\"op_p25_ms\": {\"value\": ").nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rck_benchmark::main_with(&args, |run| {
        if run.trace {
            untraced_p25_ms(run)
        } else {
            None
        }
    })
}
