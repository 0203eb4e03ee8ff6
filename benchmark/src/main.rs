//! The untraced binary: system allocator, no spans kept — every
//! end-to-end number comes from here.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rck_benchmark::main_with(&args, |_| None)
}
