//! `rck_lint` — run the workspace invariant checker.
//!
//! ```text
//! rck_lint [--root DIR] [--deny] [--out FILE]
//!
//!   --root DIR   workspace root to lint (default: .)
//!   --deny       exit nonzero when any pass finds a violation (CI mode)
//!   --out FILE   also write the Markdown report to FILE
//! ```
//!
//! The report goes to stdout either way; see DESIGN.md §11 for what the
//! four passes check and how to annotate intentional exceptions. When
//! the DESIGN.md §9 catalogue is stale, the report ends with the block
//! to paste over it.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = String::from(".");
    let mut deny = false;
    let mut out_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = v,
                None => return usage("--root needs a directory"),
            },
            "--deny" => deny = true,
            "--out" => match args.next() {
                Some(v) => out_path = Some(v),
                None => return usage("--out needs a file path"),
            },
            "--help" | "-h" => {
                println!("usage: rck_lint [--root DIR] [--deny] [--out FILE]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let outcome = rck_analyze::run_all(&root);
    let report = rck_analyze::report::render(&outcome);
    print!("{report}");

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("rck_lint: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if deny && !outcome.findings.is_empty() {
        eprintln!(
            "rck_lint: {} violation(s) — failing (--deny)",
            outcome.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("rck_lint: {err}\nusage: rck_lint [--root DIR] [--deny] [--out FILE]");
    ExitCode::FAILURE
}
