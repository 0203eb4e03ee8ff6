//! Integration tests: the seeded `bad-tree` fixture must trip every
//! pass, the real workspace must stay lint-clean, reports must be
//! byte-deterministic, `rck_lint --deny` must gate accordingly, and a
//! drifted DESIGN.md §9 catalogue must fail the comparison.

use rck_analyze::{metrics, report, run_all, Pass};
use std::process::Command;

fn fixture_root() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/bad-tree").to_string()
}

fn workspace_root() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string()
}

#[test]
fn bad_tree_trips_every_pass() {
    let outcome = run_all(fixture_root());
    for pass in Pass::all() {
        assert!(
            outcome.findings.iter().any(|f| f.pass == pass),
            "pass {pass} found nothing in the seeded bad tree; findings: {:#?}",
            outcome.findings
        );
    }
}

#[test]
fn bad_tree_findings_are_the_seeded_ones() {
    let outcome = run_all(fixture_root());
    let has = |needle: &str| outcome.findings.iter().any(|f| f.message.contains(needle));
    // metrics: naming, double registration, a computed help, undocumented
    // and orphaned catalogue rows, unknown usage
    assert!(has("counters must end `_total`"), "{:#?}", outcome.findings);
    assert!(has("registered 2 times"));
    assert!(has(
        "`rck_computed_help_total` takes its help from an expression"
    ));
    assert!(has("`rck_bad_counter` is registered but not documented"));
    assert!(has("`rck_ghost_jobs_total` but nothing registers it"));
    assert!(has("`rck_phantom_total` but no registration defines it"));
    let paste = outcome.catalogue.as_deref().expect("a block to paste");
    assert!(paste.contains("| `rck_bad_counter` | counter | | counter without the _total suffix |"));
    assert!(!paste.contains("rck_ghost_jobs_total"));
    assert!(report::render(&outcome).ends_with(paste));
    // panics + locks
    assert!(has("`.unwrap()`"));
    assert!(has("held across `write_all()`"));
    assert!(has("inconsistent lock order"));
}

#[test]
fn workspace_self_check_is_clean() {
    let outcome = run_all(workspace_root());
    assert!(
        outcome.findings.is_empty(),
        "the workspace must stay lint-clean:\n{}",
        report::render(&outcome)
    );
    assert!(outcome.catalogue.is_none());
    // A lost registration moves this count.
    assert_eq!(outcome.metrics.len(), 86, "production metric families");
}

#[test]
fn reports_are_byte_deterministic() {
    for root in [workspace_root(), fixture_root()] {
        let a = report::render(&run_all(&root));
        let b = report::render(&run_all(&root));
        assert_eq!(a, b, "two runs over {root} rendered different reports");
        assert!(
            !a.contains(env!("CARGO_MANIFEST_DIR")),
            "report leaks absolute paths"
        );
    }
}

#[test]
fn deny_gates_the_exit_code() {
    let bin = env!("CARGO_BIN_EXE_rck_lint");
    let bad = Command::new(bin)
        .args(["--root", &fixture_root(), "--deny"])
        .output()
        .expect("run rck_lint on the bad tree");
    assert!(
        !bad.status.success(),
        "--deny must fail on the seeded bad tree"
    );
    assert!(String::from_utf8_lossy(&bad.stdout).contains("violations"));

    let good = Command::new(bin)
        .args(["--root", &workspace_root(), "--deny"])
        .output()
        .expect("run rck_lint on the workspace");
    assert!(
        good.status.success(),
        "--deny must pass on the real workspace:\n{}",
        String::from_utf8_lossy(&good.stdout)
    );
}

/// The real DESIGN.md with its §9 catalogue drifted in memory: a
/// registered family's row removed, a row added for a family nothing
/// registers, and a row whose kind is wrong. Each must fail the
/// comparison.
#[test]
fn catalogue_drift_against_the_real_design_is_caught() {
    let root = workspace_root();
    let design = std::fs::read_to_string(format!("{root}/DESIGN.md")).expect("read DESIGN.md");
    let inventory = run_all(&root).metrics;
    assert_eq!(metrics::check_catalogue(&design, &inventory), vec![]);

    let row = "| `rck_window_batches` | gauge | | deepest window of batches any worker connection was given |\n";
    let ghost = "| `rck_ghost_jobs_total` | counter | | jobs nobody counts |\n";
    for (drifted, needle) in [
        (
            design.replacen(row, "", 1),
            "`rck_window_batches` is registered but not documented",
        ),
        (
            design.replacen(row, &format!("{row}{ghost}"), 1),
            "`rck_ghost_jobs_total` but nothing registers it",
        ),
        (
            design.replacen(row, &row.replace("| gauge |", "| counter |"), 1),
            "differs from the registration's",
        ),
    ] {
        assert_ne!(drifted, design, "DESIGN.md \u{a7}9 holds the row");
        let findings = metrics::check_catalogue(&drifted, &inventory);
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "{needle}: {findings:#?}"
        );
    }
}
