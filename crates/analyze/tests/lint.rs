//! Integration tests: the seeded `bad-tree` fixture must trip every
//! pass, the real workspace must stay lint-clean, reports must be
//! byte-deterministic, and `rck_lint --deny` must gate accordingly.

use rck_analyze::{protocol, report, run_all, Pass};
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
    // metrics: naming, double registration, orphan doc, unknown usage
    assert!(has("counters must end `_total`"), "{:#?}", outcome.findings);
    assert!(has("registered 2 times"));
    assert!(has("`rck_ghost_jobs_total` but nothing registers it"));
    assert!(has("`rck_phantom_total` but no registration defines it"));
    // protocol: header drift and kind-name drift
    assert!(has("23-byte header"));
    assert!(has("`Goodbye`"));
    // panics + locks
    assert!(has("`.unwrap()`"));
    assert!(has("held across `write_all()`"));
    assert!(has("inconsistent lock order"));
    // model: missing requeue anchors disable the transition and the
    // checker exhibits the resulting stuck state
    assert!(has("transition-table anchor missing"));
    assert!(has("stuck state"));
}

#[test]
fn workspace_self_check_is_clean() {
    let outcome = run_all(workspace_root());
    assert!(
        outcome.findings.is_empty(),
        "the workspace must stay lint-clean; findings:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    // A lost registration or lifecycle anchor moves these counts.
    assert_eq!(outcome.metrics.len(), 84, "production metric families");
    let model = outcome.model.expect("the lifecycle model ran");
    assert_eq!((model.states, model.transitions), (18_684, 84_562));
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

/// The acceptance scenario: take the *real* proto.rs and the *real*
/// DESIGN.md, introduce one constant drift into the doc, and the
/// protocol pass must catch it.
#[test]
fn deliberate_design_drift_against_real_sources_is_caught() {
    let root = workspace_root();
    let proto = std::fs::read_to_string(format!("{root}/crates/serve/src/proto.rs"))
        .expect("read real proto.rs");
    let design = std::fs::read_to_string(format!("{root}/DESIGN.md")).expect("read real DESIGN.md");

    let (clean, contract) = protocol::check_sources(&proto, &design);
    assert_eq!(clean, vec![], "real sources must agree: {clean:#?}");
    assert_eq!(contract.expect("contract extracted").header_len, 19);

    let tampered = design.replace("19-byte header", "23-byte header");
    assert_ne!(design, tampered, "the drift must actually apply");
    let (findings, _) = protocol::check_sources(&proto, &tampered);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("23-byte header")),
        "tampered header length went unnoticed: {findings:#?}"
    );
}
