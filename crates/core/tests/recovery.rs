//! Seeded crash-recovery scenarios against a real on-disk store: every
//! reopen after a torn append, a bit flip or a killed compaction must
//! rebuild an index equal to the surviving log, deterministically,
//! across at least the 8 seeds CI pins.

use rckalign::chaos::run_store_scenario;

/// The CI seed battery. Every seed must recover with zero invariant
/// violations, and its line (with the content fingerprint) must replay.
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The number after `name=` in a store report line.
fn field(line: &str, name: &str) -> u64 {
    let at = line.find(&format!(" {name}=")).expect("field in line") + name.len() + 2;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a count")
}

#[test]
fn eight_seeds_recover_with_zero_failures() {
    for seed in SEEDS {
        let report = run_store_scenario(seed);
        assert!(
            report.pass && field(&report.line, "failures") == 0,
            "seed {seed} violated recovery invariants: {}",
            report.line
        );
        let faults = ["torn", "flips", "killed_compactions"].map(|f| field(&report.line, f));
        assert!(
            faults.iter().sum::<u64>() > 0,
            "seed {seed} scheduled no faults — the battery is vacuous"
        );
        assert!(
            field(&report.line, "reopens") > 0,
            "seed {seed} never crashed"
        );
    }
}

#[test]
fn scenario_reports_replay_bit_identically() {
    for seed in SEEDS {
        let first = run_store_scenario(seed);
        let second = run_store_scenario(seed);
        assert_eq!(first, second, "seed {seed} is not deterministic");
    }
}
