//! The golden chaos sweep on the plain `cargo test` path: the same tier
//! table, accounting and renderer `rck_chaos --out` uses, over the seeds
//! of `docs/reports/chaos-report.md` (26 farm, 4 gate, 8 store and
//! 4 shard seeds from base seed 0), must reproduce that file byte for
//! byte — every plan, verdict and fingerprint.

use rckalign_bench::chaos::{render_report, Tally, TIERS};
use std::path::Path;

/// `--seeds 26 --gate-seeds 4 --store-seeds 8 --shard-seeds 4`.
const GOLDEN_SEEDS: [(&str, u64); 4] = [
    ("seeds", 26),
    ("gate-seeds", 4),
    ("store-seeds", 8),
    ("shard-seeds", 4),
];

#[test]
fn the_golden_sweep_reproduces_the_chaos_report() {
    let mut tally = Tally::default();
    let mut lines = Vec::new();
    for (tier, (flag, seeds)) in TIERS.iter().zip(GOLDEN_SEEDS) {
        assert_eq!(tier.flag, flag, "the tier table changed order");
        for seed in 0..seeds {
            lines.push(tally.scenario(tier, seed, 1, || (tier.run)(seed)).line);
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/reports/chaos-report.md");
    let golden = std::fs::read_to_string(&path).expect("the golden chaos report");
    assert_eq!(render_report(&lines, &tally), golden);
}
