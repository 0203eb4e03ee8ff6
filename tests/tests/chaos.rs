//! Cross-crate chaos check: a few seeded fault scenarios through the
//! real serve stack (master + workers + TM-align kernel over the
//! in-memory transport) must pass and reproduce exactly.
//!
//! The wide sweep lives in the `rck_chaos` bench binary; this keeps a
//! small, seed-overridable slice on the plain `cargo test` path. Set
//! `RCK_TEST_SEED` to probe a different base seed.

use rck_integration_tests::scenario_seed;
use rck_serve::{run_scenario, ScenarioPlan};

#[test]
fn seeded_scenarios_pass_and_reproduce() {
    let base = scenario_seed(100);
    for seed in base..base + 3 {
        let plan = ScenarioPlan::from_seed(seed);
        let first = run_scenario(&plan);
        assert!(
            first.pass,
            "seed {seed}: scenario failed: {}\n {:?}",
            first.line, first.notes
        );
        let again = run_scenario(&plan);
        assert_eq!(
            first.line, again.line,
            "seed {seed}: report not reproducible"
        );
    }
}
