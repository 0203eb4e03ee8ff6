//! Shared by the reproduction binaries: dataset caches, the paper's
//! published numbers (for side-by-side comparison in every regenerated
//! table), claim checking, the seeded fault sweep `rck_chaos` drives, and
//! the in-process gate run `rck_loadgen` and `rck_report` share.

#![warn(missing_docs)]

pub mod gate_load;

use rck_pdb::datasets;
use rckalign::PairCache;

/// The seed every harness run uses, so all tables and figures describe
/// the same synthetic datasets.
pub const DATASET_SEED: u64 = 2013;

/// CK34-shaped dataset cache.
pub fn ck34_cache() -> PairCache {
    PairCache::new(datasets::ck34_profile().generate(DATASET_SEED))
}

/// RS119-shaped dataset cache.
pub fn rs119_cache() -> PairCache {
    PairCache::new(datasets::rs119_profile().generate(DATASET_SEED))
}

/// The paper's published numbers, used as the reference column in every
/// regenerated table. Rows of Tables II and IV follow
/// `rckalign::experiments::PAPER_SLAVE_COUNTS`.
pub mod paper {
    /// Table II: rckAlign seconds on CK34.
    pub const TABLE2_RCKALIGN: [f64; 24] = [
        2027.0, 689.0, 420.0, 305.0, 238.0, 196.0, 168.0, 148.0, 132.0, 120.0, 109.0, 101.0, 94.0,
        88.0, 83.0, 79.0, 73.0, 71.0, 68.0, 65.0, 62.0, 60.0, 59.0, 56.0,
    ];

    /// Table II: distributed TM-align seconds on CK34.
    pub const TABLE2_TMALIGN: [f64; 24] = [
        5212.0, 1704.0, 854.0, 569.0, 511.0, 452.0, 382.0, 332.0, 293.0, 262.0, 238.0, 218.0,
        202.0, 187.0, 175.0, 168.0, 174.0, 173.0, 145.0, 143.0, 132.0, 126.0, 122.0, 120.0,
    ];

    /// Table III rows: (processor, CK34 s, RS119 s).
    pub const TABLE3: [(&str, f64, f64); 2] = [
        ("AMD Athlon II X2 250 2.4 GHz", 406.0, 7298.0),
        ("Intel P54C Pentium 800 MHz", 2029.0, 28597.0),
    ];

    /// Table IV: CK34 (speedup, seconds) per slave count.
    pub const TABLE4_CK34: [(f64, f64); 24] = [
        (1.0, 2029.0),
        (2.94, 689.0),
        (4.82, 420.0),
        (6.66, 305.0),
        (8.52, 238.0),
        (10.34, 196.0),
        (12.09, 168.0),
        (13.74, 148.0),
        (15.36, 132.0),
        (16.89, 120.0),
        (18.53, 109.0),
        (20.03, 101.0),
        (21.56, 94.0),
        (23.02, 88.0),
        (24.52, 83.0),
        (25.72, 79.0),
        (27.68, 73.0),
        (28.43, 71.0),
        (29.75, 68.0),
        (30.97, 65.0),
        (32.60, 62.0),
        (33.59, 60.0),
        (34.45, 59.0),
        (36.17, 56.0),
    ];

    /// Table IV: RS119 (speedup, seconds) per slave count.
    pub const TABLE4_RS119: [(f64, f64); 24] = [
        (1.0, 28597.0),
        (2.96, 9654.0),
        (4.91, 5818.0),
        (6.95, 4114.0),
        (8.94, 3195.0),
        (10.97, 2605.0),
        (12.95, 2208.0),
        (14.88, 1921.0),
        (16.76, 1705.0),
        (18.64, 1534.0),
        (20.59, 1389.0),
        (22.52, 1270.0),
        (24.52, 1166.0),
        (26.49, 1079.0),
        (28.45, 1005.0),
        (30.37, 941.0),
        (32.32, 885.0),
        (34.21, 836.0),
        (36.14, 791.0),
        (38.01, 752.0),
        (39.74, 719.0),
        (41.49, 689.0),
        (43.40, 659.0),
        (44.78, 640.0),
    ];

    /// Table V rows: (dataset, TM-align AMD, TM-align P54C, rckAlign SCC).
    pub const TABLE5: [(&str, f64, f64, f64); 2] = [
        ("CK34", 406.0, 2029.0, 56.0),
        ("RS119", 7298.0, 28597.0, 640.0),
    ];
}

/// A checked qualitative claim (the "shape" the reproduction must hold).
#[derive(Debug, Clone)]
pub struct Claim {
    /// What the paper claims.
    pub description: String,
    /// Whether the measured data supports it.
    pub holds: bool,
    /// Measured evidence.
    pub evidence: String,
}

impl Claim {
    /// Build a claim record.
    pub fn new(description: &str, holds: bool, evidence: String) -> Claim {
        Claim {
            description: description.to_string(),
            holds,
            evidence,
        }
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "[{}] {} — {}",
            if self.holds { "HOLDS" } else { "FAILS" },
            self.description,
            self.evidence
        )
    }
}

/// The seeded fault sweep: one row per tier of the stack, each a run
/// over the scenario core (`rckalign::chaos`), the accounting that folds
/// a tier's scenarios into one summary, and the `--out` report file.
pub mod chaos {
    use rck_gate::chaos::{run_gate_scenario, GateScenarioPlan};
    use rck_serve::chaos::{run_scenario, ScenarioPlan};
    use rck_shard::{run_shard_scenario, ShardScenarioPlan};
    use rckalign::chaos::{run_store_scenario, Report};

    /// One tier of the stack under seeded faults. Failures of every tier
    /// fold into one exit code and one final "N failures" figure, which
    /// the CI smoke greps for.
    pub struct Tier {
        /// Flag that sets the tier's seed count.
        pub flag: &'static str,
        /// Seeds the tier runs when its flag is absent.
        pub default_seeds: u64,
        /// stderr prefix of one scenario.
        pub label: &'static str,
        /// What the tier's summary line says held; empty prints none.
        pub held: &'static str,
        /// Run the scenario one seed derives.
        pub run: fn(u64) -> Report,
    }

    /// Every tier, in the order the sweep runs them.
    pub const TIERS: [Tier; 4] = [
        // Worker sessions that crash, hang or stall, and frame-level fault
        // plans, under a real master; some plans can only abort cleanly.
        Tier {
            flag: "seeds",
            default_seeds: 32,
            label: "seed",
            held: "",
            run: |seed| run_scenario(&ScenarioPlan::from_seed(seed)),
        },
        // Multi-tenant gates under client-stream faults and worker crashes.
        Tier {
            flag: "gate-seeds",
            default_seeds: 4,
            label: "gate seed",
            held: "serving-tier scenarios held isolation and bit-identity",
            run: |seed| run_gate_scenario(&GateScenarioPlan::from_seed(seed)),
        },
        // Torn appends, bit flips and killed compactions against a real
        // on-disk log: every reopen recovers exactly the surviving prefix.
        Tier {
            flag: "store-seeds",
            default_seeds: 8,
            label: "store seed",
            held: "crash-recovery scenarios recovered the surviving prefix",
            run: run_store_scenario,
        },
        // Whole masters killed mid-tile, the frontend requeueing their
        // tiles onto the survivors.
        Tier {
            flag: "shard-seeds",
            default_seeds: 4,
            label: "shard seed",
            held: "sharded-farm scenarios requeued and merged bit-identical",
            run: |seed| run_shard_scenario(&ShardScenarioPlan::from_seed(seed)),
        },
    ];

    /// Scenario counts of a sweep; each scenario counts once, as a pass
    /// or a failure, however often it reran.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct Tally {
        /// Scenarios that held their contract.
        pub passes: u64,
        /// Passing scenarios whose plan expected a clean abort.
        pub aborted: u64,
        /// Scenarios that did not.
        pub failures: u64,
    }

    impl Tally {
        /// Run one seed of `tier` `repeat` times through `run` and count
        /// it once. It fails if its verdict failed or if a rerun's line
        /// differs from the first run's (reported on stderr); the first
        /// run's report comes back with that folded into `pass`.
        pub fn scenario(
            &mut self,
            tier: &Tier,
            seed: u64,
            repeat: u64,
            mut run: impl FnMut() -> Report,
        ) -> Report {
            let mut first = run();
            for rerun in 1..repeat {
                let again = run();
                if again.line != first.line {
                    eprintln!(
                        "{} {seed:06}: NONDETERMINISTIC report (rerun {rerun})\n  first: {}\n  again: {}",
                        tier.label, first.line, again.line
                    );
                    first.pass = false;
                }
            }
            self.passes += u64::from(first.pass);
            self.aborted += u64::from(first.pass && first.aborts);
            self.failures += u64::from(!first.pass);
            first
        }

        /// The sweep's last line.
        pub fn summary(&self) -> String {
            format!(
                "{} scenarios: {} completed bit-identical, {} aborted cleanly, {} failures",
                self.passes + self.failures,
                self.passes - self.aborted,
                self.aborted,
                self.failures,
            )
        }
    }

    /// The `--out` report: every scenario's canonical line, then the
    /// summary — no timings, so a rerun of the sweep writes the same bytes.
    pub fn render_report(lines: &[String], tally: &Tally) -> String {
        let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
        format!(
            "# rck-chaos scenario report\n\n```\n{body}```\n\n{}\n",
            tally.summary()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::chaos::{Tally, Tier};
    use super::*;
    use rckalign::chaos::Report;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn dataset_caches_have_paper_cardinality() {
        assert_eq!(ck34_cache().len(), 34);
        assert_eq!(rs119_cache().len(), 119);
    }

    #[test]
    fn paper_tables_are_consistent() {
        // Table II's rckAlign column at N=1 matches Table III's P54C
        // baseline to within rounding, and Table V repeats Table III/IV.
        assert!((paper::TABLE2_RCKALIGN[0] - 2027.0).abs() < 3.0);
        assert_eq!(paper::TABLE3[1].1, 2029.0);
        assert_eq!(paper::TABLE5[0].3, paper::TABLE2_RCKALIGN[23]);
        assert_eq!(paper::TABLE5[1].1, paper::TABLE3[0].2);
        assert_eq!(paper::TABLE4_RS119[23].1, paper::TABLE5[1].3);
    }

    #[test]
    fn claim_rendering() {
        let c = Claim::new("x beats y", true, "1 < 2".into());
        assert!(c.render().starts_with("[HOLDS]"));
    }

    /// A scenario that passes but whose line changes on every call fails
    /// once under `--repeat`, however many reruns disagree, and is not
    /// counted as a pass.
    #[test]
    fn a_scenario_whose_reruns_disagree_fails_once() {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let drifting = Tier {
            flag: "drift-seeds",
            default_seeds: 1,
            label: "drift seed",
            held: "",
            run: |seed| Report {
                line: format!(
                    "drift seed {seed} call {}",
                    CALLS.fetch_add(1, Ordering::Relaxed)
                ),
                pass: true,
                aborts: true,
                notes: Vec::new(),
            },
        };
        let mut tally = Tally::default();
        let report = tally.scenario(&drifting, 5, 3, || (drifting.run)(5));
        assert!(!report.pass, "a drifting line must fail the scenario");
        assert_eq!(
            report.line, "drift seed 5 call 0",
            "the first run is reported"
        );
        assert_eq!(CALLS.load(Ordering::Relaxed), 3);
        let once = Tally {
            passes: 0,
            aborted: 0,
            failures: 1,
        };
        assert_eq!(tally, once);
        assert_eq!(
            tally.summary(),
            "1 scenarios: 0 completed bit-identical, 0 aborted cleanly, 1 failures"
        );
        // Without reruns the same scenario passes.
        let report = tally.scenario(&drifting, 5, 1, || (drifting.run)(5));
        assert!(report.pass);
        assert_eq!((tally.passes, tally.aborted, tally.failures), (1, 1, 1));
    }
}
