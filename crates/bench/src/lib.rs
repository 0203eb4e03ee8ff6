//! Shared by the reproduction binaries: dataset caches, the paper's
//! published numbers (for side-by-side comparison in every regenerated
//! table), and claim checking.

#![warn(missing_docs)]

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
/// regenerated table.
pub mod paper {
    /// Slave-core counts of Tables II and IV.
    pub const SLAVES: [usize; 24] = [
        1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45, 47,
    ];

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
