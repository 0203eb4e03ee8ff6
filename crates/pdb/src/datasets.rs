//! Benchmark dataset profiles.
//!
//! The paper evaluates on the Chew–Kedem dataset (**CK34**, 34 protein
//! domain chains) and the Rost–Sander dataset (**RS119**, 119 chains).
//! We generate synthetic stand-ins with the same cardinality and a
//! comparable chain-length distribution (CK34 ≈ 45–380 residues around a
//! ~150-residue mean; RS119 ≈ 35–330 residues, similarly centred), grouped
//! into fold families so that structurally related chains exist in each
//! set, as in the originals (globins, tim-barrels, …).
//!
//! Every dataset is fully determined by its profile and a seed.

use crate::model::CaChain;
use crate::synth::{FoldTemplate, MemberVariation, SegmentSpec, SsType};
use serde::{Deserialize, Serialize};

/// A family entry in a dataset profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilySpec {
    /// Family name (becomes part of each member's chain name).
    pub name: String,
    /// Number of members generated from this family's template.
    pub members: usize,
    /// Segment layout of the family fold.
    pub segments: Vec<SegmentSpec>,
}

/// A dataset profile: list of families plus member-variation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Dataset name, e.g. `"CK34"`.
    pub name: String,
    /// Families making up the set.
    pub families: Vec<FamilySpec>,
    /// How much members vary within a family.
    pub variation: MemberVariation,
}

impl DatasetProfile {
    /// Number of chains the profile will generate.
    pub fn chain_count(&self) -> usize {
        self.families.iter().map(|f| f.members).sum()
    }

    /// Generate the dataset: one [`CaChain`] per member, in family order.
    /// Deterministic in `(profile, seed)`.
    pub fn generate(&self, seed: u64) -> Vec<CaChain> {
        let mut out = Vec::with_capacity(self.chain_count());
        for fam in &self.families {
            let template = FoldTemplate::generate(&fam.name, fam.segments.clone(), seed);
            for m in 0..fam.members {
                let s = template.member(m, &self.variation, seed);
                let chain = s.first_chain().expect("member has one chain");
                out.push(CaChain::from_chain(&s.name, chain));
            }
        }
        out
    }
}

fn seg(ss: SsType, len: usize) -> SegmentSpec {
    SegmentSpec::new(ss, len)
}

/// Helical globin-like fold (~147 residues): six helices with loops.
fn globin_like(scale: usize) -> Vec<SegmentSpec> {
    use SsType::*;
    vec![
        seg(Coil, 3),
        seg(Helix, 15 + scale),
        seg(Coil, 5),
        seg(Helix, 16 + scale),
        seg(Coil, 4),
        seg(Helix, 7),
        seg(Coil, 6),
        seg(Helix, 20 + scale),
        seg(Coil, 5),
        seg(Helix, 19 + scale),
        seg(Coil, 4),
        seg(Helix, 21 + scale),
        seg(Coil, 2),
    ]
}

/// α/β-barrel-ish fold: alternating strands and helices.
fn barrel_like(repeats: usize, strand: usize, helix: usize) -> Vec<SegmentSpec> {
    use SsType::*;
    let mut v = vec![seg(Coil, 2)];
    for _ in 0..repeats {
        v.push(seg(Strand, strand));
        v.push(seg(Coil, 3));
        v.push(seg(Helix, helix));
        v.push(seg(Coil, 3));
    }
    v
}

/// Small β-sandwich-ish fold.
fn sandwich_like(strands: usize, strand_len: usize) -> Vec<SegmentSpec> {
    use SsType::*;
    let mut v = vec![seg(Coil, 2)];
    for _ in 0..strands {
        v.push(seg(Strand, strand_len));
        v.push(seg(Coil, 4));
    }
    v
}

/// Small mostly-coil domain.
fn small_domain(core: usize) -> Vec<SegmentSpec> {
    use SsType::*;
    vec![
        seg(Coil, 4),
        seg(Helix, core),
        seg(Coil, 5),
        seg(Strand, 5),
        seg(Coil, 4),
        seg(Strand, 5),
        seg(Coil, 3),
    ]
}

/// Profile standing in for the Chew–Kedem dataset: 34 chains in five
/// families (the original contains globins, serpin-like and other folds of
/// mixed size), lengths ≈ 60–380.
pub fn ck34_profile() -> DatasetProfile {
    DatasetProfile {
        name: "CK34".into(),
        families: vec![
            FamilySpec {
                name: "glob".into(),
                members: 10,
                segments: globin_like(2), // ~155 residues
            },
            FamilySpec {
                name: "barl".into(),
                members: 8,
                segments: barrel_like(8, 6, 11), // ~258 residues
            },
            FamilySpec {
                name: "sand".into(),
                members: 6,
                segments: sandwich_like(7, 6), // ~72 residues
            },
            FamilySpec {
                name: "serp".into(),
                members: 5,
                segments: barrel_like(12, 7, 14), // ~386 residues
            },
            FamilySpec {
                name: "smal".into(),
                members: 5,
                segments: small_domain(12), // ~38 residues
            },
        ],
        variation: MemberVariation::default(),
    }
}

/// Profile standing in for the Rost–Sander dataset: 119 chains across eight
/// families with a broad length spread (≈ 35–330 residues), as in the
/// original secondary-structure benchmark set.
pub fn rs119_profile() -> DatasetProfile {
    DatasetProfile {
        name: "RS119".into(),
        families: vec![
            FamilySpec {
                name: "rglo".into(),
                members: 18,
                segments: globin_like(4), // ~165 residues
            },
            FamilySpec {
                name: "rbar".into(),
                members: 16,
                segments: barrel_like(9, 7, 12), // ~230 residues
            },
            FamilySpec {
                name: "rsnd".into(),
                members: 17,
                segments: sandwich_like(9, 8), // ~110 residues
            },
            FamilySpec {
                name: "rbig".into(),
                members: 12,
                segments: barrel_like(12, 8, 14), // ~338 residues
            },
            FamilySpec {
                name: "rsml".into(),
                members: 16,
                segments: small_domain(18), // ~44 residues
            },
            FamilySpec {
                name: "rhlx".into(),
                members: 14,
                segments: vec![
                    seg(SsType::Coil, 3),
                    seg(SsType::Helix, 34),
                    seg(SsType::Coil, 5),
                    seg(SsType::Helix, 36),
                    seg(SsType::Coil, 5),
                    seg(SsType::Helix, 30),
                    seg(SsType::Coil, 3),
                ], // ~116 residues
            },
            FamilySpec {
                name: "rmix".into(),
                members: 14,
                segments: barrel_like(7, 6, 11), // ~159 residues
            },
            FamilySpec {
                name: "rtny".into(),
                members: 12,
                segments: vec![
                    seg(SsType::Coil, 3),
                    seg(SsType::Strand, 9),
                    seg(SsType::Coil, 4),
                    seg(SsType::Strand, 9),
                    seg(SsType::Coil, 4),
                    seg(SsType::Helix, 18),
                    seg(SsType::Coil, 2),
                ], // ~49 residues
            },
        ],
        variation: MemberVariation::default(),
    }
}

/// A tiny profile for fast tests and examples: 8 chains, two families.
pub fn tiny_profile() -> DatasetProfile {
    DatasetProfile {
        name: "TINY8".into(),
        families: vec![
            FamilySpec {
                name: "thlx".into(),
                members: 4,
                segments: vec![
                    seg(SsType::Helix, 14),
                    seg(SsType::Coil, 4),
                    seg(SsType::Helix, 12),
                ],
            },
            FamilySpec {
                name: "tstr".into(),
                members: 4,
                segments: vec![
                    seg(SsType::Strand, 7),
                    seg(SsType::Coil, 4),
                    seg(SsType::Strand, 7),
                    seg(SsType::Coil, 4),
                    seg(SsType::Strand, 7),
                ],
            },
        ],
        variation: MemberVariation::default(),
    }
}

/// The built-in profiles, in the order `rckalign datasets` lists them.
pub fn built_in() -> [DatasetProfile; 3] {
    [ck34_profile(), rs119_profile(), tiny_profile()]
}

/// A built-in profile by name, case-insensitively. The one error every
/// binary's `--dataset` reports names the three built-in sets.
pub fn by_name(name: &str) -> Result<DatasetProfile, String> {
    built_in()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name} (try CK34, RS119, TINY8)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ck34_has_34_chains() {
        let p = ck34_profile();
        assert_eq!(p.chain_count(), 34);
        let chains = p.generate(2013);
        assert_eq!(chains.len(), 34);
    }

    #[test]
    fn rs119_has_119_chains() {
        let p = rs119_profile();
        assert_eq!(p.chain_count(), 119);
        assert_eq!(p.generate(2013).len(), 119);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = tiny_profile();
        let a = p.generate(7);
        let b = p.generate(7);
        assert_eq!(a, b);
        let c = p.generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn chain_names_are_unique() {
        let chains = ck34_profile().generate(1);
        let mut names: Vec<&str> = chains.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 34);
    }

    #[test]
    fn length_distribution_is_heterogeneous() {
        let chains = ck34_profile().generate(2013);
        let min = chains.iter().map(CaChain::len).min().unwrap();
        let max = chains.iter().map(CaChain::len).max().unwrap();
        assert!(min < 60, "min length {min}");
        assert!(max > 300, "max length {max}");
        // Job cost spread (∝ L²) of more than an order of magnitude is what
        // produces the paper's load-imbalance tail.
        assert!((max * max) / (min * min) > 10);
    }

    #[test]
    fn rs119_mean_length_close_to_ck34() {
        // Paper Table III: total time ratio RS119/CK34 ≈ 14 ≈ pair-count
        // ratio 12.5 × ~1.1, so mean lengths must be comparable.
        let mean = |chains: &[CaChain]| {
            chains.iter().map(CaChain::len).sum::<usize>() as f64 / chains.len() as f64
        };
        let ck = mean(&ck34_profile().generate(2013));
        let rs = mean(&rs119_profile().generate(2013));
        let ratio = rs / ck;
        assert!((0.6..1.6).contains(&ratio), "mean length ratio {ratio}");
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(by_name("ck34").unwrap().name, "CK34");
        assert_eq!(by_name("RS119").unwrap().name, "RS119");
        assert_eq!(
            by_name("nope").unwrap_err(),
            "unknown dataset nope (try CK34, RS119, TINY8)"
        );
    }
}
