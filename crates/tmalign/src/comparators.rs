//! Pluggable pairwise protein-structure-comparison methods.
//!
//! The paper's closing discussion proposes extending rckAlign to
//! *multi-criteria* PSC (MC-PSC): different slave cores running different
//! comparison algorithms on the same streamed structure data. This module
//! defines the method abstraction and three implementations:
//!
//! * [`TmAlignMethod`] — the full TM-align of [`crate::align`];
//! * [`KabschRmsdMethod`] — sequential-order rigid superposition (the
//!   classic cheap baseline);
//! * [`ContactMapOverlap`] — a contact-map-overlap similarity, the kind of
//!   alternative criterion MC-PSC consensus systems (e.g. ProCKSI) combine
//!   with TM-align.

use crate::align::{tm_align_with, TmAlignParams};
use crate::kabsch::{superpositions, LANES};
use crate::meter::WorkMeter;
use rck_pdb::model::CaChain;
use serde::{Deserialize, Serialize};

/// Identifier of a comparison method, used in job encodings and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MethodKind {
    /// Full TM-align.
    TmAlign,
    /// Sequential Kabsch RMSD.
    KabschRmsd,
    /// Contact-map overlap.
    ContactMap,
}

impl MethodKind {
    /// Stable numeric code for wire encoding.
    pub fn code(self) -> u8 {
        match self {
            MethodKind::TmAlign => 0,
            MethodKind::KabschRmsd => 1,
            MethodKind::ContactMap => 2,
        }
    }

    /// Inverse of [`MethodKind::code`].
    pub fn from_code(code: u8) -> Option<MethodKind> {
        match code {
            0 => Some(MethodKind::TmAlign),
            1 => Some(MethodKind::KabschRmsd),
            2 => Some(MethodKind::ContactMap),
            _ => None,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::TmAlign => "tm-align",
            MethodKind::KabschRmsd => "kabsch-rmsd",
            MethodKind::ContactMap => "contact-map",
        }
    }

    /// Instantiate the default implementation of this method.
    pub fn instantiate(self) -> Box<dyn PscMethod> {
        match self {
            MethodKind::TmAlign => Box::new(TmAlignMethod::default()),
            MethodKind::KabschRmsd => Box::new(KabschRmsdMethod),
            MethodKind::ContactMap => Box::new(ContactMapOverlap::default()),
        }
    }
}

/// Uniform summary score produced by any PSC method.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PscScore {
    /// Method that produced the score.
    pub method: MethodKind,
    /// Similarity in `[0, 1]`, higher = more similar. For TM-align this is
    /// the TM-score normalised by the shorter chain.
    pub similarity: f64,
    /// RMSD over the compared region, when the method defines one.
    pub rmsd: Option<f64>,
    /// Number of residue pairs the score is based on.
    pub aligned_len: usize,
    /// Abstract operations spent (drives the simulator's cost model).
    pub ops: u64,
}

/// A pairwise protein structure comparison method.
pub trait PscMethod: Send + Sync {
    /// Which method this is.
    fn kind(&self) -> MethodKind;
    /// Compare two chains.
    fn compare(&self, a: &CaChain, b: &CaChain) -> PscScore;
    /// Compare many pairs (a serve worker's run of jobs, a prefill piece):
    /// score `k` is `compare(pairs[k].0, pairs[k].1)` bit for bit, `ops`
    /// included. The default is that loop; TM-align and contact-map keep it.
    fn compare_many(&self, pairs: &[(&CaChain, &CaChain)]) -> Vec<PscScore> {
        pairs.iter().map(|(a, b)| self.compare(a, b)).collect()
    }
}

/// Full TM-align (see [`crate::align::tm_align`]).
#[derive(Debug, Default, Clone)]
pub struct TmAlignMethod {
    /// Algorithm parameters.
    pub params: TmAlignParams,
}

impl PscMethod for TmAlignMethod {
    fn kind(&self) -> MethodKind {
        MethodKind::TmAlign
    }

    fn compare(&self, a: &CaChain, b: &CaChain) -> PscScore {
        let r = tm_align_with(a, b, &self.params);
        PscScore {
            method: MethodKind::TmAlign,
            similarity: r.tm_max_norm(),
            rmsd: Some(r.rmsd),
            aligned_len: r.aligned_len,
            ops: r.ops,
        }
    }
}

/// Sequential-order Kabsch superposition over the common prefix of the two
/// chains. Cheap — O(min(L1, L2)) — and order-dependent, which is exactly
/// why consensus pipelines pair it with structure-alignment methods.
///
/// Pairs are independent chains of divisions, so [`PscMethod::compare_many`]
/// superposes four to a lock-step Kabsch group (SWAPHI's inter-sequence
/// model, DESIGN.md §13.7); `compare` is its one-pair call.
#[derive(Debug, Clone, Copy)]
pub struct KabschRmsdMethod;

impl PscMethod for KabschRmsdMethod {
    fn kind(&self) -> MethodKind {
        MethodKind::KabschRmsd
    }

    fn compare(&self, a: &CaChain, b: &CaChain) -> PscScore {
        self.compare_many(&[(a, b)])[0]
    }

    fn compare_many(&self, pairs: &[(&CaChain, &CaChain)]) -> Vec<PscScore> {
        // A pair whose common prefix is under 3 residues takes no lane.
        let too_short = PscScore {
            method: MethodKind::KabschRmsd,
            similarity: 0.0,
            rmsd: None,
            aligned_len: 0,
            ops: 0,
        };
        let mut scores = vec![too_short; pairs.len()];
        let mut laned = pairs.iter().enumerate().filter_map(|(k, (a, b))| {
            let n = a.len().min(b.len());
            (n >= 3).then(|| (k, (&a.coords[..n], &b.coords[..n])))
        });
        loop {
            let group: [_; LANES] = std::array::from_fn(|_| laned.next());
            if group[0].is_none() {
                return scores;
            }
            let mut meters = [WorkMeter::new(); LANES];
            let sps = superpositions(group.map(|lane| lane.map(|(_, set)| set)), &mut meters);
            for ((lane, sp), meter) in group.into_iter().zip(sps).zip(meters) {
                let (Some((k, (prefix, _))), Some(sp)) = (lane, sp) else {
                    continue;
                };
                scores[k] = PscScore {
                    method: MethodKind::KabschRmsd,
                    // Map RMSD to (0, 1]: 1 at 0 Å, 1/2 at 5 Å.
                    similarity: 1.0 / (1.0 + (sp.rmsd / 5.0).powi(2)),
                    rmsd: Some(sp.rmsd),
                    aligned_len: prefix.len(),
                    ops: meter.ops(),
                };
            }
        }
    }
}

/// Contact-map-overlap similarity: build CA-CA contact maps (default cutoff
/// 8 Å, sequence separation ≥ 3) and measure how well the two maps overlap
/// along the sequential correspondence of the common prefix.
#[derive(Debug, Clone, Copy)]
pub struct ContactMapOverlap {
    /// Contact distance cutoff in Å.
    pub cutoff: f64,
    /// Minimum |i−j| for a pair to count as a contact.
    pub min_separation: usize,
}

impl Default for ContactMapOverlap {
    fn default() -> Self {
        ContactMapOverlap {
            cutoff: 8.0,
            min_separation: 3,
        }
    }
}

impl ContactMapOverlap {
    fn contacts(&self, c: &CaChain, n: usize, meter: &mut WorkMeter) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let cutsq = self.cutoff * self.cutoff;
        meter.charge((n * n / 2) as u64);
        for i in 0..n {
            for j in (i + self.min_separation)..n {
                if c.coords[i].dist_sq(c.coords[j]) < cutsq {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }
}

impl PscMethod for ContactMapOverlap {
    fn kind(&self) -> MethodKind {
        MethodKind::ContactMap
    }

    fn compare(&self, a: &CaChain, b: &CaChain) -> PscScore {
        let n = a.len().min(b.len());
        let mut meter = WorkMeter::new();
        let ca = self.contacts(a, n, &mut meter);
        let cb = self.contacts(b, n, &mut meter);
        let sa: std::collections::HashSet<(u32, u32)> = ca.iter().copied().collect();
        let shared = cb.iter().filter(|c| sa.contains(c)).count();
        let denom = ca.len().max(cb.len());
        let similarity = if denom == 0 {
            0.0
        } else {
            shared as f64 / denom as f64
        };
        PscScore {
            method: MethodKind::ContactMap,
            similarity,
            rmsd: None,
            aligned_len: shared,
            ops: meter.ops(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;
    use rck_pdb::geometry::{Mat3, Vec3};

    fn chains() -> Vec<CaChain> {
        tiny_profile().generate(21)
    }

    #[test]
    fn method_kind_codes_roundtrip() {
        for k in [
            MethodKind::TmAlign,
            MethodKind::KabschRmsd,
            MethodKind::ContactMap,
        ] {
            assert_eq!(MethodKind::from_code(k.code()), Some(k));
        }
        assert_eq!(MethodKind::from_code(99), None);
    }

    #[test]
    fn all_methods_self_similarity_is_high() {
        let cs = chains();
        for kind in [
            MethodKind::TmAlign,
            MethodKind::KabschRmsd,
            MethodKind::ContactMap,
        ] {
            let m = kind.instantiate();
            let s = m.compare(&cs[0], &cs[0]);
            assert!(s.similarity > 0.99, "{}: {}", kind.name(), s.similarity);
            assert_eq!(s.method, kind);
        }
    }

    #[test]
    fn kabsch_rmsd_invariant_under_rigid_motion() {
        let cs = chains();
        let rot = Mat3::rotation_about(Vec3::new(1.0, 1.0, 1.0), 0.9);
        let moved = CaChain {
            name: "m".into(),
            seq: cs[0].seq.clone(),
            coords: cs[0]
                .coords
                .iter()
                .map(|&p| rot * p + Vec3::new(3.0, 4.0, 5.0))
                .collect(),
        };
        let s = KabschRmsdMethod.compare(&cs[0], &moved);
        assert!(s.rmsd.unwrap() < 1e-8);
        assert!(s.similarity > 0.999);
    }

    #[test]
    fn contact_map_overlap_discriminates_families() {
        let cs = chains();
        let m = ContactMapOverlap::default();
        let within = m.compare(&cs[0], &cs[1]).similarity;
        let across = m.compare(&cs[0], &cs[5]).similarity;
        assert!(
            within > across,
            "within {within} should exceed across {across}"
        );
    }

    #[test]
    fn contact_map_empty_for_tiny_chain() {
        let tiny = CaChain::from_coords(
            "t",
            (0..3)
                .map(|i| Vec3::new(i as f64 * 3.8, 0.0, 0.0))
                .collect(),
        );
        let s = ContactMapOverlap::default().compare(&tiny, &tiny);
        assert_eq!(s.similarity, 0.0);
        assert_eq!(s.aligned_len, 0);
    }

    #[test]
    fn kabsch_tiny_chain_returns_zero() {
        let tiny = CaChain::from_coords("t", vec![Vec3::ZERO; 2]);
        let s = KabschRmsdMethod.compare(&tiny, &tiny);
        assert_eq!(s.similarity, 0.0);
        assert!(s.rmsd.is_none());
    }

    /// Every `PscScore` field as bits.
    fn score_bits(s: &PscScore) -> (u8, u64, Option<u64>, usize, u64) {
        (
            s.method.code(),
            s.similarity.to_bits(),
            s.rmsd.map(f64::to_bits),
            s.aligned_len,
            s.ops,
        )
    }

    /// Kabsch RMSD as one straight-line superposition per pair, the way
    /// `compare` read before pairs went into lanes.
    fn straight_line_kabsch(a: &CaChain, b: &CaChain) -> PscScore {
        let n = a.len().min(b.len());
        let mut meter = WorkMeter::new();
        if n < 3 {
            return PscScore {
                method: MethodKind::KabschRmsd,
                similarity: 0.0,
                rmsd: None,
                aligned_len: 0,
                ops: meter.ops(),
            };
        }
        let sp = crate::kabsch::superpose(&a.coords[..n], &b.coords[..n], &mut meter);
        PscScore {
            method: MethodKind::KabschRmsd,
            similarity: 1.0 / (1.0 + (sp.rmsd / 5.0).powi(2)),
            rmsd: Some(sp.rmsd),
            aligned_len: n,
            ops: meter.ops(),
        }
    }

    /// `compare_many` is one `compare` per pair, bit for bit with `ops`,
    /// and both are the straight-line loop: RS119-sized prefixes mixed
    /// with common prefixes of 1, 2 and 3 residues (which take no lane),
    /// at every occupancy from 1 to `LANES + 1` and every rotation of
    /// the pair list through the lanes.
    #[test]
    fn compare_many_is_compare_per_pair_bitwise() {
        let rs = rck_pdb::datasets::rs119_profile().generate(2013);
        let short: Vec<CaChain> = (1..=3)
            .map(|n| CaChain::from_coords("s", rs[7].coords[..n].to_vec()))
            .collect();
        let pairs: Vec<(&CaChain, &CaChain)> = vec![
            (&rs[0], &rs[1]),
            (&short[0], &rs[2]),
            (&rs[3], &rs[4]),
            (&rs[5], &short[1]),
            (&rs[6], &rs[6]),
            (&short[2], &rs[8]),
            (&rs[9], &rs[10]),
            (&short[1], &short[2]),
            (&rs[11], &rs[12]),
        ];
        let methods: [&dyn PscMethod; 3] = [
            &KabschRmsdMethod,
            &TmAlignMethod::default(),
            &ContactMapOverlap::default(),
        ];
        for occupancy in 1..=LANES + 1 {
            for first in 0..pairs.len() {
                let run: Vec<_> = (0..occupancy)
                    .map(|k| pairs[(first + k) % pairs.len()])
                    .collect();
                let kabsch = KabschRmsdMethod.compare_many(&run);
                for (&(a, b), got) in run.iter().zip(&kabsch) {
                    let want = score_bits(&straight_line_kabsch(a, b));
                    assert_eq!(score_bits(got), want, "{occupancy} pairs from {first}");
                    assert_eq!(score_bits(&KabschRmsdMethod.compare(a, b)), want);
                }
                // The per-pair default, on one rotation per occupancy
                // (TM-align takes chains of 5 residues or more).
                if first == 0 {
                    let full: Vec<_> = (run.iter().copied())
                        .filter(|(a, b)| a.len().min(b.len()) >= 5)
                        .collect();
                    for method in methods {
                        let many = method.compare_many(&full);
                        assert_eq!(many.len(), full.len());
                        for (&(a, b), got) in full.iter().zip(&many) {
                            assert_eq!(score_bits(got), score_bits(&method.compare(a, b)));
                        }
                    }
                }
            }
        }
        assert!(KabschRmsdMethod.compare_many(&[]).is_empty());
    }

    #[test]
    fn methods_report_ops() {
        let cs = chains();
        for kind in [
            MethodKind::TmAlign,
            MethodKind::KabschRmsd,
            MethodKind::ContactMap,
        ] {
            let s = kind.instantiate().compare(&cs[0], &cs[4]);
            assert!(s.ops > 0, "{} charged no ops", kind.name());
        }
    }

    #[test]
    fn tmalign_is_most_expensive() {
        let cs = chains();
        let tm = MethodKind::TmAlign
            .instantiate()
            .compare(&cs[0], &cs[4])
            .ops;
        let kb = MethodKind::KabschRmsd
            .instantiate()
            .compare(&cs[0], &cs[4])
            .ops;
        let cm = MethodKind::ContactMap
            .instantiate()
            .compare(&cs[0], &cs[4])
            .ops;
        assert!(tm > kb * 10, "tm {tm} vs kabsch {kb}");
        assert!(tm > cm, "tm {tm} vs contact {cm}");
    }
}
