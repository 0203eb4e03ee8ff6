//! Pruning prefilters for all-to-all workloads (DESIGN.md §13).
//!
//! The farm's throughput ceiling is the per-pair kernel, and in an
//! all-vs-all matrix most pairs are *hopeless*: cross-family comparisons
//! whose final TM-score sits far below any ranking threshold. This
//! module decides, from O(L) evidence gathered before the first DP
//! round, how much work a pair deserves:
//!
//! * **Reject** — the *sound* length-ratio bound ([`tm_upper_bound`])
//!   proves the TM-score under the requested normalisation cannot reach
//!   the configured threshold. Rejection is provably safe: the bound is
//!   an upper bound for every geometry (see the property test in
//!   `tests/property.rs`).
//! * **Demote** — the secondary-structure composition screen
//!   ([`SsComposition::overlap_fraction`]) finds so little class overlap
//!   that a high-scoring alignment is implausible. Demotion is a
//!   *heuristic*: the pair still runs end to end, but on the reduced
//!   refinement schedule (capped iterations, aggressive score-bound
//!   early termination), so its score may come out slightly under-refined.
//!   The golden-set test bounds the damage on the seeded corpus.
//! * **Accept** — full schedule.
//!
//! The filters are off by default ([`PrefilterConfig::disabled`]) so the
//! default kernel stays the oracle; [`crate::TmAlignParams::fast`] turns
//! them on, and that is all it does: a pruned run is the oracle's run
//! cut short, bit-identical to it wherever no filter fires
//! (`tests/oracle_bits.rs`).

use crate::secstruct::SecStruct;
use serde::{Deserialize, Serialize};

/// Sound upper bound on a TM-score from chain lengths alone.
///
/// Every aligned pair contributes at most 1 to the TM sum, and an
/// alignment has at most `min(len_a, len_b)` pairs, so
/// `TM ≤ min(len_a, len_b) / norm_len` (clamped to 1). All arguments
/// are residue counts; the result is dimensionless in `[0, 1]`.
///
/// Under the default shorter-chain normalisation the bound is the
/// trivial 1.0 — the length filter only bites for `Longer` / `Average`
/// / `Length` normalisations, where a 40-residue fragment can never
/// reach 0.3 against a 300-residue target:
///
/// ```
/// use rck_tmalign::prefilter::tm_upper_bound;
/// assert_eq!(tm_upper_bound(40, 300, 300), 40.0 / 300.0);
/// assert_eq!(tm_upper_bound(40, 300, 40), 1.0); // shorter-norm: no bite
/// ```
pub fn tm_upper_bound(len_a: usize, len_b: usize, norm_len: usize) -> f64 {
    if norm_len == 0 {
        return 1.0;
    }
    (len_a.min(len_b) as f64 / norm_len as f64).min(1.0)
}

/// Per-class residue counts of a secondary-structure assignment —
/// the O(L) summary the composition screen compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SsComposition {
    counts: [usize; 4],
}

impl SsComposition {
    /// Count the classes of an assignment (see [`crate::secstruct::assign`]).
    pub fn of(ss: &[SecStruct]) -> SsComposition {
        let mut counts = [0usize; 4];
        for s in ss {
            counts[(s.code() - 1) as usize] += 1;
        }
        SsComposition { counts }
    }

    /// Total residues counted.
    pub fn len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// True for an empty assignment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of the *shorter* chain that could sit in a same-class
    /// aligned pair: `Σ_class min(n_a, n_b) / min(L_a, L_b)`, in
    /// `[0, 1]`. 1.0 means the class multisets nest; values well below
    /// 1 mean most aligned pairs would have to cross classes — the
    /// signature of a helix bundle forced onto a β-sandwich.
    pub fn overlap_fraction(&self, other: &SsComposition) -> f64 {
        let shorter = self.len().min(other.len());
        if shorter == 0 {
            return 0.0;
        }
        let common: usize = self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| *a.min(b))
            .sum();
        common as f64 / shorter as f64
    }
}

/// Tunables of the pruning layer. Thresholds are documented with their
/// guarantees in DESIGN.md §13.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefilterConfig {
    /// Master switch; when false, [`decide`] always accepts.
    pub enabled: bool,
    /// A pair whose [`tm_upper_bound`] falls below this TM-score is
    /// rejected outright (sound — see module docs). Also the reference
    /// point of score-bound early termination.
    pub tm_threshold: f64,
    /// A pair whose [`SsComposition::overlap_fraction`] falls below this
    /// is demoted to the reduced refinement schedule (heuristic).
    pub ss_overlap_floor: f64,
    /// Early termination: a refinement iteration that improves the best
    /// TM-score by less than this, while the score is still below
    /// `tm_threshold`, abandons the remaining iterations.
    pub min_gain: f64,
    /// Early termination never fires before this many iterations.
    pub min_refine_iters: usize,
}

impl PrefilterConfig {
    /// Everything off — the oracle-compatible default.
    pub fn disabled() -> PrefilterConfig {
        PrefilterConfig {
            enabled: false,
            ..PrefilterConfig::fast()
        }
    }

    /// The defaults of the fast configuration: reject below TM 0.3 (the classic
    /// "unrelated folds" line), demote below 55% class overlap, abandon
    /// refinement plateaus gaining < 0.002 TM per iteration after 3
    /// iterations.
    pub fn fast() -> PrefilterConfig {
        PrefilterConfig {
            enabled: true,
            tm_threshold: 0.3,
            ss_overlap_floor: 0.55,
            min_gain: 0.002,
            min_refine_iters: 3,
        }
    }
}

impl Default for PrefilterConfig {
    fn default() -> PrefilterConfig {
        PrefilterConfig::disabled()
    }
}

/// The pruning verdict for one pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefilterDecision {
    /// Run the full schedule.
    Accept,
    /// Run the reduced refinement schedule (heuristic screen).
    Demote,
    /// Skip refinement entirely; the final TM-score provably cannot
    /// reach the configured threshold. Carries the bound that proved it.
    Reject {
        /// The [`tm_upper_bound`] that fell below the threshold.
        tm_upper_bound: f64,
    },
}

/// Decide how much kernel work a pair deserves, from chain lengths, the
/// optimisation normalisation length, and the two SS compositions.
///
/// Rejection uses only the sound length bound; demotion uses the
/// composition heuristic. Disabled configs always accept:
///
/// ```
/// use rck_tmalign::prefilter::{decide, PrefilterConfig, PrefilterDecision, SsComposition};
/// let helixy = SsComposition::default();
/// let cfg = PrefilterConfig::fast();
///
/// // A 40-residue fragment vs a 300-residue chain, normalised by the
/// // longer chain: bound 40/300 ≈ 0.13 < 0.3 → provably hopeless.
/// let d = decide(40, 300, 300, &helixy, &helixy, &cfg);
/// assert_eq!(d, PrefilterDecision::Reject { tm_upper_bound: 40.0 / 300.0 });
///
/// // Same pair under shorter-chain normalisation: the bound is 1.0,
/// // nothing is provable, the pair runs (identical empty compositions
/// // overlap fully, so no demotion either).
/// let d = decide(40, 300, 40, &helixy, &helixy, &cfg);
/// assert_eq!(d, PrefilterDecision::Accept);
///
/// // Disabled: always accept.
/// let off = PrefilterConfig::disabled();
/// assert_eq!(decide(40, 300, 300, &helixy, &helixy, &off), PrefilterDecision::Accept);
/// ```
pub fn decide(
    len_a: usize,
    len_b: usize,
    norm_len: usize,
    comp_a: &SsComposition,
    comp_b: &SsComposition,
    cfg: &PrefilterConfig,
) -> PrefilterDecision {
    if !cfg.enabled {
        return PrefilterDecision::Accept;
    }
    let bound = tm_upper_bound(len_a, len_b, norm_len);
    if bound < cfg.tm_threshold {
        return PrefilterDecision::Reject {
            tm_upper_bound: bound,
        };
    }
    if !comp_a.is_empty()
        && !comp_b.is_empty()
        && comp_a.overlap_fraction(comp_b) < cfg.ss_overlap_floor
    {
        return PrefilterDecision::Demote;
    }
    PrefilterDecision::Accept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(coil: usize, helix: usize, turn: usize, strand: usize) -> SsComposition {
        SsComposition {
            counts: [coil, helix, turn, strand],
        }
    }

    #[test]
    fn bound_is_min_length_over_norm() {
        assert_eq!(tm_upper_bound(50, 100, 100), 0.5);
        assert_eq!(tm_upper_bound(100, 50, 100), 0.5);
        assert_eq!(tm_upper_bound(50, 100, 50), 1.0);
        assert_eq!(tm_upper_bound(200, 100, 50), 1.0); // clamped
        assert_eq!(tm_upper_bound(0, 10, 0), 1.0); // degenerate norm
    }

    #[test]
    fn composition_counts_and_overlap() {
        let a = comp(10, 30, 0, 0); // helix-heavy, 40 residues
        let b = comp(10, 0, 0, 30); // strand-heavy, 40 residues
        assert_eq!(a.len(), 40);
        // Only the 10 coil residues can pair same-class.
        assert!((a.overlap_fraction(&b) - 0.25).abs() < 1e-12);
        assert_eq!(a.overlap_fraction(&a), 1.0);
        // Symmetric in its arguments.
        assert_eq!(a.overlap_fraction(&b), b.overlap_fraction(&a));
    }

    #[test]
    fn overlap_is_relative_to_shorter_chain() {
        let small = comp(0, 20, 0, 0);
        let large = comp(50, 100, 20, 30);
        // All 20 helix residues of the fragment can pair in-class.
        assert_eq!(small.overlap_fraction(&large), 1.0);
        assert_eq!(SsComposition::default().overlap_fraction(&large), 0.0);
    }

    #[test]
    fn composition_of_assignment() {
        let ss = [
            SecStruct::Coil,
            SecStruct::Helix,
            SecStruct::Helix,
            SecStruct::Strand,
            SecStruct::Turn,
        ];
        let c = SsComposition::of(&ss);
        assert_eq!(c, comp(1, 2, 1, 1));
    }

    #[test]
    fn decide_demotes_on_low_overlap() {
        let cfg = PrefilterConfig::fast();
        let a = comp(5, 95, 0, 0);
        let b = comp(5, 0, 0, 95);
        assert_eq!(
            decide(100, 100, 100, &a, &b, &cfg),
            PrefilterDecision::Demote
        );
        // Same compositions: full overlap, accepted.
        assert_eq!(
            decide(100, 100, 100, &a, &a, &cfg),
            PrefilterDecision::Accept
        );
    }

    #[test]
    fn reject_takes_precedence_over_demote() {
        let cfg = PrefilterConfig::fast();
        let a = comp(5, 75, 0, 0);
        let b = comp(5, 0, 0, 295);
        match decide(80, 300, 300, &a, &b, &cfg) {
            PrefilterDecision::Reject { tm_upper_bound } => {
                assert!((tm_upper_bound - 80.0 / 300.0).abs() < 1e-12);
                assert!(tm_upper_bound < cfg.tm_threshold);
            }
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn default_config_is_disabled() {
        assert!(!PrefilterConfig::default().enabled);
        assert!(PrefilterConfig::fast().enabled);
    }
}
