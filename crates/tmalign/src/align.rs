//! The complete TM-align algorithm: initial alignments, iterative
//! DP refinement, and final scoring.
//!
//! Mirrors the structure of Zhang & Skolnick's original program: three
//! initial alignments are generated (gapless threading, secondary-structure
//! DP, hybrid DP — see [`crate::initial`]); each is refined by alternating
//! a TM-score rotation search with a DP re-alignment over the induced
//! distance-score matrix, under two gap penalties; the best alignment by
//! TM-score wins and is re-scored with the full search depth.

use crate::dp::Alignment;
use crate::initial::{gapless_threading, hybrid_alignment_in, ss_alignment_in};
use crate::kabsch::superpose;
use crate::meter::WorkMeter;
use crate::prefilter::{decide, PrefilterConfig, PrefilterDecision, SsComposition};
use crate::secstruct::{assign, SecStruct};
use crate::tmscore::{d0, resume_full_in, search_in, SearchDepth, SearchResult};
use crate::workspace::{Charged, Workspace};
use rck_pdb::geometry::{Transform, Vec3};
use rck_pdb::model::CaChain;
use serde::{Deserialize, Serialize};

/// Which length the *optimised* TM-score is normalised by, mirroring the
/// original program's `-a`/`-L`/`-d` options. The reported result always
/// carries both per-chain normalisations; this choice only steers the
/// optimisation target.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Normalization {
    /// By the shorter chain (the TM-align default).
    #[default]
    Shorter,
    /// By the longer chain (more conservative).
    Longer,
    /// By the average of the two lengths (`-a`).
    Average,
    /// By a fixed length (`-L`).
    Length(u32),
    /// With a fixed d0 scale in Å (`-d`), normalised by the shorter chain.
    FixedD0(f64),
}

impl Normalization {
    /// Resolve to `(norm_len, d0)` for chains of the given lengths.
    pub fn resolve(self, len_a: usize, len_b: usize) -> (usize, f64) {
        match self {
            Normalization::Shorter => {
                let l = len_a.min(len_b);
                (l, d0(l))
            }
            Normalization::Longer => {
                let l = len_a.max(len_b);
                (l, d0(l))
            }
            Normalization::Average => {
                let l = (len_a + len_b).div_ceil(2);
                (l, d0(l))
            }
            Normalization::Length(l) => {
                let l = (l as usize).max(1);
                (l, d0(l))
            }
            Normalization::FixedD0(d) => {
                assert!(d > 0.0, "fixed d0 must be positive");
                (len_a.min(len_b), d)
            }
        }
    }
}

/// Tunable parameters of the algorithm. The defaults follow the original
/// TM-align; they are exposed for the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TmAlignParams {
    /// Gap penalties tried during DP refinement (TM-align: −0.6 then 0).
    pub gap_penalties: [f64; 2],
    /// Maximum DP-refinement iterations per gap penalty.
    pub max_iterations: usize,
    /// Use the cheap search depth inside refinement loops.
    pub fast_refinement: bool,
    /// Normalisation of the optimised score.
    pub normalization: Normalization,
    /// Pruning prefilters and early termination (disabled by default).
    #[serde(default)]
    pub prefilter: PrefilterConfig,
}

impl Default for TmAlignParams {
    fn default() -> Self {
        TmAlignParams {
            gap_penalties: [-0.6, 0.0],
            max_iterations: 10,
            fast_refinement: true,
            normalization: Normalization::Shorter,
            prefilter: PrefilterConfig::disabled(),
        }
    }
}

impl TmAlignParams {
    /// The fast configuration: the oracle's pipeline under the pruning
    /// policy of [`PrefilterConfig::fast`] — the same engine and stages,
    /// cut short where a prefilter fires. Scores track the unpruned
    /// oracle within the tiers documented in DESIGN.md §13.4 (golden-set
    /// gated); `TmAlignParams::default()` never prunes.
    pub fn fast() -> TmAlignParams {
        TmAlignParams {
            prefilter: PrefilterConfig::fast(),
            ..TmAlignParams::default()
        }
    }
}

/// The result of aligning chain `a` (mobile) onto chain `b` (reference).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TmAlignResult {
    /// Name of chain a.
    pub name_a: String,
    /// Name of chain b.
    pub name_b: String,
    /// Length of chain a.
    pub len_a: usize,
    /// Length of chain b.
    pub len_b: usize,
    /// TM-score normalised by the length of chain a.
    pub tm_norm_a: f64,
    /// TM-score normalised by the length of chain b.
    pub tm_norm_b: f64,
    /// Number of aligned residue pairs.
    pub aligned_len: usize,
    /// RMSD (Å) over the aligned pairs after optimal superposition.
    pub rmsd: f64,
    /// Fraction of aligned pairs with identical residues.
    pub seq_identity: f64,
    /// The final alignment (indices into a and b).
    pub alignment: Alignment,
    /// The transform mapping a onto b.
    pub transform: Transform,
    /// Abstract operations spent computing this result (see
    /// [`crate::meter::WorkMeter`]); drives the simulator's cost model.
    pub ops: u64,
}

impl TmAlignResult {
    /// The TM-score normalised by the *shorter* chain — the value commonly
    /// used to rank database hits.
    pub fn tm_max_norm(&self) -> f64 {
        if self.len_a <= self.len_b {
            self.tm_norm_a
        } else {
            self.tm_norm_b
        }
    }

    /// The TM-score normalised by the *longer* chain (more conservative).
    pub fn tm_min_norm(&self) -> f64 {
        if self.len_a <= self.len_b {
            self.tm_norm_b
        } else {
            self.tm_norm_a
        }
    }
}

/// The shortest chain [`tm_align_with`] accepts: below it no meaningful
/// structure alignment exists, and the call panics.
pub const MIN_CHAIN_LEN: usize = 5;

/// Align chain `a` onto chain `b` with default parameters.
pub fn tm_align(a: &CaChain, b: &CaChain) -> TmAlignResult {
    tm_align_with(a, b, &TmAlignParams::default())
}

/// Align with explicit parameters.
///
/// # Panics
/// Panics if either chain has fewer than [`MIN_CHAIN_LEN`] residues (no
/// meaningful structure alignment exists; the datasets in this workspace
/// are all longer).
pub fn tm_align_with(a: &CaChain, b: &CaChain, params: &TmAlignParams) -> TmAlignResult {
    tm_align_in(a, b, params, &mut Workspace::default())
}

/// [`tm_align_with`] on the caller's workspace, whatever it was last
/// used for.
fn tm_align_in(
    a: &CaChain,
    b: &CaChain,
    params: &TmAlignParams,
    ws: &mut Workspace,
) -> TmAlignResult {
    assert!(
        a.len() >= MIN_CHAIN_LEN && b.len() >= MIN_CHAIN_LEN,
        "tm_align requires chains of at least {MIN_CHAIN_LEN} residues ({} and {} given)",
        a.len(),
        b.len()
    );
    let mut meter = WorkMeter::new();
    let x = &a.coords;
    let y = &b.coords;

    // TM-align optimises the score under the configured normalisation
    // (by default the shorter chain).
    let (norm_len, d0_opt) = params.normalization.resolve(a.len(), b.len());

    let ss_a = assign(x, &mut meter);
    let ss_b = assign(y, &mut meter);

    // --- Pruning prefilters (DESIGN.md §13.5) -------------------------
    let stages = crate::stages::stage_counters();
    let decision = decide(
        a.len(),
        b.len(),
        norm_len,
        &SsComposition::of(&ss_a),
        &SsComposition::of(&ss_b),
        &params.prefilter,
    );

    // One workspace serves every DP round and rotation search of this
    // pair; the rounds of an earlier call are none of this one's.
    ws.retarget(y);
    ws.rounds.clear();

    // Demoted pairs run the reduced refinement schedule.
    let effective = match decision {
        PrefilterDecision::Demote => {
            stages.pruned_demotions.inc();
            TmAlignParams {
                max_iterations: params
                    .max_iterations
                    .min(params.prefilter.min_refine_iters.max(1)),
                ..*params
            }
        }
        _ => *params,
    };

    // The best alignment so far, by its id in `ws.rounds`: none yet.
    let mut best = ws.rounds.intern(&[]);
    if let PrefilterDecision::Reject { .. } = decision {
        // Provably hopeless under the requested normalisation: skip the
        // DP initials and the whole refinement ladder. The gapless
        // screen alone still yields a valid (low-scoring) alignment,
        // and final scoring below reports it honestly.
        stages.pruned_pairs.inc();
        let init_gapless = gapless_threading(x, y, d0_opt, norm_len, &mut meter);
        stages.initial_alignments.inc();
        best = ws.rounds.intern(&init_gapless.alignment);
    } else {
        // --- Initial alignments ---------------------------------------
        let init_gapless = gapless_threading(x, y, d0_opt, norm_len, &mut meter);
        let hybrid_seed = init_gapless.transform.unwrap_or(Transform::IDENTITY);
        let init_ss = ss_alignment_in(&ss_a, &ss_b, &mut ws.dp, &mut meter);
        let init_hybrid =
            hybrid_alignment_in(x, &ss_a, &ss_b, &hybrid_seed, d0_opt, ws, &mut meter);
        stages.initial_alignments.add(3);

        // --- Refinement -----------------------------------------------
        let depth = if effective.fast_refinement {
            SearchDepth::Fast
        } else {
            SearchDepth::Full
        };
        let mut best_tm = -1.0;
        for init in [&init_gapless, &init_ss, &init_hybrid] {
            if init.alignment.len() < 3 {
                continue;
            }
            let initial = ws.rounds.intern(&init.alignment);
            let (tm, refined) = refine(
                x, y, initial, d0_opt, norm_len, &effective, depth, ws, &mut meter,
            );
            if tm > best_tm {
                best_tm = tm;
                best = refined;
            }
        }
    }

    // Degenerate fall-back: no initial produced ≥3 pairs (can only happen
    // for pathological inputs) — align the leading residues gaplessly.
    if ws.rounds.pairs(best).len() < 3 {
        let leading: Alignment = (0..norm_len.min(3)).map(|i| (i, i)).collect();
        best = ws.rounds.intern(&leading);
    }

    // --- Final scoring ---------------------------------------------------
    // Under the optimised normalisation the `Full` search of the best
    // alignment extends that alignment's memoised `Fast` search (same
    // pairs, `d0` and length): it charges the recorded ops and runs only
    // the windows `Fast` did not.
    let fast_search = if effective.fast_refinement {
        ws.rounds.of(best).search
    } else {
        None
    };
    ws.gather(x, y, best);
    let best_alignment = ws.rounds.pairs(best).to_vec();
    let mut final_score = |len: usize| {
        let (xa, ya, scratch) = (&ws.xa, &ws.ya, &mut ws.search);
        match fast_search {
            Some((fast, ops)) if len == norm_len && d0(len).to_bits() == d0_opt.to_bits() => {
                meter.charge(ops);
                resume_full_in(xa, ya, d0(len), d0(len), len, fast, scratch, &mut meter)
            }
            _ => search_in(
                xa,
                ya,
                d0(len),
                d0(len),
                len,
                SearchDepth::Full,
                scratch,
                &mut meter,
            ),
        }
    };
    let fin_a = final_score(a.len());
    let fin_b = final_score(b.len());
    // Report the transform of whichever normalisation is the headline
    // (shorter-chain) score.
    let headline: &SearchResult = if a.len() <= b.len() { &fin_a } else { &fin_b };
    let rmsd = superpose(&ws.xa, &ws.ya, &mut meter).rmsd;
    let matches = best_alignment
        .iter()
        .filter(|&&(i, j)| a.seq[i] != rck_pdb::AminoAcid::Unknown && a.seq[i] == b.seq[j])
        .count();

    let stages = crate::stages::stage_counters();
    stages.alignments.inc();
    stages.ops.add(meter.ops());

    TmAlignResult {
        name_a: a.name.clone(),
        name_b: b.name.clone(),
        len_a: a.len(),
        len_b: b.len(),
        tm_norm_a: fin_a.tm,
        tm_norm_b: fin_b.tm,
        aligned_len: best_alignment.len(),
        rmsd,
        seq_identity: if best_alignment.is_empty() {
            0.0
        } else {
            matches as f64 / best_alignment.len() as f64
        },
        alignment: best_alignment,
        transform: headline.transform,
        ops: meter.ops(),
    }
}

/// The answer of one refinement step and what it charged: the pair's
/// table's when `known` — charged again, `ops` being the algorithm's cost
/// and not this implementation's — computed now otherwise.
fn replay_or<T>(
    known: Charged<T>,
    meter: &mut WorkMeter,
    compute: impl FnOnce(&mut WorkMeter) -> T,
) -> (T, u64) {
    if let Some((answer, ops)) = known {
        crate::stages::stage_counters().rounds_reused.inc();
        meter.charge(ops);
        return (answer, ops);
    }
    let before = meter.ops();
    let answer = compute(meter);
    (answer, meter.ops() - before)
}

/// One DP-refinement run from the interned alignment `initial`. Returns
/// the best TM-score encountered and the id of the alignment scoring it.
///
/// Each round is a rotation search of the current alignment and a
/// re-alignment DP under the found transform, both answered by the pair's
/// `RoundTable` where a ladder has been through the alignment before.
/// When the prefilters are enabled, a plateau below the score threshold
/// abandons the remaining iterations (`rck_kernel_pruned_rounds_total`).
#[allow(clippy::too_many_arguments)]
fn refine(
    x: &[Vec3],
    y: &[Vec3],
    initial: usize,
    d0_opt: f64,
    norm_len: usize,
    params: &TmAlignParams,
    depth: SearchDepth,
    ws: &mut Workspace,
    meter: &mut WorkMeter,
) -> (f64, usize) {
    let mut best_tm = -1.0;
    let mut best = initial;

    let d0sq = d0_opt * d0_opt;
    let prune = &params.prefilter;
    for (slot, &gap) in params.gap_penalties.iter().enumerate() {
        let mut current = initial;
        let mut prev_best = best_tm;
        for iter in 0..params.max_iterations {
            if ws.rounds.pairs(current).len() < 3 {
                break;
            }
            let known = ws.rounds.of(current).search;
            let searched = replay_or(known, meter, |meter| {
                ws.gather(x, y, current);
                search_in(
                    &ws.xa,
                    &ws.ya,
                    d0_opt,
                    d0_opt,
                    norm_len,
                    depth,
                    &mut ws.search,
                    meter,
                )
            });
            ws.rounds.of(current).search = Some(searched);
            let sr = searched.0;
            if sr.tm > best_tm {
                best_tm = sr.tm;
                best = current;
            }
            // Score-bound early termination: a sub-threshold score that
            // has stopped improving will not climb back over the
            // threshold in the remaining rounds (corpus-validated
            // heuristic, DESIGN.md §13.5).
            if prune.enabled
                && iter + 1 >= prune.min_refine_iters
                && best_tm < prune.tm_threshold
                && best_tm - prev_best < prune.min_gain
            {
                crate::stages::stage_counters().pruned_rounds.inc();
                break;
            }
            prev_best = best_tm;
            // Re-align under the found transform.
            let known = ws.rounds.of(current).next[slot];
            let realigned = replay_or(known, meter, |meter| {
                ws.moved.clear();
                ws.moved.extend(x.iter().map(|&p| sr.transform.apply(p)));
                meter.charge((x.len() * y.len()) as u64); // scoring the cells
                let (moved, target) = (&ws.moved, &ws.target);
                let (next, _) = ws.dp.align(
                    x.len(),
                    y.len(),
                    gap,
                    |i| target.dist_scores(moved[i], d0sq),
                    meter,
                );
                ws.rounds.intern(&next)
            });
            ws.rounds.of(current).next[slot] = Some(realigned);
            if realigned.0 == current {
                break;
            }
            current = realigned.0;
        }
    }
    (best_tm, best)
}

/// Secondary-structure strings of a chain, exposed for examples/benches.
pub fn secondary_structure(chain: &CaChain) -> Vec<SecStruct> {
    let mut meter = WorkMeter::new();
    assign(&chain.coords, &mut meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;
    use rck_pdb::geometry::Mat3;
    use rck_pdb::model::AminoAcid;
    use rck_pdb::synth::{FoldTemplate, MemberVariation, SegmentSpec, SsType};

    fn member(seed: u64, m: usize) -> CaChain {
        let t = FoldTemplate::generate(
            "test",
            vec![
                SegmentSpec::new(SsType::Helix, 18),
                SegmentSpec::new(SsType::Coil, 5),
                SegmentSpec::new(SsType::Strand, 9),
                SegmentSpec::new(SsType::Coil, 4),
                SegmentSpec::new(SsType::Helix, 14),
            ],
            seed,
        );
        let s = t.member(m, &MemberVariation::default(), seed);
        CaChain::from_chain(&s.name, &s.chains[0])
    }

    #[test]
    fn self_alignment_is_perfect() {
        let c = member(1, 0);
        let r = tm_align(&c, &c);
        assert!(r.tm_norm_a > 0.999, "tm = {}", r.tm_norm_a);
        assert!(r.tm_norm_b > 0.999);
        assert_eq!(r.aligned_len, c.len());
        assert!(r.rmsd < 1e-6);
        assert!((r.seq_identity - 1.0).abs() < 1e-12);
        assert!(r.ops > 0);
    }

    #[test]
    fn rigid_copy_is_perfect() {
        let c = member(2, 0);
        let rot = Mat3::rotation_about(Vec3::new(0.3, 1.0, -0.2), 2.0);
        let moved = CaChain {
            name: "moved".into(),
            seq: c.seq.clone(),
            coords: c
                .coords
                .iter()
                .map(|&p| rot * p + Vec3::new(8.0, -3.0, 1.0))
                .collect(),
        };
        let r = tm_align(&c, &moved);
        assert!(r.tm_norm_a > 0.999, "tm = {}", r.tm_norm_a);
        assert!(r.rmsd < 1e-6, "rmsd = {}", r.rmsd);
    }

    #[test]
    fn same_family_scores_higher_than_cross_family() {
        let chains = tiny_profile().generate(11);
        // chains 0-3: helix family; 4-7: strand family.
        let within = tm_align(&chains[0], &chains[1]).tm_max_norm();
        let across = tm_align(&chains[0], &chains[5]).tm_max_norm();
        assert!(
            within > across,
            "within-family {within} should exceed cross-family {across}"
        );
        // Short chains (≈30 residues) have a small d0, so even good family
        // matches sit well below 1.
        assert!(within > 0.4, "within-family tm = {within}");
    }

    #[test]
    fn result_is_symmetric_enough() {
        // TM-align is not exactly symmetric, but the normalised scores must
        // swap roles when the arguments swap.
        let a = member(3, 0);
        let b = member(3, 1);
        let r_ab = tm_align(&a, &b);
        let r_ba = tm_align(&b, &a);
        assert!((r_ab.tm_norm_a - r_ba.tm_norm_b).abs() < 0.1);
        assert!((r_ab.tm_norm_b - r_ba.tm_norm_a).abs() < 0.1);
    }

    #[test]
    fn different_lengths_normalise_differently() {
        let a = member(4, 0);
        // Truncated copy of a.
        let b = CaChain {
            name: "trunc".into(),
            seq: a.seq[..30].to_vec(),
            coords: a.coords[..30].to_vec(),
        };
        let r = tm_align(&b, &a);
        // Normalised by the fragment (len 30) the match is near-perfect;
        // normalised by the full chain it is partial.
        assert!(r.tm_norm_a > 0.9, "tm_a = {}", r.tm_norm_a);
        assert!(r.tm_norm_b < r.tm_norm_a);
        assert!((r.tm_norm_b - r.tm_norm_a * 30.0 / a.len() as f64).abs() < 0.1);
    }

    #[test]
    fn alignment_is_valid() {
        let a = member(5, 0);
        let b = member(6, 0); // different family seed
        let r = tm_align(&a, &b);
        assert!(crate::dp::is_valid_alignment(
            &r.alignment,
            a.len(),
            b.len()
        ));
        assert_eq!(r.aligned_len, r.alignment.len());
    }

    #[test]
    fn unrelated_structures_score_low() {
        // An extended strand vs a compact helix bundle.
        let strand_track: Vec<(f64, f64, AminoAcid)> = (0..60)
            .map(|_| {
                let (phi, psi) = SsType::Strand.canonical_phi_psi();
                (phi, psi, AminoAcid::Ala)
            })
            .collect();
        let s = rck_pdb::synth::build_backbone("ext", &strand_track);
        let ext = CaChain::from_chain("ext", &s.chains[0]);
        let helix = member(7, 0);
        let r = tm_align(&ext, &helix);
        assert!(r.tm_max_norm() < 0.55, "tm = {}", r.tm_max_norm());
    }

    #[test]
    fn ops_scale_with_problem_size() {
        let small = member(8, 0);
        let track: Vec<(f64, f64, AminoAcid)> = (0..200)
            .map(|i| {
                let (phi, psi) = if i % 20 < 12 {
                    SsType::Helix.canonical_phi_psi()
                } else {
                    SsType::Coil.canonical_phi_psi()
                };
                (phi, psi, AminoAcid::Leu)
            })
            .collect();
        let big_s = rck_pdb::synth::build_backbone("big", &track);
        let big = CaChain::from_chain("big", &big_s.chains[0]);
        let ops_small = tm_align(&small, &small).ops;
        let ops_big = tm_align(&big, &big).ops;
        assert!(
            ops_big > 2 * ops_small,
            "big {ops_big} vs small {ops_small}"
        );
    }

    #[test]
    fn params_affect_work() {
        let a = member(9, 0);
        let b = member(9, 1);
        let deep = TmAlignParams {
            fast_refinement: false,
            ..Default::default()
        };
        let r_fast = tm_align(&a, &b);
        let r_deep = tm_align_with(&a, &b, &deep);
        assert!(r_deep.ops > r_fast.ops);
        // Deeper search can only improve the optimised score materially.
        assert!(r_deep.tm_max_norm() > r_fast.tm_max_norm() - 0.05);
    }

    #[test]
    fn normalization_options_resolve_sensibly() {
        assert_eq!(Normalization::Shorter.resolve(50, 100).0, 50);
        assert_eq!(Normalization::Longer.resolve(50, 100).0, 100);
        assert_eq!(Normalization::Average.resolve(50, 101).0, 76);
        assert_eq!(Normalization::Length(80).resolve(50, 100).0, 80);
        let (l, d) = Normalization::FixedD0(3.5).resolve(50, 100);
        assert_eq!(l, 50);
        assert_eq!(d, 3.5);
        // d0 consistent with the formula everywhere else.
        assert_eq!(Normalization::Shorter.resolve(120, 300).1, d0(120));
    }

    #[test]
    fn longer_normalization_never_beats_shorter() {
        let a = member(13, 0);
        let b = CaChain {
            name: "trunc".into(),
            seq: a.seq[..30].to_vec(),
            coords: a.coords[..30].to_vec(),
        };
        let by_short = tm_align_with(
            &b,
            &a,
            &TmAlignParams {
                normalization: Normalization::Shorter,
                ..Default::default()
            },
        );
        let by_long = tm_align_with(
            &b,
            &a,
            &TmAlignParams {
                normalization: Normalization::Longer,
                ..Default::default()
            },
        );
        // Reported per-chain scores don't depend much on the optimisation
        // target here; both runs must agree the fragment matches well.
        assert!(by_short.tm_norm_a > 0.85);
        assert!(by_long.tm_norm_a > 0.85);
    }

    #[test]
    #[should_panic(expected = "fixed d0 must be positive")]
    fn bad_fixed_d0_rejected() {
        let _ = Normalization::FixedD0(-1.0).resolve(10, 10);
    }

    #[test]
    fn alignment_recovers_known_correspondence_after_deletion() {
        // Delete an interior loop block from a chain: TM-align must map
        // the flanking regions back onto themselves.
        let a = member(11, 0);
        let cut = a.len() / 2;
        let removed = 4usize;
        let b = CaChain {
            name: "del".into(),
            seq: [&a.seq[..cut], &a.seq[cut + removed..]].concat(),
            coords: [&a.coords[..cut], &a.coords[cut + removed..]].concat(),
        };
        let r = tm_align(&b, &a);
        assert!(r.tm_norm_a > 0.9, "tm = {}", r.tm_norm_a);
        // Correspondence: before the cut b[i] ↔ a[i]; after it
        // b[i] ↔ a[i + removed]. Allow a little slop near the cut.
        let mut correct = 0usize;
        for &(i, j) in &r.alignment {
            let expect = if i < cut { i } else { i + removed };
            if j == expect {
                correct += 1;
            }
        }
        let frac = correct as f64 / r.alignment.len() as f64;
        assert!(frac > 0.9, "only {frac:.2} of pairs on the true register");
    }

    #[test]
    fn alignment_recovers_register_after_insertion_and_motion() {
        // Insert a few residues AND rigidly move the chain: both the
        // register and the superposition must be recovered.
        let a = member(12, 0);
        let at = a.len() / 3;
        let inserted = 3usize;
        let rot = Mat3::rotation_about(Vec3::new(0.2, 1.0, 0.5), 1.7);
        let mut coords: Vec<Vec3> = Vec::new();
        let mut seq = Vec::new();
        for k in 0..at {
            coords.push(a.coords[k]);
            seq.push(a.seq[k]);
        }
        for k in 0..inserted {
            // A short excursion loop.
            coords.push(a.coords[at] + Vec3::new(2.0 + k as f64, 3.0, -1.0));
            seq.push(AminoAcid::Gly);
        }
        for k in at..a.len() {
            coords.push(a.coords[k]);
            seq.push(a.seq[k]);
        }
        let b = CaChain {
            name: "ins".into(),
            seq,
            coords: coords
                .iter()
                .map(|&p| rot * p + Vec3::new(5.0, -8.0, 2.0))
                .collect(),
        };
        let r = tm_align(&a, &b);
        assert!(r.tm_norm_a > 0.9, "tm = {}", r.tm_norm_a);
        let mut correct = 0usize;
        for &(i, j) in &r.alignment {
            let expect = if i < at { i } else { i + inserted };
            if j == expect {
                correct += 1;
            }
        }
        let frac = correct as f64 / r.alignment.len() as f64;
        assert!(frac > 0.85, "only {frac:.2} of pairs on the true register");
    }

    #[test]
    #[should_panic(expected = "at least 5 residues")]
    fn tiny_chain_panics() {
        let c = CaChain::from_coords("tiny", vec![Vec3::ZERO; 3]);
        let _ = tm_align(&c, &c);
    }

    /// Every bit `reused` shares with `fresh`.
    fn assert_bit_equal(reused: &TmAlignResult, fresh: &TmAlignResult) {
        assert_eq!(reused.alignment, fresh.alignment);
        assert_eq!(reused.ops, fresh.ops);
        for (r, f) in [
            (reused.tm_norm_a, fresh.tm_norm_a),
            (reused.tm_norm_b, fresh.tm_norm_b),
            (reused.rmsd, fresh.rmsd),
        ] {
            assert_eq!(r.to_bits(), f.to_bits());
        }
        assert_eq!(reused.transform, fresh.transform);
    }

    #[test]
    fn a_reused_workspace_carries_nothing_from_pair_to_pair() {
        // The stale-buffer bug class: one workspace driven through a
        // large pair then a small one (and back, and across configurations)
        // must give every bit a fresh workspace gives.
        let ck = rck_pdb::datasets::ck34_profile().generate(2013);
        let tiny = tiny_profile().generate(2013);
        let pairs = [
            (&ck[24], &ck[0]),
            (&tiny[0], &tiny[5]),
            (&ck[0], &ck[24]),
            (&tiny[5], &ck[1]),
        ];
        let mut ws = Workspace::default();
        for params in [
            TmAlignParams::default(),
            TmAlignParams::fast(),
            TmAlignParams::default(),
        ] {
            for (a, b) in pairs {
                let reused = tm_align_in(a, b, &params, &mut ws);
                assert_bit_equal(&reused, &tm_align_with(a, b, &params));
            }
        }
        // The stale-table row: the *same* pair back to back, so every
        // ladder revisits the alignments of the call before — under
        // another d0, normalisation length or search depth, where the
        // rounds they key answer differently. Only a table cleared per
        // call survives this.
        let (a, b) = (&tiny[5], &ck[1]);
        let oracle = TmAlignParams::default();
        for params in [
            oracle,
            TmAlignParams {
                normalization: Normalization::Longer,
                ..oracle
            },
            TmAlignParams {
                normalization: Normalization::FixedD0(3.0),
                ..oracle
            },
            TmAlignParams {
                fast_refinement: false,
                ..oracle
            },
            oracle,
        ] {
            let reused = tm_align_in(a, b, &params, &mut ws);
            assert_bit_equal(&reused, &tm_align_with(a, b, &params));
        }
    }

    #[test]
    fn a_self_alignment_computes_each_round_once() {
        // All three initials of a chain against itself are the identity
        // alignment, and every ladder is one round long (the DP answers
        // the identity again): six searches and six DPs asked for, one
        // search and one DP per gap penalty executed — and `ops` is still
        // what the six cost (27 068: the straight-line pipeline of
        // `tests/property.rs`, and this kernel before it kept a table).
        let c = &tiny_profile().generate(2013)[0];
        let mut ws = Workspace::default();
        let r = tm_align_in(c, c, &TmAlignParams::default(), &mut ws);
        assert_eq!(r.aligned_len, c.len());
        let (searches, dps) = ws.rounds.executed();
        assert_eq!((searches, dps), (1, 2), "asked for 2 × 3 × 1 of each");
        assert_eq!(r.ops, 27_068);
    }

    #[test]
    fn fast_kernel_tracks_scalar_scores() {
        for seed in [21u64, 22, 23] {
            let a = member(seed, 0);
            let b = member(seed, 1);
            let scalar = tm_align(&a, &b);
            let fast = tm_align_with(&a, &b, &TmAlignParams::fast());
            assert!(
                (scalar.tm_max_norm() - fast.tm_max_norm()).abs() < 0.02,
                "seed {seed}: scalar {} vs fast {}",
                scalar.tm_max_norm(),
                fast.tm_max_norm()
            );
            assert!(crate::dp::is_valid_alignment(
                &fast.alignment,
                a.len(),
                b.len()
            ));
        }
    }

    #[test]
    fn fast_kernel_on_self_alignment_is_perfect() {
        let c = member(24, 0);
        let r = tm_align_with(&c, &c, &TmAlignParams::fast());
        assert!(r.tm_norm_a > 0.999, "tm = {}", r.tm_norm_a);
        assert_eq!(r.aligned_len, c.len());
    }

    #[test]
    fn hopeless_pair_is_rejected_under_longer_normalization() {
        // A 12-residue fragment vs a 50-residue chain: the sound bound
        // 12/50 = 0.24 sits below the 0.3 threshold, so the pair skips
        // refinement — and the reported longer-normalised score must
        // indeed come out below the bound.
        let a = member(27, 0);
        let frag = CaChain {
            name: "frag".into(),
            seq: a.seq[..12].to_vec(),
            coords: a.coords[..12].to_vec(),
        };
        let params = TmAlignParams {
            normalization: Normalization::Longer,
            ..TmAlignParams::fast()
        };
        let s = crate::stages::stage_counters();
        let before = s.pruned_pairs.get();
        let r = tm_align_with(&frag, &a, &params);
        assert!(s.pruned_pairs.get() > before, "pair was not pruned");
        assert!(
            r.tm_min_norm() <= 12.0 / 50.0 + 1e-9,
            "longer-norm tm {} exceeds the bound",
            r.tm_min_norm()
        );
        // The rejected pair still spends far less work than a full run.
        let full = tm_align_with(&frag, &a, &TmAlignParams::fast());
        assert!(r.ops < full.ops, "reject {} vs full {}", r.ops, full.ops);
    }
}
