//! The three initial alignments used by TM-align (and cited by the paper):
//!
//! 1. **Gapless threading**: slide one chain along the other and keep the
//!    ungapped offset with the best quick TM-score (the offsets'
//!    superpositions are independent, and solved a group at a time).
//! 2. **Secondary-structure alignment**: dynamic programming over a
//!    match/mismatch matrix of the per-residue secondary-structure classes.
//! 3. **Hybrid alignment**: dynamic programming over a 50/50 blend of the
//!    secondary-structure match matrix and the distance-score matrix
//!    induced by the best superposition found so far.

use crate::dp::{Alignment, StreamDp};
use crate::kabsch::{optimal_transforms, LANES};
use crate::meter::WorkMeter;
use crate::secstruct::SecStruct;
use crate::tmscore::tm_score_of_dist_sq;
use crate::workspace::Workspace;
use rck_pdb::geometry::{Transform, Vec3};

/// Gap penalty used for the secondary-structure DP (TM-align uses −1.0).
pub const SS_GAP: f64 = -1.0;

/// An initial alignment candidate plus the transform that produced it
/// (identity when no superposition was involved).
#[derive(Debug, Clone)]
pub struct InitialAlignment {
    /// Human-readable origin, for tracing/ablation.
    pub source: &'static str,
    /// The aligned pairs.
    pub alignment: Alignment,
    /// A transform of chain x associated with the candidate, if any.
    pub transform: Option<Transform>,
}

/// Initial alignment 1: gapless threading.
///
/// For every diagonal offset `k`, the overlap pairs `(i, i+k)` are
/// superposed and scored with a single-pass TM-score (no iterative search —
/// this is the cheap screen TM-align's `get_initial` performs). Offsets
/// keeping fewer than `min_overlap` pairs are skipped; the rest are
/// solved `kabsch::LANES` at a time — every offset is an independent Kabsch
/// solve — and scored in offset order.
pub fn gapless_threading(
    x: &[Vec3],
    y: &[Vec3],
    d0: f64,
    norm_len: usize,
    meter: &mut WorkMeter,
) -> InitialAlignment {
    let n = x.len() as isize;
    let m = y.len() as isize;
    let min_overlap = ((n.min(m) / 2).max(5) as usize).min(n.min(m) as usize);
    // k is the offset such that x[i] pairs with y[i + k].
    let overlap = |k: isize| {
        let (i_lo, i_hi) = (0.max(-k), n.min(m - k));
        let xs = &x[i_lo as usize..i_hi as usize];
        let ys = &y[(i_lo + k) as usize..(i_hi + k) as usize];
        (xs, ys)
    };

    let mut best_k = 0isize;
    let mut best_score = f64::NEG_INFINITY;
    let mut best_t = Transform::IDENTITY;

    // The squared distances of one offset, then its TM terms.
    let mut dist_sq = Vec::with_capacity(n.min(m) as usize);
    let mut offsets = ((1 - n)..m).filter(|&k| overlap(k).0.len() >= min_overlap);
    loop {
        let mut group = [None; LANES];
        for (slot, k) in group.iter_mut().zip(&mut offsets) {
            *slot = Some(k);
        }
        if group[0].is_none() {
            break;
        }
        let ts = optimal_transforms(group.map(|k| k.map(overlap)), std::slice::from_mut(meter));
        for (k, t) in group.into_iter().flatten().zip(ts) {
            let (xs, ys) = overlap(k);
            meter.charge(xs.len() as u64);
            dist_sq.clear();
            dist_sq.extend(xs.iter().zip(ys).map(|(&p, &q)| t.apply(p).dist_sq(q)));
            let score = tm_score_of_dist_sq(&mut dist_sq, d0, norm_len);
            if score > best_score {
                best_score = score;
                best_k = k;
                best_t = t;
            }
        }
    }

    let alignment = if best_score > f64::NEG_INFINITY {
        let i_lo = 0.max(-best_k);
        let i_hi = n.min(m - best_k);
        (i_lo..i_hi)
            .map(|i| (i as usize, (i + best_k) as usize))
            .collect()
    } else {
        Vec::new()
    };
    InitialAlignment {
        source: "gapless",
        alignment,
        transform: Some(best_t),
    }
}

/// The secondary-structure match score: 1 where the classes agree, 0
/// otherwise.
#[inline]
fn ss_match(a: SecStruct, b: SecStruct) -> f64 {
    if a == b {
        1.0
    } else {
        0.0
    }
}

/// Initial alignment 2: secondary-structure DP.
///
/// Match score 1 for identical SS classes, 0 otherwise; gap −1.
pub fn ss_alignment(
    ss_x: &[SecStruct],
    ss_y: &[SecStruct],
    meter: &mut WorkMeter,
) -> InitialAlignment {
    ss_alignment_in(ss_x, ss_y, &mut StreamDp::new(), meter)
}

/// [`ss_alignment`] on the caller's DP workspace.
pub(crate) fn ss_alignment_in(
    ss_x: &[SecStruct],
    ss_y: &[SecStruct],
    dp: &mut StreamDp,
    meter: &mut WorkMeter,
) -> InitialAlignment {
    meter.charge((ss_x.len() * ss_y.len()) as u64); // scoring the cells
    let (alignment, _) = dp.align(
        ss_x.len(),
        ss_y.len(),
        SS_GAP,
        |i| ss_y.iter().map(move |&yj| ss_match(ss_x[i], yj)),
        meter,
    );
    InitialAlignment {
        source: "ss-dp",
        alignment,
        transform: None,
    }
}

/// Initial alignment 3: hybrid DP over `0.5·SS-match + 0.5·distance-score`
/// where the distance score comes from transforming `x` with `t`
/// (typically the best transform found by the previous two candidates).
pub fn hybrid_alignment(
    x: &[Vec3],
    y: &[Vec3],
    ss_x: &[SecStruct],
    ss_y: &[SecStruct],
    t: &Transform,
    d0: f64,
    meter: &mut WorkMeter,
) -> InitialAlignment {
    let mut ws = Workspace::default();
    ws.retarget(y);
    hybrid_alignment_in(x, ss_x, ss_y, t, d0, &mut ws, meter)
}

/// [`hybrid_alignment`] against the target chain `ws` points at.
pub(crate) fn hybrid_alignment_in(
    x: &[Vec3],
    ss_x: &[SecStruct],
    ss_y: &[SecStruct],
    t: &Transform,
    d0: f64,
    ws: &mut Workspace,
    meter: &mut WorkMeter,
) -> InitialAlignment {
    let m = ws.target.len();
    assert_eq!(ss_y.len(), m, "one secondary-structure class per residue");
    ws.moved.clear();
    ws.moved.extend(x.iter().map(|&p| t.apply(p)));
    let d0sq = d0 * d0;
    meter.charge(2 * (x.len() * m) as u64); // scoring both components
    let (moved, target) = (&ws.moved, &ws.target);
    let (alignment, _) = ws.dp.align(
        x.len(),
        m,
        SS_GAP,
        |i| {
            let dist = target.dist_scores(moved[i], d0sq);
            let ss = ss_y.iter().map(move |&yj| ss_match(ss_x[i], yj));
            dist.zip(ss).map(|(d, s)| 0.5 * d + 0.5 * s)
        },
        meter,
    );
    InitialAlignment {
        source: "hybrid",
        alignment,
        transform: Some(*t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::is_valid_alignment;
    use crate::secstruct::assign;
    use crate::tmscore::d0;
    use rck_pdb::geometry::Mat3;

    fn meter() -> WorkMeter {
        WorkMeter::new()
    }

    fn helixish(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 100.0f64.to_radians();
                Vec3::new(2.3 * t.cos(), 2.3 * t.sin(), 1.5 * i as f64)
            })
            .collect()
    }

    #[test]
    fn gapless_finds_identity_offset() {
        let x = helixish(40);
        let init = gapless_threading(&x, &x, d0(40), 40, &mut meter());
        assert_eq!(init.alignment.len(), 40);
        assert!(init.alignment.iter().all(|&(i, j)| i == j));
    }

    /// An aperiodic chain (no screw symmetry, unlike an ideal helix) so
    /// diagonal offsets are distinguishable.
    fn aperiodic(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Vec3::new(
                    (t * 0.7).sin() * 4.0 + t * 0.9,
                    (t * 0.31).cos() * 5.0 + (t * 0.11).sin() * 2.0,
                    (t * 0.53).sin() * 3.0,
                )
            })
            .collect()
    }

    #[test]
    fn gapless_finds_shifted_offset() {
        // y is x with 7 extra leading residues: best offset pairs
        // x[i] with y[i+7].
        let y = aperiodic(47);
        let x: Vec<Vec3> = y[7..].to_vec();
        let init = gapless_threading(&x, &y, d0(40), 40, &mut meter());
        assert!(!init.alignment.is_empty());
        let (i0, j0) = init.alignment[0];
        assert_eq!(j0 - i0, 7, "offset found: {}", j0 - i0);
    }

    #[test]
    fn gapless_respects_rigid_motion() {
        let x = helixish(30);
        let rot = Mat3::rotation_about(Vec3::new(1.0, 0.0, 1.0), 1.0);
        let y: Vec<Vec3> = x
            .iter()
            .map(|&p| rot * p + Vec3::new(4.0, 5.0, 6.0))
            .collect();
        let init = gapless_threading(&x, &y, d0(30), 30, &mut meter());
        assert_eq!(init.alignment.len(), 30);
        let t = init.transform.unwrap();
        // The recovered transform should map x close to y.
        let max_err = x
            .iter()
            .zip(&y)
            .map(|(&p, &q)| t.apply(p).dist(q))
            .fold(0.0, f64::max);
        assert!(max_err < 1e-6, "max error {max_err}");
    }

    #[test]
    fn ss_alignment_matches_identical_tracks() {
        let x = helixish(30);
        let ss = assign(&x, &mut meter());
        let init = ss_alignment(&ss, &ss, &mut meter());
        assert_eq!(init.alignment.len(), 30);
        assert!(init.alignment.iter().all(|&(i, j)| i == j));
    }

    #[test]
    fn ss_alignment_valid_on_different_lengths() {
        let x = helixish(25);
        let y = helixish(40);
        let ssx = assign(&x, &mut meter());
        let ssy = assign(&y, &mut meter());
        let init = ss_alignment(&ssx, &ssy, &mut meter());
        assert!(is_valid_alignment(&init.alignment, 25, 40));
        assert!(!init.alignment.is_empty());
    }

    #[test]
    fn hybrid_alignment_recovers_identity() {
        let x = helixish(35);
        let ss = assign(&x, &mut meter());
        let init = hybrid_alignment(&x, &x, &ss, &ss, &Transform::IDENTITY, d0(35), &mut meter());
        assert_eq!(init.alignment.len(), 35);
        assert!(init.alignment.iter().all(|&(i, j)| i == j));
    }

    #[test]
    fn sources_are_labelled() {
        let x = helixish(20);
        let ss = assign(&x, &mut meter());
        assert_eq!(
            gapless_threading(&x, &x, 1.0, 20, &mut meter()).source,
            "gapless"
        );
        assert_eq!(ss_alignment(&ss, &ss, &mut meter()).source, "ss-dp");
        assert_eq!(
            hybrid_alignment(&x, &x, &ss, &ss, &Transform::IDENTITY, 1.0, &mut meter()).source,
            "hybrid"
        );
    }

    #[test]
    fn tiny_chains_do_not_panic() {
        let x = helixish(6);
        let y = helixish(8);
        let init = gapless_threading(&x, &y, 0.5, 6, &mut meter());
        assert!(is_valid_alignment(&init.alignment, 6, 8));
    }
}
