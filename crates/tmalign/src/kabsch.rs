//! Optimal rigid-body superposition of paired point sets.
//!
//! TM-align's Fortran source uses the classic `u3b` Kabsch routine; we use
//! the equivalent quaternion formulation (Horn 1987): the optimal rotation
//! is the eigenvector of a symmetric 4×4 matrix built from the
//! cross-covariance of the centred point sets, found with a Jacobi
//! eigensolver. The quaternion route always yields a *proper* rotation
//! (no reflection special-casing) and is numerically robust for the nearly
//! degenerate point sets that show up during alignment refinement.
//!
//! There is one solve body, and it is `K` lanes wide: a Jacobi rotation
//! is one dependency chain (three divisions and two square roots in
//! series), so gapless threading and the rotation search hand over their
//! independent solves a group at a time, and `KabschRmsdMethod` whole
//! pairs. [`optimal_transform`] and [`superpose`] are the 1-lane
//! instances, and every lane performs exactly the IEEE operations of a
//! solve run alone (DESIGN.md §13.7).

use crate::meter::WorkMeter;
use rck_pdb::geometry::{centroid, Mat3, Transform, Vec3};

/// Result of a superposition: the rigid transform mapping the *mobile* set
/// onto the *reference* set, and the residual RMSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Superposition {
    /// Transform such that `transform.apply(mobile[i]) ≈ reference[i]`.
    pub transform: Transform,
    /// Root-mean-square deviation after superposition, in angstroms.
    pub rmsd: f64,
}

/// Compute the optimal superposition of `mobile` onto `reference`:
/// [`optimal_transform`] plus the residual RMSD under it.
///
/// Both slices must have the same non-zero length. Each operation charged
/// to `meter` corresponds to one paired-point accumulation plus the fixed
/// eigen-solve cost.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn superpose(mobile: &[Vec3], reference: &[Vec3], meter: &mut WorkMeter) -> Superposition {
    let [sp] = superpositions([Some((mobile, reference))], std::slice::from_mut(meter));
    sp.expect("an occupied lane is solved")
}

/// Up to `K` independent superpositions: [`optimal_transforms`] plus each
/// occupied lane's residual RMSD, every lane bit for bit its own
/// [`superpose`]. On the 7 021 RS119 prefix pairs, 1.69–1.72 µs a pair
/// one at a time, 1.14–1.15 µs in groups of [`LANES`] (DESIGN.md §13.7).
///
/// # Panics
/// Panics if a lane's slices have different lengths or are empty.
// Not `#[inline]`: `superpose` measured 1.73 µs either way.
pub(crate) fn superpositions<const K: usize>(
    sets: [Option<(&[Vec3], &[Vec3])>; K],
    meters: &mut [WorkMeter],
) -> [Option<Superposition>; K] {
    let transforms = optimal_transforms(sets, meters);
    std::array::from_fn(|lane| {
        let (mobile, reference) = sets[lane]?;
        let transform = transforms[lane];
        // The residual is computed explicitly: Horn's closed form
        // (Σ|a|² + Σ|b|² − 2λ)/n cancels catastrophically for near-perfect
        // matches.
        let ss: f64 = mobile
            .iter()
            .zip(reference)
            .map(|(m, r)| transform.apply(*m).dist_sq(*r))
            .sum();
        Some(Superposition {
            transform,
            rmsd: (ss / mobile.len() as f64).sqrt(),
        })
    })
}

/// The rigid transform of [`superpose`] without its residual pass — what
/// the rotation search and gapless threading need from each of their
/// Kabsch solves. Same solve, same charge to `meter`, same transform bit
/// for bit: the 1-lane instance of `optimal_transforms`.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn optimal_transform(mobile: &[Vec3], reference: &[Vec3], meter: &mut WorkMeter) -> Transform {
    optimal_transforms([Some((mobile, reference))], std::slice::from_mut(meter))[0]
}

/// How many independent solves gapless threading (its diagonal offsets)
/// and the rotation search (its seed windows; a `Fast` search has exactly
/// four) hand [`optimal_transforms`] at a time. One-thread 561-pair CK34
/// sweep, variants interleaved pair by pair, median of 9 sweeps: search at
/// 1 / 2 / 4 / 8 lanes 1 339 / 1 299 / 1 259 / 1 255 ms (gapless at 8);
/// gapless at 1 / 4 / 8 / 16 lanes 1 331 / 1 261 / 1 259 / 1 301 ms (search
/// at 4). 4 and 8 are within the ±5 ms the sweeps repeat to for either
/// caller (and for whole RMSD pairs), and 4 holds half the window
/// buffers: one constant for all three.
pub(crate) const LANES: usize = 4;

/// Up to `K` independent Kabsch solves at once: lane `l` of the answer is
/// the transform of `sets[l]` (mobile, reference), the identity for an
/// unoccupied lane. Each occupied lane is counted and charged as one
/// [`optimal_transform`] — to `meters[lane % meters.len()]`: a pair's own
/// solves share its one meter, independent pairs have one each — and
/// accumulates its own [`horn_key`]; the eigen-problems are then solved
/// in lock-step at the narrowest of the widths 1, 2, 4 and `K` that holds
/// them. A `W`-lane solve costs the same whatever its occupancy (ns per
/// call: 927 at 1 lane, 1 260 at 2, 1 824 at 4, 3 080 at 8), and a
/// search's windows converge at different iterations: 47 % of its 4-lane
/// groups on the CK34 sweep are down to one live window when they solve.
///
/// # Panics
/// Panics if a lane's slices have different lengths or are empty.
// Inlined so each caller's solves stay one body in the object code: as a
// call the transforms come back through memory, and `superpose` measured
// 12 % slower (1.87 → 2.10 µs on RS119-sized prefixes).
#[inline]
pub(crate) fn optimal_transforms<const K: usize>(
    sets: [Option<(&[Vec3], &[Vec3])>; K],
    meters: &mut [WorkMeter],
) -> [Transform; K] {
    // The occupied lanes, packed to the front: (lane, centroids) and key.
    let mut frames = [(0, Vec3::ZERO, Vec3::ZERO); K];
    let mut keys = [[[0.0f64; 4]; 4]; K];
    let mut occupied = 0;
    for (lane, set) in sets.into_iter().enumerate() {
        let Some((mobile, reference)) = set else {
            continue;
        };
        crate::stages::stage_counters().kabsch_iterations.inc();
        let meter = &mut meters[lane % meters.len()];
        meter.charge(mobile.len() as u64 + 30); // covariance accumulation + eigen solve
        let (cm, cr, key) = horn_key(mobile, reference);
        frames[occupied] = (lane, cm, cr);
        keys[occupied] = key;
        occupied += 1;
    }

    let mut quats = [[0.0f64; 4]; K];
    match occupied {
        0 => {}
        1 => largest_eigenvectors_4x4::<1>(&keys, &mut quats),
        2 => largest_eigenvectors_4x4::<2>(&keys, &mut quats),
        3 | 4 => largest_eigenvectors_4x4::<4>(&keys, &mut quats),
        _ => largest_eigenvectors_4x4::<K>(&keys, &mut quats),
    }

    let mut transforms = [Transform::IDENTITY; K];
    for (&(lane, cm, cr), quat) in frames.iter().zip(quats).take(occupied) {
        let rot = quat_to_mat(quat);
        let trans = cr - rot * cm;
        transforms[lane] = Transform { rot, trans };
    }
    transforms
}

/// The centroids of a paired point set and Horn's symmetric 4×4 key
/// matrix of its cross-covariance, every sum accumulated left to right.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
#[inline]
fn horn_key(mobile: &[Vec3], reference: &[Vec3]) -> (Vec3, Vec3, [[f64; 4]; 4]) {
    assert_eq!(
        mobile.len(),
        reference.len(),
        "superpose requires equally sized point sets"
    );
    assert!(!mobile.is_empty(), "superpose requires at least one pair");
    let cm = centroid(mobile);
    let cr = centroid(reference);

    // Cross-covariance S = Σ (m_i - cm) (r_i - cr)^T.
    let mut s = [[0.0f64; 3]; 3];
    for (m, r) in mobile.iter().zip(reference) {
        let a = *m - cm;
        let b = *r - cr;
        let av = [a.x, a.y, a.z];
        let bv = [b.x, b.y, b.z];
        for i in 0..3 {
            for j in 0..3 {
                s[i][j] += av[i] * bv[j];
            }
        }
    }

    let (sxx, sxy, sxz) = (s[0][0], s[0][1], s[0][2]);
    let (syx, syy, syz) = (s[1][0], s[1][1], s[1][2]);
    let (szx, szy, szz) = (s[2][0], s[2][1], s[2][2]);
    let key = [
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ];
    (cm, cr, key)
}

/// RMSD (Å) between two paired point sets *after* optimal superposition.
///
/// # Panics
/// Panics if the slices have different lengths or are empty (see
/// [`superpose`]).
pub fn rmsd(mobile: &[Vec3], reference: &[Vec3], meter: &mut WorkMeter) -> f64 {
    superpose(mobile, reference, meter).rmsd
}

/// RMSD (Å) between paired point sets *without* superposition (zero for
/// empty inputs).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn raw_rmsd(a: &[Vec3], b: &[Vec3]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let ss: f64 = a.iter().zip(b).map(|(p, q)| p.dist_sq(*q)).sum();
    (ss / a.len() as f64).sqrt()
}

/// `quats[l]` = the (unit) eigenvector of the largest eigenvalue of the
/// symmetric 4×4 `keys[l]`, for the first `K` of them (fewer if there are
/// fewer), via cyclic Jacobi sweeps run in lock-step, lanes innermost.
///
/// One rotation is div → sqrt → div → sqrt → div in series, ≈ 33 of them a
/// solve: a lone solve leaves the divider idle on latency, `K` independent
/// ones fill it. Every lane performs exactly the IEEE operations of a
/// solve of its own, in that order: a lane whose off-diagonal has vanished
/// freezes, and a lane whose pivot is negligible sits the rotation out —
/// both through a per-lane select of the old values, never through a
/// `c = 1, s = 0` rotation (which turns `−0.0` into `+0.0`); a rotation
/// no lane takes is skipped.
#[allow(clippy::needless_range_loop)] // index loops mirror the maths
fn largest_eigenvectors_4x4<const K: usize>(keys: &[[[f64; 4]; 4]], quats: &mut [[f64; 4]]) {
    // a[p][q][lane]; v accumulates the rotations: columns are eigenvectors.
    let mut a = [[[0.0f64; K]; 4]; 4];
    let mut v = [[[0.0f64; K]; 4]; 4];
    for p in 0..4 {
        v[p][p] = [1.0; K];
        for q in 0..4 {
            for (l, key) in keys.iter().take(K).enumerate() {
                a[p][q][l] = key[p][q];
            }
        }
    }
    // `new` where the lane takes the rotation, `old` where it does not.
    let select = |rotate: &[bool; K], new: [f64; K], old: [f64; K]| -> [f64; K] {
        std::array::from_fn(|l| if rotate[l] { new[l] } else { old[l] })
    };

    for _sweep in 0..50 {
        let mut off = [0.0f64; K];
        for p in 0..4 {
            for q in (p + 1)..4 {
                for l in 0..K {
                    off[l] += a[p][q][l] * a[p][q][l];
                }
            }
        }
        let frozen: [bool; K] = off.map(|off| off < 1e-24);
        if !frozen.contains(&false) {
            break;
        }
        for p in 0..4 {
            for q in (p + 1)..4 {
                let rotate: [bool; K] = std::array::from_fn(|l| {
                    let negligible = a[p][q][l].abs() < 1e-300;
                    !(frozen[l] || negligible)
                });
                // Nothing to do — and for one lane, the scalar solve's
                // own `continue`: `superpose` measured 5 % slower selecting.
                if !rotate.contains(&true) {
                    continue;
                }
                let (mut c, mut s) = ([0.0f64; K], [0.0f64; K]);
                for l in 0..K {
                    let theta = (a[q][q][l] - a[p][p][l]) / (2.0 * a[p][q][l]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    c[l] = 1.0 / (t * t + 1.0).sqrt();
                    s[l] = t * c[l];
                }
                // One Givens rotation of columns/rows p and q, per lane.
                let givens = |up: [f64; K], uq: [f64; K]| -> ([f64; K], [f64; K]) {
                    let np = std::array::from_fn(|l| c[l] * up[l] - s[l] * uq[l]);
                    let nq = std::array::from_fn(|l| s[l] * up[l] + c[l] * uq[l]);
                    (select(&rotate, np, up), select(&rotate, nq, uq))
                };
                // Apply G(p,q) on both sides of `a` and accumulate into `v`.
                for k in 0..4 {
                    (a[k][p], a[k][q]) = givens(a[k][p], a[k][q]);
                }
                for k in 0..4 {
                    (a[p][k], a[q][k]) = givens(a[p][k], a[q][k]);
                }
                for row in v.iter_mut() {
                    (row[p], row[q]) = givens(row[p], row[q]);
                }
            }
        }
    }

    for (l, quat) in quats.iter_mut().take(K).enumerate() {
        let mut best = 0;
        for i in 1..4 {
            if a[i][i][l] > a[best][best][l] {
                best = i;
            }
        }
        *quat = [v[0][best][l], v[1][best][l], v[2][best][l], v[3][best][l]];
    }
}

/// Convert a unit quaternion `(w, x, y, z)` to a rotation matrix.
fn quat_to_mat(q: [f64; 4]) -> Mat3 {
    let [w, x, y, z] = q;
    let n = (w * w + x * x + y * y + z * z).sqrt();
    let (w, x, y, z) = (w / n, x / n, y / n, z / n);
    Mat3::from_rows(
        [
            w * w + x * x - y * y - z * z,
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            w * w - x * x + y * y - z * z,
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            w * w - x * x - y * y + z * z,
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn meter() -> WorkMeter {
        WorkMeter::new()
    }

    fn cloud(n: usize) -> Vec<Vec3> {
        // Deterministic non-degenerate cloud.
        (0..n)
            .map(|i| {
                let t = i as f64;
                Vec3::new(
                    (t * 0.37).sin() * 5.0 + t * 0.1,
                    (t * 0.53).cos() * 4.0,
                    (t * 0.19).sin() * 3.0 - t * 0.05,
                )
            })
            .collect()
    }

    #[test]
    fn identity_superposition() {
        let pts = cloud(20);
        let s = superpose(&pts, &pts, &mut meter());
        assert!(s.rmsd < 1e-9);
        assert!(s.transform.rot.is_rotation(1e-9));
        for &p in &pts {
            assert!(s.transform.apply(p).dist(p) < 1e-9);
        }
    }

    #[test]
    fn recovers_pure_translation() {
        let a = cloud(15);
        let t = Vec3::new(3.0, -1.0, 7.5);
        let b: Vec<Vec3> = a.iter().map(|&p| p + t).collect();
        let s = superpose(&a, &b, &mut meter());
        assert!(s.rmsd < 1e-9);
        assert!(s.transform.trans.dist(t) < 1e-9);
    }

    #[test]
    fn recovers_rigid_transform() {
        let a = cloud(25);
        let rot = Mat3::rotation_about(Vec3::new(1.0, 2.0, -0.5), 1.234);
        let trans = Vec3::new(-4.0, 2.0, 9.0);
        let b: Vec<Vec3> = a.iter().map(|&p| rot * p + trans).collect();
        let s = superpose(&a, &b, &mut meter());
        assert!(s.rmsd < 1e-8, "rmsd = {}", s.rmsd);
        for &p in &a {
            let mapped = s.transform.apply(p);
            let expect = rot * p + trans;
            assert!(mapped.dist(expect) < 1e-7);
        }
    }

    #[test]
    fn never_produces_reflection() {
        // A mirrored cloud cannot be superposed by a proper rotation; the
        // result must still be a rotation (det +1) with non-zero RMSD.
        let a = cloud(12);
        let b: Vec<Vec3> = a.iter().map(|&p| Vec3::new(-p.x, p.y, p.z)).collect();
        let s = superpose(&a, &b, &mut meter());
        assert!(s.transform.rot.is_rotation(1e-8));
        assert!(s.rmsd > 0.5);
    }

    #[test]
    fn rmsd_with_noise_is_positive_and_small() {
        let a = cloud(30);
        let b: Vec<Vec3> = a
            .iter()
            .enumerate()
            .map(|(i, &p)| p + Vec3::new(0.01, -0.01, 0.02) * ((i % 3) as f64))
            .collect();
        let r = rmsd(&a, &b, &mut meter());
        assert!(r > 0.0 && r < 0.1, "rmsd = {r}");
    }

    #[test]
    fn minimal_two_point_case() {
        let a = [Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let b = [Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0)];
        let s = superpose(&a, &b, &mut meter());
        assert!(s.rmsd < 1e-9);
        assert!(s.transform.rot.is_rotation(1e-8));
    }

    #[test]
    fn collinear_points_are_handled() {
        let a: Vec<Vec3> = (0..5).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let b: Vec<Vec3> = (0..5).map(|i| Vec3::new(0.0, i as f64, 0.0)).collect();
        let s = superpose(&a, &b, &mut meter());
        assert!(s.rmsd < 1e-9);
        assert!(s.transform.rot.is_rotation(1e-8));
    }

    #[test]
    fn single_point_superposes_by_translation() {
        let a = [Vec3::new(1.0, 2.0, 3.0)];
        let b = [Vec3::new(-1.0, 0.0, 5.0)];
        let s = superpose(&a, &b, &mut meter());
        assert!(s.rmsd < 1e-12);
        assert!(s.transform.apply(a[0]).dist(b[0]) < 1e-12);
    }

    #[test]
    fn raw_rmsd_basics() {
        let a = [Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
        let b = [Vec3::ZERO, Vec3::new(0.0, 0.0, 0.0)];
        assert!((raw_rmsd(&a, &b) - (4.0f64 / 2.0).sqrt()).abs() < 1e-12);
        assert_eq!(raw_rmsd(&[], &[]), 0.0);
    }

    #[test]
    fn meter_is_charged() {
        let mut m = meter();
        let pts = cloud(10);
        let _ = superpose(&pts, &pts, &mut m);
        assert!(m.ops() >= 10);
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn mismatched_lengths_panic() {
        let _ = superpose(&cloud(3), &cloud(4), &mut meter());
    }

    /// The scalar Jacobi solve the lock-step body replaced, kept as the
    /// reference every lane must match bit for bit.
    #[allow(clippy::needless_range_loop)]
    fn scalar_eigenvector_4x4(m: [[f64; 4]; 4]) -> [f64; 4] {
        let mut a = m;
        let mut v = [[0.0f64; 4]; 4];
        for (i, row) in v.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        for _sweep in 0..50 {
            let mut off = 0.0;
            for p in 0..4 {
                for q in (p + 1)..4 {
                    off += a[p][q] * a[p][q];
                }
            }
            if off < 1e-24 {
                break;
            }
            for p in 0..4 {
                for q in (p + 1)..4 {
                    if a[p][q].abs() < 1e-300 {
                        continue;
                    }
                    let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..4 {
                        let akp = a[k][p];
                        let akq = a[k][q];
                        a[k][p] = c * akp - s * akq;
                        a[k][q] = s * akp + c * akq;
                    }
                    for k in 0..4 {
                        let apk = a[p][k];
                        let aqk = a[q][k];
                        a[p][k] = c * apk - s * aqk;
                        a[q][k] = s * apk + c * aqk;
                    }
                    for row in v.iter_mut() {
                        let vkp = row[p];
                        let vkq = row[q];
                        row[p] = c * vkp - s * vkq;
                        row[q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut best = 0;
        for i in 1..4 {
            if a[i][i] > a[best][best] {
                best = i;
            }
        }
        [v[0][best], v[1][best], v[2][best], v[3][best]]
    }

    /// Keys no point cloud is likely to produce: all zero (frozen before
    /// the first sweep), diagonal, a repeated top eigenvalue, and a pivot
    /// below the 1e-300 skip line beside ordinary ones.
    fn degenerate_keys() -> Vec<[[f64; 4]; 4]> {
        let diagonal = |d: [f64; 4]| {
            let mut k = [[0.0; 4]; 4];
            for (i, row) in k.iter_mut().enumerate() {
                row[i] = d[i];
            }
            k
        };
        let mut tiny_pivot = diagonal([3.0, -1.0, 2.0, 0.5]);
        (tiny_pivot[0][1], tiny_pivot[1][0]) = (1e-301, 1e-301);
        (tiny_pivot[2][3], tiny_pivot[3][2]) = (0.25, 0.25);
        let mut repeated = diagonal([2.0, 2.0, -1.0, -3.0]);
        (repeated[0][3], repeated[3][0]) = (-0.0, -0.0);
        vec![
            [[0.0; 4]; 4],
            diagonal([1.0, 4.0, -2.0, 4.0]),
            repeated,
            tiny_pivot,
        ]
    }

    /// Every occupancy of a `K`-lane solve, under every rotation of
    /// `keys` through the lanes, against the scalar reference.
    fn assert_lanes_match_the_scalar<const K: usize>(keys: &[[[f64; 4]; 4]]) {
        for occupied in 1..=K {
            for first in 0..keys.len() {
                let lanes: Vec<_> = (0..occupied)
                    .map(|lane| keys[(first + lane) % keys.len()])
                    .collect();
                let mut got = vec![[f64::NAN; 4]; occupied];
                largest_eigenvectors_4x4::<K>(&lanes, &mut got);
                for (lane, (key, got)) in lanes.iter().zip(got).enumerate() {
                    assert_eq!(
                        got.map(f64::to_bits),
                        scalar_eigenvector_4x4(*key).map(f64::to_bits),
                        "K = {K}, {occupied} occupied, lane {lane}"
                    );
                }
            }
        }
    }

    /// Each width from 1 to [`LANES`], and on to twice that.
    fn assert_every_width_matches_the_scalar(keys: &[[[f64; 4]; 4]]) {
        const WIDEST: usize = 8;
        const _: () = assert!(LANES <= WIDEST);
        assert_lanes_match_the_scalar::<1>(keys);
        assert_lanes_match_the_scalar::<2>(keys);
        assert_lanes_match_the_scalar::<3>(keys);
        assert_lanes_match_the_scalar::<4>(keys);
        assert_lanes_match_the_scalar::<5>(keys);
        assert_lanes_match_the_scalar::<6>(keys);
        assert_lanes_match_the_scalar::<7>(keys);
        assert_lanes_match_the_scalar::<WIDEST>(keys);
    }

    #[test]
    fn every_lane_width_gives_the_scalar_bits_on_degenerate_keys() {
        assert_every_width_matches_the_scalar(&degenerate_keys());
    }

    fn arb_points(len: usize) -> impl Strategy<Value = Vec<Vec3>> {
        prop::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0)
                .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            len,
        )
    }

    proptest! {
        /// Horn keys of random clouds (whole, and of a two-point prefix,
        /// which is rank-deficient) mixed with the degenerate keys: every
        /// lane of every width, at every occupancy and under every
        /// rotation through the lanes, is the scalar solve bit for bit.
        #[test]
        fn lockstep_jacobi_matches_the_scalar_bitwise(
            clouds in prop::collection::vec((arb_points(24), arb_points(24)), 5),
        ) {
            let mut keys = degenerate_keys();
            for (a, b) in &clouds {
                keys.push(horn_key(a, b).2);
                keys.push(horn_key(&a[..2], &b[..2]).2);
            }
            assert_every_width_matches_the_scalar(&keys);
        }

        /// A group of solves is its members solved alone: transform
        /// bits, and the work charged.
        #[test]
        fn a_group_of_solves_is_its_members_solved_alone(
            clouds in prop::collection::vec((arb_points(17), arb_points(17)), 3),
        ) {
            let bits = |t: &Transform| -> Vec<u64> {
                let trans = [t.trans.x, t.trans.y, t.trans.z];
                let words = t.rot.r.iter().flatten().chain(&trans);
                words.map(|f| f.to_bits()).collect()
            };
            let (mut together, mut alone) = (meter(), meter());
            let sets = [
                Some((&clouds[0].0[..], &clouds[0].1[..])),
                None,
                Some((&clouds[1].0[..5], &clouds[1].1[..5])),
                Some((&clouds[2].0[..1], &clouds[2].1[..1])),
            ];
            let got = optimal_transforms(sets, std::slice::from_mut(&mut together));
            for (set, got) in sets.iter().zip(&got) {
                let want = match set {
                    Some((mobile, reference)) => optimal_transform(mobile, reference, &mut alone),
                    None => Transform::IDENTITY,
                };
                prop_assert_eq!(bits(got), bits(&want));
            }
            prop_assert_eq!(together.ops(), alone.ops());
        }
    }
}
