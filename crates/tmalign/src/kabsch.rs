//! Optimal rigid-body superposition of paired point sets.
//!
//! TM-align's Fortran source uses the classic `u3b` Kabsch routine; we use
//! the equivalent quaternion formulation (Horn 1987): the optimal rotation
//! is the eigenvector of a symmetric 4×4 matrix built from the
//! cross-covariance of the centred point sets, found with a Jacobi
//! eigensolver. The quaternion route always yields a *proper* rotation
//! (no reflection special-casing) and is numerically robust for the nearly
//! degenerate point sets that show up during alignment refinement.

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
    let transform = optimal_transform(mobile, reference, meter);
    // The residual is computed explicitly: Horn's closed form
    // (Σ|a|² + Σ|b|² − 2λ)/n cancels catastrophically for near-perfect
    // matches.
    let ss: f64 = mobile
        .iter()
        .zip(reference)
        .map(|(m, r)| transform.apply(*m).dist_sq(*r))
        .sum();
    Superposition {
        transform,
        rmsd: (ss / mobile.len() as f64).sqrt(),
    }
}

/// The rigid transform of [`superpose`] without its residual pass — what
/// the rotation search and gapless threading need from each of their
/// Kabsch solves. Same solve, same charge to `meter`, same transform bit
/// for bit.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
// Inlined so `superpose` stays one body in the object code as well: as a
// call the transform comes back through memory, and `superpose` measured
// 12 % slower (1.87 → 2.10 µs on RS119-sized prefixes).
#[inline]
pub fn optimal_transform(mobile: &[Vec3], reference: &[Vec3], meter: &mut WorkMeter) -> Transform {
    assert_eq!(
        mobile.len(),
        reference.len(),
        "superpose requires equally sized point sets"
    );
    assert!(!mobile.is_empty(), "superpose requires at least one pair");
    let n = mobile.len();
    crate::stages::stage_counters().kabsch_iterations.inc();
    meter.charge(n as u64 + 30); // covariance accumulation + eigen solve

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

    // Horn's symmetric 4×4 key matrix.
    let (sxx, sxy, sxz) = (s[0][0], s[0][1], s[0][2]);
    let (syx, syy, syz) = (s[1][0], s[1][1], s[1][2]);
    let (szx, szy, szz) = (s[2][0], s[2][1], s[2][2]);
    let k = [
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ];

    let rot = quat_to_mat(largest_eigenvector_4x4(k));
    Transform {
        rot,
        trans: cr - rot * cm,
    }
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

/// The (unit) eigenvector of the largest eigenvalue of a symmetric 4×4
/// matrix, via cyclic Jacobi sweeps.
#[allow(clippy::needless_range_loop)] // index loops mirror the maths
fn largest_eigenvector_4x4(m: [[f64; 4]; 4]) -> [f64; 4] {
    let mut a = m;
    // v accumulates the rotations: columns are eigenvectors.
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
                // Apply the Givens rotation G(p,q) on both sides of `a`
                // and accumulate into `v`.
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
}
