//! TM-score computation and the TM-score rotation search.
//!
//! The TM-score of an alignment between structures x and y is
//!
//! ```text
//! TM = (1 / L_target) · Σ_aligned 1 / (1 + (d_i / d0)²)
//! ```
//!
//! maximised over rigid transforms of x, where `d0` is the
//! length-dependent normalisation scale of Zhang & Skolnick. The maximising
//! rotation is found as in the original TM-score/TM-align code: superpose
//! on seed fragments of decreasing length, then iteratively re-superpose on
//! the subset of residue pairs falling inside a distance cutoff until the
//! subset stabilises, keeping the best score seen anywhere.
//!
//! The seed windows are independent of one another until that final
//! "best seen anywhere", so [`search`] advances a group of them together
//! and hands each iteration's Kabsch solves to the lock-step solver in
//! one call (DESIGN.md §13.7); scores, transform and `ops` are those of
//! the window-by-window loop, bit for bit.

use crate::kabsch::{optimal_transforms, LANES};
use crate::meter::WorkMeter;
use rck_pdb::geometry::{Transform, Vec3};

/// The TM-score normalisation scale `d0(L) = 1.24·∛(L−15) − 1.8`,
/// clamped below at 0.5 Å (as TM-align does for short chains).
pub fn d0(len: usize) -> f64 {
    if len <= 21 {
        // For L ≤ 21 the formula goes ≤ 0.5; TM-align clamps.
        return 0.5;
    }
    let v = 1.24 * ((len as f64) - 15.0).cbrt() - 1.8;
    v.max(0.5)
}

/// Plain TM-score of already-transformed paired coordinates, normalised by
/// `norm_len`.
pub fn tm_score_of_pairs(x: &[Vec3], y: &[Vec3], d0: f64, norm_len: usize) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    tm_score_of_dist_sq(x.iter().zip(y).map(|(a, b)| a.dist_sq(*b)), d0, norm_len)
}

/// TM-score of a sequence of squared pair distances (Å²), normalised by
/// `norm_len` — [`tm_score_of_pairs`] for callers that produce the
/// distances on the fly instead of materialising moved coordinates.
pub(crate) fn tm_score_of_dist_sq(
    dist_sq: impl Iterator<Item = f64>,
    d0: f64,
    norm_len: usize,
) -> f64 {
    if norm_len == 0 {
        return 0.0;
    }
    let d0sq = d0 * d0;
    let sum: f64 = dist_sq.map(|d| 1.0 / (1.0 + d / d0sq)).sum();
    sum / norm_len as f64
}

/// How exhaustively [`search`] seeds the rotation search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchDepth {
    /// Few seed fragments — used inside alignment-refinement loops where
    /// the search runs many times (TM-align's `detailed_search` spirit).
    Fast,
    /// Full seed schedule (L, L/2, L/4, L/8) — used for initial scoring
    /// and the final reported score.
    Full,
}

/// Result of a TM-score rotation search.
#[derive(Debug, Clone, Copy)]
pub struct SearchResult {
    /// Best TM-score found (normalised by the `norm_len` argument).
    pub tm: f64,
    /// Transform of the mobile set achieving it.
    pub transform: Transform,
}

/// Below every TM-score: where each window's, and the search's, strict
/// `>` starts from.
const NO_SCORE: SearchResult = SearchResult {
    tm: -1.0,
    transform: Transform::IDENTITY,
};

/// One seed window in flight: its cutoff selections and the gathered
/// subset its next superposition is solved on.
#[derive(Debug, Default)]
struct WindowBuffers {
    selected: Vec<usize>,
    prev_selected: Vec<usize>,
    xs: Vec<Vec3>,
    ys: Vec<Vec3>,
}

/// Buffers of one [`search`], reusable across calls: those of the
/// windows in flight and the per-iteration squared distances. Carries no
/// state from one call to the next.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    lanes: [WindowBuffers; LANES],
    dist_sq: Vec<f64>,
}

/// Maximise the TM-score of the aligned pairs `(x_i, y_i)` over rigid
/// transforms of `x`.
///
/// * `d0_search` controls the inclusion cutoff of the iterative extension;
/// * `d0_score` is the scale used in the reported score;
/// * `norm_len` is the normalisation length (the target chain's length).
///
/// Returns a zero score and identity transform for fewer than 3 pairs
/// (a rigid transform is under-determined below that) or a zero
/// `norm_len` (as [`tm_score_of_pairs`] does).
pub fn search(
    x: &[Vec3],
    y: &[Vec3],
    d0_search: f64,
    d0_score: f64,
    norm_len: usize,
    depth: SearchDepth,
    meter: &mut WorkMeter,
) -> SearchResult {
    let mut scratch = SearchScratch::default();
    search_in(
        x,
        y,
        d0_search,
        d0_score,
        norm_len,
        depth,
        &mut scratch,
        meter,
    )
}

/// Start offsets of the seed windows of length `l_ini` over `n` pairs:
/// every `max(l_ini / 2, 4)`, the last one flush against the right edge.
fn window_starts(n: usize, l_ini: usize) -> impl Iterator<Item = usize> {
    let step = (l_ini / 2).max(4);
    std::iter::successors((l_ini <= n).then_some(0), move |&start| {
        (start + l_ini < n).then(|| (start + step).min(n - l_ini))
    })
}

/// [`search`] on the caller's buffers. The seed windows are listed in
/// schedule order and advanced [`LANES`] at a time: each keeps the
/// sequential loop's state and operations, only the Kabsch solves of one
/// iteration are taken together, and window bests are replayed in window
/// order under the same strict `>` — the sequential first strict maximum.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_in(
    x: &[Vec3],
    y: &[Vec3],
    d0_search: f64,
    d0_score: f64,
    norm_len: usize,
    depth: SearchDepth,
    scratch: &mut SearchScratch,
    meter: &mut WorkMeter,
) -> SearchResult {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    if n < 3 || norm_len == 0 {
        return SearchResult {
            tm: 0.0,
            transform: Transform::IDENTITY,
        };
    }
    crate::stages::stage_counters().tmscore_refinements.inc();

    // Seed fragment lengths, longest first: the schedule's entries of at
    // least 4 residues, or one short fragment when there is none.
    let schedule = [n, n / 2, n / 4, n / 8];
    let schedule = match depth {
        SearchDepth::Fast => &schedule[..2],
        SearchDepth::Full => &schedule[..],
    };
    let fallback = [n.clamp(3, 4)];
    let seed_lens = match schedule.iter().rposition(|&l| l >= 4) {
        Some(last) => &schedule[..=last],
        None => &fallback[..],
    };
    let mut windows = seed_lens
        .iter()
        .flat_map(|&l_ini| window_starts(n, l_ini).map(move |start| start..start + l_ini));

    let mut best = NO_SCORE;
    let SearchScratch { lanes, dist_sq } = scratch;
    // The cutoff filter below cannot tell `extend` how many pairs pass.
    for lane in lanes.iter_mut() {
        for buf in [&mut lane.selected, &mut lane.prev_selected] {
            buf.clear();
            buf.reserve(n);
        }
    }
    let d0sq_score = d0_score * d0_score;
    loop {
        // Superpose each window of the group on its seed fragment.
        let mut seeds = [None; LANES];
        for ((seed, lane), window) in seeds.iter_mut().zip(lanes.iter_mut()).zip(&mut windows) {
            *seed = Some((&x[window.clone()], &y[window]));
            lane.prev_selected.clear();
        }
        if seeds[0].is_none() {
            break;
        }
        let mut ts = optimal_transforms(seeds, std::slice::from_mut(meter));
        let mut live = seeds.map(|seed| seed.is_some());
        let mut bests = [NO_SCORE; LANES];

        // Iterative extension: re-superpose on close pairs until the
        // selected set stabilises.
        for _iter in 0..20 {
            for (l, lane) in lanes.iter_mut().enumerate() {
                if !live[l] {
                    continue;
                }
                let WindowBuffers {
                    selected,
                    prev_selected,
                    xs,
                    ys,
                } = lane;
                let t = ts[l];
                meter.charge(n as u64);
                // One transform application per residue per iteration:
                // the squared distances under `t` feed both the cutoff
                // selection (which may rescan under a growing cutoff)
                // and the scoring pass.
                dist_sq.clear();
                dist_sq.extend(x.iter().zip(y).map(|(&p, &q)| t.apply(p).dist_sq(q)));
                let mut d_cut = d0_search + 1.0;
                loop {
                    let cutsq = d_cut * d_cut;
                    selected.clear();
                    selected.extend((0..n).filter(|&i| dist_sq[i] < cutsq));
                    if selected.len() >= 3 || selected.len() == n {
                        break;
                    }
                    d_cut += 0.5;
                }
                let mut tm = 0.0;
                for &d in dist_sq.iter() {
                    tm += 1.0 / (1.0 + d / d0sq_score);
                }
                let tm = tm / norm_len as f64;
                if tm > bests[l].tm {
                    bests[l] = SearchResult { tm, transform: t };
                }
                if selected == prev_selected {
                    live[l] = false;
                    continue;
                }
                std::mem::swap(prev_selected, selected);
                // Gather the selected subset to re-superpose on.
                xs.clear();
                ys.clear();
                xs.extend(prev_selected.iter().map(|&i| x[i]));
                ys.extend(prev_selected.iter().map(|&i| y[i]));
                live[l] = xs.len() >= 3;
            }
            if !live.contains(&true) {
                break;
            }
            let subsets: [_; LANES] =
                std::array::from_fn(|l| live[l].then_some((&lanes[l].xs[..], &lanes[l].ys[..])));
            ts = optimal_transforms(subsets, std::slice::from_mut(meter));
        }

        for lane_best in bests {
            if lane_best.tm > best.tm {
                best = lane_best;
            }
        }
    }

    best
}

/// The TM-score *program* semantics (as opposed to TM-align): score two
/// conformations of the same protein under the fixed 1:1 residue
/// correspondence, maximised over rigid transforms — the tool used to
/// rank structure predictions against a native structure.
///
/// # Panics
/// Panics if the chains have different lengths (the correspondence is by
/// residue index).
pub fn tm_score_fixed(
    a: &rck_pdb::model::CaChain,
    b: &rck_pdb::model::CaChain,
    meter: &mut WorkMeter,
) -> SearchResult {
    assert_eq!(
        a.len(),
        b.len(),
        "tm_score_fixed requires equal-length chains ({} vs {})",
        a.len(),
        b.len()
    );
    let scale = d0(a.len());
    search(
        &a.coords,
        &b.coords,
        scale,
        scale,
        a.len(),
        SearchDepth::Full,
        meter,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn d0_formula() {
        assert_eq!(d0(10), 0.5);
        assert_eq!(d0(21), 0.5);
        let d = d0(120);
        assert!((d - (1.24 * 105.0f64.cbrt() - 1.8)).abs() < 1e-12);
        assert!(d0(300) > d0(100));
    }

    #[test]
    fn identical_structures_score_one() {
        let x = helixish(50);
        let r = search(&x, &x, d0(50), d0(50), 50, SearchDepth::Full, &mut meter());
        assert!(r.tm > 0.999, "tm = {}", r.tm);
    }

    #[test]
    fn recovers_rigid_transform() {
        let x = helixish(60);
        let rot = Mat3::rotation_about(Vec3::new(1.0, -1.0, 2.0), 2.1);
        let trans = Vec3::new(10.0, -3.0, 4.0);
        let y: Vec<Vec3> = x.iter().map(|&p| rot * p + trans).collect();
        let r = search(&x, &y, d0(60), d0(60), 60, SearchDepth::Full, &mut meter());
        assert!(r.tm > 0.999, "tm = {}", r.tm);
        for &p in &x {
            assert!(r.transform.apply(p).dist(rot * p + trans) < 1e-6);
        }
    }

    #[test]
    fn partial_match_scores_between_zero_and_one() {
        // First half matches rigidly, second half is garbage.
        let x = helixish(40);
        let mut y = x.clone();
        for (i, p) in y.iter_mut().enumerate().skip(20) {
            *p = Vec3::new(
                100.0 + i as f64 * 7.0,
                -50.0 * (i as f64).sin(),
                3.0 * i as f64,
            );
        }
        let r = search(&x, &y, d0(40), d0(40), 40, SearchDepth::Full, &mut meter());
        assert!(r.tm > 0.4 && r.tm < 0.75, "tm = {}", r.tm);
    }

    #[test]
    fn score_normalisation_length_matters() {
        let x = helixish(30);
        let fast = SearchDepth::Fast;
        let r30 = search(&x, &x, d0(30), d0(30), 30, fast, &mut meter());
        let r60 = search(&x, &x, d0(30), d0(30), 60, fast, &mut meter());
        assert!((r30.tm - 2.0 * r60.tm).abs() < 1e-9);
    }

    #[test]
    fn too_few_pairs_returns_zero() {
        let x = helixish(2);
        let r = search(&x, &x, 0.5, 0.5, 2, SearchDepth::Full, &mut meter());
        assert_eq!(r.tm, 0.0);
    }

    #[test]
    fn zero_normalisation_length_returns_zero() {
        // As `tm_score_of_pairs` does: no division by a zero length (it
        // used to answer +inf), no work counted or charged.
        let x = helixish(12);
        let mut m = meter();
        let r = search(&x, &x, 1.0, 1.0, 0, SearchDepth::Fast, &mut m);
        assert_eq!(r.tm, 0.0);
        assert_eq!(r.transform, Transform::IDENTITY);
        assert_eq!(m.ops(), 0);
    }

    #[test]
    fn small_but_valid_input() {
        let x = helixish(5);
        let r = search(&x, &x, d0(5), d0(5), 5, SearchDepth::Full, &mut meter());
        assert!(r.tm > 0.99);
    }

    #[test]
    fn tm_score_of_pairs_basics() {
        let x = helixish(10);
        assert!((tm_score_of_pairs(&x, &x, 1.0, 10) - 1.0).abs() < 1e-12);
        assert_eq!(tm_score_of_pairs(&x, &x, 1.0, 0), 0.0);
        // Displaced by exactly d0 → each term 1/2.
        let y: Vec<Vec3> = x.iter().map(|&p| p + Vec3::new(1.0, 0.0, 0.0)).collect();
        assert!((tm_score_of_pairs(&x, &y, 1.0, 10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fast_depth_close_to_full_on_easy_cases() {
        let x = helixish(80);
        let rot = Mat3::rotation_about(Vec3::new(0.0, 1.0, 0.3), -1.0);
        let y: Vec<Vec3> = x.iter().map(|&p| rot * p).collect();
        let f = search(&x, &y, d0(80), d0(80), 80, SearchDepth::Fast, &mut meter());
        let full = search(&x, &y, d0(80), d0(80), 80, SearchDepth::Full, &mut meter());
        assert!(full.tm >= f.tm - 1e-9);
        assert!(f.tm > 0.99);
    }

    #[test]
    fn tm_score_fixed_on_decoys() {
        use rck_pdb::model::CaChain;
        let native = CaChain::from_coords("native", helixish(60));
        // A good decoy: small perturbation.
        let good = CaChain::from_coords(
            "good",
            native
                .coords
                .iter()
                .enumerate()
                .map(|(k, &p)| p + Vec3::new(0.3 * (k as f64).sin(), 0.2, -0.1))
                .collect(),
        );
        // A bad decoy: unfolded (stretched out).
        let bad = CaChain::from_coords(
            "bad",
            (0..60)
                .map(|k| Vec3::new(k as f64 * 3.8, 0.0, 0.0))
                .collect(),
        );
        let mut m = meter();
        let tg = tm_score_fixed(&native, &good, &mut m).tm;
        let tb = tm_score_fixed(&native, &bad, &mut m).tm;
        assert!(tg > 0.9, "good decoy tm {tg}");
        assert!(tb < 0.5, "bad decoy tm {tb}");
        assert!(tg > tb);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn tm_score_fixed_rejects_length_mismatch() {
        use rck_pdb::model::CaChain;
        let a = CaChain::from_coords("a", helixish(20));
        let b = CaChain::from_coords("b", helixish(21));
        let _ = tm_score_fixed(&a, &b, &mut meter());
    }

    #[test]
    fn meter_charged_more_for_full() {
        let x = helixish(100);
        let mut mf = meter();
        let mut mfull = meter();
        search(&x, &x, d0(100), d0(100), 100, SearchDepth::Fast, &mut mf);
        search(&x, &x, d0(100), d0(100), 100, SearchDepth::Full, &mut mfull);
        assert!(mfull.ops() > mf.ops());
    }
}
