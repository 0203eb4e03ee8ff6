//! Property-based tests for the TM-align kernels.

mod common;

use proptest::prelude::*;
use rck_pdb::geometry::{Mat3, Transform, Vec3};
use rck_pdb::model::CaChain;
use rck_tmalign::dp::{
    brute_force_best_score, is_valid_alignment, needleman_wunsch, Alignment, ScoreMatrix, StreamDp,
};
use rck_tmalign::initial::{gapless_threading, hybrid_alignment, ss_alignment};
use rck_tmalign::kabsch::{optimal_transform, raw_rmsd, superpose};
use rck_tmalign::secstruct;
use rck_tmalign::tmscore::{d0, search, tm_score_of_pairs, SearchDepth, SearchResult};
use rck_tmalign::{tm_align, Normalization, TmAlignParams, TmAlignResult, WorkMeter};

fn arb_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        min..max,
    )
}

/// The textbook Needleman–Wunsch the streaming engine replaced, kept as
/// the reference it must match bit for bit: a full `(n+1)×(m+1)` value
/// table and step table, one three-way branch per cell (Diag ≥ Up ≥
/// Left), free end gaps.
fn full_table_nw(score: &ScoreMatrix, gap: f64) -> (Alignment, f64) {
    #[derive(Clone, Copy)]
    enum Step {
        Diag,
        Up,
        Left,
    }
    let (n, m) = (score.rows(), score.cols());
    let cols = m + 1;
    let mut val = vec![0.0f64; (n + 1) * cols];
    let mut dir = vec![Step::Diag; (n + 1) * cols];
    for i in 1..=n {
        for j in 1..=m {
            let sdiag = val[(i - 1) * cols + (j - 1)] + score.get(i - 1, j - 1);
            let up_pen = if j == m { 0.0 } else { gap };
            let left_pen = if i == n { 0.0 } else { gap };
            let sup = val[(i - 1) * cols + j] + up_pen;
            let sleft = val[i * cols + (j - 1)] + left_pen;
            let (best, step) = if sdiag >= sup && sdiag >= sleft {
                (sdiag, Step::Diag)
            } else if sup >= sleft {
                (sup, Step::Up)
            } else {
                (sleft, Step::Left)
            };
            val[i * cols + j] = best;
            dir[i * cols + j] = step;
        }
    }
    let mut pairs = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        match dir[i * cols + j] {
            Step::Diag => {
                pairs.push((i - 1, j - 1));
                i -= 1;
                j -= 1;
            }
            Step::Up => i -= 1,
            Step::Left => j -= 1,
        }
    }
    pairs.reverse();
    (pairs, val[n * cols + m])
}

/// The rotation search as one window-by-window loop of lone Kabsch
/// solves — what `tmscore::search` was before it advanced its seed
/// windows in lock-step — kept as the reference it must match bit for
/// bit, `ops` included.
fn sequential_search(
    x: &[Vec3],
    y: &[Vec3],
    d0_search: f64,
    d0_score: f64,
    norm_len: usize,
    depth: SearchDepth,
    meter: &mut WorkMeter,
) -> SearchResult {
    let n = x.len();
    let mut best = SearchResult {
        tm: -1.0,
        transform: Transform::IDENTITY,
    };
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
    let mut prev_selected: Vec<usize> = Vec::new();
    for &l_ini in seed_lens {
        let step = (l_ini / 2).max(4);
        let mut start = 0;
        loop {
            let end = start + l_ini;
            if end > n {
                break;
            }
            let mut t = optimal_transform(&x[start..end], &y[start..end], meter);
            prev_selected.clear();
            for _iter in 0..20 {
                meter.charge(n as u64);
                let dist_sq: Vec<f64> = x
                    .iter()
                    .zip(y)
                    .map(|(&p, &q)| t.apply(p).dist_sq(q))
                    .collect();
                let mut d_cut = d0_search + 1.0;
                let selected: Vec<usize> = loop {
                    let cutsq = d_cut * d_cut;
                    let selected: Vec<usize> = (0..n).filter(|&i| dist_sq[i] < cutsq).collect();
                    if selected.len() >= 3 || selected.len() == n {
                        break selected;
                    }
                    d_cut += 0.5;
                };
                let mut tm = 0.0;
                for &d in &dist_sq {
                    tm += 1.0 / (1.0 + d / (d0_score * d0_score));
                }
                let tm = tm / norm_len as f64;
                if tm > best.tm {
                    best = SearchResult { tm, transform: t };
                }
                if selected == prev_selected {
                    break;
                }
                prev_selected = selected;
                let xs: Vec<Vec3> = prev_selected.iter().map(|&i| x[i]).collect();
                let ys: Vec<Vec3> = prev_selected.iter().map(|&i| y[i]).collect();
                if xs.len() < 3 {
                    break;
                }
                t = optimal_transform(&xs, &ys, meter);
            }
            if start + l_ini == n {
                break;
            }
            start += step;
            if start + l_ini > n {
                start = n - l_ini;
            }
        }
    }
    best
}

/// TM-align composed in a straight line from the public one-shots, no
/// workspace and nothing remembered from one refinement round to the
/// next: every rotation search and every re-alignment DP (a materialised
/// score matrix through `needleman_wunsch`) is run each time a ladder
/// asks for it. The reference `tm_align`'s interned rounds must match on
/// every field, `ops` included.
fn straight_line_tm_align(a: &CaChain, b: &CaChain) -> TmAlignResult {
    let params = TmAlignParams::default();
    let mut meter = WorkMeter::new();
    let (x, y) = (&a.coords, &b.coords);
    let (norm_len, d0_opt) = Normalization::Shorter.resolve(a.len(), b.len());
    let ss_a = secstruct::assign(x, &mut meter);
    let ss_b = secstruct::assign(y, &mut meter);
    let gather = |alignment: &Alignment| -> (Vec<Vec3>, Vec<Vec3>) {
        alignment.iter().map(|&(i, j)| (x[i], y[j])).unzip()
    };

    let gapless = gapless_threading(x, y, d0_opt, norm_len, &mut meter);
    let seed = gapless.transform.unwrap_or(Transform::IDENTITY);
    let ss = ss_alignment(&ss_a, &ss_b, &mut meter);
    let hybrid = hybrid_alignment(x, y, &ss_a, &ss_b, &seed, d0_opt, &mut meter);

    let d0sq = d0_opt * d0_opt;
    let mut best_tm = -1.0;
    let mut best_alignment = Alignment::new();
    for initial in [gapless.alignment, ss.alignment, hybrid.alignment] {
        if initial.len() < 3 {
            continue;
        }
        // One initial's two gap ladders share a running best.
        let mut ladder_tm = -1.0;
        let mut ladder_alignment = initial.clone();
        for gap in params.gap_penalties {
            let mut current = initial.clone();
            for _iter in 0..params.max_iterations {
                if current.len() < 3 {
                    break;
                }
                let (xa, ya) = gather(&current);
                let fast = SearchDepth::Fast;
                let sr = search(&xa, &ya, d0_opt, d0_opt, norm_len, fast, &mut meter);
                if sr.tm > ladder_tm {
                    ladder_tm = sr.tm;
                    ladder_alignment.clone_from(&current);
                }
                let moved: Vec<Vec3> = x.iter().map(|&p| sr.transform.apply(p)).collect();
                meter.charge((x.len() * y.len()) as u64);
                let scores = ScoreMatrix::from_fn(x.len(), y.len(), |i, j| {
                    1.0 / (1.0 + moved[i].dist_sq(y[j]) / d0sq)
                });
                let (next, _) = needleman_wunsch(&scores, gap, &mut meter);
                if next == current {
                    break;
                }
                current = next;
            }
        }
        if ladder_tm > best_tm {
            best_tm = ladder_tm;
            best_alignment = ladder_alignment;
        }
    }
    assert!(best_alignment.len() >= 3, "corpus pairs never degenerate");

    let (xa, ya) = gather(&best_alignment);
    let mut final_score = |len: usize| {
        let full = SearchDepth::Full;
        search(&xa, &ya, d0(len), d0(len), len, full, &mut meter)
    };
    let fin_a = final_score(a.len());
    let fin_b = final_score(b.len());
    let headline = if a.len() <= b.len() { fin_a } else { fin_b };
    let rmsd = superpose(&xa, &ya, &mut meter).rmsd;
    let matches = best_alignment
        .iter()
        .filter(|&&(i, j)| a.seq[i] != rck_pdb::AminoAcid::Unknown && a.seq[i] == b.seq[j])
        .count();
    TmAlignResult {
        name_a: a.name.clone(),
        name_b: b.name.clone(),
        len_a: a.len(),
        len_b: b.len(),
        tm_norm_a: fin_a.tm,
        tm_norm_b: fin_b.tm,
        aligned_len: best_alignment.len(),
        rmsd,
        seq_identity: matches as f64 / best_alignment.len() as f64,
        alignment: best_alignment,
        transform: headline.transform,
        ops: meter.ops(),
    }
}

/// The words of a transform, for bitwise comparison.
fn transform_bits(t: &Transform) -> Vec<u64> {
    let trans = [t.trans.x, t.trans.y, t.trans.z];
    let words = t.rot.r.iter().flatten().chain(&trans);
    words.map(|f| f.to_bits()).collect()
}

/// `tm_align` remembers the refinement rounds a pair has been through;
/// the straight-line pipeline above recomputes each one. Same answer,
/// same `ops`, on every pair of the golden corpus.
#[test]
fn interned_rounds_match_the_straight_line_pipeline() {
    let (chains, mut pairs) = common::corpus();
    assert_eq!(pairs.len(), 43);
    // A chain against itself: all six ladders walk the same alignments,
    // the case with the most to remember (its `ops` is pinned in
    // `align::tests::a_self_alignment_computes_each_round_once`).
    pairs.push((0, 0));
    assert_eq!(straight_line_tm_align(&chains[0], &chains[0]).ops, 27_068);
    for (i, j) in pairs {
        let (a, b) = (&chains[i], &chains[j]);
        let got = tm_align(a, b);
        let want = straight_line_tm_align(a, b);
        let pair = format!("{} vs {}", a.name, b.name);
        assert_eq!(got.alignment, want.alignment, "{pair}");
        assert_eq!(got.aligned_len, want.aligned_len, "{pair}");
        assert_eq!(got.ops, want.ops, "{pair}");
        for (g, w) in [
            (got.tm_norm_a, want.tm_norm_a),
            (got.tm_norm_b, want.tm_norm_b),
            (got.rmsd, want.rmsd),
            (got.seq_identity, want.seq_identity),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{pair}");
        }
        assert_eq!(
            transform_bits(&got.transform),
            transform_bits(&want.transform),
            "{pair}"
        );
    }
}

/// The gap penalties TM-align runs the DP under (SS/hybrid initials,
/// first and second refinement pass).
const GAPS: [f64; 3] = [-1.0, -0.6, 0.0];

/// The streaming engine — through its matrix entry and through an
/// on-the-fly row source — must return the reference's alignment and
/// the reference's score bits.
fn assert_matches_full_table(
    rows: usize,
    cols: usize,
    gap: f64,
    score: impl Fn(usize, usize) -> f64,
) -> Result<(), TestCaseError> {
    let m = ScoreMatrix::from_fn(rows, cols, &score);
    let (want, want_score) = full_table_nw(&m, gap);
    let (got, got_score) = needleman_wunsch(&m, gap, &mut WorkMeter::new());
    prop_assert_eq!(&got, &want, "matrix entry: alignments diverge");
    prop_assert_eq!(got_score.to_bits(), want_score.to_bits());
    let (streamed, streamed_score) = StreamDp::new().align(
        rows,
        cols,
        gap,
        |i, out| {
            for (j, o) in out.iter_mut().enumerate() {
                *o = score(i, j);
            }
        },
        &mut WorkMeter::new(),
    );
    prop_assert_eq!(&streamed, &want, "row source: alignments diverge");
    prop_assert_eq!(streamed_score.to_bits(), want_score.to_bits());
    Ok(())
}

proptest! {
    /// Streaming engine ≡ full-table reference on random matrices.
    #[test]
    fn streaming_dp_matches_full_table_bitwise(
        rows in 1usize..40,
        cols in 1usize..40,
        cells in prop::collection::vec(-2.0f64..2.0, 1600),
        gap in 0usize..3,
    ) {
        assert_matches_full_table(rows, cols, GAPS[gap], |i, j| cells[i * 40 + j])?;
    }

    /// … and on tie-saturated 0/1 matrices — the secondary-structure
    /// match case, where nearly every cell ties and the Diag ≥ Up ≥ Left
    /// order decides the alignment.
    #[test]
    fn streaming_dp_breaks_ties_like_the_full_table(
        rows in 1usize..40,
        cols in 1usize..40,
        cells in prop::collection::vec(0u8..2, 1600),
        gap in 0usize..3,
    ) {
        assert_matches_full_table(rows, cols, GAPS[gap], |i, j| f64::from(cells[i * 40 + j]))?;
    }

    /// A reused engine carries nothing over: driven through a large
    /// matrix then a small one (and the reverse), it returns what a
    /// fresh engine returns.
    #[test]
    fn streaming_dp_reuse_is_stateless(
        big in 20usize..40,
        small in 1usize..10,
        cells in prop::collection::vec(-2.0f64..2.0, 1600),
        gap in 0usize..3,
    ) {
        let gap = GAPS[gap];
        let fill = |i: usize, out: &mut [f64]| {
            for (j, o) in out.iter_mut().enumerate() {
                *o = cells[i * 40 + j];
            }
        };
        let fresh = |rows, cols| StreamDp::new().align(rows, cols, gap, fill, &mut WorkMeter::new());
        let mut reused = StreamDp::new();
        for (rows, cols) in [(big, big), (small, big), (small, small), (big, small), (big, big)] {
            let (a, s) = reused.align(rows, cols, gap, fill, &mut WorkMeter::new());
            let (fa, fs) = fresh(rows, cols);
            prop_assert_eq!(&a, &fa, "{}x{}", rows, cols);
            prop_assert_eq!(s.to_bits(), fs.to_bits());
        }
    }

    /// The transform-only Kabsch entry is `superpose` without the
    /// residual: same transform bits, same work charged.
    #[test]
    fn optimal_transform_is_superpose_without_the_residual(
        a in arb_points(1, 40),
        b in arb_points(40, 41),
    ) {
        let b = &b[..a.len()];
        let (mut m1, mut m2) = (WorkMeter::new(), WorkMeter::new());
        let full = superpose(&a, b, &mut m1);
        let t = optimal_transform(&a, b, &mut m2);
        prop_assert_eq!(transform_bits(&t), transform_bits(&full.transform));
        prop_assert_eq!(m1.ops(), m2.ops());
    }

    /// The lock-step rotation search ≡ the sequential window loop: score
    /// bits, all twelve transform words and the work charged, at both
    /// depths, from the 3-pair fallback window up through lengths whose
    /// last window group is partial. Two thirds of `y` is a noisy rigid
    /// copy of `x`, so windows converge at different iterations.
    #[test]
    fn lockstep_search_matches_the_sequential_loop_bitwise(
        x in arb_points(3, 61),
        noise in arb_points(61, 62),
    ) {
        let n = x.len();
        let rot = Mat3::rotation_about(Vec3::new(0.4, -1.0, 0.7), 1.3);
        let y: Vec<Vec3> = x
            .iter()
            .zip(&noise)
            .enumerate()
            .map(|(k, (&p, &e))| if k % 3 == 2 { e } else { rot * p + e * 0.02 })
            .collect();
        let d = d0(n.max(22));
        for depth in [SearchDepth::Fast, SearchDepth::Full] {
            let (mut m1, mut m2) = (WorkMeter::new(), WorkMeter::new());
            let got = search(&x, &y, d, d, n, depth, &mut m1);
            let want = sequential_search(&x, &y, d, d, n, depth, &mut m2);
            prop_assert_eq!(got.tm.to_bits(), want.tm.to_bits());
            prop_assert_eq!(transform_bits(&got.transform), transform_bits(&want.transform));
            prop_assert_eq!(m1.ops(), m2.ops());
        }
    }

    /// NW with free end gaps matches the exhaustive optimum on small
    /// random matrices, and its alignment is always structurally valid.
    #[test]
    fn nw_matches_brute_force(
        rows in 1usize..6,
        cols in 1usize..6,
        cells in prop::collection::vec(-2.0f64..2.0, 36),
        gap in -1.5f64..0.0,
    ) {
        let m = ScoreMatrix::from_fn(rows, cols, |i, j| cells[i * 6 + j]);
        let (alignment, score) = needleman_wunsch(&m, gap, &mut WorkMeter::new());
        prop_assert!(is_valid_alignment(&alignment, rows, cols));
        let brute = brute_force_best_score(&m, gap);
        prop_assert!((score - brute).abs() < 1e-9, "nw {score} vs brute {brute}");
    }

    /// The DP score equals the sum of matched cells plus gap charges of
    /// the reported alignment (self-consistency).
    #[test]
    fn nw_score_is_consistent_with_alignment(
        rows in 2usize..8,
        cols in 2usize..8,
        cells in prop::collection::vec(-1.0f64..1.0, 64),
    ) {
        let gap = -0.6;
        let m = ScoreMatrix::from_fn(rows, cols, |i, j| cells[i * 8 + j]);
        let (alignment, score) = needleman_wunsch(&m, gap, &mut WorkMeter::new());
        let matched: f64 = alignment.iter().map(|&(i, j)| m.get(i, j)).sum();
        // Gap charges of the optimal path through these pairs: between
        // matched pairs every skipped residue costs `gap`; before the
        // first pair and after the last one, one side rides the free edge
        // so only min(di, dj) residues are charged.
        let mut gaps = 0usize;
        if let (Some(&(i0, j0)), Some(&(il, jl))) = (alignment.first(), alignment.last()) {
            gaps += i0.min(j0);
            gaps += (rows - 1 - il).min(cols - 1 - jl);
        }
        for w in alignment.windows(2) {
            let (i0, j0) = w[0];
            let (i1, j1) = w[1];
            gaps += (i1 - i0 - 1) + (j1 - j0 - 1);
        }
        let expect = matched + gaps as f64 * gap;
        prop_assert!((score - expect).abs() < 1e-9, "{score} vs {expect}");
    }

    /// Kabsch RMSD is never worse than the raw (unsuperposed) RMSD, is
    /// symmetric, and the transform is a proper rotation.
    #[test]
    fn kabsch_is_optimal_and_symmetric(a in arb_points(3, 40), shift in -20.0f64..20.0) {
        let b: Vec<Vec3> = a
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                Mat3::rotation_about(Vec3::new(1.0, 0.3, -0.2), 0.9) * p
                    + Vec3::new(shift, -shift, 2.0)
                    + Vec3::new((k as f64 * 0.7).sin(), 0.0, 0.0)
            })
            .collect();
        let mut meter = WorkMeter::new();
        let sab = superpose(&a, &b, &mut meter);
        let sba = superpose(&b, &a, &mut meter);
        prop_assert!(sab.transform.rot.is_rotation(1e-7));
        prop_assert!(sab.rmsd <= raw_rmsd(&a, &b) + 1e-9);
        prop_assert!((sab.rmsd - sba.rmsd).abs() < 1e-7);
    }

    /// TM-scores are always in [0, 1] for matching normalisation length,
    /// and improve monotonically with a larger d0.
    #[test]
    fn tm_scores_bounded_and_monotone_in_d0(a in arb_points(4, 40)) {
        let n = a.len();
        let b: Vec<Vec3> = a.iter().map(|&p| p + Vec3::new(1.5, -0.5, 0.2)).collect();
        let t1 = tm_score_of_pairs(&a, &b, 1.0, n);
        let t2 = tm_score_of_pairs(&a, &b, 4.0, n);
        prop_assert!((0.0..=1.0).contains(&t1));
        prop_assert!((0.0..=1.0).contains(&t2));
        prop_assert!(t2 >= t1);
    }

    /// The rotation search never returns a score worse than the
    /// whole-set Kabsch superposition's score (that superposition is one
    /// of its seeds).
    #[test]
    fn search_at_least_as_good_as_global_kabsch(a in arb_points(4, 40)) {
        let n = a.len();
        let b: Vec<Vec3> = a
            .iter()
            .enumerate()
            .map(|(k, &p)| p + Vec3::new((k as f64).sin() * 2.0, 0.5, -0.3))
            .collect();
        let d = d0(n.max(22));
        let mut meter = WorkMeter::new();
        let sp = superpose(&a, &b, &mut meter);
        let moved: Vec<Vec3> = a.iter().map(|&p| sp.transform.apply(p)).collect();
        let kabsch_tm = tm_score_of_pairs(&moved, &b, d, n);
        let found = search(&a, &b, d, d, n, SearchDepth::Full, &mut meter);
        prop_assert!(found.tm >= kabsch_tm - 1e-9, "{} < {}", found.tm, kabsch_tm);
    }

    /// Secondary-structure assignment is length-preserving, deterministic
    /// and local: changing a residue far from a window cannot affect it.
    #[test]
    fn secstruct_is_local(a in arb_points(12, 50), bump in 0.5f64..5.0) {
        let mut meter = WorkMeter::new();
        let ss1 = secstruct::assign(&a, &mut meter);
        prop_assert_eq!(ss1.len(), a.len());
        // Perturb the last residue: only the last 3+2 window positions may
        // change.
        let mut b = a.clone();
        let last = b.len() - 1;
        b[last] += Vec3::new(bump, bump, 0.0);
        let ss2 = secstruct::assign(&b, &mut meter);
        for k in 0..a.len().saturating_sub(3) {
            prop_assert_eq!(ss1[k], ss2[k], "window {} changed", k);
        }
    }

    /// d0 is monotone in chain length and ≥ 0.5.
    #[test]
    fn d0_monotone(l1 in 1usize..500, l2 in 1usize..500) {
        let (lo, hi) = if l1 < l2 { (l1, l2) } else { (l2, l1) };
        prop_assert!(d0(lo) <= d0(hi) + 1e-12);
        prop_assert!(d0(lo) >= 0.5);
    }

    /// The prefilter's length-ratio bound is a true upper bound on the
    /// TM-score under the longer-chain normalisation, for *any* geometry
    /// — so a `Reject` can never discard a pair whose real score clears
    /// the threshold.
    #[test]
    fn prune_length_bound_is_sound(a in arb_points(5, 30), b in arb_points(30, 55)) {
        use rck_tmalign::prefilter::tm_upper_bound;
        use rck_tmalign::tm_align_with;
        let ca = CaChain::from_coords("a", a);
        let cb = CaChain::from_coords("b", b);
        let norm = ca.len().max(cb.len());
        let bound = tm_upper_bound(ca.len(), cb.len(), norm);
        let params = TmAlignParams {
            normalization: Normalization::Longer,
            ..TmAlignParams::default()
        };
        let r = tm_align_with(&ca, &cb, &params);
        prop_assert!(
            r.tm_min_norm() <= bound + 1e-9,
            "tm {} exceeds bound {}", r.tm_min_norm(), bound
        );
    }
}
