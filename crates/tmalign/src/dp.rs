//! Global dynamic-programming alignment (Needleman–Wunsch).
//!
//! TM-align drives all of its alignment steps through one NW kernel over
//! residue-pair scores with a (linear) gap penalty — the same shape is
//! used for the secondary-structure alignment, the hybrid initial
//! alignment, and every refinement iteration. End gaps are free, matching
//! TM-align's `NWDP_TM`.
//!
//! One engine answers all of them: [`StreamDp`], the scalar f64 oracle
//! every optimization is checked against (DESIGN.md §13.7). Score rows
//! are streamed one stripe at a time from the caller's row source, the
//! values roll through two rows and the traceback is one `u8` per cell,
//! so neither a score matrix nor a value table is materialised.
//! [`needleman_wunsch`] runs it over the rows of a [`ScoreMatrix`].
//! There is no banded or reduced-precision variant (DESIGN.md §13.2
//! records why); the block at the end of this file only keeps the names
//! the frozen `benchmark/` package calls.

use crate::meter::WorkMeter;
use rck_pdb::geometry::Vec3;

/// A pairwise alignment: list of aligned index pairs `(i, j)` into the two
/// sequences, strictly increasing in both components.
pub type Alignment = Vec<(usize, usize)>;

/// A dense `rows × cols` score matrix stored row-major.
#[derive(Debug, Clone)]
pub struct ScoreMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl ScoreMatrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> ScoreMatrix {
        ScoreMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of `(i, j)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> ScoreMatrix {
        let mut m = ScoreMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Number of rows (length of the first sequence).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (length of the second sequence).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Write entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice of `cols()` scores.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

// Traceback codes.
/// Align `i` with `j`.
const DIR_DIAG: u8 = 0;
/// Gap in the second sequence (consume `i`).
const DIR_UP: u8 = 1;
/// Gap in the first sequence (consume `j`).
const DIR_LEFT: u8 = 2;

/// Reusable workspace of the scalar f64 oracle: two rolling value rows,
/// the current row's score stripe and one traceback byte per cell. A
/// refinement loop that keeps one around allocates nothing per round
/// but the alignment it returns.
#[derive(Debug, Default)]
pub struct StreamDp {
    prev: Vec<f64>,
    cur: Vec<f64>,
    stripe: Vec<f64>,
    dirs: Vec<u8>,
}

impl StreamDp {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> StreamDp {
        StreamDp::default()
    }

    /// Global NW alignment of two sequences of lengths `rows` and `cols`,
    /// maximizing `Σ score(i,j) + gap·(#internal gaps)`; `gap` should be
    /// ≤ 0 (TM-align uses −0.6) and end gaps are free. Ties prefer Diag,
    /// then Up, then Left, which keeps the traceback deterministic.
    ///
    /// `fill_row(i, out)` must set `out[j] = score(i, j)` for all `cols`
    /// columns; it is called once per row, in order. Returns the aligned
    /// pairs and the optimal score.
    ///
    /// Every value is produced by the IEEE-754 operations of the
    /// textbook full-table recurrence in the same order, so results are
    /// bit-identical to it (DESIGN.md §13.7 lists what may not be
    /// rewritten).
    pub fn align(
        &mut self,
        rows: usize,
        cols: usize,
        gap: f64,
        mut fill_row: impl FnMut(usize, &mut [f64]),
        meter: &mut WorkMeter,
    ) -> (Alignment, f64) {
        let (n, m) = (rows, cols);
        if n == 0 || m == 0 {
            return (Vec::new(), 0.0);
        }
        crate::stages::stage_counters().dp_rounds.inc();
        meter.charge((n as u64) * (m as u64));

        // Free leading end gaps: DP row 0 and DP column 0 are zero, so
        // entry 0 of both value rows stays zero throughout.
        self.prev.clear();
        self.prev.resize(m + 1, 0.0);
        self.cur.clear();
        self.cur.resize(m + 1, 0.0);
        self.stripe.resize(m, 0.0);
        // Every byte is written before the traceback reads it.
        self.dirs.resize(n * m, DIR_DIAG);

        // Diag vs Up needs only the previous row: no loop-carried
        // dependency, so this half of the selection vectorizes.
        let candidate = |from_diag: f64, score: f64, from_up: f64, up_pen: f64| {
            let sdiag = from_diag + score;
            let sup = from_up + up_pen;
            if sdiag >= sup {
                (sdiag, DIR_DIAG)
            } else {
                (sup, DIR_UP)
            }
        };

        for i in 1..=n {
            let dirs = &mut self.dirs[(i - 1) * m..i * m];
            fill_row(i - 1, &mut self.stripe);
            // The stripe turns from scores into candidates in place. Gap
            // penalties are free along the last row/column (end gaps).
            let (body, last) = self.stripe.split_at_mut(m - 1);
            for (((c, d), &from_diag), &from_up) in body
                .iter_mut()
                .zip(dirs.iter_mut())
                .zip(&self.prev[..m - 1])
                .zip(&self.prev[1..m])
            {
                (*c, *d) = candidate(from_diag, *c, from_up, gap);
            }
            (last[0], dirs[m - 1]) = candidate(self.prev[m - 1], last[0], self.prev[m], 0.0);

            // The dependent sweep. If Diag won above but loses to Left,
            // then Up ≤ Diag < Left, so the full-table rule (Diag ≥ Up ≥
            // Left) also answers Left.
            let left_pen = if i == n { 0.0 } else { gap };
            let mut left = 0.0f64;
            for ((v, &c), d) in self.cur[1..]
                .iter_mut()
                .zip(self.stripe.iter())
                .zip(dirs.iter_mut())
            {
                let sleft = left + left_pen;
                if c >= sleft {
                    left = c;
                } else {
                    left = sleft;
                    *d = DIR_LEFT;
                }
                *v = left;
            }
            std::mem::swap(&mut self.prev, &mut self.cur);
        }

        let total = self.prev[m];
        let mut pairs = Vec::with_capacity(n.min(m));
        let (mut i, mut j) = (n, m);
        // Whatever remains once an index reaches 0 is a free end gap.
        while i > 0 && j > 0 {
            match self.dirs[(i - 1) * m + (j - 1)] {
                DIR_DIAG => {
                    pairs.push((i - 1, j - 1));
                    i -= 1;
                    j -= 1;
                }
                DIR_UP => i -= 1,
                _ => j -= 1,
            }
        }
        pairs.reverse();
        (pairs, total)
    }
}

/// Global NW alignment of two sequences of lengths `score.rows()` and
/// `score.cols()`, maximizing `Σ score(i,j) + gap_penalty·(#internal gaps)`:
/// [`StreamDp::align`] over the rows of a prebuilt matrix.
///
/// `gap_penalty` should be ≤ 0 (TM-align uses −0.6). End gaps are free.
/// Returns the aligned pairs and the optimal score.
pub fn needleman_wunsch(
    score: &ScoreMatrix,
    gap_penalty: f64,
    meter: &mut WorkMeter,
) -> (Alignment, f64) {
    StreamDp::new().align(
        score.rows(),
        score.cols(),
        gap_penalty,
        |i, out| out.copy_from_slice(score.row(i)),
        meter,
    )
}

/// f64 structure-of-arrays copy of the target chain — the layout the
/// oracle's distance rows stream over, one contiguous lane per axis, so
/// the fill loop over `j` vectorizes. Loaded once per pair.
#[derive(Debug, Default)]
pub(crate) struct TargetLanes {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl TargetLanes {
    /// Number of points loaded.
    pub(crate) fn len(&self) -> usize {
        self.xs.len()
    }

    /// Replace the contents with `pts`.
    pub(crate) fn load(&mut self, pts: &[Vec3]) {
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.xs.extend(pts.iter().map(|p| p.x));
        self.ys.extend(pts.iter().map(|p| p.y));
        self.zs.extend(pts.iter().map(|p| p.z));
    }

    /// TM-align's distance score of `p` against every target point:
    /// `out[j] = 1 / (1 + |p − target[j]|² / d0²)`, each term evaluated
    /// exactly as `Vec3::dist_sq` and the two divisions evaluate it.
    pub(crate) fn dist_row(&self, p: Vec3, d0sq: f64, out: &mut [f64]) {
        for (((o, &tx), &ty), &tz) in out.iter_mut().zip(&self.xs).zip(&self.ys).zip(&self.zs) {
            let dx = p.x - tx;
            let dy = p.y - ty;
            let dz = p.z - tz;
            *o = 1.0 / (1.0 + (dx * dx + dy * dy + dz * dz) / d0sq);
        }
    }
}

/// Check the structural invariant of an [`Alignment`]: pairs strictly
/// increasing in both components and in range.
pub fn is_valid_alignment(align: &Alignment, n: usize, m: usize) -> bool {
    let mut last: Option<(usize, usize)> = None;
    for &(i, j) in align {
        if i >= n || j >= m {
            return false;
        }
        if let Some((pi, pj)) = last {
            if i <= pi || j <= pj {
                return false;
            }
        }
        last = Some((i, j));
    }
    true
}

/// Exhaustive optimal global alignment score for *small* inputs — a test
/// oracle for [`needleman_wunsch`] (used by this crate's unit tests and
/// the workspace's property tests). Complexity is exponential; keep
/// inputs below ~8×8.
pub fn brute_force_best_score(score: &ScoreMatrix, gap_penalty: f64) -> f64 {
    // End gaps free: only *internal* gaps are charged. Recursively choose,
    // for each cell, whether to match or skip, tracking whether we are at
    // the sequence edges.
    fn go(s: &ScoreMatrix, gap: f64, i: usize, j: usize) -> f64 {
        let n = s.rows();
        let m = s.cols();
        if i == n || j == m {
            return 0.0; // trailing end gaps free
        }
        let matched = s.get(i, j) + go(s, gap, i + 1, j + 1);
        let skip_i = go(s, gap, i + 1, j) + if j == 0 || j == m { 0.0 } else { gap };
        let skip_j = go(s, gap, i, j + 1) + if i == 0 || i == n { 0.0 } else { gap };
        matched.max(skip_i).max(skip_j)
    }
    go(score, gap_penalty, 0, 0)
}

// --- Pinned entries ---------------------------------------------------------
// Called only by the frozen `tmalign.nw_us_fast` / `tmalign.fast_*` probes
// under `benchmark/`; delete when `benchmark/` is next re-cut. f32-narrowed
// distance rows through the one engine above, no second DP body (DESIGN §13.2).

/// Pinned entry: a chain's coordinates rounded to f32 precision.
#[derive(Debug, Default, Clone)]
pub struct SoaPoints(Vec<Vec3>);

impl SoaPoints {
    /// An empty, reusable buffer.
    pub fn new() -> SoaPoints {
        SoaPoints::default()
    }

    /// Replace the contents with `pts`, each coordinate rounded to f32.
    pub fn load(&mut self, pts: &[Vec3]) {
        let narrow = |p: &Vec3| Vec3::new(p.x as f32 as f64, p.y as f32 as f64, p.z as f32 as f64);
        self.0.clear();
        self.0.extend(pts.iter().map(narrow));
    }
}

/// Pinned entry: the distance score `1 / (1 + d²(i,j) / d0²)`.
#[derive(Debug)]
pub struct DistScorer<'a> {
    /// Mobile chain, already transformed into the target frame.
    pub mobile: &'a SoaPoints,
    /// Target chain.
    pub target: &'a SoaPoints,
    /// `1 / d0²` (Å⁻²).
    pub inv_d0sq: f32,
}

/// Pinned entry: [`StreamDp`] over a [`DistScorer`]'s rows.
#[derive(Debug, Default)]
pub struct FastDp(StreamDp, TargetLanes);

impl FastDp {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> FastDp {
        FastDp::default()
    }

    /// [`StreamDp::align`] over `scorer`'s rows; `_guide` is ignored (the
    /// engine has no band to lay around it).
    pub fn align(
        &mut self,
        scorer: &mut DistScorer,
        gap: f64,
        _guide: Option<&Alignment>,
        meter: &mut WorkMeter,
    ) -> (Alignment, f64) {
        let (mobile, d0sq) = (&scorer.mobile.0, 1.0 / f64::from(scorer.inv_d0sq));
        self.1.load(&scorer.target.0);
        let lanes = &self.1;
        let fill = |i: usize, out: &mut [f64]| lanes.dist_row(mobile[i], d0sq, out);
        self.0.align(mobile.len(), lanes.len(), gap, fill, meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> WorkMeter {
        WorkMeter::new()
    }

    #[test]
    fn empty_inputs() {
        let m = ScoreMatrix::zeros(0, 5);
        let (a, s) = needleman_wunsch(&m, -0.6, &mut meter());
        assert!(a.is_empty());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn identity_diagonal() {
        // Strong diagonal → full-length ungapped alignment.
        let m = ScoreMatrix::from_fn(5, 5, |i, j| if i == j { 1.0 } else { 0.0 });
        let (a, s) = needleman_wunsch(&m, -0.6, &mut meter());
        assert_eq!(a, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert!((s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_diagonal_uses_end_gaps() {
        // Best pairs are (i, i+2): needs two leading end-gaps in x.
        let m = ScoreMatrix::from_fn(6, 6, |i, j| if j == i + 2 { 1.0 } else { 0.0 });
        let (a, s) = needleman_wunsch(&m, -0.6, &mut meter());
        assert_eq!(a, vec![(0, 2), (1, 3), (2, 4), (3, 5)]);
        assert!((s - 4.0).abs() < 1e-12, "score {s}");
    }

    #[test]
    fn internal_gap_is_charged() {
        // Matches at (0,0) and (1,2): one internal gap in y.
        let mut m = ScoreMatrix::zeros(2, 3);
        m.set(0, 0, 1.0);
        m.set(1, 2, 1.0);
        let (a, s) = needleman_wunsch(&m, -0.6, &mut meter());
        assert_eq!(a, vec![(0, 0), (1, 2)]);
        assert!((s - (2.0 - 0.6)).abs() < 1e-12, "score {s}");
    }

    #[test]
    fn prohibitive_gap_prefers_fewer_matches() {
        let mut m = ScoreMatrix::zeros(2, 3);
        m.set(0, 0, 1.0);
        m.set(1, 2, 0.1);
        // Internal gap costs more than the second match is worth.
        let (a, s) = needleman_wunsch(&m, -0.5, &mut meter());
        // Either skip the weak match or pay the gap; skipping wins.
        assert!(s >= 1.0);
        assert!(is_valid_alignment(&a, 2, 3));
    }

    #[test]
    fn alignment_always_valid() {
        let m = ScoreMatrix::from_fn(7, 4, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
        let (a, _) = needleman_wunsch(&m, -0.6, &mut meter());
        assert!(is_valid_alignment(&a, 7, 4));
    }

    #[test]
    fn matches_brute_force_on_small_matrices() {
        // A handful of deterministic pseudo-random matrices.
        for seed in 0..12u64 {
            let rows = 2 + (seed % 4) as usize;
            let cols = 2 + ((seed / 4) % 4) as usize;
            let m = ScoreMatrix::from_fn(rows, cols, |i, j| {
                let h = (seed + 1)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i * 97 + j * 131) as u64);
                ((h >> 33) % 1000) as f64 / 500.0 - 1.0
            });
            let (_, nw) = needleman_wunsch(&m, -0.6, &mut meter());
            let brute = brute_force_best_score(&m, -0.6);
            assert!(
                (nw - brute).abs() < 1e-9,
                "seed {seed}: nw {nw} vs brute {brute}"
            );
        }
    }

    #[test]
    fn is_valid_alignment_rejects_bad() {
        assert!(is_valid_alignment(&vec![(0, 0), (1, 1)], 2, 2));
        assert!(!is_valid_alignment(&vec![(0, 0), (0, 1)], 2, 2)); // i repeats
        assert!(!is_valid_alignment(&vec![(1, 1), (0, 0)], 2, 2)); // decreasing
        assert!(!is_valid_alignment(&vec![(0, 5)], 2, 2)); // out of range
    }

    #[test]
    fn meter_charged_proportionally() {
        let mut m1 = meter();
        let mut m2 = meter();
        let a = ScoreMatrix::zeros(10, 10);
        let b = ScoreMatrix::zeros(20, 20);
        needleman_wunsch(&a, -0.6, &mut m1);
        needleman_wunsch(&b, -0.6, &mut m2);
        assert_eq!(m1.ops(), 100);
        assert_eq!(m2.ops(), 400);
    }

    #[test]
    fn pinned_entry_is_the_one_engine_over_narrowed_rows() {
        // `FastDp::align` must return exactly what `StreamDp` returns
        // over the same f32-narrowed coordinates and d0.
        let wave = |k: usize, step: f64| Vec3::new(step * k as f64, (step * k as f64).sin(), 0.1);
        let x: Vec<Vec3> = (0..23).map(|i| wave(i, 1.1)).collect();
        let y: Vec<Vec3> = (0..31).map(|j| wave(j + 2, 0.9)).collect();
        let inv_d0sq = (1.0 / 2.25f64) as f32;
        let (mut mobile, mut target) = (SoaPoints::new(), SoaPoints::new());
        mobile.load(&x);
        target.load(&y);
        let mut scorer = DistScorer {
            mobile: &mobile,
            target: &target,
            inv_d0sq,
        };
        let guide = vec![(0, 30)];
        let got = FastDp::new().align(&mut scorer, -0.6, Some(&guide), &mut meter());

        let narrow = |p: &Vec3| Vec3::new(p.x as f32 as f64, p.y as f32 as f64, p.z as f32 as f64);
        let xn: Vec<Vec3> = x.iter().map(narrow).collect();
        let yn: Vec<Vec3> = y.iter().map(narrow).collect();
        let d0sq = 1.0 / f64::from(inv_d0sq);
        let m = ScoreMatrix::from_fn(23, 31, |i, j| 1.0 / (1.0 + xn[i].dist_sq(yn[j]) / d0sq));
        let want = needleman_wunsch(&m, -0.6, &mut meter());
        assert_eq!(got.0, want.0);
        assert_eq!(got.1.to_bits(), want.1.to_bits());
        assert!(got.0.len() > 10, "degenerate alignment: {:?}", got.0);
    }
}
