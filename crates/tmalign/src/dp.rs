//! Global dynamic-programming alignment (Needleman–Wunsch).
//!
//! TM-align drives all of its alignment steps through one NW kernel over
//! residue-pair scores with a (linear) gap penalty — the same shape is
//! used for the secondary-structure alignment, the hybrid initial
//! alignment, and every refinement iteration. End gaps are free, matching
//! TM-align's `NWDP_TM`.
//!
//! Two engines share those semantics:
//!
//! * [`StreamDp`] — the scalar f64 **oracle**, the reference every
//!   optimization is checked against (DESIGN.md §13.7): score rows are
//!   streamed one stripe at a time from the caller's row source, the
//!   values roll through two rows and the traceback is one `u8` per
//!   cell, so neither a score matrix nor a value table is materialised.
//!   [`needleman_wunsch`] runs it over the rows of a [`ScoreMatrix`];
//! * [`FastDp`] — the **fast path**: a banded DP around a monotone guide
//!   path, f32 scoring filled row-stripe at a time through a
//!   [`RowScorer`] (so the score slab is never materialised), rolling
//!   f32 value rows, a band-compacted `u8` traceback, and adaptive band
//!   widening whenever the optimal path touches a closed band edge.
//!   Exact whenever the optimum stays inside the band (up to f32
//!   rounding in the accumulated score); the widening loop degrades to
//!   the full-width f32 DP in the worst case.

use crate::meter::WorkMeter;
use rck_pdb::geometry::{Transform, Vec3};

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

// Traceback codes of both engines.
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

// ---------------------------------------------------------------------------
// Fast path: banded, row-striped f32 DP (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// Structure-of-arrays f32 coordinates — the layout the fast path's
/// distance scoring iterates over, one contiguous lane per axis, so the
/// inner `j` loop over the target chain autovectorizes. Units are
/// angstroms, narrowed from the f64 [`Vec3`] world (≈0.3 Å of mantissa
/// headroom at protein scales, far below the d0 scoring scale).
#[derive(Debug, Default, Clone)]
pub struct SoaPoints {
    xs: Vec<f32>,
    ys: Vec<f32>,
    zs: Vec<f32>,
}

impl SoaPoints {
    /// An empty, reusable buffer.
    pub fn new() -> SoaPoints {
        SoaPoints::default()
    }

    /// Number of points loaded.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no points are loaded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Replace the contents with `pts`, narrowing to f32.
    pub fn load(&mut self, pts: &[Vec3]) {
        self.clear();
        for p in pts {
            self.xs.push(p.x as f32);
            self.ys.push(p.y as f32);
            self.zs.push(p.z as f32);
        }
    }

    /// Replace the contents with `t.apply(p)` for every point, narrowing
    /// to f32 — the fast path's substitute for materialising a moved
    /// `Vec<Vec3>` each refinement round.
    pub fn load_transformed(&mut self, pts: &[Vec3], t: &Transform) {
        self.clear();
        for &p in pts {
            let q = t.apply(p);
            self.xs.push(q.x as f32);
            self.ys.push(q.y as f32);
            self.zs.push(q.z as f32);
        }
    }

    fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
    }
}

/// A source of f32 score-row stripes for the banded DP.
///
/// The fast path never materialises the full `rows × cols` score slab:
/// for each DP row it asks the scorer to fill exactly the in-band stripe
/// `score(i, j_lo), …, score(i, j_lo + out.len() - 1)`. Implementations
/// should keep the fill loop branch-free over `j` so it vectorizes.
pub trait RowScorer {
    /// Length of the first sequence (DP rows).
    fn rows(&self) -> usize;
    /// Length of the second sequence (DP columns).
    fn cols(&self) -> usize;
    /// Fill `out[k] = score(i, j_lo + k)`.
    ///
    /// Invariant: `i < rows()` and `j_lo + out.len() <= cols()`.
    fn fill_row(&mut self, i: usize, j_lo: usize, out: &mut [f32]);
}

/// TM-align's distance score `1 / (1 + d²(i,j) / d0²)` over transformed
/// mobile points vs target points, in f32. Scores are dimensionless in
/// `(0, 1]`; `inv_d0sq` is `1/d0²` in Å⁻².
#[derive(Debug)]
pub struct DistScorer<'a> {
    /// Mobile chain, already transformed into the target frame.
    pub mobile: &'a SoaPoints,
    /// Target chain.
    pub target: &'a SoaPoints,
    /// `1 / d0²` (Å⁻²).
    pub inv_d0sq: f32,
}

impl RowScorer for DistScorer<'_> {
    fn rows(&self) -> usize {
        self.mobile.len()
    }

    fn cols(&self) -> usize {
        self.target.len()
    }

    fn fill_row(&mut self, i: usize, j_lo: usize, out: &mut [f32]) {
        let (xi, yi, zi) = (self.mobile.xs[i], self.mobile.ys[i], self.mobile.zs[i]);
        let tx = &self.target.xs[j_lo..j_lo + out.len()];
        let ty = &self.target.ys[j_lo..j_lo + out.len()];
        let tz = &self.target.zs[j_lo..j_lo + out.len()];
        let inv = self.inv_d0sq;
        for (((o, &px), &py), &pz) in out.iter_mut().zip(tx).zip(ty).zip(tz) {
            let dx = px - xi;
            let dy = py - yi;
            let dz = pz - zi;
            *o = 1.0 / (1.0 + (dx * dx + dy * dy + dz * dz) * inv);
        }
    }
}

/// Secondary-structure match score: 1 where the class codes agree, 0
/// otherwise (the fast-path twin of [`crate::initial::ss_alignment`]'s
/// match matrix). Codes are [`crate::secstruct::SecStruct::code`] values.
#[derive(Debug)]
pub struct SsMatchScorer<'a> {
    /// Class codes of the first chain.
    pub x: &'a [u8],
    /// Class codes of the second chain.
    pub y: &'a [u8],
}

impl RowScorer for SsMatchScorer<'_> {
    fn rows(&self) -> usize {
        self.x.len()
    }

    fn cols(&self) -> usize {
        self.y.len()
    }

    fn fill_row(&mut self, i: usize, j_lo: usize, out: &mut [f32]) {
        let xi = self.x[i];
        let ys = &self.y[j_lo..j_lo + out.len()];
        for (o, &yj) in out.iter_mut().zip(ys) {
            *o = ((yj == xi) as u32) as f32;
        }
    }
}

/// The hybrid initial-alignment score `0.5·distance + 0.5·SS-match`
/// (fast-path twin of [`crate::initial::hybrid_alignment`]'s blended
/// matrix).
#[derive(Debug)]
pub struct BlendScorer<'a> {
    /// Distance component.
    pub dist: DistScorer<'a>,
    /// Secondary-structure component.
    pub ss: SsMatchScorer<'a>,
}

impl RowScorer for BlendScorer<'_> {
    fn rows(&self) -> usize {
        self.dist.rows()
    }

    fn cols(&self) -> usize {
        self.dist.cols()
    }

    fn fill_row(&mut self, i: usize, j_lo: usize, out: &mut [f32]) {
        self.dist.fill_row(i, j_lo, out);
        let xi = self.ss.x[i];
        let ys = &self.ss.y[j_lo..j_lo + out.len()];
        for (o, &yj) in out.iter_mut().zip(ys) {
            *o = 0.5 * *o + 0.5 * (((yj == xi) as u32) as f32);
        }
    }
}

/// Adapter presenting a prebuilt f64 [`ScoreMatrix`] as f32 row stripes —
/// used by tests and benches to drive [`FastDp`] and
/// [`needleman_wunsch`] from identical inputs.
#[derive(Debug)]
pub struct MatrixScorer<'a>(pub &'a ScoreMatrix);

impl RowScorer for MatrixScorer<'_> {
    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn fill_row(&mut self, i: usize, j_lo: usize, out: &mut [f32]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.0.get(i, j_lo + k) as f32;
        }
    }
}

/// Initial band half-width of the adaptive search. Chosen so one banded
/// round almost always suffices on refinement DPs (which perturb an
/// existing alignment by a handful of residues) while keeping the band
/// area an order of magnitude below the full slab on paper-sized chains.
pub const INITIAL_BAND: usize = 24;

const NEG_INF: f32 = f32::NEG_INFINITY;

/// Reusable workspace of the banded fast-path DP. Holds the rolling
/// value rows, the score stripe, the candidate buffers and the
/// band-compacted traceback, so a refinement loop performs no per-round
/// allocations once warm.
#[derive(Debug, Default)]
pub struct FastDp {
    prev: Vec<f32>,
    cur: Vec<f32>,
    stripe: Vec<f32>,
    dcand: Vec<f32>,
    ucand: Vec<f32>,
    dirs: Vec<u8>,
    centers: Vec<u32>,
}

impl FastDp {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> FastDp {
        FastDp::default()
    }

    /// Banded NW alignment with the same objective and tie-breaking as
    /// [`needleman_wunsch`]: maximise `Σ score(i,j) + gap·(#internal
    /// gaps)` with free end gaps, preferring Diag, then Up, then Left.
    ///
    /// `guide`, when given, must be a valid [`Alignment`] for the
    /// scorer's dimensions; the band is laid around it (refinement DPs
    /// pass the previous round's alignment). Without a guide the band
    /// follows the rescaled diagonal. Starting from [`INITIAL_BAND`],
    /// the band quadruples whenever the traceback touches a closed band
    /// edge or the band disconnects, so the result is the true banded
    /// optimum of the final band; at worst this is the full-width f32
    /// DP (counted as `rck_kernel_fastpath_fallbacks_total`).
    ///
    /// Returns the aligned pairs and the optimal score (f32 accumulation
    /// widened to f64).
    pub fn align<S: RowScorer>(
        &mut self,
        scorer: &mut S,
        gap: f32,
        guide: Option<&Alignment>,
        meter: &mut WorkMeter,
    ) -> (Alignment, f64) {
        let n = scorer.rows();
        let m = scorer.cols();
        if n == 0 || m == 0 {
            return (Vec::new(), 0.0);
        }
        let stages = crate::stages::stage_counters();
        stages.dp_rounds.inc();
        stages.fastpath_dp_rounds.inc();
        self.build_centers(n, m, guide);

        let mut band = INITIAL_BAND;
        let mut widened = false;
        loop {
            if let Some(result) = self.banded(scorer, gap, band, meter) {
                if widened && band >= m {
                    stages.fastpath_fallbacks.inc();
                }
                return result;
            }
            debug_assert!(band < m, "full-width band cannot fail");
            stages.fastpath_band_widenings.inc();
            widened = true;
            // Quadruple rather than double: each retry redoes the whole
            // band, so fewer, bigger steps waste less than many small
            // ones when the optimum sits far off the guide path.
            band = (band * 4).min(m);
        }
    }

    /// Band centers per DP row (1-based), by monotone piecewise-linear
    /// interpolation through `(0,0)`, the guide pairs mapped to DP
    /// coordinates, and `(n,m)`.
    fn build_centers(&mut self, n: usize, m: usize, guide: Option<&Alignment>) {
        self.centers.clear();
        self.centers.reserve(n + 1);
        self.centers.push(0);
        let mut anchor = (0usize, 0usize);
        let push_segment = |centers: &mut Vec<u32>, from: (usize, usize), to: (usize, usize)| {
            // Both call sites guarantee a strictly advancing row, so the
            // rounded interpolation below never divides by zero.
            debug_assert!(to.0 > from.0 && to.1 >= from.1);
            let (di, dj) = (to.0 - from.0, to.1 - from.1);
            for i in centers.len()..=to.0.min(n) {
                let c = from.1 + ((i - from.0) * dj + di / 2) / di;
                centers.push(c.min(m) as u32);
            }
        };
        if let Some(pairs) = guide {
            for &(pi, pj) in pairs {
                let to = ((pi + 1).min(n), (pj + 1).min(m));
                if to.0 > anchor.0 {
                    push_segment(&mut self.centers, anchor, to);
                    anchor = to;
                }
            }
        }
        if anchor.0 < n {
            push_segment(&mut self.centers, anchor, (n, m));
        }
        debug_assert_eq!(self.centers.len(), n + 1);
    }

    fn row_bounds(&self, i: usize, m: usize, band: usize) -> (usize, usize) {
        let c = self.centers[i] as usize;
        let lo = c.saturating_sub(band).max(1);
        let hi = (c + band).min(m).max(1);
        (lo, hi)
    }

    /// One banded pass. `None` means the band verdict cannot be trusted
    /// (optimal path touched a closed edge, or the band disconnected)
    /// and the caller must widen.
    fn banded<S: RowScorer>(
        &mut self,
        scorer: &mut S,
        gap: f32,
        band: usize,
        meter: &mut WorkMeter,
    ) -> Option<(Alignment, f64)> {
        let n = scorer.rows();
        let m = scorer.cols();
        let wmax = 2 * band + 1;
        self.prev.clear();
        self.prev.resize(m + 1, 0.0); // DP row 0: free leading end gaps
        self.cur.clear();
        self.cur.resize(m + 1, NEG_INF);
        self.stripe.resize(wmax, 0.0);
        self.dcand.resize(wmax, 0.0);
        self.ucand.resize(wmax, 0.0);
        self.dirs.clear();
        self.dirs.resize(n * wmax, DIR_DIAG);

        let mut cells = 0u64;
        let (mut prev_lo, mut prev_hi) = (0usize, m); // row 0 is fully "written"
        for i in 1..=n {
            let (lo, hi) = self.row_bounds(i, m, band);
            let w = hi - lo + 1;
            // The previous row must read as NEG_INF wherever it was not
            // computed: clear the parts of this row's read window
            // [lo-1, hi] that fall outside the previous written window.
            for j in (lo - 1)..(prev_lo.saturating_sub(1).min(hi + 1)) {
                self.prev[j] = NEG_INF;
            }
            if hi > prev_hi {
                for j in (prev_hi + 1)..=hi {
                    self.prev[j] = NEG_INF;
                }
            }
            // Column 0 is the free leading end gap; any other cell left
            // of the band is unreachable.
            self.cur[lo - 1] = if lo == 1 { 0.0 } else { NEG_INF };

            scorer.fill_row(i - 1, lo - 1, &mut self.stripe[..w]);
            // Candidate passes without loop-carried dependencies — these
            // are the stripes the autovectorizer gets.
            for k in 0..w {
                self.dcand[k] = self.prev[lo - 1 + k] + self.stripe[k];
            }
            for k in 0..w {
                self.ucand[k] = self.prev[lo + k] + gap;
            }
            if hi == m {
                // Trailing end gap: consuming i at the last column is free.
                self.ucand[w - 1] = self.prev[m];
            }
            let left_pen = if i == n { 0.0 } else { gap };
            // The dependent sweep: branch-free three-way max with the
            // oracle's tie order (Diag ≥ Up ≥ Left).
            let mut left = self.cur[lo - 1];
            let dir_row = &mut self.dirs[(i - 1) * wmax..(i - 1) * wmax + w];
            for (k, dir) in dir_row.iter_mut().enumerate() {
                let sd = self.dcand[k];
                let su = self.ucand[k];
                let sl = left + left_pen;
                let mut best = sd;
                let mut d = DIR_DIAG;
                if su > best {
                    best = su;
                    d = DIR_UP;
                }
                if sl > best {
                    best = sl;
                    d = DIR_LEFT;
                }
                self.cur[lo + k] = best;
                *dir = d;
                left = best;
            }
            cells += w as u64;
            std::mem::swap(&mut self.prev, &mut self.cur);
            (prev_lo, prev_hi) = (lo, hi);
        }
        meter.charge(cells);

        let total = self.prev[m];
        if !total.is_finite() {
            return None; // band disconnected — widen
        }

        // Traceback through the band-compacted direction table.
        let mut pairs = Vec::with_capacity(n.min(m));
        let (mut i, mut j) = (n, m);
        let mut touched = false;
        let full_cover = band >= m;
        while i > 0 || j > 0 {
            if i == 0 {
                j -= 1; // free leading end gap along DP row 0
                continue;
            }
            if j == 0 {
                i -= 1; // free leading end gap along DP column 0
                continue;
            }
            let (lo, hi) = self.row_bounds(i, m, band);
            if j < lo || j > hi {
                return None; // fell off the band — widen
            }
            if (j == lo && lo > 1) || (j == hi && hi < m) {
                touched = true;
            }
            match self.dirs[(i - 1) * (2 * band + 1) + (j - lo)] {
                DIR_DIAG => {
                    pairs.push((i - 1, j - 1));
                    i -= 1;
                    j -= 1;
                }
                DIR_UP => i -= 1,
                _ => j -= 1,
            }
        }
        if touched && !full_cover {
            return None; // optimum leaned on a closed edge — widen
        }
        pairs.reverse();
        Some((pairs, total as f64))
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

    // --- fast path --------------------------------------------------------

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> ScoreMatrix {
        ScoreMatrix::from_fn(rows, cols, |i, j| {
            let h = (seed + 1)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i * 97 + j * 131) as u64);
            ((h >> 33) % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn fast_empty_inputs() {
        let m = ScoreMatrix::zeros(0, 5);
        let (a, s) = FastDp::new().align(&mut MatrixScorer(&m), -0.6, None, &mut meter());
        assert!(a.is_empty());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn fast_identity_diagonal() {
        let m = ScoreMatrix::from_fn(5, 5, |i, j| if i == j { 1.0 } else { 0.0 });
        let (a, s) = FastDp::new().align(&mut MatrixScorer(&m), -0.6, None, &mut meter());
        assert_eq!(a, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert!((s - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fast_shifted_diagonal_uses_end_gaps() {
        let m = ScoreMatrix::from_fn(6, 6, |i, j| if j == i + 2 { 1.0 } else { 0.0 });
        let (a, s) = FastDp::new().align(&mut MatrixScorer(&m), -0.6, None, &mut meter());
        assert_eq!(a, vec![(0, 2), (1, 3), (2, 4), (3, 5)]);
        assert!((s - 4.0).abs() < 1e-6, "score {s}");
    }

    #[test]
    fn fast_matches_scalar_exactly_under_full_cover() {
        // cols ≤ INITIAL_BAND → the first banded pass is already the
        // full-width DP, which shares the oracle's tie-breaking — the
        // alignments must be identical, not merely equal-scoring.
        let mut dp = FastDp::new();
        for seed in 0..20u64 {
            let rows = 3 + (seed % 17) as usize;
            let cols = 3 + ((seed * 7) % 21) as usize;
            assert!(cols <= INITIAL_BAND);
            let m = pseudo_random(rows, cols, seed);
            let (sa, ss) = needleman_wunsch(&m, -0.6, &mut meter());
            let (fa, fs) = dp.align(&mut MatrixScorer(&m), -0.6, None, &mut meter());
            assert_eq!(fa, sa, "seed {seed}");
            assert!((fs - ss).abs() < 1e-5, "seed {seed}: {fs} vs {ss}");
        }
    }

    #[test]
    fn fast_widens_to_reach_far_off_diagonal_optimum() {
        // The only rewarding cells sit 40 columns right of the diagonal —
        // outside the initial band of 24, so at least one widening is
        // needed before the fast path can return the oracle's answer.
        let n = 60;
        let m = ScoreMatrix::from_fn(n, n + 40, |i, j| if j == i + 40 { 1.0 } else { 0.0 });
        let widenings = crate::stages::stage_counters()
            .fastpath_band_widenings
            .get();
        let (fa, fs) = FastDp::new().align(&mut MatrixScorer(&m), -0.6, None, &mut meter());
        let (sa, ss) = needleman_wunsch(&m, -0.6, &mut meter());
        assert_eq!(fa, sa);
        assert!((fs - ss).abs() < 1e-5);
        assert!(
            crate::stages::stage_counters()
                .fastpath_band_widenings
                .get()
                > widenings,
            "expected at least one band widening"
        );
    }

    #[test]
    fn fast_with_guide_reproduces_scalar_refinement_round() {
        // Refinement usage: band laid around the previous alignment.
        // Guiding with the oracle's own optimum must reproduce it.
        let mut dp = FastDp::new();
        for seed in 0..8u64 {
            let m = pseudo_random(40, 50, seed);
            let (sa, ss) = needleman_wunsch(&m, -0.6, &mut meter());
            let (fa, fs) = dp.align(&mut MatrixScorer(&m), -0.6, Some(&sa), &mut meter());
            assert!(is_valid_alignment(&fa, 40, 50), "seed {seed}");
            assert!(
                fs >= ss - 1e-4,
                "seed {seed}: guided fast {fs} below scalar {ss}"
            );
        }
    }

    #[test]
    fn fast_charges_fewer_cells_than_full_slab() {
        let n = 200;
        let m = ScoreMatrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let mut fast_meter = meter();
        let (_, s) = FastDp::new().align(&mut MatrixScorer(&m), -0.6, None, &mut fast_meter);
        assert!((s - n as f64).abs() < 1e-3);
        assert!(
            fast_meter.ops() < (n * n) as u64 / 3,
            "banded pass charged {} of {} cells",
            fast_meter.ops(),
            n * n
        );
    }

    #[test]
    fn soa_points_transform_matches_scalar_apply() {
        let pts = vec![
            Vec3::new(1.0, -2.0, 3.0),
            Vec3::new(0.5, 8.0, -1.25),
            Vec3::new(-4.0, 0.0, 2.0),
        ];
        let t = Transform {
            rot: rck_pdb::geometry::Mat3::rotation_about(Vec3::new(0.3, 1.0, -0.2), 0.9),
            trans: Vec3::new(2.0, -1.0, 0.5),
        };
        let mut soa = SoaPoints::new();
        soa.load_transformed(&pts, &t);
        assert_eq!(soa.len(), 3);
        for (k, &p) in pts.iter().enumerate() {
            let q = t.apply(p);
            assert!((soa.xs[k] as f64 - q.x).abs() < 1e-5);
            assert!((soa.ys[k] as f64 - q.y).abs() < 1e-5);
            assert!((soa.zs[k] as f64 - q.z).abs() < 1e-5);
        }
    }

    #[test]
    fn dist_scorer_matches_score_matrix_formula() {
        let x = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(3.0, 0.0, 0.0)];
        let y = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 4.0, 0.0)];
        let d0sq = 2.25f64; // d0 = 1.5 Å
        let (mut mobile, mut target) = (SoaPoints::new(), SoaPoints::new());
        mobile.load(&x);
        target.load(&y);
        let mut scorer = DistScorer {
            mobile: &mobile,
            target: &target,
            inv_d0sq: (1.0 / d0sq) as f32,
        };
        let mut row = [0.0f32; 2];
        for (i, &xi) in x.iter().enumerate() {
            scorer.fill_row(i, 0, &mut row);
            for j in 0..2 {
                let want = 1.0 / (1.0 + xi.dist_sq(y[j]) / d0sq);
                assert!((row[j] as f64 - want).abs() < 1e-6, "({i},{j})");
            }
        }
    }
}
