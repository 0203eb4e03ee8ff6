//! Tiling the all-vs-all pair matrix for the sharded multi-master farm.
//!
//! One master owning the whole `N×N` upper triangle is the paper's
//! measured scaling ceiling (Fig. 7): past the throughput knee, adding
//! workers buys nothing because dispatch itself serializes. The sharded
//! farm (`rck-shard`) breaks the triangle into rectangular **tiles** and
//! spreads tile ownership across several masters; this module is the
//! shared geometry both sides rely on.
//!
//! The contract, enforced by proptests in `crates/core/tests`:
//!
//! * [`tile_partition`] covers every unordered pair `(i, j)`, `i < j`,
//!   **exactly once** for any `(n, tile_size)`;
//! * [`assign_tiles`] deals the tiles across `masters` ownership queues
//!   deterministically (interleaved, so early big tiles spread out);
//! * [`merge_outcomes`] reassembles tile sub-results into the flat
//!   outcome list *independently of arrival order* — the merged matrix
//!   is bit-identical to a single-master run no matter which master
//!   computed which tile, how tiles were stolen, or how duplicates
//!   raced.

use crate::jobs::{PairJob, PairOutcome};
use rck_tmalign::MethodKind;

/// One rectangular block of the upper-triangular pair matrix.
///
/// Rows span `[row0, row1)` and columns `[col0, col1)` of the dataset
/// index space; the tile's job set is every `(i, j)` in the block with
/// `i < j` (diagonal blocks are triangular, off-diagonal blocks are
/// full rectangles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Position in the partition (dense, `0..tiles.len()`).
    pub id: u32,
    /// First dataset row (inclusive).
    pub row0: u32,
    /// Last dataset row (exclusive).
    pub row1: u32,
    /// First dataset column (inclusive).
    pub col0: u32,
    /// Last dataset column (exclusive).
    pub col1: u32,
}

impl Tile {
    /// The pair jobs this tile owns: `(i, j)` with `i` in the row span,
    /// `j` in the column span, and `i < j`.
    pub fn jobs(&self, method: MethodKind) -> Vec<PairJob> {
        let mut jobs = Vec::new();
        for i in self.row0..self.row1 {
            let j0 = self.col0.max(i + 1);
            for j in j0..self.col1 {
                jobs.push(PairJob { i, j, method });
            }
        }
        jobs
    }

    /// Number of jobs without materialising them.
    pub fn job_count(&self) -> usize {
        let mut count = 0usize;
        for i in self.row0..self.row1 {
            let j0 = self.col0.max(i + 1);
            count += (self.col1.saturating_sub(j0)) as usize;
        }
        count
    }
}

/// Partition the `n×n` upper triangle into square-ish tiles of side
/// `tile_size`. Blocks are emitted row-major over the block grid,
/// keeping only blocks on or above the diagonal — every `(i, j)` with
/// `i < j` lands in exactly one tile: the block of `(i / ts, j / ts)`.
///
/// `tile_size` is clamped to at least 1; `n == 0` yields no tiles.
pub fn tile_partition(n: usize, tile_size: usize) -> Vec<Tile> {
    let ts = tile_size.max(1) as u32;
    let n = n as u32;
    let mut tiles = Vec::new();
    let blocks = n.div_ceil(ts);
    for bi in 0..blocks {
        for bj in bi..blocks {
            let tile = Tile {
                id: tiles.len() as u32,
                row0: bi * ts,
                row1: ((bi + 1) * ts).min(n),
                col0: bj * ts,
                col1: ((bj + 1) * ts).min(n),
            };
            // A 1-wide diagonal block owns no i<j pair; skip empties so
            // every tile granted over the wire carries real work.
            if tile.job_count() > 0 {
                tiles.push(tile);
            }
        }
    }
    tiles
}

/// Deal tile ids across `masters` ownership queues, interleaved
/// (`tile.id % masters`), so the heavier early blocks spread across
/// masters instead of piling onto the first — the same cost-interleaving
/// rule the simulator's two-level hierarchy uses (`core::hierarchy`).
/// With `masters == 0` everything lands in one queue.
pub fn assign_tiles(tiles: &[Tile], masters: usize) -> Vec<Vec<u32>> {
    let m = masters.max(1);
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); m];
    for t in tiles {
        owned[t.id as usize % m].push(t.id);
    }
    owned
}

/// Merge per-tile outcome lists into one flat, `(i, j)`-sorted outcome
/// vector, dropping duplicate pairs (steal races legitimately produce
/// the same tile twice; first-accepted wins, and since both computed the
/// identical pure function the choice cannot matter). The result is
/// independent of the order tiles arrive in — the "merge-on-read"
/// determinism the sharded farm's bit-identity guarantee rests on.
pub fn merge_outcomes(
    tile_results: impl IntoIterator<Item = Vec<PairOutcome>>,
) -> Vec<PairOutcome> {
    let mut all: Vec<PairOutcome> = tile_results.into_iter().flatten().collect();
    all.sort_by_key(|o| (o.i, o.j));
    all.dedup_by_key(|o| (o.i, o.j));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::pair_count;

    #[test]
    fn partition_covers_small_exactly_once() {
        for n in 0..20 {
            for ts in 1..8 {
                let tiles = tile_partition(n, ts);
                let mut seen = std::collections::HashSet::new();
                for t in &tiles {
                    assert_eq!(t.jobs(MethodKind::TmAlign).len(), t.job_count());
                    for job in t.jobs(MethodKind::TmAlign) {
                        assert!(job.i < job.j);
                        assert!(seen.insert((job.i, job.j)), "pair covered twice");
                    }
                }
                assert_eq!(seen.len(), pair_count(n), "n={n} ts={ts}");
            }
        }
    }

    #[test]
    fn tile_ids_are_dense_and_ordered() {
        let tiles = tile_partition(17, 5);
        for (k, t) in tiles.iter().enumerate() {
            assert_eq!(t.id as usize, k);
        }
    }

    #[test]
    fn assignment_is_a_partition_of_tiles() {
        let tiles = tile_partition(23, 4);
        let owned = assign_tiles(&tiles, 3);
        let mut all: Vec<u32> = owned.iter().flatten().copied().collect();
        all.sort_unstable();
        let want: Vec<u32> = (0..tiles.len() as u32).collect();
        assert_eq!(all, want);
        // Interleaving keeps queue sizes within one tile of each other.
        let sizes: Vec<usize> = owned.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn merge_drops_duplicates_and_sorts() {
        let o = |i: u32, j: u32, s: f64| PairOutcome {
            i,
            j,
            method: MethodKind::TmAlign,
            similarity: s,
            rmsd: 1.0,
            aligned_len: 4,
            ops: 7,
        };
        let merged = merge_outcomes(vec![
            vec![o(2, 3, 0.5), o(0, 1, 0.9)],
            vec![o(0, 1, 0.9), o(0, 2, 0.4)],
        ]);
        let pairs: Vec<(u32, u32)> = merged.iter().map(|x| (x.i, x.j)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (2, 3)]);
    }
}
