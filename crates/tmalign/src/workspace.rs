//! The per-pair workspace of [`crate::tm_align_with`].
//!
//! One alignment runs some twenty DP rounds and as many rotation
//! searches over the same two chains; every buffer those rounds need
//! lives here, is created once at the top of the call and is threaded by
//! `&mut` through the initials, refinement and final scoring. Every
//! buffer is overwritten before it is read, so no buffer carries anything
//! from one round — or one pair — to the next. What does carry over,
//! within one call only, is the [`RoundTable`]: the refinement rounds the
//! call has already computed.

use crate::dp::{StreamDp, TargetLanes};
use crate::tmscore::{SearchResult, SearchScratch};
use rck_pdb::geometry::Vec3;
use std::ops::Range;

/// Every buffer one `tm_align` call needs.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// The scalar oracle's DP rows and traceback.
    pub dp: StreamDp,
    /// The target chain as f64 lanes, for the oracle's distance rows
    /// (loaded by [`Workspace::retarget`]).
    pub target: TargetLanes,
    /// The mobile chain under the current transform.
    pub moved: Vec<Vec3>,
    /// Mobile coordinates of the current alignment's pairs …
    pub xa: Vec<Vec3>,
    /// … and their target partners.
    pub ya: Vec<Vec3>,
    /// Buffers of the rotation search.
    pub search: SearchScratch,
    /// The alignments this call has visited and their refinement rounds.
    pub rounds: RoundTable,
}

impl Workspace {
    /// Point the workspace at the target chain `y`.
    pub fn retarget(&mut self, y: &[Vec3]) {
        self.target.load(y);
    }

    /// Split alignment `id` of [`Workspace::rounds`] into the parallel
    /// coordinate vectors [`Workspace::xa`] and [`Workspace::ya`].
    pub fn gather(&mut self, x: &[Vec3], y: &[Vec3], id: usize) {
        let alignment = self.rounds.pairs(id);
        self.xa.clear();
        self.ya.clear();
        self.xa.extend(alignment.iter().map(|&(i, _)| x[i]));
        self.ya.extend(alignment.iter().map(|&(_, j)| y[j]));
    }
}

/// What a refinement step answered and the [`crate::WorkMeter`] amount it
/// charged — what a revisit takes and charges instead of recomputing.
pub(crate) type Charged<T> = Option<(T, u64)>;

/// The refinement rounds of one `tm_align` call, interned (DESIGN.md
/// §13.1). A rotation search depends only on the alignment it starts
/// from, the re-alignment DP only on that alignment and the gap penalty,
/// and the three initials × two gap ladders keep arriving at alignments
/// the pair has been through: each *distinct* alignment is kept once —
/// pairs in one flat arena, an id per alignment — with its answers.
#[derive(Debug, Default)]
pub(crate) struct RoundTable {
    pairs: Vec<(usize, usize)>,
    alignments: Vec<Interned>,
}

/// One distinct alignment and what its rounds answered.
#[derive(Debug)]
pub(crate) struct Interned {
    /// Its pairs in the arena.
    range: Range<usize>,
    /// Its rotation search.
    pub search: Charged<SearchResult>,
    /// Per gap-penalty slot: the id of the alignment its DP produced.
    pub next: [Charged<usize>; 2],
}

impl RoundTable {
    /// Forget everything: another `Normalization` or depth over the same
    /// pair must see none of it.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.alignments.clear();
    }

    /// The id of `alignment`, recording it on first sight.
    pub fn intern(&mut self, alignment: &[(usize, usize)]) -> usize {
        let same = |a: &Interned| self.pairs[a.range.clone()] == *alignment;
        if let Some(id) = self.alignments.iter().position(same) {
            return id;
        }
        let start = self.pairs.len();
        self.pairs.extend_from_slice(alignment);
        self.alignments.push(Interned {
            range: start..self.pairs.len(),
            search: None,
            next: [None; 2],
        });
        self.alignments.len() - 1
    }

    /// The pairs of alignment `id`.
    pub fn pairs(&self, id: usize) -> &[(usize, usize)] {
        &self.pairs[self.alignments[id].range.clone()]
    }

    /// The answers of alignment `id`'s rounds.
    pub fn of(&mut self, id: usize) -> &mut Interned {
        &mut self.alignments[id]
    }
}

#[cfg(test)]
impl RoundTable {
    /// How many rotation searches and re-alignment DPs the table holds
    /// the answers of: the ones executed since the last `clear`.
    pub fn executed(&self) -> (usize, usize) {
        let searches = self.alignments.iter().filter(|a| a.search.is_some());
        let dps = self.alignments.iter().flat_map(|a| a.next.iter().flatten());
        (searches.count(), dps.count())
    }
}
