//! The per-pair workspace of [`crate::tm_align_with`].
//!
//! One alignment runs some twenty DP rounds and as many rotation
//! searches over the same two chains; every buffer those rounds need
//! lives here, is created once at the top of the call and is threaded by
//! `&mut` through the initials, refinement and final scoring. Every
//! buffer is overwritten before it is read, so nothing carries over from
//! one round — or one pair — to the next.

use crate::dp::{Alignment, StreamDp, TargetLanes};
use crate::tmscore::SearchScratch;
use rck_pdb::geometry::Vec3;

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
}

impl Workspace {
    /// Point the workspace at the target chain `y`.
    pub fn retarget(&mut self, y: &[Vec3]) {
        self.target.load(y);
    }

    /// Split an alignment into the parallel coordinate vectors
    /// [`Workspace::xa`] and [`Workspace::ya`].
    pub fn gather(&mut self, x: &[Vec3], y: &[Vec3], alignment: &Alignment) {
        self.xa.clear();
        self.ya.clear();
        self.xa.extend(alignment.iter().map(|&(i, _)| x[i]));
        self.ya.extend(alignment.iter().map(|&(_, j)| y[j]));
    }
}
