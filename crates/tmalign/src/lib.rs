//! # rck-tmalign
//!
//! A from-scratch Rust implementation of the **TM-align** protein structure
//! alignment algorithm (Zhang & Skolnick, *Nucleic Acids Research* 2005) —
//! the pairwise comparison kernel that the rckAlign paper ports to the
//! Intel SCC. The paper's authors converted the Fortran original to C with
//! f2c; here the algorithm is reimplemented natively:
//!
//! * [`kabsch`] — optimal rigid superposition (quaternion/Jacobi);
//! * [`tmscore`] — TM-score and the iterative rotation search;
//! * [`dp`] — the Needleman–Wunsch kernel with free end gaps: one
//!   scalar f64 engine streaming score rows through two rolling value
//!   rows ([`dp::StreamDp`], DESIGN.md §13.7);
//! * [`prefilter`] — pruning prefilters for all-to-all workloads
//!   (length-ratio bound, SS-composition screen, early termination) —
//!   the whole of what [`TmAlignParams::fast`] adds to the oracle;
//! * [`secstruct`] — CA-geometry secondary-structure assignment;
//! * [`initial`] — the three initial alignments of the paper;
//! * [`align`] — the full algorithm and its result type;
//! * [`comparators`] — the method abstraction used by the MC-PSC
//!   extension, with TM-align, Kabsch-RMSD and contact-map-overlap
//!   implementations.
//!
//! All kernels charge their inner-loop operation counts to a
//! [`meter::WorkMeter`]; the simulated SCC converts those into core cycles.
//!
//! ```
//! use rck_pdb::datasets;
//! use rck_tmalign::tm_align;
//!
//! let chains = datasets::tiny_profile().generate(7);
//! let result = tm_align(&chains[0], &chains[1]);
//! assert!(result.tm_norm_a > 0.0 && result.tm_norm_a <= 1.0);
//! ```

#![warn(missing_docs)]

/// Version of the comparison kernels, folded into every content-addressed
/// result key of the persistent store (`rck-store`) and into the gate's
/// query-coalescing fingerprints. Bump it whenever *any* kernel change
/// can alter a score bit — stored results from older kernels then simply
/// stop matching and are recomputed, never silently reused.
///
/// `tests/oracle_bits.rs` decides whether a bump is due: it hashes every
/// field of every result over the golden corpus against constants pinned
/// before the last kernel edit. While it passes unchanged, no bit moved
/// and the version stays; when an edit needs its constants updated, bump
/// this in the same change.
pub const KERNEL_VERSION: u32 = 1;

pub mod align;
pub mod comparators;
pub mod display;
pub mod dp;
pub mod initial;
pub mod kabsch;
pub mod meter;
pub mod prefilter;
pub mod secstruct;
pub mod stages;
pub mod tmscore;
mod workspace;

pub use align::{
    tm_align, tm_align_with, Normalization, TmAlignParams, TmAlignResult, MIN_CHAIN_LEN,
};
pub use comparators::{MethodKind, PscMethod, PscScore};
pub use meter::WorkMeter;
pub use prefilter::{PrefilterConfig, PrefilterDecision};
pub use tmscore::tm_score_fixed;
