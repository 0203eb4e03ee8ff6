//! Allocation budget of one scalar `tm_align`.
//!
//! The oracle's live DP state is three rows and a byte per cell; before
//! the streaming engine every DP round materialised a score matrix, a
//! full value table and a step table (this test measured 11 713 644 bytes
//! in 583 allocations for the pair below). The bounds are a tenth of
//! those bytes and a quarter of that count, so a later edit cannot
//! quietly re-materialise a slab or put a `Vec` back inside a
//! per-round loop.
//!
//! One test only: the counters are process-wide, and a second test
//! running on another thread would be counted too.

use rck_pdb::datasets::ck34_profile;
use rck_tmalign::tm_align;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every block handed out (a `realloc`
/// counts as one allocation of the new size).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are side
// effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A tenth of the 11 713 644 bytes the full-table kernel allocated.
const MAX_BYTES: u64 = 1_171_364;
/// A quarter of its 583 allocations.
const MAX_ALLOCATIONS: u64 = 145;

#[test]
fn one_scalar_alignment_stays_inside_the_allocation_budget() {
    let chains = ck34_profile().generate(2013);
    let (a, b) = (&chains[0], &chains[12]);
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let result = tm_align(a, b);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    assert!(result.aligned_len > 0);
    assert!(
        bytes <= MAX_BYTES && allocations <= MAX_ALLOCATIONS,
        "{} x {} residues: {bytes} bytes in {allocations} allocations (budget {MAX_BYTES} / {MAX_ALLOCATIONS})",
        a.len(),
        b.len()
    );
}
